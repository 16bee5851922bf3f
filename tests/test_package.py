import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hardyshift
from hardyshift import (
    CommutantBasis,
    DenseMatrix,
    GaussianRational,
    MatrixSymbol,
    SparseMatrix,
    TruncationParams,
    commutant_basis,
    power_symbol,
)
from hardyshift.commutant import operator_rank

ROOT = Path(__file__).resolve().parents[1]


def test_export_table_has_no_duplicates_and_every_name_resolves():
    names = hardyshift.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(hardyshift, name)] == []


def test_dense_algebra_is_not_part_of_the_package():
    # products, comparisons and the Toeplitz predicate for one block live
    # in the tests' dense reference (tests/helpers.py), not in src/
    import hardyshift.matrices as matrices

    assert "matrices_close" not in hardyshift.__all__
    assert "is_lower_toeplitz" not in hardyshift.__all__
    assert not {"np", "numpy"} & set(vars(matrices))
    assert not hasattr(hardyshift.DenseMatrix, "__matmul__")
    # SparseMatrix is the one operator type: it has no dense view, and
    # DenseMatrix is only a symbol's validated coefficient matrix
    assert not hasattr(hardyshift.SparseMatrix, "to_dense")
    for name in ("nonzero_items", "nnz", "rank", "__getitem__"):
        assert not hasattr(hardyshift.DenseMatrix, name)


def test_the_record_layer_has_no_rank_and_imports_no_solver():
    # commutant.operator_rank is the one rank
    import hardyshift.matrices as matrices

    assert not hasattr(hardyshift.SparseMatrix, "rank")
    assert not hasattr(matrices, "linalg")
    assert "operator_rank" in hardyshift.__all__


def test_minimality_needs_no_restriction_of_its_own():
    # check_minimal reads each channel's block off one scan of T, and a
    # channel that T joins to another is reported, not raised
    import hardyshift.commutant as commutant
    import hardyshift.errors as errors

    for module in (hardyshift, commutant, errors):
        assert not {"restrict", "InvarianceError"} & set(vars(module))
    assert not {"restrict", "InvarianceError"} & set(hardyshift.__all__)


def test_float_solves_keep_no_array_machinery_of_their_own():
    # a float system is the rows of an exact one, split by
    # linalg.components and solved one SVD per block; floatsolve builds no
    # systems, so it needs nothing from commutant
    import hardyshift.floatsolve as floatsolve

    deleted = {"float_terms", "hermitian_terms", "FloatBlocks", "float_blocks", "_labels",
               "_runs", "_group", "_row_counts", "_float_kernels"}
    assert deleted & set(vars(floatsolve)) == set()
    assert "commutant" not in vars(floatsolve)
    source = (ROOT / "src" / "hardyshift" / "floatsolve.py").read_text()
    assert "from .commutant" not in source and "hardyshift.commutant" not in source


def test_commutant_states_each_equation_in_its_one_loop():
    # the commutation and Hermitian terms are written where they are added
    # up, in _commutation_rows and selfadjoint_commutant_dim
    import hardyshift.commutant as commutant

    assert {"_commutation_terms", "_hermitian_terms"} & set(vars(commutant)) == set()


def test_commutant_walks_one_subdiagonal_only():
    # the chain path serves 0/1 shifts along one subdiagonal; a general
    # partial permutation, cycles included, is solved by elimination
    import hardyshift.commutant as commutant

    assert {"_closed_orbits", "_partial_permutation"} & set(vars(commutant)) == set()


def test_one_solve_per_system():
    # off the chain path, a rank or a self-adjoint count is the length of
    # a kernel_basis, whose float blocks each take one full SVD
    import inspect

    import hardyshift.floatsolve as floatsolve
    import hardyshift.linalg as linalg

    assert not hasattr(linalg, "nullity") and not hasattr(floatsolve, "nullity")
    assert "vectors" not in inspect.signature(floatsolve._solve_block).parameters
    assert not hasattr(MatrixSymbol, "degree")


def test_config_is_the_one_refusal_stage_and_main_the_one_exit_map():
    # config_from_args reads the symbol file and checks the channel cap, and
    # main maps every outcome to its exit code
    import inspect

    import hardyshift.cli as cli

    assert not hasattr(cli, "run") and not hasattr(cli, "_operator")
    source = inspect.getsource(cli.execute)
    assert "ConfigError" not in source and "check_enumeration_cap" not in source


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["full-report", "--m", "2", "--n", "2", "--blocks", "3"], False),
        (["commutant", "--m", "2", "--n", "1", "--blocks", "3",
          "--symbol", str(ROOT / "benchmarks" / "symbol_F.json")], False),
        (["full-report", "--m", "2", "--n", "2", "--blocks", "3", "--mode", "float",
          "--tol", "1e-9"], False),
        (["commutant", "--m", "2", "--n", "1", "--blocks", "3", "--mode", "float",
          "--tol", "1e-9", "--symbol", str(ROOT / "benchmarks" / "symbol_F.json")], True),
        (["build", "--m", "2", "--n", "2", "--blocks", "3", "--mode", "float",
          "--tol", "1e-9"], False),
        (["build", "--m", "2", "--n", "1", "--blocks", "3", "--mode", "float",
          "--tol", "1e-9", "--symbol", str(ROOT / "benchmarks" / "symbol_F.json")], True),
    ],
    ids=["exact-power", "exact-symbol", "float-power", "float-symbol", "float-power-build",
         "float-symbol-build"],
)
def test_numpy_is_loaded_only_by_float_solves(tmp_path, argv, loaded):
    # z^n is solved by its chains in both modes, and its rank is its count of
    # nonzeros, and an exact symbol by rref alone, so only a float symbol's
    # SVDs, for its commutant or its rank, import numpy
    script = ("import sys, hardyshift.cli as cli; rc = cli.main(sys.argv[1:]); "
              "print('numpy' in sys.modules); sys.exit(rc)")
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv, "--out", str(tmp_path / "report.json")],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{loaded}\n"


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["full-report", "--m", "2", "--n", "2", "--blocks", "3"], False),
        (["full-report", "--m", "2", "--n", "2", "--blocks", "3", "--mode", "float",
          "--tol", "1e-9"], False),
        (["build", "--m", "2", "--n", "2", "--blocks", "3"], False),
        (["commutant", "--m", "2", "--n", "1", "--blocks", "3",
          "--symbol", str(ROOT / "benchmarks" / "symbol_F.json")], True),
    ],
    ids=["exact-report", "float-report", "exact-build", "exact-symbol"],
)
def test_fractions_is_loaded_only_to_parse_rational_literals(tmp_path, argv, loaded):
    # a z^n run computes and prints its Gaussian rationals as ints; only a
    # symbol file's literals are read with Fraction's grammar
    script = ("import sys, hardyshift.cli as cli; rc = cli.main(sys.argv[1:]); "
              "print('fractions' in sys.modules); sys.exit(rc)")
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv, "--out", str(tmp_path / "report.json")],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{loaded}\n"


def test_cli_import_loads_no_record_machinery_csv_or_numpy():
    # start-up pays only for what every run uses: the records are plain
    # classes and named tuples, csv waits for a CSV table, a float scalar
    # is checked finite by math, every chain is a range, not an array, and
    # a Gaussian rational is a triple of ints, not Fractions
    script = ("import sys; bare = set(sys.modules); import hardyshift.cli; "
              "added = set(sys.modules) - bare; "
              "print(sorted(added & {'dataclasses', 'inspect', 'csv', 'numpy', 'cmath', 'array', "
              "'fractions', 'decimal', 'numbers'}))")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    sources = sorted((ROOT / "src" / "hardyshift").rglob("*.py"))
    assert sources and [f.name for f in sources if "dataclass" in f.read_text()] == []


def params_record():
    value = TruncationParams(2, 3, 4)
    return (value, TruncationParams(m=2, n=3, K=4), [TruncationParams(2, 3, 5), (2, 3, 4)],
            ("m", "d"), "TruncationParams(m=2, n=3, K=4)")


def sparse_record():
    value = SparseMatrix({(1, 0): GaussianRational(1)}, 2, 2, "exact")
    # the subdiagonal scan that commutant keeps on it is no field
    assert operator_rank(value) == 1 and "_shape" in vars(value)
    others = [SparseMatrix({(1, 0): GaussianRational(2)}, 2, 2, "exact"),
              SparseMatrix({(1, 0): GaussianRational(1)}, 2, 3, "exact"),
              SparseMatrix({(1, 0): 1 + 0j}, 2, 2, "float")]
    return (value, SparseMatrix({(1, 0): GaussianRational(1)}, 2, 2, "exact"), others,
            ("entries",), "SparseMatrix(2x2, mode='exact')")


def basis_record():
    value = commutant_basis(power_symbol(TruncationParams(2, 2, 2)))
    others = [CommutantBasis(value.d, value.mode, value.members[:-1]),
              CommutantBasis(value.d, "float", value.members)]
    return (value, commutant_basis(power_symbol(TruncationParams(2, 2, 2))), others,
            ("members",), "CommutantBasis(d=8, mode='exact', dim=32)")


def symbol_record():
    c0, c3 = DenseMatrix([[1, 0], [0, 1]]), DenseMatrix([[0, 0], [1, 0]])
    others = [MatrixSymbol(2, ((0, c0),)), MatrixSymbol(2, ((0, c0), (2, c3)))]
    return (MatrixSymbol(2, ((0, c0), (3, c3))), MatrixSymbol(2, ((3, c3), (0, c0))), others,
            ("coeffs",), "MatrixSymbol(m=2, coeffs=((0, DenseMatrix(2x2, mode='exact')), "
                         "(3, DenseMatrix(2x2, mode='exact'))))")


def dense_record():
    value = DenseMatrix([[1, Fraction(1, 2)]])
    others = [DenseMatrix([[1, 2]]), DenseMatrix([[1], [Fraction(1, 2)]]),
              DenseMatrix([[1.0, 0.5]], "float")]
    return (value, DenseMatrix([[GaussianRational(1), GaussianRational(Fraction(1, 2))]]),
            others, ("entries", "rows"), "DenseMatrix(1x2, mode='exact')")


RECORDS = {"TruncationParams": params_record, "SparseMatrix": sparse_record,
           "CommutantBasis": basis_record, "MatrixSymbol": symbol_record,
           "DenseMatrix": dense_record}


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS)
def test_records_are_read_only_values(make):
    value, twin, others, fields, text = make()
    assert value == twin and not value != twin and value is not twin
    assert all(value != other and other != value for other in others)
    assert repr(value) == text
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == twin and not hasattr(value, "extra")
    if isinstance(value, TruncationParams):
        assert hash(value) == hash(twin) and len({value, twin, *others}) == 1 + len(others)
    else:
        with pytest.raises(TypeError):
            hash(value)


def class_bindings(source: Path):
    """(name, the names its body defines or assigns) for each class of a
    module."""
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.ClassDef):
            names = set()
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    names.add(item.name)
                elif isinstance(item, ast.Assign):
                    names.update(t.id for t in item.targets if isinstance(t, ast.Name))
            yield node.name, names


def test_only_the_record_base_writes_the_value_policy():
    # errors.Record is the one class that refuses assignment and deletion,
    # GaussianRational included, and the five records leave equality and a
    # field repr to it
    bindings = [(name, names) for source in sorted((ROOT / "src" / "hardyshift").rglob("*.py"))
                for name, names in class_bindings(source)]
    for hook in ("__setattr__", "__delattr__"):
        assert [name for name, names in bindings if hook in names] == ["Record"]
    for cls in RECORDS:
        own = set(vars(getattr(hardyshift, cls)))
        assert not {"__eq__", "__setattr__", "__delattr__", "__slots__"} & own
    assert "__repr__" not in {*vars(TruncationParams), *vars(MatrixSymbol)}
    with pytest.raises(TypeError, match="takes the fields entries, rows, cols, mode"):
        SparseMatrix({}, 2, 2)
