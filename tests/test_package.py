import os
import subprocess
import sys
from pathlib import Path

import pytest

import hardyshift

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


def test_cli_import_loads_no_record_machinery_csv_or_numpy():
    # start-up pays only for what every run uses: the records are plain
    # classes and named tuples, csv waits for a CSV table, and a float
    # scalar is checked finite by math
    script = ("import sys; bare = set(sys.modules); import hardyshift.cli; "
              "added = set(sys.modules) - bare; "
              "print(sorted(added & {'dataclasses', 'inspect', 'csv', 'numpy', 'cmath'}))")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    sources = sorted((ROOT / "src" / "hardyshift").rglob("*.py"))
    assert sources and [f.name for f in sources if "dataclass" in f.read_text()] == []
