import csv
import errno
import io
import json
import math
import os
import re
import stat
import sys
import threading
import time
from pathlib import Path

import pytest

from hardyshift import commutant, linalg
from hardyshift.cli import main
from hardyshift.matrices import SparseMatrix

SYMBOL_F = Path(__file__).resolve().parents[1] / "benchmarks" / "symbol_F.json"


def run_cli(*argv):
    return main(list(argv))


def run_cli_json(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main([*argv, "--out", str(out)])
    data = json.loads(out.read_text()) if out.exists() else None
    return code, data


def refused(tmp_path, capsys, *argv):
    """Run argv with --out; assert exit 2, no report and nothing on stdout,
    and return stderr."""
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def test_verify_equivalence_passes(tmp_path):
    code, rep = run_cli_json(
        tmp_path, "verify-equivalence", "--m", "2", "--n", "2", "--blocks", "3"
    )
    assert code == 0
    assert rep["passed"] is True
    assert rep["schema_version"] == "1"
    assert rep["params"] == {"m": 2, "n": 2, "K": 3, "mode": "exact"}
    assert rep["equivalence"]["unitary"] is True
    assert rep["equivalence"]["intertwines"] is True
    assert len(rep["equivalence"]["channels"]) == 4


def test_build_power_operator(tmp_path):
    code, rep = run_cli_json(
        tmp_path, "build", "--m", "1", "--n", "2", "--blocks", "2"
    )
    assert code == 0
    b = rep["build"]
    assert b["operator"] == "power"
    assert b["rows"] == b["cols"] == 4
    assert b["nnz"] == 2
    assert b["rank"] == 2
    assert b["matrix"][2][0] == {"re": "1", "im": "0"}
    assert b["matrix"][0][0] == {"re": "0", "im": "0"}


def test_build_with_symbol_file(tmp_path):
    symbol = {
        "m": 1,
        "coeffs": [{"t": 2, "matrix": [[{"re": "1", "im": "0"}]]}],
    }
    path = tmp_path / "symbol.json"
    path.write_text(json.dumps(symbol))
    code, rep = run_cli_json(
        tmp_path,
        "build", "--m", "1", "--n", "2", "--blocks", "2",
        "--symbol", str(path),
    )
    assert code == 0
    assert rep["build"]["operator"] == "symbol"
    # z^2 I on m=1, N=4 equals the power operator for n=2
    code2, rep2 = run_cli_json(
        tmp_path, "build", "--m", "1", "--n", "2", "--blocks", "2"
    )
    assert rep["build"]["matrix"] == rep2["build"]["matrix"]


def test_build_with_readme_symbol_example(tmp_path):
    # the symbol file shown in the README: bare rational strings and a
    # {"re", "im"} pair
    symbol = {
        "m": 2,
        "coeffs": [
            {"t": 0, "matrix": [["1", "0"], ["0", "1"]]},
            {"t": 2, "matrix": [["1/2", "0"], [{"re": "0", "im": "1"}, "1"]]},
        ],
    }
    path = tmp_path / "symbol.json"
    path.write_text(json.dumps(symbol))
    code, rep = run_cli_json(
        tmp_path,
        "build", "--m", "2", "--n", "2", "--blocks", "2",
        "--symbol", str(path),
    )
    assert code == 0
    assert rep["build"]["operator"] == "symbol"
    assert rep["build"]["matrix"][0][0] == {"re": "1", "im": "0"}
    # z^2 coefficient at block row 2, column 0: [[1/2, 0], [i, 1]]
    assert rep["build"]["matrix"][4][0] == {"re": "1/2", "im": "0"}
    assert rep["build"]["matrix"][5][0] == {"re": "0", "im": "1"}


def test_symbol_float_coefficient_needs_float_mode(tmp_path, capsys):
    symbol = {"m": 1, "coeffs": [{"t": 0, "matrix": [[{"re": 0.5, "im": 0.0}]]}]}
    path = tmp_path / "symbol.json"
    path.write_text(json.dumps(symbol))
    err = refused(
        tmp_path, capsys,
        "build", "--m", "1", "--n", "1", "--blocks", "2", "--symbol", str(path),
    )
    assert err == ("error: bad symbol file: float coefficient 0.5 requires float "
                   "mode; use a rational string in exact mode\n")
    code, rep = run_cli_json(
        tmp_path,
        "build", "--m", "1", "--n", "1", "--blocks", "2",
        "--symbol", str(path), "--mode", "float", "--tol", "1e-9",
    )
    assert code == 0
    assert rep["build"]["matrix"][0][0] == {"re": 0.5, "im": 0.0}


def test_symbol_size_mismatch(tmp_path, capsys):
    symbol = {"m": 2, "coeffs": []}
    path = tmp_path / "symbol.json"
    path.write_text(json.dumps(symbol))
    err = refused(tmp_path, capsys,
                  "build", "--m", "1", "--n", "1", "--blocks", "2", "--symbol", str(path))
    assert err == "error: symbol is 2 x 2 but --m is 1\n"
    err = refused(tmp_path, capsys,
                  "commutant", "--m", "3", "--n", "1", "--blocks", "2", "--symbol", str(SYMBOL_F))
    assert err == "error: symbol is 2 x 2 but --m is 3\n"


def test_symbol_file_missing(tmp_path, capsys):
    path = tmp_path / "nope.json"
    err = refused(tmp_path, capsys,
                  "build", "--m", "1", "--n", "1", "--blocks", "2", "--symbol", str(path))
    assert err == (f"error: cannot read symbol file: [Errno {errno.ENOENT}] "
                   f"{os.strerror(errno.ENOENT)}: '{path}'\n")


def test_symbol_file_not_json(tmp_path, capsys):
    path = tmp_path / "symbol.json"
    path.write_text("nope")
    err = refused(tmp_path, capsys,
                  "commutant", "--m", "1", "--n", "1", "--blocks", "2", "--symbol", str(path))
    assert err == ("error: symbol file is not valid JSON: "
                   "Expecting value: line 1 column 1 (char 0)\n")


def test_symbol_file_not_utf8(tmp_path, capsys):
    path = tmp_path / "symbol.json"
    path.write_bytes(b"\xff\xfe{")
    err = refused(tmp_path, capsys,
                  "build", "--m", "1", "--n", "1", "--blocks", "2", "--symbol", str(path))
    assert err == ("error: symbol file is not UTF-8: 'utf-8' codec can't decode "
                   "byte 0xff in position 0: invalid start byte\n")


def test_symbol_file_nested_too_deeply(tmp_path, capsys):
    # json.loads recurses once per bracket and gives up with RecursionError
    path = tmp_path / "symbol.json"
    path.write_text("[" * 200000 + "]" * 200000)
    err = refused(tmp_path, capsys,
                  "build", "--m", "1", "--n", "1", "--blocks", "2", "--symbol", str(path))
    assert err == "error: symbol file nests its JSON too deeply to parse\n"


@pytest.mark.parametrize("mode", [(), ("--mode", "float", "--tol", "1e-9")],
                         ids=["exact", "float"])
@pytest.mark.parametrize(
    "entry, message",
    [
        ("7" * 5000, "symbol file holds an integer of more than {limit} digits"),
        ('"1e5000"', "bad symbol file: rational literal '1e5000' has a part of more "
                     "than {limit} digits"),
        ('"1e10000000"', "bad symbol file: rational literal '1e10000000' has an "
                         "exponent beyond {twice}"),
    ],
    ids=["integer-5000-digits", "numerator-5001-digits", "exponent-1e7"],
)
def test_symbol_file_number_too_long_to_print(tmp_path, capsys, entry, message, mode):
    # str() of an int fails past sys.get_int_max_str_digits(), and
    # Fraction("1e10000000") alone takes seconds: both are refused first
    limit = sys.get_int_max_str_digits()
    path = tmp_path / "symbol.json"
    path.write_text('{"m": 1, "coeffs": [{"t": 1, "matrix": [[' + entry + ']]}]}')
    start = time.perf_counter()
    err = refused(tmp_path, capsys, "build", "--m", "1", "--n", "1", "--blocks", "2",
                  *mode, "--symbol", str(path))
    assert time.perf_counter() - start < 1.0
    assert err == "error: " + message.format(limit=limit, twice=2 * limit) + "\n"


@pytest.mark.parametrize(
    "entry, exact, floating",
    [("1e3", "1000", 1000.0), ("2.5e-1", "1/4", 0.25), ("1/3", "1/3", 1 / 3)],
)
def test_symbol_file_rational_literals_with_exponents(tmp_path, entry, exact, floating):
    path = tmp_path / "symbol.json"
    path.write_text('{"m": 1, "coeffs": [{"t": 1, "matrix": [["' + entry + '"]]}]}')
    argv = ("build", "--m", "1", "--n", "1", "--blocks", "2", "--symbol", str(path))
    code, rep = run_cli_json(tmp_path, *argv)
    assert code == 0
    assert rep["build"]["matrix"][1][0] == {"re": exact, "im": "0"}
    code, rep = run_cli_json(tmp_path, *argv, "--mode", "float", "--tol", "1e-9")
    assert code == 0
    assert rep["build"]["matrix"][1][0] == {"re": floating, "im": 0.0}


@pytest.mark.parametrize(
    "entry, value, witness",
    [((0, 1), 1, (0, 1)), ((5, 1), 0, (5, 1))],
    ids=["extra-entry", "missing-shift-entry"],
)
def test_verify_equivalence_names_the_entry_that_breaks_the_shift(
    tmp_path, monkeypatch, capsys, entry, value, witness
):
    # (m, n, K) = (2, 2, 2): d = 8 and r = 4, so z^n is the shift f -> f + 4
    import hardyshift.cli as cli
    from hardyshift.scalars import GaussianRational

    real = cli.power_symbol

    def doctored(params, mode="exact"):
        T = real(params, mode)
        entries = dict(T.entries)
        if value:
            entries[entry] = GaussianRational(value)
        else:
            del entries[entry]
        return SparseMatrix(entries, T.rows, T.cols, mode)

    monkeypatch.setattr(cli, "power_symbol", doctored)
    code, rep = run_cli_json(
        tmp_path, "verify-equivalence", "--m", "2", "--n", "2", "--blocks", "2"
    )
    assert code == 1
    assert rep["equivalence"]["unitary"] is True
    assert rep["equivalence"]["intertwines"] is False
    assert set(rep["equivalence"]) == {"unitary", "intertwines", "channels"}
    u, v = witness
    assert capsys.readouterr().err == (
        f"intertwines: the operator is not the shift by r = 4 at entry ({u}, {v})\n"
        "failed checks: intertwines\n"
    )


def test_verify_equivalence_names_the_flat_index_that_breaks_the_cover(
    tmp_path, monkeypatch, capsys
):
    # both channels of (1, 2, 2) given the flats of channel 0: no permutation
    import hardyshift.decomposition as decomposition

    monkeypatch.setattr(
        decomposition, "channel_flats", lambda ch, params: range(0, params.d, params.r)
    )
    code, rep = run_cli_json(
        tmp_path, "verify-equivalence", "--m", "1", "--n", "2", "--blocks", "2"
    )
    assert code == 1
    assert rep["equivalence"]["unitary"] is False
    assert capsys.readouterr().err == (
        "unitary: flat index 0 is held by 2 channels, not 1\n"
        "intertwines: the operator is the shift by r = 2\n"
        "failed checks: intertwines, unitary\n"
    )


def test_verify_equivalence_names_the_shift_entry_behind_a_broken_cover(
    tmp_path, monkeypatch, capsys
):
    # the cover of the test above, and T = z in place of z^2: its first
    # nonzero (1, 0) is off the shift by r = 2
    import hardyshift.cli as cli
    import hardyshift.decomposition as decomposition
    from hardyshift import vector_shift

    monkeypatch.setattr(
        decomposition, "channel_flats", lambda ch, params: range(0, params.d, params.r)
    )
    monkeypatch.setattr(cli, "power_symbol", vector_shift)
    code, rep = run_cli_json(
        tmp_path, "verify-equivalence", "--m", "1", "--n", "2", "--blocks", "2"
    )
    assert code == 1
    assert (rep["equivalence"]["unitary"], rep["equivalence"]["intertwines"]) == (False, False)
    assert capsys.readouterr().err == (
        "unitary: flat index 0 is held by 2 channels, not 1\n"
        "intertwines: the operator is not the shift by r = 2 at entry (1, 0)\n"
        "failed checks: intertwines, unitary\n"
    )


def test_commutant_command(tmp_path):
    code, rep = run_cli_json(
        tmp_path, "commutant", "--m", "1", "--n", "1", "--blocks", "3"
    )
    assert code == 0
    c = rep["commutant"]
    assert c["dim"] == 3
    assert c["selfadjoint_dim"] == 1
    assert c["lemma3_structure_ok"] is True
    assert rep["checks"]["commutant_dim_matches"] is True


def test_commutant_command_power_multichannel(tmp_path):
    code, rep = run_cli_json(
        tmp_path, "commutant", "--m", "2", "--n", "2", "--blocks", "2"
    )
    assert code == 0
    assert rep["commutant"]["dim"] == 32
    assert rep["commutant"]["selfadjoint_dim"] == 16


@pytest.mark.parametrize("scale", ["1e0", "1e10"])
def test_float_commutant_of_a_scaled_symbol(tmp_path, scale):
    # c*z - c*z^2 commutes exactly with the polynomials in z: dimension K,
    # and the identity alone among the self-adjoint ones, at any scale c
    path = tmp_path / "symbol.json"
    path.write_text(
        '{"m": 1, "coeffs": [{"t": 1, "matrix": [[%s]]}, {"t": 2, "matrix": [[-%s]]}]}'
        % (scale, scale)
    )
    code, rep = run_cli_json(
        tmp_path,
        "commutant", "--m", "1", "--n", "1", "--blocks", "3", "--symbol", str(path),
        "--mode", "float", "--tol", "1e-9",
    )
    assert code == 0
    assert rep["commutant"]["dim"] == 3
    assert rep["commutant"]["selfadjoint_dim"] == 1


def test_commutant_command_with_symbol_has_no_structure_claim(tmp_path):
    symbol = {
        "m": 1,
        "coeffs": [{"t": 0, "matrix": [[{"re": "1", "im": "0"}]]}],
    }
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(symbol))
    code, rep = run_cli_json(
        tmp_path,
        "commutant", "--m", "1", "--n", "1", "--blocks", "2",
        "--symbol", str(path),
    )
    assert code == 0
    assert rep["commutant"]["lemma3_structure_ok"] is None
    assert rep["commutant"]["dim"] == 4  # identity commutes with all
    assert rep["checks"] == {}


@pytest.mark.parametrize("K", [2, 3, 4])
@pytest.mark.parametrize("mode", [(), ("--mode", "float", "--tol", "1e-9")], ids=["exact", "float"])
@pytest.mark.parametrize(
    "coeffs, dims",
    [('{"t": 1, "matrix": [[0, 1], [1, 0]]}', lambda d: (2 * d, 4)),
     ('{"t": 0, "matrix": [[1, 0], [0, 1]]}', lambda d: (d * d, d * d))],
    ids=["z-swap", "identity"],
)
def test_permutation_symbols_are_solved_by_elimination(tmp_path, monkeypatch, coeffs, dims,
                                                        mode, K):
    # z [[0, 1], [1, 0]] is z (x) I_2 relabelled by a permutation: 4K and 4;
    # the constant I_2 commutes with every P.  Neither is a 0/1 shift along
    # one subdiagonal, so both are solved from their commutation rows
    real, solved = commutant._commutation_rows, []

    def counted(A):
        solved.append(A.shape)
        return real(A)

    monkeypatch.setattr(commutant, "_commutation_rows", counted)
    path = tmp_path / "symbol.json"
    path.write_text('{"m": 2, "coeffs": [%s]}' % coeffs)
    code, rep = run_cli_json(
        tmp_path, "commutant", "--m", "2", "--n", "1", "--blocks", str(K),
        "--symbol", str(path), *mode,
    )
    assert code == 0
    assert (rep["commutant"]["dim"], rep["commutant"]["selfadjoint_dim"]) == dims(2 * K)
    assert solved == [(2 * K, 2 * K)]


def test_lattice_command_counts(tmp_path):
    code, rep = run_cli_json(
        tmp_path, "lattice", "--m", "1", "--n", "1", "--blocks", "3"
    )
    assert code == 0
    lat = rep["lattice"]
    assert lat["counts"] == {
        "total_masks": 2,
        "checked_masks": 2,
        "reducing_count": 2,
    }
    assert lat["closure_ok"] is True
    assert lat["exhaustive"] is True
    assert lat["full_selfadjoint_commutant_dim"] == 1
    assert lat["exceeds_diagonal_family"] is False


def test_lattice_command_probe_fields(tmp_path):
    code, rep = run_cli_json(
        tmp_path, "lattice", "--m", "2", "--n", "1", "--blocks", "2"
    )
    assert code == 0
    lat = rep["lattice"]
    assert lat["full_selfadjoint_commutant_dim"] == 4
    assert lat["diagonal_family_generators"] == 2
    # (mn)^2 = 4 > mn = 2: truncation admits channel-mixing commuting
    # projections; the report flags it without failing the run
    assert lat["exceeds_diagonal_family"] is True
    assert rep["passed"] is True


def test_lattice_mask_bitstrings_put_channel_zero_first(tmp_path):
    # r = 4 channels of K = 3: the entry of mask value 5 selects channels 0
    # and 2, so it reads "1010" and spans 2 * 3 coefficients
    code, rep = run_cli_json(
        tmp_path, "lattice", "--m", "2", "--n", "2", "--blocks", "3"
    )
    assert code == 0
    entries = rep["lattice"]["entries"]
    assert len(entries) == 16
    assert entries[5] == {"mask": "1010", "dim": 6, "is_reducing": True}
    for v, e in enumerate(entries):
        assert e["mask"] == "".join(str((v >> c) & 1) for c in range(4))
        assert e["dim"] == 3 * e["mask"].count("1")


def test_lattice_cap_exceeded(tmp_path, capsys):
    for argv, r in ((("lattice", "--m", "5", "--n", "5"), 25),
                    (("full-report", "--m", "21", "--n", "1"), 21)):
        err = refused(tmp_path, capsys, *argv, "--blocks", "1")
        assert err == (f"error: enumerating all 2^{r} masks exceeds the limit of 2^20; "
                       f"pass a sample of fewer than 2^{r} masks\n")


def test_oversized_sample_refused_before_any_section(monkeypatch, capsys):
    # r = 22 with a sample of at least 2^22 masks is an exhaustive run past
    # the limit; it must be refused before the pipeline starts
    import hardyshift.cli as cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("a section ran before the cap was checked")

    monkeypatch.setattr(cli, "verify_equivalence", must_not_run)
    monkeypatch.setattr(cli, "commutant_basis", must_not_run)
    code = run_cli(
        "full-report", "--m", "11", "--n", "2", "--blocks", "1",
        "--sample", "5000000",
    )
    assert code == 2
    assert capsys.readouterr().err == (
        "error: enumerating all 2^22 masks exceeds the limit of 2^20; "
        "pass a sample of fewer than 2^22 masks\n"
    )


def test_lattice_sample_mode(tmp_path):
    code, rep = run_cli_json(
        tmp_path,
        "lattice", "--m", "3", "--n", "3", "--blocks", "2",
        "--sample", "16", "--seed", "7",
    )
    assert code == 0
    lat = rep["lattice"]
    assert lat["exhaustive"] is False
    assert lat["closure_ok"] is None
    assert lat["counts"]["checked_masks"] == 16
    assert len(lat["entries"]) == 16


def test_lattice_empty_sample(tmp_path):
    # a zero-size sample yields a valid report with zeroed counters
    code, rep = run_cli_json(
        tmp_path,
        "lattice", "--m", "2", "--n", "2", "--blocks", "2", "--sample", "0",
    )
    assert code == 0
    lat = rep["lattice"]
    assert lat["entries"] == []
    assert lat["counts"]["checked_masks"] == 0
    assert lat["counts"]["reducing_count"] == 0
    assert lat["counts"]["total_masks"] == 16


def test_lattice_csv(tmp_path):
    out = tmp_path / "table.csv"
    code = run_cli(
        "lattice", "--m", "1", "--n", "2", "--blocks", "2",
        "--format", "csv", "--out", str(out),
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == ["mask_bitstring", "dim", "is_reducing", "is_minimal_channel_union"]
    assert len(rows) == 5
    body = {r[0]: r[1:] for r in rows[1:]}
    assert body["00"] == ["0", "true", "false"]
    assert body["10"] == ["2", "true", "true"]
    assert body["01"] == ["2", "true", "true"]
    assert body["11"] == ["4", "true", "false"]


def test_csv_rejected_outside_lattice(tmp_path, capsys):
    for command in ("build", "verify-equivalence", "commutant", "minimality", "full-report"):
        err = refused(tmp_path, capsys,
                      command, "--m", "1", "--n", "1", "--blocks", "2", "--format", "csv")
        assert err == "error: csv output is only available for the lattice command\n"


def test_minimality_command(tmp_path):
    code, rep = run_cli_json(
        tmp_path, "minimality", "--m", "2", "--n", "2", "--blocks", "2"
    )
    assert code == 0
    chans = rep["minimality"]["channels"]
    assert len(chans) == 4
    assert all(c["is_minimal"] for c in chans)
    assert all(c["restricted_selfadjoint_commutant_dim"] == 1 for c in chans)


def test_minimality_names_the_first_channel_that_is_not_minimal(
    tmp_path, monkeypatch, capsys
):
    import hardyshift.lattice as lattice

    monkeypatch.setattr(lattice, "selfadjoint_commutant_dim", lambda A, tol=None: 2)
    code, rep = run_cli_json(
        tmp_path, "minimality", "--m", "2", "--n", "2", "--blocks", "2"
    )
    assert code == 1
    assert rep["checks"] == {"all_channels_minimal": False}
    assert capsys.readouterr().err == (
        "all_channels_minimal: channel i=1, j=0 (ordinal 0) has a restricted "
        "self-adjoint commutant of dimension 2, not 1\n"
        "failed checks: all_channels_minimal\n"
    )


@pytest.mark.parametrize("command", ["minimality", "lattice", "full-report"])
def test_a_channel_the_operator_joins_to_another_is_not_minimal(
    tmp_path, monkeypatch, capsys, command
):
    # (m, n, K) = (2, 2, 2): an entry at (1, 0) sends channel 0 into channel 1,
    # so neither of them reduces T, and the run reports both, not a traceback
    import hardyshift.cli as cli
    from hardyshift.scalars import GaussianRational

    real = cli.power_symbol

    def planted(params, mode="exact"):
        T = real(params, mode)
        return SparseMatrix({**T.entries, (1, 0): GaussianRational(1)}, T.rows, T.cols, mode)

    monkeypatch.setattr(cli, "power_symbol", planted)
    code, rep = run_cli_json(tmp_path, command, "--m", "2", "--n", "2", "--blocks", "2")
    assert code == 1
    sections = [rep[key]["channels"] if key == "minimality" else rep[key]["minimal_channels"]
                for key in ("minimality", "lattice") if key in rep]
    assert sections
    for chans in sections:
        assert [(c["ordinal"], c["is_minimal"], c["restricted_selfadjoint_commutant_dim"])
                for c in chans] == [(0, False, None), (1, False, None), (2, True, 1), (3, True, 1)]
    assert rep["checks"]["all_channels_minimal"] is False
    assert (
        "all_channels_minimal: channel i=1, j=0 (ordinal 0) does not reduce the "
        "operator, which joins channels (1, 0)\n"
    ) in capsys.readouterr().err


def test_full_report_has_all_sections(tmp_path):
    code, rep = run_cli_json(
        tmp_path, "full-report", "--m", "2", "--n", "2", "--blocks", "2"
    )
    assert code == 0
    for key in ("equivalence", "commutant", "lattice", "minimality"):
        assert key in rep
    assert rep["passed"] is True
    assert rep["checks"]["unitary"] is True
    assert rep["checks"]["closure_ok"] is True


def test_full_report_deterministic_bytes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert (
            main([
                "full-report", "--m", "2", "--n", "2", "--blocks", "2",
                "--out", str(path),
            ])
            == 0
        )
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("m,n,K", [(2, 2, 3), (3, 2, 2)])
def test_power_full_report_needs_no_elimination(tmp_path, monkeypatch, m, n, K):
    # no solve on the z^n path reaches rref
    def refuse(rows, ncols):
        raise AssertionError("rref called on the z^n path")

    monkeypatch.setattr(linalg, "rref", refuse)
    code, rep = run_cli_json(
        tmp_path, "full-report", "--m", str(m), "--n", str(n), "--blocks", str(K)
    )
    assert code == 0
    assert rep["passed"] is True


@pytest.mark.parametrize("m,n,K", [(2, 2, 3), (3, 2, 2)])
def test_power_full_report_builds_no_commutation_rows(tmp_path, monkeypatch, m, n, K):
    # z^n and its channel restrictions are 0/1 shifts along one
    # subdiagonal, whose commutants are read off their chains without a
    # linear system
    def refuse(A):
        raise AssertionError("commutation rows built on the z^n path")

    monkeypatch.setattr(commutant, "_commutation_rows", refuse)
    code, rep = run_cli_json(
        tmp_path, "full-report", "--m", str(m), "--n", str(n), "--blocks", str(K)
    )
    assert code == 0
    assert rep["passed"] is True


@pytest.mark.parametrize(
    "command", ["full-report", "commutant", "minimality", "lattice", "verify-equivalence"]
)
def test_power_report_builds_no_dense_commutant_grid(tmp_path, command):
    # the operator T, its channel restrictions and the commutant basis are
    # all SparseMatrix, the package's one operator type, which has no dense
    # view to build (tests/test_package.py); every command on the z^n path
    # passes on their nonzeros alone
    for mode in (("--mode", "exact"), ("--mode", "float", "--tol", "1e-9")):
        code, rep = run_cli_json(
            tmp_path, command, "--m", "2", "--n", "2", "--blocks", "3", *mode
        )
        assert code == 0
        assert rep["passed"] is True
        if "commutant" in rep:
            assert rep["commutant"]["lemma3_structure_ok"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ("full-report", "--m", "2", "--n", "2", "--blocks", "3"),
        ("full-report", "--m", "3", "--n", "3", "--blocks", "2"),
        ("full-report", "--m", "5", "--n", "2", "--blocks", "2"),
        ("commutant", "--m", "2", "--n", "1", "--blocks", "8", "--symbol", str(SYMBOL_F)),
    ],
    ids=["full-223", "full-332", "full-522", "symbol-F"],
)
def test_chain_reports_match_elimination(tmp_path, monkeypatch, argv):
    # the shipped run takes the chain walk wherever the operator is a 0/1
    # shift along one subdiagonal; its report must be the one elimination gives
    shipped = tmp_path / "shipped.json"
    eliminated = tmp_path / "eliminated.json"
    assert main([*argv, "--out", str(shipped)]) == 0
    # the eliminated run solves the commutation rows by rref alone
    monkeypatch.setattr(commutant, "_stride", lambda A: None)
    assert main([*argv, "--out", str(eliminated)]) == 0
    assert shipped.read_bytes() == eliminated.read_bytes()


@pytest.mark.parametrize("K", [3, 30])
def test_full_report_scans_each_operator_once(tmp_path, monkeypatch, K):
    # the basis and the self-adjoint dimension of T share one scan of T,
    # and each of the r channel restrictions is scanned once
    real, scanned = commutant._stride, []

    def counted(A):
        scanned.append(A.shape)
        return real(A)

    monkeypatch.setattr(commutant, "_stride", counted)
    argv = ["full-report", "--m", "2", "--n", "2", "--blocks", str(K)]
    assert main([*argv, "--out", str(tmp_path / "report.json")]) == 0
    assert scanned == [(4 * K, 4 * K)] + [(K, K)] * 4


@pytest.mark.parametrize("mode", [("--mode", "exact"), ("--mode", "float", "--tol", "1e-9")],
                         ids=["exact", "float"])
def test_full_report_scans_the_operator_as_often_at_any_channel_count(
    tmp_path, monkeypatch, mode
):
    # minimality reads every channel's block, and the channels T joins,
    # off one scan of T, so the number of scans of the d x d operator does
    # not grow with r
    real, counts = SparseMatrix.nonzero_items, {}

    def counted(A):
        counts[A.shape] = counts.get(A.shape, 0) + 1
        return real(A)

    monkeypatch.setattr(SparseMatrix, "nonzero_items", counted)
    scans = []
    for m, n, K in ((2, 2, 3), (3, 3, 2)):
        counts.clear()
        argv = ["full-report", "--m", str(m), "--n", str(n), "--blocks", str(K), *mode]
        assert main([*argv, "--out", str(tmp_path / "report.json")]) == 0
        scans.append(counts[(m * n * K, m * n * K)])
    assert scans == [4, 4]


def test_float_mode_flags(tmp_path, capsys):
    argv = ("verify-equivalence", "--m", "1", "--n", "1", "--blocks", "2")
    needs_tol = "error: float mode requires a finite --tol > 0\n"
    # tol required in float mode
    assert refused(tmp_path, capsys, *argv, "--mode", "float") == needs_tol
    # tol rejected in exact mode, given or not
    for mode in ((), ("--mode", "exact")):
        assert (refused(tmp_path, capsys, *argv, *mode, "--tol", "1e-9")
                == "error: --tol only applies to float mode\n")
    # nonpositive tol rejected
    for tol in ("0", "-1e-9"):
        assert refused(tmp_path, capsys, *argv, "--mode", "float", f"--tol={tol}") == needs_tol


@pytest.mark.parametrize("command", ["build", "full-report"])
@pytest.mark.parametrize("tol", ["1", "5", "1e10"])
def test_float_tol_of_one_or_more_refused(tmp_path, capsys, command, tol):
    # at tol >= 1 the cut-off tol * max(1, top) lies at or above every
    # singular value, so no rank could be decided
    assert refused(tmp_path, capsys, command, "--m", "1", "--n", "1", "--blocks", "3",
                   "--mode", "float", "--tol", tol) == (
        "error: float mode requires --tol < 1: the rank cut-off, tol times "
        "max(1, largest singular value), would count no singular value\n"
    )


# The power cases solve 2 z^2 on C^2, written as a symbol file: the blocks
# of z^2, scaled by 2, since z^n itself is read off its chains with no rank
# decision (``test_float_powers_exit_zero_at_any_tol``).
TWO_Z2 = {"m": 2, "coeffs": [{"t": 2, "matrix": [[2, 0], [0, 2]]}]}


@pytest.mark.parametrize(
    "argv, symbol, found, cut, tol",
    [
        (("commutant", "--m", "2", "--n", "2", "--blocks", "7", "--tol", "0.1"), TWO_Z2,
         "8.900837e-01", "3.899712e-01", "1.000000e-01"),
        (("commutant", "--m", "2", "--n", "2", "--blocks", "7", "--tol", "0.5"), TWO_Z2,
         "3.899712e+00", "1.949856e+00", "5.000000e-01"),
        (("commutant", "--m", "2", "--n", "1", "--blocks", "8", "--tol", "0.05",
          "--symbol", str(SYMBOL_F)), None,
         "7.354624e-01", "2.456565e-01", "5.000000e-02"),
    ],
    ids=["power-0.1", "power-0.5", "symbol-0.05"],
)
def test_float_ambiguity_names_the_first_ambiguous_block(tmp_path, capsys, argv, symbol,
                                                         found, cut, tol):
    # several blocks are ambiguous at these tolerances; the message names
    # the first of them in component order, and its largest value in the band
    if symbol is not None:
        path = tmp_path / "symbol.json"
        path.write_text(json.dumps(symbol))
        argv = (*argv, "--symbol", str(path))
    out = tmp_path / "report.json"
    assert main([*argv, "--mode", "float", "--out", str(out)]) == 3
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: singular value {found} is within an order of magnitude of the "
        f"cut-off {cut} (tol={tol}); the rank decision is not trustworthy "
        "(adjust tol or use exact mode)\n"
    )


@pytest.mark.parametrize("tol", ["1e-20", "1e-300", "1e-12", "1e-9"])
def test_float_cut_off_below_the_roundoff_floor_is_refused(tmp_path, capsys, tol):
    # symbol F at (2,1,8): its largest block, 252 x 252, has zero singular
    # values near 1e-15 and a roundoff floor, largest singular value times
    # 252 times the machine epsilon, near 2.7e-13.  A cut-off below the
    # floor would count those zeros as rank (dimensions 4 and 0, where the
    # self-adjoint commutant holds I); one above it gives exact mode's 32, 1
    argv = ("commutant", "--m", "2", "--n", "1", "--blocks", "8", "--symbol", str(SYMBOL_F),
            "--mode", "float", "--tol", tol)
    if float(tol) >= 1e-12:
        code, rep = run_cli_json(tmp_path, *argv)
        assert code == 0
        assert (rep["commutant"]["dim"], rep["commutant"]["selfadjoint_dim"]) == (32, 1)
        return
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 3
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    match = re.fullmatch(
        r"error: singular value (\S+) lies above the cut-off \S+ "
        rf"\(tol={float(tol):.6e}\) but not an order of magnitude above the "
        r"roundoff floor (\S+); the rank decision is not trustworthy "
        r"\(raise tol or use exact mode\)\n",
        captured.err,
    )
    assert match
    value, floor = map(float, match.groups())
    assert 1e-13 < floor < 1e-12 and value <= floor * math.sqrt(10)
    # the rank of the operator itself stays decidable: its blocks are far
    # from the floor, and its zero columns reach no SVD
    code, rep = run_cli_json(tmp_path, "build", *argv[1:])
    assert code == 0 and rep["build"]["rank"] == 14


def test_float_selfadjoint_dim_above_the_commutant_dim_exits_three(tmp_path, capsys):
    # symbol F at (2,1,14): its float commutant has dimension 56, and the
    # self-adjoint count of 106 that the relative cut-off gives on that
    # basis is refused, not reported (exact mode gives 56 and 1)
    out = tmp_path / "report.json"
    assert main(["commutant", "--m", "2", "--n", "1", "--blocks", "14", "--symbol",
                 str(SYMBOL_F), "--mode", "float", "--tol", "1e-9", "--out", str(out)]) == 3
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: self-adjoint commutant dimension 106 lies outside 1..56 (tol=1.000000e-09); "
        "the rank decision is not trustworthy (adjust tol or use exact mode)\n"
    )


def test_float_commutant_dim_past_the_exact_one_is_caught_by_the_selfadjoint_stage(
    tmp_path, capsys
):
    # symbol F at (2,1,14) with tol 1e-6: the float commutant basis has
    # dimension 62, against exact mode's 56, and no block's rank decision
    # is refused; the run exits 3 only because the self-adjoint stage trips
    out = tmp_path / "report.json"
    assert main(["commutant", "--m", "2", "--n", "1", "--blocks", "14", "--symbol",
                 str(SYMBOL_F), "--mode", "float", "--tol", "1e-6", "--out", str(out)]) == 3
    assert list(tmp_path.iterdir()) == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: singular value 5.214405e+03 is within an order of magnitude of the "
        "cut-off 3.179732e+03 (tol=1.000000e-06); the rank decision is not trustworthy "
        "(adjust tol or use exact mode)\n"
    )


@pytest.mark.parametrize("tol", ["0.1", "0.5"])
def test_float_powers_exit_zero_at_any_tol(tmp_path, tol):
    # z^n's commutant is read off its chains in float mode too, so a tol
    # at which its SVD was ambiguous decides nothing: r^2 K and r^2
    code, rep = run_cli_json(tmp_path, "full-report", "--m", "2", "--n", "2", "--blocks", "7",
                             "--mode", "float", "--tol", tol)
    assert code == 0 and rep["passed"]
    assert rep["commutant"]["dim"] == 4 * 4 * 7
    assert rep["commutant"]["selfadjoint_dim"] == 4 * 4
    # and its rank is its count of nonzeros, d - r
    code, rep = run_cli_json(tmp_path, "build", "--m", "2", "--n", "2", "--blocks", "7",
                             "--mode", "float", "--tol", tol)
    assert code == 0 and rep["build"]["rank"] == rep["build"]["nnz"] == 28 - 4


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tol_refused(tmp_path, tol, capsys):
    out = tmp_path / "report.json"
    code = main([
        "commutant", "--m", "1", "--n", "1", "--blocks", "3",
        "--mode", "float", "--tol", tol, "--out", str(out),
    ])
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err == "error: float mode requires a finite --tol > 0\n"


@pytest.mark.parametrize("command", ["build", "commutant"])
@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", '"1e400"'])
def test_non_finite_symbol_entry_refused(tmp_path, command, value):
    # Python's json reads NaN and Infinity; 1e400 is an exact rational
    # that no float can hold
    path = tmp_path / "symbol.json"
    path.write_text(
        '{"m": 1, "coeffs": [{"t": 1, "matrix": [[{"re": %s, "im": 0.0}]]}]}' % value
    )
    out = tmp_path / "report.json"
    code = main([
        command, "--m", "1", "--n", "1", "--blocks", "2", "--symbol", str(path),
        "--mode", "float", "--tol", "1e-9", "--out", str(out),
    ])
    assert code == 2
    assert not out.exists()


def test_symbol_without_coefficients_builds_in_the_run_mode(tmp_path):
    path = tmp_path / "symbol.json"
    path.write_text(json.dumps({"m": 1, "coeffs": []}))
    argv = ("build", "--m", "1", "--n", "1", "--blocks", "2", "--symbol", str(path))
    code, rep = run_cli_json(tmp_path, *argv, "--mode", "float", "--tol", "1e-9")
    assert code == 0
    assert rep["build"]["matrix"] == [[{"re": 0.0, "im": 0.0}] * 2] * 2
    code, rep = run_cli_json(tmp_path, *argv)
    assert code == 0
    assert rep["build"]["matrix"] == [[{"re": "0", "im": "0"}] * 2] * 2


def test_float_mode_runs(tmp_path):
    code, rep = run_cli_json(
        tmp_path,
        "verify-equivalence", "--m", "2", "--n", "2", "--blocks", "2",
        "--mode", "float", "--tol", "1e-9",
    )
    assert code == 0
    assert rep["params"]["tol"] == 1e-9
    assert rep["params"]["mode"] == "float"


def test_invalid_arguments_exit_two(tmp_path, capsys):
    assert run_cli("verify-equivalence", "--m", "0", "--n", "1", "--blocks", "2") == 2
    assert run_cli("verify-equivalence", "--m", "1", "--n", "1") == 2
    assert run_cli("unknown-command") == 2
    capsys.readouterr()  # argparse's usage messages
    for command in ("lattice", "full-report"):
        err = refused(tmp_path, capsys,
                      command, "--m", "1", "--n", "1", "--blocks", "2", "--sample", "-1")
        assert err == "error: --sample must be nonnegative\n"


@pytest.mark.parametrize(
    "command, flag",
    [
        *[(c, ("--symbol", str(SYMBOL_F)))
          for c in ("verify-equivalence", "lattice", "minimality", "full-report")],
        *[(c, f) for c in ("build", "commutant", "verify-equivalence", "minimality")
          for f in (("--sample", "4"), ("--seed", "0"))],
    ],
)
def test_flag_of_another_command_refused(tmp_path, capsys, command, flag):
    out = tmp_path / "report.json"
    code = main([
        command, "--m", "2", "--n", "1", "--blocks", "2", *flag, "--out", str(out),
    ])
    assert code == 2
    assert not out.exists()
    commands = ("build and commutant" if flag[0] == "--symbol"
                else "lattice and full-report")
    assert capsys.readouterr().err == f"error: {flag[0]} only applies to the {commands} commands\n"


@pytest.mark.parametrize("argv", [["--help"], ["full-report", "--help"]])
def test_help_exits_zero(argv, capsys):
    assert main(argv) == 0
    assert "--blocks" in capsys.readouterr().out


def test_out_write_failure_is_io_error(tmp_path):
    target = tmp_path / "adir"
    target.mkdir()
    code = main([
        "verify-equivalence", "--m", "1", "--n", "1", "--blocks", "2",
        "--out", str(target),
    ])
    assert code == 4
    # no partial temp file left behind
    assert list(tmp_path.iterdir()) == [target]


def no_execute(cfg):
    raise AssertionError("execute ran")


def test_report_that_cannot_be_renamed_into_place_is_io_error(tmp_path, monkeypatch, capsys):
    # the run finishes and the write fails at its last step: no report and
    # no temp file are left behind
    def refuse(src, dst):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(dst))

    monkeypatch.setattr(os, "replace", refuse)
    out = tmp_path / "report.json"
    assert main(["verify-equivalence", "--m", "1", "--n", "1", "--blocks", "2",
                 "--out", str(out)]) == 4
    assert list(tmp_path.iterdir()) == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write report: ")


@pytest.mark.parametrize("link", [False, True], ids=["directory", "link-to-directory"])
def test_out_naming_a_directory_is_refused_before_any_work(tmp_path, monkeypatch, capsys,
                                                           link):
    import hardyshift.cli as cli

    monkeypatch.setattr(cli, "execute", no_execute)
    target = tmp_path / "adir"
    target.mkdir()
    if link:
        target = tmp_path / "link"
        target.symlink_to(tmp_path / "adir")
    assert main(["verify-equivalence", "--m", "1", "--n", "1", "--blocks", "2",
                 "--out", str(target)]) == 4
    # the link is still a link to the directory, which is still empty
    assert target.is_symlink() == link and target.is_dir()
    assert list((tmp_path / "adir").iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == (["adir", "link"] if link else ["adir"])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: cannot write report: [Errno {errno.EISDIR}] "
                            f"--out names a directory: '{target}'\n")


def test_out_through_a_link_writes_the_file_it_names(tmp_path):
    # the report replaces the link's target in the target's directory, and
    # the link stays a link
    argv = ["verify-equivalence", "--m", "1", "--n", "1", "--blocks", "2"]
    direct = tmp_path / "direct.json"
    assert main([*argv, "--out", str(direct)]) == 0
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    target = elsewhere / "target.json"
    target.write_text("old")
    link = tmp_path / "ln.json"
    link.symlink_to(target)
    assert main([*argv, "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == direct.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["direct.json", "elsewhere", "ln.json"]
    assert [p.name for p in elsewhere.iterdir()] == ["target.json"]


def symbol_file(tmp_path, case):
    path = tmp_path / "symbol.json"
    if case == "not-json":
        path.write_text("nope")
    elif case == "not-utf8":
        path.write_bytes(b"\xff\xfe{")
    elif case == "directory":
        path.mkdir()
    elif case == "m-mismatch":
        path.write_text(json.dumps({"m": 2, "coeffs": []}))
    return path


@pytest.mark.parametrize(
    "case, argv, message",
    [
        ("not-json", ("commutant", "--m", "1", "--n", "1", "--blocks", "2"),
         "symbol file is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        ("not-utf8", ("build", "--m", "1", "--n", "1", "--blocks", "2"),
         "symbol file is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: "
         "invalid start byte"),
        ("missing", ("build", "--m", "1", "--n", "1", "--blocks", "2"),
         f"cannot read symbol file: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: "
         "'{path}'"),
        ("directory", ("build", "--m", "1", "--n", "1", "--blocks", "2"),
         f"cannot read symbol file: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: "
         "'{path}'"),
        ("m-mismatch", ("build", "--m", "1", "--n", "1", "--blocks", "2"),
         "symbol is 2 x 2 but --m is 1"),
        (None, ("lattice", "--m", "5", "--n", "5", "--blocks", "2"),
         "enumerating all 2^25 masks exceeds the limit of 2^20; "
         "pass a sample of fewer than 2^25 masks"),
        (None, ("full-report", "--m", "11", "--n", "2", "--blocks", "1",
                "--sample", "5000000"),
         "enumerating all 2^22 masks exceeds the limit of 2^20; "
         "pass a sample of fewer than 2^22 masks"),
    ],
    ids=["not-json", "not-utf8", "missing", "directory", "m-mismatch", "lattice-cap",
         "sample-cap"],
)
def test_every_exit_two_refusal_comes_before_execute(tmp_path, monkeypatch, capsys, case,
                                                     argv, message):
    import hardyshift.cli as cli

    monkeypatch.setattr(cli, "execute", no_execute)
    out = tmp_path / "out"
    out.mkdir()
    if case is not None:
        path = symbol_file(tmp_path, case)
        argv = (*argv, "--symbol", str(path))
        message = message.replace("{path}", str(path))
    assert main([*argv, "--out", str(out / "report.json")]) == 2
    assert list(out.iterdir()) == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_out_in_a_missing_directory_is_refused_before_any_work(
    tmp_path, monkeypatch, capsys
):
    import hardyshift.cli as cli

    monkeypatch.setattr(cli, "execute", no_execute)
    missing = tmp_path / "missing"
    code = main([
        "full-report", "--m", "2", "--n", "2", "--blocks", "3",
        "--out", str(missing / "report.json"),
    ])
    assert code == 2
    assert list(tmp_path.iterdir()) == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --out directory {str(missing)!r} does not exist\n"


def test_fifo_target_is_written_in_place(tmp_path):
    argv = ["verify-equivalence", "--m", "1", "--n", "1", "--blocks", "2"]
    expected = tmp_path / "report.json"
    assert main([*argv, "--out", str(expected)]) == 0
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    # a daemon, so that a run which never opens the FIFO cannot hang the suite
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    assert main([*argv, "--out", str(fifo)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == [expected.read_bytes()]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    # no temp file was made next to it
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe", "report.json"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_report_file_takes_the_mode_open_gives_under_the_umask(tmp_path, umask, mode):
    out = tmp_path / "report.json"
    old = os.umask(umask)
    try:
        assert main(["verify-equivalence", "--m", "1", "--n", "1", "--blocks", "2",
                     "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(out).st_mode) == mode


def test_stdout_output(capsys):
    code = run_cli("verify-equivalence", "--m", "1", "--n", "1", "--blocks", "2")
    assert code == 0
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    assert rep["passed"] is True


def test_existing_tmp_file_is_left_alone(tmp_path):
    out = tmp_path / "report.json"
    stale = tmp_path / "report.json.tmp"
    stale.write_bytes(b"another run's temp file")
    code = main([
        "verify-equivalence", "--m", "1", "--n", "1", "--blocks", "2",
        "--out", str(out),
    ])
    assert code == 0
    assert stale.read_bytes() == b"another run's temp file"
    assert json.loads(out.read_text())["passed"] is True
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "report.json", "report.json.tmp"
    ]


def test_report_json_round_trip(tmp_path):
    code, rep = run_cli_json(
        tmp_path, "build", "--m", "2", "--n", "1", "--blocks", "2"
    )
    assert code == 0
    text = json.dumps(rep, sort_keys=True)
    again = json.loads(text)
    assert again == rep
    assert isinstance(rep["params"]["m"], int)
    assert isinstance(rep["build"]["matrix"][0][0]["re"], str)
