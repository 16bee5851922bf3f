import csv
import io
import json
from pathlib import Path

import pytest

from hardyshift import commutant, linalg
from hardyshift.cli import main
from hardyshift.matrices import DenseMatrix, SparseMatrix

SYMBOL_F = Path(__file__).resolve().parents[1] / "benchmarks" / "symbol_F.json"


def run_cli(*argv):
    return main(list(argv))


def run_cli_json(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main([*argv, "--out", str(out)])
    data = json.loads(out.read_text()) if out.exists() else None
    return code, data


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


def test_symbol_float_coefficient_needs_float_mode(tmp_path):
    symbol = {"m": 1, "coeffs": [{"t": 0, "matrix": [[{"re": 0.5, "im": 0.0}]]}]}
    path = tmp_path / "symbol.json"
    path.write_text(json.dumps(symbol))
    code = run_cli(
        "build", "--m", "1", "--n", "1", "--blocks", "2", "--symbol", str(path)
    )
    assert code == 2
    code, rep = run_cli_json(
        tmp_path,
        "build", "--m", "1", "--n", "1", "--blocks", "2",
        "--symbol", str(path), "--mode", "float", "--tol", "1e-9",
    )
    assert code == 0
    assert rep["build"]["matrix"][0][0] == {"re": 0.5, "im": 0.0}


def test_symbol_size_mismatch(tmp_path):
    symbol = {"m": 2, "coeffs": []}
    path = tmp_path / "symbol.json"
    path.write_text(json.dumps(symbol))
    assert run_cli("build", "--m", "1", "--n", "1", "--blocks", "2", "--symbol", str(path)) == 2


def test_symbol_file_missing(tmp_path):
    assert (
        run_cli(
            "build", "--m", "1", "--n", "1", "--blocks", "2",
            "--symbol", str(tmp_path / "nope.json"),
        )
        == 2
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


def test_lattice_cap_exceeded():
    assert run_cli("lattice", "--m", "5", "--n", "5", "--blocks", "2") == 2


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
    assert "2^20" in capsys.readouterr().err


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


def test_csv_rejected_outside_lattice():
    assert (
        run_cli("verify-equivalence", "--m", "1", "--n", "1", "--blocks", "2", "--format", "csv")
        == 2
    )
    assert (
        run_cli("full-report", "--m", "1", "--n", "1", "--blocks", "2", "--format", "csv")
        == 2
    )


def test_minimality_command(tmp_path):
    code, rep = run_cli_json(
        tmp_path, "minimality", "--m", "2", "--n", "2", "--blocks", "2"
    )
    assert code == 0
    chans = rep["minimality"]["channels"]
    assert len(chans) == 4
    assert all(c["is_minimal"] for c in chans)
    assert all(c["restricted_selfadjoint_commutant_dim"] == 1 for c in chans)


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
    # z^n and its channel restrictions are 0/1 partial permutations, whose
    # commutants are read off their chains without a linear system
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
def test_power_report_builds_no_dense_commutant_grid(tmp_path, monkeypatch, command):
    # the operator T, its channel restrictions and the commutant basis stay
    # sparse, and every scan on the z^n path reads their nonzeros only
    def refuse(self):
        raise AssertionError("dense grid built or scanned on the pipeline path")

    monkeypatch.setattr(SparseMatrix, "to_dense", refuse)
    monkeypatch.setattr(DenseMatrix, "nonzero_items", refuse)
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
def test_signed_solver_reports_match_elimination(tmp_path, monkeypatch, argv):
    # the shipped run takes the chain walk wherever the operator is a 0/1
    # partial permutation; its report must be the one elimination gives
    shipped = tmp_path / "shipped.json"
    eliminated = tmp_path / "eliminated.json"
    assert main([*argv, "--out", str(shipped)]) == 0
    # the eliminated run solves the commutation rows by rref alone
    monkeypatch.setattr(commutant, "_partial_permutation", lambda A: None)
    assert main([*argv, "--out", str(eliminated)]) == 0
    assert shipped.read_bytes() == eliminated.read_bytes()


def test_float_mode_flags():
    # tol required in float mode
    assert run_cli("verify-equivalence", "--m", "1", "--n", "1", "--blocks", "2", "--mode", "float") == 2
    # tol rejected in exact mode
    assert run_cli("verify-equivalence", "--m", "1", "--n", "1", "--blocks", "2", "--tol", "1e-9") == 2
    # nonpositive tol rejected
    assert run_cli("verify-equivalence", "--m", "1", "--n", "1", "--blocks", "2", "--mode", "float", "--tol", "0") == 2


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tol_refused(tmp_path, tol, capsys):
    out = tmp_path / "report.json"
    code = main([
        "commutant", "--m", "1", "--n", "1", "--blocks", "3",
        "--mode", "float", "--tol", tol, "--out", str(out),
    ])
    assert code == 2
    assert not out.exists()
    assert "finite --tol" in capsys.readouterr().err


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


def test_invalid_arguments_exit_two():
    assert run_cli("verify-equivalence", "--m", "0", "--n", "1", "--blocks", "2") == 2
    assert run_cli("verify-equivalence", "--m", "1", "--n", "1") == 2
    assert run_cli("unknown-command") == 2
    assert run_cli("lattice", "--m", "1", "--n", "1", "--blocks", "2", "--sample", "-1") == 2


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
