"""Acceptance gate: tests per criterion, each printing a PASS/FAIL line.

Every check here runs at its stated tolerance (zero in exact mode) over the
full parameter sweep {1,2,3} x {1,2,3} x {2,3,4}.  Timing budgets are
asserted where the criterion states them.
"""

import hashlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from hardyshift import (
    GaussianRational,
    TruncationParams,
    channel_flats,
    channels,
    check_minimal,
    commutant_basis,
    enumerate_lattice,
    lattice_closure_check,
    power_symbol,
    scalar_shift,
    selfadjoint_commutant_dim,
    verify_equivalence,
)
from hardyshift import cli
from hardyshift.cli import main

from helpers import (
    SWEEP,
    DenseMatrix,
    basis_vector,
    build_intertwiner,
    channel_order_reference,
    decomposed_shift,
    dense,
    dense_basis,
    direct_sum,
    inner_product,
    is_lower_toeplitz,
    is_permutation,
    mask_projection,
)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def test_criterion_1_unitary_equivalence():
    with criterion("criterion 1, unitary equivalence over the sweep"):
        for p in SWEEP:
            start = time.perf_counter()
            X = build_intertwiner(p)
            assert is_permutation(X)
            T = power_symbol(p)
            conjugated = X.adjoint() @ dense(T) @ X
            assert conjugated == decomposed_shift(p)
            rep = verify_equivalence(T, p)
            assert rep.unitary and rep.intertwines
            elapsed = time.perf_counter() - start
            assert elapsed < 1.0, f"{p}: took {elapsed:.3f}s, budget 1s"


def test_criterion_2_basis_and_partition():
    with criterion("criterion 2, orthonormal basis and channel partition"):
        one = GaussianRational(1)
        zero = GaussianRational(0)
        for p in SWEEP:
            vecs = [
                basis_vector(i, q, p)
                for q in range(p.N)
                for i in range(1, p.m + 1)
            ]
            for a, u in enumerate(vecs):
                for b, v in enumerate(vecs):
                    assert inner_product(u, v) == (one if a == b else zero)
            bases = [channel_flats(ch, p) for ch in channels(p)]
            assert len(bases) == p.r
            assert all(len(flats) == p.K for flats in bases)
            order = tuple(f for flats in bases for f in flats)
            assert order == channel_order_reference(p)
            assert sorted(order) == list(range(p.d))


def test_criterion_3_commutant_structure():
    with criterion("criterion 3, shift commutant is lower Toeplitz"):
        for L in range(2, 9):
            J = dense(scalar_shift(L))
            cb = commutant_basis(scalar_shift(L))
            assert cb.dim == L
            for b in dense_basis(cb):
                assert is_lower_toeplitz(b)
                assert (J @ b - b @ J).is_zero()
            # converse: the L lower-Toeplitz generators all commute
            for k in range(L):
                gen = J ** k
                assert is_lower_toeplitz(gen)
                assert (J @ gen - gen @ J).is_zero()


def test_criterion_4_lattice_count():
    with criterion("criterion 4, reducing lattice of 2^(mn) masks"):
        for p in SWEEP:
            assert p.r <= 9
            start = time.perf_counter()
            rep = enumerate_lattice(power_symbol(p), p)
            elapsed = time.perf_counter() - start
            assert rep.exhaustive
            assert rep.counts.total_masks == 1 << p.r
            assert rep.counts.checked_masks == 1 << p.r
            assert rep.counts.reducing_count == 1 << p.r
            assert rep.values == range(1 << p.r)
            assert all(rep.reducing)
            assert lattice_closure_check(rep)
            if p.r == 9:
                assert elapsed < 10.0, f"{p}: took {elapsed:.3f}s, budget 10s"


def test_criterion_5_minimality():
    with criterion("criterion 5, every channel is minimal"):
        for p in SWEEP:
            T = power_symbol(p)
            for cert in check_minimal(T, p):
                assert cert.is_minimal
                assert cert.restricted_selfadjoint_commutant_dim == 1


def test_criterion_6_completeness_probe():
    with criterion("criterion 6, self-adjoint commutant dimension probe"):
        for p in SWEEP:
            dim = selfadjoint_commutant_dim(power_symbol(p))
            assert dim == p.r ** 2
            if p.r >= 2:
                # the probe documents that the truncated model admits
                # commuting projections outside the channel-diagonal family
                assert dim > p.r


def test_criterion_6_report_flags_the_gap(tmp_path):
    with criterion("criterion 6, report carries the probe flag"):
        out = tmp_path / "lat.json"
        assert (
            main([
                "lattice", "--m", "2", "--n", "1", "--blocks", "2",
                "--out", str(out),
            ])
            == 0
        )
        lat = json.loads(out.read_text())["lattice"]
        assert lat["full_selfadjoint_commutant_dim"] == 4
        assert lat["exceeds_diagonal_family"] is True
        out1 = tmp_path / "lat1.json"
        assert (
            main([
                "lattice", "--m", "1", "--n", "1", "--blocks", "2",
                "--out", str(out1),
            ])
            == 0
        )
        lat1 = json.loads(out1.read_text())["lattice"]
        assert lat1["exceeds_diagonal_family"] is False


def test_criterion_7_projection_transport():
    with criterion("criterion 7, block projections transport to mask projections"):
        p = TruncationParams(2, 2, 2)
        X = build_intertwiner(p)
        Xh = X.adjoint()
        ident = DenseMatrix.identity(p.K)
        zero = DenseMatrix.zeros(p.K, p.K)
        for v in range(1 << p.r):
            G = direct_sum([ident if (v >> c) & 1 else zero for c in range(p.r)])
            assert X @ G @ Xh == mask_projection(v, p.r, p)


def test_criterion_8_cli_contract(tmp_path, monkeypatch, capsys):
    with criterion("criterion 8, CLI determinism, exit codes, round trip"):
        # determinism: byte-identical JSON across repeated exact runs
        paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for path in paths:
            assert (
                main([
                    "full-report", "--m", "2", "--n", "2", "--blocks", "2",
                    "--out", str(path),
                ])
                == 0
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

        # round trip: the emitted report parses and its fields recover
        rep = json.loads(paths[0].read_text())
        assert rep["schema_version"] == "1"
        assert rep["params"] == {"m": 2, "n": 2, "K": 2, "mode": "exact"}
        assert rep["passed"] is True
        assert json.loads(json.dumps(rep)) == rep

        # exit 0 spec example
        assert (
            main([
                "verify-equivalence", "--m", "2", "--n", "2", "--blocks", "3",
                "--out", str(tmp_path / "eq.json"),
            ])
            == 0
        )

        # exit 2: invalid configuration (cap exceeded; bad flags)
        assert main(["lattice", "--m", "5", "--n", "5", "--blocks", "2"]) == 2
        assert main(["verify-equivalence", "--m", "0", "--n", "1", "--blocks", "2"]) == 2

        # exit 3: ambiguous float rank (symbol entry at the tolerance)
        sym_path = tmp_path / "tiny.json"
        sym_path.write_text(json.dumps({
            "m": 1,
            "coeffs": [{"t": 1, "matrix": [[{"re": 1e-9, "im": 0.0}]]}],
        }))
        assert (
            main([
                "commutant", "--m", "1", "--n", "1", "--blocks", "2",
                "--symbol", str(sym_path), "--mode", "float", "--tol", "1e-9",
                "--out", str(tmp_path / "amb.json"),
            ])
            == 3
        )

        # exit 4: unwritable output leaves no partial file
        blocked = tmp_path / "blocked"
        blocked.mkdir()
        assert (
            main([
                "verify-equivalence", "--m", "1", "--n", "1", "--blocks", "2",
                "--out", str(blocked),
            ])
            == 4
        )
        assert list(blocked.iterdir()) == []
        assert not (tmp_path / "blocked.tmp").exists()

        # a tolerance so coarse that no singular value could count is an
        # invalid configuration, not a failed check
        assert (
            main([
                "commutant", "--m", "1", "--n", "1", "--blocks", "2",
                "--mode", "float", "--tol", "10.0",
                "--out", str(tmp_path / "coarse.json"),
            ])
            == 2
        )

        # exit 1: a verification check that fails, here on a self-adjoint
        # dimension planted one too large
        measured = cli.selfadjoint_commutant_dim
        monkeypatch.setattr(
            cli, "selfadjoint_commutant_dim", lambda A, tol=None: measured(A, tol) + 1
        )
        capsys.readouterr()
        assert (
            main([
                "commutant", "--m", "2", "--n", "1", "--blocks", "3",
                "--out", str(tmp_path / "bad.json"),
            ])
            == 1
        )
        assert capsys.readouterr().err == (
            "selfadjoint_dim_matches: found dimension 5, expected r^2 = 4\n"
            "failed checks: selfadjoint_dim_matches\n"
        )


SYMBOL_F = Path(__file__).resolve().parents[1] / "benchmarks" / "symbol_F.json"

# sha256 of the exact report bytes, pinned so that a change to how a report
# is computed or rendered cannot alter a byte of it unnoticed.  Float runs
# are left out: their bytes depend on the BLAS library.
PINNED_REPORTS = {
    "full-report (2,2,3)": (
        ["full-report", "--m", "2", "--n", "2", "--blocks", "3"],
        "aec20050e116b4b3e1781d6b777efef71f4656e54bbf131b4bb5ec6abc1ab3ab",
    ),
    # the gated commutant-deep workload
    "full-report (2,2,12)": (
        ["full-report", "--m", "2", "--n", "2", "--blocks", "12"],
        "77508ac4bbb28df4690581cbde0663752089b826bf419f68a3993b4bde5a8589",
    ),
    # a large K, where each chain is kept as a range and audited in O(1)
    "full-report (2,2,300)": (
        ["full-report", "--m", "2", "--n", "2", "--blocks", "300"],
        "143a79b9e7d2003c2923b0b1037a8bfcd924a36cae6123615e5252ea28837d31",
    ),
    "full-report (3,2,2)": (
        ["full-report", "--m", "3", "--n", "2", "--blocks", "2"],
        "de6544c2d0054c2273579a1ecd7c05dcf9e4919c30abe8629ca1090c36195d82",
    ),
    "full-report (5,2,2) sampled": (
        ["full-report", "--m", "5", "--n", "2", "--blocks", "2",
         "--sample", "37", "--seed", "5"],
        "5fba3e1e1c1c9c9d854e6ce7de76e9b8ebcb41e5b7dbde130f2c32fe323adc24",
    ),
    "lattice (3,2,2) csv": (
        ["lattice", "--m", "3", "--n", "2", "--blocks", "2", "--format", "csv"],
        "4b13bbf089982958d7502cedfe6026473a2aed2f39a70ba5c79a8b9e7c59b856",
    ),
    "commutant (2,1,3) symbol F": (
        ["commutant", "--m", "2", "--n", "1", "--blocks", "3",
         "--symbol", str(SYMBOL_F)],
        "bf3cdf6f56eaa2b1c322b84dc51b762b487ec922af53c05d8106222be903c9b1",
    ),
    # the symbol-commutant workload: one exact rref on d^2 = 256 unknowns
    "commutant (2,1,8) symbol F": (
        ["commutant", "--m", "2", "--n", "1", "--blocks", "8",
         "--symbol", str(SYMBOL_F)],
        "7fe9a55368002f9fa73f73646b1a4d3fbafd588b9227d6139b564ec1a0704ca2",
    ),
    # its rank 8 is counted off the exact kernel basis of its rows
    "build (2,1,5) symbol F": (
        ["build", "--m", "2", "--n", "1", "--blocks", "5",
         "--symbol", str(SYMBOL_F)],
        "ea20a251964ec6e85f7d95e302fe59e3ff9412c450d8e77f79a8795288700aa4",
    ),
    # z^n's matrix, nonzero count and rank, read from its SparseMatrix
    "build (2,2,3)": (
        ["build", "--m", "2", "--n", "2", "--blocks", "3"],
        "7c6382c9891743865788ecfcb8e47cd15a3026de6bd130ab0376bbb492bff843",
    ),
}


@pytest.mark.parametrize("name", list(PINNED_REPORTS))
def test_criterion_8_report_bytes_are_pinned(tmp_path, name):
    argv, digest = PINNED_REPORTS[name]
    with criterion(f"criterion 8, pinned report bytes of {name}"):
        out = tmp_path / "report"
        assert main([*argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# Float reports of a custom symbol, whose dimensions and rank come from
# SVDs: the bytes hold no singular value or vector, only the decisions
# taken on them, the symbol's entries and the parameters.
PINNED_FLOAT_REPORTS = {
    "commutant (2,1,8) symbol F float": (
        ["commutant", "--m", "2", "--n", "1", "--blocks", "8", "--symbol", str(SYMBOL_F),
         "--mode", "float", "--tol", "1e-9"],
        "5beaf964b318675e8c92817eddd24e67cdfbac5602f7af8e30651bb472a7935f",
    ),
    "build (2,1,8) symbol F float": (
        ["build", "--m", "2", "--n", "1", "--blocks", "8", "--symbol", str(SYMBOL_F),
         "--mode", "float", "--tol", "1e-9"],
        "7e0ea8dc00f04d05595d9b0ac54f559ad6b38f45c464fa74c3280f53ef4b2a0a",
    ),
}


@pytest.mark.parametrize("name", list(PINNED_FLOAT_REPORTS))
def test_criterion_8_float_symbol_report_bytes_are_pinned(tmp_path, name):
    argv, digest = PINNED_FLOAT_REPORTS[name]
    with criterion(f"criterion 8, pinned report bytes of {name}"):
        out = tmp_path / "report"
        assert main([*argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
