"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every check here runs at its stated tolerance (zero in exact mode) over the
full parameter sweep {1,2,3} x {1,2,3} x {2,3,4}.  Timing budgets are
asserted where the criterion states them.
"""

import json
import time
from contextlib import contextmanager

from hardyshift import (
    ChannelMask,
    GaussianRational,
    TruncationParams,
    all_channel_bases,
    channels,
    check_minimal,
    commutant_basis,
    enumerate_lattice,
    is_lower_toeplitz,
    lattice_closure_check,
    partition_check,
    power_symbol,
    scalar_shift,
    selfadjoint_commutant_dim,
    verify_equivalence,
)
from hardyshift.cli import main
from hardyshift.matrices import DenseMatrix

from helpers import (
    SWEEP,
    basis_vector,
    build_intertwiner,
    decomposed_shift,
    direct_sum,
    inner_product,
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
            conjugated = X.adjoint() @ power_symbol(p).to_dense() @ X
            assert conjugated == decomposed_shift(p)
            rep = verify_equivalence(p)
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
            assert partition_check(p)
            bases = all_channel_bases(p)
            assert len(bases) == p.r
            covered = sorted(
                f for cb in bases for f in cb.flat_indices
            )
            assert covered == list(range(p.d))


def test_criterion_3_commutant_structure():
    with criterion("criterion 3, shift commutant is lower Toeplitz"):
        for L in range(2, 9):
            J = scalar_shift(L).to_dense()
            cb = commutant_basis(J)
            assert cb.dim == L
            for b in cb.basis:
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
            rep = enumerate_lattice(p)
            elapsed = time.perf_counter() - start
            assert rep.exhaustive
            assert rep.counts.total_masks == 1 << p.r
            assert rep.counts.checked_masks == 1 << p.r
            assert rep.counts.reducing_count == 1 << p.r
            assert all(e.is_reducing for e in rep.entries)
            assert all(
                e.subspace_dim == p.K * e.mask.popcount for e in rep.entries
            )
            assert lattice_closure_check(rep)
            if p.r == 9:
                assert elapsed < 10.0, f"{p}: took {elapsed:.3f}s, budget 10s"


def test_criterion_5_minimality():
    with criterion("criterion 5, every channel is minimal"):
        for p in SWEEP:
            for ch in channels(p):
                cert = check_minimal(ch, p)
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
            mask = ChannelMask.from_int(v, p.r)
            G = direct_sum([ident if bit else zero for bit in mask.bits])
            assert X @ G @ Xh == mask_projection(mask, p)


def test_criterion_8_cli_contract(tmp_path):
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

        # exit 1: a verification that honestly fails (a tolerance so coarse
        # the float commutant collapses to the wrong dimension)
        assert (
            main([
                "commutant", "--m", "1", "--n", "1", "--blocks", "2",
                "--mode", "float", "--tol", "10.0",
                "--out", str(tmp_path / "bad.json"),
            ])
            == 1
        )
