"""Workload table and output checks computed apart from hardyshift.

Nothing here imports the package under test.  The facts a report is checked
against come from the paper's formulas (full-report workloads) or from an
independent exact and floating computation on the symbol file
(symbol-commutant), so a wrong answer from the program cannot also be the
reference it is compared with.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

SYMBOL_FILE = "benchmarks/symbol_F.json"


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    m: int
    n: int
    K: int
    symbol: str | None = None

    @property
    def r(self) -> int:
        return self.m * self.n

    @property
    def d(self) -> int:
        return self.m * self.n * self.K


def _full_report(name, m, n, K, *extra):
    argv = ("full-report", "--m", str(m), "--n", str(n), "--blocks", str(K), *extra)
    return Workload(name, argv, m, n, K)


WORKLOADS = {
    w.name: w
    for w in (
        _full_report("lattice-wide", 5, 2, 2),
        _full_report("commutant-deep", 2, 2, 12),
        Workload(
            "symbol-commutant",
            ("commutant", "--m", "2", "--n", "1", "--blocks", "8",
             "--symbol", SYMBOL_FILE),
            2, 1, 8, SYMBOL_FILE,
        ),
        _full_report("report-float", 2, 2, 7, "--mode", "float", "--tol", "1e-9"),
    )
}


# ---------------------------------------------------------------- full-report


def check_verdict(report: dict, rc: int) -> list[str]:
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if report.get("passed") is not True:
        problems.append(f"passed is {report.get('passed')!r}")
    return problems


def check_channels(report: dict, w: Workload) -> list[str]:
    """Channel (i, j) holds flat indices (n*k + j)*m + (i - 1), k < K, and
    the channels partition 0..d-1."""
    problems = []
    chans = report["equivalence"]["channels"]
    labels = sorted((c["i"], c["j"]) for c in chans)
    want_labels = sorted((i, j) for i in range(1, w.m + 1) for j in range(w.n))
    if labels != want_labels:
        problems.append(f"channel labels {labels} != {want_labels}")
    flat = []
    for c in chans:
        want = [(w.n * k + c["j"]) * w.m + (c["i"] - 1) for k in range(w.K)]
        if c["flat_indices"] != want:
            problems.append(f"channel ({c['i']},{c['j']}) indices {c['flat_indices']} != {want}")
        flat.extend(c["flat_indices"])
    if sorted(flat) != list(range(w.d)):
        problems.append("channel indices do not partition 0..d-1")
    return problems


def check_commutant(report: dict, w: Workload) -> list[str]:
    """Commutant dimension r^2 K, self-adjoint dimension r^2, Lemma-3 shape."""
    c = report["commutant"]
    problems = []
    if c["dim"] != w.r * w.r * w.K:
        problems.append(f"commutant dim {c['dim']} != r^2 K = {w.r * w.r * w.K}")
    if c["selfadjoint_dim"] != w.r * w.r:
        problems.append(f"self-adjoint dim {c['selfadjoint_dim']} != r^2 = {w.r * w.r}")
    if c["lemma3_structure_ok"] is not True:
        problems.append(f"lemma3_structure_ok is {c['lemma3_structure_ok']!r}")
    return problems


def check_masks(report: dict, w: Workload) -> list[str]:
    """Each of the 2^r masks once, dimension popcount*K, reducing."""
    entries = report["lattice"]["entries"]
    problems = []
    seen = Counter(e["mask"] for e in entries)
    want = {format(v, f"0{w.r}b") for v in range(1 << w.r)}
    if set(seen) != want:
        problems.append(f"{len(want - set(seen))} masks missing, "
                        f"{len(set(seen) - want)} unexpected")
    repeated = sorted(mask for mask, count in seen.items() if count > 1)
    if repeated:
        problems.append(f"masks listed more than once: {repeated[:4]}")
    for e in entries:
        if e["dim"] != e["mask"].count("1") * w.K:
            problems.append(f"mask {e['mask']} dim {e['dim']}")
        if e["is_reducing"] is not True:
            problems.append(f"mask {e['mask']} not reducing")
    return problems


def check_minimality(report: dict, w: Workload) -> list[str]:
    """Each channel's restricted self-adjoint commutant has dimension 1."""
    problems = []
    for section, key in (("lattice", "minimal_channels"), ("minimality", "channels")):
        chans = report[section][key]
        if len(chans) != w.r:
            problems.append(f"{section}: {len(chans)} channels, want {w.r}")
        for c in chans:
            if c["restricted_selfadjoint_commutant_dim"] != 1:
                problems.append(f"{section}: channel ({c['i']},{c['j']}) restricted "
                                f"dim {c['restricted_selfadjoint_commutant_dim']}")
    return problems


# ------------------------------------------------------------ symbol commutant


@dataclass(frozen=True)
class SymbolFacts:
    """Reference dimensions for the Toeplitz matrix A of a nilpotent symbol."""

    root: Path
    w: Workload

    def _entries(self):
        """A as nested lists of (re, im) Fraction pairs, built from the
        symbol file by the flat rule flat(i, p) = p*m + (i - 1)."""
        from fractions import Fraction

        obj = json.loads((self.root / self.w.symbol).read_text())
        m, N = obj["m"], self.w.n * self.w.K
        d = m * N
        A = [[(Fraction(0), Fraction(0))] * d for _ in range(d)]
        for coeff in obj["coeffs"]:
            t = coeff["t"]
            if t == 0:
                raise ValueError("the reference formula needs a nilpotent symbol (no z^0 term)")
            for p in range(N - t):
                for i_out in range(m):
                    for i_in in range(m):
                        e = coeff["matrix"][i_out][i_in]
                        re, im = A[(p + t) * m + i_out][p * m + i_in]
                        A[(p + t) * m + i_out][p * m + i_in] = (
                            re + Fraction(e["re"]), im + Fraction(e["im"]))
        return A

    @cached_property
    def commutant_dim(self) -> int:
        """sum_k (rank A^(k-1) - rank A^k)^2, ranks exact over Q(i)."""
        from sympy.polys.domains import QQ_I
        from sympy.polys.matrices import DomainMatrix

        A = self._entries()
        d = len(A)
        rows = [[QQ_I(re, im) for re, im in row] for row in A]
        M = DomainMatrix(rows, (d, d), QQ_I)
        ranks = [d]
        power = DomainMatrix.eye(d, QQ_I)
        while ranks[-1]:
            power = power * M
            ranks.append(power.rank())
            if len(ranks) > d + 1:
                raise ValueError("symbol matrix is not nilpotent")
        return sum((ranks[k - 1] - ranks[k]) ** 2 for k in range(1, len(ranks)))

    @cached_property
    def selfadjoint_dim(self) -> int:
        """Kernel dimension of the stacked system AP = PA, A*P = PA*.

        Its solution space is closed under P -> P*, so its complex dimension
        equals the real dimension of its Hermitian part.  Decided by SVD with
        a required gap between the zero and nonzero singular values.
        """
        import numpy as np

        A = np.array([[complex(float(re), float(im)) for re, im in row]
                      for row in self._entries()])
        d = A.shape[0]
        eye = np.eye(d)
        Ah = A.conj().T
        # Row-major vec: vec(AP) = (A kron I) vec(P), vec(PA) = (I kron A^T) vec(P).
        system = np.vstack([np.kron(A, eye) - np.kron(eye, A.T),
                            np.kron(Ah, eye) - np.kron(eye, Ah.T)])
        svals = np.linalg.svd(system, compute_uv=False)
        scale = svals[0]
        large = svals[svals > 1e-9 * scale]
        if large.min() < 1e-3 * scale:
            raise ValueError(f"no clear singular-value gap: {large.min():.3e} vs {scale:.3e}")
        return d * d - large.size


def check_symbol_commutant(report: dict, facts: SymbolFacts) -> list[str]:
    c = report["commutant"]
    problems = []
    if c["dim"] != facts.commutant_dim:
        problems.append(f"commutant dim {c['dim']} != {facts.commutant_dim}")
    if c["selfadjoint_dim"] != facts.selfadjoint_dim:
        problems.append(f"self-adjoint dim {c['selfadjoint_dim']} != {facts.selfadjoint_dim}")
    return problems


# ---------------------------------------------------------------------- entry


FULL_REPORT_CHECKS = {
    "channels": check_channels,
    "commutant": check_commutant,
    "masks": check_masks,
    "minimality": check_minimality,
}


def run_checks(report: dict, rc: int, w: Workload, facts: SymbolFacts | None) -> dict[str, list[str]]:
    """Every check by name, each with the list of problems it found."""
    if w.symbol is not None:
        checks, reference = {"symbol_commutant": check_symbol_commutant}, facts
    else:
        checks, reference = FULL_REPORT_CHECKS, w
    results = {"verdict": check_verdict(report, rc)}
    for name, check in checks.items():
        try:
            results[name] = check(report, reference)
        except (KeyError, TypeError, AttributeError) as exc:
            results[name] = [f"malformed report: {exc!r}"]
    return results
