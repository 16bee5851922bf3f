"""Command-line verification pipeline.

Each subcommand builds the requested model, runs its checks, and emits a
deterministic report (JSON by default, CSV for lattice tables).  Exit codes:
0 all checks passed, 1 a verification check failed, 2 invalid configuration,
3 a floating rank decision was ambiguous, 4 the report could not be written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .commutant import (
    commutant_basis, is_block_lower_toeplitz, selfadjoint_commutant_dim, toeplitz_break
)
from .decomposition import channel_order, channels, verify_equivalence
from .errors import CapError, RankAmbiguityError
from .lattice import (
    check_enumeration_cap,
    check_minimal,
    enumerate_lattice,
    lattice_closure_check,
    lattice_component_check,
)
from .operators import power_symbol, symbol_from_json, toeplitz_matrix
from .scalars import scalar_to_json
from .space import TruncationParams

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_RANK_AMBIGUITY = 3
EXIT_IO = 4

COMMANDS = (
    "build",
    "verify-equivalence",
    "commutant",
    "lattice",
    "minimality",
    "full-report",
)


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str
    m: int
    n: int
    K: int
    mode: str = "exact"
    tol: float | None = None
    symbol_path: Path | None = None
    out_path: Path | None = None
    format: str = "json"
    sample: int | None = None
    seed: int = 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardyshift",
        description=(
            "Verify truncated models of multiplication operators on "
            "vector-valued Hardy space: block-shift decomposition, "
            "commutants, and the reducing-subspace lattice."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--m", type=_positive_int, required=True,
                       help="number of vector components")
        p.add_argument("--n", type=_positive_int, required=True,
                       help="power of z being multiplied by")
        p.add_argument("--blocks", type=_positive_int, required=True,
                       help="coefficients kept per channel (shift block size)")
        p.add_argument("--mode", choices=("exact", "float"), default="exact")
        p.add_argument("--tol", type=float, default=None,
                       help="comparison tolerance, required in float mode")
        p.add_argument("--out", type=Path, default=None,
                       help="report path (stdout when omitted)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if name in ("build", "commutant"):
            p.add_argument("--symbol", type=Path, default=None,
                           help="JSON file with a matrix polynomial symbol")
        if name in ("lattice", "full-report"):
            p.add_argument("--sample", type=int, default=None,
                           help="verify a uniform sample of masks instead of all")
            p.add_argument("--seed", type=int, default=0,
                           help="seed for --sample")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    mode = args.mode
    tol = args.tol
    if mode == "float":
        if tol is None or not math.isfinite(tol) or tol <= 0:
            raise ConfigError("float mode requires a finite --tol > 0")
    elif tol is not None:
        raise ConfigError("--tol only applies to float mode")
    if args.format == "csv" and args.command != "lattice":
        raise ConfigError("csv output is only available for the lattice command")
    cfg = RunConfig(
        command=args.command,
        m=args.m,
        n=args.n,
        K=args.blocks,
        mode=mode,
        tol=tol,
        symbol_path=getattr(args, "symbol", None),
        out_path=args.out,
        format=args.format,
        sample=getattr(args, "sample", None),
        seed=getattr(args, "seed", 0),
    )
    if cfg.sample is not None and cfg.sample < 0:
        raise ConfigError("--sample must be nonnegative")
    return cfg


def _load_symbol(cfg: RunConfig):
    if cfg.symbol_path is None:
        return None
    try:
        text = cfg.symbol_path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read symbol file: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"symbol file is not valid JSON: {exc}") from exc
    try:
        symbol = symbol_from_json(obj, cfg.mode)
    except ValueError as exc:
        raise ConfigError(f"bad symbol file: {exc}") from exc
    if symbol.m != cfg.m:
        raise ConfigError(
            f"symbol is {symbol.m} x {symbol.m} but --m is {cfg.m}"
        )
    return symbol


def _params(cfg: RunConfig) -> TruncationParams:
    return TruncationParams(m=cfg.m, n=cfg.n, K=cfg.K)


def _operator(cfg: RunConfig, params: TruncationParams):
    symbol = _load_symbol(cfg)
    if symbol is None:
        return power_symbol(params, cfg.mode), True
    return toeplitz_matrix(symbol, params, cfg.mode), False


def _matrix_json(mat) -> list:
    return [[scalar_to_json(e) for e in row] for row in mat.entries]


def _equivalence_section(cfg: RunConfig, params: TruncationParams, T=None):
    rep = verify_equivalence(params, cfg.mode, cfg.tol, T)
    section = {
        "unitary": rep.unitary,
        "intertwines": rep.intertwines,
        "channels": [
            {
                "i": cb.channel.i,
                "j": cb.channel.j,
                "ordinal": cb.channel.ordinal,
                "flat_indices": list(cb.flat_indices),
            }
            for cb in rep.channel_bases
        ],
    }
    checks = {"unitary": rep.unitary, "intertwines": rep.intertwines}
    return section, checks


def _commutant_section(
    cfg: RunConfig, params: TruncationParams, operator, is_power: bool
):
    cb = commutant_basis(operator, cfg.tol)
    sdim = selfadjoint_commutant_dim(operator, cfg.tol)
    section = {"dim": cb.dim, "selfadjoint_dim": sdim}
    checks: dict[str, bool] = {}
    if is_power:
        # Lemma 3: X* P X is block lower Toeplitz, read through the
        # intertwiner's channel order
        order = channel_order(params)
        ok = [is_block_lower_toeplitz(P, params.K, cfg.tol, order) for P in cb.elements]
        structure = all(ok)
        if not structure:
            i = ok.index(False)
            u, v = toeplitz_break(cb.elements[i], params.K, cfg.tol, order)
            print(f"lemma3_structure_ok: commutant basis element {i} is not block "
                  f"lower Toeplitz at entry ({u}, {v})", file=sys.stderr)
        expected_dim = params.r * params.r * params.K
        expected_sdim = params.r * params.r
        section["lemma3_structure_ok"] = structure
        checks["lemma3_structure_ok"] = structure
        checks["commutant_dim_matches"] = cb.dim == expected_dim
        checks["selfadjoint_dim_matches"] = sdim == expected_sdim
    else:
        section["lemma3_structure_ok"] = None
    return section, checks


def _minimality_json(results) -> list:
    return [
        {
            "i": mc.channel.i,
            "j": mc.channel.j,
            "ordinal": mc.channel.ordinal,
            "is_minimal": mc.is_minimal,
            "restricted_selfadjoint_commutant_dim": (
                mc.restricted_selfadjoint_commutant_dim
            ),
        }
        for mc in results
    ]


def _lattice_section(
    cfg: RunConfig,
    params: TruncationParams,
    full_selfadjoint_dim: int | None = None,
    T=None,
):
    rep = enumerate_lattice(
        params,
        mode=cfg.mode,
        tol=cfg.tol,
        sample=cfg.sample,
        seed=cfg.seed,
        full_selfadjoint_dim=full_selfadjoint_dim,
        operator=T,
    )
    closure = (
        lattice_closure_check(rep) and lattice_component_check(rep) if rep.exhaustive else None
    )
    section = {
        "counts": {
            "total_masks": rep.counts.total_masks,
            "checked_masks": rep.counts.checked_masks,
            "reducing_count": rep.counts.reducing_count,
        },
        "exhaustive": rep.exhaustive,
        "closure_ok": closure,
        "full_selfadjoint_commutant_dim": rep.full_selfadjoint_commutant_dim,
        "diagonal_family_generators": params.r,
        "exceeds_diagonal_family": rep.full_selfadjoint_commutant_dim > params.r,
        "entries": [
            {
                "mask": e.mask.bitstring,
                "dim": e.subspace_dim,
                "is_reducing": e.is_reducing,
            }
            for e in rep.entries
        ],
        "minimal_channels": _minimality_json(rep.minimal_channels),
    }
    checks = {
        "all_checked_masks_reducing": all(e.is_reducing for e in rep.entries),
        "all_channels_minimal": all(mc.is_minimal for mc in rep.minimal_channels),
    }
    if closure is not None:
        checks["closure_ok"] = closure
    return section, checks, rep


def _minimality_section(cfg: RunConfig, params: TruncationParams, results=None):
    """Per-channel minimality certificates; ``results`` reuses the ones a
    lattice run has already computed."""
    if results is None:
        T = power_symbol(params, cfg.mode)
        results = [
            check_minimal(ch, params, cfg.mode, cfg.tol, T) for ch in channels(params)
        ]
    section = {"channels": _minimality_json(results)}
    checks = {"all_channels_minimal": all(mc.is_minimal for mc in results)}
    return section, checks


def execute(cfg: RunConfig) -> tuple[dict, dict]:
    """Run the configured command; returns (report, checks)."""
    params = _params(cfg)
    if cfg.command in ("lattice", "full-report"):
        check_enumeration_cap(params.r, cfg.sample)
    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "command": cfg.command,
        "params": {
            "m": params.m,
            "n": params.n,
            "K": params.K,
            "mode": cfg.mode,
        },
    }
    if cfg.mode == "float":
        report["params"]["tol"] = cfg.tol
    checks: dict[str, bool] = {}

    if cfg.command == "build":
        operator, is_power = _operator(cfg, params)
        dense = operator.to_dense()
        report["build"] = {
            "operator": "power" if is_power else "symbol",
            "rows": dense.rows,
            "cols": dense.cols,
            "nnz": dense.nnz(),
            "rank": dense.rank(cfg.tol),
            "matrix": _matrix_json(dense),
        }
    elif cfg.command == "verify-equivalence":
        section, eq_checks = _equivalence_section(cfg, params)
        report["equivalence"] = section
        checks.update(eq_checks)
    elif cfg.command == "commutant":
        section, c_checks = _commutant_section(cfg, params, *_operator(cfg, params))
        report["commutant"] = section
        checks.update(c_checks)
    elif cfg.command == "lattice":
        section, l_checks, _ = _lattice_section(cfg, params)
        report["lattice"] = section
        checks.update(l_checks)
    elif cfg.command == "minimality":
        section, m_checks = _minimality_section(cfg, params)
        report["minimality"] = section
        checks.update(m_checks)
    elif cfg.command == "full-report":
        # every section reads the one power operator built here
        T = power_symbol(params, cfg.mode)
        section, eq_checks = _equivalence_section(cfg, params, T)
        report["equivalence"] = section
        checks.update(eq_checks)
        section, c_checks = _commutant_section(cfg, params, T, True)
        report["commutant"] = section
        checks.update(c_checks)
        # the commutant section has already solved the self-adjoint system
        # of the power operator the lattice is about
        section, l_checks, lattice = _lattice_section(
            cfg, params, section["selfadjoint_dim"], T
        )
        report["lattice"] = section
        checks.update(l_checks)
        m_section, m_checks = _minimality_section(
            cfg, params, lattice.minimal_channels
        )
        report["minimality"] = m_section
        checks.update(m_checks)
    else:
        raise ConfigError(f"unknown command {cfg.command!r}")

    report["checks"] = dict(sorted(checks.items()))
    report["passed"] = all(checks.values())
    return report, checks


def emit_report(report: dict, fmt: str) -> bytes:
    """Render the report deterministically: sorted-key JSON or the lattice
    CSV table."""
    if fmt == "json":
        return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()
    if fmt != "csv":
        raise ConfigError(f"unknown format {fmt!r}")
    lattice = report.get("lattice")
    if lattice is None:
        raise ConfigError("csv output is only available for the lattice command")
    minimal_by_ordinal = {
        mc["ordinal"]: mc["is_minimal"] for mc in lattice["minimal_channels"]
    }
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["mask_bitstring", "dim", "is_reducing", "is_minimal_channel_union"])
    for entry in lattice["entries"]:
        bits = entry["mask"]
        ones = [c for c, b in enumerate(bits) if b == "1"]
        minimal_union = len(ones) == 1 and minimal_by_ordinal.get(ones[0], False)
        writer.writerow(
            [
                bits,
                entry["dim"],
                "true" if entry["is_reducing"] else "false",
                "true" if minimal_union else "false",
            ]
        )
    return buf.getvalue().encode()


def write_output(data: bytes, out_path: Path | None) -> None:
    """Write atomically: a uniquely named temp file in the target's
    directory, synced, then renamed over the target.  A failed run leaves
    no partial report, and concurrent runs never share a temp file."""
    if out_path is None:
        sys.stdout.write(data.decode())
        return
    fd, tmp = tempfile.mkstemp(
        dir=out_path.parent, prefix=f".{out_path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, out_path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def run(cfg: RunConfig) -> int:
    try:
        report, checks = execute(cfg)
    except (ConfigError, CapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RankAmbiguityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANK_AMBIGUITY
    try:
        data = emit_report(report, cfg.format)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        write_output(data, cfg.out_path)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_IO
    if checks and not all(checks.values()):
        failed = sorted(k for k, v in checks.items() if not v)
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = config_from_args(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run(cfg)


if __name__ == "__main__":
    raise SystemExit(main())
