"""Command-line verification pipeline.

A run has three stages: ``config_from_args`` refuses every run that cannot
finish, ``execute`` builds the model and runs its checks, and
``emit_report`` and ``write_output`` write a deterministic report (JSON by
default, CSV for lattice tables).  ``main`` alone maps outcomes to exit
codes: 0 all checks passed, 1 a verification check failed, 2 invalid
configuration, 3 a floating rank decision was ambiguous, 4 the report could
not be written.
"""

from __future__ import annotations

import argparse
import errno
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

from .commutant import (
    basis_head_break,
    commutant_basis,
    is_block_lower_toeplitz,
    operator_rank,
    selfadjoint_commutant_dim,
    toeplitz_break,
)
from .decomposition import (
    channel_cover_break,
    channel_flats,
    channels,
    shift_break,
    verify_equivalence,
)
from .errors import CapError, RankAmbiguityError
from .lattice import (
    channel_edges,
    check_enumeration_cap,
    check_minimal,
    enumerate_lattice,
    lattice_closure_check,
    lattice_component_check,
    reducing_classes,
)
from .operators import power_symbol, symbol_from_json, toeplitz_matrix
from .scalars import scalar_to_json, zero
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
    parser.add_argument("command", choices=COMMANDS, metavar="COMMAND",
                        help=", ".join(COMMANDS))
    parser.add_argument("--m", type=_positive_int, required=True,
                        help="number of vector components")
    parser.add_argument("--n", type=_positive_int, required=True,
                        help="power of z being multiplied by")
    parser.add_argument("--blocks", dest="K", type=_positive_int, required=True,
                        help="coefficients kept per channel (shift block size)")
    parser.add_argument("--mode", choices=("exact", "float"), default="exact")
    parser.add_argument("--tol", type=float, default=None,
                        help="comparison tolerance, required in float mode")
    parser.add_argument("--out", dest="out_path", type=Path, default=None, metavar="PATH",
                        help="report path (stdout when omitted)")
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        help="csv for lattice only")
    parser.add_argument("--symbol", dest="symbol_path", type=Path, default=None, metavar="FILE",
                        help="JSON file with a matrix polynomial symbol "
                             "(build and commutant only)")
    parser.add_argument("--sample", type=int, default=None,
                        help="verify a uniform sample of masks instead of all "
                             "(lattice and full-report only)")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for --sample, 0 when omitted "
                             "(lattice and full-report only)")
    return parser


def config_from_args(cfg: argparse.Namespace) -> argparse.Namespace:
    """Refuse the flag combinations that argparse cannot express, a bad
    --symbol file, an over-cap lattice and a directory --out, and return
    the namespace, with the parsed ``symbol`` or None, as the run's config."""
    if cfg.mode == "float":
        if cfg.tol is None or not math.isfinite(cfg.tol) or cfg.tol <= 0:
            raise ConfigError("float mode requires a finite --tol > 0")
        if cfg.tol >= 1:
            raise ConfigError(
                "float mode requires --tol < 1: the rank cut-off, tol times "
                "max(1, largest singular value), would count no singular value"
            )
    elif cfg.tol is not None:
        raise ConfigError("--tol only applies to float mode")
    if cfg.format == "csv" and cfg.command != "lattice":
        raise ConfigError("csv output is only available for the lattice command")
    if cfg.symbol_path is not None and cfg.command not in ("build", "commutant"):
        raise ConfigError("--symbol only applies to the build and commutant commands")
    for flag, value in (("--sample", cfg.sample), ("--seed", cfg.seed)):
        if value is not None and cfg.command not in ("lattice", "full-report"):
            raise ConfigError(f"{flag} only applies to the lattice and full-report commands")
    if cfg.sample is not None and cfg.sample < 0:
        raise ConfigError("--sample must be nonnegative")
    if cfg.out_path is not None and not cfg.out_path.parent.is_dir():
        raise ConfigError(f"--out directory {str(cfg.out_path.parent)!r} does not exist")
    if cfg.command in ("lattice", "full-report"):
        check_enumeration_cap(cfg.m * cfg.n, cfg.sample)
    cfg.symbol = None if cfg.symbol_path is None else _read_symbol(cfg)
    # is_dir follows a link, so a link to a directory is refused too
    if cfg.out_path is not None and cfg.out_path.is_dir():
        raise IsADirectoryError(errno.EISDIR, "--out names a directory", str(cfg.out_path))
    return cfg


def _read_symbol(cfg: argparse.Namespace):
    """The --symbol file's symbol, in the run's mode and of size --m."""
    try:
        obj = json.loads(cfg.symbol_path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read symbol file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"symbol file is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"symbol file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError("symbol file nests its JSON too deeply to parse") from exc
    except ValueError as exc:
        # json refuses an integer literal that int() would refuse
        raise ConfigError(f"symbol file holds an integer of more than "
                          f"{sys.get_int_max_str_digits()} digits") from exc
    try:
        symbol = symbol_from_json(obj, cfg.mode)
    except ValueError as exc:
        raise ConfigError(f"bad symbol file: {exc}") from exc
    if symbol.m != cfg.m:
        raise ConfigError(f"symbol is {symbol.m} x {symbol.m} but --m is {cfg.m}")
    return symbol


def _equivalence_section(cfg: argparse.Namespace, params: TruncationParams, T):
    rep = verify_equivalence(T, params, cfg.tol)
    if not rep.unitary:
        f, count = channel_cover_break(params)
        print(f"unitary: flat index {f} is held by {count} channels, not 1",
              file=sys.stderr)
    if not rep.intertwines:
        # with a broken cover, verify_equivalence never scans T
        witness = shift_break(T, params, cfg.tol)
        found = (f"the shift by r = {params.r}" if witness is None
                 else f"not the shift by r = {params.r} at entry {witness}")
        print(f"intertwines: the operator is {found}", file=sys.stderr)
    section = {
        "unitary": rep.unitary,
        "intertwines": rep.intertwines,
        "channels": [
            {
                "i": ch.i,
                "j": ch.j,
                "ordinal": ch.ordinal,
                "flat_indices": list(channel_flats(ch, params)),
            }
            for ch in channels(params)
        ],
    }
    checks = {"unitary": rep.unitary, "intertwines": rep.intertwines}
    return section, checks


def _commutant_section(
    cfg: argparse.Namespace, params: TruncationParams, operator, is_power: bool
):
    cb = commutant_basis(operator, cfg.tol)
    sdim = selfadjoint_commutant_dim(operator, cfg.tol)
    section = {"dim": cb.dim, "selfadjoint_dim": sdim}
    checks: dict[str, bool] = {}
    if is_power:
        # Lemma 3: X* P X is block lower Toeplitz, read through the
        # intertwiner's relabel
        ok = [is_block_lower_toeplitz(P, params, cfg.tol) for P in cb.members]
        structure = all(ok)
        if not structure:
            i = ok.index(False)
            u, v = toeplitz_break(cb.members[i], params, cfg.tol)
            print(f"lemma3_structure_ok: commutant basis element {i} is not block "
                  f"lower Toeplitz at entry ({u}, {v})", file=sys.stderr)
        section["lemma3_structure_ok"] = structure
        checks["lemma3_structure_ok"] = structure
        # the basis must also hold the identity at column offset 0, which
        # with the audit makes it a basis of the commutant, not only its size
        for name, found, expected, what, witness in (
            ("commutant_dim_matches", cb.dim, params.r * params.r * params.K, "r^2 K",
             basis_head_break(cb, params, cfg.tol)),
            ("selfadjoint_dim_matches", sdim, params.r * params.r, "r^2", None),
        ):
            checks[name] = found == expected and witness is None
            if found != expected:
                print(f"{name}: found dimension {found}, expected {what} = {expected}",
                      file=sys.stderr)
            if witness is not None:
                print(f"{name}: {witness}", file=sys.stderr)
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
    cfg: argparse.Namespace, params: TruncationParams, T, minimal: list,
    full_selfadjoint_dim: int,
):
    rep = enumerate_lattice(T, params, cfg.tol, cfg.sample, cfg.seed or 0)
    closure = (
        lattice_closure_check(rep) and lattice_component_check(rep) if rep.exhaustive else None
    )
    r, K = params.r, params.K

    def bits(value: int) -> str:
        # a mask's bitstring puts the bit of channel ordinal 0 first
        return format(value, f"0{r}b")[::-1]

    section = {
        "counts": {
            "total_masks": rep.counts.total_masks,
            "checked_masks": rep.counts.checked_masks,
            "reducing_count": rep.counts.reducing_count,
        },
        "exhaustive": rep.exhaustive,
        "closure_ok": closure,
        "full_selfadjoint_commutant_dim": full_selfadjoint_dim,
        "diagonal_family_generators": r,
        "exceeds_diagonal_family": full_selfadjoint_dim > r,
        "entries": [
            {"mask": bits(v), "dim": v.bit_count() * K, "is_reducing": bool(flag)}
            for v, flag in zip(rep.values, rep.reducing)
        ],
        "minimal_channels": _minimality_json(minimal),
    }
    checks = {"all_checked_masks_reducing": all(rep.reducing)}
    if not checks["all_checked_masks_reducing"]:
        v = rep.values[rep.reducing.index(0)]
        split = min(((a, b) for a, b in channel_edges(T, params, cfg.tol)
                     if (v >> a) & 1 != (v >> b) & 1), default=None)
        print(f"all_checked_masks_reducing: mask {bits(v)} is not reducing; it splits "
              + (f"the channel edge {split}" if split else "no channel edge"), file=sys.stderr)
    if closure is not None:
        checks["closure_ok"] = closure
        if not closure:
            members, classes = reducing_classes(rep)
            c = rep.channel_components
            print(f"closure_ok: {members} reducing masks, against 2^{classes} = "
                  f"{1 << classes} from {classes} channel classes and 2^{c} = {1 << c} "
                  f"from {c} components of the channel edge graph", file=sys.stderr)
    return section, checks


def execute(cfg: argparse.Namespace) -> dict:
    """Run the configured command and return its report."""
    params = TruncationParams(m=cfg.m, n=cfg.n, K=cfg.K)
    # every section reads the one operator built here
    is_power = cfg.symbol is None
    T = (power_symbol(params, cfg.mode) if is_power
         else toeplitz_matrix(cfg.symbol, params, cfg.mode))
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
    full = cfg.command == "full-report"

    if cfg.command == "build":
        z = zero(cfg.mode)
        report["build"] = {
            "operator": "power" if is_power else "symbol",
            "rows": T.rows,
            "cols": T.cols,
            "nnz": T.nnz(),
            "rank": operator_rank(T, cfg.tol),
            "matrix": [[scalar_to_json(T.entries.get((u, v), z)) for v in range(T.cols)]
                       for u in range(T.rows)],
        }
    if full or cfg.command == "verify-equivalence":
        report["equivalence"], section_checks = _equivalence_section(cfg, params, T)
        checks.update(section_checks)
    if full or cfg.command == "commutant":
        report["commutant"], section_checks = _commutant_section(cfg, params, T, is_power)
        checks.update(section_checks)
    if full or cfg.command in ("lattice", "minimality"):
        minimal = check_minimal(T, params, cfg.tol)
        bad = next((mc for mc in minimal if not mc.is_minimal), None)
        checks["all_channels_minimal"] = bad is None
        if bad is not None:
            ch, dim = bad.channel, bad.restricted_selfadjoint_commutant_dim
            if dim is None:
                edge = min(e for e in channel_edges(T, params, cfg.tol) if ch.ordinal in e)
                why = f"does not reduce the operator, which joins channels {edge}"
            else:
                why = f"has a restricted self-adjoint commutant of dimension {dim}, not 1"
            print(f"all_channels_minimal: channel i={ch.i}, j={ch.j} (ordinal {ch.ordinal}) "
                  + why, file=sys.stderr)
    if full or cfg.command == "lattice":
        # full-report's commutant section has already solved the
        # self-adjoint system of the power operator the lattice is about
        sdim = (report["commutant"]["selfadjoint_dim"] if full
                else selfadjoint_commutant_dim(T, cfg.tol))
        report["lattice"], section_checks = _lattice_section(cfg, params, T, minimal, sdim)
        checks.update(section_checks)
    if full or cfg.command == "minimality":
        report["minimality"] = {"channels": _minimality_json(minimal)}

    report["checks"] = dict(sorted(checks.items()))
    report["passed"] = all(checks.values())
    return report


def emit_report(report: dict, fmt: str) -> bytes:
    """Render the report deterministically: sorted-key JSON, or for "csv"
    the lattice CSV table, which needs a report with a lattice section."""
    if fmt == "json":
        return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()
    import csv  # only this table needs it, so a JSON run never loads it

    lattice = report["lattice"]
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
    directory, given the mode ``open`` would give a new file under the
    umask, synced, then renamed over the target.  A failed run leaves no
    partial report, and concurrent runs never share a temp file.  A
    target that exists and is not a regular file (a character device, a
    FIFO; ``config_from_args`` refuses a directory) is written in place,
    since a rename would replace it with a regular file.  A symbolic link
    is resolved first, so the file it names is written and the link is
    kept."""
    if out_path is None:
        sys.stdout.write(data.decode())
        return
    out_path = Path(os.path.realpath(out_path))
    if out_path.exists() and not out_path.is_file():
        with open(out_path, "wb") as fh:
            fh.write(data)
        return
    fd, tmp = tempfile.mkstemp(
        dir=out_path.parent, prefix=f".{out_path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
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


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = config_from_args(args)
        report = execute(cfg)
        write_output(emit_report(report, cfg.format), cfg.out_path)
    except (ConfigError, CapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RankAmbiguityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANK_AMBIGUITY
    except OSError as exc:
        # a symbol file that cannot be read is a ConfigError, so an
        # OSError here is about --out
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_IO
    failed = [k for k, ok in report["checks"].items() if not ok]
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
