"""Benchmark of the hardyshift certification pipeline.

    python3 benchmarks/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each repetition runs one CLI command in a fresh interpreter (child.py), so
no cache inside the program outlives a user's single run.  Repetitions
repeat until ``--seconds`` have passed (at least three).  Every report is
checked against facts computed apart from the program (checks.py), after
the timed span.  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics.  The
workload inputs are fixed; ``--seed`` is recorded but changes nothing,
because no workload has random inputs.  Run records and span files go to
``.perfbench_runs/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from checks import WORKLOADS, SymbolFacts, run_checks

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_runs"
MIN_REPS = 3
CHILD_TIMEOUT_S = 150
# One BLAS thread: at these sizes a second thread burns CPU without saving
# wall time.  A fixed hash seed keeps set and dict orders the same per run.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def run_child(w, trace: int, out_dir: Path, rep: int, probe: bool = False) -> dict:
    """Run one repetition; returns the child's record plus setup_s and the
    report bytes, or a record with an 'error' key."""
    report = out_dir / "report.json"
    report.unlink(missing_ok=True)
    cmd = [sys.executable, str(ROOT / "benchmarks" / "child.py")]
    if probe:
        cmd.append("--probe")
    else:
        cmd += ["--trace", str(trace), "--out", str(report)]
        if trace:
            cmd += ["--spans", str(out_dir / f"spans-{rep}.json")]
        cmd += ["--", *w.argv]
    env = {**os.environ, **CHILD_ENV, "PYTHONPATH": str(ROOT / "src")}
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-400:]}"}
    rec = json.loads(lines[-1])
    rec["setup_s"] = rec.pop("ready") - start
    if not probe:
        rec["report"] = report.read_bytes() if report.exists() else None
    return rec


def evaluate(rec: dict, w, facts) -> tuple[bool, bool]:
    """(failed, wrong): failed when the repetition produced no checked
    result, wrong when its report contradicts a check."""
    if "error" in rec:
        print(f"[{w.name}] repetition failed: {rec['error']}", file=sys.stderr)
        return True, False
    try:
        report = json.loads(rec["report"]) if rec["report"] is not None else {}
    except json.JSONDecodeError as exc:
        report = {"unparsable": str(exc)}
    problems = {k: v for k, v in run_checks(report, rec["rc"], w, facts).items() if v}
    if problems:
        print(f"[{w.name}] check failed: {json.dumps(problems)[:800]}", file=sys.stderr)
        return True, True
    return False, False


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure(w, seconds: int, trace: int, units: dict[str, str]) -> tuple[dict, dict]:
    """Repeat the workload for the given seconds; returns (result, record)."""
    out_dir = OUT / w.name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    facts = SymbolFacts(ROOT, w) if w.symbol is not None else None
    if facts is not None:
        # Computed once, before timing.
        print(f"[{w.name}] reference dims: commutant {facts.commutant_dim}, "
              f"self-adjoint {facts.selfadjoint_dim}", file=sys.stderr)

    # The first start may compile bytecode; set-up is timed on warm starts.
    run_child(w, 0, out_dir, 0, probe=True)
    setups = []

    reps, failed, wrong = [], 0, False
    deadline = time.monotonic() + seconds
    while len(reps) < MIN_REPS + trace or time.monotonic() < deadline:
        traced = trace and len(reps) % 2 == 1
        rec = run_child(w, int(traced), out_dir, len(reps))
        rec["traced"] = bool(traced)
        rep_failed, rep_wrong = evaluate(rec, w, facts)
        reps.append(rec)
        failed += rep_failed
        wrong |= rep_wrong
        if "error" not in rec and not traced:
            setups.append(rec["setup_s"])

    ok = [r for r in reps if "error" not in r]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    if not plain or (trace and not traced):
        raise RuntimeError(f"{w.name}: no repetition completed")

    def med(rs, key):
        return statistics.median(r[key] for r in rs)

    if trace:
        baseline = plain[0]["report"]
        for r in traced:
            if r["report"] != baseline:
                print(f"[{w.name}] traced report differs from the untraced one",
                      file=sys.stderr)
                failed += 1
        # Times and rates are medians; counts must repeat exactly.
        values = {}
        for k, v in traced[0]["layers"].items():
            if units[k] in ("s", "1/s"):
                values[k] = statistics.median(r["layers"][k] for r in traced)
            else:
                values[k] = v
                if any(r["layers"][k] != v for r in traced):
                    print(f"[{w.name}] count {k} differs between traced repetitions",
                          file=sys.stderr)
        values["trace.overhead_s"] = med(traced, "report_s") - med(plain, "report_s")
    else:
        values = {"setup_s": statistics.median(setups),
                  "report_s": med(plain, "report_s"),
                  "report_cpu_s": med(plain, "report_cpu_s"),
                  "peak_rss_mb": med(plain, "peak_rss_mb")}
    if set(values) != set(units):
        raise RuntimeError(f"measured {sorted(set(values) ^ set(units))} "
                           "differ from the metrics in BENCHMARK.json")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    result = {"correct": not wrong, "attempted": len(reps), "failed": failed,
              "metrics": metrics}
    record = {
        "workload": w.name, "argv": list(w.argv), "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "numpy": metadata.version("numpy"),
        "cpu_count": os.cpu_count(), "cpu_model": cpu_model(),
        "attempted": len(reps), "failed": failed, "correct": not wrong,
        "setup_samples_s": setups,
        "repetitions": [{k: v for k, v in r.items() if k not in ("report", "self_s")}
                        for r in reps],
        "self_s": next((r["self_s"] for r in ok if r["traced"]), None),
        "metrics": metrics,
    }
    return result, record


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "hardyshift" / "__init__.py").is_file():
        print(f"error: no hardyshift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result, record = measure(WORKLOADS[name], args.seconds, args.trace, units)
        record["seed"] = args.seed
        (OUT / name / f"run-trace{args.trace}.json").write_text(json.dumps(record, indent=2))
        for key, m in result["metrics"].items():
            print(f"{name:17} {key:32} {m['value']:>14.6g} {m['unit']}")
        print(f"{name:17} attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        if len(names) > 1:
            print(json.dumps({"workload": name, **result}))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}/{k}" if len(names) > 1 else k: v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
