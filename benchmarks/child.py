"""One repetition of a workload, in a fresh interpreter.

Usage: child.py --trace 0|1 --out REPORT [--spans FILE] -- <hardyshift CLI args>
       child.py --probe            (start and import only)

Prints one JSON line: the monotonic time at which ``import hardyshift`` had
finished (the parent subtracts its own start time to get the set-up time),
wall and CPU seconds of ``hardyshift.cli.main`` from call to written report,
the exit code, the process's peak resident memory and, when traced, the
per-layer figures.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

import hardyshift.cli

READY = time.monotonic()
ROOT = Path(__file__).resolve().parent.parent


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.

    VmHWM starts afresh at exec.  getrusage's ru_maxrss does not: on Linux
    it keeps the parent's resident size at fork, which would charge the
    benchmark's own memory to the program.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("cli_args", nargs="*")
    args = parser.parse_args()

    source = Path(hardyshift.cli.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        print(f"hardyshift imported from {source}, not from this checkout", file=sys.stderr)
        return 2
    result = {"ready": READY}
    if args.probe:
        print(json.dumps(result))
        return 0

    # One mask worker without the --jobs flag: the CLI's default worker
    # count is os.cpu_count(), and the mask checks hold the interpreter lock.
    os.cpu_count = lambda: 1
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    argv = [*args.cli_args, "--out", str(args.out)]
    wall, cpu = time.perf_counter(), time.process_time()
    rc = hardyshift.cli.main(argv)
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu

    result.update(rc=rc, report_s=wall, report_cpu_s=cpu, peak_rss_mb=peak_rss_mb())
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["self_s"] = tracer.self_times()
        if args.spans is not None:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
