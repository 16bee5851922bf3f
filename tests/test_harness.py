"""The per-layer benchmark harness still runs against the package.

``benchmarks/tracer.py`` wraps the package's layers by name when it is
installed, so a change in ``src/`` that removes or renames what it reads
breaks every traced benchmark run.  These tests run one repetition through
``benchmarks/child.py`` in a fresh interpreter, traced and untraced, as the
benchmark does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_child(trace, out, cli_args):
    # no bytecode written under benchmarks/ by the traced import of tracer.py
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "benchmarks/child.py", "--trace", str(trace),
         "--out", str(out), "--", *cli_args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# Per-layer metrics that a full report must move.  Each reads 0 when the
# tracer no longer finds the function it times (a renamed ``cli.execute``, an
# audit call moved out of it), so a nonzero reading shows the layer is traced.
LIVE_METRICS = (
    "operators.build_s", "decomposition.equivalence_s", "commutant.basis_s",
    "commutant.selfadjoint_s", "commutant.lemma3_audit_s", "lattice.enumerate_s",
    "lattice.minimality_s", "lattice.closure_s", "cli.execute_s", "cli.emit_s",
    "cli.write_s", "cli.report_bytes",
)


# ``commutant.basis_dim`` is read off the basis that ``commutant_basis``
# returns, r^2 K at each of these.  z^n reaches no SVD in either mode: its
# commutants are read off its chains.
@pytest.mark.parametrize(
    "cli_args, basis_dim",
    [
        (["full-report", "--m", "2", "--n", "2", "--blocks", "3"], 48),
        (["full-report", "--m", "2", "--n", "2", "--blocks", "2",
          "--mode", "float", "--tol", "1e-9"], 32),
    ],
    ids=["exact", "float"],
)
def test_traced_child_runs_and_writes_the_untraced_report(tmp_path, cli_args, basis_dim):
    traced = run_child(1, tmp_path / "traced.json", cli_args)
    untraced = run_child(0, tmp_path / "untraced.json", cli_args)
    assert traced["rc"] == untraced["rc"] == 0
    assert isinstance(traced["layers"], dict) and traced["layers"]
    assert [name for name in LIVE_METRICS if not traced["layers"][name] > 0] == []
    assert traced["layers"]["linalg.svd_cells"] == 0
    # one full self-adjoint solve, and one for each of the r = 4 channels
    assert traced["layers"]["commutant.selfadjoint_calls"] == 1 + 4
    assert traced["layers"]["commutant.basis_dim"] == basis_dim
    assert "layers" not in untraced
    assert (tmp_path / "traced.json").read_bytes() == (tmp_path / "untraced.json").read_bytes()


def test_traced_float_symbol_run_times_the_svds(tmp_path):
    # a float symbol still goes through the SVDs, one per connected block,
    # which the tracer wraps on numpy.linalg as the float solver looks them
    # up at call time
    cli_args = ["commutant", "--m", "2", "--n", "1", "--blocks", "3", "--mode", "float",
                "--tol", "1e-9", "--symbol", str(ROOT / "benchmarks" / "symbol_F.json")]
    traced = run_child(1, tmp_path / "traced.json", cli_args)
    untraced = run_child(0, tmp_path / "untraced.json", cli_args)
    assert traced["rc"] == untraced["rc"] == 0
    live = ("commutant.basis_s", "commutant.selfadjoint_s", "cli.execute_s",
            "linalg.svd_s", "linalg.svd_cells")
    assert [name for name in live if not traced["layers"][name] > 0] == []
    assert traced["layers"]["commutant.selfadjoint_calls"] == 1
    assert (tmp_path / "traced.json").read_bytes() == (tmp_path / "untraced.json").read_bytes()
