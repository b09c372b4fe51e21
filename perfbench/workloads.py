"""The four benchmark workloads, each one round of operations plus checks.

A workload function takes the run seed and an output directory and returns
one :class:`Op` per operation.  The timed span of an operation is the
program call alone; the checks run afterwards, so they cost no time that an
optimisation of the program could win back.

Program calls go through module attributes (``scenarios.run_scenario``,
``cli.main``) so that the traced mode's rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import io
import resource
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import oscint.cli as cli
import oscint.scenarios as scenarios

import checks

SWEEP_SCENARIOS = ["fig2", "fig4", "fig7", "fig8", "fig10"]


@dataclass
class Op:
    name: str
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    failed: str = ""                # why the program call failed, if it did
    problems: list[str] = field(default_factory=list)   # failed output checks


def _timed(name: str, call):
    """Run ``call()``; return its value (None on failure) and an :class:`Op`."""
    op = Op(name)
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        value = call()
    except Exception:       # a failing program call is counted, not fatal
        value = None
        op.failed = traceback.format_exc(limit=3)
    op.wall_s = time.perf_counter() - w0
    op.cpu_s = time.process_time() - c0
    op.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return value, op


def _scenario(name: str, **overrides):
    value, op = _timed(name, lambda: scenarios.run_scenario(name, **overrides))
    if value is not None and not value.all_passed:
        op.failed = "; ".join(f"{a.name}: {a.detail}" for a in value.assertions
                              if not (a.passed or a.skipped))
    return (None if op.failed else value), op


def rate_hold(seed: int, out_dir: Path) -> list[Op]:
    """fig5 (100-unit shift ring, 160 000 steps) and fig6 (100-unit random
    network, 35 000 steps).  fig6 keeps its preset seed: see the README."""
    ops = []
    for name, span in (("fig5", checks.FIG5_DELAY), ("fig6", checks.FIG6_DELAY)):
        result, op = _scenario(name)
        if result is not None:
            traj, spec = result.trajectory, result.extras["spec"]
            op.problems = checks.gates_closed_propagation(
                spec.w_yy, spec.tau_y, traj.times, traj.x, traj.a, traj.b,
                traj.y, span)
        del result
        ops.append(op)
    return ops


def batch_descent(seed: int, out_dir: Path) -> list[Op]:
    """fig3: the delay trial solved by whole-trajectory energy descent."""
    result, op = _scenario("fig3")
    if result is not None:
        prob = result.extras["problem"]
        y_euler = checks.euler_reference(prob.spec, prob.x_series, prob.dt)
        op.problems = checks.batch_descent(
            result.extras["energy_history"], result.trajectory.times,
            result.trajectory.y, y_euler)
    return [op]


def circuit(seed: int, out_dir: Path) -> list[Op]:
    """fig9 at a 0.05 ms step: the ON/OFF compartment circuit."""
    result, op = _scenario("fig9", dt=0.05)
    if result is not None:
        traj = result.trajectory
        # A unit cue gives g_e = 1, so each gain unit settles at g_e/(g_e + g_leak).
        level = 1.0 / (1.0 + result.extras["params"].g_leak_gain)
        op.problems = checks.circuit_memory(
            traj.times, traj.y_net, traj.a, traj.b,
            result.extras["rate_spec"].w_ry, level)
    return [op]


def cli_sweep(seed: int, out_dir: Path) -> list[Op]:
    """``oscint --seed N sweep`` over five presets, serial, with plots."""
    sweep_dir = out_dir / "sweep"
    shutil.rmtree(sweep_dir, ignore_errors=True)
    argv = ["--out", str(sweep_dir), "--seed", str(seed), "sweep",
            "--scenarios", ",".join(SWEEP_SCENARIOS)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code, op = _timed("sweep", lambda: cli.main(argv))
    if not op.failed and code != 0:
        op.failed = f"exit status {code}: {stdout.getvalue()}"
    if not op.failed:
        op.problems = checks.sweep_outputs(sweep_dir, SWEEP_SCENARIOS, code,
                                           stdout.getvalue())
    shutil.rmtree(sweep_dir, ignore_errors=True)
    return [op]


WORKLOADS = {
    "rate-hold": rate_hold,
    "batch-descent": batch_descent,
    "circuit": circuit,
    "cli-sweep": cli_sweep,
}
