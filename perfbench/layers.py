"""Where the traced mode opens spans, and the per-layer metrics it reports.

Each public function is rebound in the module where its callers look it
up.  Counts (steps, sweeps, bytes) are taken from each call's arguments or
result, so they stay right if an engine stops calling its step function.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import oscint.batch
import oscint.circuit
import oscint.cli
import oscint.dynamics
import oscint.output
import oscint.scenarios

def _steps(args) -> int:
    return int(round((args["t_stop"] - args["t_start"]) / args["dt"]))


def install(tracer) -> None:
    sc, cli = oscint.scenarios, oscint.cli

    def simulated(args, traj):
        tracer.count("dynamics.steps", _steps(args))
        tracer.count("model.trajectory_bytes", sum(
            v.nbytes for v in vars(traj).values() if isinstance(v, np.ndarray)))

    def written(args, _):
        tracer.count("output.csv_bytes", Path(args["path"]).stat().st_size)

    for module in (sc, cli):
        tracer.patch(module, "run_scenario", "scenarios.run_scenario")
        tracer.patch(module, "simulate", "dynamics.simulate", note=simulated)
    tracer.patch(oscint.dynamics, "step", "dynamics.step", hot=True)
    tracer.patch(oscint.batch, "solve", "batch.solve",
                 note=lambda _, r: tracer.count("batch.sweeps", r.iterations))
    tracer.patch(oscint.batch, "forward_pass", "batch.forward", hot=True)
    tracer.patch(oscint.batch, "backward_pass", "batch.backward", hot=True)
    tracer.patch(sc, "simulate_circuit", "circuit.simulate",
                 note=lambda args, _: tracer.count("circuit.steps", _steps(args)))
    tracer.patch(oscint.circuit, "pfc_step", "circuit.pfc_step", hot=True)
    tracer.patch(oscint.circuit, "thalamic_step", "circuit.thalamic_step", hot=True)
    tracer.patch(sc, "predict_series", "predict.series",
                 note=lambda _, r: tracer.count("predict.steps", len(r.times) - 1))
    for fn in ("center_surround", "synfire", "ei_pair", "random_spectral",
               "eigen_encoder"):
        tracer.patch(sc, fn, "weights.build")
    for fn in ("analyze", "dominant_frequency"):
        tracer.patch(sc, fn, "spectral.analyze")
    for fn in ("write_trajectory_csv", "write_circuit_csv", "write_prediction_csv"):
        tracer.patch(oscint.output, fn, "output.csv", note=written)
    tracer.patch(oscint.output, "write_svg_lines", "output.svg")
    tracer.patch(cli, "main", "cli.main")


def metrics(tracer) -> dict[str, float]:
    """Per-layer values of one traced round (``trace.overhead_s`` excluded:
    it needs an untraced round to compare with)."""
    total, own, count = tracer.totals(), tracer.self_times(), tracer.counts

    def t(name):
        return total.get(name, 0.0)

    def per(amount, n, scale):
        return scale * amount / n if n else 0.0

    steps = count.get("dynamics.steps", 0)
    sweeps = count.get("batch.sweeps", 0)
    circuit_steps = count.get("circuit.steps", 0)
    csv_mb = count.get("output.csv_bytes", 0) / 1e6
    return {
        "import.oscint_s": t("import.oscint"),
        "import.scipy_s": t("import.scipy"),
        "dynamics.simulate_s": t("dynamics.simulate"),
        "dynamics.step_s": t("dynamics.step"),
        "dynamics.steps": steps,
        "dynamics.us_per_step": per(t("dynamics.simulate"), steps, 1e6),
        "model.trajectory_mb": count.get("model.trajectory_bytes", 0) / 1e6,
        "batch.solve_s": t("batch.solve"),
        "batch.forward_s": t("batch.forward"),
        "batch.backward_s": t("batch.backward"),
        "batch.sweeps": sweeps,
        "batch.ms_per_sweep": per(t("batch.solve"), sweeps, 1e3),
        "circuit.simulate_s": t("circuit.simulate"),
        "circuit.pfc_step_s": t("circuit.pfc_step"),
        "circuit.thalamic_step_s": t("circuit.thalamic_step"),
        "circuit.steps": circuit_steps,
        "circuit.us_per_step": per(t("circuit.simulate"), circuit_steps, 1e6),
        "predict.series_s": t("predict.series"),
        "predict.steps": count.get("predict.steps", 0),
        "weights.build_s": t("weights.build"),
        "spectral.analyze_s": t("spectral.analyze"),
        "scenarios.self_s": own.get("scenarios.run_scenario", 0.0),
        "output.csv_s": t("output.csv"),
        "output.csv_mb": csv_mb,
        "output.csv_mb_per_s": per(csv_mb, t("output.csv"), 1.0),
        "output.svg_s": t("output.svg"),
        "cli.main_s": t("cli.main"),
    }
