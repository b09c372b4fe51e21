"""Command-line interface.

Three subcommands:

* ``run``      — execute a scenario preset (or a network config file),
               write CSV/report/SVG artifacts, exit 0 only if every
               scenario assertion passed;
* ``analyze``  — print the spectral report of a constructor or config file;
* ``sweep``    — run several scenarios, optionally in parallel workers.

The default output directory comes from ``OSCINT_OUT`` (falling back to
``./out``).  A single ``--seed`` flag covers every random choice a command
makes.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import config as config_mod
from . import output
from .dynamics import simulate
from .model import DivergenceError, steps_in_span
from .scenarios import SCENARIO_NAMES, ScenarioResult, run_scenario
from .spectral import SpectralReport, analyze
from .weights import (
    SpectrumRequest,
    center_surround,
    ei_pair,
    random_spectral,
    synfire,
)

_ENV_OUT = "OSCINT_OUT"


@dataclass
class RunConfig:
    """Parsed command line, normalized."""

    subcommand: str
    scenario: Optional[str] = None
    spec_path: Optional[str] = None
    constructor: Optional[str] = None
    n: int = 8
    d: int = 2
    imag_std: float = 0.05
    tau: tuple = (10.0,)
    dt: Optional[float] = None
    duration: Optional[float] = None
    out_dir: Path = Path("out")
    seed: Optional[int] = None
    tau_scale: Optional[float] = None
    plot: bool = True
    scenarios: tuple = ()
    workers: int = 1


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text} is not a positive number")
    return value


def _tau_list(text: str) -> tuple:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad tau list {text!r}") from exc
    if not values or any(v <= 0 for v in values):
        raise argparse.ArgumentTypeError("tau values must be positive")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscint",
        description="simulate and analyze gated recurrent integrator networks",
    )
    default_out = os.environ.get(_ENV_OUT, "out")
    parser.add_argument(
        "--out", default=default_out, metavar="DIR",
        help=f"output directory (default: ${_ENV_OUT} or ./out)",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for any randomized construction")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_run = sub.add_parser("run", help="run one scenario preset or config file")
    p_run.add_argument("--scenario", help=f"one of: {', '.join(SCENARIO_NAMES)}")
    p_run.add_argument("--spec", dest="spec_path",
                       help="network config JSON to simulate instead of a preset")
    p_run.add_argument("--dt", type=_positive_float, default=None,
                       help="integration step in ms")
    p_run.add_argument("--duration", type=_positive_float, default=None,
                       help="run length in ms")
    p_run.add_argument("--tau-scale", type=_positive_float, default=None,
                       help="multiply every response time constant")
    p_run.add_argument("--no-plot", action="store_true",
                       help="skip SVG output")

    p_an = sub.add_parser("analyze", help="spectral report of a matrix")
    p_an.add_argument("--constructor",
                      choices=("center-surround", "synfire", "random-spectral",
                               "ei-pair", "identity"),
                      help="matrix family to analyze")
    p_an.add_argument("--spec", dest="spec_path",
                      help="network config JSON to analyze instead")
    p_an.add_argument("--n", type=int, default=8, help="matrix size")
    p_an.add_argument("--d", type=int, default=2,
                      help="sustained dimensions (random-spectral)")
    p_an.add_argument("--imag-std", type=float, default=0.05,
                      help="imaginary spread (random-spectral)")
    p_an.add_argument("--tau", type=_tau_list, default=(10.0,),
                      help="time constants in ms, comma separated "
                           "(single value broadcasts)")

    p_sw = sub.add_parser("sweep", help="run several scenarios")
    p_sw.add_argument("--scenarios", default="all",
                      help="comma list of presets, or 'all'")
    p_sw.add_argument("--workers", type=int, default=1,
                      help="parallel worker processes")
    p_sw.add_argument("--dt", type=_positive_float, default=None)
    p_sw.add_argument("--tau-scale", type=_positive_float, default=None)
    p_sw.add_argument("--no-plot", action="store_true")
    return parser


def parse_args(argv: Optional[Sequence[str]] = None) -> RunConfig:
    ns = build_parser().parse_args(argv)
    cfg = RunConfig(subcommand=ns.subcommand, out_dir=Path(ns.out), seed=ns.seed)
    if ns.subcommand == "run":
        cfg.scenario = ns.scenario
        cfg.spec_path = ns.spec_path
        cfg.dt = ns.dt
        cfg.duration = ns.duration
        cfg.tau_scale = ns.tau_scale
        cfg.plot = not ns.no_plot
    elif ns.subcommand == "analyze":
        cfg.constructor = ns.constructor
        cfg.spec_path = ns.spec_path
        cfg.n = ns.n
        cfg.d = ns.d
        cfg.imag_std = ns.imag_std
        cfg.tau = ns.tau
    else:
        cfg.scenarios = (
            SCENARIO_NAMES if ns.scenarios == "all"
            else tuple(s.strip() for s in ns.scenarios.split(",") if s.strip())
        )
        cfg.workers = max(1, ns.workers)
        cfg.dt = ns.dt
        cfg.tau_scale = ns.tau_scale
        cfg.plot = not ns.no_plot
    return cfg


# ---------------------------------------------------------------------------
# run


def _report_lines(result: ScenarioResult) -> list[str]:
    lines = [f"scenario: {result.name}", result.description, ""]
    for check in result.assertions:
        status = "SKIP" if check.skipped else ("PASS" if check.passed else "FAIL")
        lines.append(f"[{status}] {check.name}: {check.detail}")
    lines.append("")
    verdict = "all assertions passed" if result.all_passed else "ASSERTIONS FAILED"
    lines.append(verdict)
    return lines


def _svg_series(result: ScenarioResult, max_traces: int = 8) -> dict[str, np.ndarray]:
    kind = result.kind
    traj = result.trajectory
    if kind == "circuit":
        y = traj.y_net
        labels = [f"y_net_{j}" for j in range(y.shape[1])]
    elif kind == "prediction":
        freqs = result.extras["freqs_hz"]
        return {f"re_y_{f:g}hz": traj.y[:, j].real for j, f in enumerate(freqs)} | {
            "readout": traj.readout
        }
    else:
        y = traj.y.real
        labels = [f"re_y_{j}" for j in range(y.shape[1])]
    step = max(1, y.shape[1] // max_traces)
    return {labels[j]: y[:, j] for j in range(0, y.shape[1], step)}


def _write_artifacts(result: ScenarioResult, out_dir: Path, plot: bool) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    csv_path = out_dir / f"{result.name}_trajectory.csv"
    if result.kind == "circuit":
        output.write_circuit_csv(csv_path, result.trajectory)
    elif result.kind == "prediction":
        output.write_prediction_csv(csv_path, result.trajectory,
                                    result.extras["freqs_hz"])
    else:
        output.write_trajectory_csv(csv_path, result.trajectory)
    written.append(csv_path)

    report_path = out_dir / f"{result.name}_report.txt"
    report_path.write_text("\n".join(_report_lines(result)) + "\n")
    written.append(report_path)

    if plot:
        svg_path = out_dir / f"{result.name}_y.svg"
        series = _svg_series(result)
        output.write_svg_lines(
            svg_path, result.trajectory.times, series,
            title=f"{result.name}: {result.description}",
            y_label="response",
        )
        written.append(svg_path)
    return written


def _run_spec_file(cfg: RunConfig) -> int:
    spec = config_mod.load_spec(cfg.spec_path)
    if cfg.tau_scale:
        spec = spec.replace(tau_y=spec.tau_y * cfg.tau_scale)
    dt = cfg.dt if cfg.dt is not None else 1.0
    duration = cfg.duration if cfg.duration is not None else 1000.0
    x = np.zeros((steps_in_span(duration, dt) + 1, spec.n_inputs))
    traj = simulate(spec, x, 0.0, duration, dt,
                    record_readout=spec.n_readout > 0)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    name = Path(cfg.spec_path).stem
    output.write_trajectory_csv(cfg.out_dir / f"{name}_trajectory.csv", traj)
    if cfg.plot:
        series = {f"re_y_{j}": traj.y[:, j].real
                  for j in range(min(traj.y.shape[1], 8))}
        output.write_svg_lines(cfg.out_dir / f"{name}_y.svg", traj.times, series,
                               title=name, y_label="response")
    print(f"simulated {name}: {traj.n_samples} samples -> {cfg.out_dir}")
    return 0


def cmd_run(cfg: RunConfig) -> int:
    if not (cfg.scenario or cfg.spec_path):
        print("run: provide --scenario or --spec", file=sys.stderr)
        return 2
    # Bad input (an unreadable or malformed config, an off-grid span, an
    # unwritable output directory) exits 2; a run that diverges exits 1.
    # Either way the message is one line.
    try:
        if not cfg.scenario:
            return _run_spec_file(cfg)
        result = run_scenario(
            cfg.scenario,
            dt=cfg.dt,
            duration=cfg.duration,
            seed=cfg.seed,
            tau_scale=cfg.tau_scale,
        )
        _write_artifacts(result, cfg.out_dir, cfg.plot)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in _report_lines(result):
        print(line)
    return 0 if result.all_passed else 1


# ---------------------------------------------------------------------------
# analyze


def _constructor_matrix(cfg: RunConfig) -> np.ndarray:
    name = cfg.constructor
    if name == "center-surround":
        return center_surround(cfg.n)
    if name == "synfire":
        return synfire(cfg.n)
    if name == "random-spectral":
        seed = cfg.seed if cfg.seed is not None else 0
        return random_spectral(SpectrumRequest(n=cfg.n, d=cfg.d,
                                               imag_std=cfg.imag_std, seed=seed))
    if name == "ei-pair":
        return ei_pair()
    if name == "identity":
        return np.eye(cfg.n)
    raise ValueError(f"unknown constructor {name!r}")


def _format_report(report: SpectralReport) -> list[str]:
    lines = [
        f"stability: {report.stability}",
        f"sustained dimensionality: {report.dimensionality}",
    ]
    if report.frequencies_hz.size:
        freq_text = ", ".join(f"{f:.2f}" for f in report.frequencies_hz)
        lines.append(f"oscillation frequencies (Hz): {freq_text}")
    else:
        lines.append("oscillation frequencies (Hz): none")
    lam = report.eigenvalues
    order = np.lexsort((-lam.imag, -lam.real))
    lam = lam[order]
    show = min(len(lam), 10)
    lines.append(f"leading eigenvalues of the recurrent matrix (top {show}):")
    for v in lam[:show]:
        lines.append(f"  {v.real:+.4f} {v.imag:+.4f}i")
    pair = lam[(np.abs(lam.imag) > 1e-9)]
    if pair.size:
        lines.append(f"top oscillatory pair imag: +-{abs(pair[0].imag):.4f}")
    return lines


def cmd_analyze(cfg: RunConfig) -> int:
    if not (cfg.spec_path or cfg.constructor):
        print("analyze: provide --constructor or --spec", file=sys.stderr)
        return 2
    # Bad input (an unreadable or malformed config, a size the constructor
    # rejects, a tau list of the wrong length) exits 2 with one line.
    try:
        if cfg.spec_path:
            spec = config_mod.load_spec(cfg.spec_path)
            matrix, tau = spec.w_yy, spec.tau_y
        else:
            matrix = _constructor_matrix(cfg)
            tau = np.broadcast_to(
                np.asarray(cfg.tau, dtype=np.float64),
                (matrix.shape[0],) if len(cfg.tau) == 1 else (len(cfg.tau),),
            )
            if len(tau) != matrix.shape[0]:
                raise ValueError(f"{len(tau)} tau values for a "
                                 f"{matrix.shape[0]}-unit matrix")
        report = analyze(matrix, tau)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in _format_report(report):
        print(line)
    return 0


# ---------------------------------------------------------------------------
# sweep


def _sweep_one(name: str, out_dir: str, dt: Optional[float],
               tau_scale: Optional[float], seed: Optional[int],
               plot: bool) -> tuple[str, bool, str]:
    # Bad input, an unwritable output directory and a divergence each end
    # this scenario in one FAIL line; the other scenarios still run.
    try:
        result = run_scenario(name, dt=dt, seed=seed, tau_scale=tau_scale)
        _write_artifacts(result, Path(out_dir), plot)
    except (OSError, ValueError, DivergenceError) as exc:
        return name, False, str(exc)
    failed = [a.name for a in result.assertions if not (a.passed or a.skipped)]
    detail = "ok" if not failed else "failed: " + "; ".join(failed)
    return name, result.all_passed, detail


def cmd_sweep(cfg: RunConfig) -> int:
    unknown = [s for s in cfg.scenarios if s not in SCENARIO_NAMES]
    if unknown:
        print(f"error: unknown scenario {', '.join(unknown)}", file=sys.stderr)
        return 2
    args = [(name, str(cfg.out_dir), cfg.dt, cfg.tau_scale, cfg.seed, cfg.plot)
            for name in cfg.scenarios]
    # The pool starts all its workers up front, so never ask for more than
    # there are scenarios to run or cores to run them on.
    workers = min(cfg.workers, len(args), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(workers) as pool:
            futures = [pool.submit(_sweep_one, *a) for a in args]
            results = [f.result() for f in futures]
    else:
        results = [_sweep_one(*a) for a in args]
    ok = True
    for name, passed, detail in results:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        ok = ok and passed
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    cfg = parse_args(argv)
    if cfg.subcommand == "run":
        return cmd_run(cfg)
    if cfg.subcommand == "analyze":
        return cmd_analyze(cfg)
    return cmd_sweep(cfg)


if __name__ == "__main__":
    sys.exit(main())
