"""Command-line interface.

Three subcommands:

* ``run``      — execute a scenario preset (or a network config file),
               write CSV/report/SVG artifacts, exit 0 only if every
               scenario assertion passed;
* ``analyze``  — print the spectral report of a constructor or config file;
* ``sweep``    — run several scenarios, optionally in parallel workers.

Each command reads argparse's namespace as it is.  ``run`` and ``analyze``
take exactly one target; a run writes its record's artifacts through
:func:`oscint.output.write_csv` and :func:`oscint.output.plot_series`,
whether the record came from a preset or a ``--spec`` file, the CSV on the
1 ms grid of :func:`oscint.model.grid_stride` unless
``--full-resolution`` is given.  Bad input exits 2 with one ``error:`` line.
The default output directory comes from ``OSCINT_OUT`` (falling back to
``./out``).  A single ``--seed`` flag covers every random choice a command
makes.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import config as config_mod
from . import output
from .dynamics import simulate
from .model import DivergenceError, SampledRecord, grid_stride, steps_in_span
from .scenarios import SCENARIO_NAMES, ScenarioResult, run_scenario
from .spectral import SpectralReport, analyze
from .weights import (
    SpectrumRequest,
    _eigen_order,
    center_surround,
    ei_pair,
    random_spectral,
    synfire,
)

_ENV_OUT = "OSCINT_OUT"


def _positive_float(text: str) -> float:
    value = float(text)
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"{text} is not a positive finite number")
    return value


def _tau_list(text: str) -> tuple:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad tau list {text!r}") from exc
    if not values or not all(np.isfinite(v) and v > 0 for v in values):
        raise argparse.ArgumentTypeError("tau values must be positive and finite")
    return values


def _scenario_list(text: str) -> tuple[str, ...]:
    if text == "all":
        return SCENARIO_NAMES
    return tuple(s.strip() for s in text.split(",") if s.strip())


class _Parser(argparse.ArgumentParser):
    """Reports a bad argument as one ``error:`` line and exits 2; the
    subcommand parsers are of this class too."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="oscint",
        description="simulate and analyze gated recurrent integrator networks",
    )
    default_out = os.environ.get(_ENV_OUT, "out")
    parser.add_argument(
        "--out", type=Path, dest="out_dir", default=default_out, metavar="DIR",
        help=f"output directory (default: ${_ENV_OUT} or ./out)",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for any randomized construction")
    # Not required here: argparse checks a required subcommand before it
    # reports leftover arguments, so ``oscint --bogus`` would not name the
    # flag.  ``main`` asks for the subcommand after parsing instead.
    sub = parser.add_subparsers(dest="subcommand")

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
    p_run.add_argument("--no-plot", dest="plot", action="store_false",
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
    p_sw.add_argument("--scenarios", type=_scenario_list, default="all",
                      help="comma list of presets, or 'all'")
    p_sw.add_argument("--workers", type=int, default=1,
                      help="parallel worker processes (at least 1)")
    p_sw.add_argument("--dt", type=_positive_float, default=None)
    p_sw.add_argument("--tau-scale", type=_positive_float, default=None)
    p_sw.add_argument("--no-plot", dest="plot", action="store_false")
    for p in (p_run, p_sw):
        p.add_argument("--full-resolution", action="store_true",
                       help="write every step to the CSV (default: the coarsest "
                            "grid within 1 ms that ends on the last sample)")
    return parser


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


def _write_artifacts(out_dir: Path, name: str, record: SampledRecord, title: str,
                     plot: bool, full_resolution: bool) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    stride = 1 if full_resolution else grid_stride(record.n_samples - 1, record.dt)
    output.write_csv(out_dir / f"{name}_trajectory.csv", record, stride)
    if plot:
        output.write_svg_lines(out_dir / f"{name}_y.svg", record.times,
                               output.plot_series(record), title=title,
                               y_label="response")


def _write_scenario(out_dir: Path, result: ScenarioResult, plot: bool,
                    full_resolution: bool) -> None:
    _write_artifacts(out_dir, result.name, result.trajectory,
                     f"{result.name}: {result.description}", plot, full_resolution)
    (out_dir / f"{result.name}_report.txt").write_text(
        "\n".join(_report_lines(result)) + "\n")


def _run_spec_file(ns: argparse.Namespace) -> int:
    spec = config_mod.load_spec(ns.spec_path)
    if ns.tau_scale:
        spec = spec.replace(tau_y=spec.tau_y * ns.tau_scale)
    dt = ns.dt if ns.dt is not None else 1.0
    duration = ns.duration if ns.duration is not None else 1000.0
    x = np.zeros((steps_in_span(duration, dt) + 1, spec.n_inputs))
    traj = simulate(spec, x, 0.0, duration, dt)
    name = Path(ns.spec_path).stem
    _write_artifacts(ns.out_dir, name, traj, name, ns.plot, ns.full_resolution)
    print(f"simulated {name}: {traj.n_samples} samples -> {ns.out_dir}")
    return 0


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_run(ns: argparse.Namespace) -> int:
    if bool(ns.scenario) == bool(ns.spec_path):
        return _usage_error("run: provide exactly one of --scenario or --spec")
    # Bad input (an unreadable or malformed config, an off-grid span, an
    # unwritable output directory, a span too long to hold in memory) exits
    # 2; a run that diverges exits 1.  Either way the message is one line.
    try:
        if ns.spec_path:
            return _run_spec_file(ns)
        result = run_scenario(
            ns.scenario,
            dt=ns.dt,
            duration=ns.duration,
            seed=ns.seed,
            tau_scale=ns.tau_scale,
        )
        _write_scenario(ns.out_dir, result, ns.plot, ns.full_resolution)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: not enough memory for this run: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in _report_lines(result):
        print(line)
    return 0 if result.all_passed else 1


# ---------------------------------------------------------------------------
# analyze


def _constructor_matrix(ns: argparse.Namespace) -> np.ndarray:
    name = ns.constructor
    if name == "center-surround":
        return center_surround(ns.n)
    if name == "synfire":
        return synfire(ns.n)
    if name == "random-spectral":
        seed = ns.seed if ns.seed is not None else 0
        return random_spectral(SpectrumRequest(n=ns.n, d=ns.d,
                                               imag_std=ns.imag_std, seed=seed))
    if name == "ei-pair":
        return ei_pair()
    if name == "identity":
        if ns.n < 1:
            raise ValueError("identity needs n >= 1")
        return np.eye(ns.n)
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
    lam = lam[_eigen_order(lam)]
    show = min(len(lam), 10)
    lines.append(f"leading eigenvalues of the recurrent matrix (top {show}):")
    for v in lam[:show]:
        lines.append(f"  {v.real:+.4f} {v.imag:+.4f}i")
    pair = lam[(np.abs(lam.imag) > 1e-9)]
    if pair.size:
        lines.append(f"top oscillatory pair imag: +-{abs(pair[0].imag):.4f}")
    return lines


def cmd_analyze(ns: argparse.Namespace) -> int:
    if bool(ns.constructor) == bool(ns.spec_path):
        return _usage_error("analyze: provide exactly one of --constructor or --spec")
    # Bad input (an unreadable or malformed config, a size the constructor
    # rejects or memory cannot hold, a tau list of the wrong length) exits 2.
    try:
        if ns.spec_path:
            spec = config_mod.load_spec(ns.spec_path)
            matrix, tau = spec.w_yy, spec.tau_y
        else:
            matrix = _constructor_matrix(ns)
            tau = np.broadcast_to(
                np.asarray(ns.tau, dtype=np.float64),
                (matrix.shape[0],) if len(ns.tau) == 1 else (len(ns.tau),),
            )
            if len(tau) != matrix.shape[0]:
                raise ValueError(f"{len(tau)} tau values for a "
                                 f"{matrix.shape[0]}-unit matrix")
        report = analyze(matrix, tau)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: not enough memory for this analysis: {exc}", file=sys.stderr)
        return 2
    for line in _format_report(report):
        print(line)
    return 0


# ---------------------------------------------------------------------------
# sweep


def _sweep_one(name: str, out_dir: Path, dt: Optional[float],
               tau_scale: Optional[float], seed: Optional[int],
               plot: bool, full_resolution: bool) -> tuple[str, bool, str]:
    # Bad input, an unwritable output directory, a divergence and a run too
    # large to hold in memory each end this scenario in one FAIL line; the
    # other scenarios still run.
    try:
        result = run_scenario(name, dt=dt, seed=seed, tau_scale=tau_scale)
        _write_scenario(out_dir, result, plot, full_resolution)
    except (OSError, ValueError, DivergenceError) as exc:
        return name, False, str(exc)
    except MemoryError as exc:
        return name, False, f"not enough memory for this run: {exc}"
    failed = [a.name for a in result.assertions if not (a.passed or a.skipped)]
    detail = "ok" if not failed else "failed: " + "; ".join(failed)
    return name, result.all_passed, detail


def cmd_sweep(ns: argparse.Namespace) -> int:
    unknown = [s for s in ns.scenarios if s not in SCENARIO_NAMES]
    if unknown:
        return _usage_error(f"unknown scenario {', '.join(unknown)}")
    if not ns.scenarios:
        return _usage_error("sweep: --scenarios names no scenario")
    if ns.workers < 1:
        return _usage_error(f"sweep: --workers must be at least 1, got {ns.workers}")
    args = [(name, ns.out_dir, ns.dt, ns.tau_scale, ns.seed, ns.plot,
             ns.full_resolution) for name in ns.scenarios]
    # The pool starts all its workers up front, so never ask for more than
    # there are scenarios to run or cores to run them on.
    workers = min(ns.workers, len(args), os.cpu_count() or 1)
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
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.subcommand is None:
        parser.error("the following arguments are required: subcommand")
    commands = {"run": cmd_run, "analyze": cmd_analyze, "sweep": cmd_sweep}
    return commands[ns.subcommand](ns)


if __name__ == "__main__":
    sys.exit(main())
