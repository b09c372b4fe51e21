"""Output checks made apart from the program under test.

Each check takes plain arrays or files and returns a list of failure
messages; an empty list means the output passed.  The checks compare
against NumPy computations written here, or against properties the method
must have.  None compares against a stored copy of earlier output, and none
depends on how many rows an artifact holds.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

CUE_2D = np.array([np.cos(np.pi / 6.0), np.sin(np.pi / 6.0)])

# Preset schedules, as the README documents them (ms).
FIG5_DELAY = (1500.0, 3000.0)
FIG6_DELAY = (1200.0, 3300.0)
FIG3_COMPARE = (2000.0, 2500.0)
FIG9_DELAY = (550.0, 1350.0)        # 200 ms after the input ends, to the end cue
FIG9_CUE_SETTLED = (100.0, 249.0)   # start cue is on over [0, 250)
FIG9_RESET_FROM = 1550.0            # 200 ms after the end cue starts


def _window(times: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return (times >= lo - 1e-9) & (times <= hi + 1e-9)


def gates_closed_propagation(
    w_yy: np.ndarray, tau_y: np.ndarray, times: np.ndarray, x: np.ndarray,
    a: np.ndarray, b: np.ndarray, y: np.ndarray, span: tuple[float, float],
    tol: float = 1e-12,
) -> list[str]:
    """With both gains at zero and no input, forward Euler reduces to
    y[i+1] = P y[i] with P = I + dt diag(1/tau_y)(W - I).  Every sample
    inside ``span`` must follow P from the sample before it."""
    sel = np.flatnonzero(_window(times, *span))
    if sel.size < 2:
        return [f"span {span} holds fewer than two samples"]
    dt = float(times[1] - times[0])
    steps = sel[:-1]        # sample i carries the gains and input of step i -> i+1
    gates = max(float(np.maximum(a[steps], 0).max()),
                float(np.maximum(b[steps], 0).max()))
    if gates > 1e-12 or np.abs(x[steps]).max() > 0:
        return [f"gates or input not closed over {span}: max gain {gates:.3e}"]
    n = w_yy.shape[0]
    prop = np.eye(n) + (dt / np.asarray(tau_y))[:, None] * (w_yy - np.eye(n))
    worst = 0.0
    for lo in range(sel[0], sel[-1], 8192):
        hi = min(lo + 8192, sel[-1])
        resid = y[lo:hi] @ prop.T - y[lo + 1:hi + 1]
        worst = max(worst, float(np.abs(resid).max()))
    scale = max(1.0, float(np.abs(y[sel]).max()))
    if not np.isfinite(worst) or worst > tol * scale:
        return [f"delay samples leave the gates-closed propagator: max residual "
                f"{worst:.3e} (tol {tol * scale:.1e})"]
    return []


def euler_reference(spec, x: np.ndarray, dt: float) -> np.ndarray:
    """Forward-Euler run of the gated model from rest, with gains driven by
    the input only (the spec's y-to-gain weights must be zero); row i is the
    response at sample i."""
    if np.any(spec.w_ay) or np.any(spec.w_by):
        raise ValueError("reference integrates input-driven gains only")
    z = x @ spec.w_zx.T + spec.c_z
    a_in = x.real @ spec.w_ax.T + spec.c_a
    b_in = x.real @ spec.w_bx.T + spec.c_b
    n = spec.n_neurons
    y = np.zeros((len(x), n), dtype=np.complex128)
    a, b = np.zeros(n), np.zeros(n)
    for i in range(len(x) - 1):
        ap, bp = np.maximum(a, 0), np.maximum(b, 0)
        pull = bp / (1 + bp) * z[i] + (spec.w_yy @ y[i] + spec.c_yhat) / (1 + ap)
        y[i + 1] = y[i] + dt / spec.tau_y * (pull - y[i])
        a = a + dt / spec.tau_a * (a_in[i] - a)
        b = b + dt / spec.tau_b * (b_in[i] - b)
    return y


def batch_descent(energy_history: np.ndarray, times: np.ndarray,
                  y_batch: np.ndarray, y_euler: np.ndarray,
                  span: tuple[float, float] = FIG3_COMPARE,
                  tol: float = 1e-4) -> list[str]:
    """The energy never rises from one sweep to the next, and the solved
    series matches an incremental Euler run of the same trial over ``span``."""
    failures = []
    hist = np.asarray(energy_history)
    rises = int((np.diff(hist) > 0).sum())
    if hist.size < 2 or rises or not np.all(np.isfinite(hist)):
        failures.append(f"energy history of {hist.size} sweeps rises {rises} times")
    sel = _window(times, *span)
    if not sel.any():
        return failures + [f"comparison span {span} outside the run"]
    err = float(np.abs(y_batch[sel] - y_euler[sel]).max())
    if not err <= tol:
        failures.append(f"batch series differs from Euler by {err:.3e} over "
                        f"{span} (tol {tol:g})")
    return failures


def circuit_memory(times: np.ndarray, y_net: np.ndarray, a: np.ndarray,
                   b: np.ndarray, w_ry: np.ndarray, gain_level: float,
                   tol: float = 1e-3) -> list[str]:
    """Delay readout of y_net equals the cue, gain units settle at the
    conductance ratio while the cue is on, and y_net is near zero after
    the reset."""
    failures = []
    if not (np.all(np.isfinite(y_net)) and np.all(np.isfinite(a))
            and np.all(np.isfinite(b))):
        return ["non-finite circuit output"]
    sel = _window(times, *FIG9_DELAY)
    readout = (y_net[sel] @ w_ry.T).real
    err = float(np.abs(readout - CUE_2D).max()) if sel.any() else np.inf
    if not err < tol:
        failures.append(f"delay readout differs from the cue by {err:.3e}")
    sel = _window(times, *FIG9_CUE_SETTLED)
    dev = float(max(np.abs(a[sel] - gain_level).max(),
                    np.abs(b[sel] - gain_level).max())) if sel.any() else np.inf
    if not dev < tol:
        failures.append(f"gain units sit {dev:.3e} from {gain_level:g} under the cue")
    sel = times >= FIG9_RESET_FROM - 1e-9
    resid = float(np.abs(y_net[sel]).max()) if sel.any() else np.inf
    if not resid < tol:
        failures.append(f"max |y_net| after reset is {resid:.3e}")
    return failures


# ---------------------------------------------------------------------------
# CLI artifacts

# Neurons per rate preset and the time of the last sample (ms).
RATE_PRESETS = {"fig2": (8, 3300.0), "fig4": (16, 3100.0),
                "fig7": (2, 3200.0), "fig8": (100, 3200.0)}
FIG10_FREQS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0)
FIG10_END = 3000.0
FIG10_FREE_RUN = (0.0, 2500.0)


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and numeric rows of a comma-separated file; raises ValueError
    on a ragged, non-numeric or unterminated file."""
    text = Path(path).read_text()
    if not text.endswith("\n"):
        raise ValueError("file does not end with a newline")
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    if rows.shape[1] != len(header):
        raise ValueError(f"{rows.shape[1]} fields under {len(header)} headers")
    return header, rows


def _time_grid(name: str, t: np.ndarray, t_end: float) -> list[str]:
    steps = np.diff(t)
    if t.size < 2 or np.abs(steps - np.median(steps)).max() > 1e-9 or steps.min() <= 0:
        return [f"{name}: times are not a uniform increasing grid"]
    if abs(t[-1] - t_end) > 1e-6:
        return [f"{name}: last sample at t = {t[-1]:g}, expected {t_end:g}"]
    return []


def rate_csv(name: str, path: Path) -> list[str]:
    n, t_end = RATE_PRESETS[name]
    header, rows = read_csv(path)
    expected = ["t"] + [f"{part}_{j}" for j in range(n)
                        for part in ("re_y", "im_y", "a", "b")]
    if header != expected:
        return [f"{name}: columns do not follow t, re_y_j, im_y_j, a_j, b_j "
                f"for {n} neurons"]
    failures = _time_grid(name, rows[:, 0], t_end)
    if not np.all(np.isfinite(rows)):
        failures.append(f"{name}: non-finite values")
    return failures


def prediction_csv(path: Path) -> list[str]:
    header, rows = read_csv(path)
    tags = [f"{f:g}hz" for f in FIG10_FREQS]
    expected = ["t"] + [f"{p}_{tag}" for tag in tags for p in ("re_y", "im_y")]
    expected += ["readout", "quadrature"]
    if header != expected:
        return ["fig10: columns do not follow t, re_y_<f>hz, im_y_<f>hz, ..., "
                "readout, quadrature"]
    t = rows[:, 0]
    failures = _time_grid("fig10", t, FIG10_END)
    re = rows[:, 1:-2:2]
    im = rows[:, 2:-2:2]
    err = float(np.abs(rows[:, -2] - re.sum(axis=1)).max())
    if not err < 1e-12:
        failures.append(f"fig10: readout differs from the sum of re_y by {err:.3e}")
    sel = _window(t, *FIG10_FREE_RUN)
    mags = np.hypot(re[sel], im[sel])
    drift = float(np.abs(mags - mags[0]).max()) if sel.any() else np.inf
    if not drift < 1e-6:
        failures.append(f"fig10: channel magnitudes drift by {drift:.3e} over "
                        f"the free run")
    return failures


def sweep_outputs(out_dir: Path, scenarios: list[str], exit_code: int,
                  stdout: str) -> list[str]:
    """Exit status, one PASS line, a parsable CSV, a passing report and a
    well-formed SVG for each swept scenario."""
    failures = [] if exit_code == 0 else [f"sweep exited with {exit_code}"]
    lines = stdout.splitlines()
    for name in scenarios:
        if not any(line.startswith(f"PASS {name}:") for line in lines):
            failures.append(f"{name}: no PASS line")
        csv_path = out_dir / f"{name}_trajectory.csv"
        try:
            failures += (prediction_csv(csv_path) if name == "fig10"
                         else rate_csv(name, csv_path))
        except (OSError, ValueError) as exc:
            failures.append(f"{name}: CSV unreadable: {exc}")
        try:
            report = (out_dir / f"{name}_report.txt").read_text()
            if "all assertions passed" not in report:
                failures.append(f"{name}: report does not pass")
            root = ET.parse(out_dir / f"{name}_y.svg").getroot()
            if not root.tag.endswith("svg"):
                failures.append(f"{name}: SVG root is <{root.tag}>")
        except (OSError, ET.ParseError) as exc:
            failures.append(f"{name}: artifact unreadable: {exc}")
    return failures
