"""Built-in demonstration scenarios with self-checking assertions.

Each preset wires a network, an input schedule and a list of quantitative
checks (encode accuracy, delay stability, reset depth, snapshot positions,
spectral peaks).  ``run_scenario`` executes the preset and returns the
trajectory together with one :class:`AssertionOutcome` per check — failed
checks are *reported*, never raised, so a run always yields inspectable data.

Preset ids (fig2..fig10) are opaque names kept stable for scripting.

A check that reads a time window of a run goes through :func:`_check`: it
measures inside the window that the run's record looks up
(:meth:`oscint.model.SampledRecord.window`), or reports the check skipped
when that window is not inside the run.  ``_PRESETS`` states each preset's
contract once: its builder, its description and its defaults, whose keys are
the overrides it honours.  ``run_scenario`` merges the caller's overrides
into those defaults, rejects one the preset would ignore, and wraps what the
builder returns in the one :class:`ScenarioResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import batch as batch_mod
from .circuit import CircuitParams, simulate_circuit, total_conductance
from .dynamics import simulate
from .model import (
    NetworkSpec,
    SampledRecord,
    SimState,
    Trajectory,
    _blas_threads,
    grid_stride,
    readout_series,
    sample_times,
    steps_in_span,
)
from .predict import ModulatorSchedule, PredictorSpec, predict_series
from .spectral import (
    STABLE_OSCILLATION,
    analyze,
    dominant_frequency,
    magnitude_readout,
    sustained_dimensionality,
)
from .weights import (
    SpectrumRequest,
    center_surround,
    ei_pair,
    eigen_encoder,
    random_spectral,
    synfire,
)


@dataclass(frozen=True)
class Pulse:
    """Rectangular input pulse: ``value`` on ``channel`` during [t_on, t_off)."""

    channel: int
    t_on: float
    t_off: float
    value: float


def pulse_series(n_channels: int, pulses: list[Pulse], t_start: float,
                 t_stop: float, dt: float) -> np.ndarray:
    """Rectangular pulses (instantaneous edges) summed into the input series
    the engines take: row ``i`` is the input at ``t_start + i*dt``, through
    ``t_stop``.  ValueError unless the span is a whole number of steps and
    every pulse's channel is in [0, n_channels)."""
    times = sample_times(t_start, t_stop, dt)
    x = np.zeros((len(times), n_channels))
    for p in pulses:
        if not 0 <= p.channel < n_channels:
            raise ValueError(f"pulse channel {p.channel} is outside [0, {n_channels})")
        x[(p.t_on <= times) & (times < p.t_off), p.channel] += p.value
    return x


@dataclass
class AssertionOutcome:
    name: str
    passed: bool
    detail: str
    skipped: bool = False


@dataclass
class ScenarioResult:
    name: str
    description: str
    trajectory: SampledRecord       # Trajectory / CircuitTrajectory / PredictionResult
    assertions: list[AssertionOutcome]
    extras: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(a.passed or a.skipped for a in self.assertions)


@dataclass(frozen=True)
class Overrides:
    """The settings one preset run uses: the preset's defaults in
    ``_PRESETS`` with the caller's non-None overrides in their place.  A
    setting the preset does not honour stays None."""

    dt: float
    duration: float
    seed: Optional[int]
    tau_scale: Optional[float] = None
    tau_y: Optional[tuple] = None


# What a builder returns: the run's record, its checks and its extras.
_Built = tuple[SampledRecord, list[AssertionOutcome], dict]


def _outcome(name: str, passed: bool, detail: str) -> AssertionOutcome:
    return AssertionOutcome(name=name, passed=bool(passed), detail=detail)


def _check(name: str, record: SampledRecord, t_lo: float, t_hi: float,
           window_name: str, measure: Callable[[slice], tuple[bool, str]]
           ) -> AssertionOutcome:
    """Outcome of ``measure(win) -> (passed, detail)`` over the samples of
    ``record`` from ``t_lo`` to ``t_hi``; skipped, "<window_name> outside
    run", when that window is not inside the run."""
    win = record.window(t_lo, t_hi)
    if win is None:
        return AssertionOutcome(name=name, passed=False, skipped=True,
                                detail=f"{window_name} outside run")
    return _outcome(name, *measure(win))


# ---------------------------------------------------------------------------
# Shared memory-trial scaffolding: k target channels followed by a start cue
# (drives both gains) and an end cue (drives only the recurrent-excess gain).


def _memory_spec(w_yy: np.ndarray, encoder: np.ndarray, tau_y=10.0,
                 w_ry: Optional[np.ndarray] = None) -> NetworkSpec:
    """k target channels driving ``encoder``'s columns, then the two cues;
    the readout rows are ``w_ry``, by default the encoder's conjugate."""
    if w_ry is None:
        w_ry = encoder.conj().T
    n, k = encoder.shape
    m = k + 2
    w_zx = np.zeros((n, m), dtype=np.complex128)
    w_zx[:, :k] = encoder
    w_ax = np.zeros((n, m))
    w_ax[:, k] = 1.0
    w_ax[:, k + 1] = 1.0
    w_bx = np.zeros((n, m))
    w_bx[:, k] = 1.0
    return NetworkSpec.build(
        n, m, n_readout=len(w_ry),
        tau_y=tau_y,
        w_yy=w_yy,
        w_zx=w_zx,
        w_ry=w_ry,
        w_ax=w_ax,
        w_bx=w_bx,
    )


@dataclass(frozen=True)
class _MemoryTiming:
    cue_off: float = 500.0
    input_off: float = 1000.0
    end_cue_on: float = 3000.0
    end_cue_off: float = 3300.0
    t_stop: float = 3300.0


def _memory_pulses(k: int, target: np.ndarray, timing: _MemoryTiming) -> list[Pulse]:
    pulses = [
        Pulse(channel=i, t_on=0.0, t_off=timing.input_off, value=float(target[i]))
        for i in range(k)
    ]
    pulses.append(Pulse(channel=k, t_on=0.0, t_off=timing.cue_off, value=1.0))
    pulses.append(
        Pulse(channel=k + 1, t_on=timing.end_cue_on, t_off=timing.end_cue_off, value=1.0)
    )
    return pulses


_UNIT_TARGET_2D = np.array([np.cos(np.pi / 6.0), np.sin(np.pi / 6.0)])


# ---------------------------------------------------------------------------
# fig2: ring attractor delay memory


def _build_fig2(ov: Overrides) -> _Built:
    dt, t_stop = ov.dt, ov.duration
    timing = _MemoryTiming()

    w = center_surround(8)
    encoder = eigen_encoder(w, 2)
    spec = _memory_spec(w, encoder, tau_y=10.0 * ov.tau_scale)
    pulses = _memory_pulses(2, _UNIT_TARGET_2D, timing)
    traj = simulate(spec, pulse_series(4, pulses, 0.0, t_stop, dt), 0.0, t_stop, dt)

    def delay_readout(win):
        err = float(np.abs(readout_series(spec, traj.y[win]) - _UNIT_TARGET_2D).max())
        return err < 1e-3, (f"max |readout - target| = {err:.3e} over the "
                            f"delay (tol 1e-3)")

    def reset(win):
        resid = float(np.abs(traj.y[win]).max())
        return resid < 1e-3, (f"max |y| = {resid:.3e} from 20 tau after the "
                              f"end cue (tol 1e-3)")

    t_reset = timing.end_cue_on + 20.0 * float(spec.tau_y.max())
    checks = [
        _check("delay readout matches cue", traj, timing.input_off + 500.0,
               timing.end_cue_on, "delay window", delay_readout),
        _check("reset clears activity", traj, t_reset,
               min(t_stop, timing.end_cue_off), "reset window", reset),
    ]

    return traj, checks, {"spec": spec, "encoder": encoder,
                          "target": _UNIT_TARGET_2D, "pulses": pulses,
                          "timing": timing}


# ---------------------------------------------------------------------------
# fig3: same trial, batch energy descent


def _build_fig3(ov: Overrides) -> _Built:
    ref_traj, _, ref_extras = _build_fig2(ov)
    spec = ref_extras["spec"]

    # The incremental trial holds a = b during encoding, i.e. zero recurrent
    # excess; pin the excess gain at zero rather than recycling the a-weights.
    # The step rate stays below 1 on purpose: a full step would make the
    # untouched zero tail of the series exactly self-consistent (zero energy),
    # stalling the energy-decrease stop rule while information is still
    # being transported outward from the input period.
    n, m = spec.n_neurons, spec.n_inputs
    prob = batch_mod.BatchProblem(
        spec=spec,
        x_series=ref_traj.x,
        dt=ov.dt,
        rate=0.8,
        max_iters=8000,
        tolerance=1e-14,
        w_alpha_x=np.zeros((n, m)),
        w_alpha_y=np.zeros((n, n)),
        c_alpha=np.zeros(n),
    )
    result = batch_mod.solve(prob)
    # The descent stops on a relative energy decrease, not on the series, so
    # it is held against the one-pass fixed point of its own sweep; taken
    # before the record is packaged, so few arrays are alive beside it.
    gap = float(np.abs(result.y_series - batch_mod.fixed_point(prob)).max())
    traj = batch_mod.trajectory_from_result(prob, result)

    hist = result.energy_history
    n_rises = int((np.diff(hist) > 0).sum())

    def matches_incremental(win):
        # Both records sample the same grid: dt apart from t = 0.
        err = float(np.abs(traj.y[win] - ref_traj.y[win]).max())
        return err < 1e-4, (f"max |batch - incremental| = {err:.3e} during "
                            f"the delay (tol 1e-4)")

    def gain_locked(win):
        b_on = float(traj.b[win.start].min())
        b_off = float(np.abs(traj.b[win.stop - 1]).max())
        return (b_on > 0.9 and b_off < 1e-3,
                f"b = {b_on:.3f} mid-cue, {b_off:.1e} mid-delay")

    checks = [
        _outcome("energy descent converged", result.converged,
                 f"{result.iterations} sweeps, final energy {hist[-1]:.6g}"),
        _outcome("energy history never rises", n_rises == 0,
                 f"{n_rises} rising sweeps out of {len(hist) - 1}"),
        _outcome("descent reaches the exact fixed point", gap <= 1e-6,
                 f"max |descent - fixed point| = {gap:.3e} (tol 1e-6)"),
        _check("batch matches incremental delay activity", traj, 2000.0,
               2500.0, "comparison window", matches_incremental),
        _check("gain series locked to the cue", traj, 250.0, 2000.0,
               "cue-to-delay window", gain_locked),
    ]

    return traj, checks, {"spec": spec, "problem": prob, "result": result,
                          "energy_history": result.energy_history,
                          "incremental": ref_traj}


# ---------------------------------------------------------------------------
# fig4: double-step remapping with discharge pulses


@dataclass(frozen=True)
class Movement:
    """One remapping event: during [t_on, t_off) the discharge channels carry
    the current readout of map ``source`` and the gate channel opens."""

    t_on: float
    t_off: float
    source: int


def _movement_gain(tau_y: float, tau_b: float, dt: float, duration: float) -> float:
    """Integrated update gain sum_k (dt/tau_y) b_k/(1+b_k) over a gate window,
    with the gain advancing by its own recursion from zero."""
    steps = steps_in_span(duration, dt)
    b = 0.0
    total = 0.0
    for _ in range(steps):
        total += (dt / tau_y) * (b / (1.0 + b))
        b += (dt / tau_b) * (1.0 - b)
    return total


def double_step_loop(
    spec: NetworkSpec,
    base_pulses: list[Pulse],
    movements: list[Movement],
    gate_channel: int,
    cd_channels: tuple[int, int],
    readout_rows: tuple[slice, ...],
    t_stop: float,
    dt: float,
) -> tuple[Trajectory, list[np.ndarray]]:
    """Closed-loop run: each movement injects the *current* readout of its
    source map on the discharge channels while the gate opens the update gain.

    Returns the stitched trajectory and the discharge vectors actually used.
    """
    boundaries = sorted({0.0, t_stop} | {m.t_on for m in movements}
                        | {m.t_off for m in movements})
    state = SimState.zeros(spec)
    pieces: list[Trajectory] = []
    discharges: list[np.ndarray] = []
    for lo, hi in zip(boundaries[:-1], boundaries[1:]):
        pulses = list(base_pulses)
        active = [m for m in movements if m.t_on <= lo < m.t_off]
        if active:
            mv = active[0]
            readout = readout_series(spec, state.y[None])[0].real
            cd_value = readout[readout_rows[mv.source]]
            discharges.append(cd_value.copy())
            pulses.append(Pulse(gate_channel, lo, hi, 1.0))
            pulses.append(Pulse(cd_channels[0], lo, hi, float(cd_value[0])))
            pulses.append(Pulse(cd_channels[1], lo, hi, float(cd_value[1])))
        traj = simulate(spec, pulse_series(spec.n_inputs, pulses, lo, hi, dt),
                        lo, hi, dt, init=state)
        state = SimState(y=traj.y[-1].copy(), a=traj.a[-1].copy(),
                         b=traj.b[-1].copy(), t=float(traj.times[-1]))
        pieces.append(traj)

    def cat(name):
        parts = [getattr(p, name) for p in pieces]
        return np.concatenate([parts[0]] + [part[1:] for part in parts[1:]])

    full = Trajectory(dt=dt, **{name: cat(name) for name in
                                ("times", "x", "a", "b", "y")})
    return full, discharges


def _build_fig4(ov: Overrides) -> _Built:
    w8 = center_surround(8)
    v8 = eigen_encoder(w8, 2)
    n = 16
    w = np.zeros((n, n), dtype=np.complex128)
    w[:8, :8] = w8
    w[8:, 8:] = w8
    v1 = np.zeros((n, 2), dtype=np.complex128)
    v1[:8] = v8
    v2 = np.zeros((n, 2), dtype=np.complex128)
    v2[8:] = v8

    # Discharge couplings: map 1 cancels the executed movement (-I); map 2's
    # coupling is calibrated so both printed end states come out right.
    m1 = -np.eye(2)
    m2 = np.array([[1.0, 0.0], [-1.0, -1.0]])
    move_duration = 100.0
    tau_y = 10.0 * ov.tau_scale
    kappa = 1.0 / _movement_gain(tau_y, 10.0, ov.dt, move_duration)

    # Channels: t1x t1y t2x t2y cdx cdy cue_start gate cue_end
    m_inputs = 9
    w_zx = np.zeros((n, m_inputs), dtype=np.complex128)
    w_zx[:, 0:2] = v1
    w_zx[:, 2:4] = v2
    w_zx[:, 4:6] = kappa * (v1 @ m1 + v2 @ m2)
    w_ax = np.zeros((n, m_inputs))
    w_ax[:, 6] = 1.0
    w_ax[:, 8] = 1.0
    w_bx = np.zeros((n, m_inputs))
    w_bx[:, 6] = 1.0
    w_bx[:, 7] = 1.0
    w_ry = np.vstack([v1.conj().T, v2.conj().T])
    spec = NetworkSpec.build(
        n, m_inputs, n_readout=4, tau_y=tau_y,
        w_yy=w, w_zx=w_zx, w_ry=w_ry, w_ax=w_ax, w_bx=w_bx,
    )

    target1 = np.array([1.0, 0.5])
    target2 = np.array([-1.0, 0.5])
    base = [
        Pulse(0, 0.0, 1000.0, target1[0]),
        Pulse(1, 0.0, 1000.0, target1[1]),
        Pulse(2, 0.0, 1000.0, target2[0]),
        Pulse(3, 0.0, 1000.0, target2[1]),
        Pulse(6, 0.0, 500.0, 1.0),
        Pulse(8, 2800.0, 3100.0, 1.0),
    ]
    movements = [
        Movement(1400.0, 1400.0 + move_duration, source=0),
        Movement(2100.0, 2100.0 + move_duration, source=1),
    ]
    traj, discharges = double_step_loop(
        spec, base, movements,
        gate_channel=7, cd_channels=(4, 5),
        readout_rows=(slice(0, 2), slice(2, 4)),
        t_stop=ov.duration, dt=ov.dt,
    )

    snapshots = {
        "before first movement": (1350.0, target1, target2),
        "after first movement": (2050.0, np.array([0.0, 0.0]), np.array([0.0, -1.0])),
        "after second movement": (2750.0, np.array([0.0, 1.0]), np.array([0.0, 0.0])),
    }

    def positions(win, exp1, exp2):
        got = readout_series(spec, traj.y[win])[0].real
        err = float(max(np.abs(got[:2] - exp1).max(), np.abs(got[2:] - exp2).max()))
        return err < 5e-2, (
            f"readout ({got[0]:+.3f},{got[1]:+.3f} | {got[2]:+.3f},{got[3]:+.3f}) "
            f"vs expected ({exp1[0]:+g},{exp1[1]:+g} | {exp2[0]:+g},{exp2[1]:+g}), "
            f"max err {err:.2e} (tol 5e-2)")

    checks = [_check(f"map positions {label}", traj, t, t, "snapshot",
                     partial(positions, exp1=exp1, exp2=exp2))
              for label, (t, exp1, exp2) in snapshots.items()]

    return traj, checks, {"spec": spec, "discharges": discharges,
                          "kappa": kappa, "couplings": (m1, m2)}


# ---------------------------------------------------------------------------
# fig5: sequence ring (traveling wave) via a scaled shift permutation


def _build_fig5(ov: Overrides) -> _Built:
    dt, t_stop = ov.dt, ov.duration
    timing = _MemoryTiming(end_cue_on=3000.0, end_cue_off=3200.0, t_stop=3200.0)
    n = 100

    # Scale the pure shift so its slowest oscillatory pair sits exactly on
    # the sustained line (real part 1); the pair then neither grows nor decays.
    w = synfire(n) / np.cos(2.0 * np.pi / n)
    top3 = eigen_encoder(w, 3)
    encoder = top3[:, 1:3]      # the conjugate oscillatory pair
    spec = _memory_spec(w, encoder, tau_y=10.0 * ov.tau_scale)

    pulses = _memory_pulses(2, _UNIT_TARGET_2D, timing)
    traj = simulate(spec, pulse_series(4, pulses, 0.0, t_stop, dt), 0.0, t_stop, dt)

    expected_hz = 1000.0 / (n * 10.0)   # one lap of the ring per n tau

    late_delay = (1500.0, timing.end_cue_on)

    def late_delay_checks() -> list[AssertionOutcome]:
        # Both checks read one readout of the late-delay window (the window
        # _check passes them), freed on return, before the spectral check.
        late = traj.window(*late_delay)
        held = None if late is None else magnitude_readout(encoder, traj.y[late].T).T

        def constant(win):
            drift = float(np.abs(held - held[0]).max())
            return drift < 1e-3, f"max drift {drift:.3e} over the late delay (tol 1e-3)"

        def matches_cue(win):
            value_err = float(np.abs(held[0] - np.abs(_UNIT_TARGET_2D)).max())
            return value_err < 5e-3, (f"|readout| vs |target| differs by "
                                      f"{value_err:.3e} (tol 5e-3)")

        return [_check("stored magnitudes constant", traj, *late_delay,
                       "delay window", constant),
                _check("stored magnitudes match cue", traj, *late_delay,
                       "delay window", matches_cue)]

    def oscillates(win):
        bin_hz = 1000.0 / ((win.stop - win.start) * dt)
        peak = dominant_frequency(traj.y[win, 0].real, dt)
        return abs(peak - expected_hz) <= max(0.5, bin_hz), (
            f"spectral peak {peak:.3f} Hz vs {expected_hz:.3f} Hz "
            f"(bin {bin_hz:.3f} Hz)")

    checks = [
        *late_delay_checks(),
        _check("single-unit oscillation near 1 Hz", traj, timing.input_off,
               timing.end_cue_on, "delay window", oscillates),
    ]

    return traj, checks, {"spec": spec, "encoder": encoder, "timing": timing,
                          "expected_hz": expected_hz}


# ---------------------------------------------------------------------------
# fig6: 100-unit random network with a 10-d sustained subspace


_FIG6_SEED = 11


def _fig6_request(seed: int) -> SpectrumRequest:
    return SpectrumRequest(n=100, d=10, imag_std=0.05, seed=seed)


def _build_fig6(ov: Overrides) -> _Built:
    dt, t_stop = ov.dt, ov.duration
    timing = _MemoryTiming(end_cue_on=3300.0, end_cue_off=3500.0, t_stop=3500.0)

    req = _fig6_request(ov.seed)
    w = random_spectral(req)
    encoder = eigen_encoder(w, 10)
    spec = _memory_spec(w, encoder, tau_y=10.0 * ov.tau_scale)

    rng = np.random.default_rng(req.seed + 1)
    target = rng.standard_normal(10)
    pulses = _memory_pulses(10, target, timing)
    traj = simulate(spec, pulse_series(12, pulses, 0.0, t_stop, dt), 0.0,
                    t_stop, dt)

    def constant(win):
        mag = magnitude_readout(encoder, traj.y[win].T).T
        drift = float(np.abs(mag - mag[0]).max())
        return drift < 1e-2, f"max drift {drift:.3e} over 2 s of delay (tol 1e-2)"

    # Reference taken after the gains have fully shut off (20 tau_a past the
    # start cue); the stored magnitudes must stay put for the next 2 s.
    t_ref = 1200.0
    checks = [_check("10-d magnitudes constant", traj, t_ref, t_ref + 2000.0,
                     "delay window", constant)]
    dims = sustained_dimensionality(w)
    checks.append(_outcome("10 sustained dimensions", dims == 10,
                           f"analysis counts {dims} sustained eigenvalues"))

    return traj, checks, {"spec": spec, "encoder": encoder, "target": target,
                          "request": req}


# ---------------------------------------------------------------------------
# fig7: two-unit excitatory/inhibitory oscillator


def _build_fig7(ov: Overrides) -> _Built:
    dt, t_stop = ov.dt, ov.duration
    tau_vec = np.asarray(ov.tau_y, dtype=np.float64) * ov.tau_scale
    if tau_vec.shape != (2,):
        raise ValueError(f"fig7 takes two tau_y values, got {ov.tau_y!r}")

    w = ei_pair()
    # Both units take the one target channel and are read out directly.
    spec = _memory_spec(w, np.ones((2, 1)), tau_y=tau_vec, w_ry=np.eye(2))
    pulses = [
        Pulse(0, 0.0, 1000.0, 1.0),
        Pulse(1, 0.0, 500.0, 1.0),
        Pulse(2, 3000.0, 3200.0, 1.0),
    ]
    traj = simulate(spec, pulse_series(spec.n_inputs, pulses, 0.0, t_stop, dt),
                    0.0, t_stop, dt)
    report = analyze(w, tau_vec)

    def oscillates(win):
        bin_hz = 1000.0 / ((win.stop - win.start) * dt)
        peak = dominant_frequency(traj.y[win, 0].real, dt)
        return abs(peak - predicted) <= 0.5, (
            f"spectral peak {peak:.3f} Hz vs predicted {predicted:.3f} Hz "
            f"(bin {bin_hz:.3f} Hz, tol 0.5 Hz)")

    def decays(win):
        sig = np.abs(traj.y[win, 0])
        peaks = [float(sig[i]) for i in range(1, len(sig) - 1)
                 if sig[i] > sig[i - 1] and sig[i] >= sig[i + 1]]
        decreasing = all(b < a for a, b in zip(peaks, peaks[1:]))
        return len(peaks) >= 3 and decreasing, (
            f"{len(peaks)} envelope peaks, strictly decreasing: {decreasing}")

    if report.stability == STABLE_OSCILLATION and report.frequencies_hz.size:
        predicted = float(report.frequencies_hz[0])
        checks = [_check("delay oscillation at predicted frequency", traj,
                         1000.0, 3000.0, "delay window", oscillates)]
    else:
        checks = [_check("delay activity decays", traj, 600.0, 1400.0,
                         "window", decays)]
    checks.append(_outcome(
        "stability class matches time constants",
        report.stability in (STABLE_OSCILLATION, "decaying"),
        f"classified {report.stability} for tau = "
        f"({float(tau_vec[0]):g}, {float(tau_vec[1]):g})",
    ))

    return traj, checks, {"spec": spec, "report": report, "tau": tuple(tau_vec)}


# ---------------------------------------------------------------------------
# fig8: superposition of two stored oscillatory patterns


def _build_fig8(ov: Overrides) -> _Built:
    dt, t_stop = ov.dt, ov.duration

    w = random_spectral(_fig6_request(ov.seed))
    encoder = eigen_encoder(w, 10)
    cols = (0, 3)
    # Two eigenmode drives and no readout rows.
    spec = _memory_spec(w, encoder[:, cols], tau_y=10.0 * ov.tau_scale,
                        w_ry=np.zeros((0, 100)))

    cue = [Pulse(2, 0.0, 500.0, 1.0), Pulse(3, 3000.0, 3200.0, 1.0)]
    drive_a = [Pulse(0, 0.0, 1000.0, 1.0)] + cue
    drive_b = [Pulse(1, 0.0, 1000.0, 1.0)] + cue
    drive_both = [Pulse(0, 0.0, 1000.0, 1.0), Pulse(1, 0.0, 1000.0, 1.0)] + cue

    runs = {
        label: simulate(spec, pulse_series(spec.n_inputs, ps, 0.0, t_stop, dt),
                        0.0, t_stop, dt)
        for label, ps in (("first", drive_a), ("second", drive_b),
                          ("combined", drive_both))
    }
    sum_err = float(np.abs(
        runs["combined"].y - runs["first"].y - runs["second"].y
    ).max())
    checks = [_outcome(
        "responses superpose",
        sum_err < 1e-8,
        f"max |combined - (first + second)| = {sum_err:.3e} over the whole "
        f"trial (tol 1e-8)",
    )]

    return runs["combined"], checks, {"spec": spec, "runs": runs,
                                      "encoder": encoder, "columns": cols}


# ---------------------------------------------------------------------------
# fig9: conductance-circuit realization


def _calibrate_encode_scale(params: CircuitParams, timing: _MemoryTiming,
                            dt: float, t_settle: float) -> float:
    """Input scale that makes the circuit's delay activity match the cue.

    With the gains shut off, each cell's dendritic leaks vanish and the total
    charge per cell (soma plus both dendrites) becomes the conserved quantity
    in the unit-eigenvalue subspace: the somatic leak is replaced exactly by
    the recurrent current.  The value held through the delay is therefore a
    charge-weighted functional of the whole encoding transient -- including
    the gain rise and decay -- not the encoding plateau itself.  Because the
    cell equations are linear in the drive and the gain units listen only to
    the cue channel, the held value is exactly proportional to the input
    scale, so one probe run of a single self-coupled unit (eigenvalue one)
    under the same cue schedule pins the scale to float precision.
    """
    probe = NetworkSpec.build(
        1, 2,
        tau_y=10.0,
        w_yy=np.ones((1, 1)),
        w_zx=np.array([[1.0, 0.0]]),
        w_ax=np.array([[0.0, 1.0]]),
        w_bx=np.array([[0.0, 1.0]]),
    )
    pulses = [
        Pulse(channel=0, t_on=0.0, t_off=timing.input_off, value=1.0),
        Pulse(channel=1, t_on=0.0, t_off=timing.cue_off, value=1.0),
    ]
    traj = simulate_circuit(probe, params,
                            pulse_series(2, pulses, 0.0, t_settle, dt),
                            0.0, t_settle, dt,
                            record_stride=grid_stride(steps_in_span(t_settle, dt), dt))
    held = float(traj.y_net[-1, 0])
    return 1.0 / held


def _build_fig9(ov: Overrides) -> _Built:
    dt_circuit, t_stop = ov.dt, ov.duration
    timing = _MemoryTiming(cue_off=250.0, input_off=350.0,
                           end_cue_on=1350.0, end_cue_off=1600.0,
                           t_stop=t_stop)
    params = CircuitParams(capacitance=1.0, g_leak_soma=1.0,
                           r_apical=10.0, r_basal=1.0, g_leak_gain=1.0)
    t_settle = timing.input_off + 200.0

    w = center_surround(8)
    encoder = eigen_encoder(w, 2)
    rate_spec = _memory_spec(w, encoder)
    encode_scale = _calibrate_encode_scale(params, timing, dt_circuit, t_settle)
    circuit_spec = rate_spec.replace(w_zx=rate_spec.w_zx * encode_scale)

    # During encoding the dendritic cable divides the drive by the somatic
    # conductance, so the circuit plateau sits above the rate plateau by a
    # predictable factor of the calibrated scale.
    h = 1.0 / (1.0 + params.g_leak_gain)
    g_v = float(total_conductance(params, h, h))
    plateau_ratio = encode_scale * (h / (1.0 + h)) / (g_v - 1.0 / (1.0 + h))

    pulses = _memory_pulses(2, _UNIT_TARGET_2D, timing)

    dt_rate = 0.1
    rate_traj = simulate(rate_spec, pulse_series(4, pulses, 0.0, t_stop, dt_rate),
                         0.0, t_stop, dt_rate)
    circ_traj = simulate_circuit(
        circuit_spec, params, pulse_series(4, pulses, 0.0, t_stop, dt_circuit),
        0.0, t_stop, dt_circuit,
        record_stride=grid_stride(steps_in_span(t_stop, dt_circuit), dt_circuit))

    def rate_gap(win, scale=1.0):
        # The rate run's samples at the circuit's recorded times.
        rate_y = rate_traj.y[rate_traj.sample_index(circ_traj.times[win])].real
        return float(np.abs(circ_traj.y_net[win] / scale - rate_y).max())

    def delay(win):
        err = rate_gap(win)
        return err < 1e-3, (f"max |y_net - y| = {err:.3e} during the delay "
                            f"(tol 1e-3)")

    def plateau(win):
        err = rate_gap(win, scale=plateau_ratio)
        return err < 5e-3, (f"max |y_net/{plateau_ratio:.4f} - y| = {err:.3e} "
                            f"late in the cue period (tol 5e-3)")

    def gain(win):
        level = float(circ_traj.a[win.start, 0])
        return abs(level - h) < 1e-3, (f"thalamic a = {level:.5f} under a unit "
                                       f"cue (expected {h:g})")

    def reset(win):
        resid = float(np.abs(circ_traj.y_net[win]).max())
        return resid < 1e-3, (f"max |y_net| = {resid:.3e} from 20 tau after "
                              f"the end cue (tol 1e-3)")

    checks = [
        _check("circuit matches rate model through the delay", circ_traj,
               t_settle, timing.end_cue_on, "delay window", delay),
        _check("encoding plateau sits at the predicted level", circ_traj,
               timing.cue_off - 20.0, timing.cue_off - 1.0, "encoding window",
               plateau),
        _check("gain units saturate at the conductance ratio", circ_traj,
               200.0, 200.0, "gain sample", gain),
        _check("circuit resets", circ_traj, timing.end_cue_on + 200.0,
               circ_traj.times[-1], "reset window", reset),
    ]

    return circ_traj, checks, {
        "rate_spec": rate_spec, "circuit_spec": circuit_spec, "params": params,
        "rate_trajectory": rate_traj, "encode_scale": encode_scale,
        "plateau_ratio": plateau_ratio, "timing": timing}


# ---------------------------------------------------------------------------
# fig10: frequency-bank extrapolation


_FIG10_FREQS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0)


def _build_fig10(ov: Overrides) -> _Built:
    dt, horizon = ov.dt, ov.duration
    reset_at = 2500.0

    pspec = PredictorSpec(freqs_hz=_FIG10_FREQS, tau_y=10.0)
    schedule = ModulatorSchedule(segments=(
        (-3000.0, 0.01, 0.01),
        (0.0, 0.0, 0.0),
        (min(reset_at, horizon), 1.0, 0.0),
    ))
    n_past = steps_in_span(3000.0, dt)
    t_past = -3000.0 + dt * np.arange(n_past)
    x_past = (np.sin(2.0 * np.pi * 0.002 * t_past)
              + np.sin(2.0 * np.pi * 0.008 * t_past))
    result = predict_series(pspec, x_past, schedule, horizon, dt)

    def carries_tones(win):
        seg = result.readout[win][1:]       # the samples after t = 0
        spectrum = np.abs(np.fft.rfft(seg - seg.mean()))
        spectrum[0] = 0.0
        freqs = np.fft.rfftfreq(len(seg), d=dt / 1000.0)
        top2 = freqs[np.argsort(spectrum)[-2:]]
        bin_hz = freqs[1]
        ok = (min(abs(top2 - 2.0)) <= bin_hz) and (min(abs(top2 - 8.0)) <= bin_hz)
        return bool(ok), (
            f"top spectral peaks at {sorted(round(float(f), 3) for f in top2)} Hz "
            f"(expected 2 and 8, bin {bin_hz:.3f} Hz)")

    def conserves(win):
        mags = np.abs(result.y[win])
        dev = float(np.abs(mags - mags[0]).max())
        rate_per_s = dev / ((reset_at - 0.0) / 1000.0)
        return rate_per_s <= 1e-4, (
            f"max magnitude drift {dev:.3e} over {reset_at/1000:.1f} s "
            f"({rate_per_s:.2e}/s, tol 1e-4/s)")

    def damps(win):
        resid = float(np.abs(result.y[win]).max())
        return resid < 1e-3, (f"max |y| = {resid:.3e} from 20 tau after the "
                              f"gain step (tol 1e-3)")

    checks = [
        _check("continuation carries both tones", result, 0.0,
               min(1000.0, horizon), "continuation window", carries_tones),
        _check("free-run conserves channel magnitudes", result, 0.0, reset_at,
               "free-run window", conserves),
        _check("raised gain damps every channel", result,
               reset_at + 20.0 * pspec.tau_y, result.times[-1],
               "reset window", damps),
    ]

    return result, checks, {"pspec": pspec, "schedule": schedule,
                            "x_past": x_past}


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Preset:
    build: Callable[[Overrides], _Built]
    description: str
    defaults: dict      # keys: exactly the overrides the preset honours


# ``seed`` is honoured everywhere, as ``oscint sweep`` passes it to every
# preset; fig9 and fig10 keep their time constants fixed, so only the others
# take ``tau_scale`` (``_SCALED``), and only fig7 takes ``tau_y``.
_SCALED = {"seed": None, "tau_scale": 1.0}

_PRESETS: dict[str, _Preset] = {
    "fig2": _Preset(
        _build_fig2,
        "8-unit ring stores a 2-d cue across a 2 s delay, then resets",
        dict(_SCALED, dt=1.0, duration=3300.0)),
    "fig3": _Preset(
        _build_fig3,
        "delay-memory trial recovered by whole-trajectory energy descent",
        dict(_SCALED, dt=1.0, duration=3300.0)),
    "fig4": _Preset(
        _build_fig4,
        "two stored maps remapped across two movements by gain-gated "
        "discharge pulses",
        dict(_SCALED, dt=1.0, duration=3100.0)),
    "fig5": _Preset(
        _build_fig5,
        "100-unit shift ring holds a rotating 2-d pattern (~1 Hz traveling wave)",
        dict(_SCALED, dt=0.02, duration=3200.0)),
    "fig6": _Preset(
        _build_fig6,
        "random 100-unit network holds a 10-d pattern as slowly rotating "
        "mode amplitudes",
        dict(_SCALED, dt=0.1, duration=3500.0, seed=_FIG6_SEED)),
    "fig7": _Preset(
        _build_fig7,
        "excitatory/inhibitory pair: oscillation frequency and stability set "
        "purely by the two time constants",
        dict(_SCALED, dt=0.1, duration=3200.0, tau_y=(10.0, 12.5))),
    "fig8": _Preset(
        _build_fig8,
        "two eigenmode drives stored simultaneously: the combined response is "
        "the exact sum of the separate ones",
        dict(_SCALED, dt=0.5, duration=3200.0, seed=_FIG6_SEED)),
    "fig9": _Preset(
        _build_fig9,
        "three-compartment ON/OFF circuit reproduces the rate-model memory trial",
        dict(dt=0.01, duration=1600.0, seed=None)),
    "fig10": _Preset(
        _build_fig10,
        "six-frequency bank locks onto a two-tone signal and extrapolates it "
        "after input stops",
        dict(dt=0.1, duration=3000.0, seed=None)),
}

SCENARIO_NAMES = tuple(_PRESETS)


def run_scenario(name: str, **overrides) -> ScenarioResult:
    """Execute a preset and return its trajectory plus assertion outcomes.

    ``overrides`` accepts dt, duration, seed, tau_scale and (fig7) tau_y;
    None leaves the preset's default.  Check failures are reported in the
    result, never raised.  An unknown scenario name, or an override the
    preset would ignore (tau_scale on fig9 and fig10, tau_y anywhere but
    fig7), raises ValueError, as does a tau_scale that is not a positive
    finite number; an unknown override raises TypeError.

    The preset runs with NumPy's OpenBLAS on one thread: at the presets'
    sizes (at most 100 units, 512-step blocks) a second thread only
    spin-waits between calls, and one thread keeps the results independent
    of the host's thread count.  That setting is process-wide while the
    preset runs and the caller's is restored afterwards; direct library
    calls (``simulate``, ``batch.solve``, ...) keep the caller's.
    """
    preset = _PRESETS.get(name)
    if preset is None:
        raise ValueError(
            f"unknown scenario {name!r}; available: {', '.join(SCENARIO_NAMES)}"
        )
    # Every given name reaches Overrides, so an unknown one raises TypeError
    # whatever its value.
    ov = Overrides(**preset.defaults | {
        key: preset.defaults.get(key) if value is None else value
        for key, value in overrides.items()})
    ignored = sorted(key for key, value in overrides.items()
                     if value is not None and key not in preset.defaults)
    if ignored:
        raise ValueError(f"{name} does not use the override(s) "
                         f"{', '.join(ignored)}")
    tau_scale = overrides.get("tau_scale")
    if tau_scale is not None and not (np.isfinite(tau_scale) and tau_scale > 0):
        raise ValueError(f"tau_scale must be positive and finite, "
                         f"got {tau_scale!r}")
    with _blas_threads(1):
        built = preset.build(ov)
    return ScenarioResult(name, preset.description, *built)
