"""Conductance-based circuit realization of the gated integrator.

Each model neuron becomes an ON/OFF pair of three-compartment cells (soma,
apical dendrite, basal dendrite), and each gain becomes a single-compartment
unit whose membrane potential tracks a ratio of synaptic conductances.
Signals are carried by firing rates, which are rectified potentials, so every
signed quantity is split across the pair: the ON cell carries the positive
part and the OFF cell the negative part.  Each compartment's potentials are
held as one (2, N) stack, the ON row over the OFF row.

Signed synaptic weights split the same way — positive entries excite, the
magnitudes of negative entries drive the opposing conductance — giving the
exact identities

    g_e - g_i = W x + c,        g_e + g_i = |W| |x| + |c|

for any signed weights, inputs and offsets.  The steps use them directly:
each drive is formed once from the signed sources and reaches the stack
through the sign column [+1, -1].

Wiring per cell (ON side; OFF side negates every signed source):

* soma: leak ``g_vs``, feedforward current ``+z``, coupling currents from
  both dendrites through the axial resistances;
* apical dendrite: recurrent current ``+yhat``, leak ``a+/R_a`` set by the
  a-gain unit, axial coupling to the soma;
* basal dendrite: feedforward current ``-z``, leak ``b+/R_b`` set by the
  b-gain unit, axial coupling to the soma.

Dendritic potentials relax instantaneously in the model's derivation; here
they are integrated explicitly with a small time step.  Only real-valued
networks can be realized (rates are real).

:func:`simulate_circuit` takes one of two paths through the same Euler
steps.  When the gains do not read the response (``w_ay = w_by = 0``, true
of fig9 and its calibration probe) the gain units hear only the input, so
the run goes in blocks of ``_BLOCK`` steps: for each block's rows of the
input series, z and both populations' g_e - g_i and g_e + g_i are one matmul
each, the gain units advance over the block (one column per population when
every neuron shares its gains), and a loop advances only the (3, 2N)
compartment stack [v; va; vb], one W_yy matvec per step.  A block whose
per-step coefficients (the dendritic leaks and the drives ±s z) are equal
bit for bit across its rows is one affine map of the stack while the somas
keep their signs; it is filled from powers of that map by prefix doubling,
and re-run through the loop when a computed soma leaves the first row's sign
pattern or a row is non-finite.  Through fig9's delay and after its reset
most blocks go this way.  Specs whose gains read y take one
:func:`thalamic_step` and one :func:`pfc_step` per step; that loop is also
the reference the block path is tested against.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Optional

import numpy as np

from .model import (
    _BLOCK,
    NetworkSpec,
    SampledRecord,
    _coerce,
    _positive,
    _whole,
    check_finite,
    first_order,
    rectify,
    steps_in_span,
)


@dataclass(frozen=True)
class CircuitParams:
    """Biophysical constants shared by every cell in the circuit.

    Potentials are normalized: leak reversal 0, excitatory reversal +1,
    inhibitory reversal -1.  Resistances couple dendrites to the soma;
    ``g_leak_gain`` is the leak of the single-compartment gain units.
    """

    capacitance: float = 1.0
    g_leak_soma: float = 1.0
    r_apical: float = 10.0
    r_basal: float = 1.0
    g_leak_gain: float = 1.0

    def __post_init__(self) -> None:
        if not all(np.isfinite(value) and value > 0 for value in astuple(self)):
            raise ValueError("capacitance, leaks and resistances must be finite "
                             "and positive")


@dataclass
class CircuitState:
    """Compartment potentials as (2, N) ON/OFF stacks, plus the gain units."""

    v: np.ndarray           # (2, N) soma
    va: np.ndarray          # (2, N) apical dendrite
    vb: np.ndarray          # (2, N) basal dendrite
    a: np.ndarray           # (N,) a-gain unit potentials
    b: np.ndarray           # (N,) b-gain unit potentials
    t: float = 0.0

    @classmethod
    def zeros(cls, n: int, t: float = 0.0) -> "CircuitState":
        return cls(*(np.zeros((2, n)) for _ in range(3)), np.zeros(n), np.zeros(n), t=t)

    @property
    def y_net(self) -> np.ndarray:
        """Signed response carried by the pair: rate(ON) - rate(OFF)."""
        y = rectify(self.v)
        return y[0] - y[1]


_ON_OFF = np.array([[1.0], [-1.0]])


def split_signed(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a signed array into its rectified positive and negative parts."""
    v = np.asarray(values)
    return rectify(v), rectify(-v)


def total_conductance(
    params: CircuitParams, a_plus: np.ndarray, b_plus: np.ndarray
) -> np.ndarray:
    """Effective somatic conductance with both dendrites attached.

    g_v = g_vs + a+/(R_a (1+a+)) + b+/(R_b (1+b+)); each dendritic term
    saturates at 1/R as its gain grows, and vanishes when the gain is zero.
    """
    a_plus = np.asarray(a_plus, dtype=np.float64)
    b_plus = np.asarray(b_plus, dtype=np.float64)
    return (
        params.g_leak_soma
        + a_plus / (params.r_apical * (1.0 + a_plus))
        + b_plus / (params.r_basal * (1.0 + b_plus))
    )


def steady_state_vs(
    params: CircuitParams,
    z: np.ndarray,
    yhat: np.ndarray,
    a_plus: np.ndarray,
    b_plus: np.ndarray,
) -> np.ndarray:
    """Somatic potential once all compartments equilibrate.

    v_s = [ (b+/(1+b+)) z + yhat/(1+a+) ] / g_v.  Matches the rate model's
    per-step target exactly when g_v = 1.
    """
    g_v = total_conductance(params, a_plus, b_plus)
    beta = b_plus / (1.0 + b_plus)
    return (beta * np.asarray(z) + np.asarray(yhat) / (1.0 + a_plus)) / g_v


def thalamic_step(
    spec: NetworkSpec,
    params: CircuitParams,
    state: CircuitState,
    x: np.ndarray,
    y_plus: np.ndarray,
    y_minus: np.ndarray,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance the two gain-unit populations by one step.

    Each unit's potential follows C dv/dt = -(g_e + g_i + g_l) v + g_e - g_i.
    Under the signed-weight split of the signed input ``x`` and the ON/OFF
    rates, g_e - g_i = W_x x + W_y (y+ - y-) + c and
    g_e + g_i = |W_x| |x| + |W_y| (y+ + y-) + |c|.  Returns the new (a, b).
    """
    _positive(dt, "dt")
    x = np.asarray(x)
    x_abs = np.abs(x)
    y_net = y_plus - y_minus
    y_sum = y_plus + y_minus

    def advance(v, w_x, w_y, c):
        g_diff = w_x @ x + w_y @ y_net + c
        g_sum = np.abs(w_x) @ x_abs + np.abs(w_y) @ y_sum + np.abs(c)
        g = g_sum + params.g_leak_gain
        return v + (dt / params.capacitance) * (-g * v + g_diff)

    return (advance(state.a, spec.w_ax, spec.w_ay, spec.c_a),
            advance(state.b, spec.w_bx, spec.w_by, spec.c_b))


def _require_real(spec: NetworkSpec) -> None:
    """Rates are real: ValueError for an imaginary part in any field a step reads."""
    if any(np.any(getattr(spec, f).imag) for f in ("w_zx", "w_yy", "c_z", "c_yhat")):
        raise ValueError("circuit realization requires a real-valued network")


def pfc_step(
    spec: NetworkSpec,
    params: CircuitParams,
    state: CircuitState,
    x: np.ndarray,
    dt: float,
) -> CircuitState:
    """Advance every ON/OFF three-compartment cell by one step.

    ``x`` is the signed input.  Gain potentials pass through unchanged: the
    gain-unit update lives in :func:`thalamic_step` and both read the same
    pre-step state, keeping the whole circuit synchronous.
    """
    _positive(dt, "dt")
    _require_real(spec)
    scale = dt / params.capacitance
    g_va = rectify(state.a) / params.r_apical
    g_vb = rectify(state.b) / params.r_basal
    y = rectify(state.v)

    # Each drive is formed once and reaches the ON row as is, the OFF row
    # negated.  Soma: +z; apical dendrite: +yhat; basal dendrite: -z.
    z = _ON_OFF * (spec.w_zx.real @ np.asarray(x) + spec.c_z.real)
    yhat = _ON_OFF * (spec.w_yy.real @ (y[0] - y[1]) + spec.c_yhat.real)
    v, va, vb = state.v, state.va, state.vb
    i_as = (va - v) / params.r_apical
    i_bs = (vb - v) / params.r_basal
    return CircuitState(
        v=v + scale * (-params.g_leak_soma * v + z + i_as + i_bs),
        va=va + scale * (-g_va * va + yhat - i_as),
        vb=vb + scale * (-g_vb * vb - z - i_bs),
        a=state.a.copy(), b=state.b.copy(), t=state.t + dt,
    )


@dataclass
class CircuitTrajectory(SampledRecord):
    """Recorded circuit run; one row per recorded sample, ``dt`` apart."""

    v: np.ndarray           # (T, 2, N) soma, ON row then OFF row
    va: np.ndarray          # (T, 2, N) apical dendrite
    vb: np.ndarray          # (T, 2, N) basal dendrite
    a: np.ndarray           # (T, N)
    b: np.ndarray           # (T, N)
    map_blocks: int = 0     # blocks advanced by one affine map's powers

    @property
    def y_net(self) -> np.ndarray:
        y = rectify(self.v)
        return y[:, 0] - y[:, 1]


_STATE_FIELDS = ("v", "va", "vb", "a", "b")


def simulate_circuit(
    spec: NetworkSpec,
    params: CircuitParams,
    x: np.ndarray,
    t_start: float,
    t_stop: float,
    dt: float = 0.01,
    init: Optional[CircuitState] = None,
    record_stride: int = 1,
) -> CircuitTrajectory:
    """Integrate the full circuit, recording every ``record_stride``-th step.

    ``x`` is a real input series sampled as :func:`oscint.dynamics.simulate`
    takes it, row ``i`` at ``t_start + i*dt``; row ``i`` drives the step from
    sample ``i``, so the last row is unused.  It and the ``init`` fields
    pass :func:`oscint.model._coerce`, as real arrays.

    Gain units and compartment cells advance synchronously from the same
    pre-step state.  The compartment coupling is stiff (axial conductances up
    to 1/R_b per unit capacitance), hence the small default step.

    When ``w_ay`` and ``w_by`` are zero the run advances in blocks of
    ``_BLOCK`` steps (see the module docstring); otherwise it takes one
    :func:`thalamic_step` and one :func:`pfc_step` per step.  The two paths
    agree to rounding; ``map_blocks`` on the record counts the blocks
    advanced by powers of one affine map (0 on the step loop).  Complex
    ``w_zx``, ``w_yy``, ``c_z`` or ``c_yhat``, a bad ``dt`` or
    ``record_stride`` (each with its own message), ``x`` or ``init``, raise
    ValueError before any step.  A non-finite state raises
    :class:`DivergenceError` naming the time of the first non-finite sample:
    the block path checks once per block, the step loop after every step.
    """
    _positive(dt, "dt")
    record_stride = _whole(record_stride, "record_stride", 1)
    _require_real(spec)
    n_steps = steps_in_span(t_stop - t_start, dt)
    if n_steps % record_stride != 0:
        raise ValueError("record_stride must divide the step count")
    n_rec = n_steps // record_stride + 1
    x = _coerce(x, (n_steps + 1, spec.n_inputs), np.float64, "x")

    n = spec.n_neurons
    rec = {}
    for name in _STATE_FIELDS:
        shape = (n,) if name in ("a", "b") else (2, n)
        rec[name] = np.zeros((n_rec,) + shape)
        if init is not None:
            rec[name][0] = _coerce(getattr(init, name), shape, np.float64,
                                   f"init.{name}")

    times = t_start + dt * record_stride * np.arange(n_rec)
    traj = CircuitTrajectory(dt=dt * record_stride, times=times, **rec)
    if spec._w_ay_zero and spec._w_by_zero:
        traj.map_blocks = _advance_blocks(spec, params, x, traj, dt,
                                          record_stride)
    else:
        _advance_steps(spec, params, x, traj, dt, record_stride)
    return traj


def _advance_steps(spec: NetworkSpec, params: CircuitParams, xs: np.ndarray,
                   traj: CircuitTrajectory, dt: float, stride: int) -> None:
    """Fill ``traj`` past its first sample with one :func:`thalamic_step`
    and one :func:`pfc_step` per step."""
    state = CircuitState(*(getattr(traj, name)[0] for name in _STATE_FIELDS),
                         t=float(traj.times[0]))
    for i, x in enumerate(xs[:-1]):
        y = rectify(state.v)
        a_new, b_new = thalamic_step(spec, params, state, x, y[0], y[1], dt)
        state = pfc_step(spec, params, state, x, dt)
        state.a, state.b = a_new, b_new
        check_finite([traj.times[0] + (i + 1) * dt],
                     *(getattr(state, f) for f in _STATE_FIELDS),
                     what="circuit state")
        if (i + 1) % stride == 0:
            for name in _STATE_FIELDS:
                getattr(traj, name)[(i + 1) // stride] = getattr(state, name)


def _advance_blocks(spec: NetworkSpec, params: CircuitParams, xs: np.ndarray,
                    traj: CircuitTrajectory, dt: float, stride: int) -> int:
    """Fill ``traj`` past its first sample, ``_BLOCK`` steps at a time, and
    return the number of blocks advanced by :func:`_advance_by_map`.

    Valid only when the gains do not read y.  With s = dt/C, block ``[s0, e)``
    reads input rows s0..e-1, then:

    * the gain units, stacked [a; b] as 2N-vectors, follow
      ``g[i+1] = (1 - s (G_sum[i] + g_leak)) g[i] + s G_diff[i]``, where
      G_diff = X W_gᵀ + c_g and G_sum = |X| |W_g|ᵀ + |c_g| are one matmul
      each over the block (the recursion is :func:`oscint.model.first_order`).
      When :meth:`~oscint.model.NetworkSpec.gain_columns` gives one column
      (shared gains, and the initial a and b each constant), one column per
      population is stepped and repeated across the neurons;
    * their rectified values give each step's dendritic leaks
      rect(a)/R_a and rect(b)/R_b;
    * the (3, 2N) compartment stack [v; va; vb] (ON half, then OFF half)
      follows ``S[i+1] = K S[i] + D[i] * S[i] + F[i]`` plus the recurrent
      current s W_yy (y+ - y-) into the apical rows with the ON/OFF sign.
      K is the constant axial coupling between the compartments, D[i] the
      per-step diagonal (leaks included) and F[i] the drives ±s z and
      ±s c_yhat.

    A block qualifies when its D and F rows are equal bit for bit: a held
    input, with the leaks either zero or too small to move ``keep - leak``.
    While the somas keep their signs such a block is one affine map, and
    :func:`_advance_by_map` fills it from powers of that map.  The rule
    reads the coefficients, not the gains: after a cue the gains take
    hundreds of ms to reach their bitwise fixed point, long after rect(g)/R
    has fallen below half an ulp of ``keep``.  When a computed soma of rows
    0..k-1 leaves the first row's sign pattern or a row is non-finite, the
    block is re-run by the per-step loop, which advances every other block
    too.  That loop stays the reference and the fallback: it rounds as one
    step does, needs no sign pattern, and names a divergence at its own
    step.

    Every step of a block is held in the block's buffers, so one finiteness
    check per block names the first non-finite sample; only the rows
    ``stride`` selects are copied into ``traj``.  The last step of a block
    starts the next.
    """
    n = spec.n_neurons
    n_steps = len(xs) - 1
    s = dt / params.capacitance
    ga, gb = 1.0 / params.r_apical, 1.0 / params.r_basal

    cols = spec.gain_columns(traj.a[0], traj.b[0])
    w_g = np.vstack([spec.w_ax[:cols], spec.w_bx[:cols]])
    c_g = np.concatenate([spec.c_a[:cols], spec.c_b[:cols]])
    w_g_abs, c_g_abs = np.abs(w_g), np.abs(c_g)
    w_z, c_z = spec.w_zx.real, spec.c_z.real
    # The recurrent current s W_yy (y+ - y-) on the ON half of the apical
    # row and its negative on the OFF half, as one matrix on rect(v).
    w_rec = s * np.kron(_ON_OFF @ _ON_OFF.T, spec.w_yy.real)
    coupling = s * np.array([[0.0, ga, gb], [ga, 0.0, 0.0], [gb, 0.0, 0.0]])
    keep = 1.0 - s * np.array([params.g_leak_soma + ga + gb, ga, gb])
    leak = s * np.repeat([ga, gb], n)
    c_yhat = (s * _ON_OFF * spec.c_yhat.real).ravel()
    axial = np.kron(coupling, np.eye(2 * n))

    gains_end = np.concatenate([traj.a[0, :cols], traj.b[0, :cols]])
    cells = np.empty((_BLOCK + 1, 3, 2 * n))
    cells[0] = np.stack([traj.v[0], traj.va[0], traj.vb[0]]).reshape(3, 2 * n)
    diag = np.empty((_BLOCK, 3, 2 * n))
    diag[:, 0] = keep[0]
    drive = np.empty((_BLOCK, 3, 2 * n))
    drive[:, 1] = c_yhat
    product = np.empty((3, 2 * n))
    rates = np.empty(2 * n)
    mapped = 0
    for s0 in range(0, n_steps, _BLOCK):
        e = min(s0 + _BLOCK, n_steps)
        k = e - s0
        x = xs[s0:e]

        # Past a blow-up the block runs on to its end; the check below
        # reports it, so the overflow warnings would only repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            decay = 1.0 - s * (np.abs(x) @ w_g_abs.T + c_g_abs
                               + params.g_leak_gain)
            stepped = first_order(decay, s * (x @ w_g.T + c_g), gains_end)
            gains = np.repeat(stepped, n // cols, axis=1)

            leaks = leak * rectify(gains[:k])
            diag[:k, 1, :n] = diag[:k, 1, n:] = keep[1] - leaks[:, :n]
            diag[:k, 2, :n] = diag[:k, 2, n:] = keep[2] - leaks[:, n:]
            sz = s * (x @ w_z.T + c_z)
            drive[:k, 0, :n] = drive[:k, 2, n:] = sz
            drive[:k, 0, n:] = drive[:k, 2, :n] = -sz
            constant = ((diag[1:k, 1:] == diag[0, 1:]).all()
                        and (sz[1:] == sz[0]).all())
            if constant and _advance_by_map(cells, k, axial, w_rec, diag[0],
                                            drive[0]):
                mapped += 1
            else:
                for c, c_next, dg, f in zip(cells, cells[1:k + 1], diag,
                                            drive):
                    np.dot(coupling, c, out=c_next)
                    np.multiply(dg, c, out=product)
                    c_next += product
                    c_next += f
                    np.maximum(c[0], 0.0, out=rates)
                    c_next[1] += w_rec.dot(rates)

        check_finite(traj.times[0] + dt * np.arange(s0 + 1, e + 1),
                     gains[1:k + 1], cells[1:k + 1], what="circuit state")

        # Recorded steps in (s0, e]: the multiples of the stride.
        lo = -(-(s0 + 1) // stride)
        hi = e // stride + 1
        rows = slice(lo * stride - s0, k + 1, stride)
        traj.a[lo:hi] = gains[rows, :n]
        traj.b[lo:hi] = gains[rows, n:]
        compartments = cells[rows].reshape(-1, 3, 2, n)
        traj.v[lo:hi] = compartments[:, 0]
        traj.va[lo:hi] = compartments[:, 1]
        traj.vb[lo:hi] = compartments[:, 2]
        gains_end = stepped[k]
        cells[0] = cells[k]
    return mapped


def _advance_by_map(cells: np.ndarray, k: int, axial: np.ndarray,
                    w_rec: np.ndarray, diag: np.ndarray,
                    drive: np.ndarray) -> bool:
    """Fill ``cells[1:k+1]`` from ``cells[0]`` by one affine map, or return
    False and leave them as they were.

    With the soma sign pattern of ``cells[0]`` held, rect(v) is a fixed
    diagonal mask, so one step of the stack is ``S -> M S`` on the augmented
    vector [S; 1] with the (6N+1)² matrix M = [[K + D + R, F], [0, 1]]: the
    axial coupling ``axial``, the diagonal ``diag``, the recurrent block R
    (``w_rec`` on the positive somas) and the drives ``drive``.  Rows
    [j, 2j) of the block are rows [0, j) times (Mʲ)ᵀ (prefix doubling), for
    j = 1, 2, 4, ..., 512, with each Mʲ squared from the last.  The map
    holds only while the somas keep that pattern, so the result is turned
    down when any of rows 0..k-1 leaves it or any row is non-finite.
    """
    m = axial.shape[0]
    two_n = w_rec.shape[0]
    on = cells[0, 0] > 0.0
    step = np.zeros((m + 1, m + 1))
    step[:m, :m] = axial + np.diag(diag.ravel())
    step[two_n:2 * two_n, :two_n] += w_rec * on
    step[:m, m] = drive.ravel()
    step[m, m] = 1.0
    rows = np.empty((k + 1, m + 1))
    rows[0, :m] = cells[0].ravel()
    rows[0, m] = 1.0
    power = step.T
    j = 1
    while j <= k:
        hi = min(2 * j, k + 1)
        np.matmul(rows[:hi - j], power, out=rows[j:hi])
        j *= 2
        if j <= k:
            power = power @ power
    if not (np.isfinite(rows).all()
            and ((rows[1:k, :two_n] > 0.0) == on).all()):
        return False
    cells[1:k + 1] = rows[1:, :m].reshape(k, 3, two_n)
    return True
