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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .model import (
    DivergenceError,
    NetworkSpec,
    SampledRecord,
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
    e_leak: float = 0.0
    e_exc: float = 1.0
    e_inh: float = -1.0

    def __post_init__(self) -> None:
        if min(self.capacitance, self.g_leak_soma, self.r_apical,
               self.r_basal, self.g_leak_gain) <= 0:
            raise ValueError("capacitance, leaks and resistances must be positive")


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
    if np.any(spec.w_zx.imag) or np.any(spec.w_yy.imag):
        raise ValueError("circuit realization requires a real-valued network")
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

    @property
    def y_net(self) -> np.ndarray:
        y = rectify(self.v)
        return y[:, 0] - y[:, 1]


_STATE_FIELDS = ("v", "va", "vb", "a", "b")


def simulate_circuit(
    spec: NetworkSpec,
    params: CircuitParams,
    input_fn: Callable[[float], np.ndarray],
    t_start: float,
    t_stop: float,
    dt: float = 0.01,
    init: Optional[CircuitState] = None,
    record_stride: int = 1,
) -> CircuitTrajectory:
    """Integrate the full circuit, recording every ``record_stride``-th step.

    Gain units and compartment cells advance synchronously from the same
    pre-step state.  The compartment coupling is stiff (axial conductances up
    to 1/R_b per unit capacitance), hence the small default step.
    """
    if dt <= 0 or record_stride < 1:
        raise ValueError("dt must be positive and record_stride >= 1")
    n_steps = steps_in_span(t_stop - t_start, dt)
    if n_steps % record_stride != 0:
        raise ValueError("record_stride must divide the step count")
    n_rec = n_steps // record_stride + 1

    n = spec.n_neurons
    state = init if init is not None else CircuitState.zeros(n, t=t_start)
    rec = {name: np.zeros((n_rec,) + getattr(state, name).shape)
           for name in _STATE_FIELDS}

    for i in range(n_steps + 1):
        if i % record_stride == 0:
            for name, arr in rec.items():
                arr[i // record_stride] = getattr(state, name)
        if i == n_steps:
            break
        t = t_start + i * dt
        x = np.asarray(input_fn(t))
        y = rectify(state.v)
        a_new, b_new = thalamic_step(spec, params, state, x, y[0], y[1], dt)
        state = pfc_step(spec, params, state, x, dt)
        state.a, state.b = a_new, b_new
        if i % 256 == 0 and not all(np.all(np.isfinite(getattr(state, f)))
                                    for f in rec):
            raise DivergenceError(f"non-finite circuit state at t = {t:.6g} ms")

    if not all(np.all(np.isfinite(arr)) for arr in rec.values()):
        raise DivergenceError("non-finite circuit state recorded")
    times = t_start + dt * record_stride * np.arange(n_rec)
    return CircuitTrajectory(dt=dt * record_stride, times=times, **rec)
