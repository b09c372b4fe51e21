"""Input series for the engine tests, sampled from per-time callbacks."""

import numpy as np

from oscint.model import sample_times


def sampled(input_fn, t_start, t_stop, dt):
    """``input_fn(t)`` at every sample time from ``t_start`` to ``t_stop``:
    the input series :func:`oscint.simulate` and
    :func:`oscint.simulate_circuit` take."""
    return np.array([input_fn(t) for t in sample_times(t_start, t_stop, dt)])
