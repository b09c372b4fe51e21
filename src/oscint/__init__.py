"""Gated recurrent integrator networks.

Complex-valued recurrent rate networks whose feedforward and recurrent
pathways are gated by two rectified gain populations.  With the gains shut
off the network is a linear system that can hold, rotate or replay patterns
in the sustained subspace of its recurrent matrix; raising the gains encodes
new input or wipes the state.  The package covers the incremental simulator,
a whole-trajectory energy solver, spectral analysis tools, weight
constructors, a conductance-circuit realization, a frequency-bank
extrapolator, and self-checking demonstration scenarios with a CLI.
"""

from .batch import (
    BatchDivergenceError,
    BatchProblem,
    BatchResult,
    ForwardOutputs,
    backward_pass,
    fixed_point,
    forward_pass,
    solve,
    trajectory_from_result,
)
from .circuit import (
    CircuitParams,
    CircuitState,
    CircuitTrajectory,
    pfc_step,
    simulate_circuit,
    split_signed,
    steady_state_vs,
    thalamic_step,
    total_conductance,
)
from .config import load_spec, save_spec, spec_from_dict, spec_to_dict
from .dynamics import simulate, step
from .model import (
    DivergenceError,
    NetworkSpec,
    SimState,
    Trajectory,
    energy,
    input_drive,
    mismatch_gain,
    readout_series,
    recurrent_drive,
    rectify,
)
from .predict import (
    ModulatorSchedule,
    PredictionResult,
    PredictorSpec,
    prediction_step,
    predict_series,
)
from .scenarios import (
    AssertionOutcome,
    Overrides,
    Pulse,
    SCENARIO_NAMES,
    ScenarioResult,
    double_step_loop,
    pulse_series,
    run_scenario,
)
from .spectral import (
    DECAYING,
    STABLE_OSCILLATION,
    SUSTAINED,
    UNSTABLE,
    SpectralReport,
    analyze,
    classify_stability,
    dominant_frequency,
    effective_matrix,
    magnitude_readout,
    oscillation_frequencies,
    sustained_dimensionality,
)
from .weights import (
    SpectrumRequest,
    center_surround,
    diagonal_oscillators,
    ei_pair,
    eigen_encoder,
    random_spectral,
    rescale_spectrum,
    synfire,
)

__version__ = "0.1.0"

__all__ = [
    "AssertionOutcome",
    "BatchDivergenceError",
    "BatchProblem",
    "BatchResult",
    "CircuitParams",
    "CircuitState",
    "CircuitTrajectory",
    "DECAYING",
    "DivergenceError",
    "ForwardOutputs",
    "ModulatorSchedule",
    "NetworkSpec",
    "Overrides",
    "PredictionResult",
    "PredictorSpec",
    "Pulse",
    "SCENARIO_NAMES",
    "STABLE_OSCILLATION",
    "SUSTAINED",
    "ScenarioResult",
    "SimState",
    "SpectralReport",
    "SpectrumRequest",
    "Trajectory",
    "UNSTABLE",
    "analyze",
    "backward_pass",
    "center_surround",
    "classify_stability",
    "diagonal_oscillators",
    "dominant_frequency",
    "double_step_loop",
    "effective_matrix",
    "ei_pair",
    "eigen_encoder",
    "energy",
    "fixed_point",
    "forward_pass",
    "input_drive",
    "load_spec",
    "magnitude_readout",
    "mismatch_gain",
    "oscillation_frequencies",
    "pfc_step",
    "predict_series",
    "prediction_step",
    "pulse_series",
    "random_spectral",
    "readout_series",
    "recurrent_drive",
    "rectify",
    "rescale_spectrum",
    "run_scenario",
    "save_spec",
    "simulate",
    "simulate_circuit",
    "solve",
    "spec_from_dict",
    "spec_to_dict",
    "split_signed",
    "steady_state_vs",
    "step",
    "sustained_dimensionality",
    "synfire",
    "thalamic_step",
    "total_conductance",
    "trajectory_from_result",
]
