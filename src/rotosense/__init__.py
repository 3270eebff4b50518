"""Rotation sensing with second-order anti-coherent polarization states."""

from .bell_analysis import (
    BELL_STATES,
    bell_decompose,
    bell_measurement,
    singlet_weight,
    verify_tabulated_decompositions,
)
from .circuit_sim import (
    Circuit,
    Gate,
    analyzer_distinguishability_report,
    balanced_n6_prep_circuit,
    bell_analyzer_circuit,
    fidelity,
    gate_matrix,
    prep_circuit_report,
    run_circuit,
    tetra_prep_circuit,
)
from .estimation import (
    estimate_params,
    qcrb_experiment,
    sample_outcomes,
)
from .measurement import (
    Measurement,
    classical_fisher_matrix,
    exact_probabilities,
    multiparam_saturation_check,
    optimal_basis,
    small_angle_probabilities,
    sweep_probabilities,
)
from .metrology import (
    anticoherence_report,
    generator_coeffs,
    j_expectations,
    qfi_matrix,
    rotated_frame,
)
from .spin_core import (
    RotationParams,
    SpinState,
    axis_from_angles,
    dicke_to_qubit,
    rotated_amplitudes,
    spin_operators,
)
from .states import balance, get_state, tetra1, tetra2

__version__ = "0.1.0"
