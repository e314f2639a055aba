"""Transpose-channel recovery and approximate quantum error correction.

Construct the transpose-channel recovery map for arbitrary subspace codes
under Kraus-specified noise, check perfect and approximate correction
conditions, and compute worst-case recovery fidelities (exactly for qubit
codes, by sampling otherwise).
"""

__version__ = "0.1.0"

from .channels import (
    QuantumChannel,
    adjoint,
    channel_from_json,
    channel_to_json,
    channels_equal,
    choi,
    complete_to_tp,
    compose,
    identity_channel,
    minimal_kraus,
    restricted_tp_factor,
    tensor_power,
    tp_defect,
)
from .codes import (
    CodeSpace,
    bloch_state,
    bloch_to_state_vector,
    code_from_json,
    code_to_json,
    haar_unitary,
    random_code,
)
from .conditions import (
    AqecDiagnostics,
    NearOptimalityReport,
    PerfectQecCertificate,
    Verdict,
    alternate_condition_residual,
    aqec_diagnostics,
    build_r_perf,
    check_perfect_qec,
    near_optimality_bound_check,
    near_optimality_factor,
)
from .fidelity import WorstCaseResult, transpose_fidelity_grid, worst_case_fidelity
from .linalg import (
    hermitian_eig,
    inv_sqrt_on_support,
    polar_unitary_on_support,
)
from .models import (
    amplitude_damping,
    amplitude_damping_power,
    bit_flip_channel,
    bit_flip_code,
    example5_channel,
    example5_eta_formula,
    five_qubit_code_only,
    five_qubit_noise,
    five_qubit_recovery,
    leung_code,
    leung_recovery,
    qubit_space,
    truncated_damping_channel,
)
from .transpose import (
    TransposeRecovery,
    code_kraus,
    recovered_channel,
    transpose_channel,
)

__all__ = [
    "QuantumChannel", "adjoint", "channel_from_json",
    "channel_to_json", "channels_equal", "choi", "complete_to_tp", "compose",
    "identity_channel", "minimal_kraus", "restricted_tp_factor", "tensor_power",
    "tp_defect",
    "CodeSpace", "bloch_state", "bloch_to_state_vector", "code_from_json",
    "code_to_json", "haar_unitary", "random_code",
    "AqecDiagnostics", "NearOptimalityReport", "PerfectQecCertificate", "Verdict",
    "alternate_condition_residual", "aqec_diagnostics", "build_r_perf",
    "check_perfect_qec", "near_optimality_bound_check", "near_optimality_factor",
    "WorstCaseResult", "transpose_fidelity_grid", "worst_case_fidelity",
    "hermitian_eig", "inv_sqrt_on_support", "polar_unitary_on_support",
    "amplitude_damping", "amplitude_damping_power", "bit_flip_channel",
    "bit_flip_code", "example5_channel",
    "example5_eta_formula", "five_qubit_code_only",
    "five_qubit_noise", "five_qubit_recovery",
    "leung_code", "leung_recovery",
    "qubit_space", "truncated_damping_channel",
    "TransposeRecovery", "code_kraus", "recovered_channel", "transpose_channel",
]
