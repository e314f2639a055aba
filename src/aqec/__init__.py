"""Transpose-channel recovery and approximate quantum error correction.

Construct the transpose-channel recovery map for arbitrary subspace codes
under Kraus-specified noise, check perfect and approximate correction
conditions, and compute worst-case recovery fidelities (exactly for qubit
codes, by sampling otherwise).
"""

__version__ = "0.1.0"

from .channels import (
    QuantumChannel,
    channel_from_json,
    channel_to_json,
    complete_to_tp,
    tensor_power,
)
from .codes import (
    CodeSpace,
    code_from_json,
    code_to_json,
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
from .linalg import inv_sqrt_on_support, polar_unitary_on_support
from .models import (
    amplitude_damping,
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
from .transpose import code_kraus, transpose_channel

__all__ = [
    "QuantumChannel", "channel_from_json", "channel_to_json", "complete_to_tp",
    "tensor_power",
    "CodeSpace", "code_from_json", "code_to_json", "random_code",
    "AqecDiagnostics", "NearOptimalityReport", "PerfectQecCertificate", "Verdict",
    "alternate_condition_residual", "aqec_diagnostics", "build_r_perf",
    "check_perfect_qec", "near_optimality_bound_check", "near_optimality_factor",
    "WorstCaseResult", "transpose_fidelity_grid", "worst_case_fidelity",
    "inv_sqrt_on_support", "polar_unitary_on_support",
    "amplitude_damping", "example5_channel", "example5_eta_formula",
    "five_qubit_code_only", "five_qubit_noise", "five_qubit_recovery",
    "leung_code", "leung_recovery", "qubit_space", "truncated_damping_channel",
    "code_kraus", "transpose_channel",
]
