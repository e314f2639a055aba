"""Perfect and approximate error-correction conditions.

Perfect correction of a CP noise map {E_i} on a code with projector P is
equivalent to P E_i^dag E_j P = alpha_ij P for a Hermitian PSD matrix
alpha, and equivalently to P E_i^dag E(P)^(-1/2) E_j P = beta_ij P with
beta the principal square root of alpha.  When the conditions hold only
approximately, the deviations

    Delta_ij = P E_i^dag E(P)^(-1/2) E_j P - beta_ij P,
    beta_ij  = tr(P E_i^dag E(P)^(-1/2) E_j P) / d,

are traceless operators on the code whose size controls the worst-case
fidelity loss eta of the transpose-channel recovery:

    eta = max over pure code states of
          sum_ij [ <Delta_ij^dag Delta_ij> - |<Delta_ij>|^2 ],

with eta <= ||sum_ij Delta_ij^dag Delta_ij|| (operator norm).  A code is
epsilon-correctable if eta <= epsilon, and only if
eta <= epsilon * f(epsilon; d) with the near-optimality factor

    f(eta; d) = ((d + 1) - eta) / (1 + (d - 1) eta).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .channels import (
    QuantumChannel,
    restricted_tp_factor,
    tp_defect,
)
from .codes import CodeSpace, bloch_to_state_vector
from .exceptions import CertificateInvalid, NotTP
from .fidelity import (
    DEFAULT_SAMPLES,
    SAMPLED,
    WorstCaseResult,
    _code_operator_basis,
    _code_process_matrices,
    _min_forms_sampled,
    _min_quadratic_on_sphere,
    worst_case_fidelity,
)
from .linalg import (
    RANK_TOL,
    hermitian_eig,
    operator_norm,
    polar_unitary_on_support,
)
from .transpose import _check_dims, code_kraus, transpose_channel

PERFECT_TOL = 1e-9
TP_CHECK_TOL = 1e-9


class Verdict(str, enum.Enum):
    CORRECTABLE = "Correctable"
    NOT_CORRECTABLE = "NotCorrectable"
    INDETERMINATE = "Indeterminate"


def near_optimality_factor(eta: float, d: int) -> float:
    """f(eta; d) = ((d+1) - eta) / (1 + (d-1) eta); equals d + 1 at eta = 0."""
    return ((d + 1) - eta) / (1.0 + (d - 1) * eta)


@dataclass(frozen=True)
class PerfectQecCertificate:
    """Result of testing P E_i^dag E_j P = alpha_ij P.

    residual is the largest entrywise deviation (in the code basis) from
    exact proportionality; `satisfied` compares it against tol.  The
    rotation u diagonalizes alpha = u diag(diag_values) u^dag, giving the
    Kraus representation in which the conditions take diagonal form.
    """

    alpha: np.ndarray
    diag_values: np.ndarray
    rotation: np.ndarray
    residual: float
    tol: float
    satisfied: bool


@dataclass(frozen=True)
class AqecDiagnostics:
    """Deviation operators and fidelity-loss estimate for one pair."""

    beta: np.ndarray
    deltas: np.ndarray
    eta: float
    eta_method: str
    eta_samples: int | None
    eta_seed: int | None
    delta_sum_norm: float
    verdict: Verdict
    epsilon: float
    f_epsilon_d: float
    restricted_factor: float
    worst_state: np.ndarray | None

    def to_json_dict(self) -> dict:
        return {
            "beta": [
                [[float(z.real), float(z.imag)] for z in row] for row in self.beta
            ],
            "eta": self.eta,
            "eta_method": "exact_qubit" if self.eta_method != SAMPLED else "sampled",
            "samples": self.eta_samples,
            "delta_sum_norm": self.delta_sum_norm,
            "verdict": self.verdict.value,
            "epsilon": self.epsilon,
            "f_epsilon_d": self.f_epsilon_d,
        }


def _code_rep_products(e: QuantumChannel, code: CodeSpace) -> np.ndarray:
    """Gram products G[i, j] = W^dag E_i^dag E_j W in the code basis."""
    w = code.basis
    m = np.stack([k @ w for k in e.kraus])  # (N, D, d)
    return np.einsum("iab,jac->ijbc", m.conj(), m, optimize=True)


def check_perfect_qec(
    e: QuantumChannel, code: CodeSpace, tol: float = PERFECT_TOL
) -> PerfectQecCertificate:
    """Test the proportionality conditions P E_i^dag E_j P = alpha_ij P.

    Never raises on failure: the certificate carries the residual either
    way.  alpha_ij = tr(P E_i^dag E_j P) / d is always reported, together
    with its diagonalization.
    """
    _check_dims(e, code)
    d = code.code_dim
    prods = _code_rep_products(e, code)
    alpha = np.trace(prods, axis1=2, axis2=3) / d
    eye = np.eye(d)
    residual = float(
        np.max(np.abs(prods - alpha[:, :, None, None] * eye[None, None, :, :]))
    )
    alpha = (alpha + alpha.conj().T) / 2.0
    vals, vecs = hermitian_eig(alpha)
    return PerfectQecCertificate(
        alpha=alpha,
        diag_values=vals,
        rotation=vecs,
        residual=residual,
        tol=tol,
        satisfied=residual <= tol,
    )


def build_r_perf(
    cert: PerfectQecCertificate,
    e: QuantumChannel,
    code: CodeSpace,
    rank_tol: float = RANK_TOL,
) -> QuantumChannel:
    """Standard recovery for a certified pair: Kraus {P U_k^dag}.

    The rotated Kraus operators F_k = sum_i u_ik E_i satisfy
    F_k P = sqrt(d_kk) U_k P by polar decomposition; only components with
    d_kk above the rank cutoff contribute.  For any code state rho,
    (R_perf after e)(rho) = (sum_k d_kk) rho.
    """
    if not cert.satisfied:
        raise CertificateInvalid(
            f"residual {cert.residual:.3e} exceeds tolerance {cert.tol:.3e}"
        )
    _check_dims(e, code)
    p = code.projector()
    u = cert.rotation
    vals = cert.diag_values
    cutoff = rank_tol * max(float(vals[-1]), 0.0)
    ops = []
    stack = np.stack(e.kraus)
    for k in range(len(vals)):
        if vals[k] <= cutoff:
            continue
        f_k = np.einsum("i,iab->ab", u[:, k], stack)
        u_k = polar_unitary_on_support(f_k @ p, rank_tol)
        ops.append(p @ u_k.conj().T)
    if not ops:
        ops = [np.zeros((e.dims_in, e.dims_in), dtype=complex)]
    return QuantumChannel(ops)


def _deviation_operators(
    e: QuantumChannel, code: CodeSpace, rank_tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """beta matrix and code-basis Delta operators, shape (N, N, d, d)."""
    k_ops = code_kraus(e._stack @ code.basis, rank_tol)
    d = code.code_dim
    beta = np.trace(k_ops, axis1=2, axis2=3) / d
    deltas = k_ops - beta[:, :, None, None] * np.eye(d)[None, None, :, :]
    return beta, deltas


def _eta_form(flat: np.ndarray, s_mat: np.ndarray) -> np.ndarray:
    """Real symmetric form Q whose minimum over pure code states is -eta.

    With s the state's coefficients over the code operator basis (s_0 = 1),
    s^T Q s = sum_k |<Delta_k>|^2 - <S>: the deviation map's process
    matrix over d, less the linear term <S> = sum_a s_a tr(S g_a) / d
    written as s_0 s_a.  flat stacks the Delta operators, S = sum
    Delta^dag Delta.
    """
    d = s_mat.shape[0]
    lin = np.einsum("ab,gba->g", s_mat, _code_operator_basis(d)).real / d
    q = _code_process_matrices(flat) / d
    q[0] -= lin / 2.0
    q[:, 0] -= lin / 2.0
    return (q + q.T) / 2.0


def aqec_diagnostics(
    e: QuantumChannel,
    code: CodeSpace,
    epsilon: float,
    *,
    rank_tol: float = RANK_TOL,
    eta_samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> AqecDiagnostics:
    """Deviation operators, fidelity loss, and correctability verdict.

    Requires e trace preserving, or proportionally trace preserving on the
    code with some factor a (recorded; the loss is then computed for the
    1/a-normalized channel).  For qubit codes eta is exact; for d > 2 it
    is a sampled lower bound.
    """
    _check_dims(e, code)
    d = code.code_dim
    p = code.projector()
    factor = 1.0
    if tp_defect(e) > TP_CHECK_TOL:
        a = restricted_tp_factor(e, p, tol=1e-8)
        if a is None or a <= 0:
            raise NotTP(
                "channel is neither trace preserving nor proportionally "
                "trace preserving on the code"
            )
        factor = a
    work = (
        e
        if factor == 1.0
        else QuantumChannel([k / np.sqrt(factor) for k in e.kraus])
    )
    beta, deltas_code = _deviation_operators(work, code, rank_tol)
    nk = beta.shape[0]
    flat = deltas_code.reshape(nk * nk, d, d)
    s_mat = np.einsum("kab,kac->bc", flat.conj(), flat, optimize=True)
    s_vals = np.linalg.eigvalsh((s_mat + s_mat.conj().T) / 2.0)
    delta_sum_norm = float(max(s_vals[-1], 0.0))

    q = _eta_form(flat, s_mat)
    if d == 2:
        # Exact: on the Bloch sphere s = (1, bloch) the form is quadratic.
        q_min, bloch = _min_quadratic_on_sphere(q[0, 0], q[1:, 0], q[1:, 1:])
        worst_state = bloch_to_state_vector(code, bloch)
        method = "exact_qubit"
        samples_used: int | None = None
        seed_used: int | None = None
    else:
        [(q_min, c_best)] = _min_forms_sampled(q[None], eta_samples, seed)
        worst_state = code.basis @ c_best
        method = SAMPLED
        samples_used = eta_samples
        seed_used = seed
    eta = float(-q_min) if -q_min > 0.0 else 0.0

    f_eps = near_optimality_factor(epsilon, d)
    if eta <= epsilon:
        verdict = Verdict.CORRECTABLE
    elif eta > epsilon * f_eps:
        verdict = Verdict.NOT_CORRECTABLE
    else:
        verdict = Verdict.INDETERMINATE

    w = code.basis
    deltas_ambient = np.einsum(
        "ab,ijbc,dc->ijad", w, deltas_code, w.conj(), optimize=True
    )
    return AqecDiagnostics(
        beta=beta,
        deltas=deltas_ambient,
        eta=eta,
        eta_method=method,
        eta_samples=samples_used,
        eta_seed=seed_used,
        delta_sum_norm=delta_sum_norm,
        verdict=verdict,
        epsilon=epsilon,
        f_epsilon_d=f_eps,
        restricted_factor=factor,
        worst_state=worst_state,
    )


def alternate_condition_residual(
    e: QuantumChannel, code: CodeSpace, rank_tol: float = RANK_TOL
) -> float:
    """Largest operator norm among the deviation operators Delta_ij.

    Zero (within tolerance) exactly when check_perfect_qec succeeds; the
    beta matrix then equals the principal square root of alpha in the same
    Kraus representation.
    """
    _check_dims(e, code)
    _, deltas = _deviation_operators(e, code, rank_tol)
    return max(operator_norm(deltas[i, j]) for i in range(deltas.shape[0])
               for j in range(deltas.shape[1]))


@dataclass(frozen=True)
class NearOptimalityReport:
    """Comparison of the transpose-channel loss against candidate recoveries.

    eta_hat is the best candidate loss; since the optimal loss cannot
    exceed it and eta * f(eta; d) is increasing, the transpose loss must
    satisfy eta_p <= eta_hat * f(eta_hat; d).  No ordering between eta_hat
    and eta_p themselves is implied.
    """

    code_dim: int
    eta_p: float
    candidate_etas: tuple
    eta_hat: float
    f_eta_hat: float
    bound: float
    bound_satisfied: bool
    f_zero: float


def near_optimality_bound_check(
    e: QuantumChannel,
    code: CodeSpace,
    candidate_recoveries,
    *,
    samples: int = 20_000,
    seed: int = 0,
    tol: float = 1e-9,
) -> NearOptimalityReport:
    """Evaluate candidate recoveries and verify the near-optimality bound.

    Pass None inside candidate_recoveries for the do-nothing recovery.
    """
    rp = transpose_channel(e, code).recovery
    eta_p = worst_case_fidelity(e, rp, code, samples=samples, seed=seed).eta
    etas = []
    for idx, cand in enumerate(candidate_recoveries):
        res: WorstCaseResult = worst_case_fidelity(
            e, cand, code, samples=samples, seed=seed + idx + 1
        )
        etas.append(res.eta)
    d = code.code_dim
    eta_hat = min(etas) if etas else eta_p
    f_hat = near_optimality_factor(eta_hat, d)
    bound = eta_hat * f_hat
    return NearOptimalityReport(
        code_dim=d,
        eta_p=eta_p,
        candidate_etas=tuple(etas),
        eta_hat=eta_hat,
        f_eta_hat=f_hat,
        bound=bound,
        bound_satisfied=eta_p <= bound + tol,
        f_zero=near_optimality_factor(0.0, d),
    )
