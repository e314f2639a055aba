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
from functools import cached_property

import numpy as np

from .channels import (
    QuantumChannel,
    restricted_tp_factor,
    tp_defect,
)
from .codes import CodeSpace
from .exceptions import CertificateInvalid, NotTP
from .fidelity import (
    DEFAULT_SAMPLES,
    LAGRANGE_QUBIT,
    _code_operator_basis,
    _code_process_matrices,
    _min_forms,
    transpose_fidelity_grid,
    worst_case_fidelity,
)
from .linalg import RANK_TOL, hermitian_eig, inv_sqrt_on_support
from .transpose import _check_dims, code_kraus

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
    """Deviation operators and fidelity-loss estimate for one pair.

    The deviation operators are kept in code coordinates, deltas_code of
    shape (N, N, d, d) over the code basis code_basis (D, d); deltas lifts
    them to the ambient space on first read.
    """

    beta: np.ndarray
    deltas_code: np.ndarray
    code_basis: np.ndarray
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

    @cached_property
    def deltas(self) -> np.ndarray:
        """Ambient deviation operators W Delta_ij W^dag, shape (N, N, D, D)."""
        w = self.code_basis
        return np.einsum("ab,ijbc,dc->ijad", w, self.deltas_code, w.conj(), optimize=True)

    def to_json_dict(self) -> dict:
        return {
            "beta": [
                [[float(z.real), float(z.imag)] for z in row] for row in self.beta
            ],
            "eta": self.eta,
            "eta_method": self.eta_method,
            "samples": self.eta_samples,
            "delta_sum_norm": self.delta_sum_norm,
            "verdict": self.verdict.value,
            "epsilon": self.epsilon,
            "f_epsilon_d": self.f_epsilon_d,
        }


def _code_rep_products(e: QuantumChannel, code: CodeSpace) -> np.ndarray:
    """Gram products G[i, j] = W^dag E_i^dag E_j W in the code basis."""
    m = e._stack @ code.basis  # (N, D, d)
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
    cert: PerfectQecCertificate, e: QuantumChannel, code: CodeSpace
) -> QuantumChannel:
    """Standard recovery for a certified pair: Kraus {P U_k^dag}.

    The rotated Kraus operators F_k = sum_i u_ik E_i satisfy
    F_k P = sqrt(d_kk) U_k P by polar decomposition; only components with
    d_kk above RANK_TOL * max(d_kk) contribute.  For any code state rho,
    (R_perf after e)(rho) = (sum_k d_kk) rho.  Such an A = F_k P has full
    rank on the code, so P U_k^dag = (A^dag A)^(-1/2) A^dag with the
    inverse square root taken on the code: the unitary's extension off the
    code never enters.
    """
    if not cert.satisfied:
        raise CertificateInvalid(
            f"residual {cert.residual:.3e} exceeds tolerance {cert.tol:.3e}"
        )
    _check_dims(e, code)
    p = code.projector()
    u = cert.rotation
    vals = cert.diag_values
    cutoff = RANK_TOL * max(float(vals[-1]), 0.0)
    ops = []
    for k in range(len(vals)):
        if vals[k] <= cutoff:
            continue
        a = np.einsum("i,iab->ab", u[:, k], e._stack) @ p
        b, _ = inv_sqrt_on_support(a.conj().T @ a)
        ops.append(b @ a.conj().T)
    if not ops:
        ops = [np.zeros((e.dims_in, e.dims_in), dtype=complex)]
    return QuantumChannel(ops)


def _deviation_operators(
    e: QuantumChannel, code: CodeSpace
) -> tuple[np.ndarray, np.ndarray]:
    """beta matrix and code-basis Delta operators, shape (N, N, d, d)."""
    k_ops = code_kraus(e._stack @ code.basis)
    d = code.code_dim
    beta = np.trace(k_ops, axis1=2, axis2=3) / d
    deltas = k_ops - beta[:, :, None, None] * np.eye(d)[None, None, :, :]
    return beta, deltas


def _eta_form(flat: np.ndarray, s_mat: np.ndarray) -> np.ndarray:
    """Real form Q whose minimum over pure code states is -eta.

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
    return q


def aqec_diagnostics(
    e: QuantumChannel,
    code: CodeSpace,
    epsilon: float,
    *,
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
    beta, deltas_code = _deviation_operators(work, code)
    nk = beta.shape[0]
    flat = deltas_code.reshape(nk * nk, d, d)
    s_mat = np.einsum("kab,kac->bc", flat.conj(), flat, optimize=True)
    s_vals = np.linalg.eigvalsh((s_mat + s_mat.conj().T) / 2.0)
    delta_sum_norm = float(max(s_vals[-1], 0.0))

    # The form's minimum (f2_min of the result) is -eta.
    # The eta form has a linear term, so a qubit code takes the Lagrange solver.
    [worst] = _min_forms(_eta_form(flat, s_mat)[None], code, [LAGRANGE_QUBIT],
                         eta_samples, seed)
    eta = float(-worst.f2_min) if -worst.f2_min > 0.0 else 0.0

    f_eps = near_optimality_factor(epsilon, d)
    if eta <= epsilon:
        verdict = Verdict.CORRECTABLE
    elif eta > epsilon * f_eps:
        verdict = Verdict.NOT_CORRECTABLE
    else:
        verdict = Verdict.INDETERMINATE

    return AqecDiagnostics(
        beta=beta,
        deltas_code=deltas_code,
        code_basis=code.basis,
        eta=eta,
        eta_method=worst.method,
        eta_samples=worst.samples,
        eta_seed=worst.seed,
        delta_sum_norm=delta_sum_norm,
        verdict=verdict,
        epsilon=epsilon,
        f_epsilon_d=f_eps,
        restricted_factor=factor,
        worst_state=worst.worst_state,
    )


def alternate_condition_residual(e: QuantumChannel, code: CodeSpace) -> float:
    """Largest operator norm among the deviation operators Delta_ij.

    Zero (within tolerance) exactly when check_perfect_qec succeeds; the
    beta matrix then equals the principal square root of alpha in the same
    Kraus representation.
    """
    _check_dims(e, code)
    _, deltas = _deviation_operators(e, code)
    return float(np.max(np.linalg.norm(deltas, 2, axis=(-2, -1))))


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
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    tol: float = 1e-9,
) -> NearOptimalityReport:
    """Evaluate candidate recoveries and verify the near-optimality bound.

    Pass None inside candidate_recoveries for the do-nothing recovery.
    """
    [res_p] = transpose_fidelity_grid(e._stack[None], code, samples=samples, seed=seed)
    eta_p = res_p.eta
    etas = []
    for idx, cand in enumerate(candidate_recoveries):
        res = worst_case_fidelity(
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
