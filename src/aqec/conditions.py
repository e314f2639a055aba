"""Perfect and approximate error-correction conditions.

Perfect correction of a CP noise map {E_i} on a code with projector P is
equivalent to P E_i^dag E_j P = alpha_ij P for a Hermitian PSD matrix
alpha, and equivalently to P E_i^dag E(P)^(-1/2) E_j P = beta_ij P with
beta the principal square root of alpha.  When the conditions hold only
approximately, the deviations

    Delta_ij = P E_i^dag E(P)^(-1/2) E_j P - beta_ij P,
    beta_ij  = tr(P E_i^dag E(P)^(-1/2) E_j P) / d,

are traceless operators on the code whose size controls the worst-case
fidelity loss of the transpose-channel recovery, eta = 1 - min F^2 over
pure code states.  aqec_diagnostics scores eta on the recovered map
itself, with the same worst-case call as search and sweep.  Once that
map is trace preserving on the code, the identity

    1 - F^2(psi) = <sum_ij Delta_ij^dag Delta_ij> - sum_ij |<Delta_ij>|^2

holds for every pure code state psi, so eta is the largest value of the
right-hand side and eta <= ||sum_ij Delta_ij^dag Delta_ij|| (operator
norm).  A code is epsilon-correctable if eta <= epsilon, and only if
eta <= epsilon * f(epsilon; d) with the near-optimality factor

    f(eta; d) = ((d + 1) - eta) / (1 + (d - 1) eta).

Conditions (alpha, beta, residuals) are computed for the pair as given,
worst cases on the normalised noise (see the transpose module); the beta
and Delta_ij of aqec_diagnostics go with its eta, so they are those of
the normalised noise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .channels import QuantumChannel, _prune
from .codes import CodeSpace
from .exceptions import CertificateInvalid, NotTP, ParamOutOfRange
from .fidelity import (
    DEFAULT_SAMPLES,
    _code_process_matrices,
    _min_forms,
    transpose_fidelity_grid,
    worst_case_fidelity,
)
from .linalg import psd_eigh
from .transpose import _noise_on_code, _normalised_noise_on_code, code_kraus

PERFECT_TOL = 1e-9
BOUND_TOL = 1e-9  # slack of the near-optimality bound check


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
    exact proportionality; `satisfied` compares it against PERFECT_TOL.
    """

    alpha: np.ndarray
    residual: float
    satisfied: bool


@dataclass(frozen=True)
class AqecDiagnostics:
    """Deviation operators and fidelity-loss estimate for one pair.

    eta = 1 - min F^2 of the transpose-recovered map on the code, with
    eta_method the worst-case solver that scored it (exact for qubit
    codes, sampled for d > 2) and worst_state the state attaining it;
    restricted_factor is the a of sum_i M_i^dag M_i = a I_d (1.0 when the
    channel is trace preserving on the code).  The deviation operators
    are in code coordinates only, deltas_code of shape (N, N, d, d) over
    the code basis W: the ambient Delta_ij is W deltas_code[i, j] W^dag.
    """

    beta: np.ndarray
    deltas_code: np.ndarray
    eta: float
    eta_method: str
    eta_samples: int | None
    delta_sum_norm: float
    verdict: Verdict
    epsilon: float
    f_epsilon_d: float
    restricted_factor: float
    worst_state: np.ndarray | None

    def to_json_dict(self) -> dict:
        return {
            "beta": np.stack([self.beta.real, self.beta.imag], -1).tolist(),
            "eta": self.eta,
            "eta_method": self.eta_method,
            "samples": self.eta_samples,
            "delta_sum_norm": self.delta_sum_norm,
            "verdict": self.verdict.value,
            "epsilon": self.epsilon,
            "f_epsilon_d": self.f_epsilon_d,
            "epsilon_f_epsilon_d": self.epsilon * self.f_epsilon_d,
        }


def _condition_products(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """alpha (G, N, N) and the residual (G,) of the conditions for the
    noise on the code m, M_i = E_i W, stacked (G, N, D, d): from the
    products M_i^dag M_j, alpha_ij = tr(M_i^dag M_j) / d (its Hermitian
    part) and the residual max |M_i^dag M_j - alpha_ij I| per pair."""
    g, n, dim, d = m.shape
    wide = np.moveaxis(m, 1, 2).reshape(g, dim, n * d)
    prods = (wide.conj().swapaxes(-1, -2) @ wide).reshape(g, n, d, n, d).swapaxes(2, 3)
    alpha = np.trace(prods, axis1=-2, axis2=-1) / d
    dev = np.abs(prods - alpha[..., None, None] * np.eye(d))
    return (alpha + alpha.conj().swapaxes(-1, -2)) / 2.0, dev.reshape(g, -1).max(axis=1)


def _standard_recovery_on(m: np.ndarray) -> np.ndarray:
    """The standard recovery R_k = P F_k^dag / sqrt(d_k) of each pair in a
    stack, in code coordinates: for the noise on the code m (G, N, D, d),
    M_i = E_i W, and alpha = u diag(d) u^dag from one linalg.psd_eigh, the
    (G, N, d, D) stack of W^dag R_k = (F_k W)^dag / sqrt(d_k), F_k W =
    sum_i u_ik M_i, zero where psd_eigh's support of alpha drops d_k.
    Raises CertificateInvalid when a pair's residual exceeds PERFECT_TOL."""
    alpha, residual = _condition_products(m)
    bad = np.flatnonzero(residual > PERFECT_TOL)
    if bad.size:
        raise CertificateInvalid(
            f"residual {residual[bad[0]]:.3e} exceeds tolerance {PERFECT_TOL:.3e}"
        )
    vals, u, keep = psd_eigh(alpha)
    weight = np.where(keep, vals, np.inf) ** -0.5
    fw = (u.swapaxes(-1, -2) @ m.reshape(m.shape[0], m.shape[1], -1)).reshape(m.shape)
    return weight[..., None, None] * fw.conj().swapaxes(-1, -2)


def check_perfect_qec(e: QuantumChannel, code: CodeSpace) -> PerfectQecCertificate:
    """Test the proportionality conditions P E_i^dag E_j P = alpha_ij P.

    Never raises on failure: the certificate carries the residual either
    way.  alpha_ij = tr(P E_i^dag E_j P) / d is always reported.
    """
    alpha, residual = _condition_products(_noise_on_code(e.kraus, code)[None])
    residual = float(residual[0])
    return PerfectQecCertificate(
        alpha=alpha[0], residual=residual, satisfied=residual <= PERFECT_TOL
    )


def build_r_perf(e: QuantumChannel, code: CodeSpace) -> QuantumChannel:
    """Standard recovery for a perfectly correctable pair: Kraus
    {P F_k^dag / sqrt(d_k)}.

    Certifies the pair and builds the recovery in one pass: the operators
    are those of _standard_recovery_on, the core the five513:rperf sweep
    curve reads, which raises CertificateInvalid when the residual of
    check_perfect_qec's conditions exceeds PERFECT_TOL.  The rotated
    Kraus operators F_k = sum_i u_ik E_i of alpha = u diag(d) u^dag
    satisfy P F_k^dag F_l P = d_k delta_kl P, so F_k P / sqrt(d_k) is an
    isometry on the code and its adjoint undoes it; only the components
    psd_eigh keeps in alpha contribute.  For any code state rho,
    (R_perf after e)(rho) = (sum_k d_k) rho, and R_perf equals the
    transpose channel of the pair.
    """
    ops = _standard_recovery_on(_noise_on_code(e.kraus, code)[None])[0]
    return QuantumChannel(_prune(code.basis @ ops))


def _beta_and_deltas(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """beta_ij = tr(K_ij) / d and the traceless Delta_ij = K_ij - beta_ij I
    of a code-basis Kraus set k (N, N, d, d) from code_kraus."""
    d = k.shape[-1]
    beta = np.trace(k, axis1=2, axis2=3) / d
    return beta, k - beta[:, :, None, None] * np.eye(d)


def aqec_diagnostics(
    e: QuantumChannel,
    code: CodeSpace,
    epsilon: float,
    *,
    eta_samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> AqecDiagnostics:
    """Deviation operators, fidelity loss, and correctability verdict.

    Works on the normalised noise on the code, M_i = E_i W scaled by
    1/sqrt(a) for sum_i M_i^dag M_i = a I_d (a recorded as
    restricted_factor, 1.0 for noise trace preserving on the code), and
    raises NotTP when no a fits.  One code_kraus call gives K_ij =
    beta_ij I + Delta_ij, and eta = 1 - F^2_min of the transpose-recovered
    map comes from the same worst-case call that search and sweep make:
    exact for qubit codes, a sampled lower bound on the loss for d > 2.
    ParamOutOfRange unless epsilon is finite and at least 0.
    """
    if not 0.0 <= epsilon < np.inf:
        raise ParamOutOfRange(f"epsilon must be a finite number >= 0, got {epsilon}")
    d = code.code_dim
    m, factor = _normalised_noise_on_code(e.kraus, code)
    if np.isnan(factor):
        raise NotTP(
            "channel is neither trace preserving nor proportionally "
            "trace preserving on the code"
        )
    k = code_kraus(m)
    beta, deltas_code = _beta_and_deltas(k)
    flat = deltas_code.reshape(-1, d, d)
    s_mat = np.einsum("kab,kac->bc", flat.conj(), flat, optimize=True)
    s_vals = np.linalg.eigvalsh((s_mat + s_mat.conj().T) / 2.0)
    delta_sum_norm = float(max(s_vals[-1], 0.0))

    [[worst]] = _min_forms([(_code_process_matrices(k.reshape(1, -1, d, d)), code)],
                           eta_samples, seed)
    f_eps = near_optimality_factor(epsilon, d)
    if worst.eta <= epsilon:
        verdict = Verdict.CORRECTABLE
    elif worst.eta > epsilon * f_eps:
        verdict = Verdict.NOT_CORRECTABLE
    else:
        verdict = Verdict.INDETERMINATE

    return AqecDiagnostics(
        beta=beta,
        deltas_code=deltas_code,
        eta=worst.eta,
        eta_method=worst.method,
        eta_samples=worst.samples,
        delta_sum_norm=delta_sum_norm,
        verdict=verdict,
        epsilon=epsilon,
        f_epsilon_d=f_eps,
        restricted_factor=float(factor),
        worst_state=worst.worst_state,
    )


def alternate_condition_residual(e: QuantumChannel, code: CodeSpace) -> float:
    """Largest operator norm among the deviation operators Delta_ij.

    Zero (within tolerance) exactly when check_perfect_qec succeeds; the
    beta matrix then equals the principal square root of alpha in the same
    Kraus representation.
    """
    _, deltas = _beta_and_deltas(code_kraus(_noise_on_code(e.kraus, code)))
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
    bound: float
    bound_satisfied: bool


def near_optimality_bound_check(
    e: QuantumChannel,
    code: CodeSpace,
    candidate_recoveries,
    *,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> NearOptimalityReport:
    """Evaluate candidate recoveries and verify the near-optimality bound.

    Pass None inside candidate_recoveries for the do-nothing recovery.
    """
    [res_p] = transpose_fidelity_grid(e.kraus[None], code, samples=samples, seed=seed)
    eta_p = res_p.eta
    etas = []
    for idx, cand in enumerate(candidate_recoveries):
        res = worst_case_fidelity(
            e, cand, code, samples=samples, seed=seed + idx + 1
        )
        etas.append(res.eta)
    d = code.code_dim
    eta_hat = min(etas) if etas else eta_p
    bound = eta_hat * near_optimality_factor(eta_hat, d)
    return NearOptimalityReport(
        code_dim=d,
        eta_p=eta_p,
        candidate_etas=tuple(etas),
        eta_hat=eta_hat,
        bound=bound,
        bound_satisfied=eta_p <= bound + BOUND_TOL,
    )
