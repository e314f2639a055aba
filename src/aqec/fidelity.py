"""Worst-case fidelity of a channel over the pure states of a code.

For a map Phi acting inside a d-dimensional code with Hermitian operator
basis {O_a}, the process matrix M_ab = tr(O_a Phi(O_b)) / d is real, and
the squared fidelity of a pure code state with coefficient vector s
(density matrix (1/d) sum_a s_a O_a, s_0 = 1) is

    F^2(psi, Phi) = (1/d) s^T M s = (1/d) s^T M_sym s.

For qubit codes the minimization over the Bloch sphere is solved exactly
by one Lagrange-multiplier secular equation; when the map is trace
preserving and unital its linear term vanishes and the solution is the
smallest eigenvalue of the symmetrized traceless block.  For d > 2 only a
sampled estimate (an upper bound on the true minimum) is provided: the
same form, minimized over Haar-random code states and refined locally.
Every worst case here, and the eta of conditions.aqec_diagnostics, goes
through _min_forms, which makes that choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .channels import QuantumChannel
from .codes import (
    CodeSpace,
    OperatorBasis,
    _su_generators,
    bloch_to_state_vector,
    operator_basis,
)
from .exceptions import DimensionMismatch, OutputLeavesCode, PreconditionViolated
from .transpose import code_kraus

EXACT_UNITAL_QUBIT = "exact_unital_qubit"
LAGRANGE_QUBIT = "lagrange_qubit"
SAMPLED = "sampled"

FLAG_TOL = 1e-9
DEFAULT_SAMPLES = 100_000
REFINE_ITERS = 300


@dataclass(frozen=True)
class ProcessMatrix:
    """Real matrix representation of a code-preserving map."""

    m: np.ndarray
    basis: OperatorBasis
    code: CodeSpace
    is_tp: bool
    is_unital: bool


@dataclass(frozen=True)
class WorstCaseResult:
    """Worst-case squared fidelity over pure code states.

    For the exact qubit methods f2_min is a certified global minimum; for
    the sampled method it is the best value seen (an upper bound on the
    true minimum) and `samples`/`seed` record the search effort.
    """

    f2_min: float
    eta: float
    worst_state: np.ndarray
    bloch: np.ndarray | None
    method: str
    samples: int | None = None
    seed: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "f2_min": self.f2_min,
            "f_min": float(np.sqrt(max(self.f2_min, 0.0))),
            "eta": self.eta,
            "worst_state": [[float(z.real), float(z.imag)] for z in self.worst_state],
            "bloch": None if self.bloch is None else [float(x) for x in self.bloch],
            "method": self.method,
            "samples": self.samples,
            "seed": self.seed,
        }


def _code_kraus_after(
    noise: QuantumChannel, recovery: QuantumChannel | None, code: CodeSpace
) -> np.ndarray:
    """Code-basis Kraus stack {W^dag R_j E_i W}, j-major, of recovery after
    noise (noise alone when recovery is None): the map on code inputs,
    with its output compressed to the code."""
    last = noise if recovery is None else recovery
    if (noise.dims_in, last.dims_out) != (code.ambient_dim,) * 2 or (
        last.dims_in != noise.dims_out
    ):
        raise DimensionMismatch(
            f"maps act on dims {noise.dims_in}->{noise.dims_out}->{last.dims_out}, "
            f"code lives in dim {code.ambient_dim}"
        )
    m = noise._stack @ code.basis
    if recovery is not None:
        m = (recovery._stack[:, None] @ m[None]).reshape(-1, *m.shape[1:])
    return code.basis.conj().T @ m


def _code_operator_basis(d: int) -> np.ndarray:
    """operator_basis in code coordinates: identity, then the generators."""
    return np.stack([np.eye(d)] + _su_generators(d))


def _check_leakage(m: np.ndarray, code: CodeSpace, leak_tol: float) -> None:
    """Raise OutputLeavesCode when the map with ambient Kraus stack
    m = {K_x W} sends a basis element O_b outside the code."""
    gens = _code_operator_basis(code.code_dim)
    imgs = np.einsum("xab,gbc,xdc->gad", m, gens, m.conj(), optimize=True)
    p = code.projector()
    leak = np.max(np.abs(imgs - p @ imgs @ p), axis=(1, 2))
    scale = np.maximum(1.0, np.max(np.abs(imgs), axis=(1, 2)))
    bad = np.flatnonzero(leak > leak_tol * scale)
    if bad.size:
        raise OutputLeavesCode(
            f"channel output leaks outside the code (max leak {leak[bad[0]]:.3e})"
        )


def _tp_unital(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trace-preserving and unital flags of a process matrix, or of each
    matrix of a stack."""
    e0 = np.eye(m.shape[-1])[0]
    return (np.max(np.abs(m[..., 0, :] - e0), axis=-1) <= FLAG_TOL,
            np.max(np.abs(m[..., :, 0] - e0), axis=-1) <= FLAG_TOL)


def _qubit_methods(m: np.ndarray) -> list[str]:
    """Method labels of qubit worst cases, from the flags of each process
    matrix of a stack m."""
    tp, unital = _tp_unital(m)
    return [EXACT_UNITAL_QUBIT if ok else LAGRANGE_QUBIT for ok in tp & unital]


def _code_process_matrices(k: np.ndarray) -> np.ndarray:
    """Process matrices of maps given by code-basis Kraus stacks.

    k has shape (..., X, d, d).  With g_a the identity followed by the
    generators of operator_basis, M_ab = tr(g_a Phi(g_b)) / d comes from
    the superoperator S = sum_x K_x (x) conj(K_x) (row-major vec) as
    conj(G) S G^T / d, G holding vec(g_a) in its rows.  Raises
    PreconditionViolated when an entry has an imaginary part above 1e-8.
    """
    *lead, x, d, _ = k.shape
    flat = k.reshape(*lead, x, d * d)
    gram = flat.swapaxes(-1, -2) @ flat.conj()
    s = gram.reshape(*lead, d, d, d, d).swapaxes(-3, -2).reshape(gram.shape)
    g = _code_operator_basis(d).reshape(d * d, d * d)
    m = g.conj() @ s @ g.T / d
    imag = float(np.max(np.abs(m.imag)))
    if imag > 1e-8:
        raise PreconditionViolated(
            f"process matrix entry has imaginary part {imag:.3e}; "
            "map is not completely positive on Hermitian inputs"
        )
    return m.real


def process_matrix(
    phi: QuantumChannel,
    code: CodeSpace,
    *,
    allow_leakage: bool = False,
    leak_tol: float = FLAG_TOL,
) -> ProcessMatrix:
    """Process matrix M_ab = tr(O_a phi(O_b)) / d over the code basis.

    Raises OutputLeavesCode when phi's output leaves the code beyond
    tolerance (disable with allow_leakage when only fidelities are wanted,
    which never see the leaked part).
    """
    if phi.dims_in != code.ambient_dim or phi.dims_out != code.ambient_dim:
        raise PreconditionViolated(
            f"channel dims ({phi.dims_in}->{phi.dims_out}) do not match "
            f"ambient dimension {code.ambient_dim}"
        )
    m = phi._stack @ code.basis
    if not allow_leakage:
        _check_leakage(m, code, leak_tol)
    pm = _code_process_matrices(code.basis.conj().T @ m)
    is_tp, is_unital = _tp_unital(pm)
    return ProcessMatrix(pm, operator_basis(code), code, bool(is_tp), bool(is_unital))


def _min_quadratic_on_sphere(
    c0: float, b: np.ndarray, n_sym: np.ndarray
) -> tuple[float, np.ndarray]:
    """Global minimum of c0 + 2 b.s + s^T N s over real unit vectors s.

    Trust-region-style solver: stationary points satisfy (N - lam I) s = -b
    with lam at or below the smallest eigenvalue of N; the secular equation
    |s(lam)| = 1 is solved by bracketed root finding, with the degenerate
    branch (b orthogonal to the bottom eigenspace) handled explicitly.
    """
    n_sym = (n_sym + n_sym.T) / 2.0
    mu, q = np.linalg.eigh(n_sym)
    bnorm = float(np.linalg.norm(b))
    # mu ascends, so its largest magnitude sits at one end
    scale = max(1.0, float(max(-mu[0], mu[-1])), bnorm)

    def value(s: np.ndarray) -> float:
        return float(c0 + 2.0 * b @ s + s @ n_sym @ s)

    if bnorm <= 1e-14 * scale:
        s = q[:, 0].copy()
        return value(s), s

    beta = q.T @ b
    candidates: list[np.ndarray] = []
    cluster = mu <= mu[0] + 1e-10 * scale
    beta_min_norm = float(np.linalg.norm(beta[cluster]))

    def phi(lam: float) -> float:
        return float(np.sum((beta / (mu - lam)) ** 2))

    def s_of(lam: float) -> np.ndarray:
        return -q @ (beta / (mu - lam))

    # Easy branch: secular root strictly below mu_min.
    if beta_min_norm > 1e-13 * scale:
        lo = mu[0] - bnorm - 1e-3 * scale
        delta = 0.5 * beta_min_norm
        hi = mu[0] - max(delta, 1e-14 * scale)
        if phi(hi) > 1.0:
            lam = brentq(lambda x: phi(x) - 1.0, lo, hi, xtol=1e-15 * scale)
            s = s_of(lam)
            s /= np.linalg.norm(s)
            candidates.append(s)
    # Degenerate branch: solve on the complement of the bottom eigenspace
    # and fill the remaining length along a bottom eigenvector.
    rest = ~cluster
    s_perp = np.zeros_like(b)
    if np.any(rest):
        s_perp = -q[:, rest] @ (beta[rest] / (mu[rest] - mu[0]))
    perp_norm = float(np.linalg.norm(s_perp))
    if perp_norm <= 1.0:
        tau = np.sqrt(max(0.0, 1.0 - perp_norm**2))
        candidates.append(s_perp + tau * q[:, np.argmax(cluster)])
    else:
        # Root exists below mu_min even though b is (nearly) orthogonal to
        # the bottom eigenspace; bracket using the complement terms only.
        lo = mu[0] - bnorm - 1e-3 * scale
        hi = mu[0] - 1e-14 * scale

        def phi_rest(lam: float) -> float:
            return float(np.sum((beta[rest] / (mu[rest] - lam)) ** 2))

        lam = brentq(lambda x: phi_rest(x) - 1.0, lo, hi, xtol=1e-15 * scale)
        s = -q[:, rest] @ (beta[rest] / (mu[rest] - lam))
        s /= np.linalg.norm(s)
        candidates.append(s)

    vals = [value(s) for s in candidates]
    best = int(np.argmin(vals))
    return vals[best], candidates[best]


def worst_fidelity_unital_qubit(m: ProcessMatrix) -> WorstCaseResult:
    """Exact worst-case fidelity for a TP, unital qubit map.

    With T the 3x3 traceless block and N_sym its symmetrization, the
    minimum squared fidelity is (1 + t_min)/2 where t_min is the smallest
    eigenvalue of N_sym, attained at the matching unit Bloch vector: the
    zero-linear-term case of the qubit solver.
    """
    if m.code.code_dim != 2:
        raise PreconditionViolated("unital-qubit solver requires a qubit code")
    if not (m.is_tp and m.is_unital):
        raise PreconditionViolated(
            "unital-qubit solver requires trace-preserving and unital flags"
        )
    return _min_forms(m.m[None] / 2.0, m.code, [EXACT_UNITAL_QUBIT])[0]


def worst_fidelity_qubit_lagrange(m: ProcessMatrix) -> WorstCaseResult:
    """Exact worst-case fidelity for a TP qubit map, unitality not assumed.

    Minimizes s^T M_sym s over s = (1, bloch) with |bloch| = 1 via the
    secular equation; certified global minimum.
    """
    if m.code.code_dim != 2:
        raise PreconditionViolated("Lagrange solver requires a qubit code")
    if not m.is_tp:
        raise PreconditionViolated("Lagrange solver requires the TP flag")
    return _min_forms(m.m[None] / 2.0, m.code, [LAGRANGE_QUBIT])[0]


def _sphere_quartic_min(
    q: np.ndarray, c0: np.ndarray, iters: int = REFINE_ITERS
) -> tuple[float, np.ndarray]:
    """Projected gradient descent for f(c) = s^T Q s, s_a = c^dag g_a c,
    over unit code vectors c, started at c0; Q is real symmetric.  Step
    size adapts by halving."""
    gens = _code_operator_basis(len(c0))

    def f_grad(c):
        gc = gens @ c
        s = (c.conj() @ gc.T).real
        qs = q @ s
        return float(s @ qs), 2.0 * (qs @ gc)

    c = c0 / np.linalg.norm(c0)
    f, grad = f_grad(c)
    step = 0.5
    for _ in range(iters):
        g = grad - c * (np.vdot(c, grad))
        gnorm = np.linalg.norm(g)
        if gnorm < 1e-13 * max(1.0, abs(f)):
            break
        improved = False
        while step > 1e-18:
            trial = c - step * g
            trial /= np.linalg.norm(trial)
            f_trial, grad_trial = f_grad(trial)
            if f_trial < f - 1e-18:
                c, f, grad = trial, f_trial, grad_trial
                step *= 1.5
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return f, c


_CHUNK = 65536  # states per draw; the draws make the sample stream of a seed
_EVAL_BLOCK = 1 << 18  # entries of s @ Q held at once, for a block of samples


def _min_forms_sampled(
    q: np.ndarray, n: int, seed: int, refine_iters: int = REFINE_ITERS
) -> list[tuple[float, np.ndarray]]:
    """Minimum over pure code states of each quadratic form s^T Q_g s in a
    stack q of shape (G, d^2, d^2), s the state's coefficients over the
    code operator basis (s_0 = 1).

    All forms share one set of n Haar-random states (drawn from seed);
    each is then refined from its own best sample.  Returns one
    (value, code-coefficient vector) per form; each value is the best seen,
    an upper bound on the true minimum.
    """
    if n < 1:
        raise PreconditionViolated("need at least one sample")
    q = (q + q.swapaxes(-1, -2)) / 2.0
    forms, dim, _ = q.shape
    d = int(round(np.sqrt(dim)))
    gens_t = _code_operator_basis(d).reshape(dim, dim).T
    wide = q.swapaxes(0, 1).reshape(dim, forms * dim)
    rows = max(1, _EVAL_BLOCK // (forms * dim))
    cols = np.arange(forms)
    rng = np.random.default_rng(seed)
    best = np.full(forms, np.inf)
    best_c = np.zeros((forms, d), dtype=complex)
    remaining = n
    while remaining > 0:
        batch = min(_CHUNK, remaining)
        remaining -= batch
        z = rng.standard_normal((batch, d)) + 1j * rng.standard_normal((batch, d))
        cs = z / np.linalg.norm(z, axis=1, keepdims=True)
        for lo in range(0, batch, rows):
            cb = cs[lo : lo + rows]
            # s_a = c^dag g_a c for every sample c of the block at once
            outer = (cb.conj()[:, :, None] * cb[:, None, :]).reshape(len(cb), dim)
            s = (outer @ gens_t).real
            vals = np.einsum("nga,na->ng", (s @ wide).reshape(len(cb), forms, dim), s)
            idx = np.argmin(vals, axis=0)
            low_vals = vals[idx, cols]
            low = low_vals < best
            best[low] = low_vals[low]
            best_c[low] = cs[lo + idx[low]]
    out = []
    for qg, f, c in zip(q, best, best_c):
        f_ref, c_ref = _sphere_quartic_min(qg, c, iters=refine_iters)
        out.append((f_ref, c_ref) if f_ref <= f else (float(f), c))
    return out


def _min_forms(
    q: np.ndarray,
    code: CodeSpace,
    qubit_methods: list[str],
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> list[WorstCaseResult]:
    """Minimum over pure code states of each real form s^T Q_g s of a stack
    q (G, d^2, d^2), s the state's coefficients over the code operator
    basis (s_0 = 1): one result per form, the minimum as f2_min (1 - f2_min
    as eta) with the state attaining it.

    Qubit codes are solved exactly on the Bloch sphere s = (1, bloch), form
    g labelled qubit_methods[g].  Larger codes share one _min_forms_sampled
    run: upper bounds on the minima, labelled SAMPLED.
    """
    if code.code_dim == 2:
        out = []
        for qg, method in zip((q + q.swapaxes(-1, -2)) / 2.0, qubit_methods):
            # A TP unital map's flags hold the first row and column of M
            # to e0 within FLAG_TOL; taken as exact, c0 = 1/2 and b = 0 give
            # the eigenvalue formula (1 + t_min)/2.
            if method == EXACT_UNITAL_QUBIT:
                c0, b = 0.5, np.zeros(3)
            else:
                c0, b = qg[0, 0], qg[1:, 0]
            val, bloch = _min_quadratic_on_sphere(c0, b, qg[1:, 1:])
            psi = bloch_to_state_vector(code, bloch)
            out.append(WorstCaseResult(val, 1.0 - val, psi, bloch, method))
        return out
    return [
        WorstCaseResult(f, 1.0 - f, code.basis @ c, None, SAMPLED, samples, seed)
        for f, c in _min_forms_sampled(q, samples, seed)
    ]


def worst_fidelity_sampled(
    phi: QuantumChannel,
    code: CodeSpace,
    n: int = DEFAULT_SAMPLES,
    seed: int = 0,
    *,
    refine_iters: int = REFINE_ITERS,
) -> WorstCaseResult:
    """Sampled worst-case fidelity: minimum of F^2 over n Haar-random pure
    code states, then local refinement from the best sample.

    The returned value is an upper bound on the true minimum; deterministic
    for a given seed.
    """
    m = _code_process_matrices(_code_kraus_after(phi, None, code))
    [(f2, c)] = _min_forms_sampled(m[None] / code.code_dim, n, seed, refine_iters)
    return WorstCaseResult(f2, 1.0 - f2, code.basis @ c, None, SAMPLED, n, seed)


def worst_case_fidelity(
    noise: QuantumChannel,
    recovery: QuantumChannel | None,
    code: CodeSpace,
    *,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> WorstCaseResult:
    """Worst-case fidelity of recovery-after-noise over pure code states.

    recovery = None means no recovery (identity map).  Qubit codes are
    solved exactly; larger codes fall back to the sampled estimator.
    Output that leaves the code is ignored, as fidelities never see it.
    """
    m = _code_process_matrices(_code_kraus_after(noise, recovery, code))[None]
    return _min_forms(m / code.code_dim, code, _qubit_methods(m), samples, seed)[0]


def transpose_fidelity_grid(
    kraus: np.ndarray,
    code: CodeSpace,
    *,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> list[WorstCaseResult]:
    """Worst-case fidelity of transpose recovery after each of a stack of
    noise channels, one result per channel.

    kraus has shape (G, N, D, D): G channels of N Kraus operators each
    (zero operators are allowed).  Each result equals
    worst_case_fidelity(noise, transpose_channel(noise, code).recovery,
    code) up to rounding, with the same method: all G code-space maps and
    their process matrices come from one batched call each, and all G
    worst cases from one _min_forms call.
    """
    kraus = np.asarray(kraus, dtype=complex)
    if kraus.ndim != 4 or kraus.shape[-2:] != (code.ambient_dim,) * 2:
        raise DimensionMismatch(
            f"expected a (G, N, {code.ambient_dim}, {code.ambient_dim}) Kraus stack, "
            f"got shape {kraus.shape}"
        )
    k = code_kraus(kraus @ code.basis)
    g, n, _, d, _ = k.shape
    m = _code_process_matrices(k.reshape(g, n * n, d, d))
    return _min_forms(m / d, code, _qubit_methods(m), samples, seed)
