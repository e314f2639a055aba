"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library code paths they are used
to check: the polar oracle goes through scipy's SVD, the fidelity oracle
evaluates Kraus amplitudes on explicitly sampled states, and the two
scalar sphere minimisers (a brentq secular solve and projected gradient
descent) solve one form at a time what aqec.fidelity solves in batches,
and the reference sampler evaluates the same Haar sample stream as
aqec.fidelity in complex arithmetic on normalised states.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.optimize import brentq

from aqec import QuantumChannel, CodeSpace, bloch_state, haar_unitary
from aqec.fidelity import (
    REFINE_ITERS,
    _CHUNK,
    _code_operator_basis,
    _code_process_matrices,
    _refine_forms,
)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2.0


def random_psd(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    return a @ a.conj().T


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    rho = random_psd(dim, dim, rng)
    return rho / np.trace(rho).real


def random_tp_channel(dim: int, n_kraus: int, rng: np.random.Generator) -> QuantumChannel:
    """Haar-random CPTP channel via a Stinespring isometry."""
    u = haar_unitary(dim * n_kraus, rng)
    v = u[:, :dim]
    return QuantumChannel([v[i * dim : (i + 1) * dim, :] for i in range(n_kraus)])


def random_unital_qubit_channel(rng: np.random.Generator, n_unitaries: int = 4) -> QuantumChannel:
    """Random mixture of unitaries: TP and unital by construction."""
    probs = rng.dirichlet(np.ones(n_unitaries))
    return QuantumChannel(
        [np.sqrt(probs[i]) * haar_unitary(2, rng) for i in range(n_unitaries)]
    )


def embed_qubit_channel(
    channel: QuantumChannel, code: CodeSpace
) -> QuantumChannel:
    """Lift a 2x2-Kraus channel to ambient dimension, acting inside the code."""
    w = code.basis
    return QuantumChannel([w @ k @ w.conj().T for k in channel.kraus])


def remix_kraus(channel: QuantumChannel, rng: np.random.Generator) -> QuantumChannel:
    """Equivalent channel with Kraus operators mixed by a Haar unitary."""
    n = channel.n_kraus
    u = haar_unitary(n, rng)
    stack = np.stack(channel.kraus)
    return QuantumChannel(list(np.einsum("ij,iab->jab", u, stack)))


def svd_polar_oracle(a: np.ndarray) -> np.ndarray:
    """Unitary polar factor from scipy's SVD."""
    u, _, vh = scipy.linalg.svd(a)
    return u @ vh


def sqrtm_oracle(a: np.ndarray) -> np.ndarray:
    """PSD square root from numpy's eigh, negative rounding-level
    eigenvalues clipped to zero: defined on singular input, where
    scipy.linalg.sqrtm warns."""
    vals, vecs = np.linalg.eigh((a + a.conj().T) / 2.0)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def code_paulis(code: CodeSpace) -> list[np.ndarray]:
    """P and the code-space Paulis sigma_x, y, z of a qubit code, read off
    bloch_state(code, e_k) = (P + sigma_k) / 2."""
    p = code.projector()
    return [p] + [2.0 * bloch_state(code, e) - p for e in np.eye(3)]


def code_process_matrix(
    phi: QuantumChannel, code: CodeSpace, leak_tol: float = 1e-9
) -> np.ndarray:
    """Real process matrix M_ab = tr(g_a phi(g_b)) / d of phi on the code,
    g_a the code operator basis, as the worst-case solvers read it.
    Asserts first that phi keeps code inputs on the code: (I - P) K W = 0
    for every Kraus operator K, to leak_tol relative to max|K W|."""
    m = phi._stack @ code.basis
    leak = np.max(np.abs(m - code.projector() @ m))
    assert leak <= leak_tol * max(1.0, np.max(np.abs(m))), leak
    return _code_process_matrices(code.basis.conj().T @ m)


def bloch_samples(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform samples on the unit 2-sphere."""
    u = rng.standard_normal((n, 3))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def bloch_to_coeffs(s: np.ndarray) -> np.ndarray:
    """Qubit amplitudes (a, b) for Bloch vectors, rows of s."""
    a = np.sqrt(np.clip((1 + s[:, 2]) / 2, 0, 1))
    denom = np.sqrt(np.maximum(1 - s[:, 2] ** 2, 1e-300))
    phase = (s[:, 0] + 1j * s[:, 1]) / denom
    b = np.sqrt(np.clip((1 - s[:, 2]) / 2, 0, 1)) * phase
    return np.stack([a, b], axis=1)


def f2_of_states(
    channel_kraus_code: np.ndarray, coeffs: np.ndarray
) -> np.ndarray:
    """Direct squared fidelity sum_k |<psi|K_k|psi>|^2 for batched states."""
    amps = np.einsum(
        "na,kab,nb->nk", coeffs.conj(), channel_kraus_code, coeffs, optimize=True
    )
    return np.sum(np.abs(amps) ** 2, axis=1).real


def sphere_oracle_min_f2(
    noise: QuantumChannel,
    recovery: QuantumChannel | None,
    code: CodeSpace,
    n: int,
    rng: np.random.Generator,
    refine_iters: int = 200,
) -> float:
    """Sampled + locally-refined minimum of F^2 over pure code states.

    Fully independent of the library's process-matrix and secular-equation
    machinery: states are sampled explicitly and F^2 evaluated from Kraus
    amplitudes; refinement is a local projected gradient descent coded here.
    """
    w = code.basis
    if recovery is None:
        ops = [w.conj().T @ k @ w for k in noise.kraus]
    else:
        ops = [
            (w.conj().T @ r) @ (k @ w)
            for r in recovery.kraus
            for k in noise.kraus
        ]
    ks = np.stack(ops)
    d = code.code_dim
    best = np.inf
    best_c = None
    remaining = n
    while remaining > 0:
        batch = min(remaining, 200_000)
        remaining -= batch
        if d == 2:
            cs = bloch_to_coeffs(bloch_samples(batch, rng))
        else:
            z = rng.standard_normal((batch, d)) + 1j * rng.standard_normal((batch, d))
            cs = z / np.linalg.norm(z, axis=1, keepdims=True)
        f2 = f2_of_states(ks, cs)
        idx = int(np.argmin(f2))
        if f2[idx] < best:
            best = float(f2[idx])
            best_c = cs[idx]
    # local refinement
    c = best_c
    f = best
    step = 0.1
    for _ in range(refine_iters):
        v = np.einsum("a,kab,b->k", c.conj(), ks, c)
        grad = (v.conj()[:, None] * (ks @ c)).sum(0)
        grad += (v[:, None] * np.einsum("kba,b->ka", ks.conj(), c)).sum(0)
        g = grad - c * np.vdot(c, grad)
        if np.linalg.norm(g) < 1e-14:
            break
        moved = False
        while step > 1e-17:
            t = c - step * g
            t /= np.linalg.norm(t)
            ft = float(f2_of_states(ks, t[None, :])[0])
            if ft < f - 1e-18:
                c, f = t, ft
                step *= 1.5
                moved = True
                break
            step *= 0.5
        if not moved:
            break
    return min(best, f)


def scalar_min_quadratic_on_sphere(
    c0: float, b: np.ndarray, n_sym: np.ndarray
) -> tuple[float, np.ndarray]:
    """Global minimum of c0 + 2 b.s + s^T N s over real unit vectors s, one
    problem at a time.

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


def sphere_quartic_min(
    q: np.ndarray, c0: np.ndarray, iters: int = 300
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


def reference_min_forms_sampled(
    q: np.ndarray, n: int, seed: int, refine_iters: int = REFINE_ITERS
) -> tuple[np.ndarray, np.ndarray]:
    """Sampled minimum of each form s^T Q_g s of a stack q (G, d^2, d^2):
    the same draws as aqec.fidelity._min_forms_sampled (chunks of _CHUNK
    states, the real parts then the imaginary parts), normalised as
    complex vectors, s_a = c^dag g_a c formed from each state's complex
    outer product, evaluated 2^18 entries of s @ Q at a time, the best
    sample of each form then refined by _refine_forms."""
    q = (q + q.swapaxes(-1, -2)) / 2.0
    forms, dim, _ = q.shape
    d = int(round(np.sqrt(dim)))
    gens_t = _code_operator_basis(d).reshape(dim, dim).T
    wide = q.swapaxes(0, 1).reshape(dim, forms * dim)
    rows = max(1, (1 << 18) // (forms * dim))
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
            outer = (cb.conj()[:, :, None] * cb[:, None, :]).reshape(len(cb), dim)
            s = (outer @ gens_t).real
            vals = np.einsum("nga,na->ng", (s @ wide).reshape(len(cb), forms, dim), s)
            idx = np.argmin(vals, axis=0)
            low_vals = vals[idx, cols]
            low = low_vals < best
            best[low] = low_vals[low]
            best_c[low] = cs[lo + idx[low]]
    f_ref, c_ref = _refine_forms(q, best_c, refine_iters)
    keep = f_ref <= best
    return np.where(keep, f_ref, best), np.where(keep[:, None], c_ref, best_c)
