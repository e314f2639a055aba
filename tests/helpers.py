"""Shared fixtures and independent oracles for the test suite.

The channel algebra the tests check the library against (composition,
Choi matrices and Choi equality, the TP defect, the recovered map on the
code and its completion by the maximally mixed code state) lives here,
with the bit-flip fixture, Bloch states of qubit codes, computational
basis vectors and a Kronecker-product Pauli string oracle.  The package
ships only what the transpose recovery, its conditions, its worst case
and the CLI use.

The oracles here deliberately avoid the library code paths they are used
to check: the polar oracle goes through scipy's SVD, the standard
recovery oracle through numpy's eigh of alpha and one full polar unitary
per syndrome, the code Kraus oracle through numpy's SVD of the noise on
the code, the fidelity oracle evaluates Kraus amplitudes on
explicitly sampled states, and the two scalar sphere minimisers (a
brentq secular solve and projected gradient descent) solve one form at a
time what aqec.fidelity solves in batches, and the reference sampler
evaluates the same Haar sample stream as aqec.fidelity in complex
arithmetic on normalised states and picks its refinement starts one form
at a time.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.optimize import brentq

from aqec import (
    CodeSpace,
    QuantumChannel,
    complete_to_tp,
    polar_unitary_on_support,
)
from aqec.codes import _haar_columns, _su_generators
from aqec.linalg import RANK_TOL
from aqec.fidelity import (
    REFINE_ITERS,
    _CHUNK,
    _POOL_PER_START,
    _SAME_BASIN,
    _code_operator_basis,
    _code_process_matrices,
    _refine_forms,
    _start_count,
)
from aqec.transpose import _code_kraus, _noise_on_code


# ------------------------------------------- channel algebra and fixtures

def compose(r: QuantumChannel, e: QuantumChannel) -> QuantumChannel:
    """Channel applying e first, then r: Kraus set {R_j E_i}, j-major,
    products of norm below 1e-12 pruned."""
    ops = [rj @ ei for rj in r.kraus for ei in e.kraus]
    return QuantumChannel([k for k in ops if np.linalg.norm(k) >= 1e-12]
                          or [np.zeros_like(ops[0])])


def tp_defect(e: QuantumChannel) -> float:
    """Operator norm of sum_i E_i^dag E_i - I; zero for TP channels."""
    return float(np.linalg.norm(e.kraus_sum() - np.eye(e.dims_in), 2))


def choi(e: QuantumChannel) -> np.ndarray:
    """Choi matrix sum_i vec(E_i) vec(E_i)^dag with row-major vec, of
    shape (dims_out dims_in, dims_out dims_in)."""
    flat = e.kraus.reshape(e.n_kraus, e.dims_out * e.dims_in)
    return flat.T @ flat.conj()


def channels_equal(e1: QuantumChannel, e2: QuantumChannel, tol: float = 1e-9) -> bool:
    """True when the Choi matrices agree entrywise within tol: insensitive
    to the choice of Kraus representation on either side."""
    assert (e1.dims_in, e1.dims_out) == (e2.dims_in, e2.dims_out)
    return float(np.max(np.abs(choi(e1) - choi(e2)))) <= tol


def recovered_channel(e: QuantumChannel, code: CodeSpace) -> QuantumChannel:
    """Transpose recovery after e, restricted to the code: the lift
    {W K_ij W^dag}, i-major, of K = _code_kraus(M), M_i = E_i W."""
    w, d = code.basis, code.code_dim
    k = _code_kraus(_noise_on_code(e.kraus, code)).reshape(-1, d, d)
    return QuantumChannel(list(w @ k @ w.conj().T))


def compose_on_code_reference(wr: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The code-basis Kraus stack of a recovery after noise, one operator
    at a time: (W^dag R_j)(E_i W) for j over the recovery wr (G, R, d, D)
    or (R, d, D), then i over the noise on the code m (G, D, N, d), stacked
    j-major as (G, R N, d, d)."""
    wr = np.broadcast_to(wr, (len(m),) + wr.shape[-3:])
    return np.stack([np.stack([rj @ m[g, :, i] for rj in wr[g] for i in range(m.shape[2])])
                     for g in range(len(m))])


def completed_on_code(k: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Process matrices of a recovered map completed by re-preparing the
    maximally mixed code state, at the Kraus level: k (G, X, d, d) the
    code-basis Kraus stack of a recovery after noise, m (G, D, N, d) the
    noise on the code.  The completion rho -> tr(F rho) I / d, with
    F = sum_i M_i^dag M_i - sum_x K_x^dag K_x, has the Kraus operators
    sqrt(mu_c / d) e_a v_c^dag for the eigenpairs (mu_c, v_c) of F from
    numpy's eigh, negative mu_c clipped to 0; the d^2 operators per gamma
    are appended to k before _code_process_matrices."""
    g, _, d, _ = k.shape
    noise, kept = m.reshape(g, -1, d), k.reshape(g, -1, d)
    f = noise.conj().swapaxes(-1, -2) @ noise - kept.conj().swapaxes(-1, -2) @ kept
    mu, v = np.linalg.eigh(f)
    rows = np.sqrt(np.clip(mu, 0.0, None) / d)[..., None] * v.conj().swapaxes(-1, -2)
    fill = np.eye(d)[:, None, :, None] * rows[:, None, :, None, :]
    return _code_process_matrices(np.concatenate([k, fill.reshape(g, d * d, d, d)], axis=1))


def bloch_state(code: CodeSpace, s) -> np.ndarray:
    """Density matrix (P + s . sigma) / 2 of a qubit code for a Bloch
    vector s, with the code-space Paulis built from the basis vectors
    |v1>, |v2>:

        sigma_x = |v1><v2| + |v2><v1|
        sigma_y = -i(|v1><v2| - |v2><v1|)
        sigma_z = |v1><v1| - |v2><v2|
    """
    w = code.basis
    sigma = sum(x * g for x, g in zip(s, _su_generators(2)))
    return (code.projector() + w @ sigma @ w.conj().T) / 2.0


_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1, -1]).astype(complex),
}


def basis_state(bits: str) -> np.ndarray:
    """Computational basis vector for a bitstring like '0011'."""
    v = np.zeros(2 ** len(bits), dtype=complex)
    v[int(bits, 2)] = 1.0
    return v


def pauli_string(spec: str) -> np.ndarray:
    """Kronecker product of single-qubit Paulis, e.g. 'XZZXI', first
    factor most significant."""
    op = np.array([[1.0]], dtype=complex)
    for ch in spec:
        op = np.kron(op, _PAULI[ch])
    return op


def bit_flip_code() -> CodeSpace:
    """Three-qubit repetition code span{|000>, |111>}."""
    return CodeSpace(np.eye(8, dtype=complex)[:, [0, 7]])


def bit_flip_channel(q: float) -> QuantumChannel:
    """Independent bit flips truncated to at most one flip (CP, sub-TP):

        {sqrt((1-q)^3) I, sqrt(q(1-q)^2) X_k for k = 1, 2, 3}.
    """
    ops = [np.sqrt((1 - q) ** 3) * pauli_string("III")]
    for s in ("XII", "IXI", "IIX"):
        ops.append(np.sqrt(q * (1 - q) ** 2) * pauli_string(s))
    return QuantumChannel(ops)


# ------------------------------------------------------ random instances

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
    u = _haar_columns(rng, dim * n_kraus, dim * n_kraus)
    v = u[:, :dim]
    return QuantumChannel([v[i * dim : (i + 1) * dim, :] for i in range(n_kraus)])


def random_unital_qubit_channel(rng: np.random.Generator, n_unitaries: int = 4) -> QuantumChannel:
    """Random mixture of unitaries: TP and unital by construction."""
    probs = rng.dirichlet(np.ones(n_unitaries))
    return QuantumChannel(
        [np.sqrt(probs[i]) * _haar_columns(rng, 2, 2) for i in range(n_unitaries)]
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
    u = _haar_columns(rng, n, n)
    stack = np.stack(channel.kraus)
    return QuantumChannel(list(np.einsum("ij,iab->jab", u, stack)))


def svd_polar_oracle(a: np.ndarray) -> np.ndarray:
    """Unitary polar factor from scipy's SVD."""
    u, _, vh = scipy.linalg.svd(a)
    return u @ vh


def svd_code_kraus_oracle(m: np.ndarray) -> np.ndarray:
    """_code_kraus of the noise on the code m (..., D, N, d) from numpy's
    SVD wide = U diag(s) Y^dag of wide = [M_1 ... M_N], with no eigh of
    E(P): K = Y diag(s [s^2 > RANK_TOL s_max^2]) Y^dag, the package's
    support rule on E(P) = U diag(s^2) U^dag, by a backward-stable route."""
    *lead, dim, n, d = m.shape
    wide = m.reshape(*lead, dim, n * d)
    _, s, yh = np.linalg.svd(wide, full_matrices=False)
    s = np.where(s**2 > RANK_TOL * s[..., :1] ** 2, s, 0.0)
    k = (yh.conj().swapaxes(-1, -2) * s[..., None, :]) @ yh
    return k.reshape(*lead, n, d, n, d).swapaxes(-3, -2)


def polar_r_perf(cert, e: QuantumChannel, code: CodeSpace) -> QuantumChannel:
    """The standard recovery by its textbook construction: Kraus
    {P U_k^dag} with U_k the full polar unitary of F_k P,
    F_k = sum_i u_ik E_i, for the eigenvalues d_k of alpha = u diag(d) u^dag
    (numpy's eigh of the certificate's alpha) above 1e-10 max(d)."""
    p = code.projector()
    vals, rotation = np.linalg.eigh(cert.alpha)
    ops = []
    for k in np.flatnonzero(vals > 1e-10 * max(float(vals[-1]), 0.0)):
        f_k = np.einsum("i,iab->ab", rotation[:, k], np.stack(e.kraus))
        ops.append(p @ polar_unitary_on_support(f_k @ p).conj().T)
    return QuantumChannel(ops)


def complete_to_tp_leung_recovery() -> QuantumChannel:
    """The leung41 syndrome recovery completed by complete_to_tp: the
    no-damping sector projector and the four damped-image isometries of
    the four-qubit code, with the trace defect's eigenvectors, from its
    eigh, routed to |0_L>."""
    def ket(bits: str) -> np.ndarray:
        return np.eye(16)[int(bits, 2)]

    v0 = (ket("0000") + ket("1111")) / np.sqrt(2.0)
    v1 = (ket("0011") + ket("1100")) / np.sqrt(2.0)
    ops = [sum(np.outer(ket(b), ket(b)) for b in ("0000", "1111", "0011", "1100"))]
    for d0, d1 in (("0111", "0100"), ("1011", "1000"), ("1101", "0001"), ("1110", "0010")):
        ops.append(np.outer(v0, ket(d0)) + np.outer(v1, ket(d1)))
    return complete_to_tp(QuantumChannel(ops), (v0 / np.linalg.norm(v0))[:, None])


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
    m = phi.kraus @ code.basis
    leak = np.max(np.abs(m - code.projector() @ m))
    assert leak <= leak_tol * max(1.0, np.max(np.abs(m))), leak
    return _code_process_matrices(code.basis.conj().T @ m)


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
    outer product, evaluated 2^18 entries of s @ Q at a time.  Every value
    is kept; per form, one scalar loop walks its _POOL_PER_START * k lowest
    samples in order (k = _start_count(d)) and takes each one that overlaps
    no start taken before by |<c_i|c_j>| >= _SAME_BASIN, up to k starts.
    Each form's starts are refined by _refine_forms, and the lowest result,
    the earliest start on ties, is kept unless it lies above the best
    sample."""
    q = (q + q.swapaxes(-1, -2)) / 2.0
    forms, dim, _ = q.shape
    d = int(round(np.sqrt(dim)))
    k = _start_count(d)
    gens_t = _code_operator_basis(d).reshape(dim, dim).T
    wide = q.swapaxes(0, 1).reshape(dim, forms * dim)
    rows = max(1, (1 << 18) // (forms * dim))
    rng = np.random.default_rng(seed)
    all_vals, all_cs = [], []
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
            all_vals.append(np.einsum("nga,na->ng", (s @ wide).reshape(len(cb), forms, dim), s))
        all_cs.append(cs)
    vals, cs = np.concatenate(all_vals), np.concatenate(all_cs)
    out_vals, out_cs = np.empty(forms), np.empty((forms, d), dtype=complex)
    for g in range(forms):
        order = np.argsort(vals[:, g], kind="stable")[: _POOL_PER_START * k]
        starts = []
        for i in order:
            if len(starts) < k and all(abs(np.vdot(c, cs[i])) < _SAME_BASIN for c in starts):
                starts.append(cs[i])
        f_ref, c_ref = _refine_forms(np.repeat(q[g : g + 1], len(starts), axis=0),
                                     np.array(starts), refine_iters)
        best = int(np.argmin(f_ref))
        if f_ref[best] <= vals[order[0], g]:
            out_vals[g], out_cs[g] = f_ref[best], c_ref[best]
        else:
            out_vals[g], out_cs[g] = vals[order[0], g], cs[order[0]]
    return out_vals, out_cs
