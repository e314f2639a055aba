"""Worst-case fidelity of a channel over the pure states of a code.

For a map Phi acting inside a d-dimensional code with Hermitian operator
basis {O_a}, the process matrix M_ab = tr(O_a Phi(O_b)) / d is real, and
the squared fidelity of a pure code state with coefficient vector s
(density matrix (1/d) sum_a s_a O_a, s_0 = 1) is

    F^2(psi, Phi) = (1/d) s^T M s = (1/d) s^T M_sym s.

Every worst case here, and so the eta of conditions.aqec_diagnostics,
goes through _min_forms, which minimises a whole stack of such forms at
once, on one code or on several codes of one dimension, and chooses the
method:

- Qubit codes are solved exactly on the Bloch sphere.  One stacked eigh
  of the symmetrized traceless blocks; forms whose map is trace
  preserving and unital have no linear term and take the smallest
  eigenvalue; the rest solve the Lagrange-multiplier secular equation by
  a vectorised, safeguarded Newton method (_min_quadratic_on_sphere).
- For d > 2 only a sampled estimate (an upper bound on the true minimum)
  is provided, by multi-start local search (_min_forms_sampled).  One
  shared stream of DEFAULT_SAMPLES Haar-random code states seeds the
  starts: each form keeps a small pool of its lowest samples and takes
  from it up to 8 starts (d = 3) or 16 (d >= 4) in distinct basins, two
  states with |<c_i|c_j>| >= 0.9 counting as one.  Every form x start is
  refined in one batched Riemannian Newton call (_refine_forms), and
  each form keeps its lowest value.  A single start from the best sample
  stops in a local minimum on about one form in ten at d = 4 whatever the
  sample count, so the samples need only land one start in the global
  minimum's basin.  The sampler scores blocks of states in real
  arithmetic through the generator table the refinement reads
  (_real_generators): s_a = r^T Gamma_a r / |r|^2 for r = (x, y) the
  real and imaginary parts of a state's unnormalised draw, and only the
  pooled states are made complex.

The public entry points are worst_case_fidelity, for one noise and
recovery pair, and transpose_fidelity_grid, for transpose recovery over
a stack of noise channels.  Both score the normalised noise, as the
transpose module sets out, and build their process matrices in
_recovered_maps, as every sweep and search curve does.  The module needs
only numpy.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .channels import QuantumChannel
from .codes import CodeSpace, _su_generators
from .exceptions import DimensionMismatch, PreconditionViolated
from .linalg import _as_array, _check_size
from .transpose import _code_kraus, _normalised_noise_on_code

EXACT_UNITAL_QUBIT = "exact_unital_qubit"
LAGRANGE_QUBIT = "lagrange_qubit"
SAMPLED = "sampled"

FLAG_TOL = 1e-9
DEFAULT_SAMPLES = 1024
REFINE_ITERS = 300


class WorstCaseResult(NamedTuple):
    """Worst-case squared fidelity over pure code states.

    For the exact qubit methods f2_min is a certified global minimum; for
    the sampled method it is the best value seen (an upper bound on the
    true minimum) and `samples`/`seed` give the Haar sample stream that
    seeded its refinement starts.
    """

    f2_min: float
    eta: float
    worst_state: np.ndarray
    method: str
    samples: int | None = None
    seed: int | None = None


def _compose_on_code(wr: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Code-basis Kraus stack {(W^dag R_j)(E_i W)}, j-major, of a recovery
    after noise, batched over broadcast leading axes: wr (..., R, d, D),
    m (..., D, N, d) -> (..., R N, d, d), from one (R d, D) x (D, N d)
    product with the block [M_1 ... M_N]."""
    r, d, dim = wr.shape[-3:]
    n = m.shape[-2]
    k = wr.reshape(*wr.shape[:-3], r * d, dim) @ m.reshape(*m.shape[:-3], dim, n * d)
    lead = k.shape[:-2]
    return k.reshape(*lead, r, d, n, d).swapaxes(-3, -2).reshape(*lead, r * n, d, d)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=None)
def _code_operator_basis(d: int) -> np.ndarray:
    """The code operator basis g_a in code coordinates: the identity, then
    the traceless generators of _su_generators (the Paulis x, y, z for
    d = 2), with tr(g_a g_b) = d delta_ab.  Built once per d, read-only."""
    return _read_only(np.stack([np.eye(d)] + _su_generators(d)))


def _tp_unital(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trace-preserving and unital flags of a process matrix, or of each
    matrix of a stack."""
    e0 = np.eye(m.shape[-1])[0]
    return (np.max(np.abs(m[..., 0, :] - e0), axis=-1) <= FLAG_TOL,
            np.max(np.abs(m[..., :, 0] - e0), axis=-1) <= FLAG_TOL)


def _code_process_matrices(k: np.ndarray) -> np.ndarray:
    """Process matrices of maps given by code-basis Kraus stacks.

    k has shape (..., X, d, d).  With g_a the code operator basis
    (_code_operator_basis), M_ab = tr(g_a Phi(g_b)) / d comes from
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


def _recovered_maps(m: np.ndarray, w: np.ndarray, recovery) -> np.ndarray:
    """Process matrices (G, d^2, d^2) of a recovery after the noise on the
    code m (G, D, N, d), M_i = E_i W, W = w: recovery None is the noise
    alone (W^dag M_i), "transpose" the transpose channel (_code_kraus(M)),
    and code-basis Kraus operators W^dag R_j (..., R, d, D) are composed
    with M (_compose_on_code)."""
    if recovery is None:
        k = w.conj().T @ m.swapaxes(-3, -2)  # (G, N, d, d), m read in place
    elif isinstance(recovery, str):
        k = _code_kraus(m).reshape(len(m), -1, m.shape[-1], m.shape[-1])
    else:
        k = _compose_on_code(recovery, m)
    return _code_process_matrices(k)


_SECULAR_ITERS = 100


def _secular_solution(
    beta: np.ndarray, mu: np.ndarray, lo: np.ndarray, hi: np.ndarray, xtol: np.ndarray
) -> np.ndarray:
    """Per row, the unit vector y = -beta / (mu - lam), normalised, at the
    root lam in (lo, hi) of phi(lam) = sum_i beta_i^2 / (mu_i - lam)^2 = 1,
    where phi(lo) < 1 < phi(hi) and hi lies below every pole mu_i with
    beta_i != 0.

    Newton's method on 1/sqrt(phi) - 1, which is nearly linear in lam
    (More & Sorensen, "Computing a trust region step", 1983), started at
    hi; a step that leaves the current bracket is replaced by bisection.
    A row stops once its step is within xtol + 4 eps |lam|.
    """
    beta2 = beta**2
    lam, lo, hi = hi.copy(), lo.copy(), hi.copy()
    tol = xtol + 4.0 * np.finfo(float).eps * np.abs(lam)
    active = np.arange(len(lam))
    for _ in range(_SECULAR_ITERS):
        x = lam[active]
        inv = 1.0 / (mu[active] - x[:, None])
        terms = beta2[active] * inv * inv
        phi = terms.sum(axis=1)
        h = 1.0 / np.sqrt(phi) - 1.0
        lo[active] = np.where(h > 0, x, lo[active])
        hi[active] = np.where(h > 0, hi[active], x)
        step = h * phi * np.sqrt(phi) / (terms * inv).sum(axis=1)
        new = x + step
        done = np.abs(step) <= tol[active]
        outside = ~(done | ((new > lo[active]) & (new < hi[active])))
        new[outside] = 0.5 * (lo[active] + hi[active])[outside]
        lam[active] = new
        active = active[~done]
        if not active.size:
            break
    y = -beta / (mu - lam[:, None])
    return y / np.linalg.norm(y, axis=-1, keepdims=True)


def _min_quadratic_on_sphere(
    c0: np.ndarray, b: np.ndarray, n_sym: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Global minima of c0 + 2 b.s + s^T N s over real unit vectors s, for
    a stack of problems: c0 (G,), b (G, k), n_sym (G, k, k).  Returns the
    minima (G,) and the minimisers (G, k).

    Trust-region-style solver on one stacked eigh of N: stationary points
    satisfy (N - lam I) s = -b with lam at or below the smallest
    eigenvalue mu_0 of N.  The candidates are the secular root strictly
    below mu_0 (easy branch), and the solution on the complement of the
    bottom eigenspace with its remaining length filled along a bottom
    eigenvector, or, when that solution is longer than one, the complement
    terms' own secular root (degenerate branch); the lower one is kept.
    A form with b = 0 has no easy branch, and its degenerate branch is the
    bottom eigenvector.
    """
    n_sym = (n_sym + n_sym.swapaxes(-1, -2)) / 2.0
    mu, q = np.linalg.eigh(n_sym)
    bnorm = np.linalg.norm(b, axis=-1)
    # mu ascends, so its largest magnitude sits at one end
    scale = np.maximum(np.maximum(1.0, bnorm), np.maximum(-mu[:, 0], mu[:, -1]))
    beta = (q.swapaxes(-1, -2) @ b[..., None])[..., 0]
    mu0 = mu[:, 0]
    cluster = mu <= (mu0 + 1e-10 * scale)[:, None]
    beta_min_norm = np.linalg.norm(np.where(cluster, beta, 0.0), axis=-1)
    lo = mu0 - bnorm - 1e-3 * scale
    xtol = 1e-15 * scale

    # Degenerate branch, in eigenvector coordinates.
    beta_rest = np.where(cluster, 0.0, beta)
    gap = np.where(cluster, 1.0, mu - mu0[:, None])
    y_deg = -beta_rest / gap
    perp_norm = np.linalg.norm(y_deg, axis=-1)
    y_deg[:, 0] += np.sqrt(np.maximum(0.0, 1.0 - perp_norm**2))
    over = np.flatnonzero(perp_norm > 1.0)
    if over.size:
        y_deg[over] = _secular_solution(beta_rest[over], mu[over], lo[over],
                                        mu0[over] - 1e-14 * scale[over], xtol[over])
    s_deg = (q @ y_deg[..., None])[..., 0]

    # Easy branch: secular root strictly below mu_0.
    hi = mu0 - np.maximum(0.5 * beta_min_norm, 1e-14 * scale)
    easy = beta_min_norm > 1e-13 * scale
    easy[easy] = np.sum((beta[easy] / (mu[easy] - hi[easy, None])) ** 2, axis=-1) > 1.0
    easy = np.flatnonzero(easy)
    s_easy = s_deg.copy()
    if easy.size:
        y = _secular_solution(beta[easy], mu[easy], lo[easy], hi[easy], xtol[easy])
        s_easy[easy] = (q[easy] @ y[..., None])[..., 0]

    def value(s: np.ndarray) -> np.ndarray:
        quad = (s[:, None, :] @ n_sym @ s[..., None])[:, 0, 0]
        return c0 + 2.0 * (b[:, None, :] @ s[..., None])[:, 0, 0] + quad

    val_easy, val_deg = value(s_easy), value(s_deg)
    pick = val_easy <= val_deg
    return np.where(pick, val_easy, val_deg), np.where(pick[:, None], s_easy, s_deg)


_HALVINGS = 30  # backtracking halvings before a form's refinement stops
_MAX_STEP = 0.5  # longest Newton step, in radians on the unit sphere


@functools.lru_cache(maxsize=None)
def _real_generators(d: int) -> np.ndarray:
    """Real symmetric forms Gamma_a, shape (d^2, 2d, 2d), with r^T Gamma_a r
    = c^dag g_a c for r = (Re c, Im c) and g_a the code operator basis.
    Built once per d, read-only."""
    g = _code_operator_basis(d)
    return _read_only(np.block([[g.real, -g.imag], [g.imag, g.real]]))


def _coefficients(gam: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s_a = r^T Gamma_a r (n, A) and J_a = Gamma_a r (n, A, 2d) for each
    row of r (n, 2d), Gamma = gam the table of _real_generators."""
    # all J_a at once: one (n, 2d) @ (2d, A 2d) product
    jac = (r @ gam.reshape(-1, r.shape[1]).T).reshape(len(r), len(gam), -1)
    return (jac @ r[..., None])[..., 0], jac


def _form_values(
    q: np.ndarray, gam: np.ndarray, r: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """f = s^T Q s for each form of a stack q (G, A, A) at its point r
    (G, 2d), with s and J from _coefficients; also J (G, A, 2d) and Q s
    (G, A)."""
    s, jac = _coefficients(gam, r)
    qs = (q @ s[..., None])[..., 0]
    return (s[:, None, :] @ qs[..., None])[:, 0, 0], jac, qs


def _refine_forms(
    q: np.ndarray, c: np.ndarray, iters: int
) -> tuple[np.ndarray, np.ndarray]:
    """Local minima of s^T Q_g s over unit code vectors, each form of a
    symmetric stack q (G, d^2, d^2) started from its row of c (G, d).

    Riemannian Newton (Absil, Mahony & Sepulchre, Optimization Algorithms
    on Matrix Manifolds, 2008) on the unit sphere of r = (Re c, Im c):
    gradient 4 H r with H = sum_a (Q s)_a Gamma_a, Hessian 4 H + 8 J^T Q J,
    both projected off r and off the phase direction (-Im c, Re c), along
    which the objective is constant.  Each Hessian's eigenvalues are
    replaced by their absolute values, floored, so every step descends;
    steps are capped at _MAX_STEP and backtracked on the normalised
    retraction.  A form stops at a small gradient, when a full step could
    lower its value by no more than rounding, or when backtracking fails
    (_HALVINGS halvings, or fewer once the step's decrease is at that
    floor); an accepted trial's value, J and Q s serve its next iteration.
    iters caps the iterations (0: no refinement).  A d = 1 code has one
    state up to phase, at which every form takes its value Q[0, 0].
    Returns the values (G,) and the code vectors (G, d).
    """
    forms, d = c.shape
    if d == 1:
        return q[:, 0, 0].copy(), c / np.abs(c)
    gam = _real_generators(d)
    eye = np.eye(2 * d)
    r = np.concatenate([c.real, c.imag], axis=1)
    r /= np.linalg.norm(r, axis=1, keepdims=True)
    f, jac, qs = _form_values(q, gam, r)
    active = np.arange(forms)
    for _ in range(iters):
        if not active.size:
            break
        qa, ra, fa, ja, qsa = q[active], r[active], f[active], jac[active], qs[active]
        grad = 4.0 * (ja.swapaxes(-1, -2) @ qsa[..., None])[..., 0]
        # sum_a (Q s)_a Gamma_a as one (G, A) @ (A, 4 d^2) product
        hess = 4.0 * (qsa @ gam.reshape(len(gam), -1)).reshape(-1, 2 * d, 2 * d)
        hess += 8.0 * (ja.swapaxes(-1, -2) @ qa @ ja)
        phase = np.concatenate([-ra[:, d:], ra[:, :d]], axis=1)
        proj = eye - ra[:, :, None] * ra[:, None, :] - phase[:, :, None] * phase[:, None, :]
        rgrad = (proj @ grad[..., None])[..., 0]
        radial = np.sum(ra * grad, axis=1)
        lam, u = np.linalg.eigh(proj @ (hess - radial[:, None, None] * eye) @ proj)
        lam = np.abs(lam)
        lam = np.maximum(lam, 1e-8 * lam[:, -1:] + 1e-300)
        coef = (u.swapaxes(-1, -2) @ rgrad[..., None])[..., 0] / lam
        step = -(proj @ (u @ coef[..., None]))[..., 0]
        size = np.linalg.norm(step, axis=1)
        step *= np.minimum(1.0, _MAX_STEP / np.maximum(size, 1e-300))[:, None]
        slope = np.sum(rgrad * step, axis=1)
        tol = 1e-13 * np.maximum(1.0, np.abs(fa))
        done = (np.linalg.norm(rgrad, axis=1) <= tol) | (-slope <= 1e-2 * tol)
        t = np.ones(len(active))
        pending = np.flatnonzero(~done)
        for _ in range(_HALVINGS):
            if not pending.size:
                break
            trial = ra[pending] + t[pending, None] * step[pending]
            trial /= np.linalg.norm(trial, axis=1, keepdims=True)
            ft, jt, qst = _form_values(qa[pending], gam, trial)
            ok = (ft < fa[pending]) & (ft <= fa[pending] + 1e-4 * t[pending] * slope[pending])
            moved = active[pending[ok]]
            r[moved], f[moved], jac[moved], qs[moved] = trial[ok], ft[ok], jt[ok], qst[ok]
            pending = pending[~ok]
            t[pending] *= 0.5
            # a step whose decrease has shrunk to rounding level ends the search
            floor = t[pending] * -slope[pending] <= 1e-2 * tol[pending]
            done[pending[floor]] = True
            pending = pending[~floor]
        done[pending] = True
        active = active[~done]
    return f, r[:, :d] + 1j * r[:, d:]


_CHUNK = 65536  # states per draw; the draws make the sample stream of a seed
_ROW_BLOCK = 2048  # states scored at once, so that every temporary stays in cache
_FORM_BLOCK = 4  # forms whose Q_g s are held at once, for a block of states
_POOL_PER_START = 4  # lowest samples kept per form, per refinement start
_SAME_BASIN = 0.9  # |<c_i|c_j>| at or above which two starts share a basin


def _start_count(d: int) -> int:
    """Refinement starts per form at code dimension d."""
    return 8 if d <= 3 else 16


def _distinct_starts(
    vals: np.ndarray, cs: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Up to k starts per form from its pool: pool values vals (G, P), in
    ascending order per row (inf for an empty slot), and unit states cs
    (G, P, d).  Greedy in pool order: a state is taken unless it lies in the
    basin of a start already taken, |<c_i|c_j>| >= _SAME_BASIN.  Returns
    the starts (G, k, d), in pool order, and a mask (G, k) of the slots
    filled; an empty slot holds the zero vector.  The pools are small, so
    each form's walk runs over Python lists and stops at its k-th start."""
    forms, _, d = cs.shape
    near = (np.abs(cs.conj() @ cs.swapaxes(-1, -2)) >= _SAME_BASIN).tolist()  # (G, P, P)
    finite = (vals < np.inf).tolist()
    starts = np.zeros((forms, k, d), dtype=complex)
    filled = np.zeros((forms, k), dtype=bool)
    for g in range(forms):
        taken: list[int] = []
        for p, (ok, row) in enumerate(zip(finite[g], near[g])):
            if ok and not any([row[t] for t in taken]):
                taken.append(p)
                if len(taken) == k:
                    break
        starts[g, : len(taken)] = cs[g, taken]
        filled[g, : len(taken)] = True
    return starts, filled


def _min_forms_sampled(
    q: np.ndarray, n: int, seed: int, refine_iters: int = REFINE_ITERS
) -> tuple[np.ndarray, np.ndarray]:
    """Minimum over pure code states of each quadratic form s^T Q_g s in a
    stack q of shape (G, d^2, d^2), s the state's coefficients over the
    code operator basis (s_0 = 1).

    All forms share one set of n Haar-random states c = z / |z|, z = x + i y
    with x and y standard normal, drawn from seed _CHUNK states at a time
    (the real parts of a chunk, then its imaginary parts) into two buffers
    held for the call.  The draws are scored _ROW_BLOCK states at a time in
    real arithmetic, s_a = r^T Gamma_a r / |r|^2 for r = (x, y)
    (_coefficients, Gamma the refinement's _real_generators), with Q_g s
    held for _FORM_BLOCK forms at a time, so that no complex state, outer
    product or chunk-sized temporary is formed.  Each form keeps a pool of
    its _POOL_PER_START * k lowest samples, k = _start_count(d); only these
    are made complex unit vectors.  From its pool each form takes up to k
    starts in distinct basins (_distinct_starts), and all forms x starts
    are refined at once by _refine_forms; each form keeps its lowest
    refined value.  The samples serve only to seed the starts, so n trades
    sampling time against the chance that a basin holds no pool sample.
    Returns the values (G,) and the code-coefficient vectors (G, d); each
    value is the best seen, an upper bound on the true minimum.
    """
    q = (q + q.swapaxes(-1, -2)) / 2.0
    forms, dim, _ = q.shape
    d = int(round(np.sqrt(dim)))
    n_starts = _start_count(d)
    pool = _POOL_PER_START * n_starts
    gam = _real_generators(d)
    # row (g, a) of a group is Q_g[a]
    q_groups = [q[g : g + _FORM_BLOCK].reshape(-1, dim) for g in range(0, forms, _FORM_BLOCK)]
    rows = np.arange(forms)[:, None]
    rng = np.random.default_rng(seed)
    xs, ys = np.empty((2, min(n, _CHUNK), d))
    pool_vals = np.full((forms, pool), np.inf)
    pool_cs = np.zeros((forms, pool, d), dtype=complex)
    remaining = n
    while remaining > 0:
        batch = min(_CHUNK, remaining)
        remaining -= batch
        rng.standard_normal(out=xs[:batch])
        rng.standard_normal(out=ys[:batch])
        for lo in range(0, batch, _ROW_BLOCK):
            hi = min(lo + _ROW_BLOCK, batch)
            s = _coefficients(gam, np.hstack([xs[lo:hi], ys[lo:hi]]))[0]
            s = (s / s[:, :1]).T  # one state per column; s_0 = |r|^2 before the division
            vals = np.concatenate([
                np.einsum("gan,an->gn", (qg @ s).reshape(-1, dim, hi - lo), s)
                for qg in q_groups
            ])
            idx = np.argpartition(vals, min(pool, hi - lo) - 1, axis=1)[:, :pool]
            z = xs[lo + idx] + 1j * ys[lo + idx]
            merged_vals = np.concatenate([pool_vals, vals[rows, idx]], axis=1)
            merged_cs = np.concatenate(
                [pool_cs, z / np.linalg.norm(z, axis=-1, keepdims=True)], axis=1)
            # stable, so a pooled sample stays ahead of a new one of equal value
            order = np.argsort(merged_vals, axis=1, kind="stable")[:, :pool]
            pool_vals, pool_cs = merged_vals[rows, order], merged_cs[rows, order]
    starts, filled = _distinct_starts(pool_vals, pool_cs, n_starts)
    f_all = np.full(filled.shape, np.inf)
    f_all[filled], starts[filled] = _refine_forms(
        q[np.nonzero(filled)[0]], starts[filled], refine_iters)
    pick = np.argmin(f_all, axis=1)[:, None]  # the first, lowest-sample start on ties
    f_ref, c_ref = f_all[rows, pick][:, 0], starts[rows, pick][:, 0]
    best, best_c = pool_vals[:, 0], pool_cs[:, 0]
    keep = f_ref <= best
    return np.where(keep, f_ref, best), np.where(keep[:, None], c_ref, best_c)


def _min_forms(
    blocks: list[tuple[np.ndarray, CodeSpace]],
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> list[list[WorstCaseResult]]:
    """Minimum over pure code states of each fidelity form s^T Q_g s, for
    blocks (m, code) of maps on codes of one dimension d: m a stack
    (G, d^2, d^2) of process matrices M_g (_code_process_matrices),
    Q_g = M_g / d and s the state's coefficients over the code operator
    basis (s_0 = 1).  One result list per block, one result per map: the
    minimum, taken as 1 where rounding puts it above, as f2_min (1 - f2_min
    as eta) with the state of the block's code attaining it.

    The forms of all blocks are minimised together.  Qubit codes are solved
    exactly on the Bloch sphere s = (1, bloch), each form labelled by the
    flags of its M_g (_tp_unital): EXACT_UNITAL_QUBIT when it is trace
    preserving and unital, LAGRANGE_QUBIT otherwise; a Bloch minimiser
    becomes the code coefficients (1 + s_z, s_x + i s_y), normalised, or
    (0, 1) at the south pole.  Larger codes share one _min_forms_sampled
    run: upper bounds on the minima, labelled SAMPLED.  Every worst state
    is c W^T for its code coefficients c.  PreconditionViolated unless
    samples is an integer >= 1 and seed one >= 0, at every d.
    """
    _check_size(samples, "need an integer count of samples >= 1", 1, PreconditionViolated)
    _check_size(seed, "need an integer seed >= 0", 0, PreconditionViolated)
    d = blocks[0][1].code_dim
    m = np.concatenate([maps for maps, _ in blocks])
    q = m / d
    if d == 2:
        tp, unital = _tp_unital(m)
        exact = tp & unital
        q = (q + q.swapaxes(-1, -2)) / 2.0
        # The flags hold the first row and column of M to e0 within
        # FLAG_TOL; taken as exact, c0 = 1/2 and b = 0 give the eigenvalue
        # formula (1 + t_min)/2.
        c0 = np.where(exact, 0.5, q[:, 0, 0])
        b = np.where(exact[:, None], 0.0, q[:, 1:, 0])
        vals, s = _min_quadratic_on_sphere(c0, b, q[:, 1:, 1:])
        cs = np.stack([1.0 + s[:, 2], s[:, 0] + 1j * s[:, 1]], axis=1)
        cs[s[:, 2] < -1 + 1e-14] = (0.0, 1.0)
        cs /= np.linalg.norm(cs, axis=1, keepdims=True)
        tails = [(EXACT_UNITAL_QUBIT if ok else LAGRANGE_QUBIT, None, None) for ok in exact]
    else:
        vals, cs = _min_forms_sampled(q, samples, seed)
        tails = [(SAMPLED, samples, seed)] * len(vals)
    vals = np.minimum(vals, 1.0)
    out, lo = [], 0
    for maps, code in blocks:
        part = slice(lo, lo + len(maps))
        lo = part.stop
        out.append([WorstCaseResult(float(v), 1.0 - float(v), psi, *tail)
                    for v, psi, tail in zip(vals[part], cs[part] @ code.basis.T, tails[part])])
    return out


def worst_case_fidelity(
    noise: QuantumChannel,
    recovery: QuantumChannel | None,
    code: CodeSpace,
    *,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> WorstCaseResult:
    """Worst-case fidelity of recovery-after-noise over pure code states.

    recovery = None means no recovery (identity map); the noise is
    normalised first.  Qubit codes are solved exactly; larger codes fall
    back to the sampled estimator.  Output that leaves the code is
    ignored, as fidelities never see it.  DimensionMismatch unless
    recovery is None or a QuantumChannel on the code's ambient space.
    """
    m = _normalised_noise_on_code(noise.kraus, code)[0]
    if recovery is not None and (not isinstance(recovery, QuantumChannel)
                                 or recovery.kraus.shape[1:] != (code.ambient_dim,) * 2):
        raise DimensionMismatch(f"recovery must be None or a QuantumChannel on the code's "
                                f"dim {code.ambient_dim}, got {recovery!r}")
    wr = None if recovery is None else code.basis.conj().T @ recovery.kraus
    [[result]] = _min_forms([(_recovered_maps(m[None], code.basis, wr), code)], samples, seed)
    return result


def transpose_fidelity_grid(
    kraus: np.ndarray,
    code: CodeSpace,
    *,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> list[WorstCaseResult]:
    """Worst-case fidelity of transpose recovery after each of a stack of
    noise channels, one result per channel.

    kraus, passed through linalg._as_array, has shape (G, N, D, D): G >= 1
    channels of N >= 1 Kraus operators each (zero operators are allowed),
    each normalised.  Each result equals
    worst_case_fidelity(noise, transpose_channel(noise, code), code) up to
    rounding, with the same method: all G maps come from one
    _recovered_maps call and all G worst cases from one _min_forms call.
    """
    kraus = _as_array(kraus, 4, "(G, N, D, D) Kraus stack")
    if 0 in kraus.shape[:2]:
        raise DimensionMismatch(f"expected G, N >= 1, got shape {kraus.shape}")
    m = _normalised_noise_on_code(kraus, code)[0]
    [results] = _min_forms([(_recovered_maps(m, code.basis, "transpose"), code)], samples, seed)
    return results
