"""Dense complex linear algebra primitives.

All operators are numpy complex128 arrays, read from callers by _as_array.
psd_eigh holds the package's one rule for the support of a PSD matrix, which
inv_sqrt_on_support inverts on; polar_unitary_on_support takes one SVD.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DimensionMismatch, NonFiniteInput, NotHermitian, NotPSD

# Relative eigenvalue cutoff: eigenvalues at or below RANK_TOL *
# max(|eigenvalue|) are treated as exactly zero.  Relative thresholding
# keeps the support detection stable when channel output operators scale
# with a small noise parameter.  psd_eigh cuts the support there, and
# inv_sqrt_on_support rejects an eigenvalue below minus it.
RANK_TOL = 1e-10

HERMITICITY_TOL = 1e-10


def _as_array(a, ndim: int, what: str) -> np.ndarray:
    """a as a new complex128 array of ndim axes: DimensionMismatch, naming what, for
    ragged or non-numeric input or other axes, NonFiniteInput for NaN or inf."""
    try:
        arr = np.array(a, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:  # overflow: an int past float64
        raise DimensionMismatch(f"{what} is not a numeric array: {exc}") from exc
    if arr.ndim != ndim:
        raise DimensionMismatch(f"{what} needs {ndim} axes, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteInput(f"{what} holds NaN or infinite entries")
    return arr


def _check_size(n, rule: str) -> None:
    """DimensionMismatch (rule, then n) unless n is an integer >= 1, not a bool."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise DimensionMismatch(f"{rule}, got {n!r}")


def psd_eigh(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The support rule of the package, for a Hermitian PSD matrix or a
    stack of them (..., n, n), n = 0 included: one eigh A = V diag(lam) V^dag,
    returned as (lam ascending, V, keep), keep = lam > RANK_TOL * max|lam|.
    It checks nothing: its callers pass Gram matrices the package builds."""
    vals, vecs = np.linalg.eigh(a)
    cutoff = RANK_TOL * np.max(np.abs(vals), axis=-1, initial=0.0)
    return vals, vecs, vals > cutoff[..., None]


def inv_sqrt_on_support(a) -> tuple[np.ndarray, np.ndarray]:
    """Inverse square root of a PSD matrix, inverted on its support only.

    Returns (B, support) where B = sum over the eigenvalues psd_eigh keeps
    of lam^(-1/2) |v><v| and support is the projector onto those
    eigenvectors, so B A B = support.  A passes _as_array; DimensionMismatch
    unless it is square, NotHermitian when max|A - A^dag| exceeds
    HERMITICITY_TOL * max(1, max|A|), and NotPSD when an eigenvalue of its
    Hermitian part lies below -RANK_TOL * max|lam|.
    """
    a = _as_array(a, 2, "matrix")
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected square matrices, got shape {a.shape}")
    dev = np.max(np.abs(a - a.conj().T), initial=0.0)
    limit = HERMITICITY_TOL * max(1.0, np.max(np.abs(a), initial=0.0))
    if dev > limit:
        raise NotHermitian(f"max|A - A^dag| = {dev:.3e} exceeds tolerance {limit:.3e}")
    vals, vecs, keep = psd_eigh((a + a.conj().T) / 2.0)
    cutoff = RANK_TOL * np.max(np.abs(vals), initial=0.0)
    if np.min(vals, initial=0.0) < -cutoff:
        raise NotPSD(f"eigenvalue {vals[0]:.3e} below -{cutoff:.3e}")
    vs = vecs[:, keep]
    return (vs / np.sqrt(vals[keep])) @ vs.conj().T, vs @ vs.conj().T


def polar_unitary_on_support(a) -> np.ndarray:
    """Unitary factor W of the polar decomposition A = W (A^dag A)^(1/2).

    W = U V^dag from the SVD A = U S V^dag: unitary on the whole space,
    it maps the support of A^dag A onto the range of A as
    A (A^dag A)^(-1/2) does.  Off that support W follows the singular
    vectors the SVD picks, so only its action on the support is canonical.
    A passes _as_array; DimensionMismatch unless it is square.
    """
    a = _as_array(a, 2, "matrix")
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch("polar decomposition expects a square operator")
    u, _, vh = np.linalg.svd(a)
    return u @ vh
