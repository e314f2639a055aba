"""Dense complex linear algebra primitives.

All operators are plain numpy arrays of complex128.  psd_eigh holds the
package's one rule for the support of a PSD matrix, which
inv_sqrt_on_support inverts on; polar_unitary_on_support takes one SVD.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DimensionMismatch, NotHermitian, NotPSD

# Relative eigenvalue cutoff: eigenvalues at or below RANK_TOL *
# max(|eigenvalue|) are treated as exactly zero.  Relative thresholding
# keeps the support detection stable when channel output operators scale
# with a small noise parameter.  psd_eigh is the one place it is applied.
RANK_TOL = 1e-10

HERMITICITY_TOL = 1e-10


def _as_complex_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got array of ndim {a.ndim}")
    return a


def check_hermitian(a: np.ndarray) -> None:
    """Raise NotHermitian when max|A - A^dag| exceeds HERMITICITY_TOL *
    max(1, max|A|) for A the matrix or any matrix of a stack over leading
    axes."""
    if not a.size:
        return
    scale = np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1)))
    dev = np.max(np.abs(a - a.conj().swapaxes(-1, -2)), axis=(-2, -1))
    limit = HERMITICITY_TOL * scale
    bad = np.flatnonzero(dev > limit)
    if bad.size:
        i = bad[0]
        raise NotHermitian(
            f"max|A - A^dag| = {dev.flat[i]:.3e} exceeds tolerance {limit.flat[i]:.3e}"
        )


def psd_eigh(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The support rule of the package, for a PSD matrix or a stack of
    them over leading axes (..., n, n), n = 0 included: one eigh of the
    Hermitian part A = V diag(lam) V^dag, returned as (lam ascending, V,
    keep) with keep = lam > RANK_TOL * max|lam|, the eigenvalues that
    count as nonzero.  Raises NotHermitian as check_hermitian does, NotPSD
    when an eigenvalue lies below -RANK_TOL * max|lam|, and
    DimensionMismatch for non-square input."""
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected square matrices, got shape {a.shape}")
    check_hermitian(a)
    vals, vecs = np.linalg.eigh((a + a.conj().swapaxes(-1, -2)) / 2.0)
    cutoff = RANK_TOL * np.max(np.abs(vals), axis=-1, initial=0.0)
    low = np.flatnonzero(np.min(vals, axis=-1, initial=0.0) < -cutoff)
    if low.size:
        i = low[0]
        raise NotPSD(f"eigenvalue {vals[..., 0].flat[i]:.3e} below -{cutoff.flat[i]:.3e}")
    return vals, vecs, vals > cutoff[..., None]


def inv_sqrt_on_support(a) -> tuple[np.ndarray, np.ndarray]:
    """Inverse square root of a PSD matrix, inverted on its support only.

    Returns (B, support) where B = sum over the eigenvalues psd_eigh keeps
    of lam^(-1/2) |v><v| and support is the projector onto those
    eigenvectors, so B A B = support.  Raises NotPSD as psd_eigh does.
    """
    vals, vecs, keep = psd_eigh(_as_complex_matrix(a))
    vs = vecs[:, keep]
    return (vs / np.sqrt(vals[keep])) @ vs.conj().T, vs @ vs.conj().T


def polar_unitary_on_support(a) -> np.ndarray:
    """Unitary factor W of the polar decomposition A = W (A^dag A)^(1/2).

    W = U V^dag from the SVD A = U S V^dag: unitary on the whole space,
    it maps the support of A^dag A onto the range of A as
    A (A^dag A)^(-1/2) does.  Off that support W follows the singular
    vectors the SVD picks, so only its action on the support is canonical.
    """
    a = _as_complex_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch("polar decomposition expects a square operator")
    u, _, vh = np.linalg.svd(a)
    return u @ vh
