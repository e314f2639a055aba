"""Dense complex linear algebra primitives.

All operators are plain numpy arrays of complex128.  The functions here
make eigenvector output deterministic (fixed ordering and phase) so that
downstream constructions are bit-reproducible for identical inputs.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .exceptions import DimensionMismatch, NotHermitian, NotPSD

# Relative eigenvalue cutoff: eigenvalues below RANK_TOL * max(|eigenvalue|)
# are treated as exactly zero.  Relative thresholding keeps the support
# detection stable when channel output operators scale with a small noise
# parameter.
RANK_TOL = 1e-10

HERMITICITY_TOL = 1e-10


class EigenDecomposition(NamedTuple):
    """Eigenvalues ascending, eigenvectors as orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_complex_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got array of ndim {a.ndim}")
    return a


def _canonicalize_eigenvectors(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Fix eigenvector order and phase inside degenerate clusters.

    Within a cluster of (numerically) equal eigenvalues, eigenvectors are
    ordered by the first index of their largest-magnitude component, and
    each vector is rephased so that component is real positive.
    """
    n = len(vals)
    scale = max(1.0, float(np.max(np.abs(vals))) if n else 1.0)
    ctol = 1e-12 * scale
    vecs = vecs.copy()
    i = 0
    while i < n:
        j = i
        while j + 1 < n and vals[j + 1] - vals[j] <= ctol:
            j += 1
        if j > i:
            block = vecs[:, i : j + 1]
            keys = [int(np.argmax(np.abs(block[:, k]))) for k in range(block.shape[1])]
            order = np.argsort(keys, kind="stable")
            vecs[:, i : j + 1] = block[:, order]
        for k in range(i, j + 1):
            idx = int(np.argmax(np.abs(vecs[:, k])))
            pivot = vecs[idx, k]
            if abs(pivot) > 0:
                vecs[:, k] *= np.conj(pivot) / abs(pivot)
        i = j + 1
    return vecs


def check_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> None:
    """Raise NotHermitian when max|A - A^dag| exceeds tol * max(1, max|A|)
    for A the matrix or any matrix of a stack over leading axes."""
    if not a.size:
        return
    scale = np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1)))
    dev = np.max(np.abs(a - a.conj().swapaxes(-1, -2)), axis=(-2, -1))
    bad = np.flatnonzero(dev > tol * scale)
    if bad.size:
        i = bad[0]
        raise NotHermitian(
            f"max|A - A^dag| = {dev.flat[i]:.3e} exceeds tolerance {tol * scale.flat[i]:.3e}"
        )


def hermitian_eig(a, tol: float = HERMITICITY_TOL) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix with deterministic output.

    Raises NotHermitian when max|A - A^dag| exceeds tol * max(1, max|A|),
    and DimensionMismatch for non-square input.  Eigenvalues come back
    ascending; V diag(w) V^dag reconstructs A to machine precision.
    """
    a = _as_complex_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"matrix is {a.shape[0]}x{a.shape[1]}, expected square")
    check_hermitian(a, tol)
    vals, vecs = np.linalg.eigh((a + a.conj().T) / 2.0)
    vecs = _canonicalize_eigenvectors(vals, vecs)
    return EigenDecomposition(vals, vecs)


def inv_sqrt_on_support(a) -> tuple[np.ndarray, np.ndarray]:
    """Inverse square root of a PSD matrix, inverted on its support only.

    Returns (B, support) where B = sum over eigenvalues above the cutoff of
    lam^(-1/2) |v><v| and support is the projector onto those eigenvectors,
    so B A B = support.  The cutoff is RANK_TOL * (largest eigenvalue);
    eigenvalues at or below it count as zero.  Raises NotPSD when an
    eigenvalue is more negative than the cutoff allows.
    """
    vals, vecs = hermitian_eig(a)
    scale = float(np.max(np.abs(vals))) if vals.size else 0.0
    cutoff = RANK_TOL * scale
    if vals.size and float(vals[0]) < -cutoff:
        raise NotPSD(f"eigenvalue {vals[0]:.3e} below -{cutoff:.3e}")
    mask = vals > cutoff
    vs = vecs[:, mask]
    b = (vs / np.sqrt(vals[mask])) @ vs.conj().T
    support = vs @ vs.conj().T
    return b, support


def psd_sqrt(a) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix.  Raises NotPSD
    when an eigenvalue lies below -RANK_TOL * (largest eigenvalue)."""
    vals, vecs = hermitian_eig(a)
    scale = float(np.max(np.abs(vals))) if vals.size else 0.0
    cutoff = RANK_TOL * scale
    if vals.size and float(vals[0]) < -cutoff:
        raise NotPSD(f"eigenvalue {vals[0]:.3e} below -{cutoff:.3e}")
    w = np.sqrt(np.clip(vals, 0.0, None))
    return (vecs * w) @ vecs.conj().T


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


def max_abs(a) -> float:
    """Largest entrywise absolute value."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))
