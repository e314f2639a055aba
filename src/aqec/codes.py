"""Subspace codes and Haar-random codes.

A code is a d-dimensional subspace of a D-dimensional Hilbert space,
stored as the D x d isometry whose columns are an orthonormal basis.
The projector is derived on demand.

JSON wire format::

    {"ambient_dim": D, "code_dim": d,
     "basis": [[[re, im], ...D entries...], ...d vectors...]}
"""

from __future__ import annotations

import numpy as np

from .channels import _json_fields, _matrix_to_pairs, _pairs_to_matrix
from .exceptions import DimensionMismatch
from .linalg import _as_array, _check_size

ORTHONORMALITY_TOL = 1e-12


class CodeSpace:
    """Orthonormal basis of a code subspace, columns of `basis`.

    The basis passes linalg._as_array; DimensionMismatch unless it has
    1 <= d <= D columns, orthonormal ones.
    """

    __slots__ = ("basis", "ambient_dim", "code_dim")

    def __init__(self, basis: np.ndarray):
        basis = _as_array(basis, 2, "code basis")
        d_amb, d_code = basis.shape
        if d_code > d_amb or d_code < 1:
            raise DimensionMismatch(
                f"code dimension {d_code} invalid for ambient dimension {d_amb}"
            )
        gram = basis.conj().T @ basis
        dev = float(np.max(np.abs(gram - np.eye(d_code))))
        if dev > ORTHONORMALITY_TOL:
            raise DimensionMismatch(
                f"basis not orthonormal: max|<vi|vj> - delta_ij| = {dev:.3e}"
            )
        basis.flags.writeable = False
        self.basis = basis
        self.ambient_dim = d_amb
        self.code_dim = d_code

    def projector(self) -> np.ndarray:
        """P = sum_k |v_k><v_k|, the rank-d projector onto the code."""
        return self.basis @ self.basis.conj().T

    def __repr__(self) -> str:
        return f"CodeSpace(ambient_dim={self.ambient_dim}, code_dim={self.code_dim})"


def _haar_columns(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """The first cols columns of a Haar-distributed rows x rows unitary,
    via QR of a complex Ginibre matrix whose R diagonal is rephased to be
    real positive: exactly Haar distributed, deterministic for a given rng.
    """
    z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))


def random_code(ambient_dim: int, code_dim: int, seed: int) -> CodeSpace:
    """Haar-random code: first code_dim columns of a Haar-random unitary.

    Deterministic for a given seed (PCG64 generator).  DimensionMismatch
    unless both are integers and 1 <= code_dim <= ambient_dim.
    """
    _check_size(ambient_dim, "random code needs an integer ambient_dim >= 1")
    _check_size(code_dim, "random code needs an integer code_dim >= 1")
    if code_dim > ambient_dim:
        raise DimensionMismatch(
            f"code dimension {code_dim} exceeds ambient dimension {ambient_dim}"
        )
    return CodeSpace(_haar_columns(np.random.default_rng(seed), ambient_dim, code_dim))


def _su_generators(d: int) -> list[np.ndarray]:
    """Traceless Hermitian generators on C^d, ordered symmetric pairs,
    then antisymmetric pairs, then diagonal, scaled to tr(O^2) = d."""
    gens: list[np.ndarray] = []
    scale = np.sqrt(d / 2.0)
    for j in range(d):
        for k in range(j + 1, d):
            g = np.zeros((d, d), dtype=complex)
            g[j, k] = g[k, j] = 1.0
            gens.append(scale * g)
    for j in range(d):
        for k in range(j + 1, d):
            g = np.zeros((d, d), dtype=complex)
            g[j, k] = -1j
            g[k, j] = 1j
            gens.append(scale * g)
    for l in range(1, d):
        g = np.zeros((d, d), dtype=complex)
        g[:l, :l] = np.eye(l)
        g[l, l] = -l
        gens.append(scale * np.sqrt(2.0 / (l * (l + 1))) * g)
    return gens


def code_to_json(code: CodeSpace) -> dict:
    return {
        "ambient_dim": code.ambient_dim,
        "code_dim": code.code_dim,
        "basis": [_matrix_to_pairs(code.basis[:, k]) for k in range(code.code_dim)],
    }


def code_from_json(data: dict) -> CodeSpace:
    d_amb, d_code, vecs = _json_fields(data, "code", "ambient_dim", "code_dim", "basis")
    cols = [_pairs_to_matrix(v, d_amb, 1).reshape(-1) for v in vecs]
    if len(cols) != d_code:
        raise DimensionMismatch(
            f"code JSON declares code_dim {d_code} but has {len(cols)} basis vectors"
        )
    return CodeSpace(np.column_stack(cols))
