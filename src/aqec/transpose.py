"""Transpose-channel recovery map for a (channel, code) pair.

For a noise channel E ~ {E_i} and a code with projector P, the transpose
channel is the recovery map with Kraus operators

    R_i = P E_i^dag E(P)^(-1/2),

the inverse square root taken on the support of E(P).  It is trace
preserving on operators supported on supp E(P), outputs states on the
code, and does not depend on which Kraus representation of E was supplied.
Outside supp E(P) the Kraus operators act as zero; all fidelity
computations in this package feed the map code inputs only, for which the
noise output always lies inside that support.

Restricted to the code, recovery after noise is the map with Kraus set
K_ij = W^dag E_i^dag E(P)^(-1/2) E_j W (W the code isometry); code_kraus
builds it for a whole stack of noise channels at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import QuantumChannel, _prune
from .codes import CodeSpace
from .exceptions import DimensionMismatch, NotPSD
from .linalg import RANK_TOL, check_hermitian, inv_sqrt_on_support


def _check_dims(e: QuantumChannel, code: CodeSpace) -> None:
    if e.dims_in != e.dims_out or e.dims_in != code.ambient_dim:
        raise DimensionMismatch(
            f"channel acts on dim {e.dims_in}->{e.dims_out}, "
            f"code lives in dim {code.ambient_dim}"
        )


@dataclass(frozen=True)
class TransposeRecovery:
    """Recovery channel plus the projector onto its natural domain."""

    recovery: QuantumChannel
    support_projector: np.ndarray
    source_code: CodeSpace


def transpose_channel(e: QuantumChannel, code: CodeSpace) -> TransposeRecovery:
    """Build the transpose-channel recovery for noise e on the given code.

    Kraus operators are exactly {P E_i^dag B} with B the on-support inverse
    square root of E(P).  Raises NotPSD (from the inverse square root) if
    E(P) is not positive semidefinite, i.e. e was not completely positive.
    """
    _check_dims(e, code)
    p = code.projector()
    b, support = inv_sqrt_on_support(e.apply(p))
    ops = [p @ k.conj().T @ b for k in e.kraus]
    return TransposeRecovery(QuantumChannel(_prune(ops)), support, code)


def code_kraus(m: np.ndarray) -> np.ndarray:
    """Code-space Kraus set of transpose recovery after noise, batched.

    m stacks M_i = E_i W with shape (..., N, D, d): the noise Kraus
    operators times the code isometry, for any number of leading (batch)
    axes.  Returns K of shape (..., N, N, d, d) with

        K_ij = M_i^dag B M_j,  B = E(P)^(-1/2) on the support of
        E(P) = sum_i M_i M_i^dag,

    so that the recovered map sends W rho W^dag to
    W (sum_ij K_ij rho K_ij^dag) W^dag.  One batched eigh
    E(P) = V diag(lam) V^dag gives K = C^dag C with
    C = diag(lam^(-1/4)) V^dag [M_1 ... M_N]; eigenvalues at or below
    RANK_TOL * max|lam| count as zero.  Raises NotHermitian and NotPSD
    under the same tests as inv_sqrt_on_support.
    """
    *lead, n, dim, d = m.shape
    wide = np.moveaxis(m, -3, -2).reshape(*lead, dim, n * d)
    ep = wide @ wide.conj().swapaxes(-1, -2)
    check_hermitian(ep)
    vals, vecs = np.linalg.eigh((ep + ep.conj().swapaxes(-1, -2)) / 2.0)
    cutoff = RANK_TOL * np.max(np.abs(vals), axis=-1)
    low = np.flatnonzero(vals[..., 0] < -cutoff)
    if low.size:
        i = low[0]
        raise NotPSD(
            f"eigenvalue {vals[..., 0].flat[i]:.3e} below -{cutoff.flat[i]:.3e}"
        )
    weight = np.where(vals > cutoff[..., None], vals, np.inf) ** -0.25
    c = (weight[..., :, None] * vecs.conj().swapaxes(-1, -2)) @ wide
    k = c.conj().swapaxes(-1, -2) @ c
    return k.reshape(*lead, n, d, n, d).swapaxes(-3, -2)


def recovered_channel(e: QuantumChannel, code: CodeSpace) -> QuantumChannel:
    """Composition transpose-recovery after noise, restricted to the code.

    Kraus set {P E_i^dag E(P)^(-1/2) E_j P} = {W K_ij W^dag}, i-major.
    The set is Hermitian-closed (the adjoint of the (i, j) element is the
    (j, i) element) and the map is unital on the code whenever e is trace
    preserving.
    """
    _check_dims(e, code)
    w = code.basis
    k = code_kraus(e._stack @ w)
    d = code.code_dim
    ops = w @ k.reshape(-1, d, d) @ w.conj().T
    return QuantumChannel(_prune(list(ops)))
