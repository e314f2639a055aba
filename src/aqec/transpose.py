"""Transpose-channel recovery map for a (channel, code) pair.

For a noise channel E ~ {E_i} and a code with projector P = W W^dag (W
the code isometry), the transpose channel is the recovery map with Kraus
operators

    R_i = P E_i^dag E(P)^(-1/2),

the inverse square root taken on the support of E(P).  It is trace
preserving on operators supported on supp E(P), outputs states on the
code, and does not depend on which Kraus representation of E was supplied.
Outside supp E(P) the Kraus operators act as zero; all fidelity
computations in this package feed the map code inputs only, for which the
noise output always lies inside that support.

Noise given as Kraus operators enters the code only here, as M_i = E_i W:
as given for the correction conditions (_noise_on_code), normalised for
every worst case (_normalised_noise_on_code: M / sqrt(a) for noise
proportionally trace preserving on the code, sum_i M_i^dag M_i = a I_d),
so that E and c E have one eta.  code_kraus and transpose_channel share
one factorisation of E(P) (_transpose_factor).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import QuantumChannel, _prune
from .codes import CodeSpace
from .exceptions import DimensionMismatch
from .linalg import psd_eigh

TP_CHECK_TOL = 1e-9  # a this close to 1 is exactly 1: TP noise stays unscaled
PROPORTIONAL_TOL = 1e-8


def _noise_on_code(kraus: np.ndarray, code: CodeSpace) -> np.ndarray:
    """M_i = E_i W, shape (..., N, D, d), for a stack of noise Kraus sets
    kraus (..., N, D, D) on the code, as given.  Raises DimensionMismatch
    unless each E_i maps the code's ambient space to itself."""
    if kraus.shape[-2:] != (code.ambient_dim,) * 2:
        raise DimensionMismatch(f"channel acts on dim {kraus.shape[-1]}->{kraus.shape[-2]}, "
                                f"code lives in dim {code.ambient_dim}")
    return kraus @ code.basis


def _normalised_noise_on_code(kraus: np.ndarray, code: CodeSpace) -> tuple[np.ndarray, np.ndarray]:
    """The noise on the code as every worst case scores it, and the factors
    a (...,): M = E W of a stack kraus (..., N, D, D), divided by sqrt(a)
    where sum_i M_i^dag M_i = a I_d, a > 0, to PROPORTIONAL_TOL entrywise;
    a is exactly 1.0 within TP_CHECK_TOL of 1, NaN where none fits."""
    m = _noise_on_code(kraus, code)
    d = m.shape[-1]
    wide = m.reshape(*m.shape[:-3], -1, d)
    gram = wide.conj().swapaxes(-1, -2) @ wide
    a = np.trace(gram, axis1=-2, axis2=-1).real / d
    dev = np.max(np.abs(gram - a[..., None, None] * np.eye(d)), axis=(-2, -1))
    fits = (a > 0) & (dev <= PROPORTIONAL_TOL)
    a = np.where(np.abs(a - 1.0) <= TP_CHECK_TOL, 1.0, a)
    return m / np.sqrt(np.where(fits, a, 1.0))[..., None, None, None], np.where(fits, a, np.nan)


def _transpose_factor(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One batched linalg.psd_eigh E(P) = sum_i M_i M_i^dag = V diag(lam)
    V^dag of the noise on the code m (..., N, D, d), returned as (w, V, C):
    w = lam^(-1/4) on the support psd_eigh keeps, 0 off it, and
    C = diag(w) V^dag [M_1 ... M_N] (..., D, N d).  Raises NotHermitian
    and NotPSD as psd_eigh does."""
    *lead, n, dim, d = m.shape
    wide = np.moveaxis(m, -3, -2).reshape(*lead, dim, n * d)
    vals, vecs, keep = psd_eigh(wide @ wide.conj().swapaxes(-1, -2))
    weight = np.where(keep, vals, np.inf) ** -0.25
    c = (weight[..., :, None] * vecs.conj().swapaxes(-1, -2)) @ wide
    return weight, vecs, c


@dataclass(frozen=True)
class TransposeRecovery:
    """Recovery channel plus the projector onto its natural domain."""

    recovery: QuantumChannel
    support_projector: np.ndarray


def transpose_channel(e: QuantumChannel, code: CodeSpace) -> TransposeRecovery:
    """Build the transpose-channel recovery for noise e on the given code.

    Kraus operators R_i = P E_i^dag B, B the on-support inverse square
    root of E(P), are W C_i^dag diag(w) V^dag (C_i the i-th d columns of
    C) and the support projector is V diag(w > 0) V^dag, from one
    _transpose_factor.  Raises NotPSD if E(P) is not PSD.
    """
    m = _noise_on_code(e.kraus, code)
    n, dim, d = m.shape
    weight, v, c = _transpose_factor(m)
    c_blocks = c.reshape(dim, n, d).transpose(1, 2, 0).conj()
    ops = code.basis @ c_blocks @ (weight[:, None] * v.conj().T)
    support = (v * (weight > 0)) @ v.conj().T
    return TransposeRecovery(QuantumChannel(_prune(list(ops))), support)


def code_kraus(m: np.ndarray) -> np.ndarray:
    """Code-space Kraus set of transpose recovery after noise, batched.

    m stacks M_i = E_i W with shape (..., N, D, d): the noise Kraus
    operators times the code isometry, for any number of leading (batch)
    axes.  Returns K of shape (..., N, N, d, d) with

        K_ij = M_i^dag B M_j,  B = E(P)^(-1/2) on the support of
        E(P) = sum_i M_i M_i^dag,

    so that the recovered map sends W rho W^dag to
    W (sum_ij K_ij rho K_ij^dag) W^dag: K = C^dag C with C from
    _transpose_factor, which raises NotHermitian and NotPSD.
    """
    *lead, n, _, d = m.shape
    c = _transpose_factor(m)[2]
    k = c.conj().swapaxes(-1, -2) @ c
    return k.reshape(*lead, n, d, n, d).swapaxes(-3, -2)

