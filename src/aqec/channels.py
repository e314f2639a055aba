"""Quantum channels as lists of Kraus operators.

A channel E with Kraus operators {E_i} acts as E(rho) = sum_i E_i rho E_i^dag.
Channels here may be completely positive without being trace preserving;
trace preservation is a property you can test, not a construction-time
requirement.

Channel equality is decided at the Choi-matrix level, which is invariant
under unitary remixing of the Kraus set.

JSON wire format (fixed field names, used by the CLI)::

    {"dims_in": n, "dims_out": m,
     "kraus": [[[re, im], ...row-major entries...], ...]}
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .exceptions import BudgetExceeded, DimensionMismatch, NonFiniteInput, NotPSD
from .linalg import hermitian_eig, max_abs

# Cap on total complex entries (n_kraus * dims_out * dims_in) a single
# channel construction may produce.  Keeps five-fold tensor powers and
# their compositions inside laptop-size memory.
KRAUS_ENTRY_BUDGET = 2**26

PRUNE_TOL = 1e-12
TP_TOL = 1e-9
CHOI_EQ_TOL = 1e-9


class QuantumChannel:
    """Completely positive map stored as a tuple of Kraus operators.

    All Kraus operators must share one shape (dims_out, dims_in) and hold
    finite entries (NonFiniteInput otherwise).  The stored arrays are
    read-only; channels are immutable after construction.
    """

    __slots__ = ("kraus", "dims_in", "dims_out", "_stack")

    def __init__(self, kraus: Sequence[np.ndarray]):
        ops = [np.array(k, dtype=complex) for k in kraus]
        if not ops:
            raise DimensionMismatch("channel needs at least one Kraus operator")
        shape = ops[0].shape
        if len(shape) != 2:
            raise DimensionMismatch("Kraus operators must be matrices")
        for k in ops:
            if k.shape != shape:
                raise DimensionMismatch(f"Kraus shapes differ: {k.shape} vs {shape}")
        stack = np.stack(ops)
        if not np.isfinite(stack).all():
            raise NonFiniteInput("Kraus operators hold NaN or infinite entries")
        stack.flags.writeable = False
        self._stack = stack
        self.kraus = tuple(stack[i] for i in range(len(ops)))
        self.dims_out, self.dims_in = shape

    @property
    def n_kraus(self) -> int:
        return len(self.kraus)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Return sum_i E_i rho E_i^dag."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.dims_in, self.dims_in):
            raise DimensionMismatch(
                f"state is {rho.shape}, channel input dimension is {self.dims_in}"
            )
        return np.einsum(
            "kij,jl,kml->im", self._stack, rho, self._stack.conj(), optimize=True
        )

    def kraus_sum(self) -> np.ndarray:
        """Return sum_i E_i^dag E_i."""
        return np.einsum("kij,kil->jl", self._stack.conj(), self._stack, optimize=True)

    def is_trace_preserving(self, tol: float = TP_TOL) -> bool:
        return tp_defect(self) <= tol

    def __repr__(self) -> str:
        return (
            f"QuantumChannel(n_kraus={self.n_kraus}, "
            f"dims_in={self.dims_in}, dims_out={self.dims_out})"
        )


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi representative sum_i vec(E_i) vec(E_i)^dag with row-major vec."""

    matrix: np.ndarray
    dims_in: int
    dims_out: int


def identity_channel(dim: int) -> QuantumChannel:
    return QuantumChannel([np.eye(dim, dtype=complex)])


def _prune(ops: Iterable[np.ndarray], tol: float = PRUNE_TOL) -> list[np.ndarray]:
    kept = [k for k in ops if np.linalg.norm(k) >= tol]
    if not kept:
        first = next(iter(ops))
        kept = [np.zeros_like(first)]
    return kept


def _check_budget(n_ops: int, dims_out: int, dims_in: int) -> None:
    entries = n_ops * dims_out * dims_in
    if entries > KRAUS_ENTRY_BUDGET:
        raise BudgetExceeded(
            f"{n_ops} Kraus operators of shape ({dims_out}, {dims_in}) need "
            f"{entries} complex entries; budget is {KRAUS_ENTRY_BUDGET}"
        )


def compose(r: QuantumChannel, e: QuantumChannel) -> QuantumChannel:
    """Channel applying e first, then r; Kraus set {R_j E_i}, j-major order.

    Near-zero products are pruned so deep compositions stay compact.
    """
    if e.dims_out != r.dims_in:
        raise DimensionMismatch(
            f"cannot compose: first map outputs dim {e.dims_out}, "
            f"second expects dim {r.dims_in}"
        )
    _check_budget(r.n_kraus * e.n_kraus, r.dims_out, e.dims_in)
    ops = [rj @ ei for rj in r.kraus for ei in e.kraus]
    return QuantumChannel(_prune(ops))


def adjoint(e: QuantumChannel) -> QuantumChannel:
    """Adjoint map with Kraus set {E_i^dag}; satisfies
    tr(A e(B)) = tr(adjoint(e)(A) B)."""
    return QuantumChannel([k.conj().T for k in e.kraus])


def tensor_power(e: QuantumChannel, n: int) -> QuantumChannel:
    """n independent copies of e; Kraus operators are all n-fold tensor
    products in lexicographic index order (first factor most significant)."""
    if n < 1:
        raise DimensionMismatch(f"tensor power needs n >= 1, got {n}")
    _check_budget(e.n_kraus**n, e.dims_out**n, e.dims_in**n)
    ops = e._stack
    for p in range(2, n + 1):
        ops = np.einsum("aij,bkl->abikjl", ops, e._stack).reshape(
            e.n_kraus**p, e.dims_out**p, e.dims_in**p
        )
    return QuantumChannel(_prune(list(ops)))


def tp_defect(e: QuantumChannel) -> float:
    """Operator norm of sum_i E_i^dag E_i - I; zero for TP channels."""
    s = e.kraus_sum()
    return float(np.linalg.norm(s - np.eye(e.dims_in), 2))


def restricted_tp_factor(
    e: QuantumChannel, p: np.ndarray, tol: float = TP_TOL
) -> float | None:
    """Factor a with P (sum E_i^dag E_i) P = a P, or None if no such a.

    Covers channels that are only proportionally trace preserving on a
    subspace, e.g. noise truncated to a maximum error weight.
    """
    p = np.asarray(p, dtype=complex)
    tr_p = float(np.trace(p).real)
    if tr_p <= 0:
        return None
    q = p @ e.kraus_sum() @ p
    a = float(np.trace(q).real) / tr_p
    if max_abs(q - a * p) <= tol:
        return a
    return None


def choi(e: QuantumChannel) -> ChoiMatrix:
    flat = e._stack.reshape(e.n_kraus, e.dims_out * e.dims_in)
    m = flat.T @ flat.conj()
    return ChoiMatrix(m, e.dims_in, e.dims_out)


def channels_equal(
    e1: QuantumChannel, e2: QuantumChannel, tol: float = CHOI_EQ_TOL
) -> bool:
    """True when the Choi matrices agree entrywise within tol.

    Insensitive to the choice of Kraus representation on either side.
    """
    if (e1.dims_in, e1.dims_out) != (e2.dims_in, e2.dims_out):
        raise DimensionMismatch(
            f"channel dims differ: ({e1.dims_in}->{e1.dims_out}) vs "
            f"({e2.dims_in}->{e2.dims_out})"
        )
    return max_abs(choi(e1).matrix - choi(e2).matrix) <= tol


def minimal_kraus(e: QuantumChannel, tol: float = PRUNE_TOL) -> QuantumChannel:
    """Re-extract a minimal Kraus set from the Choi eigendecomposition."""
    c = choi(e)
    vals, vecs = hermitian_eig(c.matrix)
    scale = float(vals[-1]) if vals.size else 0.0
    cutoff = max(tol, tol * scale)
    ops = []
    for idx in range(len(vals) - 1, -1, -1):
        if vals[idx] <= cutoff:
            break
        ops.append(
            np.sqrt(vals[idx]) * vecs[:, idx].reshape(e.dims_out, e.dims_in)
        )
    if not ops:
        ops = [np.zeros((e.dims_out, e.dims_in), dtype=complex)]
    return QuantumChannel(ops)


def complete_to_tp(
    e: QuantumChannel, target: np.ndarray, tol: float = 1e-8
) -> QuantumChannel:
    """Extend a trace-nonincreasing channel to a TP one.

    The missing trace weight I - sum E_i^dag E_i is routed to the pure
    state `target`: for each eigenpair (lam, phi) of the defect operator
    a Kraus operator sqrt(lam) |target><phi| is appended.
    """
    target = np.asarray(target, dtype=complex).reshape(-1)
    if target.shape[0] != e.dims_out:
        raise DimensionMismatch("target state dimension must match channel output")
    norm = np.linalg.norm(target)
    if norm == 0:
        raise DimensionMismatch("target state must be nonzero")
    target = target / norm
    defect = np.eye(e.dims_in) - e.kraus_sum()
    vals, vecs = hermitian_eig(defect)
    if vals.size and float(vals[0]) < -tol:
        raise NotPSD(
            f"channel exceeds trace preservation (defect eigenvalue {vals[0]:.3e})"
        )
    ops = list(e.kraus)
    for lam, phi in zip(vals, vecs.T):
        if lam > tol:
            ops.append(np.sqrt(lam) * np.outer(target, phi.conj()))
    return QuantumChannel(ops)


def _matrix_to_pairs(m: np.ndarray) -> list[list[float]]:
    flat = np.asarray(m, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def _pairs_to_matrix(pairs, rows: int, cols: int) -> np.ndarray:
    try:
        arr = np.asarray(pairs, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"expected [re, im] pairs of numbers: {exc}") from exc
    if arr.shape != (rows * cols, 2):
        raise DimensionMismatch(
            f"expected {rows * cols} [re, im] pairs, got shape {arr.shape}"
        )
    return (arr[:, 0] + 1j * arr[:, 1]).reshape(rows, cols)


def channel_to_json(e: QuantumChannel) -> dict:
    return {
        "dims_in": e.dims_in,
        "dims_out": e.dims_out,
        "kraus": [_matrix_to_pairs(k) for k in e.kraus],
    }


def channel_from_json(data: dict) -> QuantumChannel:
    try:
        dims_in = int(data["dims_in"])
        dims_out = int(data["dims_out"])
        kraus = data["kraus"]
    except (KeyError, TypeError) as exc:
        raise DimensionMismatch(f"malformed channel JSON: {exc}") from exc
    ops = [_pairs_to_matrix(k, dims_out, dims_in) for k in kraus]
    return QuantumChannel(ops)
