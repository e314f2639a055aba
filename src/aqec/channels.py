"""Quantum channels as stacks of Kraus operators.

A channel E with Kraus operators {E_i} acts as E(rho) = sum_i E_i rho E_i^dag.
Channels here may be completely positive without being trace preserving;
trace preservation is a property you can test, not a construction-time
requirement.

JSON wire format (fixed field names, used by the CLI)::

    {"dims_in": n, "dims_out": m,
     "kraus": [[[re, im], ...row-major entries...], ...]}
"""

from __future__ import annotations

import itertools

import numpy as np

from .exceptions import BudgetExceeded, DimensionMismatch, NotPSD
from .linalg import _as_array, _check_size

# Cap on total complex entries (n_kraus * dims_out * dims_in) a single
# channel construction may produce.  Keeps five-fold tensor powers and
# their compositions inside laptop-size memory.
KRAUS_ENTRY_BUDGET = 2**26

PRUNE_TOL = 1e-12
TP_TOL = 1e-9
COMPLETION_TOL = 1e-8  # defect eigenvalues at or below it need no completion


class QuantumChannel:
    """Completely positive map stored as one stack of Kraus operators.

    The operators pass linalg._as_array as one stack of at least one
    matrix.  kraus is the read-only complex array of shape (n_kraus,
    dims_out, dims_in), the one copy of the operators; kraus[i] is E_i.
    Channels are immutable after construction.
    """

    __slots__ = ("kraus", "dims_in", "dims_out")

    def __init__(self, kraus: np.ndarray):
        self.kraus = _as_array(kraus, 3, "Kraus stack")  # the one copy of the operators
        if not len(self.kraus):
            raise DimensionMismatch("channel needs at least one Kraus operator")
        self.kraus.flags.writeable = False
        self.dims_out, self.dims_in = self.kraus.shape[1:]

    @property
    def n_kraus(self) -> int:
        return len(self.kraus)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Return sum_i E_i rho E_i^dag; rho passes linalg._as_array."""
        rho = _as_array(rho, 2, "state")
        if rho.shape != (self.dims_in, self.dims_in):
            raise DimensionMismatch(f"state is {rho.shape}, channel input dim is {self.dims_in}")
        return np.einsum(
            "kij,jl,kml->im", self.kraus, rho, self.kraus.conj(), optimize=True
        )

    def kraus_sum(self) -> np.ndarray:
        """Return sum_i E_i^dag E_i."""
        return np.einsum("kij,kil->jl", self.kraus.conj(), self.kraus, optimize=True)

    def __repr__(self) -> str:
        return (
            f"QuantumChannel(n_kraus={self.n_kraus}, "
            f"dims_in={self.dims_in}, dims_out={self.dims_out})"
        )


def _prune(ops: np.ndarray) -> np.ndarray:
    kept = ops[np.linalg.norm(ops, axis=(1, 2)) >= PRUNE_TOL]
    return kept if len(kept) else np.zeros_like(ops[:1])


def _check_budget(n_ops: int, dims_out: int, dims_in: int) -> None:
    entries = n_ops * dims_out * dims_in
    if entries > KRAUS_ENTRY_BUDGET:
        raise BudgetExceeded(
            f"{n_ops} Kraus operators of shape ({dims_out}, {dims_in}) need "
            f"{entries} complex entries; budget is {KRAUS_ENTRY_BUDGET}"
        )


def tensor_power(e: QuantumChannel, n: int) -> QuantumChannel:
    """n independent copies of e; Kraus operators are all n-fold tensor
    products in lexicographic index order (first factor most significant).
    Raises DimensionMismatch unless n is an integer (not a bool) >= 1."""
    _check_size(n, "tensor power needs an integer n >= 1")
    _check_budget(e.n_kraus**n, e.dims_out**n, e.dims_in**n)
    ops = e.kraus
    for p in range(2, n + 1):
        ops = np.einsum("aij,bkl->abikjl", ops, e.kraus).reshape(
            e.n_kraus**p, e.dims_out**p, e.dims_in**p
        )
    return QuantumChannel(_prune(ops))


def complete_to_tp(e: QuantumChannel, target: np.ndarray) -> QuantumChannel:
    """Extend a trace-nonincreasing channel to a TP one.

    The missing trace weight I - sum E_i^dag E_i is routed to target, a
    dims_out x k isometry W (a unit state as one column, k = 1), whose span
    receives the maximally mixed state W W^dag / k.  For each eigenpair
    (lam, phi) of the defect with lam above COMPLETION_TOL, the Kraus
    operators sqrt(lam / k) |w_j><phi| are appended, j over the k columns.
    target passes linalg._as_array; DimensionMismatch unless it is such an
    isometry with k >= 1, NotPSD when the defect has an eigenvalue below
    -COMPLETION_TOL.
    """
    w = _as_array(target, 2, "target")
    rows, k = w.shape
    if rows != e.dims_out or k < 1 or np.max(np.abs(w.conj().T @ w - np.eye(k))) > TP_TOL:
        raise DimensionMismatch("target must be an isometry of at least one column "
                                "into the channel output")
    vals, vecs = np.linalg.eigh(np.eye(e.dims_in) - e.kraus_sum())
    if vals.size and float(vals[0]) < -COMPLETION_TOL:
        raise NotPSD(
            f"channel exceeds trace preservation (defect eigenvalue {vals[0]:.3e})"
        )
    ops = list(e.kraus)
    for lam, phi in zip(vals, vecs.T):
        if lam > COMPLETION_TOL:
            ops += [np.sqrt(lam / k) * np.outer(w[:, j], phi.conj()) for j in range(k)]
    return QuantumChannel(ops)


def _matrix_to_pairs(m: np.ndarray) -> list[list[float]]:
    flat = np.asarray(m, dtype=complex).reshape(-1)
    return np.stack([flat.real, flat.imag], -1).tolist()


def _pairs_to_matrix(pairs, rows: int, cols: int) -> np.ndarray:
    """The rows x cols complex matrix of a list of rows * cols [re, im]
    pairs in row-major order; DimensionMismatch for anything else."""
    n = rows * cols
    if not (type(pairs) is list and len(pairs) == n
            and set(map(type, pairs)) == {list} and set(map(len, pairs)) == {2}):
        raise DimensionMismatch(f"expected a list of {n} [re, im] pairs")
    # JSON numbers only: a string or a boolean would convert silently
    if not set(map(type, itertools.chain.from_iterable(pairs))) <= {int, float}:
        raise DimensionMismatch("expected [re, im] pairs of numbers")
    try:
        flat = np.fromiter(itertools.chain.from_iterable(pairs), float, count=2 * n)
    except OverflowError as exc:  # an integer beyond the float range
        raise DimensionMismatch(f"expected [re, im] pairs of finite numbers: {exc}") from exc
    return (flat[0::2] + 1j * flat[1::2]).reshape(rows, cols)


def channel_to_json(e: QuantumChannel) -> dict:
    return {
        "dims_in": e.dims_in,
        "dims_out": e.dims_out,
        "kraus": [_matrix_to_pairs(k) for k in e.kraus],
    }


def _json_fields(data: dict, what: str, *keys: str) -> list:
    """data[key] for each key of a parsed JSON object: JSON integers of at
    least 1 for all keys but the last, a list for the last.  Raises
    DimensionMismatch, naming what (channel, code), for anything else."""
    try:
        values = [data[key] for key in keys]
    except (KeyError, TypeError) as exc:
        raise DimensionMismatch(f"malformed {what} JSON: {exc}") from exc
    *dims, items = values
    if not all(type(x) is int and x >= 1 for x in dims) or type(items) is not list:
        raise DimensionMismatch(f"malformed {what} JSON: {' and '.join(keys[:-1])} must be "
                                f"positive integers and {keys[-1]} a list, got {dims} and "
                                f"{type(items).__name__}")
    return values


def channel_from_json(data: dict) -> QuantumChannel:
    dims_in, dims_out, kraus = _json_fields(data, "channel", "dims_in", "dims_out", "kraus")
    ops = [_pairs_to_matrix(k, dims_out, dims_in) for k in kraus]
    return QuantumChannel(ops)
