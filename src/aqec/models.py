"""Named channels and codes used by the experiments and the CLI.

Conventions: n-qubit states index bitstrings with the first qubit most
significant (|abcd> sits at index a*8 + b*4 + c*2 + d for four qubits);
tensor products of single-qubit operators follow the same order.
"""

from __future__ import annotations

import numpy as np

from .channels import QuantumChannel, _check_budget, complete_to_tp
from .codes import CodeSpace, _su_generators
from .conditions import build_r_perf
from .exceptions import DimensionMismatch, ParamOutOfRange

# I, X, Y, Z: the column of each row's one entry (X, Y flip the bit), its value
_PAULI_COLS = np.array([[0, 1], [1, 0], [1, 0], [0, 1]])
_PAULI_VALS = np.array([m[[0, 1], c] for m, c in
                        zip([np.eye(2, dtype=complex)] + _su_generators(2), _PAULI_COLS)])


def basis_state(bits: str) -> np.ndarray:
    """Computational basis vector for a bitstring like '0011'."""
    n = len(bits)
    v = np.zeros(2**n, dtype=complex)
    v[int(bits, 2)] = 1.0
    return v


def _check_gamma(gamma: float, closed: bool = True) -> None:
    """Raise ParamOutOfRange unless gamma lies in [0, 1], or in [0, 1)
    when not closed."""
    if not (0.0 <= gamma <= 1.0 and (closed or gamma < 1.0)):
        raise ParamOutOfRange(f"gamma = {gamma} outside [0, 1{']' if closed else ')'}")


def amplitude_damping(gamma: float) -> QuantumChannel:
    """Single-qubit energy relaxation with decay probability gamma:

        E0 = diag(1, sqrt(1 - gamma)),  E1 = sqrt(gamma) |0><1|.
    """
    return QuantumChannel(_damping_on([gamma], np.eye(2, dtype=complex))[0])


def _product_on(cols: np.ndarray, vals: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """A product of n single-qubit factors, each with at most one nonzero
    entry per row, times basis (2^n, ...), no 2^n x 2^n operator formed.
    cols[..., q, r] is the column of row r's entry in qubit q's factor and
    vals[..., q, r] its value (vals may stack more leading axes).  Row x is
    the product of x's entries, first qubit first, times row src(x) of
    basis, src(x) the bitstring of their columns: each entry equals its
    Kronecker product entry to the bit.  Returns (..., 2^n, ...).
    """
    n, ops, stack = cols.shape[-2], cols.shape[:-2], vals.shape[:-2]
    # factors as (n, 2, flat stack): each step spans whole stacks as rows grow
    col_t = cols.reshape(-1, n, 2).transpose(1, 2, 0)
    val_t = np.ascontiguousarray(vals.reshape(-1, n, 2).transpose(1, 2, 0))
    src, coef = np.zeros((1, 1), dtype=int), np.ones((1, 1), dtype=vals.dtype)
    for col, val in zip(col_t, val_t):  # row x gains qubit q's bit as its last
        src = (src[:, None] << 1 | col).reshape(-1, col.shape[-1])
        coef = (coef[:, None] * val).reshape(-1, val.shape[-1])
    coef = coef.T.reshape(stack + (-1,) + (1,) * (basis.ndim - 1))
    return coef * basis[src.T.reshape(ops + (-1,))]


def _damping_on(gammas, basis: np.ndarray, kraus=None) -> np.ndarray:
    """Kraus operators E_a of n-qubit amplitude damping for each gamma
    times basis (2^n, c), stacked (G, K, 2^n, c) by _product_on, for the
    Kraus indices a in kraus, or all K = 2^n of them when kraus is None.
    E_a is the product over a's bits of E0 (bit 0: row r holds 1 or
    sqrt(1 - gamma) in column r) and E1 (bit 1: sqrt(gamma) or 0 in column
    1).  Raises ParamOutOfRange for gamma outside [0, 1] and BudgetExceeded
    when one gamma's K ambient operators, or the stack, are over budget.
    """
    for gamma in gammas:
        _check_gamma(gamma)
    dim, c = basis.shape
    a = np.arange(dim) if kraus is None else np.asarray(kraus)
    _check_budget(len(a), dim, dim)
    _check_budget(len(gammas) * len(a), dim, c)
    g = np.asarray(gammas, dtype=float)[:, None]
    table = np.hstack([np.ones_like(g), np.sqrt(1.0 - g), np.sqrt(g), 0.0 * g])
    table = table.reshape(-1, 2, 2)  # (gamma, a bit, x bit)
    a_bits = (a[:, None] >> np.arange(dim.bit_length() - 2, -1, -1)) & 1  # (K, qubit)
    return _product_on(a_bits[..., None] | np.arange(2), np.take(table, a_bits, axis=1), basis)


def qubit_space() -> CodeSpace:
    """The full single-qubit space as a trivial code (no encoding)."""
    return CodeSpace(np.eye(2, dtype=complex))


def leung_code() -> CodeSpace:
    """Four-qubit code tailored to amplitude damping:

        |0_L> = (|0000> + |1111>) / sqrt(2)
        |1_L> = (|0011> + |1100>) / sqrt(2)
    """
    v0 = (basis_state("0000") + basis_state("1111")) / np.sqrt(2.0)
    v1 = (basis_state("0011") + basis_state("1100")) / np.sqrt(2.0)
    return CodeSpace.from_vectors([v0, v1])


def truncated_damping_channel(gamma: float, n: int) -> QuantumChannel:
    """n-qubit amplitude damping truncated to at most one damping event:
    the no-damping operator E0^(x n) plus the n single-damping terms.
    Trace decreasing for gamma > 0.  Raises DimensionMismatch for n < 1."""
    if n < 1:
        raise DimensionMismatch(f"truncated damping needs n >= 1 qubits, got {n}")
    kraus = [0] + [1 << (n - 1 - k) for k in range(n)]
    return QuantumChannel(_damping_on([gamma], np.eye(2**n, dtype=complex), kraus)[0])


_LEUNG_SECTOR = ("0000", "1111", "0011", "1100")
_LEUNG_DAMPED_IMAGES = {
    1: ("0111", "0100"),
    2: ("1011", "1000"),
    3: ("1101", "0001"),
    4: ("1110", "0010"),
}


def leung_recovery(gamma: float) -> QuantumChannel:
    """Leading-order syndrome recovery for the four-qubit damping code.

    Syndrome measurement distinguishes the no-damping sector (the span of
    the four undamped codeword strings) from the four single-damping
    sectors.  A damping at qubit k is undone by the fixed isometry taking
    the damped codeword images back to the codewords; the no-damping
    outcome is left untouched, which ignores the residual (1 - gamma)
    distortion of the codewords.  The remaining (multi-damping) subspace
    is routed to |0_L><0_L| to make the map TP.

    The sectors and images cover twelve basis states, so the trace
    defect is the projector onto the other four, e_x: the completion is
    |0_L><e_x| for each, in index order, the operators complete_to_tp
    appends for the one-column target |0_L> in the order its eigh returns
    the degenerate e_x.  The gamma argument is accepted for interface
    symmetry with the other recoveries; the map itself is gamma
    independent apart from validation.
    """
    _check_gamma(gamma, closed=False)
    code = leung_code()
    v0, v1 = code.basis[:, 0], code.basis[:, 1]
    sector = [basis_state(b) for b in _LEUNG_SECTOR]
    ops = [sum(np.outer(v, v.conj()) for v in sector)]
    for d0, d1 in _LEUNG_DAMPED_IMAGES.values():
        ops.append(
            np.outer(v0, basis_state(d0).conj())
            + np.outer(v1, basis_state(d1).conj())
        )
    covered = {int(b, 2) for b in _LEUNG_SECTOR + sum(_LEUNG_DAMPED_IMAGES.values(), ())}
    target = v0 / np.linalg.norm(v0)
    ops += [np.outer(target, e) for x, e in enumerate(np.eye(16)) if x not in covered]
    return QuantumChannel(ops)


_FIVE_QUBIT_STABILIZERS = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")


def _pauli_on(spec, vecs: np.ndarray) -> np.ndarray:
    """The Pauli string spec (e.g. 'XZZXI') applied to vecs (2^n, ...), or
    each string of a list spec, stacked (S, 2^n, ...), by _product_on.  The
    entries are +-1 and +-i, so the gather equals the Kronecker product to
    the bit."""
    idx = np.array(["IXYZ".index(p) for p in spec] if isinstance(spec, str)
                   else [["IXYZ".index(p) for p in s] for s in spec])
    return _product_on(_PAULI_COLS[idx], _PAULI_VALS[idx], vecs)


def five_qubit_code_only() -> CodeSpace:
    """Distance-3 five-qubit code: the +1 eigenspace of the cyclic
    stabilizers XZZXI, IXZZX, XIXZZ, ZXIXZ with logical states fixed by
    Z_L = ZZZZZ, X_L = XXXXX.  It corrects five_qubit_noise exactly.

    |0_L> is the normalised image of |00000> under the commuting
    projectors (I + S)/2, each S applied by one _pauli_on gather; every
    entry is a dyadic rational, so the basis equals the Kronecker-product
    construction to the bit."""
    v0 = basis_state("00000")
    for s in _FIVE_QUBIT_STABILIZERS:
        v0 = (v0 + _pauli_on(s, v0)) / 2.0
    v0 /= np.linalg.norm(v0)
    return CodeSpace.from_vectors([v0, _pauli_on("XXXXX", v0)])


def _five_qubit_noise_on(gammas, basis: np.ndarray) -> np.ndarray:
    """Kraus operators of five_qubit_noise for each gamma times basis
    (32, c), stacked (G, 6, 32, c).  The 15 Paulis of weight one act on
    basis in one _pauli_on gather per call."""
    for gamma in gammas:
        _check_gamma(gamma)
    weight_one = ["I" * k + p + "I" * (4 - k) for p in "ZXY" for k in range(5)]
    paulis = np.concatenate([basis[None], _pauli_on(weight_one, basis)])
    gammas = np.asarray(gammas, dtype=float)
    a = (1.0 + np.sqrt(1.0 - gammas)) / 2.0
    b = (1.0 - np.sqrt(1.0 - gammas)) / 2.0
    damp = a**4 * np.sqrt(gammas) / 2.0
    k = np.arange(5)
    # coefficients over I, Z_1..Z_5, X_1..X_5, Y_1..Y_5
    c = np.zeros((len(gammas), 6, 16), dtype=complex)
    c[:, 0, 0] = a**5
    c[:, 0, 1:6] = (a**4 * b)[:, None]
    c[:, 1 + k, 6 + k] = damp[:, None]
    c[:, 1 + k, 11 + k] = 1j * damp[:, None]
    return np.tensordot(c, paulis, axes=1)


def five_qubit_noise(gamma: float) -> QuantumChannel:
    """Single-qubit-error content of five-fold amplitude damping.

    Writing E0 = a I + b Z with a = (1 + sqrt(1-gamma))/2 and
    b = (1 - sqrt(1-gamma))/2, and E1 = sqrt(gamma) (X + iY)/2, the Kraus
    operators of the five-fold product are expanded in the Pauli basis and
    every term of weight 2 or more is dropped:

        K0 = a^5 I + a^4 b sum_k Z_k,
        K_k = a^4 sqrt(gamma) (X_k + i Y_k) / 2,  k = 1..5.

    Every operator lies in the span of weight <= 1 Paulis, so the code
    from five_qubit_code_only satisfies the perfect correction conditions for
    this CP (trace-decreasing) channel at every gamma.
    """
    return QuantumChannel(_five_qubit_noise_on([gamma], np.eye(32))[0])


def five_qubit_recovery(gamma: float) -> QuantumChannel:
    """TP-completed standard recovery for the five-qubit code against the
    single-error channel at this gamma.  Syndromes outside the corrected
    set (two or more damping events) are discarded and replaced by the
    maximally mixed code state."""
    code, noise = five_qubit_code_only(), five_qubit_noise(gamma)
    return complete_to_tp(build_r_perf(noise, code), code.basis)


def example5_channel(d: int, p: float) -> tuple[QuantumChannel, CodeSpace]:
    """Near-identity channel with a weak leak of every code state to |0>:

        {sqrt(1-p) P, sqrt(p) |0><0|, ..., sqrt(p) |0><d-1|}

    on the code span{|0>, ..., |d-1>} of C^(d+1), plus one Kraus operator
    I - P = |d><d| on the complement so the total map is TP.  For
    d >= 3 the transpose-channel fidelity loss has the closed form
    example5_eta_formula, while doing nothing loses only p.
    """
    if d < 2:
        raise ParamOutOfRange(f"code dimension {d} must be at least 2")
    if not 0.0 <= p < 1.0:
        raise ParamOutOfRange(f"p = {p} outside [0, 1)")
    code = CodeSpace(np.eye(d + 1, dtype=complex)[:, :d])
    p_proj = code.projector()
    leaks = np.zeros((d, d + 1, d + 1), dtype=complex)
    leaks[np.arange(d), 0, np.arange(d)] = np.sqrt(p)  # sqrt(p) |0><k|
    return QuantumChannel([np.sqrt(1.0 - p) * p_proj, *leaks, np.eye(d + 1) - p_proj]), code


def example5_eta_formula(d: int, p: float) -> float:
    """Closed-form transpose-channel fidelity loss (d-1)p / (1 + (d-1)p)
    of example5_channel, valid for d >= 3.

    At d = 2 the exact loss is larger (0.09296 against 0.09091 at p = 0.1),
    so d < 3 raises ParamOutOfRange.
    """
    if d < 3:
        raise ParamOutOfRange(f"the closed form holds for d >= 3, got d = {d}")
    return (d - 1) * p / (1.0 + (d - 1) * p)

