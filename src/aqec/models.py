"""Named channels and codes used by the experiments and the CLI.

Conventions: n-qubit states index bitstrings with the first qubit most
significant (|abcd> sits at index a*8 + b*4 + c*2 + d for four qubits);
tensor products of single-qubit operators follow the same order.
"""

from __future__ import annotations

import numpy as np

from .channels import QuantumChannel, _check_budget, complete_to_tp
from .codes import CodeSpace
from .conditions import build_r_perf
from .exceptions import ParamOutOfRange
from .linalg import _check_size


def _check_gamma(gammas, closed: bool = True, name: str = "gamma") -> np.ndarray:
    """gammas (one value or a grid) as a 1-D float array.  Raises
    ParamOutOfRange, naming name, for anything but numbers (booleans too)
    and for the first value outside [0, 1], or [0, 1) when not closed (NaN too)."""
    g = np.atleast_1d(np.asarray(gammas))
    if g.dtype.kind not in "iuf":
        raise ParamOutOfRange(f"{name} must be a number, got {gammas!r}")
    g = g.astype(float)
    bad = np.flatnonzero(~((g >= 0.0) & (g <= 1.0) & (closed | (g < 1.0))))
    if bad.size:
        raise ParamOutOfRange(f"{name} = {g[bad[0]]} outside [0, 1{']' if closed else ')'}")
    return g


def amplitude_damping(gamma: float) -> QuantumChannel:
    """Single-qubit energy relaxation with decay probability gamma:

        E0 = diag(1, sqrt(1 - gamma)),  E1 = sqrt(gamma) |0><1|.
    """
    return QuantumChannel(_damping_on([gamma], np.eye(2, dtype=complex))[0].swapaxes(0, 1))


def _damping_on(gammas, basis: np.ndarray, kraus=None) -> np.ndarray:
    """Kraus operators E_a of n-qubit amplitude damping for each gamma
    times basis (2^n, c), in the layout of the noise on the code
    (G, 2^n, K, c), for the Kraus indices a in kraus, or all K = 2^n of
    them when kraus is None, no 2^n x 2^n operator formed.  E_a is the
    product over a's bits of E0 (bit 0: row r holds 1 or sqrt(1 - gamma)
    in column r) and E1 (bit 1: sqrt(gamma) or 0 in column 1), so row x of
    E_a W is the product of x's entries, first qubit first, times row
    x | a of W: each entry equals its Kronecker product entry to the bit.
    Raises ParamOutOfRange for gamma outside [0, 1] and BudgetExceeded
    when one gamma's K ambient operators are over budget; the CLI holds
    the (G, 2^n, K, c) stack to its pass budget before calling this.
    """
    g = _check_gamma(gammas)
    dim, c = basis.shape
    a = np.arange(dim) if kraus is None else np.asarray(kraus)
    _check_budget(len(a), dim, dim)
    table = np.array([[np.ones_like(g), np.sqrt(1.0 - g)], [np.sqrt(g), 0.0 * g]])
    a_bits = (a >> np.arange(dim.bit_length() - 2, -1, -1)[:, None]) & 1  # (qubit, K)
    stack = len(g) * len(a)
    coef = np.ones((1, stack))
    for bits in a_bits:  # row x gains qubit q's bit as its last
        # qubit q's factor entries as (x bit, gamma * K): each step spans whole stacks
        coef = (coef[:, None] * table[bits].transpose(1, 2, 0).reshape(2, stack)).reshape(-1, stack)
    # complex once, so no product casts them again; the float stack is
    # freed before the result exists
    coef = np.ascontiguousarray(coef.reshape(dim, len(g), len(a)).swapaxes(0, 1), dtype=complex)
    src = np.arange(dim)[:, None] | a
    if c < dim:
        # a code basis: one product per column, each along whole columns,
        # not one product whose inner loop spans a row's few entries; the
        # rows are copied in first, as a broadcast product would buffer them
        out = np.empty((len(g), dim, len(a), c), dtype=complex)
        for j, column in enumerate(basis.T):
            out[..., j] = column[src]
            out[..., j] *= coef
        return out
    return coef[..., None] * basis[src]


def qubit_space() -> CodeSpace:
    """The full single-qubit space as a trivial code (no encoding)."""
    return CodeSpace(np.eye(2, dtype=complex))


# the Leung codewords' basis states: |0_L> on the first two, |1_L> on the last two
_LEUNG_SECTOR = ("0000", "1111", "0011", "1100")


def leung_code() -> CodeSpace:
    """Four-qubit code tailored to amplitude damping:

        |0_L> = (|0000> + |1111>) / sqrt(2)
        |1_L> = (|0011> + |1100>) / sqrt(2)

    written out: 1/sqrt(2) on the four basis states of _LEUNG_SECTOR."""
    w = np.zeros((16, 2), dtype=complex)
    w[[int(b, 2) for b in _LEUNG_SECTOR], [0, 0, 1, 1]] = 1.0 / np.sqrt(2.0)
    return CodeSpace(w)


def truncated_damping_channel(gamma: float, n: int) -> QuantumChannel:
    """n-qubit amplitude damping truncated to at most one damping event:
    the no-damping operator E0^(x n) plus the n single-damping terms.
    Trace decreasing for gamma > 0.  Raises DimensionMismatch unless n is
    an integer (not a bool) >= 1."""
    _check_size(n, "truncated damping needs an integer n >= 1 qubits")
    kraus = [0] + [1 << (n - 1 - k) for k in range(n)]
    return QuantumChannel(_damping_on([gamma], np.eye(2**n), kraus)[0].swapaxes(0, 1))


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
    v0, v1 = leung_code().basis.T
    ops = np.zeros((9, 16, 16), dtype=complex)
    sector = [int(b, 2) for b in _LEUNG_SECTOR]
    ops[0, sector, sector] = 1.0
    for k, (d0, d1) in _LEUNG_DAMPED_IMAGES.items():
        ops[k, :, int(d0, 2)], ops[k, :, int(d1, 2)] = v0, v1
    covered = {int(b, 2) for b in _LEUNG_SECTOR + sum(_LEUNG_DAMPED_IMAGES.values(), ())}
    defect = [x for x in range(16) if x not in covered]
    ops[range(5, 9), :, defect] = v0 / np.linalg.norm(v0)
    return QuantumChannel(ops)


# |0_L> of the five-qubit code: the basis states with amplitude +1/4, then -1/4
_FIVE_QUBIT_ZERO = (("00000", "00101", "01001", "01010", "10010", "10100"),
                    ("00011", "00110", "01100", "01111", "10001", "10111",
                     "11000", "11011", "11101", "11110"))


def five_qubit_code_only() -> CodeSpace:
    """Distance-3 five-qubit code: the +1 eigenspace of the cyclic
    stabilizers XZZXI, IXZZX, XIXZZ, ZXIXZ with logical states fixed by
    Z_L = ZZZZZ, X_L = XXXXX.  It corrects five_qubit_noise exactly.

    |0_L> is the normalised image of |00000> under the commuting
    projectors (I + S)/2, written out: +-1/4 on the sixteen basis states
    of _FIVE_QUBIT_ZERO.  |1_L> = XXXXX |0_L> flips every bit, so it is
    |0_L> reversed.  Every entry is a dyadic rational, so the basis equals
    the Kronecker-product construction to the bit."""
    plus, minus = ([int(b, 2) for b in bits] for bits in _FIVE_QUBIT_ZERO)
    v0 = np.zeros(32, dtype=complex)
    v0[plus], v0[minus] = 0.25, -0.25
    return CodeSpace(np.column_stack([v0, v0[::-1]]))


def _five_qubit_noise_on(gammas, basis: np.ndarray) -> np.ndarray:
    """Kraus operators of five_qubit_noise for each gamma times basis
    (32, c), in the layout of the noise on the code (G, 32, 6, c), from
    their closed forms.  K0 is diagonal: a^5 W plus a^4 b W with Z_k's
    sign on each row, added in k order.  K_k = a^4 sqrt(gamma) |0><1|_k
    takes row x | 2^(4-k) of W to each row x whose bit k is 0 and leaves
    the others zero."""
    g = _check_gamma(gammas)[:, None, None]
    a = (1.0 + np.sqrt(1.0 - g)) / 2.0
    b = (1.0 - np.sqrt(1.0 - g)) / 2.0
    x, bits = np.arange(32), 16 >> np.arange(5)[:, None]  # qubit k's bit, (5, 1)
    clear = (x & bits == 0)[..., None]  # (5, 32, 1): the rows whose bit k is 0
    k0, z_term = a**5 * basis, (a**4 * b) * basis
    for sign in np.where(clear, 1.0, -1.0):
        k0 += sign * z_term
    lowered = (clear * basis[x | bits]).swapaxes(0, 1)  # |0><1|_k W, (32, 5, c)
    out = np.empty((len(g), 32, 6, basis.shape[1]), dtype=complex)
    out[:, :, 0], out[:, :, 1:] = k0, (a**4 * np.sqrt(g))[:, None] * lowered
    return out


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
    return QuantumChannel(_five_qubit_noise_on([gamma], np.eye(32))[0].swapaxes(0, 1))


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
    _check_size(d, "example 5 needs an integer code dimension d >= 2", 2, ParamOutOfRange)
    _check_gamma(p, closed=False, name="p")
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
    _check_size(d, "the closed form holds for an integer d >= 3", 3, ParamOutOfRange)
    return (d - 1) * p / (1.0 + (d - 1) * p)

