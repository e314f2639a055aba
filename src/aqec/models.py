"""Named channels and codes used by the experiments and the CLI.

Conventions: n-qubit states index bitstrings with the first qubit most
significant (|abcd> sits at index a*8 + b*4 + c*2 + d for four qubits);
tensor products of single-qubit operators follow the same order.
"""

from __future__ import annotations

import numpy as np

from .channels import QuantumChannel, _check_budget, complete_to_tp
from .codes import CodeSpace, _su_generators
from .conditions import build_r_perf, check_perfect_qec
from .exceptions import ParamOutOfRange

_PAULI = dict(zip("IXYZ", [np.eye(2, dtype=complex)] + _su_generators(2)))


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
    _check_gamma(gamma)
    e0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    e1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return QuantumChannel([e0, e1])


def _damping_on(gammas, basis: np.ndarray, kraus=None) -> np.ndarray:
    """Kraus operators of n-qubit amplitude damping for each gamma times
    basis (2^n, c), stacked (G, K, 2^n, c), with no ambient operator
    formed: the operators of the Kraus indices in kraus, or all K = 2^n
    of them when kraus is None.

    Reading the Kraus index a and the row x as bitstrings, row x of
    E_a basis is coef(a, x) basis[a | x], coef the product in qubit order
    of the single-qubit entries 1 or sqrt(1 - gamma) (a bit 0) and
    sqrt(gamma) or 0 (a bit 1) at x's bit: each entry of E_a equals its
    Kronecker product entry to the bit.  Raises ParamOutOfRange for gamma
    outside [0, 1] and BudgetExceeded when the K ambient operators of one
    gamma are over the Kraus entry budget.
    """
    for gamma in gammas:
        _check_gamma(gamma)
    dim = basis.shape[0]
    a = np.arange(dim) if kraus is None else np.asarray(kraus)
    _check_budget(len(a), dim, dim)
    g = np.asarray(gammas, dtype=float)[:, None]
    table = np.hstack([np.ones_like(g), np.sqrt(1.0 - g), np.sqrt(g), 0.0 * g])
    table = table.reshape(-1, 2, 2)  # (gamma, a bit, x bit)
    a, x = a[:, None], np.arange(dim)[None, :]
    coef = np.ones((len(g), len(a), dim))
    for bit in reversed(range(dim.bit_length() - 1)):  # first qubit first
        coef = coef * table[:, (a >> bit) & 1, (x >> bit) & 1]
    return coef[..., None] * basis[a | x]


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
    Trace decreasing for gamma > 0."""
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
    |0_L><e_x| for each, in index order, the operators
    complete_to_tp(., |0_L>) appends in the order its eigh returns the
    degenerate e_x.  The gamma argument is accepted for interface
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


def _pauli_on(spec: str, vecs: np.ndarray) -> np.ndarray:
    """The Pauli string spec (e.g. 'XZZXI') applied to vecs (2^n, ...)
    with no 2^n x 2^n operator formed.  A Pauli string is a phased
    permutation of rows: output row r takes input row r xor m, m the mask
    of its X and Y factors, times the product over factors of the
    single-qubit entry [bit of r, bit of r xor m].  The phases are +-1 and
    +-i, so the gather equals the Kronecker product to the bit."""
    n = len(spec)
    rows = np.arange(2**n)
    src = rows.copy()
    phase = np.ones(2**n, dtype=complex)
    for k, p in enumerate(spec):
        if p != "I":
            shift = n - 1 - k
            flip = int(p in "XY")
            out_bit = (rows >> shift) & 1
            phase *= _PAULI[p][out_bit, out_bit ^ flip]
            src ^= flip << shift
    return phase.reshape((-1,) + (1,) * (vecs.ndim - 1)) * vecs[src]


def five_qubit_code_only() -> CodeSpace:
    """Distance-3 five-qubit code: the +1 eigenspace of the cyclic
    stabilizers XZZXI, IXZZX, XIXZZ, ZXIXZ with logical states fixed by
    Z_L = ZZZZZ, X_L = XXXXX.  It corrects five_qubit_noise exactly.

    |0_L> is the normalised image of |00000> under the commuting
    projectors (I + S)/2, applied as S one qubit axis at a time; every
    entry is a dyadic rational, so the basis equals the Kronecker-product
    construction to the bit."""
    v0 = basis_state("00000")
    for s in _FIVE_QUBIT_STABILIZERS:
        v0 = (v0 + _pauli_on(s, v0)) / 2.0
    v0 /= np.linalg.norm(v0)
    return CodeSpace.from_vectors([v0, _pauli_on("XXXXX", v0)])


def _five_qubit_noise_on(gammas, basis: np.ndarray) -> np.ndarray:
    """Kraus operators of five_qubit_noise for each gamma times basis
    (32, c), stacked (G, 6, 32, c).  The Paulis of weight at most one act
    on basis one qubit axis at a time, once per call."""
    for gamma in gammas:
        _check_gamma(gamma)
    paulis = np.stack([basis] + [
        _pauli_on("I" * k + p + "I" * (4 - k), basis) for p in "ZXY" for k in range(5)
    ])
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


def _complete_to_mixed_on_code(k: np.ndarray, m: np.ndarray) -> np.ndarray:
    """A recovered map completed by re-preparing the maximally mixed code
    state, on the code: k (G, X, d, d) the code-basis Kraus stack of a
    recovery after noise, m (G, N, D, d) the noise on the code, M_i = E_i W.
    Returns k followed by d^2 operators per gamma, (G, X + d^2, d, d).

    When every recovery operator maps into the code, the completion of
    complete_to_tp(., code.basis) after the noise is rho -> tr(F rho) I / d
    with F = sum_i M_i^dag M_i - sum_x K_x^dag K_x, the defect seen through
    the noise: its Kraus operators are sqrt(mu_c / d) e_a v_c^dag for the
    eigenpairs (mu_c, v_c) of F, negative mu_c taken as 0.  Unlike the
    ambient completion, no defect eigenvalue is dropped below 1e-8.
    """
    g, _, d, _ = k.shape
    noise, kept = m.reshape(g, -1, d), k.reshape(g, -1, d)
    f = noise.conj().swapaxes(-1, -2) @ noise - kept.conj().swapaxes(-1, -2) @ kept
    mu, v = np.linalg.eigh(f)
    rows = np.sqrt(np.maximum(mu, 0.0) / d)[..., None] * v.conj().swapaxes(-1, -2)
    fill = np.eye(d)[:, None, :, None] * rows[:, None, :, None, :]
    return np.concatenate([k, fill.reshape(g, d * d, d, d)], axis=1)


def five_qubit_recovery(gamma: float) -> QuantumChannel:
    """TP-completed standard recovery for the five-qubit code against the
    single-error channel at this gamma.  Syndromes outside the corrected
    set (two or more damping events) are discarded and replaced by the
    maximally mixed code state."""
    code, noise = five_qubit_code_only(), five_qubit_noise(gamma)
    cert = check_perfect_qec(noise, code)
    return complete_to_tp(build_r_perf(cert, noise, code), code.basis)


def example5_channel(
    d: int, p: float, ambient_dim: int | None = None
) -> tuple[QuantumChannel, CodeSpace]:
    """Near-identity channel with a weak leak of every code state to |0>:

        {sqrt(1-p) P, sqrt(p) |0><0|, ..., sqrt(p) |0><d-1|}

    on the code span{|0>, ..., |d-1>} inside a larger space, plus one
    Kraus operator I - P on the complement so the total map is TP.  For
    d >= 3 the transpose-channel fidelity loss has the closed form
    example5_eta_formula, while doing nothing loses only p.
    """
    if d < 2:
        raise ParamOutOfRange(f"code dimension {d} must be at least 2")
    if not 0.0 <= p < 1.0:
        raise ParamOutOfRange(f"p = {p} outside [0, 1)")
    if ambient_dim is None:
        ambient_dim = d + 1
    if ambient_dim < d + 1:
        raise ParamOutOfRange(
            f"ambient dimension {ambient_dim} must be at least d + 1 = {d + 1}"
        )
    basis = np.eye(ambient_dim, dtype=complex)[:, :d]
    code = CodeSpace(basis)
    p_proj = code.projector()
    ops = [np.sqrt(1.0 - p) * p_proj]
    for k in range(d):
        op = np.zeros((ambient_dim, ambient_dim), dtype=complex)
        op[0, k] = np.sqrt(p)
        ops.append(op)
    ops.append(np.eye(ambient_dim) - p_proj)
    return QuantumChannel(ops), code


def example5_eta_formula(d: int, p: float) -> float:
    """Closed-form transpose-channel fidelity loss (d-1)p / (1 + (d-1)p)
    of example5_channel, valid for d >= 3.

    At d = 2 the exact loss is larger (0.09296 against 0.09091 at p = 0.1),
    so d < 3 raises ParamOutOfRange.
    """
    if d < 3:
        raise ParamOutOfRange(f"the closed form holds for d >= 3, got d = {d}")
    return (d - 1) * p / (1.0 + (d - 1) * p)


MODEL_REGISTRY = {
    "ad": "single-qubit amplitude damping channel (parameter gamma)",
    "leung41": "four-qubit amplitude-damping code [4,1]",
    "five513": "five-qubit distance-3 code [[5,1,3]] with its single-error channel",
    "example5": "identity-plus-leak channel family (parameters d, p)",
}
