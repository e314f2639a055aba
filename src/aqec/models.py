"""Named channels and codes used by the experiments and the CLI.

Conventions: n-qubit states index bitstrings with the first qubit most
significant (|abcd> sits at index a*8 + b*4 + c*2 + d for four qubits);
tensor products of single-qubit operators follow the same order.
"""

from __future__ import annotations

import numpy as np

from .channels import (
    QuantumChannel,
    _check_budget,
    _prune,
    complete_to_tp,
)
from .codes import CodeSpace, _su_generators
from .conditions import PERFECT_TOL
from .exceptions import CertificateInvalid, DimensionMismatch, ParamOutOfRange
from .linalg import RANK_TOL, hermitian_eig

_PAULI = dict(zip("IXYZ", [np.eye(2, dtype=complex)] + _su_generators(2)))


def pauli_string(spec: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis, e.g. 'XZZXI'."""
    op = np.array([[1.0]], dtype=complex)
    for ch in spec:
        op = np.kron(op, _PAULI[ch])
    return op


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


def amplitude_damping_power(gammas, n: int) -> np.ndarray:
    """Kraus operators of n-qubit amplitude damping for each gamma, stacked
    with shape (G, 2^n, 2^n, 2^n).

    The operators and their order are those of
    tensor_power(amplitude_damping(gamma), n) before pruning: all n-fold
    Kronecker products, first factor most significant.  Raises
    BudgetExceeded when the whole stack is over the Kraus entry budget.
    """
    _check_budget(len(gammas) * 2**n, 2**n, 2**n)
    return _damping_on(gammas, np.eye(2**n, dtype=complex))


def qubit_space() -> CodeSpace:
    """The full single-qubit space as a trivial code (no encoding)."""
    return CodeSpace(np.eye(2, dtype=complex))


def bit_flip_code() -> CodeSpace:
    """Three-qubit repetition code span{|000>, |111>}."""
    return CodeSpace.from_vectors([basis_state("000"), basis_state("111")])


def bit_flip_channel(q: float) -> QuantumChannel:
    """Independent bit flips truncated to at most one flip (CP, sub-TP):

        {sqrt((1-q)^3) I, sqrt(q(1-q)^2) X_k for k = 1, 2, 3}.
    """
    if not 0.0 <= q <= 1.0:
        raise ParamOutOfRange(f"q = {q} outside [0, 1]")
    ops = [np.sqrt((1 - q) ** 3) * pauli_string("III")]
    for s in ("XII", "IXI", "IIX"):
        ops.append(np.sqrt(q * (1 - q) ** 2) * pauli_string(s))
    return QuantumChannel(ops)


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

    The gamma argument is accepted for interface symmetry with the other
    recoveries; the map itself is gamma independent apart from validation.
    """
    _check_gamma(gamma, closed=False)
    code = leung_code()
    v0, v1 = code.basis[:, 0], code.basis[:, 1]
    sector = [basis_state(b) for b in ("0000", "1111", "0011", "1100")]
    ops = [sum(np.outer(v, v.conj()) for v in sector)]
    for d0, d1 in _LEUNG_DAMPED_IMAGES.values():
        ops.append(
            np.outer(v0, basis_state(d0).conj())
            + np.outer(v1, basis_state(d1).conj())
        )
    return complete_to_tp(QuantumChannel(ops), v0)


_FIVE_QUBIT_STABILIZERS = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")


def five_qubit_code_only() -> CodeSpace:
    """Distance-3 five-qubit code: the +1 eigenspace of the cyclic
    stabilizers XZZXI, IXZZX, XIXZZ, ZXIXZ with logical states fixed by
    Z_L = ZZZZZ, X_L = XXXXX.  It corrects five_qubit_noise exactly."""
    dim = 32
    proj = np.eye(dim, dtype=complex)
    for s in _FIVE_QUBIT_STABILIZERS:
        proj = proj @ (np.eye(dim) + pauli_string(s)) / 2.0
    v0 = proj @ basis_state("00000")
    v0 /= np.linalg.norm(v0)
    v1 = pauli_string("XXXXX") @ v0
    return CodeSpace.from_vectors([v0, v1])


def _five_qubit_noise_on(gammas, basis: np.ndarray) -> np.ndarray:
    """Kraus operators of five_qubit_noise for each gamma times basis
    (32, c), stacked (G, 6, 32, c).  The Paulis of weight at most one act
    on basis one qubit axis at a time, once per call."""
    for gamma in gammas:
        _check_gamma(gamma)
    cube = basis.reshape((2,) * 5 + (-1,))
    paulis = np.stack([basis] + [
        np.moveaxis(np.tensordot(_PAULI[p], cube, axes=(1, k)), 0, k).reshape(basis.shape)
        for p in "ZXY" for k in range(5)
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


def complete_to_mixed_code(
    e: QuantumChannel, code: CodeSpace, tol: float = 1e-8
) -> QuantumChannel:
    """Extend a trace-nonincreasing channel to TP by routing the missing
    weight to the maximally mixed code state (unbiased re-preparation)."""
    defect = np.eye(e.dims_in) - e.kraus_sum()
    vals, vecs = hermitian_eig(defect)
    d = code.code_dim
    ops = list(e.kraus)
    for lam, phi in zip(vals, vecs.T):
        if lam > tol:
            for k in range(d):
                ops.append(np.sqrt(lam / d) * np.outer(code.basis[:, k], phi.conj()))
    return QuantumChannel(ops)


def five_qubit_recovery_grid(gammas, code: CodeSpace) -> np.ndarray:
    """five_qubit_recovery for each gamma, in the coordinates of a code
    (normally five_qubit_code_only): a (G, R, d, 32) stack of W^dag R_j,
    W the code isometry, padded with zero operators to a common R.

    Per gamma this is build_r_perf after check_perfect_qec on
    five_qubit_noise, completed by complete_to_mixed_code.  With
    M_i = E_i W, alpha = tr(M_i^dag M_j) / d = u diag(vals) u^dag; each
    vals_k above RANK_TOL * max(vals) gives W^dag R_k = G_k^(-1/2)
    (F_k W)^dag, F_k = sum_i u_ik E_i and G_k = (F_k W)^dag (F_k W), which
    is build_r_perf's (A^dag A)^(-1/2) A^dag for A = F_k P seen from the
    code.  Each eigenpair (lam, phi) of the defect I - sum_k R_k^dag R_k
    with lam > 1e-8 adds sqrt(lam / d) e_a phi^dag, a = 1..d.  Neither
    map depends on the eigenvectors chosen inside a degenerate
    eigenspace.  Raises ParamOutOfRange for gamma outside [0, 1] and
    CertificateInvalid when a gamma's pair misses the perfect correction
    conditions by more than PERFECT_TOL.
    """
    if code.ambient_dim != 32:
        raise DimensionMismatch(
            f"the five-qubit recovery needs a code in dim 32, got {code.ambient_dim}"
        )
    g, d = len(gammas), code.code_dim
    m = _five_qubit_noise_on(gammas, code.basis)
    wide = np.moveaxis(m, 1, 2).reshape(g, 32, 6 * d)
    prods = (wide.conj().swapaxes(-1, -2) @ wide).reshape(g, 6, d, 6, d).swapaxes(2, 3)
    alpha = np.trace(prods, axis1=-2, axis2=-1) / d
    dev = np.abs(prods - alpha[..., None, None] * np.eye(d))
    residual = dev.reshape(g, -1).max(axis=1)
    bad = np.flatnonzero(residual > PERFECT_TOL)
    if bad.size:
        raise CertificateInvalid(
            f"residual {residual[bad[0]]:.3e} exceeds tolerance {PERFECT_TOL:.3e}"
        )
    vals, u = np.linalg.eigh((alpha + alpha.conj().swapaxes(-1, -2)) / 2.0)
    keep = vals > RANK_TOL * np.maximum(vals[:, -1:], 0.0)
    fw = (u.swapaxes(-1, -2) @ m.reshape(g, 6, -1)).reshape(m.shape)
    fw_dag = fw.conj().swapaxes(-1, -2)
    lam, v = np.linalg.eigh(fw_dag @ fw_dag.conj().swapaxes(-1, -2))
    weight = np.where(lam > RANK_TOL * lam[..., -1:], lam, np.inf) ** -0.5
    ops = (v * weight[..., None, :]) @ v.conj().swapaxes(-1, -2) @ fw_dag
    ops[~keep] = 0.0

    flat = ops.reshape(g, -1, 32)
    lam, phi = np.linalg.eigh(np.eye(32) - flat.conj().swapaxes(-1, -2) @ flat)
    used = np.flatnonzero((lam > 1e-8).any(axis=0))
    amp = np.sqrt(np.where(lam[:, used] > 1e-8, lam[:, used], 0.0) / d)
    rows = amp[..., None] * phi[:, :, used].conj().swapaxes(-1, -2)
    fill = np.eye(d)[:, :, None] * rows[:, :, None, None, :]
    return np.concatenate([ops, fill.reshape(g, -1, d, 32)], axis=1)


def five_qubit_recovery(gamma: float) -> QuantumChannel:
    """TP-completed standard recovery for the five-qubit code against the
    single-error channel at this gamma.  Syndromes outside the corrected
    set (two or more damping events) are discarded and replaced by the
    maximally mixed code state."""
    code = five_qubit_code_only()
    stack = code.basis @ five_qubit_recovery_grid([gamma], code)[0]
    return QuantumChannel(_prune(list(stack)))


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
