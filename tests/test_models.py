import numpy as np
import pytest

from aqec import (
    QuantumChannel,
    amplitude_damping,
    aqec_diagnostics,
    check_perfect_qec,
    complete_to_tp,
    example5_channel,
    five_qubit_code_only,
    five_qubit_noise,
    five_qubit_recovery,
    leung_code,
    leung_recovery,
    random_code,
    tensor_power,
    transpose_channel,
    truncated_damping_channel,
    worst_case_fidelity,
)
from aqec.exceptions import DimensionMismatch, ParamOutOfRange
from aqec.models import _damping_on, _five_qubit_noise_on

from helpers import (
    basis_state,
    channels_equal,
    complete_to_tp_leung_recovery,
    pauli_string,
    polar_r_perf,
    tp_defect,
)
from properties import (
    check_damping_semigroup,
    check_example5_ratio,
    check_leung_stabilizers,
)


def test_amplitude_damping_kraus():
    e = amplitude_damping(0.3)
    assert np.allclose(e.kraus[0], np.diag([1.0, np.sqrt(0.7)]))
    assert np.allclose(e.kraus[1], [[0.0, np.sqrt(0.3)], [0.0, 0.0]])
    assert tp_defect(e) < 1e-12


def test_amplitude_damping_limits():
    assert channels_equal(amplitude_damping(0.0), QuantumChannel([np.eye(2)]))
    full = amplitude_damping(1.0)
    rho = np.array([[0.4, 0.2], [0.2, 0.6]], dtype=complex)
    out = full.apply(rho)
    assert np.max(np.abs(out - np.diag([1.0, 0.0]))) < 1e-12


def test_amplitude_damping_rejects_bad_gamma():
    with pytest.raises(ParamOutOfRange):
        amplitude_damping(-0.1)
    with pytest.raises(ParamOutOfRange):
        amplitude_damping(1.5)


def test_leung_code_states():
    code = leung_code()
    v0, v1 = code.basis[:, 0], code.basis[:, 1]
    assert abs(np.vdot(v0, v1)) < 1e-14
    assert abs(np.linalg.norm(v0) - 1.0) < 1e-14
    expected0 = (basis_state("0000") + basis_state("1111")) / np.sqrt(2)
    expected1 = (basis_state("0011") + basis_state("1100")) / np.sqrt(2)
    assert np.max(np.abs(v0 - expected0)) < 1e-14
    assert np.max(np.abs(v1 - expected1)) < 1e-14


def test_leung_eta_small_positive():
    code = leung_code()
    e = tensor_power(amplitude_damping(0.1), 4)
    diag = aqec_diagnostics(e, code, epsilon=0.1)
    assert 0 < diag.eta < 0.05  # order gamma^2, not gamma


def test_leung_recovery_noiseless_limit():
    code = leung_code()
    for g in (0.0, 1e-4):
        e = tensor_power(amplitude_damping(g), 4)
        res = worst_case_fidelity(e, leung_recovery(g), code)
        assert res.f2_min > 1.0 - 1e-3


def test_leung_recovery_is_tp():
    assert tp_defect(leung_recovery(0.1)) < 1e-9


def test_leung_recovery_equals_complete_to_tp_construction():
    # The completion is appended directly, with no defect eigh: operator
    # for operator the one complete_to_tp builds, and TP to rounding.
    # numpy's eigh returns the degenerate defect vectors e_6, e_9, e_10,
    # e_5, so the four completion operators |0_L><e_x| are matched by x.
    def by_column(ops):
        return sorted(ops, key=lambda k: np.flatnonzero(np.abs(k).sum(axis=0)).tolist())

    ref = complete_to_tp_leung_recovery()
    for g in (0.0, 0.1, 0.9):
        rec = leung_recovery(g)
        assert rec.n_kraus == ref.n_kraus == 9
        for got, want in zip(rec.kraus[:5], ref.kraus[:5]):
            assert np.array_equal(got, want)
        for got, want in zip(by_column(rec.kraus[5:]), by_column(ref.kraus[5:])):
            assert np.array_equal(got, want)
        assert np.max(np.abs(rec.kraus_sum() - np.eye(16))) <= 1e-15


def test_leung_recovery_param_range():
    with pytest.raises(ParamOutOfRange):
        leung_recovery(-0.01)
    with pytest.raises(ParamOutOfRange):
        leung_recovery(1.0)


def test_transpose_beats_reference_recovery_on_leung():
    code = leung_code()
    for g in (0.1, 0.2, 0.3):
        e = tensor_power(amplitude_damping(g), 4)
        eta_t = worst_case_fidelity(e, transpose_channel(e, code), code).eta
        eta_l = worst_case_fidelity(e, leung_recovery(g), code).eta
        assert eta_l >= eta_t


def test_leung_recovery_beats_baseline():
    code = leung_code()
    g = 0.1
    e = tensor_power(amplitude_damping(g), 4)
    res = worst_case_fidelity(e, leung_recovery(g), code)
    assert res.f2_min > 1 - g


def test_five_qubit_code_shape():
    code, noise = five_qubit_code_only(), five_qubit_noise(0.2)
    assert code.ambient_dim == 32 and code.code_dim == 2
    assert noise.dims_in == 32


def test_five_qubit_code_equals_kron_construction():
    proj = np.eye(32, dtype=complex)
    for s in ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"):
        proj = proj @ (np.eye(32) + pauli_string(s)) / 2.0
    v0 = proj @ basis_state("00000")
    v0 /= np.linalg.norm(v0)
    kron = np.column_stack([v0, pauli_string("XXXXX") @ v0])
    assert np.array_equal(five_qubit_code_only().basis, kron)


def test_five_qubit_stabilizer_eigenstates():
    code = five_qubit_code_only()
    for s in ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"):
        g = pauli_string(s)
        assert np.max(np.abs(g @ code.basis - code.basis)) < 1e-12
    # logical operators act as they should
    zl = pauli_string("ZZZZZ")
    v0, v1 = code.basis[:, 0], code.basis[:, 1]
    assert np.max(np.abs(zl @ v0 - v0)) < 1e-12
    assert np.max(np.abs(zl @ v1 + v1)) < 1e-12


def test_five_qubit_perfect_conditions_all_gamma():
    code = five_qubit_code_only()
    for g in (0.05, 0.2, 0.6, 0.9):
        cert = check_perfect_qec(five_qubit_noise(g), code)
        assert cert.satisfied and cert.residual < 1e-10


def test_five_qubit_recovery_tp_and_noiseless_limit():
    assert tp_defect(five_qubit_recovery(0.2)) < 1e-9
    code = five_qubit_code_only()
    e = tensor_power(amplitude_damping(0.0), 5)
    res = worst_case_fidelity(e, five_qubit_recovery(0.0), code)
    assert res.f2_min > 1 - 1e-9
    with pytest.raises(ParamOutOfRange):
        five_qubit_recovery(1.2)


def test_five_qubit_noise_matches_pauli_expansion():
    for g in (0.0, 0.2, 1.0):
        a, b = (1 + np.sqrt(1 - g)) / 2, (1 - np.sqrt(1 - g)) / 2
        ops = [a**5 * pauli_string("IIIII") + a**4 * b * sum(
            pauli_string("I" * k + "Z" + "I" * (4 - k)) for k in range(5))]
        for k in range(5):
            x, y = ("I" * k + p + "I" * (4 - k) for p in "XY")
            ops.append(a**4 * np.sqrt(g) * (pauli_string(x) + 1j * pauli_string(y)) / 2)
        assert np.max(np.abs(np.stack(ops) - five_qubit_noise(g).kraus)) < 1e-15


def test_five_qubit_noise_on_equals_closed_form_to_the_bit():
    # K0 W = a^5 W + sum_k (a^4 b)(Z_k W), the terms added in k order, and
    # K_k W = a^4 sqrt(gamma) |0><1|_k W, each Pauli and lowering operator
    # a Kronecker product
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    bases = [five_qubit_code_only().basis, np.eye(32, dtype=complex),
             random_code(32, 2, 61).basis]
    for g in (0.0, 0.01, 0.37, 1.0):
        a, b = (1 + np.sqrt(1 - g)) / 2, (1 - np.sqrt(1 - g)) / 2
        for w in bases:
            k0 = a**5 * w
            for k in range(5):
                k0 = k0 + (a**4 * b) * (pauli_string("I" * k + "Z" + "I" * (4 - k)) @ w)
            ops = [k0]
            for k in range(5):
                lower_k = np.kron(np.kron(np.eye(2**k), lower), np.eye(2 ** (4 - k)))
                ops.append((a**4 * np.sqrt(g)) * (lower_k @ w))
            assert np.array_equal(_five_qubit_noise_on([g], w)[0], np.stack(ops, axis=1))


def test_five_qubit_recovery_matches_original_construction():
    code = five_qubit_code_only()
    for g in (0.0, 0.01, 0.3, 1.0):
        noise = five_qubit_noise(g)
        original = complete_to_tp(
            polar_r_perf(check_perfect_qec(noise, code), noise, code), code.basis
        )
        assert channels_equal(five_qubit_recovery(g), original, tol=1e-12)


def test_five_qubit_beats_reference_recovery():
    five = five_qubit_code_only()
    leung = leung_code()
    for g in (0.05, 0.1, 0.2):
        e5 = tensor_power(amplitude_damping(g), 5)
        e4 = tensor_power(amplitude_damping(g), 4)
        f_five = worst_case_fidelity(e5, five_qubit_recovery(g), five).f2_min
        f_leung = worst_case_fidelity(e4, leung_recovery(g), leung).f2_min
        assert f_five >= f_leung


def test_example5_p_zero_is_identity_on_code():
    e, code = example5_channel(3, 0.0)
    rng = np.random.default_rng(1)
    c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    c /= np.linalg.norm(c)
    psi = code.basis @ c
    rho = np.outer(psi, psi.conj())
    assert np.max(np.abs(e.apply(rho) - rho)) < 1e-12


def test_example5_tp_and_factor():
    e, code = example5_channel(4, 0.07)
    assert tp_defect(e) < 1e-12
    w = code.basis
    a = np.trace(w.conj().T @ e.kraus_sum() @ w).real / code.code_dim
    assert abs(a - 1.0) < 1e-12


def test_example5_closed_form_d3():
    e, code = example5_channel(3, 0.1)
    diag = aqec_diagnostics(e, code, epsilon=0.01, eta_samples=50_000, seed=2)
    assert abs(diag.eta - 1.0 / 6.0) < 1e-4
    res0 = worst_case_fidelity(e, None, code, samples=50_000, seed=3)
    assert abs(res0.eta - 0.1) < 1e-3
    assert res0.eta < diag.eta


def test_example5_param_validation():
    with pytest.raises(ParamOutOfRange):
        example5_channel(1, 0.1)
    with pytest.raises(ParamOutOfRange):
        example5_channel(3, -0.2)


def test_property_damping_semigroup():
    check_damping_semigroup(701)


def test_property_leung_stabilizers():
    check_leung_stabilizers()


def test_property_example5_ratio():
    check_example5_ratio(702)


def test_example5_formula_only_for_d_at_least_3():
    from aqec import example5_eta_formula

    with pytest.raises(ParamOutOfRange):
        example5_eta_formula(2, 0.1)
    # the exact qubit loss exceeds the formula's value (1/11 at p = 0.1)
    e, code = example5_channel(2, 0.1)
    assert abs(aqec_diagnostics(e, code, 0.1).eta - 0.09296) < 1e-5
    e, code = example5_channel(3, 0.1)
    assert abs(aqec_diagnostics(e, code, 0.1).eta - example5_eta_formula(3, 0.1)) < 1e-4


def _damping_literals(gamma):
    """E0 = diag(1, sqrt(1 - gamma)) and E1 = sqrt(gamma) |0><1| as literal
    matrices."""
    return [np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex),
            np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)]


def test_amplitude_damping_equals_literals_to_the_bit():
    # the bytes compare the signs of zeros too
    for gamma in [0.0, 1e-3, 0.1, 0.37, 0.999, 1.0]:
        kraus = amplitude_damping(gamma).kraus
        ref = np.stack(_damping_literals(gamma))
        assert kraus.dtype == ref.dtype and kraus.tobytes() == ref.tobytes()


def _kron_damping(gamma, n):
    """The 2^n Kraus operators of n-qubit damping as np.kron products,
    first qubit most significant."""
    e = _damping_literals(gamma)
    ops = []
    for a in range(2**n):
        op = np.ones((1, 1), dtype=complex)
        for k in range(n):
            op = np.kron(op, e[(a >> (n - 1 - k)) & 1])
        ops.append(op)
    return np.stack(ops)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_damping_on_code_equals_kron_construction(n):
    gammas = [0.0, 0.01, 0.37, 1.0]
    bases = [np.eye(2**n, dtype=complex), random_code(2**n, 2, 40 + n).basis]
    if n > 1:
        bases.append(random_code(2**n, 3, 50 + n).basis)
    # the ambient operators in the layout of the noise on the code, (G, 2^n, K, 2^n)
    ref = np.stack([_kron_damping(g, n) for g in gammas]).swapaxes(1, 2)
    assert np.array_equal(_damping_on(gammas, np.eye(2**n, dtype=complex)), ref)
    for basis in bases:
        m = _damping_on(gammas, basis)
        assert m.shape == (4, 2**n, 2**n, basis.shape[1])
        assert np.array_equal(m, ref @ basis)
    # a subset of Kraus indices, out of order, on each basis
    kraus = [2**n - 1, 0, 1] if n > 1 else [1]
    for basis in bases:
        assert np.array_equal(_damping_on(gammas, basis, kraus), ref[:, :, kraus] @ basis)


def test_truncated_damping_equals_kron_loop():
    for gamma, n in [(0.0, 2), (0.2, 4), (0.37, 5), (1.0, 3)]:
        e0, e1 = _damping_literals(gamma)
        ops = []
        for damp_at in range(-1, n):
            factors = [e1 if k == damp_at else e0 for k in range(n)]
            op = factors[0]
            for f in factors[1:]:
                op = np.kron(op, f)
            ops.append(op)
        assert np.array_equal(np.stack(truncated_damping_channel(gamma, n).kraus), ops)
    with pytest.raises(ParamOutOfRange):
        truncated_damping_channel(1.2, 3)
    for n in (0, -1, 2.0, True):
        with pytest.raises(DimensionMismatch):
            truncated_damping_channel(0.1, n)


def test_truncated_damping_copies_its_operators_once():
    # The channel stacks its Kraus operators with one copy: the peak is the
    # result plus the gathered operators it was built from, not also a copy
    # per operator and a second stack (3.06 times the result before).
    import tracemalloc

    tracemalloc.start()
    try:
        stack = truncated_damping_channel(0.1, 8).kraus
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * stack.nbytes


def test_truncated_damping_builds_only_its_operators():
    # All 2^9 damping operators of 9 qubits are over the Kraus entry budget;
    # the truncated channel needs 10 of them.
    gamma, n = 0.1, 9
    ops = np.stack(truncated_damping_channel(gamma, n).kraus)
    assert ops.shape == (n + 1, 2**n, 2**n)
    weight = np.array([bin(x).count("1") for x in range(2**n)])
    assert np.allclose(np.diagonal(ops[0]), np.sqrt(1.0 - gamma) ** weight, rtol=0, atol=1e-15)
    # damping at the last qubit maps |x1> to sqrt(gamma) |x0>
    assert abs(ops[n][0, 1] - np.sqrt(gamma)) <= 1e-15
