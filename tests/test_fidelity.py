import numpy as np
import pytest

from aqec import (
    QuantumChannel,
    amplitude_damping,
    identity_channel,
    process_matrix,
    qubit_space,
    random_code,
    recovered_channel,
    tensor_power,
    worst_case_fidelity,
    worst_fidelity_qubit_lagrange,
    worst_fidelity_sampled,
    worst_fidelity_unital_qubit,
)
from aqec.codes import CodeSpace, operator_basis
from aqec.conditions import _eta_form
from aqec.exceptions import OutputLeavesCode, PreconditionViolated
from aqec.fidelity import _code_process_matrices, _min_quadratic_on_sphere
from aqec.models import leung_code

from helpers import (
    bloch_samples,
    random_tp_channel,
    random_unital_qubit_channel,
    sphere_oracle_min_f2,
)
from properties import (
    check_f2_matches_process_matrix,
    check_rotation_invariance,
    check_sampled_upper_bounds_exact,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_process_matrix_identity():
    m = process_matrix(identity_channel(2), qubit_space())
    assert np.max(np.abs(m.m - np.eye(4))) < 1e-12
    assert m.is_tp and m.is_unital


def test_process_matrix_depolarizing_to_mixed():
    code = qubit_space()
    # channel sending everything to the maximally mixed state
    ops = [
        0.5 * np.eye(2, dtype=complex),
        0.5 * SX,
        0.5 * SY,
        0.5 * SZ,
    ]
    m = process_matrix(QuantumChannel(ops), code)
    assert np.max(np.abs(m.m - np.diag([1.0, 0, 0, 0]))) < 1e-12


def test_process_matrix_recovered_structure():
    code = leung_code()
    e = tensor_power(amplitude_damping(0.1), 4)
    m = process_matrix(recovered_channel(e, code), code)
    assert m.is_tp and m.is_unital
    t = m.m[1:, 1:]
    assert np.max(np.abs(t - t.T)) < 1e-10
    assert np.max(np.abs(m.m[0, 1:])) < 1e-10
    assert np.max(np.abs(m.m[1:, 0])) < 1e-10


def test_process_matrix_leak_detection():
    from aqec import haar_unitary

    code = random_code(4, 2, 3)
    rotate = QuantumChannel([haar_unitary(4, np.random.default_rng(0))])
    with pytest.raises(OutputLeavesCode):
        process_matrix(rotate, code)
    # allowed when leakage is explicitly tolerated; the code-restricted
    # trace is then genuinely not preserved
    m = process_matrix(rotate, code, allow_leakage=True)
    assert not m.is_tp
    assert np.all(np.isfinite(m.m))


def test_unital_identity():
    res = worst_fidelity_unital_qubit(process_matrix(identity_channel(2), qubit_space()))
    assert abs(res.f2_min - 1.0) < 1e-12
    assert abs(res.eta) < 1e-12


def test_unital_depolarizing():
    q = 0.3
    ops = [
        np.sqrt(1 - 3 * q / 4) * np.eye(2, dtype=complex),
        np.sqrt(q / 4) * SX,
        np.sqrt(q / 4) * SY,
        np.sqrt(q / 4) * SZ,
    ]
    chan = QuantumChannel(ops)
    m = process_matrix(chan, qubit_space())
    assert np.max(np.abs(m.m[1:, 1:] - (1 - q) * np.eye(3))) < 1e-12
    res = worst_fidelity_unital_qubit(m)
    assert abs(res.eta - q / 2) < 1e-12
    # cross-check against the independent sampled oracle
    rng = np.random.default_rng(1)
    oracle = sphere_oracle_min_f2(chan, None, qubit_space(), 20_000, rng)
    assert oracle >= res.f2_min - 1e-9
    assert oracle - res.f2_min < 1e-6


def test_unital_phase_flip():
    q = 0.23
    ops = [np.sqrt(1 - q) * np.eye(2, dtype=complex), np.sqrt(q) * SZ]
    m = process_matrix(QuantumChannel(ops), qubit_space())
    assert np.max(np.abs(m.m[1:, 1:] - np.diag([1 - 2 * q, 1 - 2 * q, 1.0]))) < 1e-12
    res = worst_fidelity_unital_qubit(m)
    assert abs(res.eta - q) < 1e-12
    rng = np.random.default_rng(2)
    oracle = sphere_oracle_min_f2(QuantumChannel(ops), None, qubit_space(), 20_000, rng)
    assert oracle - res.f2_min < 1e-6


def test_unital_solver_rejects_nonunital():
    m = process_matrix(amplitude_damping(0.2), qubit_space())
    assert m.is_tp and not m.is_unital
    with pytest.raises(PreconditionViolated):
        worst_fidelity_unital_qubit(m)


def test_lagrange_agrees_with_unital_on_unital_input():
    rng = np.random.default_rng(5)
    for _ in range(20):
        chan = random_unital_qubit_channel(rng)
        m = process_matrix(chan, qubit_space())
        r1 = worst_fidelity_unital_qubit(m)
        r2 = worst_fidelity_qubit_lagrange(m)
        assert abs(r1.f2_min - r2.f2_min) < 1e-10


def test_lagrange_bare_damping():
    m = process_matrix(amplitude_damping(0.2), qubit_space())
    res = worst_fidelity_qubit_lagrange(m)
    assert abs(res.f2_min - 0.8) < 1e-12
    assert np.allclose(res.bloch, [0, 0, -1], atol=1e-8)
    # worst state is the excited state
    assert abs(abs(res.worst_state[1]) - 1.0) < 1e-8


def test_lagrange_matches_sphere_oracle_random_nonunital():
    rng = np.random.default_rng(6)
    for trial in range(5):
        chan = random_tp_channel(2, int(rng.integers(2, 5)), rng)
        m = process_matrix(chan, qubit_space())
        res = worst_fidelity_qubit_lagrange(m)
        oracle = sphere_oracle_min_f2(chan, None, qubit_space(), 1_000_000, rng)
        assert oracle >= res.f2_min - 1e-9, (trial, oracle, res.f2_min)
        assert oracle - res.f2_min < 1e-6, (trial, oracle, res.f2_min)


def test_quadratic_sphere_solver_degenerate_branch():
    # bottom eigenspace orthogonal to the linear term: boundary minimum
    n_sym = np.diag([1.0, 2.0, 3.0])
    b = np.array([0.0, 0.5, 0.0])
    val, s = _min_quadratic_on_sphere(0.0, b, n_sym)
    assert abs(np.linalg.norm(s) - 1.0) < 1e-12
    # brute check on a fine sphere grid
    rng = np.random.default_rng(7)
    u = bloch_samples(200_000, rng)
    vals = 2 * u @ b + np.einsum("ni,ij,nj->n", u, n_sym, u)
    assert val <= vals.min() + 1e-9


def test_quadratic_sphere_solver_hard_case_interior():
    # strong off-bottom linear term forces the secular root branch
    n_sym = np.diag([1.0, 5.0, 9.0])
    b = np.array([0.0, 3.0, 1.0])
    val, s = _min_quadratic_on_sphere(0.0, b, n_sym)
    rng = np.random.default_rng(8)
    u = bloch_samples(200_000, rng)
    vals = 2 * u @ b + np.einsum("ni,ij,nj->n", u, n_sym, u)
    assert val <= vals.min() + 1e-9
    assert vals.min() - val < 1e-4


def test_sampled_identity():
    code = random_code(5, 3, 2)
    res = worst_fidelity_sampled(identity_channel(5), code, n=500, seed=0)
    assert abs(res.f2_min - 1.0) < 1e-9


def test_sampled_deterministic():
    rng = np.random.default_rng(11)
    e = random_tp_channel(4, 3, rng)
    code = random_code(4, 3, 9)
    r1 = worst_fidelity_sampled(e, code, n=2000, seed=5)
    r2 = worst_fidelity_sampled(e, code, n=2000, seed=5)
    assert r1.f2_min == r2.f2_min
    assert np.array_equal(r1.worst_state, r2.worst_state)


def test_sampled_dominates_exact_on_qubit():
    rng = np.random.default_rng(12)
    e = random_tp_channel(2, 3, rng)
    m = process_matrix(e, qubit_space())
    exact = worst_fidelity_qubit_lagrange(m)
    prev = None
    for n in (50, 500, 5000):
        samp = worst_fidelity_sampled(e, qubit_space(), n=n, seed=3, refine_iters=0)
        assert samp.f2_min >= exact.f2_min - 1e-12
        if prev is not None:
            assert samp.f2_min <= prev + 1e-12
        prev = samp.f2_min


def test_worst_case_dispatcher_methods():
    code = leung_code()
    e = tensor_power(amplitude_damping(0.1), 4)
    from aqec import transpose_channel

    r = transpose_channel(e, code).recovery
    res = worst_case_fidelity(e, r, code)
    assert res.method == "exact_unital_qubit"
    res_id = worst_case_fidelity(e, None, code)
    assert res_id.method == "lagrange_qubit"
    big_code = random_code(8, 3, 4)
    e3 = tensor_power(amplitude_damping(0.1), 3)
    res3 = worst_case_fidelity(e3, None, big_code, samples=2000, seed=0)
    assert res3.method == "sampled"


def test_result_json_fields():
    res = worst_case_fidelity(amplitude_damping(0.1), None, qubit_space())
    data = res.to_json_dict()
    assert {"f2_min", "f_min", "eta", "worst_state", "bloch", "method"} <= set(data)


def test_property_f2_process_matrix():
    check_f2_matches_process_matrix(601)


def test_property_sampled_bounds():
    check_sampled_upper_bounds_exact(602, cases=10)


def test_property_rotation_invariance():
    check_rotation_invariance(603)


def test_fidelity_grid_rejects_wrong_stack_shape():
    from aqec import transpose_fidelity_grid
    from aqec.exceptions import DimensionMismatch

    code = random_code(4, 2, 1)
    with pytest.raises(DimensionMismatch):
        transpose_fidelity_grid(np.zeros((2, 3, 8, 8)), code)
    with pytest.raises(DimensionMismatch):
        transpose_fidelity_grid(np.zeros((3, 4, 4)), code)


def _form_test_cases(d, rng):
    """Code-basis Kraus stacks: trace preserving, non-TP, and the leaky
    compression of an ambient channel to a code."""
    code = random_code(d + 2, d, int(rng.integers(1000)))
    w = code.basis
    leaky = np.stack([w.conj().T @ k @ w for k in random_tp_channel(d + 2, 3, rng).kraus])
    scaled = 0.4 * (rng.standard_normal((4, d, d)) + 1j * rng.standard_normal((4, d, d)))
    return [np.stack(random_tp_channel(d, 3, rng).kraus), scaled, leaky]


def _coords_and_states(d, rng, count=20):
    basis = operator_basis(CodeSpace(np.eye(d))).elements
    for _ in range(count):
        c = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        c /= np.linalg.norm(c)
        rho = np.outer(c, c.conj())
        yield np.array([np.trace(rho @ o).real for o in basis]), c


@pytest.mark.parametrize("d", [2, 3, 4])
def test_process_matrix_form_equals_kraus_amplitudes(d):
    rng = np.random.default_rng(40 + d)
    for k in _form_test_cases(d, rng):
        m = _code_process_matrices(k)
        for s, c in _coords_and_states(d, rng):
            amps = np.einsum("a,kab,b->k", c.conj(), k, c)
            assert abs(s @ m @ s / d - np.sum(np.abs(amps) ** 2)) <= 1e-13


@pytest.mark.parametrize("d", [2, 3, 4])
def test_eta_form_equals_deviation_objective(d):
    rng = np.random.default_rng(50 + d)
    for k in _form_test_cases(d, rng):
        deltas = k - np.einsum("kaa->k", k)[:, None, None] * np.eye(d) / d
        s_mat = np.einsum("kab,kac->bc", deltas.conj(), deltas)
        q = _eta_form(deltas, s_mat)
        for s, c in _coords_and_states(d, rng):
            amps = np.einsum("a,kab,b->k", c.conj(), deltas, c)
            objective = (c.conj() @ s_mat @ c).real - np.sum(np.abs(amps) ** 2)
            assert abs(s @ q @ s + objective) <= 1e-13
