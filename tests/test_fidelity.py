import numpy as np
import pytest

from aqec import (
    QuantumChannel,
    amplitude_damping,
    qubit_space,
    random_code,
    tensor_power,
    worst_case_fidelity,
)
from aqec.codes import _su_generators
from aqec.conditions import _beta_and_deltas
from aqec.exceptions import DimensionMismatch, PreconditionViolated
from aqec.fidelity import (
    DEFAULT_SAMPLES,
    EXACT_UNITAL_QUBIT,
    LAGRANGE_QUBIT,
    REFINE_ITERS,
    _code_operator_basis,
    _code_process_matrices,
    _compose_on_code,
    _min_forms,
    _min_forms_sampled,
    _min_quadratic_on_sphere,
    _real_generators,
    _refine_forms,
    _tp_unital,
)
from aqec.models import _damping_on, leung_code
from aqec.transpose import _code_kraus, _noise_on_code

from helpers import (
    _eta_form,
    bloch_samples,
    code_process_matrix,
    compose_on_code_reference,
    random_tp_channel,
    recovered_channel,
    reference_min_forms_sampled,
    random_unital_qubit_channel,
    scalar_min_quadratic_on_sphere,
    sphere_oracle_min_f2,
    sphere_quartic_min,
)
from properties import (
    check_f2_matches_process_matrix,
    check_rotation_invariance,
    check_sampled_upper_bounds_exact,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def _qubit_labels(m):
    """Method labels of qubit worst cases, from the flags of each process
    matrix of a stack m."""
    tp, unital = _tp_unital(m)
    return [EXACT_UNITAL_QUBIT if ok else LAGRANGE_QUBIT for ok in tp & unital]


def _bloch_of(code, psi):
    """Bloch vector of the code state W^dag psi."""
    c = code.basis.conj().T @ psi
    return np.array([(c.conj() @ g @ c).real for g in _su_generators(2)])


def test_process_matrix_identity():
    m = code_process_matrix(QuantumChannel([np.eye(2)]), qubit_space())
    assert np.max(np.abs(m - np.eye(4))) < 1e-12
    assert all(_tp_unital(m))


def test_process_matrix_depolarizing_to_mixed():
    code = qubit_space()
    # channel sending everything to the maximally mixed state
    ops = [
        0.5 * np.eye(2, dtype=complex),
        0.5 * SX,
        0.5 * SY,
        0.5 * SZ,
    ]
    m = code_process_matrix(QuantumChannel(ops), code)
    assert np.max(np.abs(m - np.diag([1.0, 0, 0, 0]))) < 1e-12


def test_process_matrix_recovered_structure():
    code = leung_code()
    e = tensor_power(amplitude_damping(0.1), 4)
    m = code_process_matrix(recovered_channel(e, code), code)
    assert all(_tp_unital(m))
    t = m[1:, 1:]
    assert np.max(np.abs(t - t.T)) < 1e-10
    assert np.max(np.abs(m[0, 1:])) < 1e-10
    assert np.max(np.abs(m[1:, 0])) < 1e-10


def test_unital_identity():
    res = worst_case_fidelity(QuantumChannel([np.eye(2)]), None, qubit_space())
    assert res.method == EXACT_UNITAL_QUBIT
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
    m = code_process_matrix(chan, qubit_space())
    assert np.max(np.abs(m[1:, 1:] - (1 - q) * np.eye(3))) < 1e-12
    res = worst_case_fidelity(chan, None, qubit_space())
    assert res.method == EXACT_UNITAL_QUBIT
    assert abs(res.eta - q / 2) < 1e-12
    # cross-check against the independent sampled oracle
    rng = np.random.default_rng(1)
    oracle = sphere_oracle_min_f2(chan, None, qubit_space(), 20_000, rng)
    assert oracle >= res.f2_min - 1e-9
    assert oracle - res.f2_min < 1e-6


def test_unital_phase_flip():
    q = 0.23
    ops = [np.sqrt(1 - q) * np.eye(2, dtype=complex), np.sqrt(q) * SZ]
    m = code_process_matrix(QuantumChannel(ops), qubit_space())
    assert np.max(np.abs(m[1:, 1:] - np.diag([1 - 2 * q, 1 - 2 * q, 1.0]))) < 1e-12
    res = worst_case_fidelity(QuantumChannel(ops), None, qubit_space())
    assert res.method == EXACT_UNITAL_QUBIT
    assert abs(res.eta - q) < 1e-12
    rng = np.random.default_rng(2)
    oracle = sphere_oracle_min_f2(QuantumChannel(ops), None, qubit_space(), 20_000, rng)
    assert oracle - res.f2_min < 1e-6


def test_lagrange_agrees_with_unital_on_unital_input():
    rng = np.random.default_rng(5)
    for _ in range(20):
        chan = random_unital_qubit_channel(rng)
        m = code_process_matrix(chan, qubit_space())
        q = (m + m.T)[None] / 4.0
        # the unital formula (c0 = 1/2, b = 0) against the Lagrange solve
        [r1], _ = _min_quadratic_on_sphere(np.array([0.5]), np.zeros((1, 3)), q[:, 1:, 1:])
        [r2], _ = _min_quadratic_on_sphere(q[:, 0, 0], q[:, 1:, 0], q[:, 1:, 1:])
        assert abs(r1 - r2) < 1e-10


def test_lagrange_bare_damping():
    m = code_process_matrix(amplitude_damping(0.2), qubit_space())
    assert tuple(_tp_unital(m)) == (True, False)
    res = worst_case_fidelity(amplitude_damping(0.2), None, qubit_space())
    assert res.method == LAGRANGE_QUBIT
    assert abs(res.f2_min - 0.8) < 1e-12
    assert np.allclose(_bloch_of(qubit_space(), res.worst_state), [0, 0, -1], atol=1e-8)
    # worst state is the excited state
    assert abs(abs(res.worst_state[1]) - 1.0) < 1e-8


def test_lagrange_matches_sphere_oracle_random_nonunital():
    rng = np.random.default_rng(6)
    for trial in range(5):
        chan = random_tp_channel(2, int(rng.integers(2, 5)), rng)
        res = worst_case_fidelity(chan, None, qubit_space())
        assert res.method == LAGRANGE_QUBIT
        oracle = sphere_oracle_min_f2(chan, None, qubit_space(), 1_000_000, rng)
        assert oracle >= res.f2_min - 1e-9, (trial, oracle, res.f2_min)
        assert oracle - res.f2_min < 1e-6, (trial, oracle, res.f2_min)


def test_quadratic_sphere_solver_degenerate_branch():
    # bottom eigenspace orthogonal to the linear term: boundary minimum
    n_sym = np.diag([1.0, 2.0, 3.0])
    b = np.array([0.0, 0.5, 0.0])
    [val], [s] = _min_quadratic_on_sphere(np.zeros(1), b[None], n_sym[None])
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
    [val], [s] = _min_quadratic_on_sphere(np.zeros(1), b[None], n_sym[None])
    rng = np.random.default_rng(8)
    u = bloch_samples(200_000, rng)
    vals = 2 * u @ b + np.einsum("ni,ij,nj->n", u, n_sym, u)
    assert val <= vals.min() + 1e-9
    assert vals.min() - val < 1e-4


def test_sampled_identity():
    code = random_code(5, 3, 2)
    res = worst_case_fidelity(QuantumChannel([np.eye(5)]), None, code, samples=500, seed=0)
    assert res.method == "sampled"
    assert abs(res.f2_min - 1.0) < 1e-9


def test_sampled_deterministic():
    rng = np.random.default_rng(11)
    e = random_tp_channel(4, 3, rng)
    code = random_code(4, 3, 9)
    r1 = worst_case_fidelity(e, None, code, samples=2000, seed=5)
    r2 = worst_case_fidelity(e, None, code, samples=2000, seed=5)
    assert r1.f2_min == r2.f2_min
    assert np.array_equal(r1.worst_state, r2.worst_state)


def test_sampled_dominates_exact_on_qubit():
    rng = np.random.default_rng(12)
    e = random_tp_channel(2, 3, rng)
    exact = worst_case_fidelity(e, None, qubit_space())
    assert exact.method == LAGRANGE_QUBIT
    m = code_process_matrix(e, qubit_space())
    prev = None
    for n in (50, 500, 5000):
        [samp], _ = _min_forms_sampled(m[None] / 2.0, n, 3, refine_iters=0)
        assert samp >= exact.f2_min - 1e-12
        if prev is not None:
            assert samp <= prev + 1e-12
        prev = samp


def test_worst_case_dispatcher_methods():
    code = leung_code()
    e = tensor_power(amplitude_damping(0.1), 4)
    from aqec import transpose_channel

    r = transpose_channel(e, code)
    res = worst_case_fidelity(e, r, code)
    assert res.method == "exact_unital_qubit"
    res_id = worst_case_fidelity(e, None, code)
    assert res_id.method == "lagrange_qubit"
    big_code = random_code(8, 3, 4)
    e3 = tensor_power(amplitude_damping(0.1), 3)
    res3 = worst_case_fidelity(e3, None, big_code, samples=2000, seed=0)
    assert res3.method == "sampled"
    with pytest.raises(PreconditionViolated):
        worst_case_fidelity(e3, None, big_code, samples=0)
    with pytest.raises(DimensionMismatch):  # a recovery on two qubits for a four-qubit code
        worst_case_fidelity(e, tensor_power(amplitude_damping(0.1), 2), code)


def test_property_f2_process_matrix():
    check_f2_matches_process_matrix(601)


def test_property_sampled_bounds():
    check_sampled_upper_bounds_exact(602, cases=10)


def test_property_rotation_invariance():
    check_rotation_invariance(603)


def test_fidelity_grid_rejects_wrong_stack_shape():
    from aqec import transpose_fidelity_grid

    code = random_code(4, 2, 1)
    with pytest.raises(DimensionMismatch):
        transpose_fidelity_grid(np.zeros((2, 3, 8, 8)), code)
    with pytest.raises(DimensionMismatch):
        transpose_fidelity_grid(np.zeros((3, 4, 4)), code)
    for empty in (np.zeros((0, 1, 4, 4)), np.zeros((1, 0, 4, 4))):  # no channel, no operator
        with pytest.raises(DimensionMismatch):
            transpose_fidelity_grid(empty, code)


def _form_test_cases(d, rng):
    """Code-basis Kraus stacks: trace preserving, non-TP, and the leaky
    compression of an ambient channel to a code."""
    code = random_code(d + 2, d, int(rng.integers(1000)))
    w = code.basis
    leaky = np.stack([w.conj().T @ k @ w for k in random_tp_channel(d + 2, 3, rng).kraus])
    scaled = 0.4 * (rng.standard_normal((4, d, d)) + 1j * rng.standard_normal((4, d, d)))
    return [np.stack(random_tp_channel(d, 3, rng).kraus), scaled, leaky]


def _coords_and_states(d, rng, count=20):
    basis = _code_operator_basis(d)
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


def _transpose_maps(n_qubits, d, seed, gammas):
    """Process matrices M of transpose recovery after n-qubit damping on a
    Haar code, one per gamma, as transpose_fidelity_grid builds them; the
    fidelity forms are M / d."""
    code = random_code(2**n_qubits, d, seed)
    noise = _damping_on(gammas, np.eye(2**n_qubits, dtype=complex))
    k = _code_kraus(noise @ code.basis)
    g, n = k.shape[:2]
    m = _code_process_matrices(k.reshape(g, n * n, d, d))
    return m, _qubit_labels(m), code


def _qubit_oracle(q, methods):
    """The per-form qubit loop, one scalar brentq solve per form."""
    out = []
    for qg, method in zip((q + q.swapaxes(-1, -2)) / 2.0, methods):
        if method == "exact_unital_qubit":
            c0, b = 0.5, np.zeros(3)
        else:
            c0, b = qg[0, 0], qg[1:, 0]
        out.append(scalar_min_quadratic_on_sphere(c0, b, qg[1:, 1:]))
    return out


def _assert_qubit_parity(m, methods):
    [results] = _min_forms([(m, qubit_space())])
    for res, method, (val, bloch) in zip(results, methods, _qubit_oracle(m / 2.0, methods)):
        assert res.method == method
        assert abs(res.f2_min - val) <= 1e-12
        assert np.max(np.abs(_bloch_of(qubit_space(), res.worst_state) - bloch)) <= 1e-12


def test_batched_qubit_solver_matches_scalar_unital_and_lagrange():
    rng = np.random.default_rng(70)
    unital = [random_unital_qubit_channel(rng) for _ in range(10)]
    general = [random_tp_channel(2, int(rng.integers(2, 5)), rng) for _ in range(10)]
    m = np.stack([code_process_matrix(c, qubit_space()) for c in unital + general])
    methods = _qubit_labels(m)
    assert methods == ["exact_unital_qubit"] * 10 + ["lagrange_qubit"] * 10
    _assert_qubit_parity(m, methods)


@pytest.mark.parametrize(
    "n_diag, b",
    [
        ([1.0, 2.0, 3.0], [0.0, 0.5, 0.0]),  # degenerate branch, filled
        ([1.0, 2.0, 3.0], [0.0, 3.0, 0.0]),  # degenerate branch, own root
        ([1.0, 1.0, 3.0], [0.0, 0.0, 0.7]),  # two-fold bottom eigenspace
        ([1.0, 5.0, 9.0], [0.0, 3.0, 1.0]),  # hard case
        ([1.0, 5.0, 9.0], [0.2, 3.0, 1.0]),  # easy branch
        ([1.0, 2.0, 3.0], [0.0, 1e-15, 0.0]),  # 0 < |b| <= 1e-14 scale
    ],
)
def test_batched_qubit_solver_matches_scalar_branches(n_diag, b):
    rng = np.random.default_rng(71)
    rot = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    for n_sym, bb in ((np.diag(n_diag), np.array(b)), (rot @ np.diag(n_diag) @ rot.T, rot @ b)):
        [val], [s] = _min_quadratic_on_sphere(np.array([0.3]), bb[None], n_sym[None])
        val_o, s_o = scalar_min_quadratic_on_sphere(0.3, bb, n_sym)
        assert abs(val - val_o) <= 1e-12
        assert np.max(np.abs(s - s_o)) <= 1e-12


def test_batched_qubit_solver_matches_scalar_on_haar_grid():
    gammas = [round(0.01 * k, 12) for k in range(51)]
    for seed in (1001, 1002):
        m, methods, _ = _transpose_maps(4, 2, seed, gammas)
        _assert_qubit_parity(m, methods)


def _refinement_cases(d, seed):
    """Fidelity forms over a gamma grid and eta forms (_eta_form) of
    damping on a Haar code, symmetrised."""
    m, _, code = _transpose_maps(3, d, seed, [0.0, 0.05, 0.2, 0.5, 0.9])
    forms = list(m / d)
    for gamma in (0.05, 0.3):
        e = tensor_power(amplitude_damping(gamma), 3)
        _, deltas = _beta_and_deltas(_code_kraus(_noise_on_code(e.kraus, code)))
        flat = deltas.reshape(-1, d, d)
        forms.append(_eta_form(flat, np.einsum("kab,kac->bc", flat.conj(), flat)))
    q = np.stack(forms)
    return (q + q.swapaxes(-1, -2)) / 2.0


@pytest.mark.parametrize("d", [3, 4])
def test_newton_refinement_matches_projected_gradient(d):
    q = _refinement_cases(d, 80 + d)
    # start both from the sampler's best states, as _min_forms_sampled does
    _, starts = _min_forms_sampled(q, 5000, 0, refine_iters=0)
    vals, cs = _refine_forms(q, starts, REFINE_ITERS)
    for qg, c0, val, c in zip(q, starts, vals, cs):
        # The scalar loop gets up to 3000 steps: at its old cap of 300 it
        # can stop ~1e-9 above a d = 4 minimum that it reaches by 1000.
        val_o, c_o = sphere_quartic_min(qg, c0, iters=3000)
        assert abs(val - val_o) <= 1e-12
        assert abs(np.vdot(c_o, c)) >= 1 - 1e-9


def test_refine_iters_zero_keeps_the_samples():
    q = _refinement_cases(3, 90)
    vals, cs = _min_forms_sampled(q, 2000, 4, refine_iters=0)
    refined, _ = _min_forms_sampled(q, 2000, 4)
    # the sample stream of seed 4: one draw of 2000 states
    rng = np.random.default_rng(4)
    z = rng.standard_normal((2000, 3)) + 1j * rng.standard_normal((2000, 3))
    states = z / np.linalg.norm(z, axis=1, keepdims=True)
    for c in cs:
        assert np.min(np.max(np.abs(states - c), axis=1)) <= 1e-15
    assert np.all(refined <= vals) and np.any(refined < vals - 1e-6)


def _random_forms(d, forms, seed):
    a = np.random.default_rng(seed).standard_normal((forms, d * d, d * d))
    return a + a.swapaxes(-1, -2)


# n = 2049 crosses a row block, n = 65537 a draw chunk
@pytest.mark.parametrize("refine_iters", [0, REFINE_ITERS])
@pytest.mark.parametrize("n", [1, 2049, 65537])
@pytest.mark.parametrize("forms", [1, 6])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_sampler_matches_reference(d, forms, n, refine_iters):
    q = _random_forms(d, forms, 100 * d + forms)
    vals, cs = _min_forms_sampled(q, n, 7, refine_iters)
    ref_vals, ref_cs = reference_min_forms_sampled(q, n, 7, refine_iters)
    assert np.max(np.abs(vals - ref_vals)) <= 1e-12
    # the same best sample of each form, up to a phase
    assert np.min(np.abs(np.sum(ref_cs.conj() * cs, axis=1))) >= 1 - 1e-12


def test_one_dimensional_code_takes_the_form_value():
    # A d = 1 code has one state up to phase, so every value is exactly the
    # form's one entry, and no refinement step may overflow on the way.
    import warnings

    rng = np.random.default_rng(500)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(200):
            q = rng.standard_normal((int(rng.integers(1, 7)), 1, 1))
            vals, cs = _min_forms_sampled(q, int(rng.integers(1, 3000)), int(rng.integers(1000)))
            assert np.array_equal(vals, q[:, 0, 0])
            assert np.max(np.abs(np.abs(cs) - 1.0)) <= 1e-15


@pytest.mark.parametrize("refine_iters", [0, REFINE_ITERS])
@pytest.mark.parametrize("d", [3, 4])
def test_sampler_value_is_the_form_at_its_state(d, refine_iters):
    q = _random_forms(d, 6, 200 + d)
    vals, cs = _min_forms_sampled(q, 3000, 2, refine_iters)
    gens = _code_operator_basis(d)
    for qg, val, c in zip(q, vals, cs):
        assert abs(np.linalg.norm(c) - 1.0) <= 1e-14
        s = np.einsum("i,aij,j->a", c.conj(), gens, c).real
        assert abs(val - s @ qg @ s) <= 1e-12


def test_sampler_independent_of_row_block(monkeypatch):
    q = _random_forms(3, 6, 300)
    runs = {}
    for rows in (1, 7, 2048):
        monkeypatch.setattr("aqec.fidelity._ROW_BLOCK", rows)
        runs[rows] = (_min_forms_sampled(q, 5000, 3),
                      _min_forms_sampled(q, 5000, 3, refine_iters=0)[0])
    (vals, cs), raw = runs[2048]
    for (vals_b, cs_b), raw_b in runs.values():
        assert np.max(np.abs(vals_b - vals)) <= 1e-14
        assert np.min(np.abs(np.sum(cs.conj() * cs_b, axis=1))) >= 1 - 1e-14
        assert np.max(np.abs(raw_b - raw)) <= 1e-14


def test_sampler_memory_is_cache_sized():
    # The parent's chunk-wide complex temporaries peaked at 21.4 MB here.
    import tracemalloc

    q = _random_forms(4, 1, 400)
    tracemalloc.start()
    try:
        _min_forms_sampled(q, 100_000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("d", [2, 3])
def test_min_forms_result_independent_of_stack(d):
    m, _, code = _transpose_maps(4, d, 60 + d, [round(0.05 * k, 12) for k in range(11)])
    [stacked] = _min_forms([(m, code)], samples=3000, seed=9)
    for g, res in enumerate(stacked):
        [[alone]] = _min_forms([(m[g : g + 1], code)], samples=3000, seed=9)
        assert (alone.method, alone.samples) == (res.method, res.samples)
        assert abs(alone.f2_min - res.f2_min) <= 1e-14
        assert abs(abs(np.vdot(alone.worst_state, res.worst_state)) - 1.0) <= 1e-14


def _single_start(q, n, seed):
    """The single-start rule: each form refined from its one best sample."""
    _, starts = _min_forms_sampled(q, n, seed, refine_iters=0)
    return _refine_forms((q + q.swapaxes(-1, -2)) / 2.0, starts, REFINE_ITERS)[0]


@pytest.mark.parametrize("d", [3, 4])
def test_default_samples_reach_the_best_known_minimum(d):
    # 20 Haar 4-qubit codes x gammas 0, 0.1, ..., 0.5: 120 transpose forms
    # per d.  Refined from its one best sample of 20 000, a form missed the
    # best value by up to ~2e-3 here; the multi-start default may miss none.
    gammas = [round(0.1 * k, 12) for k in range(6)]
    q = np.concatenate([_transpose_maps(4, d, seed, gammas)[0] / d for seed in range(20)])
    default = _min_forms_sampled(q, DEFAULT_SAMPLES, 0)[0]
    runs = [default, _min_forms_sampled(q, 200_000, 1)[0], _min_forms_sampled(q, 20_000, 2)[0],
            _single_start(q, 20_000, 0), _single_start(q, 200_000, 1)]
    assert np.max(default - np.min(np.stack(runs), axis=0)) <= 1e-9


def test_default_samples_reach_the_best_known_minimum_at_d5():
    # Random forms (the sampler test's d = 5 stack), where a single start
    # from 2049 samples of seed 7 stops ~0.4 above the minimum of one form,
    # and transpose forms of 4 Haar 4-qubit codes.
    gammas = [round(0.1 * k, 12) for k in range(6)]
    q = np.concatenate([_random_forms(5, 6, 506)]
                       + [_transpose_maps(4, 5, seed, gammas)[0] / 5 for seed in range(4)])
    default = _min_forms_sampled(q, DEFAULT_SAMPLES, 0)[0]
    runs = [default, _min_forms_sampled(q, 200_000, 1)[0], _single_start(q, 2049, 7),
            _single_start(q, 200_000, 1)]
    assert np.max(default - np.min(np.stack(runs), axis=0)) <= 1e-9


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_cached_code_tables_are_read_only_and_equal_a_fresh_build(d):
    basis = np.stack([np.eye(d)] + _su_generators(d))
    gam = np.block([[basis.real, -basis.imag], [basis.imag, basis.real]])
    tables = [_code_operator_basis(d), _real_generators(d)]
    for table in tables:
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 1
    assert np.array_equal(tables[0], basis) and np.array_equal(tables[1], gam)
    assert _code_operator_basis(d) is tables[0]
    # the generator table maps r = (x, y) of z = x + i y to z^dag g_a z
    rng = np.random.default_rng(d)
    x, y = rng.standard_normal((2, 5, d))
    r = np.hstack([x, y])
    z = x + 1j * y
    direct = np.einsum("ni,aij,nj->na", z.conj(), basis, z)
    assert np.max(np.abs(np.einsum("ni,aij,nj->na", r, tables[1], r) - direct)) <= 1e-12


def test_refinement_backtracking_ends_at_the_rounding_floor(monkeypatch):
    # One form of this stack reaches a full step whose decrease is at
    # rounding level but above the stop test: it backtracked through all
    # _HALVINGS halvings, 43 _form_values calls in all, 30 of them on that
    # one row.  Its search now ends once t * -slope is at the stop test's
    # floor, and an accepted trial's values serve the next iteration.
    import aqec.fidelity as fidelity

    gammas = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    code = random_code(16, 3, 0)
    k = _code_kraus(_damping_on(gammas, code.basis))
    q = _code_process_matrices(k.reshape(len(gammas), -1, 3, 3)) / 3
    rows = []
    evaluate = fidelity._form_values

    def counted(q_, gam, r):
        rows.append(len(r))
        return evaluate(q_, gam, r)

    monkeypatch.setattr(fidelity, "_form_values", counted)
    _min_forms_sampled(q, 1024, 0)
    assert len(rows) <= 12, rows
    assert rows.count(1) <= 3, rows


def test_compose_on_code_matches_the_per_operator_composition():
    # one (R d, D) x (D, N d) product per pass against each recovery
    # operator times each noise operator, j-major, on the sweep's Leung and
    # five-qubit syndrome recoveries over the 51-gamma grid, so that a
    # layout change cannot reorder the Kraus set
    from aqec import five_qubit_code_only, leung_recovery
    from aqec.cli import gamma_grid
    from aqec.conditions import _standard_recovery_on
    from aqec.models import _five_qubit_noise_on

    gammas = gamma_grid(0.0, 0.5, 0.01)
    leung, five = leung_code().basis, five_qubit_code_only().basis
    cases = [(leung.conj().T @ leung_recovery(max(gammas)).kraus, _damping_on(gammas, leung)),
             (_standard_recovery_on(_five_qubit_noise_on(gammas, five)), _damping_on(gammas, five))]
    for wr, m in cases:
        got = _compose_on_code(wr, m)
        assert got.shape == (51, wr.shape[-3] * m.shape[2], 2, 2)
        assert np.max(np.abs(got - compose_on_code_reference(wr, m))) <= 1e-15
