import numpy as np
import pytest

from aqec import (
    CodeSpace,
    QuantumChannel,
    amplitude_damping,
    code_kraus,
    inv_sqrt_on_support,
    random_code,
    tensor_power,
    transpose_channel,
    transpose_fidelity_grid,
    worst_case_fidelity,
)
from aqec.cli import _search_one, gamma_grid
from aqec.linalg import psd_eigh
from aqec.codes import _haar_columns
from aqec.models import _damping_on, leung_code

from helpers import (
    bit_flip_code,
    channels_equal,
    choi,
    compose,
    pauli_string,
    random_tp_channel,
    recovered_channel,
    svd_code_kraus_oracle,
)
from properties import (
    check_recovered_hermitian_closed,
    check_recovered_unital,
    check_transpose_gauge_invariance,
)


@pytest.mark.parametrize("eps, kept", [(2e-10, True), (5e-11, False)])
def test_planted_tiny_eigenvalue_is_one_cut_for_every_reader(eps, kept):
    # E = diag(1, sqrt(eps), 1, 1) on span{|0>, |1>} in C^4 gives
    # E(P) = diag(1, eps, 0, 0): eps sits just above (kept) or below
    # (dropped) the cutoff RANK_TOL * 1 = 1e-10, and in closed form
    # K = M^dag E(P)^(-1/2) M is diag(1, sqrt(eps)) or diag(1, 0).
    e = QuantumChannel([np.diag([1.0, np.sqrt(eps), 1.0, 1.0])])
    code = CodeSpace(np.eye(4)[:, :2])
    ep = e.apply(code.projector())
    assert np.allclose(ep, np.diag([1.0, eps, 0.0, 0.0]), rtol=0, atol=1e-25)
    k = code_kraus(e.kraus @ code.basis)[0, 0]
    assert abs(k[0, 0] - 1.0) <= 1e-15
    assert abs(k[1, 1] - np.sqrt(eps) * kept) <= 1e-12 * np.sqrt(eps)
    assert abs(k[0, 1]) + abs(k[1, 0]) <= 1e-25
    vals, vecs, keep = psd_eigh(ep)
    assert keep.sum() == 1 + kept
    support = np.diag([1.0, float(kept), 0.0, 0.0])
    b, inv_support = inv_sqrt_on_support(ep)
    # the transpose channel's Kraus sum B E(P) B is the same projector
    for proj in ((vecs * keep) @ vecs.conj().T, inv_support,
                 transpose_channel(e, code).kraus_sum()):
        assert np.max(np.abs(proj - support)) <= 1e-15
    want_b = np.diag([1.0, eps**-0.5 if kept else 0.0, 0.0, 0.0])
    assert np.allclose(b, want_b, rtol=1e-12, atol=1e-15)


def test_identity_noise_gives_projection_recovery():
    code = random_code(4, 2, 1)
    tr = transpose_channel(QuantumChannel([np.eye(4)]), code)
    p = code.projector()
    assert np.max(np.abs(inv_sqrt_on_support(p)[1] - p)) < 1e-10
    assert tr.n_kraus == 1
    assert np.max(np.abs(tr.kraus[0] - p)) < 1e-10
    rec = recovered_channel(QuantumChannel([np.eye(4)]), code)
    rng = np.random.default_rng(0)
    c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    c /= np.linalg.norm(c)
    psi = code.basis @ c
    rho = np.outer(psi, psi.conj())
    assert np.max(np.abs(rec.apply(rho) - rho)) < 1e-10


def test_unitary_noise_inverted():
    rng = np.random.default_rng(7)
    u = _haar_columns(rng, 4, 4)
    code = random_code(4, 2, 3)
    noise = QuantumChannel([u])
    r = transpose_channel(noise, code)
    p = code.projector()
    # the recovery restricted to the noise image acts as U^dag
    expected = QuantumChannel([p @ u.conj().T])
    supp = u @ p @ u.conj().T
    lhs = [k @ supp for k in r.kraus]
    rhs = [k @ supp for k in expected.kraus]
    assert channels_equal(QuantumChannel(lhs), QuantumChannel(rhs), 1e-10)


def test_tp_on_domain_support():
    rng = np.random.default_rng(9)
    e = random_tp_channel(5, 3, rng)
    code = random_code(5, 2, 13)
    s = transpose_channel(e, code).kraus_sum()
    p_eps = inv_sqrt_on_support(e.apply(code.projector()))[1]
    assert np.max(np.abs(p_eps @ s @ p_eps - p_eps)) < 1e-10


def test_output_confined_to_code():
    rng = np.random.default_rng(10)
    e = random_tp_channel(5, 3, rng)
    code = random_code(5, 2, 17)
    r = transpose_channel(e, code)
    p = code.projector()
    comp = np.eye(5) - p
    rho = e.apply(p / 2.0)
    out = r.apply(rho)
    assert np.max(np.abs(comp @ out @ comp)) < 1e-10


def test_recovered_channel_perfect_pair_identity_on_code():
    code = bit_flip_code()
    # exactly one-or-zero flips with probabilities summing to one: TP and
    # exactly correctable
    probs = [0.7, 0.1, 0.1, 0.1]
    ops = [np.sqrt(probs[0]) * pauli_string("III")]
    for pr, s in zip(probs[1:], ("XII", "IXI", "IIX")):
        ops.append(np.sqrt(pr) * pauli_string(s))
    e = QuantumChannel(ops)
    rec = recovered_channel(e, code)
    proj = QuantumChannel([code.projector()])
    assert channels_equal(rec, proj, 1e-10)


def test_recovered_channel_identity_cases():
    code = random_code(4, 2, 23)
    rec = recovered_channel(QuantumChannel([np.eye(4)]), code)
    proj = QuantumChannel([code.projector()])
    assert channels_equal(rec, proj, 1e-10)

    leung = leung_code()
    rec0 = recovered_channel(tensor_power(amplitude_damping(0.0), 4), leung)
    proj0 = QuantumChannel([leung.projector()])
    assert channels_equal(rec0, proj0, 1e-10)


def test_example5_transpose_loss_formula():
    from aqec import example5_channel, example5_eta_formula, worst_case_fidelity

    e, code = example5_channel(3, 0.1)
    r = transpose_channel(e, code)
    res = worst_case_fidelity(e, r, code, samples=50_000, seed=4)
    assert abs(res.eta - example5_eta_formula(3, 0.1)) < 1e-4
    assert abs(res.eta - 1.0 / 6.0) < 1e-4


def test_property_hermitian_closed():
    check_recovered_hermitian_closed(401)


def test_property_unital():
    check_recovered_unital(402)


def test_property_gauge_invariance():
    check_transpose_gauge_invariance(403)


def _reference_code_kraus(e, code):
    """K_ij = W^dag E_i^dag B E_j W built with the ambient inverse square root."""
    w = code.basis
    b, _ = inv_sqrt_on_support(e.apply(code.projector()))
    return np.stack(
        [np.stack([w.conj().T @ ki.conj().T @ b @ kj @ w for kj in e.kraus]) for ki in e.kraus]
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_fidelity_grid_matches_worst_case_fidelity(n):
    # gamma = 0 prunes the damping Kraus set, gamma = 1 makes E(P) rank one
    gammas = [0.0, 0.05, 0.3, 0.7, 1.0]
    stack = _damping_on(gammas, np.eye(2**n, dtype=complex))
    code = random_code(2**n, 2, 100 + n)
    results = transpose_fidelity_grid(stack, code)
    for g, kraus, res in zip(gammas, stack, results):
        noise = tensor_power(amplitude_damping(g), n)
        if g > 0:
            assert np.array_equal(kraus, np.stack(noise.kraus))
        ref = worst_case_fidelity(noise, transpose_channel(noise, code), code)
        assert abs(res.f2_min - ref.f2_min) <= 1e-12
        assert res.method == ref.method
    values = _search_one((100 + n, n, 2, gammas, 10))
    assert values == [res.f2_min for res in results]


def test_fidelity_grid_qutrit_matches_worst_case_fidelity():
    # d = 3 goes through the sampler: one draw serves the whole grid, so each
    # gamma must equal its own single-channel run with the same seed.
    gammas = [0.0, 0.1, 0.4, 1.0]
    stack = _damping_on(gammas, np.eye(8, dtype=complex))
    code = random_code(8, 3, 77)
    results = transpose_fidelity_grid(stack, code, samples=3000, seed=5)
    for g, res in zip(gammas, results):
        noise = tensor_power(amplitude_damping(g), 3)
        rec = transpose_channel(noise, code)
        ref = worst_case_fidelity(noise, rec, code, samples=3000, seed=5)
        assert abs(res.f2_min - ref.f2_min) <= 1e-12
        assert (res.method, res.samples, res.seed) == (ref.method, 3000, 5)


def test_code_kraus_qutrit_choi_matches_composition():
    rng = np.random.default_rng(31)
    cases = [
        (random_tp_channel(5, 3, rng), random_code(5, 3, 4)),
        (tensor_power(amplitude_damping(0.2), 3), random_code(8, 3, 5)),
    ]
    for e, code in cases:
        w = code.basis
        k = code_kraus(np.stack(e.kraus) @ w)
        n = e.n_kraus
        got = choi(QuantumChannel(list(k.reshape(n * n, 3, 3))))
        composed = compose(transpose_channel(e, code), e)
        want = choi(QuantumChannel([w.conj().T @ a @ w for a in composed.kraus]))
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.max(np.abs(k - _reference_code_kraus(e, code))) <= 1e-12


def test_code_kraus_batch_matches_single_calls():
    gammas = [0.0, 0.2, 0.6, 1.0]
    code = random_code(8, 2, 12)
    m = _damping_on(gammas, np.eye(8, dtype=complex)) @ code.basis
    batched = code_kraus(m)
    for i in range(len(gammas)):
        assert np.max(np.abs(batched[i] - code_kraus(m[i]))) <= 1e-14


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("d", [2, 3])
def test_code_kraus_matches_svd_oracle_on_damping_grid(n, d):
    # the eigh of E(P) = wide wide^dag against the SVD of wide, on search's
    # 51-gamma grid: the same support cut, reached by two factorisations
    stack = _damping_on(gamma_grid(0.0, 0.5, 0.01), np.eye(2**n, dtype=complex))
    for seed in range(6):
        m = stack @ random_code(2**n, d, seed).basis
        assert np.max(np.abs(code_kraus(m) - svd_code_kraus_oracle(m))) <= 1e-13


def test_recovered_channel_matches_ambient_construction():
    rng = np.random.default_rng(8)
    e = random_tp_channel(6, 4, rng)
    code = random_code(6, 2, 21)
    p = code.projector()
    b, _ = inv_sqrt_on_support(e.apply(p))
    ops = [p @ ki.conj().T @ b @ kj @ p for ki in e.kraus for kj in e.kraus]
    assert channels_equal(recovered_channel(e, code), QuantumChannel(ops), 1e-12)


@pytest.mark.parametrize("scale", [1.0, 0.3, 3.0])
def test_normalised_noise_at_unit_scale_is_the_plain_division_to_the_bit(scale):
    # the proportionality test runs on M scaled by a power of two, which
    # must leave the noise every worst case scores exactly as M / sqrt(a)
    from aqec.transpose import _noise_on_code, _normalised_noise_on_code

    from helpers import bit_flip_channel

    rng = np.random.default_rng(4)
    pairs = [(bit_flip_channel(0.1), bit_flip_code()),
             (random_tp_channel(6, 3, rng), random_code(6, 3, 2))]
    for noise, code in pairs:
        kraus = scale * noise.kraus
        m = _noise_on_code(kraus, code)
        wide = m.reshape(-1, code.code_dim)
        a = np.trace(wide.conj().T @ wide).real / code.code_dim
        a = 1.0 if abs(a - 1.0) <= 1e-9 else a
        got, factor = _normalised_noise_on_code(kraus, code)
        assert factor == a
        assert got.tobytes() == (m / np.sqrt(a)).tobytes()


def test_transpose_recovery_and_residual_are_scale_free():
    # E(P) is formed from the noise scaled by a power of two, so c E gets
    # the recovery of E at any scale; from the unscaled noise E(P) underflows
    # below c ~ 1e-160 and overflows above c ~ 1e154.  The scales are drawn
    # log-uniformly from 1e-300 to 1e300, with both ends.
    from aqec.conditions import alternate_condition_residual

    e = tensor_power(amplitude_damping(0.1), 3)
    code = random_code(8, 2, 0)
    ref = worst_case_fidelity(e, transpose_channel(e, code), code)
    residual = alternate_condition_residual(e, code)
    scales = [1e-300, 1e300, *10.0 ** np.random.default_rng(9).uniform(-300, 300, 6)]
    for c in scales:
        scaled = QuantumChannel(c * e.kraus)
        got = worst_case_fidelity(scaled, transpose_channel(scaled, code), code)
        assert got.method == ref.method
        assert abs(got.f2_min - ref.f2_min) <= 1e-12
        assert abs(alternate_condition_residual(scaled, code) / (c * residual) - 1.0) <= 1e-12
