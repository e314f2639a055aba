import json

import numpy as np
import pytest

from aqec import (
    QuantumChannel,
    alternate_condition_residual,
    amplitude_damping,
    aqec_diagnostics,
    build_r_perf,
    check_perfect_qec,
    near_optimality_bound_check,
    near_optimality_factor,
    random_code,
    tensor_power,
    transpose_channel,
    transpose_fidelity_grid,
    worst_case_fidelity,
)
from aqec.conditions import Verdict, _beta_and_deltas, _standard_recovery_on
from aqec.exceptions import CertificateInvalid, NotTP, ParamOutOfRange
from aqec.fidelity import DEFAULT_SAMPLES, EXACT_UNITAL_QUBIT, LAGRANGE_QUBIT, SAMPLED
from aqec.models import (
    _five_qubit_noise_on,
    example5_channel,
    example5_eta_formula,
    five_qubit_code_only,
    five_qubit_noise,
    leung_code,
    qubit_space,
    truncated_damping_channel,
)
from aqec.transpose import _code_kraus, _noise_on_code

from helpers import (
    bit_flip_channel,
    bit_flip_code,
    channels_equal,
    choi,
    pauli_string,
    polar_r_perf,
    random_tp_channel,
    sqrtm_oracle,
    tp_defect,
)
from properties import (
    check_condition_equivalence,
    check_delta_sum_bounds_eta,
    check_eta_dual_route,
    check_eta_is_transpose_worst_case,
    check_eta_scale_invariant,
    check_verdict_soundness,
)


def test_bitflip_certificate_diagonal_alpha():
    code = bit_flip_code()
    e = bit_flip_channel(0.1)
    cert = check_perfect_qec(e, code)
    assert cert.satisfied and cert.residual < 1e-12
    off = cert.alpha - np.diag(np.diagonal(cert.alpha))
    assert np.max(np.abs(off)) < 1e-12
    # trace of alpha equals the restricted trace factor
    a = (1 - 0.1) ** 2 * (1 + 2 * 0.1)
    assert abs(np.trace(cert.alpha).real - a) < 1e-12


def test_identity_channel_certificate():
    code = random_code(4, 2, 5)
    cert = check_perfect_qec(QuantumChannel([np.eye(4)]), code)
    assert cert.satisfied
    assert np.allclose(cert.alpha, [[1.0]])


def test_full_damping_fails_on_leung():
    # weight-two cross terms break proportionality at first order in gamma
    code = leung_code()
    e = tensor_power(amplitude_damping(0.1), 4)
    cert = check_perfect_qec(e, code)
    assert not cert.satisfied
    assert cert.residual > 1e-3


def test_truncated_damping_residual_scales_quadratically():
    code = leung_code()
    gammas = np.array([0.02, 0.05, 0.1])
    res = [
        check_perfect_qec(truncated_damping_channel(g, 4), code).residual
        for g in gammas
    ]
    slope = np.polyfit(np.log(gammas), np.log(res), 1)[0]
    assert 1.7 < slope < 2.3


def test_build_r_perf_identity_channel():
    code = random_code(4, 2, 8)
    r = build_r_perf(QuantumChannel([np.eye(4)]), code)
    assert np.max(np.abs(r.kraus[0] - code.projector())) < 1e-10


def test_build_r_perf_recovers_code_states():
    code = bit_flip_code()
    e = bit_flip_channel(0.15)
    cert = check_perfect_qec(e, code)
    r = build_r_perf(e, code)
    rng = np.random.default_rng(2)
    total = float(np.trace(cert.alpha).real)
    for _ in range(5):
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        c /= np.linalg.norm(c)
        psi = code.basis @ c
        rho = np.outer(psi, psi.conj())
        out = r.apply(e.apply(rho))
        assert np.max(np.abs(out - total * rho)) < 1e-9


_CERTIFIED_PAIRS = [
    (five_qubit_noise(g), five_qubit_code_only())
    for g in (0.0, 0.01, 0.1, 0.35, 0.7, 1.0)
] + [
    (bit_flip_channel(0.2), bit_flip_code()),
    (QuantumChannel([np.eye(4)]), random_code(4, 2, 8)),
]


@pytest.mark.parametrize("e, code", _CERTIFIED_PAIRS)
def test_build_r_perf_equals_transpose_channel(e, code):
    assert channels_equal(
        build_r_perf(e, code), transpose_channel(e, code), 1e-12
    )


@pytest.mark.parametrize("e, code", _CERTIFIED_PAIRS)
def test_build_r_perf_matches_polar_construction(e, code):
    cert = check_perfect_qec(e, code)
    assert cert.satisfied
    fast = choi(build_r_perf(e, code))
    assert np.max(np.abs(fast - choi(polar_r_perf(cert, e, code)))) < 1e-12


def test_build_r_perf_rejects_bad_certificate():
    code = leung_code()
    e = tensor_power(amplitude_damping(0.1), 4)
    assert not check_perfect_qec(e, code).satisfied
    with pytest.raises(CertificateInvalid):
        build_r_perf(e, code)
    # the batched core checks the conditions itself
    with pytest.raises(CertificateInvalid):
        _standard_recovery_on(_five_qubit_noise_on([0.1], random_code(32, 2, 3).basis))


def test_aqec_diagnostics_perfect_pair():
    code = bit_flip_code()
    e = bit_flip_channel(0.1)
    diag = aqec_diagnostics(e, code, epsilon=0.0)
    w = code.basis
    assert np.max(np.abs(w @ diag.deltas_code @ w.conj().T)) < 1e-10
    assert diag.eta < 1e-10
    assert diag.verdict is Verdict.CORRECTABLE
    assert diag.restricted_factor < 1.0  # truncated channel is sub-TP


def test_aqec_diagnostics_traceless_and_reconstruction():
    rng = np.random.default_rng(3)
    e = random_tp_channel(5, 3, rng)
    code = random_code(5, 2, 31)
    diag = aqec_diagnostics(e, code, epsilon=0.1)
    p = code.projector()
    w = code.basis
    b, _ = __import__("aqec").linalg.inv_sqrt_on_support(e.apply(p))
    for i in range(e.n_kraus):
        for j in range(e.n_kraus):
            delta = w @ diag.deltas_code[i, j] @ w.conj().T
            assert abs(np.trace(delta)) < 1e-10
            k_op = p @ e.kraus[i].conj().T @ b @ e.kraus[j] @ p
            recon = diag.beta[i, j] * p + delta
            assert np.max(np.abs(recon - k_op)) < 1e-10


def test_aqec_diagnostics_example5_sampled():
    e, code = example5_channel(3, 0.05)
    diag = aqec_diagnostics(e, code, epsilon=0.01, eta_samples=50_000, seed=1)
    assert diag.eta_method == "sampled"
    assert abs(diag.eta - example5_eta_formula(3, 0.05)) < 1e-4
    assert abs(abs(diag.worst_state[0]) - 1.0) < 1e-4


def test_aqec_diagnostics_rejects_non_tp():
    # channels that are neither TP nor proportionally TP on the code; the
    # truncated damping is proportional only up to order gamma^2 terms
    k = np.diag([1.0, 0.5, 0.2, 0.1]).astype(complex)
    pairs = [(QuantumChannel([k]), random_code(4, 2, 2)),
             (truncated_damping_channel(0.1, 4), leung_code())]
    for e, code in pairs:
        with pytest.raises(NotTP):
            aqec_diagnostics(e, code, epsilon=0.1)


@pytest.mark.parametrize("epsilon", [-1.0, np.nan, np.inf])
def test_aqec_diagnostics_rejects_a_bad_epsilon(epsilon):
    with pytest.raises(ParamOutOfRange):
        aqec_diagnostics(amplitude_damping(0.1), qubit_space(), epsilon)


def test_alternate_residual_iff_perfect():
    code = bit_flip_code()
    e = bit_flip_channel(0.1)
    assert alternate_condition_residual(e, code) < 1e-12
    # beta equals the principal square root of alpha in the same gauge
    cert = check_perfect_qec(e, code)
    beta, _ = _beta_and_deltas(_code_kraus(_noise_on_code(e.kraus, code)))
    assert np.max(np.abs(beta - sqrtm_oracle(cert.alpha))) < 1e-9
    # diagonal gauge entries are sqrt(d_kk)
    assert np.allclose(
        np.sort(np.diagonal(beta)).real, np.sqrt(np.linalg.eigvalsh(cert.alpha))
    )


def test_alternate_residual_identity_channel():
    code = random_code(3, 2, 4)
    e = QuantumChannel([np.eye(3)])
    assert alternate_condition_residual(e, code) < 1e-12
    beta, _ = _beta_and_deltas(_code_kraus(_noise_on_code(e.kraus, code)))
    assert np.allclose(beta, [[1.0]])


def test_alternate_residual_positive_for_leung_full_channel():
    code = leung_code()
    e = tensor_power(amplitude_damping(0.1), 4)
    r = alternate_condition_residual(e, code)
    assert r > 1e-4


def test_near_optimality_factor_values():
    assert near_optimality_factor(0.0, 2) == 3.0
    assert near_optimality_factor(0.0, 5) == 6.0


def test_near_optimality_perfect_pair_saturates():
    code = bit_flip_code()
    probs = [0.7, 0.1, 0.1, 0.1]
    ops = [np.sqrt(probs[0]) * pauli_string("III")]
    for pr, s in zip(probs[1:], ("XII", "IXI", "IIX")):
        ops.append(np.sqrt(pr) * pauli_string(s))
    e = QuantumChannel(ops)
    report = near_optimality_bound_check(
        e, code, [transpose_channel(e, code)]
    )
    assert report.eta_p < 1e-9
    assert report.eta_hat < 1e-9
    assert report.bound_satisfied
    assert near_optimality_factor(0.0, report.code_dim) == 3.0


def test_near_optimality_example5_identity_candidate():
    e, code = example5_channel(3, 0.1)
    report = near_optimality_bound_check(e, code, [None], samples=50_000, seed=9)
    assert abs(report.candidate_etas[0] - 0.1) < 1e-3
    assert abs(report.eta_p - 1.0 / 6.0) < 1e-3
    # identity beats the transpose recovery here, yet the bound holds
    assert report.eta_hat < report.eta_p
    assert report.bound_satisfied
    ratio = report.eta_p / report.candidate_etas[0]
    assert abs(ratio - (3 - 1) / (1 + (3 - 1) * 0.1)) < 5e-2


def test_verdict_thresholds_example5():
    e, code = example5_channel(3, 0.1)
    eta = example5_eta_formula(3, 0.1)
    diag_hi = aqec_diagnostics(e, code, epsilon=10 * eta, eta_samples=20_000)
    assert diag_hi.verdict is Verdict.CORRECTABLE
    eps_lo = eta / 10.0
    assert eps_lo * near_optimality_factor(eps_lo, 3) < eta
    diag_lo = aqec_diagnostics(e, code, epsilon=eps_lo, eta_samples=20_000)
    assert diag_lo.verdict is Verdict.NOT_CORRECTABLE
    # a level inside the gap stays undecided
    eps_mid = eta / 1.5
    assert eps_mid < eta < eps_mid * near_optimality_factor(eps_mid, 3)
    diag_mid = aqec_diagnostics(e, code, epsilon=eps_mid, eta_samples=20_000)
    assert diag_mid.verdict is Verdict.INDETERMINATE


def test_diagnostics_json_fields():
    e, code = example5_channel(3, 0.05)
    diag = aqec_diagnostics(e, code, epsilon=0.2, eta_samples=10_000)
    data = diag.to_json_dict()
    assert set(data) == {
        "beta",
        "eta",
        "eta_method",
        "samples",
        "delta_sum_norm",
        "verdict",
        "epsilon",
        "f_epsilon_d",
        "epsilon_f_epsilon_d",
    }
    assert list(data)[-1] == "epsilon_f_epsilon_d"
    assert data["epsilon_f_epsilon_d"] == 0.2 * diag.f_epsilon_d
    assert data["eta_method"] == "sampled"
    assert data["samples"] == 10_000


def test_property_condition_equivalence():
    check_condition_equivalence(501, cases=15)


def test_property_eta_dual_route():
    check_eta_dual_route(502, cases=15)


def test_property_delta_sum_bound():
    check_delta_sum_bounds_eta(503, cases=30)


def test_property_verdict_soundness():
    check_verdict_soundness(504, cases=10)


def test_sampled_eta_memory_is_bounded():
    # 4-qubit damping on a d = 3 code has 256 deviation operators; the
    # sampler evaluates a 9 x 9 form, so its temporaries stay small.
    import tracemalloc

    e = tensor_power(amplitude_damping(0.2), 4)
    code = random_code(16, 3, 3)
    tracemalloc.start()
    try:
        diag = aqec_diagnostics(e, code, epsilon=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert diag.eta_method == "sampled" and diag.eta_samples == DEFAULT_SAMPLES
    assert peak < 64 * 2**20


def test_diagnostics_keep_deviation_operators_in_code_coordinates():
    # 5-qubit damping has 32 Kraus operators; the ambient (32, 32, 32, 32)
    # deviation array (16.8 MB) is never built.
    import tracemalloc

    e = tensor_power(amplitude_damping(0.2), 5)
    code = random_code(32, 2, 5)
    tracemalloc.start()
    try:
        diag = aqec_diagnostics(e, code, epsilon=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert diag.deltas_code.shape == (32, 32, 2, 2)
    assert peak < 6 * 2**20


@pytest.mark.parametrize("d, gamma", [(2, 0.0), (2, 0.15), (3, 0.0), (3, 0.2)])
def test_near_optimality_eta_p_matches_ambient_transpose(d, gamma):
    code = random_code(8, d, 40 + d)
    e = tensor_power(amplitude_damping(gamma), 3)
    report = near_optimality_bound_check(e, code, [None], samples=3000, seed=6)
    rp = transpose_channel(e, code)
    ref = worst_case_fidelity(e, rp, code, samples=3000, seed=6)
    assert abs(report.eta_p - ref.eta) <= 1e-12


def test_every_reported_method_is_a_fidelity_method():
    # eta is the transpose worst case, so it reports that case's method:
    # the recovered map of a (proportionally) TP channel is TP and unital
    # on the code, so qubit codes take the exact unital solver; larger
    # codes report the sampler.
    methods = {EXACT_UNITAL_QUBIT, LAGRANGE_QUBIT, SAMPLED}
    e4 = tensor_power(amplitude_damping(0.1), 4)
    for code in (leung_code(), random_code(16, 2, 5), random_code(16, 3, 5)):
        diag = aqec_diagnostics(e4, code, epsilon=0.1)
        assert diag.eta_method in methods
        assert diag.to_json_dict()["eta_method"] == diag.eta_method
        assert diag.eta_method == (EXACT_UNITAL_QUBIT if code.code_dim == 2 else SAMPLED)
        recovery = transpose_channel(e4, code)
        assert worst_case_fidelity(e4, recovery, code).method == diag.eta_method
        for rec in (None, recovery):
            assert worst_case_fidelity(e4, rec, code).method in methods
    diag = aqec_diagnostics(bit_flip_channel(0.1), bit_flip_code(), epsilon=0.1)
    assert diag.eta_method == EXACT_UNITAL_QUBIT


def test_tp_factor_is_read_on_the_code():
    # a TP channel: exactly 1.0, so the noise is used unscaled
    e = tensor_power(amplitude_damping(0.1), 3)
    assert aqec_diagnostics(e, random_code(8, 2, 1), 0.1).restricted_factor == 1.0
    # TP on the code but not on the ambient space: still exactly 1.0
    code = random_code(4, 2, 7)
    p = code.projector()
    u = np.linalg.qr(np.random.default_rng(8).standard_normal((4, 4)))[0]
    lossy = QuantumChannel([np.sqrt(0.8) * (p + 0.5 * (np.eye(4) - p)), np.sqrt(0.2) * u])
    assert tp_defect(lossy) > 0.1
    diag = aqec_diagnostics(lossy, code, 0.1)
    assert diag.restricted_factor == 1.0
    ref = worst_case_fidelity(lossy, transpose_channel(lossy, code), code)
    assert abs(diag.eta - ref.eta) <= 1e-12
    # the truncated bit flips: a = (1 - q)^3 + 3 q (1 - q)^2 = (1 - q)^2 (1 + 2 q)
    q = 0.1
    diag = aqec_diagnostics(bit_flip_channel(q), bit_flip_code(), 0.1)
    assert abs(diag.restricted_factor - (1 - q) ** 2 * (1 + 2 * q)) <= 1e-12


def test_property_eta_is_transpose_worst_case():
    check_eta_is_transpose_worst_case(505, cases=12)


def test_property_eta_scale_invariant():
    check_eta_scale_invariant(506, cases=12)


def test_bit_flip_pair_corrected_in_every_eta():
    # the truncated bit flips are proportionally trace preserving on the
    # code and exactly correctable: every transpose worst case is perfect
    code, e = bit_flip_code(), bit_flip_channel(0.1)
    etas = [
        aqec_diagnostics(e, code, 0.1).eta,
        transpose_fidelity_grid(e.kraus[None], code)[0].eta,
        worst_case_fidelity(e, transpose_channel(e, code), code).eta,
        near_optimality_bound_check(e, code, [None]).eta_p,
    ]
    assert max(etas) <= 1e-12, etas


# scales drawn log-uniformly from 1e-150 to 1e150, and the two ends
_SCALES = [1e-150, *10.0 ** np.random.default_rng(31).uniform(-150, 150, 6), 1e150]
_SCALE_PAIRS = {
    "damping3": lambda: (tensor_power(amplitude_damping(0.1), 3), random_code(8, 2, 0)),
    "bitflip": lambda: (bit_flip_channel(0.1), bit_flip_code()),
    "five513": lambda: (five_qubit_noise(0.2), five_qubit_code_only()),
    "random_d3": lambda: (random_tp_channel(5, 3, np.random.default_rng(8)), random_code(5, 3, 7)),
}


def _etas_and_methods(noise, code, recovery):
    """(eta, method) of every call that scores a transpose worst case, and
    of the do-nothing and transpose recoveries worst_case_fidelity scores."""
    diag = aqec_diagnostics(noise, code, 0.1)
    [grid] = transpose_fidelity_grid(noise.kraus[None], code)
    bound = near_optimality_bound_check(noise, code, [None, recovery])
    scored = [(diag.eta, diag.eta_method), (grid.eta, grid.method),
              (bound.eta_p, None), *((eta, None) for eta in bound.candidate_etas)]
    for rec in (recovery, None):
        res = worst_case_fidelity(noise, rec, code)
        scored.append((res.eta, res.method))
    return scored


@pytest.mark.parametrize("name", list(_SCALE_PAIRS))
def test_eta_and_method_do_not_depend_on_the_noise_scale(name):
    # E and c E are one map once normalised: one eta and one method label
    # for c far from 1, where an absolute proportionality tolerance refused
    # large c and misread tiny c
    noise, code = _SCALE_PAIRS[name]()
    recovery = transpose_channel(noise, code)
    want = _etas_and_methods(noise, code, recovery)
    for c in _SCALES:
        got = _etas_and_methods(QuantumChannel(c * noise.kraus), code, recovery)
        assert [m for _, m in got] == [m for _, m in want], (c, got, want)
        assert max(abs(g - w) for (g, _), (w, _) in zip(got, want)) <= 1e-12, (c, got, want)


def test_a_map_far_from_proportional_is_refused_at_every_scale(tmp_path, capsys):
    # sum_i M_i^dag M_i is 54% (relative) away from a I, so no eta exists;
    # an absolute tolerance let it through below scale ~1e-4 with eta 0.5455
    from aqec import channel_to_json, code_to_json
    from aqec.cli import main

    code = random_code(4, 2, 3)
    k1 = np.zeros((4, 4))
    k1[1, 0] = 0.3
    kraus = np.stack([np.diag([1.0, 0.2, 1.0, 0.5]), k1])
    code_file = tmp_path / "code.json"
    code_file.write_text(json.dumps(code_to_json(code)))
    for c in (1.0, 1e-3, 1e-4, 1e-6, 1e-100, 1e-150, 1e150):
        with pytest.raises(NotTP):
            aqec_diagnostics(QuantumChannel(c * kraus), code, 0.05)
        chan_file = tmp_path / "chan.json"
        chan_file.write_text(json.dumps(channel_to_json(QuantumChannel(c * kraus))))
        assert main(["check", str(chan_file), str(code_file), "--epsilon", "0.05"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "trace preserving" in err[0], (c, err)
