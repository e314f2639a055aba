import numpy as np
import pytest

from aqec import (
    QuantumChannel,
    amplitude_damping,
    channel_from_json,
    channel_to_json,
    qubit_space,
    tensor_power,
    transpose_channel,
    truncated_damping_channel,
)
from aqec.channels import complete_to_tp
from aqec.codes import _haar_columns
from aqec.exceptions import BudgetExceeded, DimensionMismatch, NotPSD
from aqec.models import basis_state
from aqec.transpose import _normalised_noise_on_code

from helpers import (
    bit_flip_channel,
    bit_flip_code,
    channels_equal,
    choi,
    compose,
    random_density,
    random_tp_channel,
    recovered_channel,
    remix_kraus,
    tp_defect,
)
from properties import (
    check_apply_linearity,
    check_choi_psd,
    check_compose_associative,
    check_tp_trace_preserved,
)


def test_apply_identity():
    rng = np.random.default_rng(0)
    rho = random_density(3, rng)
    assert np.allclose(QuantumChannel([np.eye(3)]).apply(rho), rho)


def test_apply_full_decay():
    out = amplitude_damping(1.0).apply(np.diag([0.0, 1.0]).astype(complex))
    assert np.allclose(out, np.diag([1.0, 0.0]))


def test_apply_partial_decay():
    out = amplitude_damping(0.3).apply(np.diag([0.0, 1.0]).astype(complex))
    assert np.allclose(out, np.diag([0.3, 0.7]))


def test_apply_plus_state_coherence():
    plus = np.ones((2, 2), dtype=complex) / 2.0
    out = amplitude_damping(0.25).apply(plus)
    assert abs(out[0, 1] - np.sqrt(0.75) / 2.0) < 1e-12


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        amplitude_damping(0.1).apply(np.eye(3))


def test_compose_with_identity():
    e = amplitude_damping(0.4)
    assert channels_equal(compose(QuantumChannel([np.eye(2)]), e), e)


def test_compose_kraus_count_multiplies():
    rng = np.random.default_rng(42)
    r = random_tp_channel(2, 2, rng)
    e = random_tp_channel(2, 3, rng)
    assert compose(r, e).n_kraus == 6
    # exactly-zero products are pruned: both dampings in a row annihilate
    ad = amplitude_damping(0.3)
    assert compose(ad, ad).n_kraus == 3


def test_compose_matches_sequential_apply():
    rng = np.random.default_rng(1)
    r = random_tp_channel(3, 2, rng)
    e = random_tp_channel(3, 3, rng)
    rho = random_density(3, rng)
    lhs = compose(r, e).apply(rho)
    rhs = r.apply(e.apply(rho))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_recovered_composition_is_projection_on_code():
    # for an exactly correctable pair, recovery-after-noise restricted to
    # the code equals the code projection map up to the channel's trace factor
    code = bit_flip_code()
    e = bit_flip_channel(0.1)
    p = code.projector()
    a = np.trace(code.basis.conj().T @ e.kraus_sum() @ code.basis).real / code.code_dim
    rec = recovered_channel(e, code)
    proj = QuantumChannel([p])
    assert np.max(np.abs(choi(rec) - a * choi(proj))) < 1e-10


def test_tensor_power_basics():
    e = amplitude_damping(0.2)
    assert channels_equal(tensor_power(e, 1), e)
    e2 = tensor_power(e, 2)
    assert e2.n_kraus == 4 and e2.dims_in == 4
    assert channels_equal(tensor_power(e, np.int64(2)), e2)
    for n in (0, -1, 2.0, True):
        with pytest.raises(DimensionMismatch):
            tensor_power(e, n)


def test_tensor_power_of_a_zero_channel_keeps_one_zero_operator():
    z = tensor_power(QuantumChannel([np.zeros((2, 2)), np.zeros((2, 2))]), 2)
    assert z.n_kraus == 1 and z.dims_in == z.dims_out == 4
    assert not z.kraus.any()


def test_channel_rejects_empty_ragged_or_non_matrix_operators():
    # numbers only: a numeric string or a boolean is refused, not converted
    for bad in ([], np.zeros((0, 2, 2)), [np.eye(2), np.eye(3)], [np.ones(2)],
                [[['1', 0], [0, True]]], np.eye(2, dtype=bool)[None]):
        with pytest.raises(DimensionMismatch):
            QuantumChannel(bad)


def test_tensor_power_ground_state_fixed_point():
    e4 = tensor_power(amplitude_damping(0.1), 4)
    rho = np.outer(basis_state("0000"), basis_state("0000").conj())
    assert np.max(np.abs(e4.apply(rho) - rho)) < 1e-12


def test_tensor_power_budget():
    e = QuantumChannel([np.eye(32, dtype=complex)] * 8)
    with pytest.raises(BudgetExceeded):
        tensor_power(e, 4)


def test_tp_defect():
    assert tp_defect(amplitude_damping(0.37)) < 1e-12
    half = QuantumChannel([0.5 * np.eye(2, dtype=complex)])
    assert abs(tp_defect(half) - 0.75) < 1e-12
    trunc = truncated_damping_channel(0.2, 4)
    assert tp_defect(trunc) > 1e-3


def test_restricted_tp_factor():
    # the one TP-factor rule of the package: sum_i M_i^dag M_i = a I_d on
    # the code, a = 1.0 exactly for noise trace preserving there
    code = qubit_space()
    assert _normalised_noise_on_code(amplitude_damping(0.3).kraus, code)[1] == 1.0
    half = QuantumChannel([0.5 * np.eye(2, dtype=complex)])
    assert abs(_normalised_noise_on_code(half.kraus, code)[1] - 0.25) < 1e-12


def test_choi_gauge_invariance():
    rng = np.random.default_rng(4)
    e = random_tp_channel(3, 3, rng)
    assert channels_equal(e, remix_kraus(e, rng))


def test_channels_not_equal():
    ident = QuantumChannel([np.eye(2)])
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    flip = QuantumChannel([np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * x])
    assert not channels_equal(ident, flip)


def test_choi_partial_trace_tp():
    rng = np.random.default_rng(5)
    e = random_tp_channel(3, 2, rng)
    c = choi(e).reshape(3, 3, 3, 3)
    # row-major vec: index (out, in); trace over the output slot
    reduced = np.einsum("aiaj->ij", c)
    assert np.max(np.abs(reduced - np.eye(3))) < 1e-12


def test_complete_to_tp():
    e = truncated_damping_channel(0.2, 2)
    target = basis_state("00")[:, None]
    full = complete_to_tp(e, target)
    assert tp_defect(full) < 1e-9


def _defect_oracle(e: QuantumChannel) -> list:
    # eigenpairs of I - sum E_i^dag E_i as numpy's eigh returns them
    lam, phi = np.linalg.eigh(np.eye(e.dims_in) - e.kraus_sum())
    return list(zip(lam, phi.T))


def test_complete_to_tp_on_an_isometry_target():
    rng = np.random.default_rng(11)
    # one Kraus operator diag(sqrt s) V^dag: defect V diag(1 - s) V^dag,
    # four distinct eigenvalues
    s = np.array([0.9, 0.6, 0.3, 0.1])
    e = QuantumChannel([np.sqrt(s)[:, None] * _haar_columns(rng, 4, 4).conj().T])
    w = _haar_columns(rng, 4, 4)[:, :2]
    full = complete_to_tp(e, w)
    want = [np.sqrt(lam / 2) * np.outer(w[:, j], phi.conj())
            for lam, phi in _defect_oracle(e) for j in range(2)]
    assert full.n_kraus == 1 + len(want)
    assert np.array_equal(full.kraus[0], e.kraus[0])
    assert np.max(np.abs(full.kraus[1:] - np.stack(want))) <= 1e-15
    assert tp_defect(full) <= 1e-12
    # the appended operators output only on span(w), as w w^dag / 2
    assert np.max(np.abs((np.eye(4) - w @ w.conj().T) @ full.kraus[1:])) <= 1e-15
    rho = random_density(4, rng)
    added = QuantumChannel(full.kraus[1:]).apply(rho)
    weight = np.trace((np.eye(4) - e.kraus_sum()) @ rho).real
    assert np.max(np.abs(added - weight * w @ w.conj().T / 2)) <= 1e-14
    # a unit state as one column keeps the operators sqrt(lam) |t><phi|
    t = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    t /= np.linalg.norm(t)
    one = complete_to_tp(e, t[:, None])
    want = [np.sqrt(lam) * np.outer(t, phi.conj()) for lam, phi in _defect_oracle(e)]
    assert np.max(np.abs(one.kraus[1:] - np.stack(want))) <= 1e-15
    for bad in (2.0 * w, np.ones((4, 2)), np.zeros(4), w[:3], np.zeros((4, 0))):
        with pytest.raises(DimensionMismatch):
            complete_to_tp(e, bad)
    # a Kraus sum above I leaves no weight to route
    with pytest.raises(NotPSD):
        complete_to_tp(QuantumChannel([1.1 * np.eye(4)]), w)


def test_channel_json_roundtrip():
    e = amplitude_damping(0.3)
    data = channel_to_json(e)
    assert set(data) == {"dims_in", "dims_out", "kraus"}
    # each Kraus operator is a flat row-major list of [re, im] pairs
    assert len(data["kraus"][0]) == 4
    assert data["kraus"][0][3] == [np.sqrt(0.7), 0.0]
    back = channel_from_json(data)
    assert back.n_kraus == e.n_kraus
    for k1, k2 in zip(back.kraus, e.kraus):
        assert np.array_equal(k1, k2)


def test_transpose_of_bitflip_matches_projection_identity():
    # composing the transpose recovery with the exactly correctable noise
    # acts as the identity on code states
    code = bit_flip_code()
    e = bit_flip_channel(0.1)
    r = transpose_channel(e, code)
    rng = np.random.default_rng(6)
    c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    c /= np.linalg.norm(c)
    psi = code.basis @ c
    rho = np.outer(psi, psi.conj())
    out = r.apply(e.apply(rho))
    a = np.trace(code.basis.conj().T @ e.kraus_sum() @ code.basis).real / code.code_dim
    assert np.max(np.abs(out - a * rho)) < 1e-10


def test_property_linearity():
    check_apply_linearity(201)


def test_property_choi_psd():
    check_choi_psd(202)


def test_property_trace_preserved():
    check_tp_trace_preserved(203)


def test_property_compose_associative():
    check_compose_associative(204)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_channel_rejects_non_finite_entries(bad):
    from aqec.exceptions import AqecError, NonFiniteInput

    k = np.eye(2, dtype=complex)
    k[1, 0] = bad
    with pytest.raises(NonFiniteInput):
        QuantumChannel([np.eye(2), k])
    assert issubclass(NonFiniteInput, AqecError)
