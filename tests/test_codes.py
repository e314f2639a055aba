import numpy as np
import pytest

from aqec import (
    CodeSpace,
    bloch_state,
    bloch_to_state_vector,
    code_from_json,
    code_to_json,
    operator_basis,
    pauli_basis,
    random_code,
)
from aqec.exceptions import DimensionMismatch, InvalidBloch, NotQubitCode
from aqec.models import leung_code

from properties import (
    check_bloch_purity,
    check_pauli_support,
    check_random_code_orthonormal,
)


def test_projector_full_space():
    code = CodeSpace(np.eye(2, dtype=complex))
    assert np.allclose(code.projector(), np.eye(2))


def test_projector_leung_rank_and_trace():
    p = leung_code().projector()
    assert p.shape == (16, 16)
    assert abs(np.trace(p).real - 2.0) < 1e-12
    assert np.max(np.abs(p @ p - p)) < 1e-12
    assert np.max(np.abs(p - p.conj().T)) < 1e-12


def test_projector_fixes_codeword():
    code = leung_code()
    v = code.basis[:, 0]
    assert np.max(np.abs(code.projector() @ v - v)) < 1e-12


def test_random_code_full_space():
    code = random_code(3, 3, 7)
    assert np.max(np.abs(code.projector() - np.eye(3))) < 1e-10


def test_random_code_deterministic():
    c1 = random_code(8, 2, 123)
    c2 = random_code(8, 2, 123)
    assert np.array_equal(c1.basis, c2.basis)


def test_random_code_rejects_overfull():
    with pytest.raises(DimensionMismatch):
        random_code(2, 3, 0)


def test_random_code_haar_moment():
    # covariance of a Haar-random unit vector in C^4 is I/4
    n = 10_000
    acc = np.zeros((4, 4), dtype=complex)
    for seed in range(n):
        v = random_code(4, 1, seed).basis[:, 0]
        acc += np.outer(v, v.conj())
    acc /= n
    # beta-distributed diagonals give sigma ~ 0.0019; 3 sigma ~ 0.006
    assert np.max(np.abs(acc - np.eye(4) / 4)) < 0.006


def test_pauli_basis_action():
    code = random_code(6, 2, 11)
    v1, v2 = code.basis[:, 0], code.basis[:, 1]
    _, sx, sy, sz = pauli_basis(code).elements
    assert np.max(np.abs(sz @ v1 - v1)) < 1e-12
    assert np.max(np.abs(sz @ v2 + v2)) < 1e-12
    assert np.max(np.abs(sx @ sy - 1j * sz)) < 1e-12


def test_pauli_basis_trace_orthogonality():
    code = random_code(5, 2, 3)
    elems = pauli_basis(code).elements
    for a in range(4):
        for b in range(4):
            val = np.trace(elems[a] @ elems[b]).real
            assert abs(val - (2.0 if a == b else 0.0)) < 1e-12


def test_pauli_basis_requires_qubit():
    with pytest.raises(NotQubitCode):
        pauli_basis(random_code(4, 3, 0))


def test_su_generator_basis_orthogonality():
    code = random_code(5, 3, 9)
    elems = operator_basis(code).elements
    assert len(elems) == 9
    for a in range(9):
        assert np.max(np.abs(elems[a] - elems[a].conj().T)) < 1e-12
        if a > 0:
            assert abs(np.trace(elems[a])) < 1e-12
        for b in range(9):
            val = np.trace(elems[a] @ elems[b]).real
            assert abs(val - (3.0 if a == b else 0.0)) < 1e-12


def test_bloch_state_poles_and_mixed():
    code = random_code(4, 2, 21)
    v1, v2 = code.basis[:, 0], code.basis[:, 1]
    north = bloch_state(code, (0, 0, 1))
    assert np.max(np.abs(north - np.outer(v1, v1.conj()))) < 1e-12
    mixed = bloch_state(code, (0, 0, 0))
    assert np.max(np.abs(mixed - code.projector() / 2)) < 1e-12
    plus = bloch_state(code, (1, 0, 0))
    vec = (v1 + v2) / np.sqrt(2)
    assert np.max(np.abs(plus - np.outer(vec, vec.conj()))) < 1e-12


def test_bloch_state_rejects_long_vector():
    with pytest.raises(InvalidBloch):
        bloch_state(random_code(4, 2, 2), (1.1, 0, 0))


def test_bloch_to_state_vector_consistency():
    rng = np.random.default_rng(12)
    code = random_code(5, 2, 5)
    for _ in range(20):
        s = rng.standard_normal(3)
        s /= np.linalg.norm(s)
        psi = bloch_to_state_vector(code, s)
        rho = bloch_state(code, s)
        assert np.max(np.abs(np.outer(psi, psi.conj()) - rho)) < 1e-10


def test_code_json_roundtrip():
    code = random_code(6, 2, 77)
    back = code_from_json(code_to_json(code))
    assert back.ambient_dim == 6 and back.code_dim == 2
    assert np.max(np.abs(back.basis - code.basis)) < 1e-15


def test_property_bloch_purity():
    check_bloch_purity(301)


def test_property_orthonormal():
    check_random_code_orthonormal(302)


def test_property_pauli_support():
    check_pauli_support(303)


def test_code_rejects_non_finite_basis():
    from aqec.exceptions import NonFiniteInput

    basis = np.eye(4, dtype=complex)[:, :2]
    basis[3, 1] = np.nan
    with pytest.raises(NonFiniteInput):
        CodeSpace(basis)
    basis[3, 1] = np.inf
    with pytest.raises(NonFiniteInput):
        CodeSpace(basis)
