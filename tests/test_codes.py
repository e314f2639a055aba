import numpy as np
import pytest

from aqec import (
    CodeSpace,
    code_from_json,
    code_to_json,
    random_code,
)
from aqec.exceptions import DimensionMismatch
from aqec.fidelity import LAGRANGE_QUBIT, _code_operator_basis, _min_forms
from aqec.models import leung_code

from helpers import bloch_state, code_paulis
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


def _random_code_basis_reference(ambient_dim, code_dim, seed):
    """random_code's isometry by its pinned formula: QR of the seed's
    (D, d) Ginibre draw, columns rephased by conj(r_kk) / |r_kk|."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((ambient_dim, code_dim)) + 1j * rng.standard_normal(
        (ambient_dim, code_dim)
    )
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0
    return q * (diag.conj() / np.abs(diag))


@pytest.mark.parametrize("ambient_dim, code_dim", [(4, 2), (16, 2), (16, 3), (32, 2), (5, 5)])
def test_random_code_bit_identical_to_reference(ambient_dim, code_dim):
    # search CSVs and best-code JSONs name codes by seed alone, so the
    # shared Haar body must reproduce the pinned formula bit for bit
    for seed in (0, 1, 123, 2**40 + 7):
        basis = random_code(ambient_dim, code_dim, seed).basis
        assert np.array_equal(basis, _random_code_basis_reference(ambient_dim, code_dim, seed))


def test_random_code_rejects_overfull():
    with pytest.raises(DimensionMismatch):
        random_code(2, 3, 0)
    for dims in ((4.5, 2), (4, 2.0), (True, 1), (4, 0)):
        with pytest.raises(DimensionMismatch):
            random_code(*dims, 0)


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


def test_bloch_state_pauli_convention():
    code = random_code(6, 2, 11)
    v1, v2 = code.basis[:, 0], code.basis[:, 1]
    p = code.projector()
    sigmas = [
        np.outer(v1, v2.conj()) + np.outer(v2, v1.conj()),
        -1j * (np.outer(v1, v2.conj()) - np.outer(v2, v1.conj())),
        np.outer(v1, v1.conj()) - np.outer(v2, v2.conj()),
    ]
    for e, sigma in zip(np.eye(3), sigmas):
        assert np.max(np.abs(bloch_state(code, e) - (p + sigma) / 2)) < 1e-12
    _, sx, sy, sz = code_paulis(code)
    assert np.max(np.abs(sz @ v1 - v1)) < 1e-12
    assert np.max(np.abs(sz @ v2 + v2)) < 1e-12
    assert np.max(np.abs(sx @ sy - 1j * sz)) < 1e-12


def test_pauli_basis_trace_orthogonality():
    code = random_code(5, 2, 3)
    elems = code_paulis(code)
    for a in range(4):
        for b in range(4):
            val = np.trace(elems[a] @ elems[b]).real
            assert abs(val - (2.0 if a == b else 0.0)) < 1e-12


def test_su_generator_basis_orthogonality():
    # the code operator basis lifted to the code, W g_a W^dag
    code = random_code(5, 3, 9)
    w = code.basis
    elems = w @ _code_operator_basis(3) @ w.conj().T
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


def test_qubit_worst_states_match_bloch_states():
    # M = I with M_a0 = -s_a gives the form 1 - s.bloch / 2 on the Bloch
    # sphere, smallest at the unit vector s, so the worst state _min_forms
    # builds is the pure state with Bloch vector s; the poles included, the
    # south pole being the state (0, 1).
    rng = np.random.default_rng(12)
    code = random_code(5, 2, 5)
    dirs = rng.standard_normal((20, 3))
    dirs = np.vstack([dirs / np.linalg.norm(dirs, axis=1, keepdims=True),
                      [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
    m = np.tile(np.eye(4), (len(dirs), 1, 1))
    m[:, 1:, 0] = -dirs
    [results] = _min_forms([(m, code)])
    for res, s in zip(results, dirs):
        assert res.method == LAGRANGE_QUBIT
        psi = res.worst_state
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


def test_code_rejects_more_columns_than_rows_or_a_non_orthonormal_basis():
    for bad in (np.ones((1, 2)) / np.sqrt(2.0), np.ones((2, 2)) / np.sqrt(2.0)):
        with pytest.raises(DimensionMismatch):
            CodeSpace(bad)


def test_code_rejects_non_finite_basis():
    from aqec.exceptions import NonFiniteInput

    basis = np.eye(4, dtype=complex)[:, :2]
    basis[3, 1] = np.nan
    with pytest.raises(NonFiniteInput):
        CodeSpace(basis)
    basis[3, 1] = np.inf
    with pytest.raises(NonFiniteInput):
        CodeSpace(basis)
