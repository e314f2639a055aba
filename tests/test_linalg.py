import numpy as np
import pytest

from aqec import inv_sqrt_on_support, polar_unitary_on_support
from aqec.linalg import psd_eigh
from aqec.exceptions import DimensionMismatch, NotHermitian, NotPSD

from helpers import bit_flip_code, pauli_string, random_psd, sqrtm_oracle, svd_polar_oracle
from properties import (
    check_eigenvalue_sum,
    check_inv_sqrt_commutes,
    check_polar_unitary,
)

def test_eig_identity():
    vals, vecs, _ = psd_eigh(np.eye(2))
    assert np.allclose(vals, [1.0, 1.0])
    assert np.allclose(vecs @ vecs.conj().T, np.eye(2))


def test_eig_reconstruction_random():
    rng = np.random.default_rng(8)
    a = random_psd(8, 8, rng)
    vals, vecs, _ = psd_eigh(a)
    recon = (vecs * vals) @ vecs.conj().T
    assert np.max(np.abs(recon - a)) < 1e-10 * np.max(np.abs(a))
    assert np.all(np.diff(vals) >= 0)
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(8))) < 1e-12


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        psd_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatch):
        psd_eigh(np.zeros((2, 3)))


def test_inv_sqrt_identity():
    b, support = inv_sqrt_on_support(np.eye(4))
    assert np.allclose(b, np.eye(4))
    assert np.allclose(support, np.eye(4))


def test_inv_sqrt_diag_with_kernel():
    b, support = inv_sqrt_on_support(np.diag([4.0, 0.0]))
    assert np.allclose(b, np.diag([0.5, 0.0]))
    assert np.allclose(support, np.diag([1.0, 0.0]))


def test_inv_sqrt_rank3_vs_spectral_oracle():
    # independent construction from a fixed spectrum and basis
    rng = np.random.default_rng(5)
    z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    q, _ = np.linalg.qr(z)
    vals = np.array([4.0, 1.0, 0.25, 0.0, 0.0])
    a = (q * vals) @ q.conj().T
    b, support = inv_sqrt_on_support(a)
    assert np.max(np.abs(b @ a @ b - support)) < 1e-9
    support_oracle = (q[:, :3]) @ (q[:, :3]).conj().T
    assert np.max(np.abs(support - support_oracle)) < 1e-9


def test_inv_sqrt_rejects_negative():
    with pytest.raises(NotPSD):
        inv_sqrt_on_support(np.diag([1.0, -0.5]))


def test_psd_eigh_cut_is_per_matrix_of_a_stack():
    # the cutoff is RANK_TOL times each matrix's own largest |eigenvalue|
    stack = np.stack([np.diag([1.0, 0.9e-10, 0.0]), np.diag([2.0, 2.2e-10, 0.0])])
    vals, vecs, keep = psd_eigh(stack)
    assert keep.tolist() == [[False, False, True], [False, True, True]]
    assert np.allclose((vecs * vals[:, None, :]) @ vecs.conj().swapaxes(-1, -2), stack)
    # rounding-level negatives pass, one beyond the cutoff in any matrix raises
    assert not psd_eigh(np.diag([1.0, -1e-11]))[2][0]
    with pytest.raises(NotPSD):
        psd_eigh(np.stack([np.eye(2), np.diag([1.0, -1e-9])]))
    with pytest.raises(DimensionMismatch):
        psd_eigh(np.zeros((2, 3)))
    vals, vecs, keep = psd_eigh(np.zeros((3, 0, 0)))
    assert vals.shape == keep.shape == (3, 0) and vecs.shape == (3, 0, 0)


def test_polar_positive_multiple_of_identity():
    w = polar_unitary_on_support(2.0 * np.eye(3))
    assert np.allclose(w, np.eye(3))


def test_polar_real_diagonal_signs():
    w = polar_unitary_on_support(np.diag([3.0, -2.0]))
    assert np.allclose(w, np.diag([1.0, -1.0]))


def test_polar_bitflip_error_restricted_to_code():
    # single bit flip times the code projector: the polar factor must act
    # as that flip on the code, and satisfy the defining identity checked
    # against an SVD-based oracle
    code = bit_flip_code()
    p = code.projector()
    x1 = pauli_string("XII")
    a = x1 @ p
    w = polar_unitary_on_support(a)
    assert np.max(np.abs(w @ p - x1 @ p)) < 1e-10
    h_sqrt = sqrtm_oracle(a.conj().T @ a)
    assert np.max(np.abs(w @ h_sqrt - a)) < 1e-10
    w_oracle = svd_polar_oracle(a)
    assert np.max(np.abs(w_oracle @ h_sqrt - a)) < 1e-10


def test_property_inv_sqrt_commutes():
    check_inv_sqrt_commutes(101)


def test_property_polar_unitary():
    check_polar_unitary(102)


def test_property_eigenvalue_sum():
    check_eigenvalue_sum(103)
