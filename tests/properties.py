"""Randomized property checks shared by the module tests and the
acceptance suite.  Each function raises AssertionError on violation and is
deterministic for a given seed."""

from __future__ import annotations

import numpy as np

from aqec import (
    CodeSpace,
    QuantumChannel,
    amplitude_damping,
    aqec_diagnostics,
    alternate_condition_residual,
    check_perfect_qec,
    example5_channel,
    inv_sqrt_on_support,
    near_optimality_bound_check,
    near_optimality_factor,
    polar_unitary_on_support,
    random_code,
    transpose_channel,
    transpose_fidelity_grid,
    worst_case_fidelity,
)
from aqec.codes import _haar_columns
from aqec.conditions import Verdict
from aqec.fidelity import EXACT_UNITAL_QUBIT, _min_forms_sampled
from aqec.linalg import psd_eigh
from aqec.models import leung_code

from helpers import (
    _eta_form,
    bit_flip_channel,
    bit_flip_code,
    bloch_state,
    channels_equal,
    choi,
    code_paulis,
    code_process_matrix,
    compose,
    embed_qubit_channel,
    pauli_string,
    random_density,
    random_hermitian,
    random_psd,
    random_tp_channel,
    random_unital_qubit_channel,
    recovered_channel,
    remix_kraus,
    scalar_min_quadratic_on_sphere,
)


# ---------------------------------------------------------------- linalg

def check_inv_sqrt_commutes(seed: int, cases: int = 100) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        dim = int(rng.integers(2, 7))
        rank = int(rng.integers(1, dim + 1))
        a = random_psd(dim, rank, rng)
        b, _ = inv_sqrt_on_support(a)
        comm = b @ a - a @ b
        assert np.max(np.abs(comm)) < 1e-8 * max(1.0, np.max(np.abs(a)))


def check_polar_unitary(seed: int, cases: int = 100) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        dim = int(rng.integers(2, 7))
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        if rng.random() < 0.4:  # rank-deficient cases
            a[:, : dim // 2] = 0.0
        w = polar_unitary_on_support(a)
        assert np.max(np.abs(w.conj().T @ w - np.eye(dim))) < 1e-10


def check_eigenvalue_sum(seed: int, cases: int = 100) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        dim = int(rng.integers(2, 9))
        a = random_psd(dim, int(rng.integers(1, dim + 1)), rng)
        vals, _, _ = psd_eigh(a)
        assert abs(vals.sum() - np.trace(a).real) < 1e-10 * dim * max(
            1.0, np.max(np.abs(a))
        )


# -------------------------------------------------------------- channels

def check_apply_linearity(seed: int, cases: int = 10) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        dim = int(rng.integers(2, 5))
        e = random_tp_channel(dim, int(rng.integers(1, 4)), rng)
        a = random_hermitian(dim, rng)
        b = random_hermitian(dim, rng)
        al, be = rng.standard_normal(2)
        lhs = e.apply(al * a + be * b)
        rhs = al * e.apply(a) + be * e.apply(b)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(lhs)))


def check_choi_psd(seed: int, cases: int = 100) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        dim = int(rng.integers(2, 5))
        e = random_tp_channel(dim, int(rng.integers(1, 5)), rng)
        vals = np.linalg.eigvalsh(choi(e))
        assert vals[0] >= -1e-10


def check_tp_trace_preserved(seed: int, cases: int = 100) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        dim = int(rng.integers(2, 5))
        e = random_tp_channel(dim, int(rng.integers(1, 5)), rng)
        rho = random_density(dim, rng)
        assert abs(np.trace(e.apply(rho)).real - 1.0) < 1e-10


def check_compose_associative(seed: int, cases: int = 100) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        dim = int(rng.integers(2, 4))
        e1 = random_tp_channel(dim, 2, rng)
        e2 = random_tp_channel(dim, 2, rng)
        e3 = random_tp_channel(dim, 2, rng)
        lhs = compose(compose(e1, e2), e3)
        rhs = compose(e1, compose(e2, e3))
        assert channels_equal(lhs, rhs, 1e-9)


# ----------------------------------------------------------------- codes

def check_bloch_purity(seed: int, cases: int = 100) -> None:
    rng = np.random.default_rng(seed)
    code = random_code(5, 2, seed)
    for _ in range(cases):
        s = rng.standard_normal(3)
        s *= rng.random() / max(np.linalg.norm(s), 1e-12)
        rho = bloch_state(code, s)
        purity = np.trace(rho @ rho).real
        assert abs(purity - (1 + np.linalg.norm(s) ** 2) / 2) < 1e-12


def check_random_code_orthonormal(seed: int, cases: int = 100) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        d_amb = int(rng.integers(2, 12))
        d_code = int(rng.integers(1, d_amb + 1))
        code = random_code(d_amb, d_code, int(rng.integers(0, 2**31)))
        gram = code.basis.conj().T @ code.basis
        assert np.max(np.abs(gram - np.eye(d_code))) < 1e-12


def check_pauli_support(seed: int, cases: int = 100) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        code = random_code(int(rng.integers(2, 8)), 2, int(rng.integers(0, 2**31)))
        comp = np.eye(code.ambient_dim) - code.projector()
        for sigma in code_paulis(code):
            assert np.max(np.abs(comp @ sigma @ comp)) < 1e-12


# ------------------------------------------------------------- transpose

def check_recovered_hermitian_closed(seed: int, cases: int = 20) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        dim = int(rng.integers(3, 6))
        e = random_tp_channel(dim, int(rng.integers(2, 4)), rng)
        code = random_code(dim, 2, int(rng.integers(0, 2**31)))
        rec = recovered_channel(e, code)
        stack = np.stack(rec.kraus)
        for k in rec.kraus:
            dev = np.min(np.max(np.abs(stack - k.conj().T), axis=(1, 2)))
            assert dev < 1e-9
        m = code_process_matrix(rec, code)
        t = m[1:, 1:]
        assert np.max(np.abs(t - t.T)) < 1e-10


def check_recovered_unital(seed: int, cases: int = 50) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        dim = int(rng.integers(3, 7))
        d_code = int(rng.integers(2, min(dim, 4)))
        e = random_tp_channel(dim, int(rng.integers(2, 5)), rng)
        code = random_code(dim, d_code, int(rng.integers(0, 2**31)))
        rec = recovered_channel(e, code)
        p = code.projector()
        assert np.max(np.abs(rec.apply(p) - p)) < 1e-10


def check_transpose_gauge_invariance(seed: int, cases: int = 20) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        dim = int(rng.integers(3, 6))
        e = random_tp_channel(dim, int(rng.integers(2, 4)), rng)
        code = random_code(dim, 2, int(rng.integers(0, 2**31)))
        r1 = transpose_channel(e, code)
        r2 = transpose_channel(remix_kraus(e, rng), code)
        assert np.max(np.abs(choi(r1) - choi(r2))) < 1e-10


# -------------------------------------------------------- qec-conditions

def _rotated_bitflip_instance(rng: np.random.Generator):
    code = bit_flip_code()
    e = bit_flip_channel(float(rng.uniform(0.02, 0.3)))
    g = _haar_columns(rng, 8, 8)
    code_r = CodeSpace(g @ code.basis)
    e_r = QuantumChannel([g @ k @ g.conj().T for k in e.kraus])
    return e_r, code_r


def _perturbed_bitflip_instance(rng: np.random.Generator):
    import scipy.linalg

    code = bit_flip_code()
    e = bit_flip_channel(float(rng.uniform(0.05, 0.3)))
    h = random_hermitian(8, rng)
    g = scipy.linalg.expm(1j * 0.08 * h / np.max(np.abs(h)) * 8)
    return e, CodeSpace(g @ code.basis)


def check_condition_equivalence(seed: int, cases: int = 50) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        e, code = _rotated_bitflip_instance(rng)
        cert = check_perfect_qec(e, code)
        alt = alternate_condition_residual(e, code)
        assert cert.residual <= 1e-10 and alt <= 1e-10
    for _ in range(cases):
        e, code = _perturbed_bitflip_instance(rng)
        cert = check_perfect_qec(e, code)
        alt = alternate_condition_residual(e, code)
        assert cert.residual > 1e-6 and alt > 1e-6, (cert.residual, alt)


def check_eta_dual_route(seed: int, cases: int = 30) -> None:
    """The worst-case loss of the recovered channel (process-matrix route)
    must match the largest deviation objective <sum Delta^dag Delta> -
    sum |<Delta_ij>|^2 (the _eta_form oracle, solved by the scalar sphere
    solver), and the diagnostics eta must match both."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        dim = int(rng.integers(3, 7))
        e = random_tp_channel(dim, int(rng.integers(2, 5)), rng)
        code = random_code(dim, 2, int(rng.integers(0, 2**31)))
        diag = aqec_diagnostics(e, code, epsilon=0.1)
        rec = recovered_channel(e, code)
        res = worst_case_fidelity(rec, None, code)
        assert res.method == EXACT_UNITAL_QUBIT
        assert abs(diag.eta - res.eta) < 1e-9
        flat = diag.deltas_code.reshape(-1, 2, 2)
        q = _eta_form(flat, np.einsum("kab,kac->bc", flat.conj(), flat))
        q = (q + q.T) / 2.0
        oracle_min, _ = scalar_min_quadratic_on_sphere(q[0, 0], q[1:, 0], q[1:, 1:])
        assert abs(diag.eta - max(-oracle_min, 0.0)) < 1e-9
        assert abs(res.eta + oracle_min) < 1e-9


def check_eta_is_transpose_worst_case(seed: int, cases: int = 10) -> None:
    """The diagnostics eta and its method are those of the worst case of
    transpose recovery after the noise, on qubit and qutrit codes; for a
    channel only proportionally trace preserving on the code (the
    truncated bit flips), after the noise scaled by 1/sqrt(a)."""
    rng = np.random.default_rng(seed)
    pairs = [(bit_flip_channel(q), bit_flip_code()) for q in (0.1, rng.uniform(0.02, 0.3))]
    for case in range(cases):
        d = 2 + case % 2
        dim = int(rng.integers(d + 1, 7))
        e = random_tp_channel(dim, int(rng.integers(2, 5)), rng)
        pairs.append((e, random_code(dim, d, int(rng.integers(0, 2**31)))))
    for e, code in pairs:
        diag = aqec_diagnostics(e, code, epsilon=0.1)
        scaled = QuantumChannel([k / np.sqrt(diag.restricted_factor) for k in e.kraus])
        ref = worst_case_fidelity(scaled, transpose_channel(e, code), code)
        assert diag.eta_method == ref.method, (diag.eta_method, ref.method)
        assert abs(diag.eta - ref.eta) <= 1e-9, (diag.eta, ref.eta)


def check_eta_scale_invariant(seed: int, cases: int = 8) -> None:
    """Noise c E with c in (0, 1), proportionally trace preserving on the
    code, has the eta of E to 1e-12 in every call that scores a transpose
    worst case: random TP channels on d = 2 and d = 3 codes, the d = 3
    sampler drawing from one seed on both sides."""
    rng = np.random.default_rng(seed)
    for case in range(cases):
        d = 2 + case % 2
        dim = int(rng.integers(d + 1, 7))
        e = random_tp_channel(dim, int(rng.integers(2, 5)), rng)
        code = random_code(dim, d, int(rng.integers(0, 2**31)))
        c = float(rng.uniform(0.05, 0.95))
        etas = []
        for noise in (e, QuantumChannel([c * k for k in e.kraus])):
            recovery = transpose_channel(noise, code)
            etas.append([
                aqec_diagnostics(noise, code, 0.1, seed=seed).eta,
                transpose_fidelity_grid(noise.kraus[None], code, seed=seed)[0].eta,
                worst_case_fidelity(noise, recovery, code, seed=seed).eta,
                near_optimality_bound_check(noise, code, [None], seed=seed).eta_p,
            ])
        assert np.max(np.abs(np.subtract(*etas))) <= 1e-12, (d, c, etas)


def check_delta_sum_bounds_eta(seed: int, cases: int = 100) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        dim = int(rng.integers(3, 7))
        e = random_tp_channel(dim, int(rng.integers(2, 5)), rng)
        code = random_code(dim, 2, int(rng.integers(0, 2**31)))
        diag = aqec_diagnostics(e, code, epsilon=0.1)
        assert diag.eta <= diag.delta_sum_norm + 1e-10
        shortcut = 1.0 - float(np.sum(np.abs(diag.beta) ** 2))
        assert abs(diag.delta_sum_norm - shortcut) < 1e-9


def check_verdict_soundness(seed: int, cases: int = 20) -> None:
    """NotCorrectable at level epsilon implies every tested recovery loses
    more than epsilon."""
    rng = np.random.default_rng(seed)
    tested = 0
    for _ in range(cases * 3):
        if tested >= cases:
            break
        dim = int(rng.integers(3, 6))
        e = random_tp_channel(dim, int(rng.integers(2, 4)), rng)
        code = random_code(dim, 2, int(rng.integers(0, 2**31)))
        diag = aqec_diagnostics(e, code, epsilon=0.0)
        # pick epsilon small enough that the verdict is NotCorrectable
        eps = diag.eta / (2.0 * near_optimality_factor(0.0, 2))
        diag2 = aqec_diagnostics(e, code, epsilon=eps)
        if diag2.verdict is not Verdict.NOT_CORRECTABLE:
            continue
        tested += 1
        for recovery in (None, transpose_channel(e, code),
                         embed_qubit_channel(random_unital_qubit_channel(rng), code)):
            res = worst_case_fidelity(e, recovery, code)
            assert res.eta > eps
    assert tested >= cases // 2


# -------------------------------------------------------- worst-fidelity

def check_f2_matches_process_matrix(seed: int, cases: int = 100) -> None:
    rng = np.random.default_rng(seed)
    code = random_code(4, 2, seed)
    e = random_tp_channel(4, 3, rng)
    rec = recovered_channel(e, code)
    m = code_process_matrix(rec, code)
    m_sym = (m + m.T) / 2
    w = code.basis
    kraus_code = np.stack([w.conj().T @ k @ w for k in rec.kraus])
    for _ in range(cases):
        s = rng.standard_normal(3)
        s /= np.linalg.norm(s)
        vec = np.concatenate([[1.0], s])
        quad = float(vec @ m_sym @ vec) / 2.0
        quad_raw = float(vec @ m @ vec) / 2.0
        c = np.array([np.sqrt((1 + s[2]) / 2),
                      (s[0] + 1j * s[1]) / np.sqrt(2 * (1 + s[2]))])
        amps = np.einsum("a,kab,b->k", c.conj(), kraus_code, c)
        direct = float(np.sum(np.abs(amps) ** 2))
        assert abs(quad - direct) < 1e-10
        assert abs(quad - quad_raw) < 1e-10


def check_sampled_upper_bounds_exact(seed: int, cases: int = 20) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        dim = int(rng.integers(3, 6))
        e = random_tp_channel(dim, 3, rng)
        code = random_code(dim, 2, int(rng.integers(0, 2**31)))
        rec = recovered_channel(e, code)
        exact = worst_case_fidelity(rec, None, code)
        assert exact.method == EXACT_UNITAL_QUBIT
        # the sampler run on a qubit code, which _min_forms solves exactly
        m = code_process_matrix(rec, code)
        [sampled], _ = _min_forms_sampled(m[None] / 2.0, 2000, int(rng.integers(0, 2**31)))
        assert sampled >= exact.f2_min - 1e-9


def check_rotation_invariance(seed: int, cases: int = 100) -> None:
    """Conjugating the traceless block by a rotation leaves the minimum
    eigenvalue, hence the loss, unchanged."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        n = random_hermitian(3, rng).real
        n = (n + n.T) / 2
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        e1 = np.linalg.eigvalsh(n)[0]
        e2 = np.linalg.eigvalsh(q.T @ n @ q)[0]
        assert abs(e1 - e2) < 1e-12


# ------------------------------------------------------------- model-zoo

def check_damping_semigroup(seed: int, cases: int = 20) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        g1, g2 = rng.uniform(0.0, 1.0, size=2)
        lhs = compose(amplitude_damping(g1), amplitude_damping(g2))
        rhs = amplitude_damping(1.0 - (1.0 - g1) * (1.0 - g2))
        assert channels_equal(lhs, rhs, 1e-10)


def check_leung_stabilizers(seed: int = 0) -> None:
    code = leung_code()
    for spec in ("XXXX", "ZZII"):
        op = pauli_string(spec)
        assert np.max(np.abs(op @ code.basis - code.basis)) < 1e-12


def check_example5_ratio(seed: int = 0) -> None:
    for d in (3, 4, 5):
        for p in (0.01, 0.05):
            e, code = example5_channel(d, p)
            diag = aqec_diagnostics(e, code, 0.1, eta_samples=30_000, seed=seed)
            res0 = worst_case_fidelity(e, None, code, samples=30_000, seed=seed + 1)
            ratio = diag.eta / res0.eta
            expected = (d - 1) / (1.0 + (d - 1) * p)
            assert abs(ratio - expected) < 5e-3, (d, p, ratio, expected)


ALL_PROPERTIES = [
    check_inv_sqrt_commutes,
    check_polar_unitary,
    check_eigenvalue_sum,
    check_apply_linearity,
    check_choi_psd,
    check_tp_trace_preserved,
    check_compose_associative,
    check_bloch_purity,
    check_random_code_orthonormal,
    check_pauli_support,
    check_recovered_hermitian_closed,
    check_recovered_unital,
    check_transpose_gauge_invariance,
    check_condition_equivalence,
    check_eta_dual_route,
    check_eta_is_transpose_worst_case,
    check_eta_scale_invariant,
    check_delta_sum_bounds_eta,
    check_verdict_soundness,
    check_f2_matches_process_matrix,
    check_sampled_upper_bounds_exact,
    check_rotation_invariance,
    check_damping_semigroup,
    check_leung_stabilizers,
    check_example5_ratio,
]
