"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
timings inline.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from aqec import (
    amplitude_damping,
    aqec_diagnostics,
    alternate_condition_residual,
    build_r_perf,
    check_perfect_qec,
    five_qubit_code_only,
    five_qubit_noise,
    five_qubit_recovery,
    leung_code,
    leung_recovery,
    near_optimality_bound_check,
    near_optimality_factor,
    qubit_space,
    random_code,
    tensor_power,
    transpose_channel,
    worst_case_fidelity,
)
from aqec.cli import main
from aqec.conditions import _beta_and_deltas
from aqec.models import example5_channel, example5_eta_formula
from aqec.transpose import _code_kraus, _noise_on_code

from helpers import (
    bit_flip_channel,
    bit_flip_code,
    bloch_samples,
    bloch_to_coeffs,
    choi,
    embed_qubit_channel,
    random_tp_channel,
    random_unital_qubit_channel,
    sqrtm_oracle,
)
from properties import ALL_PROPERTIES, _perturbed_bitflip_instance, _rotated_bitflip_instance

MASTER_SEED = 20248


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL ({time.time() - start:.1f}s)")
        raise
    elapsed = time.time() - start
    status = "PASS" if elapsed < budget_s else f"PASS but over budget {budget_s}s"
    print(f"ACCEPTANCE {number} {name}: {status} ({elapsed:.1f}s)")
    assert elapsed < budget_s


def test_criterion_1_transpose_equals_standard_recovery():
    with criterion(1, "transpose equals standard recovery (Choi)", 10.0):
        code = bit_flip_code()
        e = bit_flip_channel(0.1)
        dev = np.max(
            np.abs(
                choi(transpose_channel(e, code))
                - choi(build_r_perf(e, code))
            )
        )
        assert dev <= 1e-9
        five = five_qubit_code_only()
        for g in (0.1, 0.2, 0.3):
            noise = five_qubit_noise(g)
            cert = check_perfect_qec(noise, five)
            assert cert.satisfied
            dev = np.max(
                np.abs(
                    choi(transpose_channel(noise, five))
                    - choi(build_r_perf(noise, five))
                )
            )
            assert dev <= 1e-9


def test_criterion_2_unital_qubit_exactness():
    with criterion(2, "unital-qubit eigen solution vs sphere oracle", 120.0):
        rng = np.random.default_rng(MASTER_SEED)
        sphere = bloch_samples(1_000_000, rng)
        coeffs = bloch_to_coeffs(sphere)
        # conj(c_a) c_b of every state, formed once: each trial's amplitudes
        # <c|K_k|c> are then one (10^6, 4) @ (4, K) product
        outer = (coeffs.conj()[:, :, None] * coeffs[:, None, :]).reshape(len(coeffs), 4)
        for trial in range(200):
            chan = random_unital_qubit_channel(rng)
            if trial % 2 == 0:
                code = qubit_space()
                kraus_code = np.stack(chan.kraus)
                exact = worst_case_fidelity(chan, None, code)
            else:
                code = random_code(4, 2, int(rng.integers(0, 2**31)))
                lifted = embed_qubit_channel(chan, code)
                w = code.basis
                kraus_code = np.stack([w.conj().T @ k @ w for k in lifted.kraus])
                exact = worst_case_fidelity(lifted, None, code)
            assert exact.method == "exact_unital_qubit"
            flat = kraus_code.reshape(len(kraus_code), 4)
            amps = (outer @ flat.T).view(float)
            f2 = np.einsum("nk,nk->n", amps, amps)  # sum_k |<c|K_k|c>|^2
            idx = int(np.argmin(f2))
            oracle = float(f2[idx])
            # local gradient refinement, independent of the eigen machinery
            c = coeffs[idx]
            f, step = oracle, 0.1
            for _ in range(200):
                v = np.einsum("a,kab,b->k", c.conj(), kraus_code, c)
                grad = (v.conj()[:, None] * (kraus_code @ c)).sum(0)
                grad += (v[:, None] * np.einsum("kba,b->ka", kraus_code.conj(), c)).sum(0)
                g = grad - c * np.vdot(c, grad)
                if np.linalg.norm(g) < 1e-14:
                    break
                moved = False
                while step > 1e-17:
                    t = c - step * g
                    t /= np.linalg.norm(t)
                    amp = flat @ np.outer(t.conj(), t).ravel()
                    ft = float(np.vdot(amp, amp).real)
                    if ft < f - 1e-18:
                        c, f = t, ft
                        step *= 1.5
                        moved = True
                        break
                    step *= 0.5
                if not moved:
                    break
            oracle = min(oracle, f)
            assert oracle >= exact.f2_min - 1e-9
            assert oracle - exact.f2_min <= 1e-5


def test_criterion_3_leak_channel_closed_form():
    with criterion(3, "identity-plus-leak closed form", 60.0):
        for d in (3, 4, 5):
            for p in (0.01, 0.05, 0.1):
                e, code = example5_channel(d, p)
                diag = aqec_diagnostics(
                    e, code, epsilon=0.01, eta_samples=100_000, seed=MASTER_SEED
                )
                assert abs(diag.eta - example5_eta_formula(d, p)) <= 1e-4
                assert abs(abs(diag.worst_state[0]) - 1.0) <= 1e-3


def test_criterion_4_condition_equivalence():
    with criterion(4, "equivalence of the two perfect-correction forms", 60.0):
        rng = np.random.default_rng(MASTER_SEED + 1)
        for _ in range(50):
            e, code = _rotated_bitflip_instance(rng)
            cert = check_perfect_qec(e, code)
            alt = alternate_condition_residual(e, code)
            assert cert.residual <= 1e-10
            assert alt <= 1e-10
            beta, _ = _beta_and_deltas(_code_kraus(_noise_on_code(e.kraus, code)))
            assert np.max(np.abs(beta - sqrtm_oracle(cert.alpha))) <= 1e-9
        for _ in range(50):
            e, code = _perturbed_bitflip_instance(rng)
            cert = check_perfect_qec(e, code)
            alt = alternate_condition_residual(e, code)
            assert cert.residual > 1e-6
            assert alt > 1e-6


def test_criterion_5_norm_bound_and_qubit_shortcut():
    with criterion(5, "deviation-norm bound and qubit shortcut", 120.0):
        rng = np.random.default_rng(MASTER_SEED + 2)
        for _ in range(100):
            dim = int(rng.integers(3, 7))
            e = random_tp_channel(dim, int(rng.integers(2, 5)), rng)
            code = random_code(dim, 2, int(rng.integers(0, 2**31)))
            diag = aqec_diagnostics(e, code, epsilon=0.1)
            assert diag.delta_sum_norm >= diag.eta - 1e-10
            shortcut = 1.0 - float(np.sum(np.abs(diag.beta) ** 2))
            assert abs(diag.delta_sum_norm - shortcut) <= 1e-9


def test_criterion_6_near_optimality_bound():
    with criterion(6, "near-optimality bound with candidate recoveries", 120.0):
        assert near_optimality_factor(0.0, 2) == 3.0
        rng = np.random.default_rng(MASTER_SEED + 3)
        for _ in range(100):
            dim = int(rng.integers(3, 7))
            e = random_tp_channel(dim, int(rng.integers(2, 5)), rng)
            code = random_code(dim, 2, int(rng.integers(0, 2**31)))
            rp = transpose_channel(e, code)
            report = near_optimality_bound_check(e, code, [None, rp])
            assert report.bound_satisfied
            assert abs(report.candidate_etas[1] - report.eta_p) < 1e-9


def test_criterion_7_damping_curve_orderings():
    with criterion(7, "damping-code curve orderings", 900.0):
        leung = leung_code()
        five = five_qubit_code_only()
        gaps = {}
        for g in (0.05, 0.1, 0.2, 0.3):
            e4 = tensor_power(amplitude_damping(g), 4)
            e5 = tensor_power(amplitude_damping(g), 5)
            baseline = 1.0 - g
            f_t = worst_case_fidelity(e4, transpose_channel(e4, leung), leung).f2_min
            f_l = worst_case_fidelity(e4, leung_recovery(g), leung).f2_min
            f_5 = worst_case_fidelity(e5, five_qubit_recovery(g), five).f2_min
            # (a) every error-corrected curve at or above the baseline
            assert min(f_t, f_l, f_5) >= baseline - 1e-9
            # (b) transpose recovery at or above the reference recovery
            assert f_t >= f_l - 1e-12
            # (c) five-qubit standard recovery at or above the reference
            assert f_5 >= f_l - 1e-12
            gaps[g] = abs(f_t - f_5)
        # (d) reported, not asserted: the two best curves stay close
        print(f"  four-vs-five qubit curve gaps: {gaps}")
        for g in (0.05, 0.1, 0.2):
            if gaps[g] > 0.02:
                print(f"  note: gap at gamma={g} is {gaps[g]:.4f} > 0.02")


def test_criterion_8_quadratic_loss_scaling():
    with criterion(8, "quadratic scaling of the damping-code loss", 120.0):
        leung = leung_code()
        gammas = np.array([0.02, 0.05, 0.1])
        etas = []
        for g in gammas:
            e4 = tensor_power(amplitude_damping(g), 4)
            etas.append(aqec_diagnostics(e4, leung, epsilon=0.1).eta)
        slope = np.polyfit(np.log(gammas), np.log(etas), 1)[0]
        print(f"  loss-vs-gamma log-log slope: {slope:.3f}")
        assert 1.7 <= slope <= 2.3


def test_criterion_9_search_throughput(tmp_path):
    with criterion(9, "500-code search throughput", 1800.0):
        out = tmp_path / "search.csv"
        best = tmp_path / "best.json"
        rc = main(
            [
                "search",
                "--codes", "500",
                "--qubits", "4",
                "--seed", str(MASTER_SEED),
                "--out", str(out),
                "--best-out", str(best),
            ]
        )
        assert rc == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == 501
        data = json.loads(best.read_text())
        for row in data["per_gamma"]:
            if row["gamma"] > 0:
                assert row["f2_worst"] > 1 - row["gamma"]


def test_criterion_10_property_suites():
    with criterion(10, "module property suites", 600.0):
        for check in ALL_PROPERTIES:
            check(MASTER_SEED)
