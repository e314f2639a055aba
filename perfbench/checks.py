"""Output checks, made after the timed section with plain numpy.

Each check either recomputes a quantity apart from the program or tests a
property the method must have, and returns a list of failures (empty when
the output is right).  None of them calls aqec.

The central object is the transpose-recovered map on the code, with Kraus
set ``K_ij = W^dag E_i^dag B E_j W`` where ``W`` is the code isometry and
``B = E(P)^(-1/2)`` on the support of ``E(P)``.  The checks build it from
the noise's Kraus operators with their own ``eigh``.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from workloads import damping_power

RANK_TOL = 1e-10


def read_csv(path: str | Path) -> list[dict]:
    lines = [line for line in Path(path).read_text().splitlines() if not line.startswith("#")]
    return list(csv.DictReader(lines))


def complex_matrix(pairs: list, rows: int, cols: int) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    return (arr[..., 0] + 1j * arr[..., 1]).reshape(rows, cols)


def code_basis(code: dict) -> np.ndarray:
    d_amb, d = code["ambient_dim"], code["code_dim"]
    return np.column_stack([complex_matrix(v, d_amb, 1)[:, 0] for v in code["basis"]])


def recovered_kraus(kraus: np.ndarray, w: np.ndarray) -> np.ndarray:
    """K_ij = W^dag E_i^dag B E_j W, shape (N, N, d, d)."""
    p = w @ w.conj().T
    ep = np.einsum("kij,jl,kml->im", kraus, p, kraus.conj())
    vals, vecs = np.linalg.eigh((ep + ep.conj().T) / 2)
    keep = vals > RANK_TOL * np.max(np.abs(vals))
    b = (vecs[:, keep] / np.sqrt(vals[keep])) @ vecs[:, keep].conj().T
    m = kraus @ w
    return np.einsum("iab,jac->ijbc", m.conj(), b @ m)


def deviations(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """beta_ij = tr K_ij / d and S = sum_ij Delta_ij^dag Delta_ij."""
    d = k.shape[-1]
    beta = np.trace(k, axis1=2, axis2=3) / d
    delta = (k - beta[:, :, None, None] * np.eye(d)).reshape(-1, d, d)
    return beta, np.einsum("kab,kac->bc", delta.conj(), delta)


def fidelity2(k: np.ndarray, states: np.ndarray) -> np.ndarray:
    """F^2 = sum_ij |c^dag K_ij c|^2 for each row c of states."""
    d = k.shape[-1]
    amps = np.einsum("na,kab,nb->nk", states.conj(), k.reshape(-1, d, d), states)
    return np.sum(np.abs(amps) ** 2, axis=1)


def _qubit_state(theta, phi) -> np.ndarray:
    theta, phi = np.broadcast_arrays(np.asarray(theta, float), np.asarray(phi, float))
    return np.stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], axis=-1)


def refine_qubit_min(k: np.ndarray, state: np.ndarray) -> float:
    """Local minimum of F^2 on the Bloch sphere from a start state, by a
    shrinking 5x5 grid search in (theta, phi)."""
    state = state * np.exp(-1j * np.angle(state[0]))
    theta = 2 * np.arccos(np.clip(abs(state[0]), 0.0, 1.0))
    phi = float(np.angle(state[1]))
    step = 0.2
    offsets = np.linspace(-1.0, 1.0, 5)
    best = float(fidelity2(k, _qubit_state(theta, phi)[None])[0])
    while step > 1e-10:
        tt, pp = np.meshgrid(theta + step * offsets, phi + step * offsets)
        vals = fidelity2(k, _qubit_state(tt.ravel(), pp.ravel()))
        i = int(np.argmin(vals))
        if vals[i] < best:
            best, theta, phi = float(vals[i]), tt.ravel()[i], pp.ravel()[i]
        else:
            step *= 0.5
    return best


def haar_states(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _search_rows(best: dict, rows: list[dict], codes: int, gammas: list[float]) -> list[str]:
    """Consistency of the search CSV with the best-code file."""
    errors = []
    per = best["per_gamma"]
    if [row["gamma"] for row in per] != gammas:
        errors.append("best code: gamma grid differs from the requested grid")
    if len(rows) != codes:
        errors.append(f"search CSV has {len(rows)} codes, expected {codes}")
        return errors
    metrics = [float(row["metric_value"]) for row in rows]
    if best["metric_value"] != min(row["f2_worst"] for row in per):
        errors.append("best code: metric_value is not the minimum over gammas")
    if metrics[best["best_index"]] != best["metric_value"] or max(metrics) != best["metric_value"]:
        errors.append("best code is not the CSV row with the largest metric")
    if not all(0.0 <= m <= 1.0 for m in metrics):
        errors.append("search CSV: metric outside [0, 1]")
    return errors


def check_search_qubit(best: dict, rows: list[dict], codes: int, gammas: list[float],
                       n_qubits: int, probes: int = 2000) -> list[str]:
    """Exact qubit minima: no probe state beats them by more than 1e-9, a
    refined probe minimum lands within 1e-6 of them, and F^2 = 1 at gamma 0."""
    errors = _search_rows(best, rows, codes, gammas)
    w = code_basis(best["code"])
    states = haar_states(2, probes, np.random.default_rng(2009))
    for row in best["per_gamma"]:
        gamma, f2 = row["gamma"], row["f2_worst"]
        if gamma == 0.0 and abs(f2 - 1.0) > 1e-12:
            errors.append(f"gamma 0: F^2 = {f2!r}, expected 1")
        k = recovered_kraus(damping_power(gamma, n_qubits), w)
        vals = fidelity2(k, states)
        i = int(np.argmin(vals))
        if vals[i] < f2 - 1e-9:
            errors.append(f"gamma {gamma}: probe F^2 {vals[i]:.12f} beats exact {f2:.12f}")
        refined = refine_qubit_min(k, states[i])
        if abs(refined - f2) > 1e-6:
            errors.append(f"gamma {gamma}: refined probe {refined:.12f} vs exact {f2:.12f}")
    return errors


def check_search_qutrit(best: dict, rows: list[dict], codes: int, gammas: list[float],
                        n_qubits: int) -> list[str]:
    """Sampled minima lie between 1 - ||sum Delta^dag Delta|| and 1."""
    errors = _search_rows(best, rows, codes, gammas)
    w = code_basis(best["code"])
    for row in best["per_gamma"]:
        gamma, f2 = row["gamma"], row["f2_worst"]
        _, s = deviations(recovered_kraus(damping_power(gamma, n_qubits), w))
        lower = 1.0 - float(np.linalg.eigvalsh(s)[-1])
        if not lower - 1e-9 <= f2 <= 1.0 + 1e-12:
            errors.append(f"gamma {gamma}: sampled F^2 {f2:.12f} outside [{lower:.12f}, 1]")
    return errors


def check_sweep(rows: list[dict], curves: list[str], gammas: list[float]) -> list[str]:
    """ad:identity is 1 - gamma; for gamma <= 0.3 the corrected curves are
    at or above 1 - gamma, transpose >= leung and five513 >= leung."""
    errors = []
    f2 = {(row["curve"], float(row["gamma"])): float(row["f2_worst"]) for row in rows}
    expected = {(c, g) for c in curves for g in gammas}
    if set(f2) != expected or len(rows) != len(expected):
        return [f"sweep CSV has {len(rows)} rows, expected one per curve and gamma"]
    for g in gammas:
        if abs(f2["ad:identity", g] - (1.0 - g)) > 1e-12:
            errors.append(f"gamma {g}: ad:identity F^2 {f2['ad:identity', g]!r} != 1 - gamma")
        if g > 0.3:
            continue
        t, l, five = (f2["leung41:transpose", g], f2["leung41:leung", g],
                      f2["five513:rperf", g])
        if min(t, l, five) < 1.0 - g - 1e-9:
            errors.append(f"gamma {g}: a corrected curve is below 1 - gamma")
        if t < l - 1e-12:
            errors.append(f"gamma {g}: transpose {t:.12f} below leung {l:.12f}")
        if five < l - 1e-12:
            errors.append(f"gamma {g}: five513 {five:.12f} below leung {l:.12f}")
    return errors


def near_optimality_factor(eps: float, d: int) -> float:
    return ((d + 1) - eps) / (1.0 + (d - 1) * eps)


def check_pair(pair: dict, result: dict) -> list[str]:
    """One ``aqec check`` result against beta and ||sum Delta^dag Delta||
    recomputed here, the leak channel's closed-form eta, and the verdict
    rule."""
    errors = []
    label, d, eps = pair["label"], pair["code_dim"], pair["epsilon"]
    channel = json.loads(Path(pair["channel"]).read_text())
    kraus = np.stack([complex_matrix(k, channel["dims_out"], channel["dims_in"])
                      for k in channel["kraus"]])
    w = code_basis(json.loads(Path(pair["code"]).read_text()))
    beta, s = deviations(recovered_kraus(kraus, w))
    out_beta = np.asarray(result["beta"], dtype=float)
    out_beta = out_beta[..., 0] + 1j * out_beta[..., 1]
    eta, dsn = result["eta"], result["delta_sum_norm"]
    if out_beta.shape != beta.shape or np.max(np.abs(out_beta - beta)) > 1e-9:
        errors.append(f"{label}: beta differs from the recomputed beta")
    if abs(dsn - float(np.linalg.eigvalsh(s)[-1])) > 1e-9:
        errors.append(f"{label}: delta_sum_norm {dsn!r} differs from ||sum Delta^dag Delta||")
    # tr(sum Delta^dag Delta) = d (1 - sum |beta|^2) for a trace-preserving
    # pair, so 1 - sum |beta|^2 is the mean eigenvalue: equal to the norm
    # for qubit codes, between norm / d and the norm otherwise.
    mean_eig = 1.0 - float(np.sum(np.abs(out_beta) ** 2))
    if d == 2 and abs(dsn - mean_eig) > 1e-9:
        errors.append(f"{label}: delta_sum_norm {dsn!r} != 1 - sum|beta|^2 {mean_eig!r}")
    if not dsn / d - 1e-9 <= mean_eig <= dsn + 1e-9:
        errors.append(f"{label}: 1 - sum|beta|^2 {mean_eig!r} outside [norm / d, norm]")
    if not 0.0 <= eta <= dsn + 1e-12:
        errors.append(f"{label}: eta {eta!r} outside [0, delta_sum_norm]")
    if pair["kind"] == "leak" and d >= 3:
        closed = (d - 1) * pair["param"] / (1 + (d - 1) * pair["param"])
        if abs(eta - closed) > 1e-4:
            errors.append(f"{label}: eta {eta!r} vs closed form {closed!r}")
    f = near_optimality_factor(eps, d)
    if result["epsilon"] != eps or abs(result["f_epsilon_d"] - f) > 1e-12:
        errors.append(f"{label}: epsilon or f(epsilon; d) not as given")
    if abs(result["epsilon_f_epsilon_d"] - eps * f) > 1e-12:
        errors.append(f"{label}: epsilon * f(epsilon; d) wrong")
    verdict = ("Correctable" if eta <= eps
               else "NotCorrectable" if eta > eps * f else "Indeterminate")
    if result["verdict"] != verdict:
        errors.append(f"{label}: verdict {result['verdict']} but eta gives {verdict}")
    return errors


def check_workload(name: str, inputs: dict) -> list[str]:
    """Run the checks of one workload on the outputs its inputs name."""
    if name in ("search-qubit", "search-qutrit"):
        check = check_search_qubit if name == "search-qubit" else check_search_qutrit
        errors = []
        for run in inputs["runs"]:
            best = json.loads(Path(run["best"]).read_text())
            errors += check(best, read_csv(run["csv"]), inputs["codes"], inputs["gammas"],
                            inputs["n_qubits"])
        return errors
    if name == "sweep-default":
        rows = [row for path in inputs["csvs"] for row in read_csv(path)]
        return check_sweep(rows, inputs["curves"], inputs["gammas"])
    errors = []
    for pair in inputs["pairs"]:
        if pair["kind"] != "nan":
            result = json.loads(Path(pair["result"]).read_text())
            errors += check_pair(pair, result)
    return errors
