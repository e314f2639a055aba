"""The benchmark's output checks fail on corrupted outputs.

Each test makes a small real output with ``aqec.cli.main``, shows that the
check passes on it, then corrupts one number and shows that the check
fails.  Run with ``PYTHONPATH=src python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json

import numpy as np
import pytest

import checks
import workloads
from aqec.cli import main

GAMMAS = [0.0, 0.1, 0.2, 0.3]


def _cli(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0


def _search(tmp_path, code_dim: int):
    csv, best = tmp_path / "search.csv", tmp_path / "best.json"
    _cli("search", "--qubits", "3", "--code-dim", str(code_dim), "--codes", "2",
         "--seed", "5", "--gamma-stop", "0.3", "--gamma-step", "0.1", "--samples", "2000",
         "--out", str(csv), "--best-out", str(best))
    return json.loads(best.read_text()), checks.read_csv(csv)


def _fails(errors: list[str], message: str) -> bool:
    """True when some failure names the corrupted quantity."""
    return any(message in error for error in errors)


def _with_f2(best: dict, index: int, value: float) -> dict:
    bad = copy.deepcopy(best)
    bad["per_gamma"][index]["f2_worst"] = value
    return bad


@pytest.fixture(scope="module")
def qubit_search(tmp_path_factory):
    return _search(tmp_path_factory.mktemp("qubit"), 2)


@pytest.fixture(scope="module")
def qutrit_search(tmp_path_factory):
    return _search(tmp_path_factory.mktemp("qutrit"), 3)


def test_search_qubit_check(qubit_search):
    best, rows = qubit_search
    assert checks.check_search_qubit(best, rows, 2, GAMMAS, 3) == []
    f2 = best["per_gamma"][2]["f2_worst"]
    for bad, message in ((_with_f2(best, 2, f2 + 1e-2), "beats exact"),
                         (_with_f2(best, 2, f2 + 1e-5), "refined probe"),
                         (_with_f2(best, 2, f2 - 1e-5), "refined probe"),
                         (_with_f2(best, 0, 1.0 - 1e-9), "expected 1")):
        assert _fails(checks.check_search_qubit(bad, rows, 2, GAMMAS, 3), message)
    bad_rows = copy.deepcopy(rows)
    bad_rows[1 - best["best_index"]]["metric_value"] = "0.99999"
    assert _fails(checks.check_search_qubit(best, bad_rows, 2, GAMMAS, 3), "largest metric")


def test_search_qutrit_check(qutrit_search):
    best, rows = qutrit_search
    assert checks.check_search_qutrit(best, rows, 2, GAMMAS, 3) == []
    w = checks.code_basis(best["code"])
    _, s = checks.deviations(checks.recovered_kraus(workloads.damping_power(0.3, 3), w))
    lower = 1.0 - np.linalg.eigvalsh(s)[-1]
    for bad in (_with_f2(best, 3, lower - 1e-3), _with_f2(best, 1, 1.0 + 1e-9)):
        assert _fails(checks.check_search_qutrit(bad, rows, 2, GAMMAS, 3), "outside")


@pytest.fixture(scope="module")
def sweep_rows(tmp_path_factory):
    csv = tmp_path_factory.mktemp("sweep") / "sweep.csv"
    _cli("sweep", "--gamma-stop", "0.3", "--gamma-step", "0.1", "--out", str(csv))
    return checks.read_csv(csv)


def _with_curve(rows: list[dict], curve: str, gamma: float, value: float) -> list[dict]:
    bad = copy.deepcopy(rows)
    for row in bad:
        if row["curve"] == curve and float(row["gamma"]) == gamma:
            row["f2_worst"] = repr(value)
    return bad


def test_sweep_check(sweep_rows):
    curves = workloads.SWEEP_CURVES
    assert checks.check_sweep(sweep_rows, curves, GAMMAS) == []
    f2 = {(r["curve"], float(r["gamma"])): float(r["f2_worst"]) for r in sweep_rows}
    leung = f2["leung41:leung", 0.2]
    for bad, message in ((_with_curve(sweep_rows, "ad:identity", 0.1, 0.9 + 1e-10), "1 - gamma"),
                         (_with_curve(sweep_rows, "leung41:transpose", 0.2, leung - 1e-9),
                          "transpose"),
                         (_with_curve(sweep_rows, "five513:rperf", 0.2, leung - 1e-9), "five513"),
                         (_with_curve(sweep_rows, "leung41:leung", 0.3, 0.7 - 1e-6),
                          "below 1 - gamma"),
                         (sweep_rows[:-1], "rows")):
        assert _fails(checks.check_sweep(bad, curves, GAMMAS), message)


def _pair(tmp_path, label, kind, size, d, param, epsilon):
    if kind == "ad":
        kraus = workloads.damping_power(param, size)
        basis = workloads.haar_isometry(2**size, d, np.random.default_rng(7))
    else:
        kraus = workloads.leak_channel(d, param, size)
        basis = np.eye(size, dtype=complex)[:, :d]
    pair = {"label": label, "kind": kind, "param": param, "epsilon": epsilon,
            "code_dim": d, "channel": str(tmp_path / f"{label}-ch.json"),
            "code": str(tmp_path / f"{label}-code.json"),
            "result": str(tmp_path / f"{label}-out.json")}
    (tmp_path / f"{label}-ch.json").write_text(json.dumps(workloads.channel_json(kraus)))
    (tmp_path / f"{label}-code.json").write_text(json.dumps(workloads.code_json(basis)))
    _cli("check", pair["channel"], pair["code"], "--epsilon", repr(epsilon),
         "--out", pair["result"])
    return pair, json.loads((tmp_path / f"{label}-out.json").read_text())


def _with(result: dict, **changes) -> dict:
    bad = copy.deepcopy(result)
    bad.update(changes)
    return bad


@pytest.mark.parametrize("spec", [("ad3-d2", "ad", 3, 2, 0.15, 0.05),
                                  ("leak-d3", "leak", 4, 3, 0.1, 0.05)])
def test_check_pair(tmp_path, spec):
    pair, result = _pair(tmp_path, *spec)
    assert checks.check_pair(pair, result) == []
    beta = copy.deepcopy(result["beta"])
    beta[0][0][0] += 1e-6
    eta, dsn = result["eta"], result["delta_sum_norm"]
    flipped = "Correctable" if result["verdict"] != "Correctable" else "NotCorrectable"
    for bad, message in ((_with(result, beta=beta), "recomputed beta"),
                         (_with(result, delta_sum_norm=dsn + 1e-6), "||sum Delta^dag Delta||"),
                         (_with(result, eta=dsn + 1e-6), "outside [0, delta_sum_norm]"),
                         (_with(result, verdict=flipped), "verdict"),
                         (_with(result, f_epsilon_d=result["f_epsilon_d"] + 1e-6),
                          "f(epsilon; d) not as given"),
                         (_with(result, epsilon_f_epsilon_d=result["epsilon_f_epsilon_d"] * 1.01),
                          "epsilon * f(epsilon; d)")):
        assert _fails(checks.check_pair(pair, bad), message)
    if spec[1] == "leak":
        assert _fails(checks.check_pair(pair, _with(result, eta=eta - 1e-3)), "closed form")
    else:
        assert _fails(checks.check_pair(pair, _with(result, delta_sum_norm=dsn * 1.1)),
                      "1 - sum|beta|^2")
