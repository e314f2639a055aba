"""The benchmark's workloads: inputs made from the seed, and one round of
``aqec`` command lines.

Every round of a workload runs the same command lines on the same inputs,
so every round does the same work and writes the same outputs.  The inputs
are made here with plain numpy (Haar codes, damping channels, leak
channels), not with aqec, so that the program receives only generated
inputs.

Workloads:

- ``search-qubit``: ``aqec search --qubits 4 --code-dim 2`` over the default
  51-gamma grid; the paper's search, exact qubit solvers.
- ``search-qutrit``: ``aqec search --qubits 4 --code-dim 3`` on a six-point
  gamma grid; the Haar sampler and its local refinement.
- ``sweep-default``: the default ``aqec sweep`` (its four curves on the
  51-gamma grid), split over five calls by gamma; fixed codes with
  non-transpose recoveries.
- ``check-mix``: ``aqec check`` on damping channels over 3-5 qubits with
  Haar codes of d = 2 and 3, leak channels, and one channel with a NaN
  entry whose correct outcome is exit 3.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# codes per call, calls per round
SEARCH_CODES = {"search-qubit": (4, 1), "search-qutrit": (1, 2)}
SEARCH_GAMMAS = {
    "search-qubit": [round(0.01 * k, 12) for k in range(51)],
    "search-qutrit": [round(0.1 * k, 12) for k in range(6)],
}
SWEEP_GAMMAS = [round(0.01 * k, 12) for k in range(51)]
SWEEP_CURVES = ["ad:identity", "five513:rperf", "leung41:leung", "leung41:transpose"]
SWEEP_CHUNKS = 5

# check-mix pairs: (label, kind, n_qubits or ambient dimension, code dimension)
CHECK_PAIRS = [
    ("ad3-d2", "ad", 3, 2),
    ("ad4-d2", "ad", 4, 2),
    ("ad5-d2", "ad", 5, 2),
    ("ad3-d3", "ad", 3, 3),
    ("ad4-d3", "ad", 4, 3),
    ("leak-d3", "leak", 4, 3),
    ("leak-d4", "leak", 6, 4),
    ("nan-d3", "nan", 4, 3),
]

# The NaN pair does not depend on the seed: it fails the same way in every
# run until non-finite input is rejected with exit 3.
NAN_P = 0.1
NAN_EPSILON = 0.05


@dataclass
class Op:
    """One command line: its arguments, the points it evaluates, and the
    exit code that counts as success."""

    argv: list[str]
    points: int
    expect_exit: int = 0
    outputs: list[str] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # What the checks need to know about the inputs.
    inputs: dict = field(default_factory=dict)


def damping_power(gamma: float, n: int) -> np.ndarray:
    """Kraus operators of n-qubit amplitude damping, stacked, first qubit
    most significant, Kraus index in lexicographic order."""
    ops = np.ones((1, 1, 1), dtype=complex)
    single = np.array([[[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]],
                       [[0.0, np.sqrt(gamma)], [0.0, 0.0]]], dtype=complex)
    for _ in range(n):
        ops = np.einsum("aij,bkl->abikjl", ops, single).reshape(
            ops.shape[0] * 2, ops.shape[1] * 2, ops.shape[2] * 2
        )
    return ops


def haar_isometry(dim: int, code_dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, code_dim)) + 1j * rng.standard_normal((dim, code_dim))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag.conj() / np.abs(diag))


def leak_channel(d: int, p: float, ambient: int) -> np.ndarray:
    """Identity plus a weak leak of every code state to |0>, completed to
    a trace-preserving map by I - P on the complement."""
    proj = np.zeros((ambient, ambient), dtype=complex)
    proj[:d, :d] = np.eye(d)
    ops = [np.sqrt(1.0 - p) * proj]
    for k in range(d):
        op = np.zeros((ambient, ambient), dtype=complex)
        op[0, k] = np.sqrt(p)
        ops.append(op)
    ops.append(np.eye(ambient) - proj)
    return np.stack(ops)


def _pairs(m: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(m).reshape(-1)]


def channel_json(kraus: np.ndarray) -> dict:
    _, rows, cols = kraus.shape
    return {"dims_in": cols, "dims_out": rows, "kraus": [_pairs(k) for k in kraus]}


def code_json(basis: np.ndarray) -> dict:
    ambient, code_dim = basis.shape
    return {
        "ambient_dim": ambient,
        "code_dim": code_dim,
        "basis": [_pairs(basis[:, k]) for k in range(code_dim)],
    }


def _search(name: str, seed: int, out: Path) -> Workload:
    # search-qutrit runs one code per call, so that the calibration kernel
    # brackets about half a second of work at a time.
    gammas = SEARCH_GAMMAS[name]
    codes, calls = SEARCH_CODES[name]
    ops, runs = [], []
    for i in range(calls):
        csv, best = out / f"search-{i}.csv", out / f"best-{i}.json"
        argv = ["search", "--qubits", "4", "--code-dim", "2" if name == "search-qubit" else "3",
                "--codes", str(codes), "--seed", str(seed + i),
                "--out", str(csv), "--best-out", str(best)]
        if name == "search-qutrit":
            argv += ["--gamma-stop", str(gammas[-1]), "--gamma-step", str(gammas[1])]
        ops.append(Op(argv, codes * len(gammas), outputs=[str(csv), str(best)]))
        runs.append({"csv": str(csv), "best": str(best)})
    return Workload(name, ops, {"gammas": gammas, "codes": codes, "n_qubits": 4, "runs": runs})


def _sweep(seed: int, out: Path) -> Workload:
    # The default grid in SWEEP_CHUNKS calls of 10-11 gammas each, so that
    # the calibration kernel brackets about a second of work at a time.
    ops = []
    size = -(-len(SWEEP_GAMMAS) // SWEEP_CHUNKS)
    for i in range(SWEEP_CHUNKS):
        gammas = SWEEP_GAMMAS[i * size:(i + 1) * size]
        csv = out / f"sweep-{i}.csv"
        argv = ["sweep", "--seed", str(seed), "--gamma-start", repr(gammas[0]),
                "--gamma-stop", repr(gammas[-1]), "--out", str(csv)]
        ops.append(Op(argv, len(SWEEP_CURVES) * len(gammas), outputs=[str(csv)]))
    csvs = [op.outputs[0] for op in ops]
    return Workload("sweep-default", ops,
                    {"gammas": SWEEP_GAMMAS, "curves": SWEEP_CURVES, "csvs": csvs})


def _check_mix(seed: int, out: Path) -> Workload:
    rng = np.random.default_rng(seed)
    inputs = out / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    ops, pairs = [], []
    for label, kind, size, d in CHECK_PAIRS:
        if kind == "ad":
            gamma = float(rng.uniform(0.05, 0.3))
            kraus = damping_power(gamma, size)
            basis = haar_isometry(2**size, d, rng)
            param = gamma
        else:
            p = NAN_P if kind == "nan" else float(rng.uniform(0.02, 0.2))
            kraus = leak_channel(d, p, size)
            basis = np.eye(size, dtype=complex)[:, :d]
            param = p
        epsilon = NAN_EPSILON if kind == "nan" else float(rng.uniform(0.02, 0.2))
        ch_json = channel_json(kraus)
        if kind == "nan":
            ch_json["kraus"][0][0][0] = float("nan")
        ch_path, code_path = inputs / f"{label}-channel.json", inputs / f"{label}-code.json"
        ch_path.write_text(json.dumps(ch_json))
        code_path.write_text(json.dumps(code_json(basis)))
        result = out / f"{label}-check.json"
        argv = ["check", str(ch_path), str(code_path), "--epsilon", repr(epsilon),
                "--out", str(result)]
        ops.append(Op(argv, 1, expect_exit=3 if kind == "nan" else 0,
                      outputs=[] if kind == "nan" else [str(result)]))
        pairs.append({"label": label, "kind": kind, "param": param, "epsilon": epsilon,
                      "code_dim": d, "channel": str(ch_path), "code": str(code_path),
                      "result": str(result)})
    return Workload("check-mix", ops, {"pairs": pairs})


NAMES = ("search-qubit", "search-qutrit", "sweep-default", "check-mix")


def build(name: str, seed: int, out: Path) -> Workload:
    """Make the workload's inputs under out and return its round."""
    out.mkdir(parents=True, exist_ok=True)
    if name in SEARCH_CODES:
        return _search(name, seed, out)
    if name == "sweep-default":
        return _sweep(seed, out)
    if name == "check-mix":
        return _check_mix(seed, out)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
