"""Speed calibration kernel: plain numpy and Python, no aqec code.

The benchmark machine is shared, and its speed drifts by 10-30% within
seconds.  The kernel below is a fixed piece of work whose time tracks that
drift.  It calls no aqec code, so a change to the program never changes
the kernel, and dividing a round's time by the kernel's slowdown cancels
the machine's speed while keeping the program's.

The kernel has three parts, each a mimic of one kind of work the
workloads do:

- ``small``: one transpose-recovery point written out in numpy: Kronecker
  products for four-qubit damping noise, one ``einsum`` with path search,
  ``eigh`` of a 16x16 matrix and many tiny matrix products.  It stands for
  per-call overhead of small complex linear algebra.
- ``bulk``: the batched amplitude ``einsum`` of a Haar-sampling search over
  qutrit states.  It stands for vectorised work on large arrays.
- ``loop``: a Gram-Schmidt completion driven by a Python loop of
  ``np.vdot`` calls, and a JSON parse of a list of number pairs.  It stands
  for interpreter-bound work.

Each workload weighs the parts by the kind of work its timed section does
(see ``WEIGHTS``).  A part's slowdown is its measured time over its time at
the reference speed (``REFERENCE_S``); a workload whose speed follows the
kernel's less than one to one raises the weighted slowdown to a power
below one (``SENSITIVITY``).
"""

from __future__ import annotations

import itertools
import json
import time

import numpy as np

# Seconds per part at the reference speed: medians on the machine described
# in README.md ("Reference figures").  Calibrated figures read as if every
# run had been made at that speed.
REFERENCE_S = {"small": 0.050, "bulk": 0.050, "loop": 0.050}

# Share of each workload's timed section by kind of work.
WEIGHTS = {
    "search-qubit": {"small": 1.0},
    "search-qutrit": {"bulk": 1.0},
    "sweep-default": {"small": 0.5, "loop": 0.5},
    "check-mix": {"bulk": 1.0},
}

# How strongly a workload's time follows its kernel slowdown, where that is
# not one to one: the slope of log run time on log slowdown over 21 runs of
# search-qubit on the reference machine was 0.6-0.7.
SENSITIVITY = {"search-qubit": 0.7}

_RNG = np.random.default_rng(20090905)
_CODE = np.linalg.qr(
    _RNG.standard_normal((16, 2)) + 1j * _RNG.standard_normal((16, 2))
)[0]
_SAMPLES = _RNG.standard_normal((16384, 3)) + 1j * _RNG.standard_normal((16384, 3))
_KRAUS3 = _RNG.standard_normal((192, 3, 3)) + 1j * _RNG.standard_normal((192, 3, 3))
_COLUMNS = np.linalg.qr(
    _RNG.standard_normal((32, 2)) + 1j * _RNG.standard_normal((32, 2))
)[0]
_JSON = json.dumps([[float(x), float(y)] for x, y in _RNG.standard_normal((2048, 2))])


def _small() -> float:
    gamma = 0.2
    e0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    e1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    total = 0.0
    for _ in range(18):
        ops = []
        for combo in itertools.product((e0, e1), repeat=4):
            k = combo[0]
            for factor in combo[1:]:
                k = np.kron(k, factor)
            ops.append(k)
        stack = np.stack(ops)
        p = _CODE @ _CODE.conj().T
        ep = np.einsum("kij,jl,kml->im", stack, p, stack.conj(), optimize=True)
        vals, vecs = np.linalg.eigh(ep)
        keep = vals > 1e-10 * vals[-1]
        b = (vecs[:, keep] / np.sqrt(vals[keep])) @ vecs[:, keep].conj().T
        left = [_CODE.conj().T @ k.conj().T @ b for k in ops]
        right = [k @ _CODE for k in ops]
        for li in left:
            for rj in right[:4]:
                total += float(np.trace(li @ rj).real)
    return total


def _bulk() -> float:
    # A (16384, 192) complex result is 48 MiB: above glibc's largest mmap
    # threshold, so like the samplers' temporaries it is mapped and
    # page-faulted afresh on every call.
    c = _SAMPLES / np.linalg.norm(_SAMPLES, axis=1, keepdims=True)
    amps = np.einsum("na,kab,nb->nk", c.conj(), _KRAUS3, c, optimize=True)
    return float(np.sum(np.abs(amps) ** 2, axis=1).min())


def _loop() -> float:
    n = _COLUMNS.shape[0]
    total = 0.0
    for _ in range(6):
        cols = [_COLUMNS[:, k] for k in range(_COLUMNS.shape[1])]
        for k in range(n):
            w = np.zeros(n, dtype=complex)
            w[k] = 1.0
            for _ in range(2):
                for c in cols:
                    w = w - c * np.vdot(c, w)
            norm = np.linalg.norm(w)
            if norm > 1e-6:
                cols.append(w / norm)
        total += float(np.asarray(json.loads(_JSON)).sum()) + len(cols)
    return total


_PARTS = {"small": _small, "bulk": _bulk, "loop": _loop}


def run_kernel(parts) -> dict[str, float]:
    """Run the given parts once each; return their wall times in seconds."""
    times = {}
    for name in parts:
        start = time.perf_counter()
        _PARTS[name]()
        times[name] = time.perf_counter() - start
    return times


def slowdown(workload: str, times: dict[str, float]) -> float:
    """Machine slowdown against the reference speed, as seen by one
    workload: 1.0 at the reference speed, 1.2 when its kind of work runs
    20% slower."""
    ratio = sum(w * times[p] / REFERENCE_S[p] for p, w in WEIGHTS[workload].items())
    return ratio ** SENSITIVITY.get(workload, 1.0)
