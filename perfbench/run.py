"""Benchmark of aqec: one workload per call, through ``aqec.cli.main``.

Usage, from the repository root::

    python3 perfbench/run.py --workload search-qubit --seed 1 --seconds 15 --trace 0

The workload runs in its own process, with BLAS pinned to one thread and
``AQEC_THREADS=1``.  Rates are reported at the reference machine speed: the
command lines are bracketed by a calibration kernel (``calibrate.py``) and
their times are divided by the kernel's slowdown.  With ``--trace 0`` the
last line of output is a JSON object with the end-to-end metrics
(``points_per_s``, ``setup_s``, ``peak_rss_mb``); with ``--trace 1`` it
holds the per-layer metrics of a traced run.  Outputs are checked after the
timed section (``checks.py``).  Work files go to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "AQEC_THREADS": "1"}
os.environ.update(PINNED)  # before numpy is imported here, for the checks

SETUP_PROBES = 7
WORKER_TIMEOUT_S = 150
# CPU seconds of a bare `import numpy` in a fresh interpreter at the
# reference speed (see README.md); set-up times are scaled by it.
NUMPY_IMPORT_REFERENCE_S = 0.100


def _env() -> dict:
    env = dict(os.environ, **PINNED)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(*args: str, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=_env(), capture_output=True, text=True, timeout=timeout, check=True,
    )


def measure_setup(workload: str, seed: int, out: Path) -> dict:
    """Median CPU cost of `import aqec.cli` plus building the inputs, over
    fresh interpreters, scaled by their `import numpy` against the reference."""
    probes = []
    for i in range(SETUP_PROBES + 1):  # the first one warms the file cache
        proc = _worker("setup", workload, str(seed), str(out / f"probe{i}"), timeout=60)
        probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    probes = probes[1:]
    numpy_s = statistics.median(p["numpy_s"] for p in probes)
    scale = NUMPY_IMPORT_REFERENCE_S / numpy_s
    return {
        "setup_s": statistics.median(p["aqec_s"] + p["inputs_s"] for p in probes) * scale,
        "import_s": statistics.median(p["aqec_s"] for p in probes) * scale,
        "raw_setup_s": statistics.median(p["aqec_s"] + p["inputs_s"] for p in probes),
        "numpy_import_s": numpy_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "aqec" / "cli.py").is_file():
        print(f"error: no aqec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    out = ROOT / ".perfbench-out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    try:
        setup = measure_setup(args.workload, args.seed, out)
        _worker("run", args.workload, str(args.seed), str(args.seconds), str(args.trace),
                str(out), timeout=WORKER_TIMEOUT_S)
    except subprocess.CalledProcessError as exc:
        print(f"error: workload process failed:\n{exc.stderr}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print("error: workload process timed out", file=sys.stderr)
        return 1
    result = json.loads((out / "result.json").read_text())

    import checks

    try:
        errors = checks.check_workload(args.workload, result["inputs"])
    except (OSError, ValueError, KeyError) as exc:  # an output missing or malformed
        errors = [f"outputs unreadable: {type(exc).__name__}: {exc}"]
    if not result["deterministic"]:
        errors.append("outputs differ between rounds of the same inputs")
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    for failure in result["errors"]:
        print(f"operation failed: {failure}", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in result["layers"].items()}
        metrics["aqec.import_s"] = {"value": setup["import_s"], "unit": "s"}
        metrics["raw.points_per_s"] = {"value": result["raw_points_per_s"], "unit": "1/s"}
        metrics["calibration.slowdown"] = {"value": result["slowdown"], "unit": "ratio"}
    else:
        metrics = {
            "points_per_s": {"value": result["points_per_s"], "unit": "1/s"},
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        print(f"raw points_per_s {result['raw_points_per_s']:.4f}, "
              f"slowdown {result['slowdown']:.4f}, raw setup_s {setup['raw_setup_s']:.4f}, "
              f"numpy import {setup['numpy_import_s']:.4f} s, "
              f"rounds {len(result['rounds'])}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name == "trace.layer_share":
        return "fraction"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
