"""Workload process of the benchmark; ``run.py`` starts it.

``worker.py setup WORKLOAD SEED OUT`` is one fresh-interpreter set-up probe:
it prints the CPU seconds of ``import numpy`` (the reference), of
``import aqec.cli`` and of building the workload's inputs.

``worker.py run WORKLOAD SEED SECONDS TRACE OUT`` imports aqec, builds the
inputs, runs one warm-up round, then runs whole rounds of the workload
through ``aqec.cli.main`` until SECONDS have passed.  The calibration
kernel runs after every stretch of command lines that lasts SEGMENT_S (and
at the end of each round), so each command line is bracketed by two
kernel runs.  With TRACE = 1, odd rounds run with the layers traced and even
rounds untraced, which gives the tracing overhead.  The result goes to
OUT/result.json, the spans of traced rounds to OUT/spans.jsonl.

Both expect BLAS pinned to one thread and ``src`` on PYTHONPATH, which
``run.py`` sets.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path


# Shortest stretch of command lines the calibration kernel brackets.
SEGMENT_S = 0.4


def setup_probe(workload: str, seed: int, out: Path) -> None:
    t0 = time.process_time()
    import numpy  # noqa: F401

    t1 = time.process_time()
    import aqec.cli  # noqa: F401

    t2 = time.process_time()
    import workloads

    workloads.build(workload, seed, out)
    t3 = time.process_time()
    print(json.dumps({"numpy_s": t1 - t0, "aqec_s": t2 - t1, "inputs_s": t3 - t2}))


def _run_op(main, op) -> tuple[bool, str]:
    """Run one command line in process; True when it ends as expected."""
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(op.argv)
    except Exception as exc:  # a traceback is a failed operation, not a crash
        return False, f"{type(exc).__name__}: {exc}"
    if code != op.expect_exit:
        return False, f"exit {code}, expected {op.expect_exit}"
    if code != 0 and len(stderr.getvalue().splitlines()) != 1:
        return False, f"exit {code} without exactly one line of explanation"
    return True, ""


def _digest(paths: list[str]) -> str:
    """Hash of the outputs, minus the timestamp line of CSV files."""
    h = hashlib.sha256()
    for path in paths:
        for line in Path(path).read_text().splitlines():
            if not line.startswith("# generated:"):
                h.update(line.encode())
    return h.hexdigest()


def run(workload: str, seed: int, seconds: float, trace: bool, out: Path) -> None:
    import aqec.cli

    import calibrate
    import workloads
    from layers import LAYER_NAMES, Tracer

    wl = workloads.build(workload, seed, out)
    outputs = [p for op in wl.ops for p in op.outputs]
    tracer = Tracer()

    def kernel() -> tuple[dict, float]:
        times = calibrate.run_kernel(calibrate.WEIGHTS[workload])
        return times, calibrate.slowdown(workload, times)

    for op in wl.ops:  # warm-up: lazy imports, caches, file system
        _run_op(aqec.cli.main, op)
    # Every round repeats the warm-up's work, so its high-water mark is the
    # program's; read it before the calibration kernel adds its own arrays.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first_kernel, slow_before = kernel()
    rounds = []
    digests = set()
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        ops, pending = [], []
        for index, op in enumerate(wl.ops):
            first_span = len(tracer.spans)
            counts_before = tracer.counts.copy()
            start = time.perf_counter()
            ok, error = _run_op(aqec.cli.main, op)
            elapsed = time.perf_counter() - start
            record = {"elapsed_s": elapsed, "ok": ok, "error": error}
            if traced:
                self_s, calls = tracer.self_times(first_span, len(tracer.spans))
                record.update(self_s=self_s, calls=dict(calls),
                              counts=dict(tracer.counts - counts_before))
            ops.append(record)
            pending.append(record)
            # The kernel runs once a segment of command lines has lasted
            # SEGMENT_S, and at the end of the round; every command line of
            # the segment gets the mean slowdown of the kernels around it.
            if (sum(r["elapsed_s"] for r in pending) >= SEGMENT_S
                    or index == len(wl.ops) - 1):
                times, slow_after = kernel()
                for r in pending:
                    r["slowdown"] = (slow_before + slow_after) / 2
                pending[-1]["kernel"] = times
                pending, slow_before = [], slow_after
        if traced:
            tracer.uninstall()
        digests.add(_digest(outputs))
        rounds.append({"traced": traced, "ops": ops})
        if time.perf_counter() >= deadline and (not trace or len(rounds) >= 2):
            break

    def rate(records, calibrated=True) -> float:
        """Points over the sum, across the round's command lines, of each
        one's median time (divided by the slowdown when calibrated)."""
        points = sum(op.points for i, op in enumerate(wl.ops)
                     if all(r["ops"][i]["ok"] for r in records))
        return points / sum(
            statistics.median(r["ops"][i]["elapsed_s"]
                              / (r["ops"][i]["slowdown"] if calibrated else 1.0)
                              for r in records)
            for i in range(len(wl.ops)))

    plain = [r for r in rounds if not r["traced"]]
    all_ops = [o for r in rounds for o in r["ops"]]
    result = {
        "workload": workload,
        "seed": seed,
        "first_kernel": first_kernel,
        "rounds": rounds,
        "attempted": len(all_ops),
        "failed": sum(not o["ok"] for o in all_ops),
        "errors": sorted({o["error"] for o in all_ops if not o["ok"]}),
        "deterministic": len(digests) == 1,
        "points_per_s": rate(plain),
        "raw_points_per_s": rate(plain, calibrated=False),
        "slowdown": statistics.median(o["slowdown"] for o in all_ops),
        "peak_rss_mb": peak_rss_mb,
        "inputs": wl.inputs,
    }
    traced_ops = [o for r in rounds if r["traced"] for o in r["ops"]]
    if traced_ops:
        n_ops = len(traced_ops)
        points = sum(op.points for r in rounds if r["traced"]
                     for op, o in zip(wl.ops, r["ops"]) if o["ok"])
        layers = {}
        for name in LAYER_NAMES:
            layers[f"{name}.self_s"] = sum(
                o["self_s"][name] / o["slowdown"] for o in traced_ops) / n_ops
            layers[f"{name}.calls"] = sum(o["calls"][name] for o in traced_ops) / n_ops
        samples = sum(o["counts"].get("fidelity.samples", 0) for o in traced_ops)
        layers["fidelity.samples"] = samples / n_ops
        kraus_ops = sum(o["counts"].get("channels.kraus_ops", 0) for o in traced_ops)
        layers["channels.kraus_ops"] = kraus_ops / points
        main_self = sum(o["self_s"]["cli.main"] for o in traced_ops)
        layers["trace.layer_share"] = 1.0 - main_self / sum(o["elapsed_s"] for o in traced_ops)
        traced_rate = rate([r for r in rounds if r["traced"]])
        layers["trace.overhead_pct"] = 100.0 * (1.0 - traced_rate / result["points_per_s"])
        result["layers"] = layers
        with open(out / "spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    (out / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        setup_probe(sys.argv[2], int(sys.argv[3]), Path(sys.argv[4]))
    elif mode == "run":
        run(sys.argv[2], int(sys.argv[3]), float(sys.argv[4]), sys.argv[5] == "1",
            Path(sys.argv[6]))
    else:
        sys.exit(f"unknown mode {mode!r}")
