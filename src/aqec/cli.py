"""Command-line interface: gamma sweeps, random code search, condition checks.

Exit codes: 0 success, 2 configuration error, 3 numerical failure or
running out of memory.

Curves for `sweep` are given as MODEL:RECOVERY pairs, e.g.::

    aqec sweep --curve ad:identity --curve leung41:transpose \
               --curve leung41:leung --curve five513:rperf --out fig1.csv

MODEL is a name in MODELS (ad, leung41, five513) or file=CODE.json for a
serialized code; RECOVERY is a name in RECOVERIES (transpose, rperf, identity, leung).
Output CSV embeds the full configuration as a JSON comment line, so runs
are reproducible byte for byte apart from the timestamp line.

Plotting stays out of process: feed the CSV to any tool, e.g.::

    import pandas as pd, matplotlib.pyplot as plt
    df = pd.read_csv("fig1.csv", comment="#")
    for name, grp in df.groupby("curve"):
        plt.plot(grp.gamma, grp.f2_worst, label=name)
    plt.xlabel("gamma"); plt.ylabel("worst-case F^2"); plt.legend()
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .channels import KRAUS_ENTRY_BUDGET, channel_from_json
from .codes import CodeSpace, code_from_json, code_to_json, random_code
from .conditions import _standard_recovery_on, aqec_diagnostics
from .exceptions import AqecError, BudgetExceeded
from .fidelity import DEFAULT_SAMPLES, SAMPLED, WorstCaseResult, _min_forms, _recovered_maps
from .models import (
    _damping_on,
    _five_qubit_noise_on,
    five_qubit_code_only,
    leung_code,
    leung_recovery,
    qubit_space,
)

# What sweep takes: each model's code and description, and each recovery's one model
# (None: any) and Kraus operators per noise operator (None: one per noise operator)
MODELS = {
    "ad": (qubit_space, "single-qubit amplitude damping channel (parameter gamma)"),
    "leung41": (leung_code, "four-qubit amplitude-damping code [4,1]"),
    "five513": (five_qubit_code_only,
                "five-qubit distance-3 code [[5,1,3]] with its single-error channel"),
}
RECOVERIES = {"transpose": (None, None), "rperf": ("five513", 6), "identity": (None, 1),
              "leung": ("leung41", 9)}
DEFAULT_CURVES = ["ad:identity", "leung41:transpose", "leung41:leung", "five513:rperf"]
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_COUNT = 2**21  # most gamma points, most codes and most samples one run takes


class UserConfigError(Exception):
    """Invalid command-line configuration."""


def gamma_grid(start: float, stop: float, step: float) -> list[float]:
    """The grid start, start + step, ..., each value rounded to 12 decimals,
    up to the last point that, so rounded, does not exceed stop; stop itself
    is a point when the span is a whole number of steps.  Raises
    UserConfigError for a non-numeric or non-finite bound, a non-positive
    step, a step too small for a finite point count, an empty grid, a grid
    of two or more points whose step is below the 1e-12 rounding (its
    points would repeat) or one of more than MAX_COUNT points."""
    start, step, count = _grid_size(start, stop, step)
    return [round(start + k * step, 12) for k in range(count)]


def _grid_size(start, stop, step) -> tuple[float, float, int]:
    """gamma_grid's checks; its start and step as floats and its point count."""
    try:
        start, stop, step = float(start), float(stop), float(step)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UserConfigError(f"gamma grid values must be numbers: {exc}") from exc
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise UserConfigError(
            f"gamma grid needs finite values, got start {start}, stop {stop}, step {step}"
        )
    if step <= 0:
        raise UserConfigError(f"gamma step must be positive, got {step}")
    steps = (stop - start) / step
    if not math.isfinite(steps):
        raise UserConfigError(f"gamma grid from {start} to {stop} in steps of {step} "
                              "has no finite number of points")
    count = int(round(steps)) + 1
    if count >= 1 and round(start + (count - 1) * step, 12) > stop:
        count -= 1  # the span rounded up to whole steps
    if count < 1:
        raise UserConfigError(f"empty gamma grid: start {start} lies above stop {stop}")
    if count > 1 and step < 1e-12:
        raise UserConfigError(f"gamma step {step} is below 1e-12, the grid's rounding, "
                              "so its points would repeat")
    if count > MAX_COUNT:
        raise UserConfigError(f"gamma grid of {count} points is over the limit of {MAX_COUNT}")
    return start, step, count


def _check_sampling(samples, seed) -> None:
    if not isinstance(samples, int) or not 1 <= samples <= MAX_COUNT:
        raise UserConfigError(f"samples must be an integer from 1 to {MAX_COUNT}, got {samples!r}")
    if not isinstance(seed, int) or seed < 0:
        raise UserConfigError(f"seed must be a non-negative integer, got {seed!r}")


def _parse_curve(spec: str) -> tuple[str, str]:
    parts = spec.rsplit(":", 1)
    if len(parts) != 2:
        raise UserConfigError(f"curve '{spec}' is not MODEL:RECOVERY")
    model, recovery = parts
    if recovery not in RECOVERIES:
        raise UserConfigError(
            f"unknown recovery '{recovery}'; choose from {', '.join(RECOVERIES)}"
        )
    if model not in MODELS and not model.startswith("file="):
        raise UserConfigError(
            f"unknown model '{model}'; use {', '.join(MODELS)} or file=CODE.json"
        )
    if RECOVERIES[recovery][0] not in (None, model):
        raise UserConfigError(f"the {recovery} recovery applies to {RECOVERIES[recovery][0]} only")
    return model, recovery


def _read_json(path: str, what: str):
    """The JSON value in the file path; UserConfigError naming it as what
    (code file, channel file, config) when it cannot be read or parsed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UserConfigError(f"cannot read {what} {path}: {exc}") from exc


def _load_code_file(path: str) -> CodeSpace:
    data = _read_json(path, "code file")
    # accept best-code files from `search`
    if isinstance(data, dict) and "code" in data:
        data = data["code"]
    return code_from_json(data)


def _n_qubits_for(code: CodeSpace) -> int:
    n = int(round(np.log2(code.ambient_dim)))
    if n < 1 or 2**n != code.ambient_dim:
        raise UserConfigError(
            f"code ambient dimension {code.ambient_dim} is not 2^n for n >= 1 qubits"
        )
    return n


def _recovered_on_code(name: str, code: CodeSpace, m: np.ndarray, gammas: list) -> np.ndarray:
    """The process matrices (G, d^2, d^2) of a recovery after the noise on
    the code m (G, N, D, d) over the grid, from fidelity._recovered_maps:
    identity is no recovery, transpose the transpose channel, leung the
    gamma independent map built once at the largest gamma (which holds the
    grid to [0, 1)), and rperf the six syndrome operators of
    conditions._standard_recovery_on of the single-error channel.  rperf's
    TP completion, rho -> tr(F rho) I/d with F = sum_i M_i^dag M_i -
    sum_x K_x^dag K_x, adds tr(F g_b)/d to row 0 alone, making it the
    noise's trace row tr(g_b sum_i M_i^dag M_i)/d: e0, as damping is trace
    preserving, so no completion operator is formed."""
    w = code.basis
    if name == "leung":
        recovery = w.conj().T @ leung_recovery(max(gammas)).kraus
    elif name == "rperf":
        recovery = _standard_recovery_on(_five_qubit_noise_on(gammas, w))
    else:
        recovery = None if name == "identity" else "transpose"
    maps = _recovered_maps(m, w, recovery)
    if name == "rperf":
        maps[:, 0] = np.eye(maps.shape[-1])[0]
    return maps


def _check_pass_budget(dim: int, d: int, recovery: str, g: int) -> None:
    """BudgetExceeded when one curve of a scoring pass over g gammas on a
    d-dimensional code in dimension dim would hold more than KRAUS_ENTRY_BUDGET
    complex entries at once: the noise on the code (G N D d, N = D damping
    operators), with either the damping coefficients it is built from (G N D)
    or its code-basis Kraus stack and that stack's flat copy (G X d^2 each,
    X = R N, R = RECOVERIES[recovery][1] or N), whichever is larger, and the
    Gram, superoperator and process stacks (G d^4 each)."""
    x = (RECOVERIES[recovery][1] or dim) * dim
    entries = g * (dim * dim * d + max(dim * dim, 2 * x * d * d) + 3 * d**4)
    if entries > KRAUS_ENTRY_BUDGET:
        raise BudgetExceeded(
            f"the {recovery} curve on a {d}-dimensional code in dimension {dim} over {g} gammas "
            f"needs {entries} complex entries; budget is {KRAUS_ENTRY_BUDGET}"
        )


def _score_curves(
    curves: list[tuple[CodeSpace, str]], gammas: list[float], samples: int, seed: int
) -> list[list[WorstCaseResult]]:
    """Worst cases of each (code, recovery) curve after n-qubit amplitude
    damping at each gamma, one result list per curve, in one scoring pass.

    Each code's noise enters only as M_i = E_i W, built for the whole grid
    in one call with no ambient operator formed, once for every curve on
    that code object, and dropped after its last curve.  Each curve's
    code-basis Kraus stack becomes its process matrices inside
    _recovered_on_code, so one stack is alive at a time, and the maps of
    all curves of one code dimension are minimised in one _min_forms call,
    each curve's worst states taken in its own code.  Sizes are not checked
    here: sweep and search hold each curve to _check_pass_budget up front.
    """
    last = {code: i for i, (code, _) in enumerate(curves)}
    noise: dict[CodeSpace, np.ndarray] = {}
    maps = []
    for i, (code, recovery) in enumerate(curves):
        if code not in noise:
            noise[code] = _damping_on(gammas, code.basis)
        maps.append(_recovered_on_code(recovery, code, noise[code], gammas))
        if last[code] == i:
            del noise[code]
    results: list = [None] * len(curves)
    for d in dict.fromkeys(code.code_dim for code, _ in curves):
        group = [i for i, (code, _) in enumerate(curves) if code.code_dim == d]
        found = _min_forms([(maps[i], curves[i][0]) for i in group], samples, seed)
        for i, res in zip(group, found):
            results[i] = res
    return results


def _csv_float(x: float) -> str:
    return f"{x:.17g}"


def _write_file(path: str, text: str) -> None:
    """Write text to the file path, or to standard output when path is
    '-'; UserConfigError when it cannot be written."""
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UserConfigError(f"cannot write {path}: {exc}") from exc


def _json_text(payload: dict) -> str:
    """payload as a JSON object with one top-level key per line, each value
    compact on its line, and a final newline.  Encoding the values without
    indent lets json use its C encoder."""
    body = ",\n".join(f" {json.dumps(key)}: {json.dumps(value)}" for key, value in payload.items())
    return "{\n" + body + "\n}\n"


def _check_writable(path: str) -> None:
    """Raise UserConfigError unless the file path could be written: its
    directory exists and is writable, and the path is not a directory nor
    an existing read-only file ('-', standard output, always can).  Nothing
    is opened, so a run fails before it scores anything and a successful
    run writes its outputs once."""
    if path == "-":
        return
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        problem = "it is a directory"
    elif not os.path.isdir(folder):
        problem = f"directory {folder} does not exist"
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        problem = "permission denied"
    else:
        return
    raise UserConfigError(f"cannot write {path}: {problem}")


def _write_csv(path: str, config_json: dict, header: list[str], rows: list[list[str]]):
    lines = [f"# generated: {time.strftime('%Y-%m-%dT%H:%M:%S')}"]
    lines.append(f"# config: {json.dumps(config_json, sort_keys=True)}")
    lines.append(",".join(header))
    lines.extend(",".join(row) for row in rows)
    _write_file(path, "\n".join(lines) + "\n")


def cmd_sweep(args: argparse.Namespace) -> None:
    if args.curves == []:
        raise UserConfigError("curves is empty; name at least one MODEL:RECOVERY")
    specs = args.curves or list(DEFAULT_CURVES)
    curves = [_parse_curve(c) for c in specs]
    _check_sampling(args.samples, args.seed)
    _check_writable(args.out)
    count = _grid_size(args.gamma_start, args.gamma_stop, args.gamma_step)[2]
    ordered = sorted(zip(specs, curves))
    codes: dict[str, CodeSpace] = {}
    for _, (model, _) in ordered:
        if model not in codes:
            codes[model] = (MODELS[model][0]() if model in MODELS
                            else _load_code_file(model[len("file=") :]))
    pass_curves = [(codes[model], recovery) for _, (model, recovery) in ordered]
    for code, recovery in pass_curves:
        _n_qubits_for(code)  # exit 2 unless the code lives on qubits
        _check_pass_budget(code.ambient_dim, code.code_dim, recovery, count)
    gammas = gamma_grid(args.gamma_start, args.gamma_stop, args.gamma_step)
    scored = _score_curves(pass_curves, gammas, args.samples, args.seed)
    rows = []
    for (spec, _), results in zip(ordered, scored):
        for gamma, res in zip(gammas, results):
            samples = str(res.samples) if res.method == SAMPLED else "exact"
            rows.append([_csv_float(gamma), spec, _csv_float(res.f2_min),
                         _csv_float(np.sqrt(max(res.f2_min, 0.0))), _csv_float(res.eta),
                         res.method, samples, str(args.seed)])
    rows.sort(key=lambda r: (r[1], float(r[0])))
    header = ["gamma", "curve", "f2_worst", "f_worst", "eta", "method",
              "samples_or_exact", "seed"]
    config = {"command": "sweep", "curves": specs, "gamma_start": args.gamma_start,
              "gamma_stop": args.gamma_stop, "gamma_step": args.gamma_step,
              "samples": args.samples, "seed": args.seed, "version": __version__}
    _write_csv(args.out, config, header, rows)


def _search_one(args: tuple) -> list[float]:
    # One code's worst-case F^2 per gamma, scored as a file=...:transpose
    # sweep curve; codes are never batched together, so a code's values do
    # not depend on its worker.
    code_seed, n_qubits, code_dim, gammas, samples = args
    code = random_code(2**n_qubits, code_dim, code_seed)
    [results] = _score_curves([(code, "transpose")], gammas, samples, code_seed)
    return [res.f2_min for res in results]


def _metric_target(metric: str, gammas: list[float]) -> int | None:
    """The grid index of an f2_at:<gamma> metric, None for min_f2.  Raises
    UserConfigError for any other metric, a non-finite gamma or a gamma
    that, rounded to 12 decimals as the grid is, is not a grid point."""
    if metric == "min_f2":
        return None
    head, _, value = metric.partition(":")
    try:
        target = float(value) if head == "f2_at" else math.nan
    except ValueError:
        target = math.nan
    if not math.isfinite(target):
        raise UserConfigError(
            f"unknown metric '{metric}'; use min_f2 or f2_at:<finite gamma>"
        )
    if round(target, 12) not in gammas:
        raise UserConfigError(f"metric '{metric}' names no point of the gamma grid")
    return gammas.index(round(target, 12))


@functools.lru_cache(maxsize=None)
def _keep_freed_memory() -> None:
    """Fix glibc's mmap and trim thresholds at 32 and 64 MiB, the 64-bit tops
    of its dynamic rule, once per process: search then keeps its 0.2-0.8 MB
    kernel stacks instead of faulting them back in for every code.  Trim
    alone would freeze mmap at 128 KiB.  A no-op without mallopt."""
    import ctypes

    try:
        libc = ctypes.CDLL(None)
        libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    except (OSError, AttributeError, TypeError):
        pass


@contextlib.contextmanager
def _worker_pool(workers: int):
    """A process pool of at most workers processes, and never more than
    the CPUs this process may run on, started by spawn, each with main's
    malloc thresholds and one BLAS thread: OPENBLAS_NUM_THREADS,
    OMP_NUM_THREADS and MKL_NUM_THREADS read "1" while the pool runs and
    are restored after it.  Forked workers would inherit the parent's BLAS
    threads and oversubscribe the cores.  concurrent.futures (and logging)
    and multiprocessing are imported here, so a serial run never loads them."""
    import concurrent.futures
    import multiprocessing

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    saved = {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))
    try:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(workers, cpus or 1), mp_context=multiprocessing.get_context("spawn"),
            initializer=_keep_freed_memory,
        ) as pool:
            yield pool
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def cmd_search(args: argparse.Namespace) -> None:
    if not 1 <= args.codes <= MAX_COUNT:
        raise UserConfigError(f"codes must be between 1 and {MAX_COUNT}, got {args.codes}")
    if args.qubits not in (2, 3, 4, 5):
        raise UserConfigError("n_qubits must be between 2 and 5")
    if not 1 <= args.code_dim <= 2**args.qubits:
        raise UserConfigError(f"code_dim must be between 1 and 2^n_qubits, got {args.code_dim}")
    _check_sampling(args.samples, args.seed)
    count = _grid_size(args.gamma_start, args.gamma_stop, args.gamma_step)[2]
    _check_pass_budget(2**args.qubits, args.code_dim, "transpose", count)
    gammas = gamma_grid(args.gamma_start, args.gamma_stop, args.gamma_step)
    target = _metric_target(args.metric, gammas)
    if args.out == args.best_out == "-":
        raise UserConfigError("--out and --best-out cannot both be '-' (standard output)")
    _check_writable(args.out)
    _check_writable(args.best_out)
    rng = np.random.default_rng(args.seed)
    code_seeds = [int(s) for s in rng.integers(0, 2**63 - 1, size=args.codes)]
    jobs = [(seed, args.qubits, args.code_dim, gammas, args.samples) for seed in code_seeds]
    threads = os.environ.get("AQEC_THREADS", "1")
    try:
        workers = int(threads)
    except ValueError:
        workers = 0
    if workers < 1:
        raise UserConfigError(f"AQEC_THREADS must be a positive integer, got {threads!r}")
    with _worker_pool(workers) if workers > 1 else contextlib.nullcontext() as pool:
        columns = list(pool.map(_search_one, jobs, chunksize=4) if pool else map(_search_one, jobs))

    metrics = [min(v) if target is None else v[target] for v in columns]
    rows = [[str(index), str(seed), _csv_float(metric), _csv_float(gammas[int(np.argmin(v))])]
            for index, (seed, metric, v) in enumerate(zip(code_seeds, metrics, columns))]
    header = ["code_index", "code_seed", "metric_value", "worst_gamma"]
    config = {"command": "search", "n_qubits": args.qubits, "code_dim": args.code_dim,
              "n_codes": args.codes, "gammas": gammas, "seed": args.seed,
              "samples": args.samples, "metric": args.metric, "version": __version__}
    _write_csv(args.out, config, header, rows)

    best_index = int(np.argmax(metrics))
    best_seed = code_seeds[best_index]
    best_code = random_code(2**args.qubits, args.code_dim, best_seed)
    payload = {
        "config": config,
        "best_index": best_index,
        "code_seed": best_seed,
        "metric_value": metrics[best_index],
        "per_gamma": [{"gamma": g, "f2_worst": v} for g, v in zip(gammas, columns[best_index])],
        "code": code_to_json(best_code),
    }
    _write_file(args.best_out, _json_text(payload))


def cmd_check(args: argparse.Namespace) -> None:
    epsilon, out = args.epsilon, args.out
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise UserConfigError(f"epsilon must be a finite number >= 0, got {epsilon}")
    if out:
        _check_writable(out)
    channel = channel_from_json(_read_json(args.channel, "channel file"))
    code = _load_code_file(args.code)
    text = _json_text(aqec_diagnostics(channel, code, epsilon).to_json_dict())
    if out and out != "-":  # '-' is standard output, which always gets the JSON
        _write_file(out, text)
    sys.stdout.write(text)


def cmd_models(args: argparse.Namespace) -> None:
    width = max(len(name) for name in MODELS)
    for name, (_, desc) in MODELS.items():
        print(f"{name:<{width}}  {desc}")


COMMANDS = {"sweep": cmd_sweep, "search": cmd_search, "check": cmd_check, "models": cmd_models}


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: a parse does not
    change it (each fills a fresh namespace, and --curve's default stays
    None).  sweep and search declare their shared flags once, in one
    parent parser."""
    parser = argparse.ArgumentParser(
        prog="aqec",
        description="Transpose-channel recovery and approximate QEC experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--gamma-start", type=float, default=0.0)
    shared.add_argument("--gamma-stop", type=float, default=0.5)
    shared.add_argument("--gamma-step", type=float, default=0.01)
    shared.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    shared.add_argument("--seed", type=int, default=0)
    shared.add_argument("--config", help="JSON file overriding any flag of this command")

    sweep = sub.add_parser("sweep", parents=[shared],
                           help="worst-case fidelity vs gamma, CSV output")
    sweep.add_argument(
        "--curve",
        dest="curves",
        action="append",
        default=None,
        help="MODEL:RECOVERY, repeatable (default: the standard comparison set)",
    )
    sweep.add_argument("--out", default="sweep.csv", help="CSV path, - for standard output")

    search = sub.add_parser("search", parents=[shared],
                            help="evaluate Haar-random codes, CSV + best JSON")
    search.add_argument("--qubits", type=int, default=4)
    search.add_argument("--code-dim", type=int, default=2)
    search.add_argument("--codes", type=int, default=500)
    search.add_argument("--metric", default="min_f2",
                        help="min_f2 (default) or f2_at:<gamma>, gamma a grid point")
    search.add_argument("--out", default="search.csv", help="CSV path, - for standard output")
    search.add_argument("--best-out", default="best_code.json",
                        help="best-code JSON path, - for standard output")

    check = sub.add_parser("check", help="correctability diagnostics for a pair")
    check.add_argument("channel", help="channel JSON file")
    check.add_argument("code", help="code JSON file")
    check.add_argument("--epsilon", type=float, required=True)
    check.add_argument("--out", default=None,
                       help="also write the JSON here (- is standard output, printed once)")

    sub.add_parser("models", help="list the models sweep takes")
    return parser


def _apply_config_file(args: argparse.Namespace) -> None:
    if getattr(args, "config", None):
        overrides = _read_json(args.config, "config")
        if not isinstance(overrides, dict):
            raise UserConfigError(f"config {args.config} is not a JSON object")
        known = set(vars(args)) - {"command", "config"}
        for key, value in overrides.items():
            name = key.replace("-", "_")
            if name not in known:
                raise UserConfigError(
                    f"unknown key '{key}' in config {args.config}; "
                    f"known keys: {', '.join(sorted(known))}"
                )
            _check_config_type(key, value, getattr(args, name))
            setattr(args, name, value)


def _check_config_type(key: str, value, current) -> None:
    """Raise UserConfigError unless value has the type of the flag's parsed
    value current: an integer for int flags, a number for float flags, a
    string for str flags and a list of strings for --curve (None unset)."""
    if isinstance(current, float):
        ok, want = isinstance(value, (int, float)), "a number"
    elif isinstance(current, int):
        ok, want = isinstance(value, int), "an integer"
    elif isinstance(current, str):
        ok, want = isinstance(value, str), "a string"
    else:
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
        want = "a list of strings"
    if not ok or isinstance(value, bool):
        raise UserConfigError(f"config key '{key}' must be {want}, got {value!r}")


def main(argv=None) -> int:
    _keep_freed_memory()
    args = _build_parser().parse_args(argv)
    try:
        _apply_config_file(args)
        COMMANDS[args.command](args)
    except UserConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AqecError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"numerical failure: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
