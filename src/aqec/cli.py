"""Command-line interface: gamma sweeps, random code search, condition checks.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.

Curves for `sweep` are given as MODEL:RECOVERY pairs, e.g.::

    aqec sweep --curve ad:identity --curve leung41:transpose \
               --curve leung41:leung --curve five513:rperf --out fig1.csv

MODEL is a registry name (ad, leung41, five513) or file=CODE.json for a
serialized code; RECOVERY is one of transpose, rperf, identity, leung.
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
import concurrent.futures
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .channels import channel_from_json
from .codes import CodeSpace, code_from_json, code_to_json, random_code
from .conditions import aqec_diagnostics
from .exceptions import AqecError
from .fidelity import SAMPLED, WorstCaseResult, _compose_on_code, _worst_cases
from .models import (
    MODEL_REGISTRY,
    _check_gamma,
    _damping_on,
    five_qubit_code_only,
    five_qubit_recovery_grid,
    leung_code,
    leung_recovery,
    qubit_space,
)
from .transpose import code_kraus

RECOVERIES = ("transpose", "rperf", "identity", "leung")


class UserConfigError(Exception):
    """Invalid command-line configuration."""


def gamma_grid(start: float, stop: float, step: float) -> list[float]:
    """The grid start, start + step, ..., stop, each value rounded to 12
    decimals.  Raises UserConfigError for a non-numeric or non-finite
    bound, a non-positive step or an empty grid."""
    try:
        start, stop, step = float(start), float(stop), float(step)
    except (TypeError, ValueError) as exc:
        raise UserConfigError(f"gamma grid values must be numbers: {exc}") from exc
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise UserConfigError(
            f"gamma grid needs finite values, got start {start}, stop {stop}, step {step}"
        )
    if step <= 0:
        raise UserConfigError(f"gamma step must be positive, got {step}")
    count = int(round((stop - start) / step)) + 1
    if count < 1:
        raise UserConfigError(f"empty gamma grid: start {start} lies above stop {stop}")
    return [round(start + k * step, 12) for k in range(count)]


def _check_sampling(samples, seed) -> None:
    if not isinstance(samples, int) or samples < 1:
        raise UserConfigError(f"samples must be a positive integer, got {samples!r}")
    if not isinstance(seed, int) or seed < 0:
        raise UserConfigError(f"seed must be a non-negative integer, got {seed!r}")


@dataclass
class SweepConfig:
    curves: list[str]
    gamma_start: float = 0.0
    gamma_stop: float = 0.5
    gamma_step: float = 0.01
    samples: int = 100_000
    seed: int = 0
    out: str = "sweep.csv"

    def gammas(self) -> list[float]:
        return gamma_grid(self.gamma_start, self.gamma_stop, self.gamma_step)

    def to_json_dict(self) -> dict:
        return {
            "command": "sweep",
            "curves": self.curves,
            "gamma_start": self.gamma_start,
            "gamma_stop": self.gamma_stop,
            "gamma_step": self.gamma_step,
            "samples": self.samples,
            "seed": self.seed,
            "version": __version__,
        }


@dataclass
class SearchConfig:
    n_qubits: int = 4
    code_dim: int = 2
    n_codes: int = 500
    gamma_start: float = 0.0
    gamma_stop: float = 0.5
    gamma_step: float = 0.01
    seed: int = 0
    samples: int = 20_000
    metric: str = "min_f2"  # or "f2_at:<gamma>"
    out: str = "search.csv"
    best_out: str = "best_code.json"

    def gammas(self) -> list[float]:
        return gamma_grid(self.gamma_start, self.gamma_stop, self.gamma_step)

    def to_json_dict(self) -> dict:
        return {
            "command": "search",
            "n_qubits": self.n_qubits,
            "code_dim": self.code_dim,
            "n_codes": self.n_codes,
            "gammas": self.gammas(),
            "seed": self.seed,
            "samples": self.samples,
            "metric": self.metric,
            "version": __version__,
        }


def _parse_curve(spec: str) -> tuple[str, str]:
    parts = spec.rsplit(":", 1)
    if len(parts) != 2:
        raise UserConfigError(f"curve '{spec}' is not MODEL:RECOVERY")
    model, recovery = parts
    if recovery not in RECOVERIES:
        raise UserConfigError(
            f"unknown recovery '{recovery}'; choose from {', '.join(RECOVERIES)}"
        )
    if model not in ("ad", "leung41", "five513") and not model.startswith("file="):
        raise UserConfigError(
            f"unknown model '{model}'; use ad, leung41, five513 or file=CODE.json"
        )
    if recovery == "leung" and model != "leung41":
        raise UserConfigError("the leung recovery applies to the leung41 code only")
    if recovery == "rperf" and model != "five513":
        raise UserConfigError("the rperf recovery is provided for five513 only")
    return model, recovery


def _load_code_file(path: str) -> CodeSpace:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UserConfigError(f"cannot read code file {path}: {exc}") from exc
    # accept best-code files from `search`
    if isinstance(data, dict) and "code" in data:
        data = data["code"]
    return code_from_json(data)


def _curve_code(model: str) -> CodeSpace:
    if model == "ad":
        return qubit_space()
    if model == "leung41":
        return leung_code()
    if model == "five513":
        return five_qubit_code_only()
    return _load_code_file(model[len("file=") :])


def _n_qubits_for(code: CodeSpace) -> int:
    n = int(round(np.log2(code.ambient_dim)))
    if 2**n != code.ambient_dim:
        raise UserConfigError(
            f"code ambient dimension {code.ambient_dim} is not a power of 2"
        )
    return n


def _curve_results(
    recovery_name: str, code: CodeSpace, gammas: list[float], samples: int, seed: int
) -> list[WorstCaseResult]:
    """Worst case of recovery after n-qubit amplitude damping at each gamma.

    The noise enters only as M_i = E_i W, built for the whole grid in one
    call with no ambient operator formed; every curve is one code-basis
    Kraus stack over the grid, scored in one call.
    """
    _n_qubits_for(code)  # exit 2 unless the code lives on qubits
    w = code.basis
    m = _damping_on(gammas, w)
    if recovery_name == "transpose":
        k = code_kraus(m)
    elif recovery_name == "identity":
        k = w.conj().T @ m
    elif recovery_name == "leung":
        for g in gammas:  # the map is gamma independent: built once
            _check_gamma(g, closed=False)
        k = _compose_on_code(w.conj().T @ leung_recovery(gammas[0])._stack, m)
    else:
        k = _compose_on_code(five_qubit_recovery_grid(gammas, code), m)
    return _worst_cases(k, code, samples, seed)


def _csv_float(x: float) -> str:
    return f"{x:.17g}"


def _write_file(path: str, text: str) -> None:
    """Write text to the file path; UserConfigError when it cannot be written."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UserConfigError(f"cannot write {path}: {exc}") from exc


def _write_csv(path: str, config_json: dict, header: list[str], rows: list[list[str]]):
    lines = [f"# generated: {time.strftime('%Y-%m-%dT%H:%M:%S')}"]
    lines.append(f"# config: {json.dumps(config_json, sort_keys=True)}")
    lines.append(",".join(header))
    lines.extend(",".join(row) for row in rows)
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        _write_file(path, text)


def cmd_sweep(config: SweepConfig) -> None:
    curves = [_parse_curve(c) for c in config.curves]
    _check_sampling(config.samples, config.seed)
    gammas = config.gammas()
    rows = []
    for spec, (model, recovery) in sorted(zip(config.curves, curves)):
        code = _curve_code(model)
        results = _curve_results(recovery, code, gammas, config.samples, config.seed)
        for gamma, res in zip(gammas, results):
            rows.append(
                [
                    _csv_float(gamma),
                    spec,
                    _csv_float(res.f2_min),
                    _csv_float(np.sqrt(max(res.f2_min, 0.0))),
                    _csv_float(res.eta),
                    res.method,
                    str(res.samples) if res.method == SAMPLED else "exact",
                    str(config.seed),
                ]
            )
    rows.sort(key=lambda r: (r[1], float(r[0])))
    header = ["gamma", "curve", "f2_worst", "f_worst", "eta", "method",
              "samples_or_exact", "seed"]
    _write_csv(config.out, config.to_json_dict(), header, rows)


def _search_one(args: tuple) -> tuple[int, int, list[tuple[float, float]]]:
    # One code scored as a file=...:transpose sweep curve; codes are never
    # batched together, so a code's values do not depend on its worker.
    index, code_seed, n_qubits, code_dim, gammas, samples = args
    code = random_code(2**n_qubits, code_dim, code_seed)
    results = _curve_results("transpose", code, gammas, samples, code_seed)
    return index, code_seed, [(g, res.f2_min) for g, res in zip(gammas, results)]


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


def _metric_value(target: int | None, values: list[tuple[float, float]]) -> float:
    if target is None:
        return min(v for _, v in values)
    return values[target][1]


def cmd_search(config: SearchConfig) -> None:
    if config.n_codes < 1:
        raise UserConfigError("need at least one code")
    if config.n_qubits not in (2, 3, 4, 5):
        raise UserConfigError("n_qubits must be between 2 and 5")
    if not 1 <= config.code_dim <= 2**config.n_qubits:
        raise UserConfigError(f"code_dim must be between 1 and 2^n_qubits, got {config.code_dim}")
    _check_sampling(config.samples, config.seed)
    gammas = config.gammas()
    target = _metric_target(config.metric, gammas)
    rng = np.random.default_rng(config.seed)
    code_seeds = [int(s) for s in rng.integers(0, 2**63 - 1, size=config.n_codes)]
    jobs = [
        (i, code_seeds[i], config.n_qubits, config.code_dim, gammas, config.samples)
        for i in range(config.n_codes)
    ]
    threads = os.environ.get("AQEC_THREADS", "1")
    try:
        workers = int(threads)
    except ValueError as exc:
        raise UserConfigError(f"AQEC_THREADS must be an integer, got {threads!r}") from exc
    results: list = [None] * config.n_codes
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            for index, seed, values in pool.map(_search_one, jobs, chunksize=4):
                results[index] = (seed, values)
    else:
        for job in jobs:
            index, seed, values = _search_one(job)
            results[index] = (seed, values)

    rows = []
    metrics = []
    for index, (seed, values) in enumerate(results):
        metric = _metric_value(target, values)
        metrics.append(metric)
        worst_gamma = min(values, key=lambda gv: gv[1])[0]
        rows.append(
            [
                str(index),
                str(seed),
                _csv_float(metric),
                _csv_float(worst_gamma),
            ]
        )
    header = ["code_index", "code_seed", "metric_value", "worst_gamma"]
    _write_csv(config.out, config.to_json_dict(), header, rows)

    best_index = int(np.argmax(metrics))
    best_seed, best_values = results[best_index]
    best_code = random_code(2**config.n_qubits, config.code_dim, best_seed)
    payload = {
        "config": config.to_json_dict(),
        "best_index": best_index,
        "code_seed": best_seed,
        "metric_value": metrics[best_index],
        "per_gamma": [{"gamma": g, "f2_worst": v} for g, v in best_values],
        "code": code_to_json(best_code),
    }
    _write_file(config.best_out, json.dumps(payload, indent=1))


def cmd_check(channel_path: str, code_path: str, epsilon: float, out: str | None) -> None:
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise UserConfigError(f"epsilon must be a finite number >= 0, got {epsilon}")
    try:
        with open(channel_path, "r", encoding="utf-8") as fh:
            channel_data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UserConfigError(f"cannot read channel file {channel_path}: {exc}") from exc
    channel = channel_from_json(channel_data)
    code = _load_code_file(code_path)
    diag = aqec_diagnostics(channel, code, epsilon)
    payload = diag.to_json_dict()
    payload["epsilon_f_epsilon_d"] = epsilon * diag.f_epsilon_d
    text = json.dumps(payload, indent=1)
    if out:
        _write_file(out, text + "\n")
    print(text)


def cmd_models() -> None:
    width = max(len(name) for name in MODEL_REGISTRY)
    for name, desc in MODEL_REGISTRY.items():
        print(f"{name:<{width}}  {desc}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aqec",
        description="Transpose-channel recovery and approximate QEC experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="worst-case fidelity vs gamma, CSV output")
    sweep.add_argument(
        "--curve",
        dest="curves",
        action="append",
        default=None,
        help="MODEL:RECOVERY, repeatable (default: the standard comparison set)",
    )
    sweep.add_argument("--gamma-start", type=float, default=0.0)
    sweep.add_argument("--gamma-stop", type=float, default=0.5)
    sweep.add_argument("--gamma-step", type=float, default=0.01)
    sweep.add_argument("--samples", type=int, default=100_000)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--out", default="sweep.csv")
    sweep.add_argument("--config", help="JSON file overriding the flags above")

    search = sub.add_parser("search", help="evaluate Haar-random codes, CSV + best JSON")
    search.add_argument("--qubits", type=int, default=4)
    search.add_argument("--code-dim", type=int, default=2)
    search.add_argument("--codes", type=int, default=500)
    search.add_argument("--gamma-start", type=float, default=0.0)
    search.add_argument("--gamma-stop", type=float, default=0.5)
    search.add_argument("--gamma-step", type=float, default=0.01)
    search.add_argument("--samples", type=int, default=20_000)
    search.add_argument("--seed", type=int, default=0)
    search.add_argument("--metric", default="min_f2",
                        help="min_f2 (default) or f2_at:<gamma>, gamma a grid point")
    search.add_argument("--out", default="search.csv")
    search.add_argument("--best-out", default="best_code.json")
    search.add_argument("--config", help="JSON file overriding the flags above")

    check = sub.add_parser("check", help="correctability diagnostics for a pair")
    check.add_argument("channel", help="channel JSON file")
    check.add_argument("code", help="code JSON file")
    check.add_argument("--epsilon", type=float, required=True)
    check.add_argument("--out", default=None)

    sub.add_parser("models", help="list built-in models")
    return parser


DEFAULT_CURVES = [
    "ad:identity",
    "leung41:transpose",
    "leung41:leung",
    "five513:rperf",
]


def _apply_config_file(args: argparse.Namespace) -> None:
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                overrides = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UserConfigError(f"cannot read config {args.config}: {exc}") from exc
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            _apply_config_file(args)
            config = SweepConfig(
                curves=args.curves or list(DEFAULT_CURVES),
                gamma_start=args.gamma_start,
                gamma_stop=args.gamma_stop,
                gamma_step=args.gamma_step,
                samples=args.samples,
                seed=args.seed,
                out=args.out,
            )
            cmd_sweep(config)
        elif args.command == "search":
            _apply_config_file(args)
            config = SearchConfig(
                n_qubits=args.qubits,
                code_dim=args.code_dim,
                n_codes=args.codes,
                gamma_start=args.gamma_start,
                gamma_stop=args.gamma_stop,
                gamma_step=args.gamma_step,
                samples=args.samples,
                seed=args.seed,
                metric=args.metric,
                out=args.out,
                best_out=args.best_out,
            )
            cmd_search(config)
        elif args.command == "check":
            cmd_check(args.channel, args.code, args.epsilon, args.out)
        elif args.command == "models":
            cmd_models()
    except UserConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AqecError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
