import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from aqec import (
    __version__,
    amplitude_damping,
    channel_to_json,
    code_to_json,
    random_code,
    tensor_power,
)
from aqec.cli import _keep_freed_memory, main

from helpers import bit_flip_channel, bit_flip_code, completed_on_code, polar_r_perf


def _read_rows(path):
    lines = path.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    rows = [l for l in lines if not l.startswith("#")]
    return comments, rows


def test_models_listing(capsys):
    assert main(["models"]) == 0
    out = capsys.readouterr().out
    for name in ("ad", "leung41", "five513"):
        assert name in out
    # every listed model is one sweep takes
    for name in [line.split()[0] for line in out.splitlines()]:
        assert main(["sweep", "--curve", f"{name}:identity", "--gamma-stop", "0.02",
                     "--out", "-"]) == 0


def test_sweep_baseline_and_orderings(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--curve", "ad:identity",
            "--curve", "leung41:transpose",
            "--curve", "leung41:leung",
            "--gamma-stop", "0.2",
            "--gamma-step", "0.05",
            "--out", str(out),
        ]
    )
    assert code == 0
    comments, rows = _read_rows(out)
    assert any(l.startswith("# config:") for l in comments)
    header = rows[0].split(",")
    assert header == [
        "gamma", "curve", "f2_worst", "f_worst", "eta", "method",
        "samples_or_exact", "seed",
    ]
    table = {}
    for line in rows[1:]:
        parts = line.split(",")
        table[(parts[1], float(parts[0]))] = float(parts[2])
    gammas = [0.0, 0.05, 0.1, 0.15, 0.2]
    for g in gammas:
        assert abs(table[("ad:identity", g)] - (1 - g)) < 1e-9
        assert table[("leung41:transpose", g)] >= table[("leung41:leung", g)] - 1e-12
    # rows sorted by (curve, gamma)
    keys = [(l.split(",")[1], float(l.split(",")[0])) for l in rows[1:]]
    assert keys == sorted(keys)
    # error-corrected curves are exact 1 at gamma 0
    assert abs(table[("leung41:transpose", 0.0)] - 1.0) < 1e-9
    assert abs(table[("leung41:leung", 0.0)] - 1.0) < 1e-9


def test_sweep_deterministic_apart_from_timestamp(tmp_path):
    args = [
        "sweep", "--curve", "ad:identity",
        "--gamma-stop", "0.1", "--gamma-step", "0.05",
    ]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    lines1 = [l for l in out1.read_text().splitlines() if not l.startswith("# generated")]
    lines2 = [l for l in out2.read_text().splitlines() if not l.startswith("# generated")]
    assert lines1 == lines2


def test_sweep_rejects_bad_curve(tmp_path, capsys):
    assert main(["sweep", "--curve", "nosuch:transpose"]) == 2
    assert main(["sweep", "--curve", "ad:leung"]) == 2
    assert main(["sweep", "--curve", "ad:identity", "--gamma-step", "-0.1"]) == 2
    # a code on a one-dimensional space lives on no qubits
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"ambient_dim": 1, "code_dim": 1, "basis": [[[1.0, 0.0]]]}))
    for recovery in ("transpose", "identity"):
        capsys.readouterr()
        assert main(["sweep", "--curve", f"file={point}:{recovery}",
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert "ambient dimension 1" in _one_error_line(capsys)


def test_sweep_with_code_file(tmp_path):
    code_file = tmp_path / "code.json"
    code_file.write_text(json.dumps(code_to_json(random_code(4, 2, 11))))
    out = tmp_path / "sweep.csv"
    rc = main(
        [
            "sweep",
            "--curve", f"file={code_file}:transpose",
            "--gamma-stop", "0.1",
            "--gamma-step", "0.1",
            "--out", str(out),
        ]
    )
    assert rc == 0
    _, rows = _read_rows(out)
    assert len(rows) == 3  # header + two gamma points


def test_search_outputs_and_determinism(tmp_path):
    out1 = tmp_path / "s1.csv"
    best1 = tmp_path / "b1.json"
    args = [
        "search", "--codes", "3", "--qubits", "2",
        "--gamma-stop", "0.2", "--gamma-step", "0.1", "--seed", "5",
    ]
    assert main(args + ["--out", str(out1), "--best-out", str(best1)]) == 0
    out2 = tmp_path / "s2.csv"
    best2 = tmp_path / "b2.json"
    assert main(args + ["--out", str(out2), "--best-out", str(best2)]) == 0
    rows1 = [l for l in out1.read_text().splitlines() if not l.startswith("# generated")]
    rows2 = [l for l in out2.read_text().splitlines() if not l.startswith("# generated")]
    assert rows1 == rows2
    data = json.loads(best1.read_text())
    assert {"config", "best_index", "code_seed", "metric_value", "code", "per_gamma"} <= set(data)
    assert data == json.loads(best2.read_text())
    # best code beats no correction at positive gamma
    per_gamma = {row["gamma"]: row["f2_worst"] for row in data["per_gamma"]}
    for g, f2 in per_gamma.items():
        if g > 0:
            assert f2 > 1 - g


def test_sweep_config_file_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma_stop": 0.1, "gamma_step": 0.1,
                               "curves": ["ad:identity"]}))
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    _, rows = _read_rows(out)
    assert len(rows) == 3  # header + gamma in {0, 0.1}


def test_search_rejects_bad_config(tmp_path):
    assert main(["search", "--codes", "0"]) == 2
    assert main(["search", "--codes", "1000000000"]) == 2  # before any allocation
    assert main(["search", "--qubits", "7"]) == 2
    assert main(["search", "--codes", "1", "--metric", "bogus"]) == 2


def test_check_command(tmp_path, capsys):
    chan_file = tmp_path / "chan.json"
    code_file = tmp_path / "code.json"
    chan_file.write_text(json.dumps(channel_to_json(bit_flip_channel(0.1))))
    code_file.write_text(json.dumps(code_to_json(bit_flip_code())))
    rc = main(["check", str(chan_file), str(code_file), "--epsilon", "0.01"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "Correctable"
    assert data["eta"] < 1e-10
    assert data["epsilon"] == 0.01
    assert "epsilon_f_epsilon_d" in data


def test_check_leung_thresholds(tmp_path, capsys):
    from aqec import aqec_diagnostics, leung_code

    g = 0.3
    e = tensor_power(amplitude_damping(g), 4)
    code = __import__("aqec").leung_code()
    eta = aqec_diagnostics(e, code, 0.1).eta
    chan_file = tmp_path / "chan.json"
    code_file = tmp_path / "code.json"
    chan_file.write_text(json.dumps(channel_to_json(e)))
    code_file.write_text(json.dumps(code_to_json(code)))

    rc = main(["check", str(chan_file), str(code_file), "--epsilon", str(10 * eta)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "Correctable"

    eps_lo = eta / 10.0
    rc = main(["check", str(chan_file), str(code_file), "--epsilon", str(eps_lo)])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["epsilon_f_epsilon_d"] < eta
    assert data["verdict"] == "NotCorrectable"


def test_check_missing_file():
    assert main(["check", "/nonexistent.json", "/also-missing.json",
                 "--epsilon", "0.1"]) == 2


def test_unreadable_json_file_is_named_in_one_line(tmp_path, capsys):
    chan_file, code_file = tmp_path / "chan.json", tmp_path / "code.json"
    chan_file.write_text(json.dumps(channel_to_json(amplitude_damping(0.1))))
    code_file.write_text("{not json")
    missing = tmp_path / "missing.json"
    assert main(["check", str(missing), str(code_file), "--epsilon", "0.1"]) == 2
    assert _one_error_line(capsys) == (
        f"error: cannot read channel file {missing}: "
        f"[Errno 2] No such file or directory: '{missing}'\n")
    assert main(["check", str(chan_file), str(code_file), "--epsilon", "0.1"]) == 2
    assert _one_error_line(capsys) == (
        f"error: cannot read code file {code_file}: "
        "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n")
    assert main(["sweep", "--config", str(missing), "--out", str(tmp_path / "o.csv")]) == 2
    assert _one_error_line(capsys) == (
        f"error: cannot read config {missing}: "
        f"[Errno 2] No such file or directory: '{missing}'\n")


def test_check_numerical_failure_exit_code(tmp_path):
    # a "channel" whose output operator is not PSD makes the inverse
    # square root fail; the CLI reports exit code 3
    bad = {
        "dims_in": 2,
        "dims_out": 2,
        "kraus": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]],
                  [[0.0, 0.0], [2.0, 0.0], [0.0, 0.0], [0.0, 0.0]]],
    }
    chan_file = tmp_path / "chan.json"
    code_file = tmp_path / "code.json"
    chan_file.write_text(json.dumps(bad))
    code_file.write_text(json.dumps(code_to_json(random_code(2, 2, 0))))
    assert main(["check", str(chan_file), str(code_file), "--epsilon", "0.1"]) == 3


def test_search_parallel_matches_serial(tmp_path, monkeypatch):
    # nine codes make three chunks of chunksize 4, so both workers score
    args = ["search", "--codes", "9", "--qubits", "2",
            "--gamma-stop", "0.2", "--gamma-step", "0.1", "--seed", "3"]
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    monkeypatch.setenv("AQEC_THREADS", "1")
    assert main(args + ["--out", str(serial), "--best-out", str(tmp_path / "b1.json")]) == 0
    monkeypatch.setenv("AQEC_THREADS", "2")
    assert main(args + ["--out", str(parallel), "--best-out", str(tmp_path / "b2.json")]) == 0
    rows1 = [l for l in serial.read_text().splitlines() if not l.startswith("# generated")]
    rows2 = [l for l in parallel.read_text().splitlines() if not l.startswith("# generated")]
    assert rows1 == rows2
    assert (tmp_path / "b1.json").read_text() == (tmp_path / "b2.json").read_text()


@pytest.fixture
def serial_pool(monkeypatch):
    # A stand-in executor records max_workers and its initializer and maps
    # in this process, so no worker process starts.
    import concurrent.futures

    made, initializers = [], []

    class SerialExecutor:
        def __init__(self, max_workers, mp_context, initializer=None):
            made.append(max_workers)
            initializers.append(initializer)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialExecutor)
    return made, initializers


def test_worker_count_is_capped_at_the_usable_cpus(tmp_path, monkeypatch, serial_pool):
    # AQEC_THREADS=4096 starts no process under the stand-in executor.
    made, initializers = serial_pool
    args = ["search", "--codes", "9", "--qubits", "2",
            "--gamma-stop", "0.2", "--gamma-step", "0.1", "--seed", "3"]
    outputs = []
    for threads in ("1", "4096"):
        monkeypatch.setenv("AQEC_THREADS", threads)
        out, best = tmp_path / f"s{threads}.csv", tmp_path / f"b{threads}.json"
        assert main(args + ["--out", str(out), "--best-out", str(best)]) == 0
        outputs.append(([l for l in out.read_text().splitlines()
                         if not l.startswith("# generated")], best.read_text()))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert made == [min(4096, cpus)]
    assert initializers == [_keep_freed_memory]
    assert outputs[0] == outputs[1]


def test_over_budget_search_starts_no_workers(tmp_path, monkeypatch, capsys, serial_pool):
    # The pass budget refuses 32-dimensional codes on 5 qubits over 51
    # gammas before the pool is made, not in its first worker.
    made, _ = serial_pool
    monkeypatch.setenv("AQEC_THREADS", "2")
    out = tmp_path / "s.csv"
    assert main(["search", "--qubits", "5", "--code-dim", "32", "--codes", "3",
                 "--out", str(out), "--best-out", str(tmp_path / "b.json")]) == 3
    assert "budget" in _one_error_line(capsys)
    assert made == [] and not out.exists()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc thresholds")
def test_a_repeated_search_does_not_fault_its_memory_back_in(tmp_path):
    # The kernel stacks of a 4-qubit code (0.2-0.8 MB) straddle glibc's
    # adapting mmap and trim thresholds; unless main fixes them, every code
    # returns its temporaries to the kernel and faults them back in (some
    # 3800 minor faults for the second of two 8-code searches).
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import resource, sys\n"
        "from aqec.cli import main\n"
        "args = ['search', '--qubits', '4', '--codes', '8', '--seed', '1',\n"
        "        '--out', sys.argv[1], '--best-out', sys.argv[2]]\n"
        "assert main(args) == 0\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "assert main(args) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "s.csv"), str(tmp_path / "b.json")],
        env=dict(os.environ, PYTHONPATH=path, AQEC_THREADS="1"),
        capture_output=True, text=True, check=True,
    )
    assert int(out.stdout) <= 50


def test_search_outperforms_five_qubit_code_at_high_gamma():
    # search dependent: holds for this seed's 500-code draw, mirroring the
    # crossover of the random-code curve above the five-qubit curve at
    # large damping
    import numpy as np

    from aqec import (
        five_qubit_code_only,
        five_qubit_recovery,
        random_code,
        transpose_channel,
        worst_case_fidelity,
    )

    g = 0.4
    five = five_qubit_code_only()
    e5 = tensor_power(amplitude_damping(g), 5)
    f_five = worst_case_fidelity(e5, five_qubit_recovery(g), five).f2_min
    rng = np.random.default_rng(20248)
    seeds = [int(s) for s in rng.integers(0, 2**63 - 1, size=500)]
    e4 = tensor_power(amplitude_damping(g), 4)
    best = -1.0
    for s in seeds:
        code = random_code(16, 2, s)
        r = transpose_channel(e4, code)
        best = max(best, worst_case_fidelity(e4, r, code).f2_min)
    assert best > f_five
    assert best > 1 - g


def _one_error_line(capsys):
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    return err


def test_reversed_gamma_grid_rejected(tmp_path, capsys):
    grid = ["--gamma-start", "0.5", "--gamma-stop", "0.1"]
    out = ["--out", str(tmp_path / "o.csv")]
    assert main(["search", "--codes", "1", "--qubits", "2"] + grid + out
                + ["--best-out", str(tmp_path / "b.json")]) == 2
    assert "empty gamma grid" in _one_error_line(capsys)
    assert main(["sweep", "--curve", "ad:identity"] + grid + out) == 2
    assert "empty gamma grid" in _one_error_line(capsys)


def test_non_finite_or_zero_step_grid_rejected(tmp_path, capsys):
    out = ["--out", str(tmp_path / "o.csv"), "--best-out", str(tmp_path / "b.json")]
    for bad in (["--gamma-stop", "nan"], ["--gamma-start=-inf"], ["--gamma-step", "0"],
                ["--gamma-stop", "1", "--gamma-step", "5e-324"],
                ["--gamma-stop", "1e308", "--gamma-step", "1e-308"],
                ["--gamma-stop", "1", "--gamma-step", "1e-8"]):  # 1e8 points
        assert main(["search", "--codes", "1", "--qubits", "2"] + bad + out) == 2
        _one_error_line(capsys)


def test_gamma_grid_whose_points_would_repeat_rejected(tmp_path, capsys, monkeypatch):
    # every point is rounded to 12 decimals, so a step below 1e-12 repeats
    # points (101 rows over 12 gammas, six of them 0, for this grid): both
    # commands refuse it, by flag or by config, before any list is built
    def refuse(*args, **kwargs):
        raise AssertionError("gamma_grid ran")

    out, best = tmp_path / "o.csv", tmp_path / "b.json"
    sweep = ["sweep", "--curve", "ad:identity", "--out", str(out)]
    search = ["search", "--codes", "1", "--qubits", "2", "--out", str(out),
              "--best-out", str(best)]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma_stop": 1e-11, "gamma_step": 1e-13}))
    with monkeypatch.context() as patch:
        patch.setattr("aqec.cli.gamma_grid", refuse)
        for run in (sweep, search):
            for grid in (["--gamma-stop", "1e-11", "--gamma-step", "1e-13"],
                         ["--config", str(cfg)]):
                assert main(run + grid) == 2
                assert "would repeat" in _one_error_line(capsys)
                assert not out.exists() and not best.exists()
    # a one-point grid has no repeats, whatever its step
    one = ["--gamma-start", "0.1", "--gamma-stop", "0.1", "--gamma-step", "1e-13"]
    assert main(sweep + one) == 0
    assert [row[0] for row in _sweep_table(out)] == ["0.10000000000000001"]
    assert main(search + one) == 0
    assert [p["gamma"] for p in json.loads(best.read_text())["per_gamma"]] == [0.1]


def test_gamma_grid_never_passes_stop(tmp_path):
    from aqec.cli import gamma_grid

    # a span that is not a whole number of steps ends below stop
    for stop, step, want in (("0.5", "0.3", ["0", "0.29999999999999999"]),
                             ("1", "0.6", ["0", "0.59999999999999998"])):
        out = tmp_path / "o.csv"
        assert main(["sweep", "--curve", "ad:identity", "--gamma-stop", stop,
                     "--gamma-step", step, "--out", str(out)]) == 0
        assert [row.split(",")[0] for row in _read_rows(out)[1][1:]] == want
    # a whole number of steps keeps stop as the last point
    for start, stop, step, count in ((0.0, 0.5, 0.01, 51), (0.0, 0.5, 0.1, 6),
                                     (0.11, 0.21, 0.01, 11), (0.44, 0.5, 0.01, 7),
                                     (0.9, 1.0, 0.05, 3), (0.1, 0.1, 0.01, 1)):
        grid = gamma_grid(start, stop, step)
        assert len(grid) == count and grid[-1] == stop


def test_out_of_memory_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    import aqec.cli

    for exc in (MemoryError("Unable to allocate 488. MiB for an array"), MemoryError()):
        def exhausted(*args, exc=exc):
            raise exc

        monkeypatch.setattr(aqec.cli, "_recovered_maps", exhausted)
        out = tmp_path / "o.csv"
        assert main(["sweep", "--curve", "ad:identity", "--gamma-stop", "0.02",
                     "--out", str(out)]) == 3
        assert "out of memory" in _one_error_line(capsys)
        assert not out.exists()


def test_bad_samples_rejected(tmp_path, capsys):
    out = ["--out", str(tmp_path / "o.csv")]
    assert main(["search", "--codes", "1", "--qubits", "2", "--samples", "-5"] + out
                + ["--best-out", str(tmp_path / "b.json")]) == 2
    assert "-5" in _one_error_line(capsys)
    assert main(["sweep", "--curve", "ad:identity", "--samples", "0"] + out) == 2
    assert "samples" in _one_error_line(capsys)


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gama_stop": 0.1}))
    out = ["--out", str(tmp_path / "o.csv")]
    assert main(["sweep", "--config", str(cfg)] + out) == 2
    assert "gama_stop" in _one_error_line(capsys)
    assert main(["search", "--codes", "1", "--config", str(cfg)] + out) == 2
    assert "gama_stop" in _one_error_line(capsys)
    assert not (tmp_path / "o.csv").exists()


def test_check_non_finite_channel_exit_code(tmp_path, capsys):
    data = channel_to_json(bit_flip_channel(0.1))
    data["kraus"][0][0][0] = float("nan")
    chan_file = tmp_path / "chan.json"
    code_file = tmp_path / "code.json"
    chan_file.write_text(json.dumps(data))
    code_file.write_text(json.dumps(code_to_json(bit_flip_code())))
    assert main(["check", str(chan_file), str(code_file), "--epsilon", "0.1"]) == 3
    assert "NaN" in _one_error_line(capsys)


def test_search_values_independent_of_batch_and_workers(tmp_path, monkeypatch):
    from aqec.cli import _search_one

    args = ["search", "--codes", "3", "--qubits", "3",
            "--gamma-stop", "0.3", "--gamma-step", "0.1", "--seed", "9"]
    bests = []
    for threads in ("1", "2"):
        monkeypatch.setenv("AQEC_THREADS", threads)
        best = tmp_path / f"best{threads}.json"
        assert main(args + ["--out", str(tmp_path / "s.csv"), "--best-out", str(best)]) == 0
        bests.append(json.loads(best.read_text()))
    assert bests[0]["per_gamma"] == bests[1]["per_gamma"]
    gammas = [row["gamma"] for row in bests[0]["per_gamma"]]
    alone = _search_one((bests[0]["code_seed"], 3, 2, gammas, 20_000))
    assert [{"gamma": g, "f2_worst": v} for g, v in zip(gammas, alone)] == bests[0]["per_gamma"]


def test_config_value_of_wrong_type_rejected(tmp_path, capsys):
    out = ["--out", str(tmp_path / "o.csv"), "--best-out", str(tmp_path / "b.json")]
    cases = [
        ({"codes": "2"}, "codes"),
        ({"seed": 1.5}, "seed"),
        ({"seed": True}, "seed"),
        ({"gamma_stop": "0.1"}, "gamma_stop"),
        ({"metric": 3}, "metric"),
    ] + [({key: 10**400}, "gamma grid") for key in ("gamma_start", "gamma_stop", "gamma_step")]
    for overrides, key in cases:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(overrides))
        assert main(["search", "--codes", "1", "--qubits", "2", "--config", str(cfg)] + out) == 2
        assert key in _one_error_line(capsys)
    for overrides, key in [({"curves": "ad:identity"}, "curves"),
                           ({"curves": []}, "curves"),  # an empty list does not mean the defaults
                           ({"gamma_stop": 10**400}, "gamma grid")]:  # too large for a float
        cfg.write_text(json.dumps(overrides))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        assert key in _one_error_line(capsys)
    assert not (tmp_path / "o.csv").exists()


def test_config_integer_accepted_for_float_flag(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma_stop": 1, "gamma_step": 1, "curves": ["ad:identity"]}))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(_read_rows(out)[1]) == 3  # header + gamma in {0, 1}


def test_noise_stack_over_budget_is_a_numerical_failure(capsys):
    # 10^6 + 1 gammas of leung41 damping, (G, 16, 16, 2): 1.9 GiB, refused
    # before it is allocated
    args = ["sweep", "--curve", "leung41:transpose", "--gamma-stop", "1",
            "--gamma-step", "1e-6", "--out", "-"]
    assert main(args) == 3
    assert "budget" in _one_error_line(capsys)


def test_sweep_f2_never_above_one(tmp_path):
    # rounding put this d = 1 code's f2 at 1 + 4e-16 and its eta below 0
    code_file = tmp_path / "code.json"
    code_file.write_text(json.dumps(code_to_json(random_code(4, 1, 3))))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--curve", f"file={code_file}:transpose", "--gamma-stop", "0.1",
                 "--gamma-step", "0.02", "--out", str(out)]) == 0
    rows = _sweep_table(out)
    assert len(rows) == 6
    for row in rows:
        assert float(row[2]) <= 1.0 and float(row[4]) >= 0.0


def test_negative_seed_rejected(tmp_path, capsys):
    out = ["--out", str(tmp_path / "o.csv")]
    assert main(["search", "--codes", "1", "--qubits", "2", "--seed", "-1"] + out
                + ["--best-out", str(tmp_path / "b.json")]) == 2
    assert "seed" in _one_error_line(capsys)
    assert main(["sweep", "--curve", "ad:identity", "--seed", "-3"] + out) == 2
    assert "seed" in _one_error_line(capsys)


def _sweep_table(path):
    _, rows = _read_rows(path)
    return [line.split(",") for line in rows[1:]]


def _reference_transpose(gamma, n, code, samples, seed):
    from aqec import transpose_channel, worst_case_fidelity

    noise = tensor_power(amplitude_damping(gamma), n)
    rec = transpose_channel(noise, code)
    return worst_case_fidelity(noise, rec, code, samples=samples, seed=seed)


def test_sweep_transpose_curves_match_ambient_reference(tmp_path):
    from aqec import leung_code

    code3 = random_code(8, 3, 21)
    code_file = tmp_path / "code3.json"
    code_file.write_text(json.dumps(code_to_json(code3)))
    cases = [("leung41:transpose", leung_code(), 4, "exact_unital_qubit"),
             (f"file={code_file}:transpose", code3, 3, "sampled")]
    for spec, code, n, method in cases:
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--curve", spec, "--gamma-stop", "0.3",
                     "--gamma-step", "0.1", "--samples", "3000", "--seed", "4",
                     "--out", str(out)]) == 0
        table = _sweep_table(out)
        assert [float(r[0]) for r in table] == [0.0, 0.1, 0.2, 0.3]
        for gamma, _, f2, _, eta, row_method, count, _ in table:
            ref = _reference_transpose(float(gamma), n, code, 3000, 4)
            assert abs(float(f2) - ref.f2_min) <= 1e-12
            assert abs(float(eta) - ref.eta) <= 1e-12
            assert row_method == ref.method == method
            assert count == ("3000" if method == "sampled" else "exact")


def test_sweep_over_kraus_budget_exits_3(tmp_path, capsys):
    from aqec import CodeSpace

    code_file = tmp_path / "code9.json"
    code_file.write_text(json.dumps(code_to_json(CodeSpace(np.eye(512)[:, :2]))))
    for recovery in ("transpose", "identity"):
        rc = main(["sweep", "--curve", f"file={code_file}:{recovery}",
                   "--gamma-stop", "0.1", "--out", str(tmp_path / "s.csv")])
        assert rc == 3
        assert "budget" in _one_error_line(capsys)


def test_sweep_over_pass_budget_exits_3_before_the_noise_is_built(tmp_path, monkeypatch, capsys):
    # 2 * 10^6 + 1 gammas pass MAX_COUNT and the noise stack's own budget,
    # but their process-matrix stacks would hold over 2 GB; 10^6 + 1 gammas
    # of 32-dimensional codes on 5 qubits are over the budget too.  Both are
    # refused before the gamma list (~64 MB for 2 * 10^6 floats) is built.
    def refuse(*args, **kwargs):
        raise AssertionError("_damping_on ran")

    monkeypatch.setattr("aqec.cli._damping_on", refuse)
    cases = [["sweep", "--curve", "ad:identity", "--gamma-stop", "1", "--gamma-step", "5e-7",
              "--out", "-"],
             ["search", "--qubits", "5", "--code-dim", "32", "--gamma-stop", "1",
              "--gamma-step", "1e-6", "--out", str(tmp_path / "s.csv"),
              "--best-out", str(tmp_path / "b.json")]]
    for args in cases:
        exits = []
        assert _peak_bytes(lambda: exits.append(main(args))) < 16 * 2**20
        assert exits == [3]
        assert "budget" in _one_error_line(capsys)


def test_pass_budget_counts_the_operators_each_recovery_builds():
    from aqec import five_qubit_code_only, leung_recovery
    from aqec.cli import RECOVERIES
    from aqec.conditions import _standard_recovery_on
    from aqec.models import _five_qubit_noise_on

    m = _five_qubit_noise_on(np.array([0.1]), five_qubit_code_only().basis)
    assert RECOVERIES["leung"][1] == len(leung_recovery(0.1).kraus)
    assert RECOVERIES["rperf"][1] == _standard_recovery_on(m).shape[1]


@pytest.mark.parametrize("recovery, model, n_qubits, code_dim", [
    ("transpose", None, 3, 2), ("transpose", None, 4, 2), ("transpose", None, 5, 2),
    ("transpose", None, 6, 2), ("transpose", None, 4, 3), ("transpose", None, 5, 4),
    ("identity", "ad", None, None), ("identity", None, 6, 2),
    ("identity", "leung41", None, None), ("identity", "five513", None, None),
    ("leung", "leung41", None, None), ("rperf", "five513", None, None),
])
def test_pass_budget_matches_the_memory_a_pass_uses(monkeypatch, recovery, model, n_qubits,
                                                   code_dim):
    # The budget's entry count, at 16 bytes each, is within 20% of the
    # traced peak of the scoring pass it admits, over 51 gammas.
    import re

    import aqec.cli
    from aqec.cli import MODELS, _check_pass_budget, _score_curves, gamma_grid
    from aqec.exceptions import BudgetExceeded

    gammas = gamma_grid(0.0, 0.5, 0.01)
    code = MODELS[model][0]() if model else random_code(2**n_qubits, code_dim, 5)
    monkeypatch.setattr(aqec.cli, "KRAUS_ENTRY_BUDGET", 0)
    with pytest.raises(BudgetExceeded) as refused:
        _check_pass_budget(code.ambient_dim, code.code_dim, recovery, len(gammas))
    entries = int(re.search(r"needs (\d+) complex entries", str(refused.value))[1])
    peak = _peak_bytes(_score_curves, [(code, recovery)], gammas, 10, 0)
    assert 0.8 <= peak / (16 * entries) <= 1.2


def _original_five_qubit_recovery(gamma):
    from aqec import (
        check_perfect_qec,
        complete_to_tp,
        five_qubit_code_only,
        five_qubit_noise,
    )

    code, single = five_qubit_code_only(), five_qubit_noise(gamma)
    cert = check_perfect_qec(single, code)
    return complete_to_tp(polar_r_perf(cert, single, code), code.basis)


def test_sweep_fixed_recovery_curves_match_per_gamma_reference(tmp_path):
    from aqec import (
        five_qubit_code_only,
        leung_code,
        leung_recovery,
        qubit_space,
        worst_case_fidelity,
    )

    code3 = random_code(8, 3, 21)
    code_file = tmp_path / "code3.json"
    code_file.write_text(json.dumps(code_to_json(code3)))
    # curve -> (code, qubits, recovery at gamma; None for no recovery)
    cases = {
        "ad:identity": (qubit_space(), 1, lambda g: None),
        "leung41:leung": (leung_code(), 4, leung_recovery),
        "five513:rperf": (five_qubit_code_only(), 5, _original_five_qubit_recovery),
        f"file={code_file}:identity": (code3, 3, lambda g: None),
    }
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--gamma-stop", "0.9", "--gamma-step", "0.15",
            "--samples", "2000", "--seed", "5", "--out", str(out)]
    for spec in cases:
        argv += ["--curve", spec]
    assert main(argv) == 0
    table = _sweep_table(out)
    assert len(table) == 7 * len(cases)
    for gamma, spec, f2, _, eta, method, count, _ in table:
        code, n, recovery = cases[spec]
        noise = tensor_power(amplitude_damping(float(gamma)), n)
        ref = worst_case_fidelity(noise, recovery(float(gamma)), code,
                                  samples=2000, seed=5)
        assert abs(float(f2) - ref.f2_min) <= 1e-12
        assert abs(float(eta) - ref.eta) <= 1e-12
        assert method == ref.method
        assert count == ("2000" if method == "sampled" else "exact")


_RPERF_GRID = ["--gamma-start", "0", "--gamma-stop", "1", "--gamma-step", "0.125"]


def test_rperf_sweep_matches_original_recovery_through_gamma_one(tmp_path):
    # The sweep completes the recovery on the code; the reference completes
    # it in the ambient space, at gamma 0 (one syndrome kept) through 1.
    from aqec import five_qubit_code_only, worst_case_fidelity

    code = five_qubit_code_only()
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--curve", "five513:rperf", *_RPERF_GRID, "--out", str(out)]) == 0
    table = _sweep_table(out)
    assert [float(r[0]) for r in table] == [0.125 * k for k in range(9)]
    for gamma, _, f2, _, eta, method, _, _ in table:
        noise = tensor_power(amplitude_damping(float(gamma)), 5)
        ref = worst_case_fidelity(noise, _original_five_qubit_recovery(float(gamma)), code)
        assert abs(float(f2) - ref.f2_min) <= 1e-12
        assert abs(float(eta) - ref.eta) <= 1e-12
        assert method == ref.method


def test_completed_rperf_map_is_trace_preserving_on_the_code(tmp_path, monkeypatch):
    import aqec.cli
    from aqec.fidelity import _min_forms

    blocks = []

    def keep_blocks(b, *args):
        blocks.extend(b)
        return _min_forms(b, *args)

    monkeypatch.setattr(aqec.cli, "_min_forms", keep_blocks)
    assert main(["sweep", "--curve", "five513:rperf", *_RPERF_GRID,
                 "--out", str(tmp_path / "s.csv")]) == 0
    [(m, _)] = blocks
    assert m.shape == (9, 4, 4)
    assert np.max(np.abs(m[:, 0, :] - np.eye(4)[0])) <= 1e-12


def test_rperf_trace_row_equals_the_kraus_level_completion():
    from aqec import five_qubit_code_only
    from aqec.cli import _recovered_on_code
    from aqec.conditions import _standard_recovery_on
    from aqec.fidelity import _compose_on_code
    from aqec.models import _damping_on, _five_qubit_noise_on

    gammas = [round(0.005 * k, 12) for k in range(201)]
    assert gammas[0] == 0.0 and gammas[-1] == 1.0
    code = five_qubit_code_only()
    m = _damping_on(gammas, code.basis)
    syndromes = _standard_recovery_on(_five_qubit_noise_on(gammas, code.basis))
    want = completed_on_code(_compose_on_code(syndromes, m), m)
    got = _recovered_on_code("rperf", code, m, gammas)
    assert got.shape == want.shape == (201, 4, 4)
    assert np.max(np.abs(got - want)) <= 1e-14


def test_sweep_curves_equal_the_library_bit_for_bit(tmp_path):
    # Each curve's f2 is the worst_case_fidelity (or, for transpose, the
    # transpose_fidelity_grid) value of the tensor-power noise, exactly.
    from aqec import (
        leung_code,
        leung_recovery,
        qubit_space,
        transpose_fidelity_grid,
        worst_case_fidelity,
    )

    gammas = [round(0.01 * k, 12) for k in range(1, 51)]
    out = tmp_path / "s.csv"
    assert main(["sweep", "--curve", "ad:identity", "--curve", "leung41:leung",
                 "--curve", "leung41:transpose", "--gamma-start", "0.01",
                 "--out", str(out)]) == 0
    got = {(spec, float(gamma)): float(f2) for gamma, spec, f2, *_ in _sweep_table(out)}
    assert len(got) == 3 * len(gammas)
    leung = leung_code()
    stack = np.stack([tensor_power(amplitude_damping(g), 4).kraus for g in gammas])
    grid = transpose_fidelity_grid(stack, leung)
    for g, transposed in zip(gammas, grid):
        assert got["ad:identity", g] == worst_case_fidelity(
            tensor_power(amplitude_damping(g), 1), None, qubit_space()).f2_min
        assert got["leung41:leung", g] == worst_case_fidelity(
            tensor_power(amplitude_damping(g), 4), leung_recovery(g), leung).f2_min
        assert got["leung41:transpose", g] == transposed.f2_min


def test_repeated_curve_rows_interleave_by_gamma(tmp_path):
    # The row sort puts both copies of a repeated curve next to each other
    # at each gamma, rather than one copy's whole grid after the other's.
    out = tmp_path / "s.csv"
    assert main(["sweep", "--curve", "ad:identity", "--curve", "leung41:leung",
                 "--curve", "ad:identity", "--gamma-stop", "0.05", "--out", str(out)]) == 0
    table = _sweep_table(out)
    keys = [(spec, float(gamma)) for gamma, spec, *_ in table]
    assert keys == sorted(keys) and len(keys) == 3 * 6
    ad = [row for row in table if row[1] == "ad:identity"]
    assert ad[::2] == ad[1::2]


def test_default_sweep_equals_split_calls(tmp_path):
    gammas = [round(0.01 * k, 12) for k in range(51)]
    whole = tmp_path / "whole.csv"
    assert main(["sweep", "--out", str(whole)]) == 0
    parts = []
    for i in range(5):
        chunk = gammas[i * 11:(i + 1) * 11]
        out = tmp_path / f"part{i}.csv"
        assert main(["sweep", "--gamma-start", repr(chunk[0]),
                     "--gamma-stop", repr(chunk[-1]), "--out", str(out)]) == 0
        parts += _sweep_table(out)
    parts.sort(key=lambda r: (r[1], float(r[0])))
    rows = _sweep_table(whole)
    assert len(rows) == len(parts) == 4 * 51
    for a, b in zip(rows, parts):
        assert a[:2] == b[:2] and a[5:] == b[5:]
        for col in (2, 3, 4):
            assert abs(float(a[col]) - float(b[col])) <= 1e-14


def test_seven_qubit_transpose_sweep_beyond_32_gammas(tmp_path):
    from aqec import transpose_fidelity_grid
    from aqec.models import _damping_on

    code = random_code(128, 2, 7)
    code_file = tmp_path / "code7.json"
    code_file.write_text(json.dumps(code_to_json(code)))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--curve", f"file={code_file}:transpose",
                 "--gamma-stop", "0.32", "--out", str(out)]) == 0
    table = _sweep_table(out)
    assert len(table) == 33
    for row in (table[0], table[17], table[-1]):
        noise = _damping_on([float(row[0])], np.eye(128, dtype=complex))
        [ref] = transpose_fidelity_grid(noise, code)
        assert abs(float(row[2]) - ref.f2_min) <= 1e-12
        assert row[5] == ref.method


def test_leung_sweep_rejects_gamma_one(tmp_path, capsys):
    rc = main(["sweep", "--curve", "leung41:leung", "--gamma-start", "0.9",
               "--gamma-stop", "1.0", "--gamma-step", "0.1",
               "--out", str(tmp_path / "s.csv")])
    assert rc == 3
    assert "outside [0, 1)" in _one_error_line(capsys)


def test_scoring_pass_matches_each_curve_swept_alone(tmp_path, monkeypatch):
    # One sweep builds each code's noise once and minimises the forms of
    # every curve of one code dimension in one call.  Each curve's rows
    # equal the curve swept alone: to the byte for the qubit curves, and
    # within the stacking bound of the sampled minimiser for d = 3.
    import aqec.cli
    from aqec.cli import DEFAULT_CURVES

    code_file = tmp_path / "code3.json"
    code_file.write_text(json.dumps(code_to_json(random_code(8, 3, 21))))
    qutrit = [f"file={code_file}:transpose", f"file={code_file}:identity"]
    grid = ["--gamma-stop", "0.2", "--gamma-step", "0.05", "--samples", "2000", "--seed", "3"]

    calls, noise_shapes = [], []

    def count_calls(blocks, *args):
        calls.append(len(blocks))
        return real_min_forms(blocks, *args)

    def count_noise(gammas, basis):
        noise_shapes.append(basis.shape)
        return real_damping_on(gammas, basis)

    real_min_forms, real_damping_on = aqec.cli._min_forms, aqec.cli._damping_on
    monkeypatch.setattr(aqec.cli, "_min_forms", count_calls)
    monkeypatch.setattr(aqec.cli, "_damping_on", count_noise)
    together = tmp_path / "together.csv"
    argv = ["sweep", *grid, "--out", str(together)]
    for spec in DEFAULT_CURVES + qutrit:
        argv += ["--curve", spec]
    assert main(argv) == 0
    assert sorted(calls) == [2, 4]
    assert sorted(noise_shapes) == [(2, 2), (8, 3), (16, 2), (32, 2)]  # one build per code
    rows = _read_rows(together)[1][1:]
    for spec in DEFAULT_CURVES + qutrit:
        alone = tmp_path / "alone.csv"
        assert main(["sweep", "--curve", spec, *grid, "--out", str(alone)]) == 0
        mine = [row for row in rows if row.split(",")[1] == spec]
        ref = _read_rows(alone)[1][1:]
        assert len(mine) == len(ref) == 5
        if spec in qutrit:
            for got, want in zip(mine, ref):
                got, want = got.split(","), want.split(",")
                assert got[:2] + got[5:] == want[:2] + want[5:]
                for a, b in zip(got[2:5], want[2:5]):
                    assert abs(float(a) - float(b)) <= 1e-14
        else:
            assert mine == ref


def test_failing_curve_of_a_scoring_pass_exits_3(tmp_path, capsys):
    # The default curves at gamma 1: leung41:leung rejects it, and the
    # whole sweep exits 3 with one line, writing nothing.
    out = tmp_path / "s.csv"
    rc = main(["sweep", "--gamma-start", "0.9", "--gamma-stop", "1.0", "--gamma-step", "0.1",
               "--out", str(out)])
    assert rc == 3
    assert _one_error_line(capsys) == "numerical failure: gamma = 1.0 outside [0, 1)\n"
    assert not out.exists()


def test_bad_metric_rejected_before_scoring(tmp_path, capsys):
    out, best = tmp_path / "s.csv", tmp_path / "b.json"
    for metric in ("f2_at:abc", "f2_at:nan", "bogus"):
        rc = main(["search", "--qubits", "2", "--codes", "1", "--metric", metric,
                   "--out", str(out), "--best-out", str(best)])
        assert rc == 2
        assert "metric" in _one_error_line(capsys)
        assert not out.exists() and not best.exists()


def test_check_rejects_bad_epsilon(tmp_path, capsys):
    ch, code = tmp_path / "ch.json", tmp_path / "code.json"
    ch.write_text(json.dumps(channel_to_json(bit_flip_channel(0.1))))
    code.write_text(json.dumps(code_to_json(bit_flip_code())))
    for eps in ("nan", "inf", "-0.1"):
        assert main(["check", str(ch), str(code), f"--epsilon={eps}"]) == 2
        assert "epsilon" in _one_error_line(capsys)
    assert main(["check", str(ch), str(code), "--epsilon", "0"]) == 0


def test_f2_at_metric_must_name_a_grid_point(tmp_path, capsys):
    out, best = tmp_path / "s.csv", tmp_path / "b.json"
    args = ["search", "--qubits", "2", "--codes", "1", "--gamma-stop", "0.2",
            "--gamma-step", "0.1", "--out", str(out), "--best-out", str(best)]
    for metric in ("f2_at:5", "f2_at:0.15"):
        assert main(args + ["--metric", metric]) == 2
        assert "grid" in _one_error_line(capsys)
        assert not out.exists() and not best.exists()
    assert main(args + ["--metric", "f2_at:0.1"]) == 0
    data = json.loads(best.read_text())
    assert data["per_gamma"][1]["gamma"] == 0.1
    assert data["metric_value"] == data["per_gamma"][1]["f2_worst"]
    [row] = _sweep_table(out)
    assert float(row[2]) == data["metric_value"]


def test_search_rejects_code_dim_outside_ambient_space(tmp_path, capsys):
    out, best = tmp_path / "s.csv", tmp_path / "b.json"
    args = ["search", "--qubits", "2", "--codes", "1", "--gamma-stop", "0.1",
            "--out", str(out), "--best-out", str(best)]
    for dim in (0, 5):
        assert main(args + ["--code-dim", str(dim)]) == 2
        assert "code_dim" in _one_error_line(capsys)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"code_dim": dim}))
        assert main(args + ["--config", str(cfg)]) == 2
        assert "code_dim" in _one_error_line(capsys)
        assert not out.exists() and not best.exists()


def test_search_rejects_gamma_above_one(tmp_path, capsys):
    rc = main(["search", "--qubits", "2", "--codes", "1", "--gamma-stop", "1.2",
               "--gamma-step", "0.1", "--out", str(tmp_path / "s.csv"),
               "--best-out", str(tmp_path / "b.json")])
    assert rc == 3
    assert "outside [0, 1]" in _one_error_line(capsys)


def test_search_scores_its_best_code_as_a_transpose_sweep_curve(tmp_path):
    best = tmp_path / "best.json"
    grid = ["--gamma-stop", "0.3", "--gamma-step", "0.05"]
    assert main(["search", "--qubits", "3", "--codes", "3", "--seed", "2", *grid,
                 "--out", str(tmp_path / "s.csv"), "--best-out", str(best)]) == 0
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--curve", f"file={best}:transpose", *grid,
                 "--out", str(out)]) == 0
    per_gamma = json.loads(best.read_text())["per_gamma"]
    table = _sweep_table(out)
    assert [float(row[0]) for row in table] == [p["gamma"] for p in per_gamma]
    assert [float(row[2]) for row in table] == [p["f2_worst"] for p in per_gamma]


def _peak_bytes(fn, *args):
    import tracemalloc

    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_damping_built_on_the_code_keeps_memory_small():
    # The ambient 5-qubit damping grid over 51 gammas alone is 26.7 MB.
    from aqec import five_qubit_code_only
    from aqec.cli import _score_curves, _search_one, gamma_grid

    gammas = gamma_grid(0.0, 0.5, 0.01)
    assert _peak_bytes(_search_one, (11, 5, 2, gammas, 10)) < 20 * 2**20
    code = five_qubit_code_only()
    assert _peak_bytes(_score_curves, [(code, "identity")], gammas, 10, 0) < 8 * 2**20


def test_rperf_curve_keeps_memory_small():
    # Completing the recovery on the code forms no 32 x 32 defect and no
    # ambient completion operators.
    from aqec import five_qubit_code_only
    from aqec.cli import _score_curves, gamma_grid

    gammas = gamma_grid(0.0, 0.5, 0.01)
    curves = [(five_qubit_code_only(), "rperf")]
    assert _peak_bytes(_score_curves, curves, gammas, 10, 0) < 8 * 2**20


def test_scoring_pass_holds_one_codes_noise_at_a_time():
    # A 6-qubit code's noise on the code over 51 gammas is 6.7 MB; a pass
    # over three codes drops each code's noise after its last curve.
    from aqec.cli import _score_curves, gamma_grid

    gammas = gamma_grid(0.0, 0.5, 0.01)
    codes = [random_code(64, 2, seed) for seed in range(3)]
    one = _peak_bytes(_score_curves, [(codes[0], "identity")], gammas, 10, 0)
    three = _peak_bytes(_score_curves, [(code, "identity") for code in codes], gammas, 10, 0)
    assert three < 1.2 * one


def test_non_numeric_kraus_or_basis_entry_exits_3(tmp_path, capsys):
    chan_file, code_file = tmp_path / "chan.json", tmp_path / "code.json"
    good_chan = channel_to_json(bit_flip_channel(0.1))
    good_code = code_to_json(bit_flip_code())
    bad_chan = json.loads(json.dumps(good_chan))
    bad_chan["kraus"][0][0][0] = "x"
    bad_code = json.loads(json.dumps(good_code))
    bad_code["basis"][1][0] = [{}, 0.0]
    cases = [(bad_chan, good_code), (good_chan, bad_code)]
    # each malformed in a way a flat read of all the numbers could miss
    string_pair = json.loads(json.dumps(good_chan))
    string_pair["kraus"][0][0] = "12"
    uneven = json.loads(json.dumps(good_chan))
    uneven["kraus"][1][0] = [0.5, 0.0, 0.0]  # three numbers, then one: count still right
    uneven["kraus"][1][1] = [0.0]
    nested = json.loads(json.dumps(good_code))
    nested["basis"][0][1][0] = [0.0, 0.0]
    as_object = json.loads(json.dumps(good_chan))
    as_object["kraus"][0] = {str(i): pair for i, pair in enumerate(as_object["kraus"][0])}
    cases += [(string_pair, good_code), (uneven, good_code), (good_chan, nested),
              (as_object, good_code)]
    for chan, code in cases:
        chan_file.write_text(json.dumps(chan))
        code_file.write_text(json.dumps(code))
        assert main(["check", str(chan_file), str(code_file), "--epsilon", "0.1"]) == 3
        assert "pairs" in _one_error_line(capsys)


def _malformed(payload, key, value):
    """A JSON copy of payload with payload[key] set to value."""
    bad = json.loads(json.dumps(payload))
    bad[key] = value
    return bad


def _bad_entry(value):
    """The bit-flip channel's JSON with its first real part set to value."""
    bad = channel_to_json(bit_flip_channel(0.1))
    bad["kraus"][0][0][0] = value
    return bad


_GOOD_CHANNEL = channel_to_json(bit_flip_channel(0.1))
_GOOD_CODE = code_to_json(bit_flip_code())


@pytest.mark.parametrize("chan, code, message", [
    (_malformed(_GOOD_CHANNEL, "kraus", 5), _GOOD_CODE, "kraus a list, got [8, 8] and int"),
    (_GOOD_CHANNEL, _malformed(_GOOD_CODE, "basis", 5), "basis a list, got [8, 2] and int"),
    (_GOOD_CHANNEL, _malformed(_malformed(_GOOD_CODE, "code_dim", 0), "basis", []),
     "ambient_dim and code_dim must be positive integers"),
    (_malformed(_GOOD_CHANNEL, "dims_in", float("inf")), _GOOD_CODE, "got [inf, 8]"),
    (_malformed(_GOOD_CHANNEL, "dims_out", 8.0), _GOOD_CODE, "got [8, 8.0]"),
    (_bad_entry("1.5"), _GOOD_CODE, "pairs of numbers"),
    (_bad_entry(True), _GOOD_CODE, "pairs of numbers"),
    (_bad_entry(None), _GOOD_CODE, "pairs of numbers"),
    (_bad_entry(10**400), _GOOD_CODE, "pairs of finite numbers"),
    (_GOOD_CHANNEL, _malformed(_GOOD_CODE, "code_dim", 1), "code_dim 1 but has 2 basis vectors"),
])
def test_malformed_json_fields_exit_3_with_one_line(tmp_path, capsys, chan, code, message):
    chan_file, code_file = tmp_path / "chan.json", tmp_path / "code.json"
    chan_file.write_text(json.dumps(chan))
    code_file.write_text(json.dumps(code))
    assert main(["check", str(chan_file), str(code_file), "--epsilon", "0.1"]) == 3
    assert message in _one_error_line(capsys)


def test_code_file_not_a_json_object_exits_with_one_line(tmp_path, capsys):
    code_file = tmp_path / "code.json"
    out = ["--gamma-stop", "0.02", "--out", str(tmp_path / "o.csv")]
    for text in ("5", '"code"', "[1, 2]"):
        code_file.write_text(text)
        assert main(["sweep", "--curve", f"file={code_file}:transpose"] + out) == 3
        assert "malformed code JSON" in _one_error_line(capsys)


def test_unwritable_output_paths_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "no-such-dir" / "out")
    ok = str(tmp_path / "ok")
    search = ["search", "--codes", "1", "--qubits", "2", "--gamma-stop", "0.02"]
    assert main(["sweep", "--curve", "ad:identity", "--gamma-stop", "0.02",
                 "--out", missing]) == 2
    assert "cannot write" in _one_error_line(capsys)
    assert main(search + ["--out", missing, "--best-out", ok + ".json"]) == 2
    assert "cannot write" in _one_error_line(capsys)
    assert main(search + ["--out", ok + ".csv", "--best-out", missing]) == 2
    assert "cannot write" in _one_error_line(capsys)
    chan_file, code_file = tmp_path / "chan.json", tmp_path / "code.json"
    chan_file.write_text(json.dumps(channel_to_json(bit_flip_channel(0.1))))
    code_file.write_text(json.dumps(code_to_json(bit_flip_code())))
    assert main(["check", str(chan_file), str(code_file), "--epsilon", "0.1",
                 "--out", missing]) == 2
    assert "cannot write" in _one_error_line(capsys)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_write_exits_2_with_one_line(tmp_path, capsys):
    grid = ["--gamma-stop", "0.02"]
    assert main(["sweep", "--curve", "ad:identity", *grid, "--out", "/dev/full"]) == 2
    assert _one_error_line(capsys).startswith("error: cannot write /dev/full: [Errno 28] ")
    assert main(["search", "--qubits", "2", "--codes", "1", *grid,
                 "--out", str(tmp_path / "s.csv"), "--best-out", "/dev/full"]) == 2
    assert _one_error_line(capsys).startswith("error: cannot write /dev/full: [Errno 28] ")


def test_search_checks_its_outputs_before_scoring(tmp_path, capsys, monkeypatch):
    import aqec.cli

    def never(args):
        raise AssertionError("scored a code before checking the outputs")

    monkeypatch.setattr(aqec.cli, "_search_one", never)
    out = tmp_path / "s.csv"
    assert main(["search", "--codes", "1", "--qubits", "2", "--gamma-stop", "0.02",
                 "--out", str(out), "--best-out",
                 str(tmp_path / "no-such-dir" / "best.json")]) == 2
    assert "does not exist" in _one_error_line(capsys)
    assert not out.exists()


def test_non_integer_thread_count_exits_2(tmp_path, capsys, monkeypatch):
    out = ["--out", str(tmp_path / "o.csv"), "--best-out", str(tmp_path / "b.json")]
    for value in ("two", "1.5", "", "0", "-2"):
        monkeypatch.setenv("AQEC_THREADS", value)
        assert main(["search", "--codes", "1", "--qubits", "2", "--gamma-stop", "0.02"]
                    + out) == 2
        assert "AQEC_THREADS" in _one_error_line(capsys)


def test_check_out_dash_prints_the_json_once(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    chan_file, code_file = tmp_path / "chan.json", tmp_path / "code.json"
    chan_file.write_text(json.dumps(channel_to_json(bit_flip_channel(0.1))))
    code_file.write_text(json.dumps(code_to_json(bit_flip_code())))
    assert main(["check", str(chan_file), str(code_file), "--epsilon", "0.1",
                 "--out", "-"]) == 0
    data = json.loads(capsys.readouterr().out)  # one JSON document, nothing after it
    assert data["verdict"] == "Correctable"
    assert not (tmp_path / "-").exists()


def test_search_best_out_dash_writes_standard_output(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    csv = tmp_path / "s.csv"
    assert main(["search", "--codes", "2", "--qubits", "2", "--gamma-stop", "0.1",
                 "--gamma-step", "0.1", "--out", str(csv), "--best-out", "-"]) == 0
    data = json.loads(capsys.readouterr().out)
    _, rows = _read_rows(csv)
    assert len(rows) == 3  # header + two codes
    assert [row["gamma"] for row in data["per_gamma"]] == [0.0, 0.1]
    assert not (tmp_path / "-").exists()


def test_search_rejects_both_outputs_on_standard_output(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["search", "--codes", "1", "--qubits", "2", "--gamma-stop", "0.02",
                 "--out", "-", "--best-out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.strip().splitlines()) == 1
    assert "standard output" in captured.err
    assert not (tmp_path / "-").exists()


def test_json_outputs_put_one_top_level_key_per_line(tmp_path, capsys):
    from aqec import aqec_diagnostics

    def assert_layout(text, keys):
        lines = text.split("\n")
        assert lines[0] == "{" and lines[-2:] == ["}", ""]  # ends with a newline
        assert len(lines) == len(keys) + 3
        for line, key in zip(lines[1:-2], keys):
            assert line.startswith(f" {json.dumps(key)}: ")

    channel = tensor_power(amplitude_damping(0.1), 3)
    code = random_code(8, 3, 0)
    chan_file, code_file = tmp_path / "chan.json", tmp_path / "code.json"
    chan_file.write_text(json.dumps(channel_to_json(channel)))
    code_file.write_text(json.dumps(code_to_json(code)))
    out = tmp_path / "check.json"
    assert main(["check", str(chan_file), str(code_file), "--epsilon", "0.05",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert out.read_bytes() == text.encode()
    diag = aqec_diagnostics(channel, code, 0.05)
    expected = diag.to_json_dict()
    assert expected["epsilon_f_epsilon_d"] == 0.05 * diag.f_epsilon_d
    assert json.loads(text) == expected
    assert_layout(text, list(expected))

    best = tmp_path / "best.json"
    assert main(["search", "--codes", "2", "--qubits", "2", "--gamma-stop", "0.1",
                 "--gamma-step", "0.1", "--out", str(tmp_path / "s.csv"),
                 "--best-out", str(best)]) == 0
    text = best.read_text()
    assert_layout(text, ["config", "best_index", "code_seed", "metric_value",
                         "per_gamma", "code"])
    assert json.loads(text)["code"]["code_dim"] == 2


def _config_line(path):
    (line,) = [l for l in path.read_text().splitlines() if l.startswith("# config:")]
    return json.loads(line[len("# config:"):])


def test_provenance_lines_pin_every_setting(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--gamma-stop", "0.02", "--out", str(out)]) == 0
    assert _config_line(out) == {
        "command": "sweep",
        "curves": ["ad:identity", "leung41:transpose", "leung41:leung", "five513:rperf"],
        "gamma_start": 0.0, "gamma_step": 0.01, "gamma_stop": 0.02,
        "samples": 1024, "seed": 0, "version": __version__,
    }
    # a --config file's values are written as given: an integer stays one
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma_stop": 1, "gamma_step": 0.25,
                               "curves": ["ad:identity", "leung41:transpose"]}))
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    config = _config_line(out)
    assert config == {
        "command": "sweep", "curves": ["ad:identity", "leung41:transpose"],
        "gamma_start": 0.0, "gamma_step": 0.25, "gamma_stop": 1,
        "samples": 1024, "seed": 0, "version": __version__,
    }
    assert isinstance(config["gamma_stop"], int)

    best = tmp_path / "best.json"
    assert main(["search", "--qubits", "3", "--codes", "3", "--gamma-stop", "0.2",
                 "--gamma-step", "0.1", "--metric", "f2_at:0.1", "--seed", "4",
                 "--out", str(out), "--best-out", str(best)]) == 0
    expected = {
        "command": "search", "n_qubits": 3, "code_dim": 2, "n_codes": 3,
        "gammas": [0.0, 0.1, 0.2], "seed": 4, "samples": 1024,
        "metric": "f2_at:0.1", "version": __version__,
    }
    assert _config_line(out) == expected
    config = json.loads(best.read_text())["config"]
    assert config == expected and list(config) == list(expected)


def test_malformed_curve_out_or_config_exits_2_with_one_line(tmp_path, capsys):
    sweep = ["sweep", "--gamma-stop", "0.02"]
    for curve, message in [("leung41", "not MODEL:RECOVERY"), ("ad:nosuch", "unknown recovery"),
                           ("nosuch:identity", "unknown model")]:
        assert main(sweep + ["--curve", curve, "--out", str(tmp_path / "o.csv")]) == 2
        assert message in _one_error_line(capsys)
    assert main(sweep + ["--curve", "ad:identity", "--out", str(tmp_path)]) == 2
    assert "it is a directory" in _one_error_line(capsys)
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert main(sweep + ["--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
    assert "is not a JSON object" in _one_error_line(capsys)


def test_worker_pool_pins_blas_and_restores_the_environment(monkeypatch):
    from aqec.cli import BLAS_THREAD_VARIABLES, _worker_pool

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "")
    before = dict(os.environ)
    with _worker_pool(1) as pool:
        # os.getenv reads os.environ.get in the worker (a bound method of
        # os.environ does not pickle)
        values = list(pool.map(os.getenv, BLAS_THREAD_VARIABLES, timeout=60))
    assert values == ["1", "1", "1"]
    assert dict(os.environ) == before


@pytest.mark.parametrize("command", ["sweep", "search"])
def test_samples_over_the_limit_exit_2_before_scoring(tmp_path, capsys, monkeypatch, command):
    # --samples once bounded no work: 2^31 samples ran for ten minutes
    import time

    import aqec.cli as cli

    def no_scoring(*args):
        raise AssertionError("a refused run scored")

    monkeypatch.setattr(cli, "_score_curves", no_scoring)
    out = ["--out", str(tmp_path / "o.csv")]
    if command == "search":
        out += ["--qubits", "2", "--code-dim", "3", "--codes", "1", "--gamma-stop", "0",
                "--best-out", str(tmp_path / "b.json")]
    cfg = tmp_path / "cfg.json"
    for samples in (cli.MAX_COUNT + 1, 2**31):
        cfg.write_text(json.dumps({"samples": samples}))
        for route in (["--samples", str(samples)], ["--config", str(cfg)]):
            start = time.perf_counter()
            assert main([command, *route, *out]) == 2
            assert time.perf_counter() - start < 0.5
            err = _one_error_line(capsys)
            assert str(samples) in err and str(cli.MAX_COUNT) in err
    assert not (tmp_path / "o.csv").exists()


def test_samples_at_the_limit_are_accepted(tmp_path):
    # an exact qubit curve draws no samples, so the largest count costs nothing
    from aqec.cli import MAX_COUNT

    out = tmp_path / "o.csv"
    assert main(["sweep", "--curve", "ad:identity", "--gamma-stop", "0", "--samples",
                 str(MAX_COUNT), "--out", str(out)]) == 0
    assert f'"samples": {MAX_COUNT}' in out.read_text()

