"""The exact-qubit CLI outputs, pinned.

tests/data holds the outputs of four runs on qubit codes (d = 2), whose
worst cases are certified minima and so do not depend on a sample
stream: the default `aqec sweep` CSV, `aqec search --qubits 4 --codes 5`
with its best-code JSON, and `aqec check` on three-qubit damping with a
Haar code and on the bit-flip pair.  Each run is repeated through
aqec.cli.main and compared number by number to within GOLDEN_TOL, labels
exactly; the `# generated:` line and the `version` key are skipped.
Sampled d > 2 values are left out, as they may differ across LAPACK
builds.
"""

import json
import math
from pathlib import Path

import pytest

from aqec import amplitude_damping, channel_to_json, code_to_json, random_code, tensor_power
from aqec.cli import main

from helpers import bit_flip_channel, bit_flip_code

DATA = Path(__file__).resolve().parent / "data"
GOLDEN_TOL = 1e-12


def _same(got, want, where="") -> None:
    """Assert that two parsed JSON values agree: numbers to GOLDEN_TOL,
    everything else exactly, any `version` key skipped."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), where
        for key in want:
            if key != "version":
                _same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _same(g, w, f"{where}[{i}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert math.isclose(got, want, rel_tol=0.0, abs_tol=GOLDEN_TOL), (where, got, want)
    else:
        assert got == want, (where, got, want)


def _field(text: str):
    """A CSV field as a number when it reads as one, else the string."""
    try:
        return float(text)
    except ValueError:
        return text


def _same_csv(got_path: Path, want_path: Path) -> None:
    got, want = got_path.read_text().splitlines(), want_path.read_text().splitlines()
    assert got[0].startswith("# generated: ") and want[0].startswith("# generated: ")
    tag = "# config: "
    assert got[1].startswith(tag) and want[1].startswith(tag)
    _same(json.loads(got[1][len(tag):]), json.loads(want[1][len(tag):]), "config")
    assert got[2] == want[2]  # header
    assert len(got) == len(want)
    for n, (g, w) in enumerate(zip(got[3:], want[3:]), start=4):
        _same([_field(x) for x in g.split(",")], [_field(x) for x in w.split(",")],
              f"line {n}")


def _same_json(got_path: Path, want_path: Path) -> None:
    _same(json.loads(got_path.read_text()), json.loads(want_path.read_text()))


def test_default_sweep_matches_golden(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--out", str(out)]) == 0
    _same_csv(out, DATA / "sweep_default.csv")


def test_qubit_search_matches_golden(tmp_path):
    out, best = tmp_path / "search.csv", tmp_path / "best.json"
    assert main(["search", "--qubits", "4", "--codes", "5", "--out", str(out),
                 "--best-out", str(best)]) == 0
    _same_csv(out, DATA / "search_q4_codes5.csv")
    _same_json(best, DATA / "search_q4_codes5_best.json")


_CHECK_PAIRS = {
    "damping3_code8x2": lambda: (tensor_power(amplitude_damping(0.1), 3), random_code(8, 2, 0)),
    "bitflip": lambda: (bit_flip_channel(0.1), bit_flip_code()),
}


@pytest.mark.parametrize("name", list(_CHECK_PAIRS))
def test_qubit_check_matches_golden(tmp_path, name):
    channel, code = _CHECK_PAIRS[name]()
    chan_file, code_file = tmp_path / "chan.json", tmp_path / "code.json"
    chan_file.write_text(json.dumps(channel_to_json(channel)))
    code_file.write_text(json.dumps(code_to_json(code)))
    out = tmp_path / "check.json"
    assert main(["check", str(chan_file), str(code_file), "--epsilon", "0.05",
                 "--out", str(out)]) == 0
    _same_json(out, DATA / f"check_{name}.json")
