import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import aqec


def test_public_names_are_an_explicit_list():
    assert len(set(aqec.__all__)) == len(aqec.__all__)
    for name in aqec.__all__:
        assert not isinstance(getattr(aqec, name), types.ModuleType), name
    imported = set()
    for path in Path(__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "aqec":
                imported.update(alias.name for alias in node.names)
    assert imported - {"__version__"} <= set(aqec.__all__)


def test_import_pulls_in_no_scipy():
    # scipy is a test-only dependency: the package and its CLI run on numpy.
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import sys, aqec, aqec.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_process_pool_modules():
    # concurrent.futures (which loads logging) and multiprocessing are
    # imported only when AQEC_THREADS asks for worker processes.
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import sys, aqec.cli; "
        "print([m for m in ('concurrent.futures', 'logging', 'multiprocessing') "
        "if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
