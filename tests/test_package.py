import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import aqec


def test_public_names_are_an_explicit_list():
    assert len(set(aqec.__all__)) == len(aqec.__all__)
    for name in aqec.__all__:
        assert not isinstance(getattr(aqec, name), types.ModuleType), name
    # every name imported from the package by the tests, the README's
    # python blocks or a `python -c` line of the CI workflow
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text()
    blocks = [b.split("```", 1)[0] for b in readme.split("```python\n")[1:]]
    sources = [path.read_text() for path in Path(__file__).parent.glob("*.py")]
    imported = set()
    for text in sources + blocks:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.module == "aqec":
                imported.update(alias.name for alias in node.names)
    ci = (root / ".github" / "workflows" / "tier1.yml").read_text()
    ci_names = {name.strip() for names in re.findall(r"from aqec import ([\w, ]+)", ci)
                for name in names.split(",")}
    assert blocks and ci_names
    assert (imported | ci_names) - {"__version__"} <= set(aqec.__all__)


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
    # imported only when AQEC_THREADS asks for worker processes; the result
    # records are NamedTuples, so dataclasses is never imported.
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import sys, aqec.cli; "
        "print([m for m in ('concurrent.futures', 'logging', 'multiprocessing', 'dataclasses') "
        "if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_readme_library_tour_runs_and_prints_what_its_comments_claim(capsys):
    # The README's first python block, executed as written, so a name it
    # imports cannot leave the package unnoticed.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    assert "from aqec import" in block
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    capsys.readouterr()
    cert, res = namespace["cert"], namespace["res"]
    assert cert.satisfied is False and abs(cert.residual - 0.05) <= 1e-3  # False, ~0.05
    assert res.method == "exact_unital_qubit" and abs(res.f2_min - 0.9833) <= 1e-4


def test_every_module_level_name_and_import_in_src_is_used():
    # A function, class or assigned name at module level is loaded
    # somewhere in src/ (as a name or an attribute) or is public; an
    # imported name is loaded by the module that imports it, or listed in
    # that module's __all__.
    trees = {path.stem: ast.parse(path.read_text())
             for path in Path(aqec.__file__).parent.glob("*.py")}

    def names_loaded(tree):
        return {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}

    loaded = set().union(*map(names_loaded, trees.values())) | {
        node.attr for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)}
    unused, unread = [], []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unused += [f"{module}.{name}" for name in defined
                       if name not in loaded and name not in aqec.__all__
                       and not (name.startswith("__") and name.endswith("__"))]
        here = names_loaded(tree)
        exported = set(aqec.__all__) if module == "__init__" else set()
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            names = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
            unread += [f"{module}: {name}" for name in names
                       if name not in here and name not in exported]
    assert unused == [] and unread == []



@pytest.mark.parametrize("d, call", [
    (2, lambda e, code: aqec.random_code(16, 2, -1)),
    (2, lambda e, code: aqec.random_code(16, 2, 1.5)),
    (3, lambda e, code: aqec.worst_case_fidelity(e, None, code, seed=-1)),
    (3, lambda e, code: aqec.transpose_fidelity_grid(e.kraus[None], code, samples=1.5)),
    (2, lambda e, code: aqec.example5_channel(2.5, 0.1)),
    (2, lambda e, code: aqec.near_optimality_bound_check(e, code, ["x"])),
    (2, lambda e, code: aqec.amplitude_damping("0.1")),
], ids=["negative seed", "fractional seed", "d = 3 negative seed", "fractional samples",
        "fractional d", "recovery not a channel", "gamma as a string"])
def test_library_scalars_pass_the_input_gate(d, call):
    # "Every library failure raises a subclass of AqecError": each call
    # once raised numpy's ValueError, a TypeError or an AttributeError, or
    # read a string as a number
    from aqec.exceptions import AqecError

    e = aqec.tensor_power(aqec.amplitude_damping(0.1), 3)
    with pytest.raises(AqecError):
        call(e, aqec.random_code(8, d, 0))
