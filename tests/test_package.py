import ast
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
