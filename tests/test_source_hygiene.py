"""Every name a module imports is used: deletions must take their imports along.

A name counts as used when the module reads it anywhere (annotations too) or
re-exports it through ``__all__``.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "cnapwp").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`; `import a.b as c` and `from a import b` bind the alias or `b`.
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | exported_names(tree)
    return [f"line {line}: {name}" for name, line in imported_names(tree).items() if name not in used]


def test_modules_are_found():
    assert {"model.py", "engine.py", "cli.py", "make_pools.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_unused_names_and_spares_used_ones():
    source = (
        "from __future__ import annotations\n"
        "import os, xml.etree.ElementTree\n"
        "import numpy as np\n"
        "from typing import Iterator, Sequence\n"
        "from .model import softmax\n"
        "__all__ = ['softmax']\n"
        "def f(x: Sequence[int]) -> int:\n"
        "    return np.sum(x)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 2: xml", "line 4: Iterator"]
