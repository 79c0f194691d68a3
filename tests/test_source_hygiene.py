"""Every name a module imports is used, and every function, class and method
it defines is referenced: deletions must take their imports along, and code
that only tests reach does not stay in the program. Every file opened as text
names its encoding, so what a run writes and reads does not follow the locale.

An imported name counts as used when the module reads it anywhere
(annotations too) or re-exports it through ``__all__``. A defined name counts
as referenced when the program or the benchmark harness names it: as a
variable, an attribute or a string constant, so the tracer's wrap table and
``__all__`` count.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "cnapwp").glob("*.py"), *(ROOT / "scripts").glob("*.py")])
REFERENCING = [*MODULES, *sorted((ROOT / "perfbench").glob("*.py"))]
# ROADMAP item 3 gives the loss its caller in src/: train_window reports each pass's loss through it.
UNREFERENCED_ALLOWED = {"mean_cross_entropy"}


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


def unreferenced_definitions(defining: list[str], referencing: list[str]) -> list[str]:
    """Non-dunder functions, classes and methods defined in ``defining`` sources
    that no ``referencing`` source names, sorted."""
    used = set()
    for source in referencing:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    defined = {
        node.name
        for source in defining
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }
    return sorted(defined - used)


def unencoded_text_io(source: str) -> list[str]:
    """Calls of ``open`` in a mode without ``b``, and of ``.read_text``/``.write_text``,
    that pass no ``encoding=``, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call) or any(keyword.arg == "encoding" for keyword in node.keywords):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("read_text", "write_text"):
            found.append((node.lineno, func.attr))
        elif isinstance(func, ast.Name) and func.id == "open":
            modes = [*node.args[1:2], *(keyword.value for keyword in node.keywords if keyword.arg == "mode")]
            binary = modes and isinstance(modes[0], ast.Constant) and "b" in str(modes[0].value)
            if not binary:
                found.append((node.lineno, "open"))
    return [f"line {line}: {name}" for line, name in sorted(found)]


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


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_text_files_name_their_encoding(path):
    assert unencoded_text_io(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_text_io_without_an_encoding():
    source = (
        "from pathlib import Path\n"
        "with open('a.csv', 'w', newline='') as fh: pass\n"
        "with open('a.csv', encoding='utf-8') as fh: pass\n"
        "with open('a.bin', 'rb') as fh: pass\n"
        "with open('a.bin', mode='wb') as fh: pass\n"
        "with open('a.txt', mode='r') as fh: pass\n"
        "Path('s.json').read_text()\n"
        "Path('s.json').write_text('{}', encoding='utf-8')\n"
        "Path('s.json').write_text('{}')\n"
        "Path('s.json').read_bytes()\n"
    )
    assert unencoded_text_io(source) == ["line 2: open", "line 6: open", "line 7: read_text", "line 9: write_text"]


def test_every_definition_is_referenced_by_the_program():
    unreferenced = unreferenced_definitions(
        [path.read_text() for path in MODULES], [path.read_text() for path in REFERENCING]
    )
    assert [name for name in unreferenced if name not in UNREFERENCED_ALLOWED] == []
    assert UNREFERENCED_ALLOWED <= set(unreferenced), "an allow-list entry is referenced now: drop it"


def test_the_check_sees_unreferenced_definitions_and_spares_referenced_ones():
    defining = (
        "class Tree:\n"
        "    def __len__(self): return 0\n"
        "    def insert(self, path): pass\n"
        "    def extend(self, case, activity): pass\n"
        "    def wrapped(self): pass\n"
        "def helper(): pass\n"
        "def orphan(): pass\n"
    )
    referencing = (
        "tree = Tree()\n"
        "tree.extend('c', 'a')\n"
        "helper()\n"
        "WRAPS = [('cnapwp.tree', 'wrapped')]\n"
    )
    assert unreferenced_definitions([defining], [defining, referencing]) == ["insert", "orphan"]
