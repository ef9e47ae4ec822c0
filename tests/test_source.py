"""Tests that read sdeq's source: the layers never import the front end,
and every dotted name a docstring cites between double backquotes
exists."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import sdeq

PACKAGE = Path(sdeq.__file__).resolve().parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def _imports_cli(node) -> bool:
    """True for an import of sdeq.cli, absolute or relative."""
    if isinstance(node, ast.Import):
        return any(alias.name == "sdeq.cli" for alias in node.names)
    if not isinstance(node, ast.ImportFrom):
        return False
    # from .cli import ..., from sdeq.cli import ...
    if node.module == "sdeq.cli" or (node.level == 1 and node.module == "cli"):
        return True
    # from . import cli, from sdeq import cli
    package = (node.level == 1 and node.module is None) or node.module == "sdeq"
    return package and any(alias.name == "cli" for alias in node.names)


@pytest.mark.parametrize("module", [m for m in MODULES if m != "__main__"])
def test_no_layer_imports_the_front_end(module):
    # at module level or inside a function: every node of the module
    found = [node.lineno for node in ast.walk(_tree(module)) if _imports_cli(node)]
    assert not found, f"sdeq.{module} imports sdeq.cli at lines {found}"


def test_the_import_check_sees_every_form():
    forms = [
        "from .cli import run",
        "from . import cli",
        "from sdeq.cli import run",
        "from sdeq import cli",
        "import sdeq.cli",
        "def f():\n    from .cli import EXIT_OK",
    ]
    for source in forms:
        assert any(map(_imports_cli, ast.walk(ast.parse(source)))), source
    for source in ["from .rational import cli", "from . import rational", "import cli_tools"]:
        assert not any(map(_imports_cli, ast.walk(ast.parse(source)))), source


# a dotted name between double backquotes, such as ``orbit.Telescoping.entries``
CITED = re.compile(r"``([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)``")


def _docstrings(module: str):
    """Every docstring of the module, its classes and its functions."""
    for node in ast.walk(_tree(module)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            text = ast.get_docstring(node, clean=False)
            if text:
                yield text


def _heads() -> dict:
    """What a cited name may start with: the package, each module by its
    name and as sdeq.<module>, and each class of the package."""
    heads = {"sdeq": sdeq}
    for module in MODULES:
        if module in ("__init__", "__main__"):  # the package; the CLI, if imported
            continue
        layer = importlib.import_module(f"sdeq.{module}")
        heads[module] = layer
        for node in _tree(module).body:
            if isinstance(node, ast.ClassDef):
                heads[node.name] = getattr(layer, node.name)
    return heads


def _resolves(value, parts) -> bool:
    for part in parts:
        if not hasattr(value, part):
            return False
        value = getattr(value, part)
    return True


def test_every_cited_name_exists():
    heads = _heads()
    missing = []
    for module in MODULES:
        for text in _docstrings(module):
            for name in CITED.findall(text):
                head, *parts = name.split(".")
                if head in heads and not _resolves(heads[head], parts):
                    missing.append(f"{module}: {name}")
    assert not missing
