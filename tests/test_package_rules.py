"""Rules the fskit package keeps: no assert statements (they vanish under
python -O, so they cannot guard anything), and standard-library imports
only."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "fskit").glob("*.py"))


def test_sources_found():
    assert any(path.name == "eppm.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert on lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_standard_library_or_fskit(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    foreign = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        foreign += [n for n in names if n.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == [], f"{path.name}: imports {foreign}"
