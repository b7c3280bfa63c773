"""Rules the fskit package keeps: no assert statements (they vanish under
python -O, so they cannot guard anything), standard-library imports only,
no module reaching into another's _-prefixed names, no top-level
definition that nothing in the package uses, and no method or property
that nothing in the package or the benchmark reads, unless the README
documents it (test-only helpers live in tests/)."""

import ast
import sys
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "fskit").glob("*.py"))
# the benchmark drives the package from outside it, so what it reads counts
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))

# Library entry points that no other fskit definition uses, each with the
# README text that documents it; a method or property is named
# "Class.member".
DOCUMENTED = {
    ("dynamics", "germ_at"): "`germ_at(f, p)`",
    ("dynamics", "support"): "`support(f)`",
    ("eppm", "region_subset"): "`region_subset(f, g)`",
    ("presentation", "enumerate_good_words"): "`enumerate_good_words(cls, max_len)`",
}


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_private_names_of_another_module(path):
    """A module's _-prefixed names are its own: no other fskit module
    imports one, or reads one off the module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    relative = [
        node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1
    ]
    modules = {
        alias.asname or alias.name
        for node in relative
        if node.module is None
        for alias in node.names
    }
    private = [
        f"{node.module}.{alias.name}"
        for node in relative
        if node.module is not None
        for alias in node.names
        if alias.name.startswith("_")
    ]
    private += [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and node.attr.startswith("_")
    ]
    assert private == [], f"{path.name}: uses {private}"


def _top_level_definitions(tree: ast.Module):
    """(name, node) for every top-level function, class and constant,
    dunder names apart."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if not name.startswith("__"):
                yield name, node


def _references(module: str, tree: ast.Module):
    """((module, name), node) for every use of a top-level fskit name in
    `tree`, with the top-level node it occurs in: bare names of the module
    itself, names imported with `from .other import name`, and attributes
    of modules imported with `from . import other`."""
    imported: dict[str, tuple[str, str]] = {}
    modules: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    imported[alias.asname or alias.name] = (node.module, alias.name)
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield imported.get(node.id, (module, node.id)), top
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                yield (modules[node.value.id], node.attr), top


def _exported() -> set[tuple[str, str]]:
    """(module, name) for every name in fskit.__all__, through the
    imports of fskit/__init__.py."""
    tree = _package()["__init__"]
    origin = {
        alias.asname or alias.name: (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    }
    (listed,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    ]
    return {origin[ast.literal_eval(elt)] for elt in listed.elts}


@cache
def _package() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}


@cache
def _benchmark() -> list[ast.Module]:
    return [ast.parse(path.read_text(encoding="utf-8")) for path in BENCHMARK]


@cache
def _used() -> frozenset[tuple[str, str]]:
    """(module, name) of every top-level definition that another top-level
    definition of the package uses."""
    trees = _package()
    defined = {
        (module, name): node
        for module, tree in trees.items()
        for name, node in _top_level_definitions(tree)
    }
    return frozenset(
        key
        for module, tree in trees.items()
        for key, top in _references(module, tree)
        if key in defined and defined[key] is not top
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_definition_is_used_or_documented(path):
    """Every top-level function, class and constant of src/fskit is used by
    another definition of the package (the CLI counts), exported in
    fskit.__all__, or a README-documented entry point in DOCUMENTED."""
    names = {(path.stem, name) for name, _ in _top_level_definitions(_package()[path.stem])}
    unused = sorted(names - _used() - _exported() - set(DOCUMENTED))
    assert unused == [], f"{path.name}: nothing in src/fskit uses {unused}"


def _members(tree: ast.Module):
    """("Class.member", node) for every method and property of a top-level
    class, dunder names apart."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                    yield f"{cls.name}.{node.name}", node


def _unread_members(package: dict[str, ast.Module], readers: list[ast.Module]):
    """(module, "Class.member") for every member of `package` whose name no
    attribute read in `package` or `readers` names, outside the member's
    own body.  The match is by name alone: a read of any attribute of that
    name counts, as the CLI's `args.point` would for a method `point`."""
    loads: dict[str, list[ast.Attribute]] = {}
    for tree in [*package.values(), *readers]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.setdefault(node.attr, []).append(node)
    unread = []
    for module, tree in package.items():
        for name, member in _members(tree):
            own = {id(node) for node in ast.walk(member)}
            if all(id(node) in own for node in loads.get(member.name, [])):
                unread.append((module, name))
    return sorted(set(unread) - set(DOCUMENTED))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_member_is_read_or_documented(path):
    """Every method and property of a src/fskit class is read as an
    attribute somewhere in src/fskit or perfbench outside its own body, or
    a README-documented entry point in DOCUMENTED."""
    unread = [
        name for module, name in _unread_members(_package(), _benchmark()) if module == path.stem
    ]
    assert unread == [], f"{path.name}: nothing in src/fskit or perfbench reads {unread}"


def test_member_rule_flags_unread_members():
    planted = ast.parse(
        "class Planted:\n"
        "    def unread(self):\n"
        "        return self.unread()\n"
        "    @property\n"
        "    def unread_property(self):\n"
        "        return 0\n"
        "    def read(self):\n"
        "        return 1\n"
        "def use(p):\n"
        "    return p.read()\n"
    )
    assert _unread_members({"planted": planted}, []) == [
        ("planted", "Planted.unread"),
        ("planted", "Planted.unread_property"),
    ]


@pytest.mark.parametrize("key", sorted(DOCUMENTED), ids=".".join)
def test_documented_entry_points_exist_and_are_in_the_readme(key):
    module, name = key
    tree = _package()[module]
    assert name in dict(_top_level_definitions(tree)) | dict(_members(tree))
    assert DOCUMENTED[key] in (ROOT / "README.md").read_text(encoding="utf-8")
