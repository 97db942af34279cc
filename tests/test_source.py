"""Checks on the library's own source, read with `ast`."""

import ast
import pathlib
from collections import Counter

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fairchk"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _self_calls(tree: ast.Module) -> list[str]:
    """The functions that call themselves by name, as `Class.method` or
    `function`, outside the class `_Parser`: a method through `self.`, any
    other function through its bare name."""
    found = []

    def visit(node: ast.AST, owner: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if child.name != "_Parser":
                    visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for call in ast.walk(child):
                    if not isinstance(call, ast.Call):
                        continue
                    f = call.func
                    if owner is None and isinstance(f, ast.Name) and f.id == child.name:
                        found.append(child.name)
                    elif (owner is not None and isinstance(f, ast.Attribute)
                          and f.attr == child.name and isinstance(f.value, ast.Name)
                          and f.value.id == "self"):
                        found.append(f"{owner}.{child.name}")
                visit(child, None)

    visit(tree, None)
    return found


def _unused_imports(tree: ast.Module) -> list[str]:
    """Imported names that nothing in the module reads; a name listed in
    `__all__` is read by the package's users."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


def _exported(tree: ast.Module) -> set[str]:
    """The names listed in the module's `__all__`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            out.update(ast.literal_eval(node.value))
    return out


def _names(node: ast.AST) -> Counter:
    """How often each name is read under node, as a name or as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _unnamed_functions(trees: dict[str, ast.Module]) -> list[str]:
    """The functions and methods that no module names outside their own
    body: as a name, as an attribute or in `__all__`. Python itself calls
    the dunder methods."""
    named = Counter()
    for tree in trees.values():
        named += _names(tree) + Counter(_exported(tree))
    return sorted(f"{module}: {node.name} (line {node.lineno})"
                  for module, tree in trees.items() for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not (node.name.startswith("__") and node.name.endswith("__"))
                  and named[node.name] == _names(node)[node.name])


def _exported_only(trees: dict[str, ast.Module]) -> list[str]:
    """The functions that no module names outside their own body except in
    `__all__`: only the package's users can call them."""
    named = Counter()
    exported = set()
    for tree in trees.values():
        named += _names(tree)
        exported |= _exported(tree)
    return sorted(f"{module}: {node.name}"
                  for module, tree in trees.items() for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.name in exported and named[node.name] == _names(node)[node.name])


# The functions the package exports that nothing in it calls: its library
# entry points, each documented in the README. A function that only
# `__all__` names and that is not on this list serves only the tests, and
# belongs in `tests/`.
ENTRY_POINTS = {"subtyping.py: unfair_subtype", "surface.py: render_program",
                "types.py: dual", "types.py: is_bounded"}


# The fields of a syntax node that hold processes.
PROCESS_FIELDS = frozenset({"left", "right", "cont", "branches", "body"})


def _process_field_reads(tree: ast.Module) -> list[str]:
    """Every read of a process-valued field of a node, as `field (line n)`."""
    reads = [n for n in ast.walk(tree) if isinstance(n, ast.Attribute)
             and n.attr in PROCESS_FIELDS and isinstance(n.ctx, ast.Load)]
    return [f"{n.attr} (line {n.lineno})"
            for n in sorted(reads, key=lambda n: (n.lineno, n.col_offset))]


def test_only_surface_reads_process_fields():
    # past the front end every pass moves along `Program.kids` and
    # `Program.start`, never along the fields of a syntax node
    reads = {p.name: _process_field_reads(_tree(p)) for p in MODULES if p.name != "surface.py"}
    assert {name: found for name, found in reads.items() if found} == {}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_recursion_outside_the_parser(path):
    # every walk over a tree or a graph runs on an explicit stack, so the
    # depth of the input costs no frames; the parser is the one exception
    assert _self_calls(_tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(_tree(path)) == []


def test_every_function_is_named_somewhere_else():
    # a function nothing names is dead code
    assert _unnamed_functions({p.name: _tree(p) for p in MODULES}) == []


def test_every_export_that_nothing_calls_is_an_entry_point():
    assert set(_exported_only({p.name: _tree(p) for p in MODULES})) <= ENTRY_POINTS


def test_the_checks_find_what_they_look_for():
    tree = ast.parse(
        "import os\n"
        "from json import dumps, loads as ld\n"
        "def f(n):\n"
        "    return f(n - 1) + len(dumps(n))\n"
        "class A:\n"
        "    def g(self):\n"
        "        return self.g()\n"
        "class _Parser:\n"
        "    def h(self):\n"
        "        return self.h()\n")
    assert _self_calls(tree) == ["f", "A.g"]
    assert _unused_imports(tree) == ["ld (line 2)", "os (line 1)"]
    walker = ast.parse(
        "def step(th, d):\n"
        "    th.proc = th.proc.cont\n"
        "    label, _ = th.proc.branches[0]\n"
        "    return d.body, th.proc.chan, th.proc.labels\n")
    assert _process_field_reads(walker) == [
        "cont (line 2)", "branches (line 3)", "body (line 4)"]
    dead = ast.parse(
        "__all__ = ['api']\n"
        "def api():\n"
        "    return helper()\n"
        "def helper():\n"
        "    return Box()\n"
        "def loop(n):\n"
        "    return loop(n - 1)\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.x = 0\n"
        "    def used(self):\n"
        "        pass\n"
        "    def stale(self):\n"
        "        pass\n")
    user = ast.parse("from dead import Box\nBox().used()\n")
    assert _unnamed_functions({"dead.py": dead, "user.py": user}) == [
        "dead.py: loop (line 6)", "dead.py: stale (line 13)"]
    assert _exported_only({"dead.py": dead, "user.py": user}) == ["dead.py: api"]
    assert len(MODULES) > 5
