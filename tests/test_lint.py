"""Source hygiene of the package modules: no unused imports, no dead privates,
no exported name that only tests read.

`__init__.py` is left out: it only re-exports. A module-level `_name` counts
as used when any module of the package reads it, by name, as an attribute or
through an import. A name in a module's `__all__` counts as reached when
program code reads it outside its own definition: a package module or one
of perfbench's scripts.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "mvring"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TREES = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
PERFBENCH_TREES = [ast.parse(p.read_text(encoding="utf-8"))
                   for p in sorted((SRC.parents[1] / "perfbench").glob("*.py"))
                   if not p.name.startswith("test_")]

# exported references that only tests read, to check runtime code against
TEST_ONLY = {"data.point_depth_px", "geometry.project_rotated_x",
             "metrics.read_ppm", "tensor.linear_recurrence"}


def exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def imported(tree):
    """Name bound by each import statement -> its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out[(alias.asname or alias.name).split(".")[0]] = node.lineno
    return out


def names_read(tree):
    return {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}


def references(tree):
    """Names read bare or as attributes, plus the names `from` imports take."""
    out = names_read(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def module_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name):
                        yield n.id


@pytest.mark.parametrize("name", sorted(TREES))
def test_no_unused_imports(name):
    tree = TREES[name]
    used = names_read(tree) | exported(tree)
    unused = {n: line for n, line in imported(tree).items() if n not in used}
    assert not unused, f"{name} imports names it never uses: {unused}"


@pytest.mark.parametrize("name", sorted(TREES))
def test_private_names_are_referenced(name):
    used = set().union(*map(references, TREES.values()))
    dead = [n for n in module_names(TREES[name])
            if n.startswith("_") and not n.startswith("__") and n not in used]
    assert not dead, f"{name} defines private names nothing reads: {dead}"


def read_by_program(module, name):
    """Whether a package module or perfbench reads `name`, leaving out
    `module`'s own top-level definition of it."""
    own = [n for n in TREES[module].body if getattr(n, "name", None) != name]
    trees = [t for m, t in TREES.items() if m != module] + PERFBENCH_TREES + own
    return any(name in references(t) for t in trees)


@pytest.mark.parametrize("name", sorted(TREES))
def test_exported_names_are_read_by_the_program(name):
    unread = [n for n in sorted(exported(TREES[name]))
              if f"{name[:-3]}.{n}" not in TEST_ONLY and not read_by_program(name, n)]
    assert not unread, f"{name} exports names only tests read: {unread}"


def test_test_only_names_are_exported_and_unread():
    for entry in sorted(TEST_ONLY):
        stem, n = entry.split(".")
        assert n in exported(TREES[f"{stem}.py"]), entry
        assert not read_by_program(f"{stem}.py", n), f"{entry} is read by the program"
