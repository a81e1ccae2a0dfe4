"""Source hygiene of the package modules: no unused imports, no dead privates,
no exported name that only tests read, no class member that the program
does not read.

`__init__.py` is left out: it only re-exports. A module-level `_name` counts
as used when any module of the package reads it, by name, as an attribute or
through an import. A name in a module's `__all__` counts as reached when
program code reads it outside its own definition: a package module or one
of perfbench's scripts. `reference.py` holds the oracles the tests check the
program against, so only tests read its exports, and no other package
module may import it.
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


@pytest.mark.parametrize("name", sorted(set(TREES) - {"reference.py"}))
def test_exported_names_are_read_by_the_program(name):
    unread = [n for n in sorted(exported(TREES[name])) if not read_by_program(name, n)]
    assert not unread, f"{name} exports names only tests read: {unread}"


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "reference.py"], ids=lambda p: p.name)
def test_program_modules_do_not_import_the_reference_module(path):
    imported_paths = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imported_paths.add(node.module or "")
            imported_paths.update(f"{node.module}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Import):
            imported_paths.update(a.name for a in node.names)
    assert not [p for p in imported_paths if p.split(".")[-1] == "reference"], \
        f"{path.name} imports the reference module"


def attributes_read(tree):
    """Attribute names read as `obj.name` (load context)."""
    return {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def is_dataclass(cls):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in cls.decorator_list)


def public_members(cls):
    """A class's public methods and properties, and a dataclass's fields."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name
        elif isinstance(node, ast.AnnAssign) and is_dataclass(cls):
            yield node.target.id


def test_class_members_are_read():
    """Every public method, property or dataclass field of a package class
    is read as an attribute, `obj.name`, by a package module or one of
    perfbench's scripts. Reads in tests do not count, and neither does a
    local variable or keyword argument of the same name."""
    read = set().union(*map(attributes_read, list(TREES.values()) + PERFBENCH_TREES))
    unread = [f"{name}:{cls.name}.{member}"
              for name, tree in TREES.items() for cls in tree.body
              if isinstance(cls, ast.ClassDef)
              for member in public_members(cls)
              if not member.startswith("_") and member not in read]
    assert not unread, f"class members only tests read, or nothing: {unread}"


# the entry point: a caller passes argv only to drive it in-process
UNSET_DEFAULTS_ALLOWED = {"cli.main.argv"}


def defaulted_parameters(tree):
    """(qualified name, parameter, positional index or None, bound offset,
    default) for every parameter with a default. The offset is 1 for a
    method bound to its instance or class, so a call's first argument fills
    the second parameter; __init__ is qualified by its class, as its callers
    name it."""
    def visit(body, owner):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from visit(node.body, node)
            elif isinstance(node, ast.FunctionDef):
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in node.decorator_list)
                offset = int(owner is not None and not static)
                name = owner.name if node.name == "__init__" else node.name
                a = node.args
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                for i, (arg, default) in enumerate(
                        zip(positional[first:], a.defaults), first):
                    yield name, arg.arg, i, offset, default
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        yield name, arg.arg, None, offset, default
                yield from visit(node.body, None)
    yield from visit(tree.body, None)


def calls_by_name(trees):
    """Callee name -> its call nodes."""
    out = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                out.setdefault(name, []).append(node)
    return out


def passed_values(call, param, index):
    """The nodes `call` passes for a parameter, by keyword or at positional
    `index`; None stands for a value passed through * or **, unseen."""
    out = [k.value for k in call.keywords if k.arg == param]
    if any(k.arg is None for k in call.keywords):
        out.append(None)
    if index is not None and any(isinstance(a, ast.Starred) for a in call.args):
        out.append(None)
    elif index is not None and index < len(call.args):
        out.append(call.args[index])
    return out


def literal(node):
    """(type, value) of a literal node, or None for any other expression."""
    try:
        value = ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return None
    return type(value), value


def test_defaulted_parameters_are_set_by_the_program():
    """A defaulted parameter of a runtime module that no package module or
    perfbench script sets, by keyword, by position or through * or **, to
    anything but its own default literal is a constant: it belongs in the
    body, not the signature."""
    calls = calls_by_name(list(TREES.values()) + PERFBENCH_TREES)
    unset = []
    for mod, tree in TREES.items():
        for fn, param, index, offset, default in defaulted_parameters(tree):
            qual = f"{mod[:-3]}.{fn}.{param}"
            if qual in UNSET_DEFAULTS_ALLOWED:
                continue
            own = literal(default)
            pos = None if index is None else index - offset
            if not any(v is None or own is None or literal(v) != own
                       for call in calls.get(fn, ())
                       for v in passed_values(call, param, pos)):
                unset.append(qual)
    assert not unset, f"defaulted parameters no program caller sets off " \
        f"their default: {unset}"
