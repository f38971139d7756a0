"""Every top-level definition and every method in `src/facadesim/` has a
user, every function parameter there is read, and no fallback is written
as an exception that its own code catches.

A function, class or module-level name must be used somewhere in `src/`
(its own module included), be exported in `facadesim.__all__`, or be a name
that perfbench's traced runs wrap.  A method or property of a class must be
read as an attribute somewhere in `src/` or in `perfbench/*.py`, or be a
method that perfbench's traced runs wrap.  A name that a module imports
unused, under `# noqa: F401`, must be one that perfbench wraps in that
module, and any other imported name must be read in the module that
imports it.  Anything else is code that only tests reach, or none.  perfbench
is imported read-only, as in `test_bench_hooks.py`, and its sources are
parsed, not run.  A parameter that its function never reads is an input
that cannot change what the function does.
"""

import ast
import sys
from pathlib import Path

import facadesim

_SRC = Path(facadesim.__file__).resolve().parent
_PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, _PERFBENCH)
try:
    import workloads
finally:
    sys.path.remove(_PERFBENCH)


def _top_level_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            yield node.target.id


def _used_names(tree: ast.Module) -> set:
    """Names read anywhere in the module, as a bare name or an attribute."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_src_definition_is_used_exported_or_traced():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(_SRC.glob("*.py"))}
    used = set().union(*map(_used_names, trees.values()))
    kept = (used | set(facadesim.__all__)
            | {attr for _, attr, _ in workloads._TRACED_FUNCTIONS}
            | {cls for _, cls, _, _ in workloads._TRACED_METHODS})
    unused = [f"{module}.{name}" for module, tree in trees.items()
              for name in _top_level_names(tree)
              if name not in kept and not name.startswith("__")]
    assert not unused, f"defined in src/facadesim but never used: {unused}"


def test_every_kept_import_is_one_perfbench_wraps():
    """An import that `src/` keeps unused, under `# noqa: F401`, is there
    only for perfbench to wrap in that module; once perfbench stops
    wrapping it, the import goes."""
    traced = {(module, attr)
              for module, attr, _ in workloads._TRACED_FUNCTIONS}
    kept = []
    for path in sorted(_SRC.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        kept += [(path.stem, alias.asname or alias.name)
                 for node in ast.parse(text).body
                 if isinstance(node, ast.ImportFrom)
                 and lines[node.end_lineno - 1].endswith("# noqa: F401")
                 for alias in node.names]
    assert kept, "no kept import found: the check reads nothing"
    untraced = [f"{module}.{name}" for module, name in kept
                if (module, name) not in traced]
    assert not untraced, f"kept imports perfbench does not wrap: {untraced}"


def _unread_imports(tree: ast.Module, lines: list, module: str):
    """`module.name` for each name the module imports and never reads as a
    bare name nor lists in its `__all__`.  `__future__` imports and kept
    imports, under `# noqa: F401`, are left to the perfbench rule above."""
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    read |= {name for node in tree.body if isinstance(node, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "__all__"
                     for t in node.targets)
             for name in ast.literal_eval(node.value)}
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or isinstance(node, ast.ImportFrom)
                and node.module == "__future__"
                or lines[node.end_lineno - 1].endswith("# noqa: F401")):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                yield f"{module}.{name}"


def test_every_src_import_is_read():
    unread = []
    for path in sorted(_SRC.glob("*.py")):
        text = path.read_text()
        unread += _unread_imports(ast.parse(text), text.splitlines(),
                                  path.stem)
    assert not unread, f"imported in src/facadesim but never read: {unread}"


def test_an_import_read_only_in_a_string_is_unread():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "from .geometry import wrap_angle, yaw_of\n"
              "from .world import simulate_scan  # noqa: F401\n"
              "__all__ = ['yaw_of']\n"
              "def f(a):\n"
              "    'wrap_angle'\n"
              "    return math.pi * a\n")
    assert list(_unread_imports(ast.parse(source), source.splitlines(),
                                "m")) == ["m.wrap_angle"]


def _read_attributes(tree: ast.Module) -> set:
    """Names the module reads as an attribute, `x.name`."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def _unread_methods(trees: dict, readers: list, traced: set) -> list:
    """`module.Class.method` for each method in `trees` whose name no tree
    of `readers` reads as an attribute and that `traced` does not name as
    (class, method).  A bare name of the same spelling, such as a local,
    is not a read: a method is reached only through an attribute."""
    read = set().union(*map(_read_attributes, readers))
    return [f"{module}.{cls.name}.{node.name}"
            for module, tree in trees.items() for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("__") and node.name not in read
            and (cls.name, node.name) not in traced]


def test_every_src_method_is_read():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(_SRC.glob("*.py"))}
    bench = [ast.parse(path.read_text())
             for path in sorted(Path(_PERFBENCH).glob("*.py"))]
    # perfbench names the methods it wraps in strings, which no attribute
    # read shows
    traced = {(cls, attr) for _, cls, attr, _ in workloads._TRACED_METHODS}
    unread = _unread_methods(trees, [*trees.values(), *bench], traced)
    assert not unread, f"methods never read in src or perfbench: {unread}"


def test_a_local_named_like_a_method_is_not_a_read():
    source = ("class Filter:\n"
              "    def step(self):\n"
              "        return 0.0\n"
              "\n"
              "def run(dt):\n"
              "    step = dt\n"
              "    return step\n")
    tree = ast.parse(source)
    assert _unread_methods({"m": tree}, [tree], set()) == ["m.Filter.step"]
    called = ast.parse(source + "\nFilter().step()\n")
    assert _unread_methods({"m": called}, [called], set()) == []
    assert _unread_methods({"m": tree}, [tree], {("Filter", "step")}) == []


def _unread_parameters(tree: ast.Module, module: str):
    """`module.function(param)` for each parameter, self included, that its
    function's body, nested functions included, never reads."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, a.vararg,
                                  *a.kwonlyargs, a.kwarg) if p is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        yield from (f"{module}.{node.name}({p})" for p in params
                    if p not in read)


def test_every_src_function_reads_its_parameters():
    unread = [name for path in sorted(_SRC.glob("*.py"))
              for name in _unread_parameters(ast.parse(path.read_text()),
                                             path.stem)]
    assert not unread, f"parameters never read in their body: {unread}"


def _caught_errors(handler: ast.ExceptHandler, errors: set) -> set:
    """The `facadesim.errors` classes that an `except` clause names."""
    names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [
        handler.type]
    return {n.attr if isinstance(n, ast.Attribute) else n.id for n in names
            if isinstance(n, (ast.Name, ast.Attribute))} & errors


def test_errors_are_caught_only_by_the_cli_or_to_reraise():
    """An exception from `facadesim.errors` is for a caller: inside `src/`
    only `cli.py` catches one, to map it to an exit code, and any other
    handler that names one holds a bare `raise`.  A fallback that its own
    module catches is a branch written as an exception."""
    errors = {node.name for node in ast.parse(
        (_SRC / "errors.py").read_text()).body
        if isinstance(node, ast.ClassDef)}
    bad = [f"{path.stem}:{node.lineno}"
           for path in sorted(_SRC.glob("*.py")) if path.stem != "cli"
           for node in ast.walk(ast.parse(path.read_text()))
           if isinstance(node, ast.ExceptHandler)
           and _caught_errors(node, errors)
           and not (len(node.body) == 1 and isinstance(node.body[0], ast.Raise)
                    and node.body[0].exc is None)]
    assert not bad, f"handlers that catch a facadesim error: {bad}"
