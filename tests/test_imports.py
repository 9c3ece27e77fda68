"""Every name that a module of src/repkit imports is used in that module.

`repkit/__init__.py` is exempt, since its imports are the package's
re-exports, and so is `from __future__ import annotations`.

No function of repkit takes a size limit: each limit is a module constant.

The modules import each other at the top only, and without a cycle, so the
package loads in one order: core, reductions, translate, trees, mps, and
the modules that read them.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import repkit


def test_no_unused_imports_in_src():
    unused = []
    for path in sorted(Path(repkit.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name != "annotations" and name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_no_function_takes_a_max_parameter():
    found = []
    for info in pkgutil.iter_modules(repkit.__path__):
        module = importlib.import_module(f"repkit.{info.name}")
        owners = [module] + [c for c in vars(module).values()
                             if inspect.isclass(c) and c.__module__ == module.__name__]
        for owner in owners:
            for name, fn in vars(owner).items():
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    found += [f"{module.__name__}:{fn.__qualname__}({p})"
                              for p in inspect.signature(fn).parameters if p.startswith("max_")]
    assert found == []


def _relative_imports():
    """(module name, ast.ImportFrom node, enclosing function name or None)
    for every relative import in src/repkit, inside functions included."""
    for path in sorted(Path(repkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(n), fn.name) for n in ast.walk(fn))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                yield path.stem, node, owner.get(id(node))


def test_module_imports_are_top_level_and_acyclic():
    modules = {p.stem for p in Path(repkit.__file__).parent.glob("*.py")}
    deferred = [f"{m}:{node.lineno} in {fn}" for m, node, fn in _relative_imports() if fn]
    assert deferred == []
    graph = {m: set() for m in modules}
    for m, node, _ in _relative_imports():
        # `from .x import ...` leads to x; `from . import y` to y if y is a module
        graph[m] |= {node.module} if node.module else {a.name for a in node.names} & modules
    left = dict(graph)
    while left:  # peel off the modules that import none of the others left
        peeled = [m for m, deps in left.items() if not deps & left.keys()]
        assert peeled, f"an import cycle: none of {sorted(left)} can load first"
        for m in peeled:
            del left[m]
    assert graph["mps"] >= {"translate", "trees"} and "mps" not in graph["trees"] | graph["translate"]
