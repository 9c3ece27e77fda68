"""Every name that a module of src/repkit imports is used in that module.

`repkit/__init__.py` is exempt, since its imports are the package's
re-exports, and so is `from __future__ import annotations`.

No function of repkit takes a size limit: each limit is a module constant.
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
