"""No module that only tests import.

Every module under ``src/repro`` must be reachable, through its static
imports, from what the project ships and runs: the package itself
(``repro/__init__.py``), the explorer's command line
(``repro.check.__main__``), and every module a ``benchmarks/*.py`` or
``perfbench/*.py`` script imports.  A module that only tests or examples
import is dead weight: delete it, or wire it into one of those roots.

The walk reads imports with :mod:`ast` and imports nothing.  Function-
local imports count, and importing ``a.b.c`` also reaches the packages
``a`` and ``a.b`` (Python runs their ``__init__`` first).
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _module_files():
    """Dotted module name -> source path, for everything under src/repro."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


def _imported_names(path, module=None, is_package=False):
    """Dotted names *path* imports: every ``import x`` target, and for
    ``from x import y`` both ``x`` and ``x.y`` (``y`` may be a submodule)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                package = module.split(".") if is_package else module.split(".")[:-1]
                anchor = package[: len(package) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            names.append(base)
            names.extend(f"{base}.{alias.name}" for alias in node.names)
    return names


def _resolve(name, modules):
    """The known modules a dotted import name loads: the module itself
    plus every enclosing package."""
    parts = name.split(".")
    return [
        ".".join(parts[:i])
        for i in range(1, len(parts) + 1)
        if ".".join(parts[:i]) in modules
    ]


def unreachable_modules():
    modules = _module_files()
    roots = {"repro", "repro.check.__main__"}
    for pattern in ("benchmarks/*.py", "perfbench/*.py"):
        for script in sorted(ROOT.glob(pattern)):
            for name in _imported_names(script):
                roots.update(_resolve(name, modules))
    seen = set()
    frontier = [name for name in roots if name in modules]
    while frontier:
        module = frontier.pop()
        if module in seen:
            continue
        seen.add(module)
        path = modules[module]
        is_package = path.name == "__init__.py"
        for name in _imported_names(path, module, is_package):
            frontier.extend(_resolve(name, modules))
    return sorted(set(modules) - seen)


def test_every_module_is_reachable_from_a_shipped_root():
    assert unreachable_modules() == []

