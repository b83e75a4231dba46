"""Every public name a module exports must exist, and be used by the program."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import msinv

MODULES = ["msinv"] + [f"msinv.{m.name}" for m in pkgutil.iter_modules(msinv.__path__)]

ROOT = Path(__file__).resolve().parents[1]
PROGRAM_FILES = sorted(
    p for d in ("src", "demos", "tools") for p in (ROOT / d).rglob("*.py")
)


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"


def _used_names(path: Path) -> set[str]:
    """Names a file reads, as a bare name or as an attribute, or imports."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


@pytest.mark.parametrize("module", MODULES[1:])
def test_all_names_used_by_the_program(module):
    # A definition, an __all__ string or a docstring is not a use, and tests
    # are not the program.  The package's own __all__ is the public library
    # surface, so a name it re-exports counts as used.
    used = set().union(*(_used_names(p) for p in PROGRAM_FILES))
    mod = importlib.import_module(module)
    unused = [name for name in mod.__all__ if name not in used]
    assert not unused, (f"{module}.__all__ names no code in src/, demos/ or tools/ "
                        f"uses: {unused}")
