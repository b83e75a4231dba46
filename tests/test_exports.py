"""Every public name a module exports must exist, and be used by the program;
the program imports only the standard library and its declared dependencies."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
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


def _imported_modules(path: Path) -> set[str]:
    """Top-level modules a file imports by absolute name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_third_party_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower()
                    for req in tomllib.load(fh)["project"]["dependencies"]}
    package = ROOT / "src" / "msinv"
    imported = set().union(*(_imported_modules(p) for p in package.rglob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - {"msinv"}
    assert third_party == declared == {"numpy"}


def test_no_module_loads_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(msinv.__file__).parents[1]))
    code = ("import sys, msinv.cli, msinv.oracle, msinv.planner, msinv.simlab; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


# The comment that marks an import the program does not use, kept so that the
# benchmark's tracer finds the name where it patches it.
TRACER_MARK = "perfbench/tracer.py patches"


def _traced_sites() -> set[tuple[str, str]]:
    """Every (module, name) site of perfbench/tracer.py's `TRACED`."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {site for _, sites, _ in tracer.TRACED for site in sites}


def _tracer_only_imports() -> list[tuple[str, str]]:
    """(module, name) of each name imported on the line after a `TRACER_MARK` comment."""
    found = []
    for path in sorted((ROOT / "src" / "msinv").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        marked = {n + 2 for n, line in enumerate(source.splitlines()) if TRACER_MARK in line}
        found += [(f"msinv.{path.stem}", alias.name) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) and node.lineno in marked
                  for alias in node.names]
    return found


def test_tracer_only_imports_are_traced():
    imports = _tracer_only_imports()
    assert ("msinv.measurement", "prepare_components") in imports
    traced = _traced_sites()
    stale = [site for site in imports if site not in traced]
    assert not stale, (
        f"perfbench/tracer.py no longer patches {stale}: delete these imports, and once "
        "no site names msinv.estimators.prepare_components, that function and its tests")
