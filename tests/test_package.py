"""The package's public surface names only what the package uses."""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import alphapath
from alphapath import errors, solver

SRC = Path(alphapath.__file__).resolve().parent


def test_every_error_type_is_raised_in_the_package():
    # a type no code raises is dead public surface; the base class is the
    # one exception, raised through the types derived from it
    source = "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted(SRC.glob("*.py"))
        if path.name != "errors.py"
    )
    types = [
        value
        for value in vars(errors).values()
        if inspect.isclass(value) and issubclass(value, Exception)
        and value.__module__ == errors.__name__
    ]
    assert errors.AlphaPathError in types
    for kind in types:
        if kind is errors.AlphaPathError:
            assert all(issubclass(other, kind) for other in types)
            continue
        assert re.search(rf"\braise {kind.__name__}\(", source), kind.__name__


def test_every_public_name_exists():
    missing = [name for name in alphapath.__all__ if not hasattr(alphapath, name)]
    assert missing == []
    assert len(set(alphapath.__all__)) == len(alphapath.__all__)


# each engine internal: the module that defines it, and the others that may
# name it. The solver's layers (emit, engine, solver, render) alone choose
# between a C library and Python: no other module looks up, runs or loads a
# library, or catches a step's failures, and within them a name is named
# only where its caller lives
INTERNALS = {
    "_LIBRARIES": ("engine", {"solver"}),
    "_library": ("engine", {"solver"}),
    "_build": ("engine", {"render"}),
    "_run_compiled": ("engine", {"solver"}),
    "_run_partials": ("engine", {"solver"}),
    "_run_slices": ("engine", {"render"}),
    "_cpu_count": ("engine", {"render"}),
    "_library_key": ("emit", {"engine", "solver"}),
    "_c_source": ("emit", {"engine"}),
    "_compile_step": ("emit", {"solver"}),
    "_compile_partials": ("emit", {"solver"}),
    "_python_partials": ("solver", set()),
    "_STEP_FAILURES": ("solver", set()),
    "_render_paths": ("render", set()),
    "_python_paths": ("render", set()),
    "_renderer_source": ("render", set()),
    "_RENDERER": ("render", set()),
    "_REPR_VALUES": ("render", set()),
}


def test_only_the_solver_names_its_engine_internals():
    sources = {
        path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))
    }
    for name, (owner, allowed) in INTERNALS.items():
        assert hasattr(importlib.import_module(f"alphapath.{owner}"), name), name
        named = {m for m, text in sources.items() if re.search(rf"\b{name}\b", text)}
        assert named - allowed == {owner}, name
    # ctypes, which loads and calls a library, is named by the engine and
    # the renderer alone
    named = {m for m, text in sources.items() if re.search(r"\bctypes\b", text)}
    assert named == {"engine", "render"}


def _package_imports(path: Path) -> set[str]:
    """The package modules ``path`` imports when it runs: every ``from .``
    import at any depth, except under ``if TYPE_CHECKING:``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    typing_only = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and getattr(node.test, "id", "") == "TYPE_CHECKING"
        for inner in ast.walk(node)
    }
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if id(node) in typing_only:
                continue
            if node.module:
                found.add(node.module)
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_the_layers_import_one_way():
    # solver -> engine -> emit and render -> engine, never back; only the
    # CLI imports render, and the package's imports have no cycle
    imports = {path.stem: _package_imports(path) for path in sorted(SRC.glob("*.py"))}
    assert imports["emit"] == {"core", "expr"}
    assert imports["engine"] == {"core", "emit"}
    assert imports["render"] == {"engine"}
    assert imports["solver"] == {"core", "emit", "engine", "errors", "expr"}
    assert {m for m, found in imports.items() if "render" in found} == {"cli"}
    done: set[str] = set()
    while len(done) < len(imports):
        ready = {m for m in imports if m not in done and imports[m] <= done}
        assert ready, sorted(set(imports) - done)  # what is left holds a cycle
        done |= ready


def test_importing_the_package_loads_neither_render_nor_cli():
    # a process that only imports alphapath, as a library user's does,
    # compiles neither the fan writer nor the command line
    code = (
        "import sys, alphapath\n"
        "print(sorted(m for m in sys.modules if m.startswith('alphapath.')))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.stderr == ""
    loaded = ast.literal_eval(result.stdout)
    assert "alphapath.solver" in loaded
    assert not {"alphapath.render", "alphapath.cli"} & set(loaded)


def test_the_solver_keeps_none_of_the_moved_names():
    # no module re-exports a moved name, so a test that patches the solver
    # for one fails instead of patching a copy that no code reads
    moved = [
        "_LIBRARIES",
        "COMPILE_MIN_ROW_STEPS",
        "SPLIT_MIN_ROW_STEPS",
        "COMPILER",
        "_cpu_count",
        "_RENDERER",
        "RENDER_MIN_VALUES",
        "BLOWUP_LIMIT",
        "_build",
        "_library",
        "_c_source",
        "_step_lines",
        "path_texts",
        "integral_residual",
        "IntegralResidual",
    ]
    assert [name for name in moved if hasattr(solver, name)] == []
