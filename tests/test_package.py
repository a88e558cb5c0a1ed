"""The package's public surface names only what the package uses."""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import alphapath
from alphapath import errors

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


def test_only_the_solver_names_its_engine_internals():
    # the solver alone chooses between its C library and Python: no other
    # module looks up, runs or loads a library, or catches a step's failures
    internals = [
        "_LIBRARIES",
        "_library_key",
        "_c_source",
        "_run_partials",
        "_compile_partials",
        "_python_partials",
        "_render_paths",
        "_python_paths",
        "_renderer_source",
        "_RENDERER",
        "_REPR_VALUES",
        "_STEP_FAILURES",
        "ctypes",
    ]
    for path in sorted(SRC.glob("*.py")):
        if path.name != "solver.py":
            source = path.read_text(encoding="utf-8")
            named = [name for name in internals if re.search(rf"\b{name}\b", source)]
            assert named == [], path.name
