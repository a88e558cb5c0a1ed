"""Flat key-value run configuration.

The format is line-oriented ``key = value`` with ``#`` comments and dotted
section prefixes, chosen so runs are archivable and diffable:

    order   = 2
    f       = "x0"
    g       = "2 + tanh(x0)"
    initial = [0.1, 0]
    horizon = 1.0
    step    = 0.001
    alpha.count = 99
    alpha.lo    = 0.01

Values are numbers, quoted or bare strings, or ``[..]`` lists of those; a
number that is not finite is rejected, and so are unknown keys, so typos
fail loudly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import expr
from .core import AlphaGridSpec, UdeSpec, alpha_grid_problems, grid_problems
from .errors import AlphaPathError, ConfigError
from .oracle import chunk_rows, setting_problems

Scalar = int | float | str
Value = Scalar | list[Scalar]

# every key and its type, in the order build_config reads them; a list of
# floats holds numbers, the list of strings names the output formats
KNOWN_KEYS = {
    "order": int,
    "initial": list[float],
    "f": str,
    "g": str,
    "horizon": float,
    "step": float,
    "alpha.count": int,
    "alpha.lo": float,
    "oracle.delta": float,
    "oracle.n_paths": int,
    "oracle.segments": int,
    "oracle.seed": int,
    "oracle.alphas": list[float],
    "output.directory": str,
    "output.formats": list[str],
}

REQUIRED_KEYS = ("order", "f", "g", "initial", "horizon", "step")

FORMATS = ("csv", "json")

# most state values a run may store: (N+1) nodes x rows x order, where rows is
# the wider of the run's batches, the alpha grid or one chunk of the oracle's
# sample paths. The solver allocates a batch's states up front, so a larger
# run fails here (exit 2) instead of exhausting memory. 10**7 doubles are
# 80 MB; the README fan with its oracle stores 400,400.
MAX_STATE_VALUES = 10**7


@dataclass(frozen=True)
class OracleSettings:
    """The arguments of ``oracle.dominance_checks`` after the spec."""

    delta: float = 0.05
    n_paths: int = 200
    segments: int = 32  # unset in a config, capped at its step count
    seed: int = 0
    alphas: tuple[float, ...] = (0.2, 0.8)


@dataclass
class RunConfig:
    """Parsed configuration plus the raw key-values for echoing into run.json."""

    spec: UdeSpec
    alpha: AlphaGridSpec
    oracle: OracleSettings
    output_directory: str | None
    output_formats: tuple[str, ...]
    raw: dict[str, Value] = field(default_factory=dict)


def _parse_scalar(text: str) -> Scalar:
    text = text.strip()
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1]
    # the DSL's digits alone (``expr.tokenize``): int() and float() would
    # also read "1_0" and digits of other scripts
    if "_" in text or not text.isascii():
        return text
    try:
        number = int(text)
        float(number)  # an integer no double can hold reads as +-inf, as 1e400 does
        return number
    except (ValueError, OverflowError):
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _strip_comment(line: str) -> str:
    out = []
    in_quotes = False
    for ch in line:
        if ch == '"':
            in_quotes = not in_quotes
        if ch == "#" and not in_quotes:
            break
        out.append(ch)
    return "".join(out)


def parse_config_text(text: str) -> tuple[dict[str, Value], dict[str, int]]:
    """Parse the flat key-value syntax; remembers the line of every key."""
    values: dict[str, Value] = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = _strip_comment(line).strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected `key = value`")
        key, _, rhs = stripped.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        if not key:
            raise ConfigError(f"line {lineno}: missing key before `=`")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key `{key}`")
        if rhs.startswith("[") and rhs.endswith("]"):
            inner = rhs[1:-1].strip()
            items = [s for s in (p.strip() for p in inner.split(",")) if s]
            values[key] = [_parse_scalar(item) for item in items]
        else:
            values[key] = _parse_scalar(rhs)
        lines[key] = lineno
    return values, lines


def _error(lines: dict[str, int], key: str, message: str) -> ConfigError:
    """A ConfigError that names the line of ``key`` when the config has one."""
    return ConfigError(f"line {lines[key]}: {message}" if key in lines else message)


def _read(values: dict[str, Value], lines: dict[str, int], key: str):
    """``values[key]`` as the type KNOWN_KEYS gives the key (a list as a
    tuple), or a ConfigError naming its line."""
    v, kind = values[key], KNOWN_KEYS[key]
    if kind in (int, float):
        if not isinstance(v, (int, float)):
            must = "a number"
        elif kind is int and isinstance(v, float) and not v.is_integer():
            must = "an integer"
        else:
            return kind(v)
    elif kind == list[float]:
        if isinstance(v, list) and all(isinstance(x, (int, float)) for x in v):
            return tuple(map(float, v))
        must = "a list of numbers"
    elif kind == list[str]:
        if isinstance(v, list) and v:  # each entry is checked against FORMATS
            return tuple(v)
        must = "a non-empty list"
    elif isinstance(v, kind):
        return v
    else:
        must = "a string"
    raise _error(lines, key, f"`{key}` must be {must}, got {v!r}")


def _section(values: dict[str, Value], lines: dict[str, int], prefix: str) -> dict:
    """The keys under ``prefix`` that the config sets, read and named by their
    field: ``alpha.lo`` is ``lo``."""
    return {
        key.removeprefix(prefix): _read(values, lines, key)
        for key in KNOWN_KEYS
        if key.startswith(prefix) and key in values
    }


def _check_size(spec: UdeSpec, count: int, n_paths: int, lines) -> None:
    """Refuse a run that would store more than MAX_STATE_VALUES state values,
    naming `step` when one path alone is over the cap and otherwise the key
    that sets the larger store: the fan's `alpha.count` rows of `order`
    components, or an oracle chunk's rows (``oracle.chunk_rows``) of
    positions only."""
    nodes = spec.step_count + 1
    fan = count * spec.order
    chunk = chunk_rows(n_paths)
    stored = nodes * max(fan, chunk)
    if stored <= MAX_STATE_VALUES:
        return
    if nodes * spec.order > MAX_STATE_VALUES:
        key = "step"
    else:
        key = "alpha.count" if fan >= chunk else "oracle.n_paths"
    raise _error(
        lines,
        key,
        f"the run would store {stored} state values ({nodes} nodes x the "
        f"larger of {count} alphas x order {spec.order} and {chunk} oracle "
        f"rows), over the cap of {MAX_STATE_VALUES}; "
        "raise `step` or lower `alpha.count` or `oracle.n_paths`",
    )


def build_config(values: dict[str, Value], lines: dict[str, int]) -> RunConfig:
    """Validate keys, build the problem objects, and keep the raw echo."""
    unknown = sorted(values.keys() - KNOWN_KEYS.keys())
    if unknown:
        raise _error(lines, unknown[0], f"unknown key `{unknown[0]}`")
    for key in REQUIRED_KEYS:
        if key not in values:
            raise ConfigError(f"missing key `{key}`")

    order = _read(values, lines, "order")
    initial = _read(values, lines, "initial")
    # before parsing, which builds the names of all `order` state variables
    if order != len(initial):
        raise _error(
            lines,
            "order",
            f"`order` = {order} disagrees with the {len(initial)} values of `initial`",
        )
    if order < 1:
        raise _error(lines, "order", f"`order` must be >= 1, got {order}")
    trees = {}
    for key in ("f", "g"):
        source = _read(values, lines, key)  # a type error is not a parse error
        try:
            trees[key] = expr.parse_source(source, order)
        except AlphaPathError as exc:
            raise _error(lines, key, f"`{key}` does not parse: {exc}") from exc
    horizon = _read(values, lines, "horizon")
    step = _read(values, lines, "step")
    problems = grid_problems(horizon, step)
    if problems:
        raise _error(lines, *problems[0])
    spec = UdeSpec(order, trees["f"], trees["g"], initial, horizon, step)

    grid = AlphaGridSpec(**_section(values, lines, "alpha."))
    # unset, the segments are the default count, or one a step on fewer steps
    unset = {"segments": min(OracleSettings.segments, spec.step_count)}
    oracle = OracleSettings(**unset | _section(values, lines, "oracle."))
    _check_size(spec, grid.count, oracle.n_paths, lines)
    problems = alpha_grid_problems(grid)  # after the cap: a huge even count is too big
    if problems:
        raise _error(lines, *problems[0])

    output = _section(values, lines, "output.")
    formats = output.get("formats", ("csv",))
    for fmt in formats:
        if fmt not in FORMATS:
            raise _error(
                lines,
                "output.formats",
                f"unsupported format {fmt!r}; choose from {list(FORMATS)}",
            )
    # last, so a key whose own rule covers nan and inf keeps its message
    for key, v in values.items():
        items = v if isinstance(v, list) else [v]
        if any(isinstance(x, float) and not math.isfinite(x) for x in items):
            raise _error(lines, key, f"`{key}` must be finite, got {v!r}")
    # the oracle's own rules, so a run it would refuse fails every command
    problems = setting_problems(**asdict(oracle), step_count=spec.step_count)
    if problems:
        key, message = problems[0]
        # only the default alphas can fail unset, and then delta is at fault
        raise _error(lines, key if key in lines else "oracle.delta", message)

    return RunConfig(
        spec=spec,
        alpha=grid,
        oracle=oracle,
        output_directory=output.get("directory"),
        output_formats=tuple(dict.fromkeys(formats)),  # dedupe, keep order
        raw=dict(values),
    )


def load_config(path: str | Path) -> RunConfig:
    """Read and build a RunConfig from a file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    values, lines = parse_config_text(text)
    return build_config(values, lines)
