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

Values are numbers, booleans (true/false), quoted or bare strings, or
``[..]`` lists of those. Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from . import expr
from .core import AlphaGridSpec, UdeSpec, grid_problems
from .errors import AlphaPathError, ConfigError
from .oracle import CHUNK_PATHS

Scalar = bool | int | float | str
Value = Scalar | list[Scalar]

KNOWN_KEYS = {
    "order",
    "f",
    "g",
    "initial",
    "horizon",
    "step",
    "alpha.count",
    "alpha.lo",
    "alpha.symmetric",
    "oracle.delta",
    "oracle.n_paths",
    "oracle.segments",
    "oracle.seed",
    "oracle.alphas",
    "output.directory",
    "output.formats",
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
    delta: float = 0.05
    n_paths: int = 200
    segments: int = 32
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
    lines: dict[str, int] = field(default_factory=dict)


def _parse_scalar(text: str) -> Scalar:
    text = text.strip()
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1]
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
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


def _context(lines: dict[str, int], key: str) -> str:
    return f"line {lines[key]}: " if key in lines else ""


def _is_number(v: Value) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _as_number(values, lines, key, kind=float):
    v = values[key]
    if not _is_number(v):
        raise ConfigError(f"{_context(lines, key)}`{key}` must be a number, got {v!r}")
    if kind is int:
        if isinstance(v, float) and not v.is_integer():
            raise ConfigError(
                f"{_context(lines, key)}`{key}` must be an integer, got {v!r}"
            )
        return int(v)
    return float(v)


def _as_string(values, lines, key) -> str:
    v = values[key]
    if not isinstance(v, str):
        raise ConfigError(f"{_context(lines, key)}`{key}` must be a string, got {v!r}")
    return v


def _check_size(spec: UdeSpec, count: int, n_paths: int, lines) -> None:
    """Refuse a run that would store more than MAX_STATE_VALUES state values,
    naming `step` when one path alone is over the cap and otherwise the key
    that sets the row count."""
    nodes = spec.step_count + 1
    oracle_rows = min(n_paths, CHUNK_PATHS)
    rows = max(count, oracle_rows)
    stored = nodes * rows * spec.order
    if stored <= MAX_STATE_VALUES:
        return
    if nodes * spec.order > MAX_STATE_VALUES:
        key = "step"
    else:
        key = "alpha.count" if count >= oracle_rows else "oracle.n_paths"
    raise ConfigError(
        f"{_context(lines, key)}the run would store {stored} state values "
        f"({nodes} nodes x {rows} rows x order {spec.order}), over the cap of "
        f"{MAX_STATE_VALUES}; raise `step` or lower `alpha.count` or "
        "`oracle.n_paths`"
    )


def build_config(values: dict[str, Value], lines: dict[str, int]) -> RunConfig:
    """Validate keys, build the problem objects, and keep the raw echo."""
    unknown = sorted(set(values) - KNOWN_KEYS)
    if unknown:
        raise ConfigError(
            f"{_context(lines, unknown[0])}unknown key `{unknown[0]}`"
        )
    for key in REQUIRED_KEYS:
        if key not in values:
            raise ConfigError(f"missing key `{key}`")

    order = _as_number(values, lines, "order", int)
    initial = values["initial"]
    if not isinstance(initial, list) or not all(map(_is_number, initial)):
        raise ConfigError(
            f"{_context(lines, 'initial')}`initial` must be a list of numbers"
        )
    # before parsing, which builds the names of all `order` state variables
    if order != len(initial):
        raise ConfigError(
            f"{_context(lines, 'order')}`order` = {order} disagrees with the "
            f"{len(initial)} values of `initial`"
        )
    trees = {}
    for key in ("f", "g"):
        source = _as_string(values, lines, key)
        try:
            trees[key] = expr.parse_source(source, order)
        except AlphaPathError as exc:
            raise ConfigError(
                f"{_context(lines, key)}`{key}` does not parse: {exc}"
            ) from exc
    horizon = _as_number(values, lines, "horizon")
    step = _as_number(values, lines, "step")
    problems = grid_problems(horizon, step)
    if problems:
        key, problem = problems[0]
        raise ConfigError(f"{_context(lines, key)}{problem}")
    spec = UdeSpec(
        order=order,
        drift=trees["f"],
        diffusion=trees["g"],
        initial=tuple(float(v) for v in initial),
        horizon=horizon,
        step=step,
    )

    count = 99
    lo = 0.01
    symmetric = True
    if "alpha.count" in values:
        count = _as_number(values, lines, "alpha.count", int)
    if "alpha.lo" in values:
        lo = _as_number(values, lines, "alpha.lo")
    if "alpha.symmetric" in values:
        v = values["alpha.symmetric"]
        if not isinstance(v, bool):
            raise ConfigError(
                f"{_context(lines, 'alpha.symmetric')}`alpha.symmetric` must be "
                f"true or false, got {v!r}"
            )
        symmetric = v
    grid = AlphaGridSpec(count=count, lo=lo, symmetric=symmetric)

    oracle_kwargs: dict = {}
    if "oracle.delta" in values:
        oracle_kwargs["delta"] = _as_number(values, lines, "oracle.delta")
    if "oracle.n_paths" in values:
        oracle_kwargs["n_paths"] = _as_number(values, lines, "oracle.n_paths", int)
    if "oracle.segments" in values:
        oracle_kwargs["segments"] = _as_number(values, lines, "oracle.segments", int)
    if "oracle.seed" in values:
        seed = _as_number(values, lines, "oracle.seed", int)
        if seed < 0:
            raise ConfigError(
                f"{_context(lines, 'oracle.seed')}`oracle.seed` must be >= 0, "
                f"got {seed}"
            )
        oracle_kwargs["seed"] = seed
    if "oracle.alphas" in values:
        v = values["oracle.alphas"]
        if not isinstance(v, list) or not v or not all(map(_is_number, v)):
            raise ConfigError(
                f"{_context(lines, 'oracle.alphas')}`oracle.alphas` must be a "
                f"non-empty list of numbers, got {v!r}"
            )
        oracle_kwargs["alphas"] = tuple(float(a) for a in v)
    oracle = OracleSettings(**oracle_kwargs)
    _check_size(spec, count, oracle.n_paths, lines)

    directory = None
    if "output.directory" in values:
        directory = _as_string(values, lines, "output.directory")
    formats: tuple[str, ...] = ("csv",)
    if "output.formats" in values:
        v = values["output.formats"]
        if not isinstance(v, list) or not v:
            raise ConfigError(
                f"{_context(lines, 'output.formats')}`output.formats` must be a "
                "non-empty list"
            )
        for fmt in v:
            if fmt not in FORMATS:
                raise ConfigError(
                    f"{_context(lines, 'output.formats')}unsupported format "
                    f"{fmt!r}; choose from {list(FORMATS)}"
                )
        formats = tuple(dict.fromkeys(v))  # dedupe, keep order

    return RunConfig(
        spec=spec,
        alpha=grid,
        oracle=oracle,
        output_directory=directory,
        output_formats=formats,
        raw=dict(values),
        lines=dict(lines),
    )


def load_config(path: str | Path) -> RunConfig:
    """Read and build a RunConfig from a file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    values, lines = parse_config_text(text)
    return build_config(values, lines)
