"""Command-line interface: solve, check, dist, oracle.

All numeric inputs come from the config file; flags select the subcommand,
config path, output directory, the table time for `dist`, and overwrite
consent. No environment variables are consulted. Artifacts are written
with full round-trip precision and without timestamps, so identical
configs produce byte-identical outputs.

Exit codes partition outcomes:
    0  success
    2  configuration / usage error
    3  numeric failure (trajectory blow-up, non-finite f or g at an audited point)
    4  a check or assertion failed (hypotheses, monotonicity, dominance)
    5  refused precondition (oracle hypotheses not established)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import asdict
from operator import itemgetter
from pathlib import Path

from . import analysis, oracle
from .config import RunConfig, load_config
from .core import alpha_grid
from .errors import (
    BlowUpError,
    ConfigError,
    DomainError,
    FanSolveError,
    HypothesisError,
    MonotonicityError,
    NonFiniteError,
)
from .solver import AlphaFan, solve_fan, time_grid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVE = 3
EXIT_CHECK = 4
EXIT_REFUSED = 5


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _prepare_outdir(path: Path, force: bool) -> None:
    if path.exists():
        if not path.is_dir():
            raise ConfigError(f"output path {path} exists and is not a directory")
        if any(path.iterdir()) and not force:
            raise ConfigError(
                f"output directory {path} is not empty; pass --force to overwrite"
            )
    else:
        path.mkdir(parents=True)


def _write_text(path: Path, chunks: Iterable[str]) -> None:
    """Write ``chunks`` in order through a temporary file in the same
    directory, then rename it over ``path``: a write that fails partway, in
    the file system or in the code producing the chunks, leaves the previous
    artifact intact."""
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(partial, "w", encoding="utf-8", newline="\n") as stream:
            stream.writelines(chunks)
        os.replace(partial, path)
    except BaseException as exc:
        partial.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc
        raise


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])


def _float_texts(values: list[float]) -> list[str]:
    """repr of each value, from one list repr (see ``_fan_texts``)."""
    return repr(values)[1:-1].split(", ")


def _fan_texts(fan: AlphaFan) -> Iterator[tuple[str, str]]:
    """(repr(alpha), row texts) per path in grid order, where the row texts
    are ``repr(states.tolist())`` of the path without its outer brackets: rows
    separated by "], [" and values by ", ".

    This is the one place the fan's states become text. CPython's list repr
    calls float.__repr__, the shortest round-trip form json.dumps also uses,
    on each element. A finite float's repr holds only digits, ".", "-", "e"
    and "+", so splitting on ", " and "], [" is exact; the solver bounds
    every state by BLOWUP_LIMIT."""
    for alpha, states in zip(fan.grid, fan.states):
        yield repr(alpha), repr(states.tolist())[2:-2]


def _fan_csv_chunks(
    order: int, times: list[str], texts: Iterable[tuple[str, str]]
) -> Iterator[str]:
    """fan.csv: the header, then one chunk of `alpha,t,x0,...` rows per path."""
    yield "alpha,t," + ",".join(f"x{k}" for k in range(order)) + "\n"
    middles = [f",{t}," for t in times]
    for alpha, rows in texts:
        parts = [alpha, "", "", "\n"] * len(middles)
        parts[1::4] = middles
        parts[2::4] = rows.replace(", ", ",").split("],[")
        yield "".join(parts)


# separators of json.dumps(indent=2) between the values and rows of a path
_JSON_VALUE_SEP = ",\n        "
_JSON_ROW_SEP = "\n      ],\n      [\n        "


def _fan_json_chunks(
    fan: AlphaFan, times: list[str], texts: Iterable[tuple[str, str]]
) -> Iterator[str]:
    """fan.json in the layout of ``json.dumps(payload, indent=2,
    sort_keys=True) + "\\n"`` for the payload {order, alphas, times, states}:
    one chunk per path, in the order of the ``states`` keys sorted as
    strings."""
    yield (
        '{\n  "alphas": [\n    '
        + ",\n    ".join(_float_texts(fan.grid))
        + f'\n  ],\n  "order": {fan.spec.order!r},\n  "states": {{\n'
    )
    separator = ""
    for alpha, rows in sorted(texts, key=itemgetter(0)):
        body = rows.replace("], [", _JSON_ROW_SEP).replace(", ", _JSON_VALUE_SEP)
        yield f'{separator}    "{alpha}": [\n      [\n        {body}\n      ]\n    ]'
        separator = ",\n"
    yield '\n  },\n  "times": [\n    ' + ",\n    ".join(times) + "\n  ]\n}\n"


def _run_json_payload(fan: AlphaFan) -> dict:
    """run.json's solver section: the fan's regularity violations, (t, g) at
    each node where g is not strictly positive, grouped and capped by alpha."""
    warnings: dict[str, list[list[float]]] = {}
    for alpha, t, g in analysis.check_regularity(fan).violations:
        warnings.setdefault(repr(alpha), []).append([t, g])
    cap = analysis.MAX_EXPORTED_VIOLATIONS
    return {
        "solver": {
            "step": fan.spec.step,
            "nodes": fan.spec.step_count + 1,
            "alpha_count": len(fan.grid),
            "diffusion_warnings": {
                alpha: {"warnings_total": len(found), "warnings": found[:cap]}
                for alpha, found in warnings.items()
            },
        },
    }


def _update_run_json(outdir: Path, config: RunConfig, extra: dict) -> None:
    """Merge ``extra`` and the config echo into run.json. Sections written by
    a run of another config, or a file that is not a JSON object, are dropped."""
    path = outdir / "run.json"
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (FileNotFoundError, ValueError):  # absent, not UTF-8 or not JSON
        payload = {}
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    if not isinstance(payload, dict) or payload.get("config") != config.raw:
        payload = {}
    payload.update(extra, config=config.raw)
    _write_json(path, payload)


def _solve_configured_fan(config: RunConfig) -> AlphaFan:
    return solve_fan(config.spec, alpha_grid(config.alpha))


def cmd_solve(config: RunConfig, outdir: Path) -> int:
    fan = _solve_configured_fan(config)
    formats = config.output_formats
    times = _float_texts(fan.times.tolist())
    texts: Iterable[tuple[str, str]] = _fan_texts(fan)
    if len(formats) > 1:
        texts = list(texts)  # both files are rendered from this one repr pass
    if "csv" in formats:
        _write_text(outdir / "fan.csv", _fan_csv_chunks(fan.spec.order, times, texts))
    if "json" in formats:
        _write_text(outdir / "fan.json", _fan_json_chunks(fan, times, texts))
    _update_run_json(outdir, config, _run_json_payload(fan))
    return EXIT_OK


def cmd_check(config: RunConfig, outdir: Path) -> int:
    fan = _solve_configured_fan(config)
    report = analysis.check_hypotheses(fan, seed=config.oracle.seed)
    _write_json(outdir / "checks.json", report.to_dict())
    _update_run_json(outdir, config, {})
    if report.failed:
        _fail("checks failed: " + ", ".join(report.failed))
        return EXIT_CHECK
    return EXIT_OK


def cmd_dist(config: RunConfig, outdir: Path, t: float) -> int:
    analysis.snap_to_node(time_grid(config.spec), t)  # a bad t fails before the solve
    fan = _solve_configured_fan(config)
    table = analysis.inverse_distribution(fan, t)
    name = f"dist_t{t:g}"
    if "csv" in config.output_formats:
        lines = ["alpha,x"]
        lines += [f"{a!r},{x!r}" for a, x in table.entries]
        _write_text(outdir / f"{name}.csv", ["\n".join(lines) + "\n"])
    if "json" in config.output_formats:
        _write_json(
            outdir / f"{name}.json",
            {
                "t": table.t,
                "degenerate": table.degenerate,
                "entries": [list(e) for e in table.entries],
            },
        )
    extra: dict = {
        "distribution": {"t": table.t, "degenerate": table.degenerate},
        "expected_value": {"t": table.t, "value": analysis.expected_value(table)},
    }
    if table.degenerate:
        extra["distribution"]["note"] = "all entries equal the initial value"
    _update_run_json(outdir, config, extra)
    return EXIT_OK


def cmd_oracle(config: RunConfig, outdir: Path) -> int:
    settings = config.oracle
    reports = oracle.dominance_checks(config.spec, **asdict(settings))
    passed = all(r.passed for r in reports)
    _write_json(
        outdir / "oracle.json",
        {
            "seed": settings.seed,
            "delta": settings.delta,
            "n_paths": settings.n_paths,
            "segments": settings.segments,
            "passed": passed,
            "reports": [r.to_dict() for r in reports],
        },
    )
    _update_run_json(outdir, config, {})
    if not passed:
        _fail("dominance violations found; see oracle.json")
        return EXIT_CHECK
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphapath",
        description=(
            "Solve alpha-path families for higher-order uncertain differential "
            "equations, verify their hypotheses, and export the inverse "
            "uncertainty distribution."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "solve": "solve the alpha-path fan and export it",
        "check": "run regularity, monotonicity-condition, and fan-order checks",
        "dist": "tabulate the inverse uncertainty distribution at a time",
        "oracle": "run the trajectory-dominance verifier on sampled drivers",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the run config file")
        p.add_argument("--out", help="output directory (default: output.directory)")
        p.add_argument(
            "--force",
            action="store_true",
            help="allow writing into a non-empty output directory",
        )
        if name == "dist":
            p.add_argument(
                "--t", required=True, type=float, help="table time (grid-snapped)"
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        _fail(f"{args.config}: {exc}")
        return EXIT_CONFIG

    out = args.out or config.output_directory
    if not out:
        _fail("no output directory: pass --out or set output.directory")
        return EXIT_CONFIG
    outdir = Path(out)
    try:
        _prepare_outdir(outdir, args.force)
    except (ConfigError, OSError) as exc:
        _fail(str(exc))
        return EXIT_CONFIG

    try:
        if args.command == "solve":
            return cmd_solve(config, outdir)
        if args.command == "check":
            return cmd_check(config, outdir)
        if args.command == "dist":
            return cmd_dist(config, outdir, args.t)
        return cmd_oracle(config, outdir)
    except (FanSolveError, BlowUpError, NonFiniteError) as exc:
        _fail(str(exc))
        return EXIT_SOLVE
    except MonotonicityError as exc:
        _fail(str(exc))
        return EXIT_CHECK
    except HypothesisError as exc:
        _fail(f"{exc}; run `alphapath check` for the full report")
        return EXIT_REFUSED
    except (ConfigError, DomainError) as exc:
        _fail(str(exc))
        return EXIT_CONFIG


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
