"""Command-line interface: solve, check, dist, oracle.

All numeric inputs come from the config file; flags select the subcommand,
config path, output directory, the table time for `dist`, and overwrite
consent. The package itself, builds included, reads no environment
variable; argparse, which parses the command line, reads LANGUAGE, LC_ALL,
LC_MESSAGES and LANG for the language of its messages and COLUMNS and
LINES for the width of its help. Artifacts are written with full
round-trip precision and without timestamps, so identical configs produce
byte-identical outputs.

A solve may build the problem's C library, and writing the fan the renderer
library (``solver``); a build leaves nothing beside the artifacts. The
solver gives the fan's texts, its time texts included, and how to run the
writes: under the renderer library a solve writes fan.csv and fan.json at
once, each to a temporary file on a thread of its own, and then renames
them in that order, a file only if it and every file before it were
written. Without a working compiler the artifacts, exit codes and messages
are the same.

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
from collections.abc import Callable, Iterable, Iterator
from dataclasses import asdict
from functools import partial
from itertools import chain
from pathlib import Path

from . import analysis, oracle, solver
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


def _stage(path: Path, chunks: Iterable[str | bytes]) -> Path:
    """Write ``chunks`` in order, text as UTF-8 and bytes as they are, to a
    temporary file beside ``path``, and return it; a write that fails
    partway, in the file system or in the code producing the chunks,
    removes it."""
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "wb") as stream:
            for chunk in chunks:
                stream.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
    except BaseException as exc:
        temporary.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc
        raise
    return temporary


def _publish(temporary: Path, path: Path) -> None:
    """Rename the staged ``temporary`` over ``path``, or remove it."""
    try:
        os.replace(temporary, path)
    except OSError as exc:
        temporary.unlink(missing_ok=True)
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def _write_text(path: Path, chunks: Iterable[str | bytes]) -> None:
    """Write ``chunks`` through a temporary file (``_stage``), then rename
    it over ``path``: a write that fails leaves the previous artifact
    intact."""
    _publish(_stage(path, chunks), path)


def _write_texts(
    files: list[tuple[Path, Iterable[str | bytes]]], run: Callable
) -> None:
    """Stage every (path, chunks) of ``files`` through ``run`` (at once when
    ``run`` runs its functions at once), then publish them in their order
    until one fails: a file is published only if it and every file before
    it were written, the first failure in that order is raised, and no
    temporary file is left."""
    staged: list[Path | Exception | None] = [None] * len(files)

    def stage(k: int) -> None:
        try:
            staged[k] = _stage(*files[k])
        except Exception as exc:  # raised below, in the order of the files
            staged[k] = exc

    try:
        run([partial(stage, k) for k in range(len(files))])
        for (path, _), done in zip(files, staged):
            if isinstance(done, Exception):
                raise done
            _publish(done, path)
    finally:
        for done in staged:
            if isinstance(done, Path):
                done.unlink(missing_ok=True)


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])


def _fan_json_chunks(
    fan: AlphaFan, texts: Callable, times: Callable
) -> Iterator[str | bytes]:
    """fan.json in the layout of ``json.dumps(payload, indent=2,
    sort_keys=True) + "\\n"`` for the payload {order, alphas, times, states}:
    each path's body from ``texts`` between its key and brackets, in the
    order of the ``states`` keys sorted as strings, and the time texts
    joined by ``times``."""
    keys = [repr(alpha) for alpha in fan.grid]
    yield (
        '{\n  "alphas": [\n    '
        + ",\n    ".join(keys)
        + f'\n  ],\n  "order": {fan.spec.order!r},\n  "states": {{\n'
    )
    paths = sorted(range(len(keys)), key=keys.__getitem__)
    for i, body in enumerate(texts("json", paths)):
        yield (",\n" if i else "") + f'    "{keys[paths[i]]}": [\n      [\n        '
        yield body
        yield "\n      ]\n    ]"
    yield '\n  },\n  "times": [\n    '
    yield times(",\n    ")
    yield "\n  ]\n}\n"


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
    # one renderer for every format, and the formats written at once under C
    texts, times, run = solver.path_texts(fan, formats)
    files = []
    if "csv" in formats:  # the header, then each path's rows
        header = "alpha,t," + ",".join(f"x{k}" for k in range(fan.spec.order))
        rows = texts("csv", range(len(fan.grid)))
        files.append((outdir / "fan.csv", chain([header + "\n"], rows)))
    if "json" in formats:
        files.append((outdir / "fan.json", _fan_json_chunks(fan, texts, times)))
    _write_texts(files, run)
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
    short = f"{t:g}"  # repr when six significant digits lose t
    name = f"dist_t{short if float(short) == t else repr(t)}"
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
