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
import sys
from pathlib import Path

from . import analysis, oracle
from .config import RunConfig, load_config
from .core import alpha_grid
from .errors import (
    AlignmentError,
    BlowUpError,
    ConfigError,
    DomainError,
    FanSolveError,
    HypothesisError,
    MonotonicityError,
    NonFiniteError,
)
from .solver import AlphaFan, solve_fan

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


def _write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _fan_csv(fan: AlphaFan) -> str:
    n = fan.spec.order
    header = "alpha,t," + ",".join(f"x{k}" for k in range(n))
    lines = [header]
    for path in fan.paths:
        alpha_text = repr(path.alpha)
        tlist = path.times.tolist()
        for t, row in zip(tlist, path.states.tolist()):
            lines.append(
                alpha_text + "," + repr(t) + "," + ",".join(repr(v) for v in row)
            )
    return "\n".join(lines) + "\n"


def _fan_json_payload(fan: AlphaFan) -> dict:
    return {
        "order": fan.spec.order,
        "alphas": fan.grid,
        "times": fan.paths[0].times.tolist(),
        "states": {repr(p.alpha): p.states.tolist() for p in fan.paths},
    }


def _run_json_payload(fan: AlphaFan) -> dict:
    cap = analysis.MAX_EXPORTED_VIOLATIONS
    return {
        "solver": {
            "step": fan.spec.step,
            "nodes": fan.spec.step_count + 1,
            "alpha_count": len(fan.grid),
            "diffusion_warnings": {
                repr(p.alpha): {
                    "warnings_total": len(p.diffusion_warnings),
                    "warnings": [list(w) for w in p.diffusion_warnings[:cap]],
                }
                for p in fan.paths
                if p.diffusion_warnings
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
    if not isinstance(payload, dict) or payload.get("config") != config.raw:
        payload = {}
    payload.update(extra, config=config.raw)
    _write_json(path, payload)


def _solve_configured_fan(config: RunConfig) -> AlphaFan:
    return solve_fan(config.spec, alpha_grid(config.alpha))


def cmd_solve(config: RunConfig, outdir: Path) -> int:
    fan = _solve_configured_fan(config)
    if "csv" in config.output_formats:
        _write_text(outdir / "fan.csv", _fan_csv(fan))
    if "json" in config.output_formats:
        _write_json(outdir / "fan.json", _fan_json_payload(fan))
    _update_run_json(outdir, config, _run_json_payload(fan))
    return EXIT_OK


def cmd_check(config: RunConfig, outdir: Path) -> int:
    fan = _solve_configured_fan(config)
    hypotheses = analysis.check_hypotheses(
        config.spec, fan, seed=config.oracle.seed
    )
    monotone = analysis.check_monotone(fan)
    payload = {
        "regularity": hypotheses.regularity.to_dict(),
        "condition_h": hypotheses.condition_h.to_dict(),
        "monotone": monotone.to_dict(),
        "passed": hypotheses.passed and monotone.passed,
    }
    _write_json(outdir / "checks.json", payload)
    _update_run_json(outdir, config, {})
    if not payload["passed"]:
        _fail(
            "checks failed: "
            + ", ".join(
                name
                for name, ok in (
                    ("regularity", hypotheses.regularity.passed),
                    ("condition_h", hypotheses.condition_h.passed),
                    ("monotone", monotone.passed),
                )
                if not ok
            )
        )
        return EXIT_CHECK
    return EXIT_OK


def cmd_dist(config: RunConfig, outdir: Path, t: float) -> int:
    fan = _solve_configured_fan(config)
    table = analysis.inverse_distribution(fan, t)
    name = f"dist_t{t:g}"
    if "csv" in config.output_formats:
        lines = ["alpha,x"]
        lines += [f"{a!r},{x!r}" for a, x in table.entries]
        _write_text(outdir / f"{name}.csv", "\n".join(lines) + "\n")
    if "json" in config.output_formats:
        _write_json(
            outdir / f"{name}.json",
            {
                "t": table.t,
                "degenerate": table.degenerate,
                "entries": [list(e) for e in table.entries],
            },
        )
    extra: dict = {"distribution": {"t": table.t, "degenerate": table.degenerate}}
    if table.degenerate:
        extra["distribution"]["note"] = "all entries equal the initial value"
        extra["expected_value"] = {"t": table.t, "value": float(table.values[0])}
    else:
        extra["expected_value"] = {
            "t": table.t,
            "value": analysis.expected_value(fan, t),
        }
    _update_run_json(outdir, config, extra)
    return EXIT_OK


def cmd_oracle(config: RunConfig, outdir: Path) -> int:
    settings = config.oracle
    reports = []
    for alpha in settings.alphas:
        for side in oracle.SIDES:
            report = oracle.dominance_check(
                config.spec,
                alpha=alpha,
                delta=settings.delta,
                n_paths=settings.n_paths,
                segments=settings.segments,
                side=side,
                seed=settings.seed,
            )
            reports.append(report)
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
    except (ConfigError, DomainError, AlignmentError) as exc:
        _fail(str(exc))
        return EXIT_CONFIG


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
