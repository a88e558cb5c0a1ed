"""alphapath benchmark: the CLI's four subcommands, end to end and per layer.

Drives ``alphapath.cli.main(argv)`` in-process on a generated workload (see
workloads.py and rationale.json), times every call, checks every output
(checks.py), and prints one JSON object as the last line of standard output:

    {"correct": true, "attempted": 25, "failed": 0,
     "metrics": {"solve_s": {"value": 2.01, "unit": "s"}, ...}}

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
untraced and traced rounds alternate, and the metrics are the per-layer ones
from the span tracer (tracing.py), plus the tracing overhead. Times are in
nominal seconds: wall time rescaled by the machine pace sampled during each
call (calibrate.py); the wall medians are printed beside them.

Run from the repository root, which must hold ``src/alphapath``:

    python3 perfbench/run.py --workload wide-fan --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25
    python3 perfbench/run.py --selftest

Artifacts, configs and span dumps go to ``.perfbench_out/`` in the current
directory; the CLI's output directories are removed at exit.
"""

from __future__ import annotations

import os

# the load runs in this one process; numpy's thread pools get one thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import calibrate
import checks
import tracing
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
HERE = Path(__file__).resolve().parent

SETUP_REPEATS = 7
# in an untraced round a command is called again until its calls add up to
# this many wall seconds, so short calls get enough samples for a steady median
MIN_COMMAND_S = 0.5
E2E_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "check_s": "s",
    "dist_s": "s",
    "oracle_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_NAMES = [*tracing.LAYER_METRICS, "cli.bytes_written", "trace.overhead_s"]

# a fresh interpreter starts the pace sampler, imports the package and loads
# the config; it prints when it started on the monotonic clock, which is
# shared with the parent on Linux, its first pace sample, and its own times
SETUP_CHILD = """\
import sys, time
began = time.monotonic()
sys.path.insert(0, sys.argv[3])
from calibrate import PaceSampler
sampler = PaceSampler()
sampler.start()
sys.path.insert(0, sys.argv[1])
import alphapath
from alphapath.config import load_config
load_config(sys.argv[2])
busy, nominal = sampler.stop()
print(repr(began), repr(sampler.paces[0]), repr(busy), repr(nominal))
"""


class BenchError(Exception):
    """The benchmark cannot run here (as opposed to a failed operation)."""


def load_cli():
    """Import the package from ./src, refusing any other copy."""
    init = SRC / "alphapath" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no package sources at {init}; run from the repository root")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import alphapath
    import alphapath.cli

    if Path(alphapath.__file__).resolve() != init.resolve():
        raise BenchError(f"imported alphapath from {alphapath.__file__}, not {init}")
    return alphapath.cli


def measure_setup(config: Path, repeats: int) -> list[tuple[float, float]]:
    """(wall, nominal) seconds from starting an interpreter to a loaded
    config. The interpreter's own start-up, before its sampler runs, is
    scaled by its first pace sample."""
    samples = []
    for _ in range(repeats):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(config), str(HERE)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        began, pace, busy, nominal = map(float, done.stdout.split()[-4:])
        startup = began - start
        samples.append(
            (startup + busy, startup * calibrate.nominal_factor([pace]) + nominal)
        )
    return samples


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def stamp(wl_name: str, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": wl_name,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest(),
    }


@dataclass
class Op:
    id: int
    round: int
    command: str
    traced: bool
    seconds: float = 0.0  # wall, less the pace sampler's own time
    nominal: float = 0.0  # at the nominal machine pace
    bytes: int = 0
    reason: str = ""  # empty when the operation passed every check


class Runner:
    """Calls the CLI into a fresh output directory per call and checks the
    artifacts; remembers each command's first artifacts to compare later
    calls against."""

    def __init__(self, cli, wl, run_dir: Path, config: Path, tracer=None, perturb=None):
        self.cli, self.wl, self.dir, self.config = cli, wl, run_dir, config
        self.tracer, self.perturb = tracer, perturb
        self.ops: list[Op] = []
        self.first: dict[str, dict] = {}
        self.tables: list[tuple[int, list]] = []
        self.sampler = calibrate.PaceSampler()

    def round(self, number: int, traced: bool, warm_up: bool = False) -> list[Op]:
        """Every command once when traced or warming up; otherwise each
        command until its calls reach MIN_COMMAND_S or one fails."""
        ops = []
        for command in workloads.COMMANDS:
            spent = 0.0
            while True:
                if traced:
                    self.tracer.install()
                try:
                    op = self.call(command, number, traced)
                finally:
                    if traced:
                        self.tracer.uninstall()
                if not warm_up and not op.reason:
                    self.check(op)
                ops.append(op)
                spent += op.seconds
                if traced or warm_up or op.reason or spent >= MIN_COMMAND_S:
                    break
        return ops

    def call(self, command: str, number: int, traced: bool) -> Op:
        op = Op(len(self.ops), number, command, traced)
        self.ops.append(op)
        out = self.dir / command
        if out.exists():
            shutil.rmtree(out)
        argv = self.wl.argv(command, str(self.config), str(out))
        if traced:
            self.tracer.op = op.id
        gc.collect()
        self.sampler.start()
        try:
            code = self.cli.main(argv)
            if code != 0:
                op.reason = f"exit code {code}"
        except SystemExit as exc:  # argparse rejects the arguments
            op.reason = f"exit {exc.code}"
        except Exception as exc:  # any traceback is a failed operation
            op.reason = f"raised {exc!r}"
        finally:
            op.seconds, op.nominal = self.sampler.stop()
        return op

    def check(self, op: Op) -> None:
        command, out = op.command, self.dir / op.command
        if self.perturb is not None:
            self.perturb(command, out)
        hashes, op.bytes = checks.digest(out)
        op.reason = checks.check_artifacts(self.wl, command, out, hashes)
        if not op.reason:
            first = self.first.setdefault(command, hashes)
            if hashes != first:
                op.reason = "artifacts differ from the first call of the run"
        if not op.reason and command == "dist":
            try:
                self.tables.append((op.id, checks.read_dist(out)))
            except ValueError as exc:
                op.reason = f"unreadable dist table: {exc}"


def _median_nominal(rounds: list[list[Op]], command: str) -> float:
    return statistics.median(op.nominal for r in rounds for op in r if op.command == command)


def run_workload(name, seed, seconds, trace, smoke=False, setup_repeats=SETUP_REPEATS, perturb=None):
    """One benchmark run; returns (result object, report lines)."""
    cli = load_cli()
    wl = workloads.get(name, smoke)
    run_dir = WORK / f"run-{name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        config = run_dir / "run.conf"
        config.write_text(wl.config_text(seed), encoding="utf-8")
        setup = [] if trace else measure_setup(config, setup_repeats)

        # warm-up: one unchecked round of the smoke-size workload runs every
        # code path once, so lazy imports and first-call costs stay untimed
        warm = workloads.get(name, True)
        warm_config = run_dir / "warm.conf"
        warm_config.write_text(warm.config_text(seed), encoding="utf-8")
        Runner(cli, warm, run_dir, warm_config).round(0, False, warm_up=True)

        # rounds run until the time is up, alternating untraced and traced
        # with --trace 1 and ending on a traced one
        tracer = tracing.Tracer() if trace else None
        runner = Runner(cli, wl, run_dir, config, tracer, perturb)
        plain: list[list[Op]] = []
        traced: list[list[Op]] = []
        start = time.perf_counter()
        while True:
            use_trace = bool(trace) and len(traced) < len(plain)
            (traced if use_trace else plain).append(
                runner.round(len(plain) + len(traced) + 1, use_trace)
            )
            balanced = not trace or len(traced) == len(plain)
            if balanced and time.perf_counter() - start >= seconds:
                break
        measured = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        threads = len(os.listdir("/proc/self/task"))  # OS threads of this process

        # the reference runs after the peak memory is read, so scipy stays out of it
        reference = checks.reference_dist(wl)
        worst = 0.0
        for op_id, table in runner.tables:
            error, reason = checks.dist_error(table, reference)
            worst = max(worst, error)
            runner.ops[op_id].reason = runner.ops[op_id].reason or reason

        info = stamp(name, seed)
        info.update(threads=threads, trace=int(trace), seconds=seconds, measured_s=measured)
        lines = [f"# alphapath benchmark {json.dumps(info, sort_keys=True)}"]
        rows: list[tuple[str, float, str, str]] = []
        if trace:
            spans = [[(op.id, op.command) for op in r] for r in traced]
            scale = {op.id: op.nominal / op.seconds for op in runner.ops}
            metrics, absent = tracing.layer_metrics(tracer, spans, scale)
            metrics["cli.bytes_written"] = float(
                statistics.median(sum(op.bytes for op in r) for r in traced)
            )
            metrics["trace.overhead_s"] = sum(
                _median_nominal(traced, c) - _median_nominal(plain, c)
                for c in workloads.COMMANDS
            )
            for m in LAYER_NAMES:
                note = "absent" if m in absent else f"median of {len(traced)} rounds"
                rows.append((m, metrics[m], tracing.unit_of(m), note))
            units = {m: tracing.unit_of(m) for m in LAYER_NAMES}
            dump = WORK / f"trace-{name}-seed{seed}.jsonl"
            tracer.dump(dump, dict(info, ops=[op.__dict__ for op in runner.ops]))
            lines.append(f"# {len(tracer.spans)} spans written to {dump}")
            lines.append(
                "# trace.overhead_s: traced minus untraced call, summed over the "
                f"commands; medians over {len(traced)} traced and {len(plain)} untraced rounds"
            )
        else:
            metrics = {"setup_s": statistics.median(n for _, n in setup)}
            raw = statistics.median(w for w, _ in setup)
            rows.append(
                ("setup_s", metrics["setup_s"], "s", f"median of {len(setup)} interpreters, wall {raw:.4f}")
            )
            for command in workloads.COMMANDS:
                ops = [op for r in plain for op in r if op.command == command]
                metrics[f"{command}_s"] = _median_nominal(plain, command)
                raw = statistics.median(op.seconds for op in ops)
                rows.append(
                    (f"{command}_s", metrics[f"{command}_s"], "s", f"median of {len(ops)} calls, wall {raw:.4f}")
                )
            metrics["peak_rss_mb"] = peak_rss_mb
            rows.append(("peak_rss_mb", peak_rss_mb, "MB", "ru_maxrss of this process"))
            units = E2E_UNITS

        failed = [op for op in runner.ops if op.reason]
        attempted = len(runner.ops)
        rows.append(("fail_ratio", len(failed) / attempted, "ratio", f"{len(failed)} of {attempted} CLI calls"))
        for m, value, unit, note in rows:
            lines.append(f"{m:34s} {value:>14.6g} {unit:6s} {note}")
        lines.append(
            "# times in nominal seconds: wall rescaled by the machine pace sampled "
            f"every {calibrate.INTERVAL_S} s during each call (calibrate.py)"
        )
        lines.append(f"# dist table: largest error {worst:.3g} against the scipy DOP853 reference")
        for op in failed[:10]:
            lines.append(f"# FAILED op {op.id} ({op.command}, round {op.round}): {op.reason}")
        result = {
            "correct": not failed and threads <= info["nproc"],
            "attempted": attempted,
            "failed": len(failed),
            "metrics": {m: {"value": float(metrics[m]), "unit": units[m]} for m in units},
        }
        return result, lines
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.BUILDERS:
        done = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            capture_output=True,
            text=True,
            timeout=600,
        )
        sys.stderr.write(done.stderr)
        out = done.stdout.strip().splitlines()
        if done.returncode != 0 or not out:
            print(f"# {name}: exit code {done.returncode}", file=sys.stderr)
            return 1
        print(f"## {name}")
        print("\n".join(out[:-1]))
        result = json.loads(out[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for m, v in result["metrics"].items():
            combined["metrics"][f"{name}.{m}"] = v
    print(json.dumps(combined))
    return 0


def _perturb_dist(command: str, outdir: Path) -> None:
    """Shift one x of the dist table by 1e-6, far beyond the gate's 1e-9."""
    if command != "dist":
        return
    path = outdir / checks.dist_name()
    lines = path.read_text(encoding="utf-8").splitlines()
    k = len(lines) // 2
    alpha, x = lines[k].split(",")
    lines[k] = f"{alpha},{float(x) + 1e-6!r}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def selftest() -> int:
    """Smoke-size runs of every workload in both modes must emit exactly the
    metrics BENCHMARK.json names and pass; a perturbed dist table must fail."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    rationale = json.loads((HERE / "rationale.json").read_text(encoding="utf-8"))
    problems = []
    if set(rationale["predictions"]) != set(expected[1]):
        problems.append("rationale.json predictions do not match the per-layer metrics")
    if set(rationale["workloads"]) != set(workloads.BUILDERS):
        problems.append("rationale.json workloads do not match workloads.py")
    for name in workloads.BUILDERS:
        for trace in (0, 1):
            result, lines = run_workload(name, 1, 0, trace, smoke=True, setup_repeats=1)
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            status = "ok"
            if got != expected[trace]:
                status = f"metric names differ: {sorted(set(got) ^ set(expected[trace]))}"
            elif not result["correct"]:
                status = "incorrect: " + "; ".join(l for l in lines if "FAILED" in l)
            print(f"smoke {name} trace={trace}: {len(got)} metrics, {status}")
            if status != "ok":
                problems.append(f"{name} trace={trace}: {status}")
    result, lines = run_workload("wide-fan", 1, 0, 0, smoke=True, setup_repeats=1, perturb=_perturb_dist)
    ratio = result["failed"] / result["attempted"]
    fired = ratio > 0 and any("off the reference" in l for l in lines)
    print(f"perturbed dist table: fail_ratio {ratio:.3g}, gate {'fired' if fired else 'DID NOT fire'}")
    if not fired:
        problems.append("the correctness gate missed a perturbed dist table")
    for p in problems:
        print(f"selftest problem: {p}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.BUILDERS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="smoke run and gate self-test")
    args = parser.parse_args(argv)
    try:
        if args.selftest:
            return selftest()
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            return run_all(args)
        result, lines = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
