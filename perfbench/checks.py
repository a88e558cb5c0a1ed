"""Output correctness gate.

Every CLI call is one operation. It fails when it raises, exits with a code
other than 0, writes an artifact whose content is wrong, or writes files
that differ byte for byte from the first call of the same command in the
run. The ``dist`` tables are compared, after the timed loop, with an
independent scipy integration of the same alpha-path ODEs.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from workloads import DIST_T, Workload, phi_inv

DIST_TOLERANCE = 1e-9  # absolute, on every x of the dist table
ALPHA_TOLERANCE = 1e-15


def digest(outdir: Path) -> tuple[dict[str, str], int]:
    """sha256 of every file the call wrote, and their total size in bytes."""
    hashes: dict[str, str] = {}
    total = 0
    for path in sorted(outdir.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            total += len(data)
            hashes[str(path.relative_to(outdir))] = hashlib.sha256(data).hexdigest()
    return hashes, total


def dist_name() -> str:
    return f"dist_t{DIST_T:g}.csv"


def expected_files(wl: Workload, command: str) -> set[str]:
    if command == "solve":
        files = {"run.json"}
        files |= {f"fan.{fmt}" for fmt in wl.formats}
        return files
    if command == "check":
        return {"checks.json", "run.json"}
    if command == "dist":
        return {f"dist_t{DIST_T:g}.{fmt}" for fmt in wl.formats} | {"run.json"}
    return {"oracle.json", "run.json"}


def check_artifacts(wl: Workload, command: str, outdir: Path, hashes: dict) -> str:
    """Content checks of one call's artifacts; returns '' or the reason."""
    missing = expected_files(wl, command) - set(hashes)
    if missing:
        return f"missing artifacts {sorted(missing)}"
    if command == "check":
        report = json.loads((outdir / "checks.json").read_text(encoding="utf-8"))
        if report.get("passed") is not True:
            return "checks.json does not report passed"
    elif command == "oracle":
        report = json.loads((outdir / "oracle.json").read_text(encoding="utf-8"))
        if report.get("passed") is not True:
            return "oracle.json does not report passed"
        reports = report.get("reports", [])
        if len(reports) != 2 * len(wl.oracle_alphas):
            return f"oracle.json has {len(reports)} reports"
        for r in reports:
            if r.get("violations_total") != 0 or r.get("violations"):
                return f"dominance violations at alpha={r.get('alpha')}"
            if r.get("paths_tested") != wl.n_paths:
                return f"paths_tested={r.get('paths_tested')} != n_paths"
    return ""


def read_dist(outdir: Path) -> list[tuple[float, float]]:
    lines = (outdir / dist_name()).read_text(encoding="utf-8").splitlines()
    if lines[0] != "alpha,x":
        raise ValueError(f"unexpected dist header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        a, x = line.split(",")
        rows.append((float(a), float(x)))
    return rows


def reference_dist(wl: Workload) -> tuple[list[float], np.ndarray]:
    """x at DIST_T for every alpha, from scipy's DOP853 at rtol=atol=1e-13.

    All alphas are integrated as one vector ODE; the drift and diffusion are
    the workload's own numpy functions, not the package's expression code.
    """
    from scipy.integrate import solve_ivp

    alphas = wl.alphas()
    c = np.array([phi_inv(a) for a in alphas])
    m, n = len(alphas), wl.order

    def rhs(t, y):
        x = y.reshape(n, m)
        top = wl.f(t, x) + np.abs(wl.g(t, x)) * c
        return np.concatenate([x[1:], top[None, :]]).ravel()

    y0 = np.repeat(np.asarray(wl.initial, dtype=float)[:, None], m, axis=1).ravel()
    sol = solve_ivp(rhs, (0.0, DIST_T), y0, method="DOP853", rtol=1e-13, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return alphas, sol.y[:m, -1]


def dist_error(table: list[tuple[float, float]], reference) -> tuple[float, str]:
    """Largest |x - reference|; a non-empty reason when the table fails."""
    alphas, xs = reference
    if len(table) != len(alphas):
        return float("inf"), f"dist table has {len(table)} rows, expected {len(alphas)}"
    if any(abs(a - b) > ALPHA_TOLERANCE for (a, _), b in zip(table, alphas)):
        return float("inf"), "dist table alphas differ from the configured grid"
    error = float(np.max(np.abs(np.array([x for _, x in table]) - xs)))
    if not error <= DIST_TOLERANCE:
        return error, f"dist table off the reference by {error:.3g}"
    return error, ""
