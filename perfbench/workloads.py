"""Workload definitions: the config each workload hands to the CLI, and the
plain-Python drift and diffusion the correctness gate integrates on its own.

Every workload runs the four subcommands in one fixed order per round. The
commands a workload is not about are sized small, so each end-to-end metric
exists on every workload while the cost of a round stays with the layers the
workload was chosen to stress (see rationale.json).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

COMMANDS = ("solve", "check", "dist", "oracle")
DIST_T = 1.0

RhsFn = Callable[[float, Sequence], object]


@dataclass(frozen=True)
class Workload:
    name: str
    order: int
    f_text: str
    g_text: str
    f: RhsFn  # same function as f_text, written with numpy for the reference
    g: RhsFn
    initial: tuple[float, ...]
    step: float
    alpha_count: int
    alpha_lo: float
    n_paths: int
    segments: int
    formats: tuple[str, ...]
    oracle_alphas: tuple[float, ...] = (0.2, 0.8)
    horizon: float = 1.0
    oracle_delta: float = 0.05

    def config_text(self, seed: int) -> str:
        """The config file the CLI reads; the workload seed is oracle.seed."""
        lines = [
            f"order   = {self.order}",
            f'f       = "{self.f_text}"',
            f'g       = "{self.g_text}"',
            "initial = [" + ", ".join(repr(v) for v in self.initial) + "]",
            f"horizon = {self.horizon!r}",
            f"step    = {self.step!r}",
            f"alpha.count = {self.alpha_count}",
            f"alpha.lo    = {self.alpha_lo!r}",
            f"oracle.delta    = {self.oracle_delta!r}",
            f"oracle.n_paths  = {self.n_paths}",
            f"oracle.segments = {self.segments}",
            f"oracle.seed     = {seed}",
            "oracle.alphas   = [" + ", ".join(repr(a) for a in self.oracle_alphas) + "]",
            "output.formats  = [" + ", ".join(self.formats) + "]",
        ]
        return "\n".join(lines) + "\n"

    def argv(self, command: str, config: str, out: str) -> list[str]:
        argv = [command, "--config", config, "--out", out]
        if command == "dist":
            argv += ["--t", repr(DIST_T)]
        return argv

    def alphas(self) -> list[float]:
        """The symmetric alpha grid as the README defines it: lo .. 1-lo,
        lower half mirrored about 0.5."""
        step = (1.0 - 2.0 * self.alpha_lo) / (self.alpha_count - 1)
        lower = [self.alpha_lo + i * step for i in range(self.alpha_count // 2)]
        return lower + [0.5] + [1.0 - v for v in reversed(lower)]


def _tanh_f(t, x):
    return x[0]


def _tanh_g(t, x):
    return 2.0 + np.tanh(x[0])


def _narrow_f(t, x):
    return 0.5 * x[0] + np.sin(3.0 * t) * x[1]


def _narrow_g(t, x):
    return 1.5 + np.tanh(x[0]) + 0.25 * np.cos(t)


def _wide_fan(smoke: bool) -> Workload:
    return Workload(
        name="wide-fan",
        order=2,
        f_text="x0",
        g_text="2 + tanh(x0)",
        f=_tanh_f,
        g=_tanh_g,
        initial=(0.1, 0.0),
        step=1e-3,
        alpha_count=9 if smoke else 99,
        alpha_lo=0.01,
        # the README's default 32 segments do not divide 1000 steps; 25 do
        n_paths=2 if smoke else 10,
        segments=25,
        formats=("csv", "json"),
    )


def _oracle_sweep(smoke: bool) -> Workload:
    return Workload(
        name="oracle-sweep",
        order=3,
        f_text="x0",
        g_text="2 + tanh(x0)",
        f=_tanh_f,
        g=_tanh_g,
        initial=(0.1, 0.0, 0.0),
        step=1.0 / 800,
        alpha_count=3,
        alpha_lo=0.01,
        n_paths=4 if smoke else 200,
        segments=32,
        formats=("csv",),
    )


def _long_narrow(smoke: bool) -> Workload:
    return Workload(
        name="long-narrow",
        order=2,
        f_text="0.5*x0 + sin(3*t)*x1",
        g_text="1.5 + tanh(x0) + 0.25*cos(t)",
        f=_narrow_f,
        g=_narrow_g,
        initial=(0.1, 0.0),
        step=1e-3 if smoke else 1e-4,
        alpha_count=5,
        alpha_lo=0.1,
        n_paths=1 if smoke else 2,
        segments=25,
        formats=("csv",),
    )


BUILDERS = {
    "wide-fan": _wide_fan,
    "oracle-sweep": _oracle_sweep,
    "long-narrow": _long_narrow,
}


def get(name: str, smoke: bool = False) -> Workload:
    return BUILDERS[name](smoke)


def phi_inv(alpha: float) -> float:
    """The uncertainty-theory normal quantile, restated for the reference."""
    return math.sqrt(3.0) / math.pi * math.log(alpha / (1.0 - alpha))
