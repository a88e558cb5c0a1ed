"""Tests for the surrogate driver sampler and the dominance verifier."""

from __future__ import annotations

import random

import numpy as np
import pytest

from alphapath import (
    SamplePath,
    UdeSpec,
    dominance_check,
    phi_inv,
    sample_lipschitz_path,
    solve_alpha_path,
    solve_sample_path,
)
from alphapath import oracle as oracle_module
from alphapath import solver
from alphapath.errors import (
    AlignmentError,
    BlowUpError,
    ConfigError,
    DomainError,
    HypothesisError,
)
from alphapath.oracle import SLOPE_MARGIN, SLOPE_WINDOW

from conftest import polynomial_spec, tanh_spec


def test_sample_path_validation():
    with pytest.raises(ConfigError):
        SamplePath(breakpoints=(0.0,), slopes=())
    with pytest.raises(ConfigError):
        SamplePath(breakpoints=(0.1, 1.0), slopes=(1.0,))
    with pytest.raises(ConfigError):
        SamplePath(breakpoints=(0.0, 0.5, 0.5), slopes=(1.0, 1.0))
    with pytest.raises(ConfigError):
        SamplePath(breakpoints=(0.0, 1.0), slopes=(1.0, 2.0))


def test_sample_path_value_piecewise_linear():
    c = SamplePath(breakpoints=(0.0, 0.5, 1.0), slopes=(2.0, -1.0))
    assert c.value(0.0) == 0.0
    assert c.value(0.25) == 0.5
    assert c.value(0.5) == 1.0
    assert c.value(1.0) == 0.5
    with pytest.raises(DomainError):
        c.value(1.5)


def test_sampler_single_segment_range():
    path = sample_lipschitz_path(1.0, "below", 1.0, segments=1, seed=3)
    assert len(path.slopes) == 1
    assert 1.0 - SLOPE_WINDOW <= path.slopes[0] <= 1.0 - SLOPE_MARGIN


def test_sampler_below_certifies_difference_quotients():
    bound = 0.75
    path = sample_lipschitz_path(bound, "below", 2.0, segments=16, seed=11)
    assert path.max_slope <= bound - SLOPE_MARGIN
    # piecewise linearity: every difference quotient is within the slope hull
    rng = random.Random(5)
    for _ in range(200):
        t = rng.uniform(0.0, 2.0)
        s = rng.uniform(t + 1e-9, 2.0)
        quotient = (path.value(s) - path.value(t)) / (s - t)
        assert quotient <= bound - SLOPE_MARGIN + 1e-12
        assert quotient >= path.min_slope - 1e-12


def test_sampler_above_mirrors():
    bound = -0.4
    path = sample_lipschitz_path(bound, "above", 1.0, segments=8, seed=21)
    assert path.min_slope >= bound + SLOPE_MARGIN
    rng = random.Random(6)
    for _ in range(100):
        t = rng.uniform(0.0, 1.0)
        s = rng.uniform(t + 1e-9, 1.0)
        quotient = (path.value(s) - path.value(t)) / (s - t)
        assert quotient >= bound + SLOPE_MARGIN - 1e-12


def test_sampler_deterministic():
    a = sample_lipschitz_path(0.3, "below", 1.0, segments=4, seed=123)
    b = sample_lipschitz_path(0.3, "below", 1.0, segments=4, seed=123)
    assert a == b


def test_sampler_rejects_bad_arguments():
    with pytest.raises(ConfigError):
        sample_lipschitz_path(0.0, "sideways", 1.0, 4, 0)
    with pytest.raises(ConfigError):
        sample_lipschitz_path(0.0, "below", 1.0, 0, 0)


def test_dominance_below_polynomial_closed_form():
    # any slope m < phi_inv(alpha) gives m t^2/2 < phi_inv(alpha) t^2/2
    spec = polynomial_spec(2, step=1.0 / 256)
    report = dominance_check(
        spec, alpha=0.7, delta=0.05, n_paths=25, segments=16, side="below", seed=17
    )
    assert report.passed
    assert report.min_margin > 0.0
    assert report.paths_tested == 25


def test_dominance_above_polynomial():
    spec = polynomial_spec(2, step=1.0 / 256)
    report = dominance_check(
        spec, alpha=0.3, delta=0.05, n_paths=25, segments=16, side="above", seed=17
    )
    assert report.passed


def test_dominance_nonlinear_both_sides():
    spec = tanh_spec(2, step=1.0 / 256)
    for side in ("below", "above"):
        report = dominance_check(
            spec, alpha=0.8, delta=0.05, n_paths=20, segments=16, side=side, seed=4
        )
        assert report.passed, side


def test_boundary_driver_reproduces_alpha_path_exactly():
    # the alpha-path recast as a constant-slope sample path: equality at
    # every node, so strict dominance must NOT hold
    spec = polynomial_spec(2, step=1.0 / 256)
    alpha = 0.8
    c = SamplePath(breakpoints=(0.0, 1.0), slopes=(phi_inv(alpha),))
    trajectory = solve_sample_path(spec, c)
    target = solve_alpha_path(spec, alpha)
    assert np.array_equal(trajectory.states, target.states)
    margin = target.position[1:] - trajectory.position[1:]
    assert (margin <= 0.0).all()  # equality: no strictly positive margin


def test_boundary_driver_is_reported_as_violation(monkeypatch):
    # route the boundary driver through the verifier: every node must be
    # flagged, ordered by (path, t), and the report must not pass
    spec = polynomial_spec(2, step=1.0 / 64)
    alpha = 0.8

    def constant_bound_path(bound, side, horizon, segments, seed):
        return SamplePath(breakpoints=(0.0, horizon), slopes=(phi_inv(alpha),))

    monkeypatch.setattr(oracle_module, "sample_lipschitz_path", constant_bound_path)
    # enough paths that the drivers are integrated as one block
    n_paths = solver.BLOCK_MIN_ROWS
    report = dominance_check(
        spec, alpha=alpha, delta=0.05, n_paths=n_paths, segments=1, side="below", seed=0
    )
    assert not report.passed
    assert report.min_margin == 0.0
    assert len(report.violations) == n_paths * 64  # every node t >= h, every path
    assert report.violations == sorted(report.violations)
    assert {v[0] for v in report.violations} == set(range(n_paths))
    # chunks of 10 paths, integrated row by row, give the same report
    monkeypatch.setattr(oracle_module, "CHUNK_PATHS", 10)
    kwargs = dict(alpha=alpha, delta=0.05, n_paths=n_paths, segments=1, seed=0)
    assert dominance_check(spec, side="below", **kwargs) == report


def test_dominance_monotone_coupling():
    # pointwise-ordered slopes produce ordered trajectories at every node
    spec = tanh_spec(2, step=1.0 / 128)
    base = sample_lipschitz_path(phi_inv(0.4), "below", 1.0, segments=8, seed=33)
    shifted = SamplePath(
        breakpoints=base.breakpoints,
        slopes=tuple(m + 0.25 for m in base.slopes),
    )
    low = solve_sample_path(spec, base)
    high = solve_sample_path(spec, shifted)
    assert (high.position[1:] > low.position[1:]).all()
    assert high.position[0] == low.position[0]


def test_dominance_reproducible():
    spec = tanh_spec(2, step=1.0 / 128)
    kwargs = dict(alpha=0.8, delta=0.05, n_paths=8, segments=8, side="below", seed=99)
    assert dominance_check(spec, **kwargs) == dominance_check(spec, **kwargs)


def test_dominance_requires_valid_delta():
    spec = polynomial_spec(2, step=1.0 / 64)
    with pytest.raises(DomainError):
        dominance_check(
            spec, alpha=0.04, delta=0.05, n_paths=1, segments=1, side="below", seed=0
        )
    with pytest.raises(DomainError):
        dominance_check(
            spec, alpha=0.98, delta=0.05, n_paths=1, segments=1, side="above", seed=0
        )


@pytest.mark.parametrize("segments", [0, -1])
def test_dominance_rejects_segments_before_the_gate(monkeypatch, segments):
    # the gate would refuse this spec; the segment count is checked first,
    # and no alpha-path is solved for a run that cannot start
    def unreachable(*args, **kwargs):
        raise AssertionError("the alpha-path was solved")

    monkeypatch.setattr(oracle_module, "solve_alpha_path", unreachable)
    bad = UdeSpec.from_strings(2, "0-x0", "1", [0.1, 0.0], 1.0, 1.0 / 64)
    with pytest.raises(ConfigError, match=f"segments must be >= 1, got {segments}"):
        dominance_check(
            bad, alpha=0.8, delta=0.05, n_paths=1, segments=segments,
            side="below", seed=0,
        )


@pytest.mark.parametrize(
    "segments, message",
    [
        (65, "65 segments do not divide the 64 solver steps, so the breakpoint "
         "t=0.015384615384615385 does not fall on a solver node; nearest "
         "divisors of 64: 64"),
        (24, "24 segments do not divide the 64 solver steps, .*; nearest "
         "divisors of 64: 16, 32"),
    ],
    ids=["more-segments-than-steps", "between-two-divisors"],
)
def test_dominance_rejects_misaligned_segments_before_any_work(
    monkeypatch, segments, message
):
    # neither the alpha-path nor a surrogate is computed for a run whose
    # breakpoints cannot fall on solver nodes
    def unreachable(*args, **kwargs):
        raise AssertionError("work was done for a run that cannot start")

    monkeypatch.setattr(oracle_module, "solve_alpha_path", unreachable)
    monkeypatch.setattr(oracle_module, "sample_lipschitz_path", unreachable)
    spec = tanh_spec(2, step=1.0 / 64)
    with pytest.raises(AlignmentError, match=message):
        dominance_check(spec, 0.8, 0.05, 50, segments, "below", 0)


def test_dominance_rejects_an_invalid_spec_before_the_alignment_check():
    spec = UdeSpec.from_strings(2, "x0", "1", [0.1, 0.0], 1.0, 0.0)
    with pytest.raises(ConfigError, match="step must be positive"):
        dominance_check(spec, 0.8, 0.05, 1, 4, "below", 0)


def test_dominance_refuses_without_hypotheses():
    spec = polynomial_spec(2, step=1.0 / 64)
    bad = type(spec).from_strings(2, "0-x0", "1", [0.1, 0.0], 1.0, 1.0 / 64)
    with pytest.raises(HypothesisError):
        dominance_check(
            bad, alpha=0.8, delta=0.05, n_paths=1, segments=1, side="below", seed=0
        )


def test_report_serializes():
    spec = polynomial_spec(2, step=1.0 / 64)
    report = dominance_check(
        spec, alpha=0.7, delta=0.05, n_paths=3, segments=4, side="below", seed=8
    )
    payload = report.to_dict()
    assert payload["passed"] is True
    assert payload["paths_tested"] == 3
    assert payload["violations_total"] == 0


@pytest.mark.parametrize("side", ["below", "above"])
def test_dominance_report_does_not_depend_on_batching(monkeypatch, side):
    # one block, a block of 66 paths and 4 paths alone, and path-by-path
    # scalar solves give the same report, bit for bit
    spec = tanh_spec(3, step=1.0 / 128)
    kwargs = dict(alpha=0.7, delta=0.05, n_paths=70, segments=8, side=side, seed=5)
    block = dominance_check(spec, **kwargs)
    monkeypatch.setattr(oracle_module, "CHUNK_PATHS", 66)
    chunked = dominance_check(spec, **kwargs)
    monkeypatch.setattr(solver, "BLOCK_MIN_ROWS", 10**9)
    scalar = dominance_check(spec, **kwargs)
    assert block == chunked == scalar
    target = solve_alpha_path(spec, 0.7).position[1:]
    margins = []
    for k in range(70):
        surrogate = sample_lipschitz_path(
            phi_inv(0.65 if side == "below" else 0.75),
            side,
            1.0,
            8,
            oracle_module._path_seed(5, k),
        )
        sampled = solve_sample_path(spec, surrogate).position[1:]
        margin = target - sampled if side == "below" else sampled - target
        margins.append(margin.min())
    assert block.min_margin == min(margins) > 0.0


def test_dominance_blowup_names_the_first_failing_path(monkeypatch):
    # x' = x^2 + k on path k blows up within the horizon for k >= 3: the
    # block fails, the rows are rerun one by one, and the error is path 3's,
    # as when every path is solved alone
    def slope_k_path(bound, side, horizon, segments, seed):
        return SamplePath(breakpoints=(0.0, horizon), slopes=(float(seed),))

    monkeypatch.setattr(oracle_module, "sample_lipschitz_path", slope_k_path)
    spec = type(polynomial_spec(1)).from_strings(1, "x0^2", "1", [0.0], 1.0, 1 / 64)
    target = solve_alpha_path(polynomial_spec(1, step=1 / 64), 0.8)
    with pytest.raises(BlowUpError) as excinfo:
        dominance_check(
            spec, alpha=0.8, delta=0.05, n_paths=solver.BLOCK_MIN_ROWS,
            segments=1, side="below", seed=0, target=target,
        )
    for k in range(3):
        solve_sample_path(spec, slope_k_path(0, "", 1.0, 1, k))
    with pytest.raises(BlowUpError) as alone:
        solve_sample_path(spec, slope_k_path(0, "", 1.0, 1, 3))
    assert str(excinfo.value) == str(alone.value)
    assert excinfo.value.last_good_time > 0.5


@pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
@pytest.mark.parametrize("side", ["below", "above"])
def test_min_margin_location_matches_a_brute_force_scan(monkeypatch, side, tied):
    # tied: every path draws the same surrogate, so each margin is tied across
    # paths and the first path holds the minimum
    if tied:
        draw = sample_lipschitz_path

        def same_surrogate(bound, side, horizon, segments, seed):
            return draw(bound, side, horizon, segments, 0)

        monkeypatch.setattr(oracle_module, "sample_lipschitz_path", same_surrogate)
    spec = tanh_spec(2, step=1.0 / 64)
    report = dominance_check(
        spec, alpha=0.6, delta=0.05, n_paths=5, segments=4, side=side, seed=1
    )
    target = solve_alpha_path(spec, 0.6)
    bound = phi_inv(0.55 if side == "below" else 0.65)
    best = (np.inf, -1, np.nan)
    for k in range(5):
        surrogate = oracle_module.sample_lipschitz_path(
            bound, side, 1.0, 4, oracle_module._path_seed(1, k)
        )
        sampled = solve_sample_path(spec, surrogate).position
        for j in range(1, len(target.times)):
            gap = target.position[j] - sampled[j]
            margin = gap if side == "below" else -gap
            if margin < best[0]:
                best = (float(margin), k, float(target.times[j]))
    located = (report.min_margin, report.min_margin_path, report.min_margin_time)
    assert located == best
    exported = report.to_dict()
    assert (
        exported["min_margin"],
        exported["min_margin_path"],
        exported["min_margin_time"],
    ) == best
    assert (best[1] == 0) if tied else (best[1] > 0)
