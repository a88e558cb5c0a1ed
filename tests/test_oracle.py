"""Tests for the surrogate driver sampler and the dominance verifier."""

from __future__ import annotations

import math
import re
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from alphapath import (
    UdeSpec,
    dominance_checks,
    phi_inv,
    solve_fan,
)
from alphapath import oracle as oracle_module
from alphapath import engine, solver
from alphapath.errors import (
    BlowUpError,
    ConfigError,
    HypothesisError,
)
from alphapath.oracle import (
    SLOPE_MARGIN,
    SLOPE_WINDOW,
    _path_seed,
    _slopes,
    _uniforms,
    setting_problems,
)

from conftest import driven, polynomial_spec, tanh_spec


def _quotients(slopes, horizon):
    """Every difference quotient of the piecewise-linear driver C with C_0 = 0
    and these slopes on equal segments of [0, horizon], taken between two of
    its breakpoints."""
    times = np.linspace(0.0, horizon, len(slopes) + 1)
    values = np.concatenate([[0.0], np.cumsum(slopes * (horizon / len(slopes)))])
    later, earlier = np.triu_indices(len(times), 1)[::-1]
    return (values[later] - values[earlier]) / (times[later] - times[earlier])


def reference_slopes(bound, side, segments, seed):
    """One surrogate's slopes as ``Generator.uniform`` draws them from one
    generator per (alpha, side, path): below in [bound - W, bound - eps],
    above in [bound + eps, bound + W]. The oracle's slopes must equal these
    bit for bit."""
    rng = np.random.default_rng(seed)
    if side == "below":
        return rng.uniform(bound - SLOPE_WINDOW, bound - SLOPE_MARGIN, segments)
    return rng.uniform(bound + SLOPE_MARGIN, bound + SLOPE_WINDOW, segments)


def path_slopes(bounds, seed, k, segments):
    """Path k's rows of a run seeded ``seed``, below then above, as the
    oracle maps its uniforms."""
    return _slopes(bounds, _uniforms(seed, k, k + 1, segments))


def test_sampler_single_segment_range():
    below, above = path_slopes((1.0, 1.5), 3, 0, 1)
    assert below.shape == above.shape == (1,)
    assert 1.0 - SLOPE_WINDOW <= below[0] <= 1.0 - SLOPE_MARGIN
    assert 1.5 + SLOPE_MARGIN <= above[0] <= 1.5 + SLOPE_WINDOW


def test_sampler_below_certifies_difference_quotients():
    bound = 0.75
    slopes, _ = path_slopes((bound, 1.0), 11, 0, 16)
    assert slopes.max() <= bound - SLOPE_MARGIN
    assert slopes.min() >= bound - SLOPE_WINDOW
    # piecewise linearity: every difference quotient is within the slope hull
    quotients = _quotients(slopes, 2.0)
    assert (quotients <= bound - SLOPE_MARGIN + 1e-12).all()
    assert (quotients >= slopes.min() - 1e-12).all()


def test_sampler_above_mirrors():
    # the above row of a path maps its below row's uniforms onto
    # [bound + eps, bound + W]: the two rows are W + eps apart
    bound = -0.4
    below, slopes = path_slopes((bound, bound), 21, 0, 8)
    assert slopes.min() >= bound + SLOPE_MARGIN
    assert slopes.max() <= bound + SLOPE_WINDOW
    assert (_quotients(slopes, 1.0) >= bound + SLOPE_MARGIN - 1e-12).all()
    gap = SLOPE_WINDOW + SLOPE_MARGIN
    np.testing.assert_allclose(slopes - below, gap, rtol=0, atol=1e-12)


def test_sampler_deterministic():
    a = _uniforms(123, 0, 3, 4)
    b = _uniforms(123, 0, 3, 4)
    assert a.tobytes() == b.tobytes()
    assert _slopes((0.3, 0.5), a).tobytes() == _slopes((0.3, 0.5), b).tobytes()
    assert a.tobytes() != _uniforms(124, 0, 3, 4).tobytes()
    # a path's row does not depend on the range it is drawn in
    assert a[1:].tobytes() == _uniforms(123, 1, 3, 4).tobytes()


@pytest.mark.parametrize("segments", [1, 4, 32, 1000])
@pytest.mark.parametrize("seed", [0, 1, 123456789, 2**62 + 5])
def test_slopes_equal_one_uniform_draw_per_alpha_side_and_path(seed, segments):
    # the uniforms drawn once for a run, mapped onto each window, give the
    # bits of one Generator.uniform draw per (alpha, side, path), with
    # alpha - delta near 0 and alpha + delta near 1 among the windows
    paths = (0, 1, 2, 511, 512, 600)
    rows = {k: _uniforms(seed, k, k + 1, segments)[0] for k in paths}
    for k, row in rows.items():
        generator = np.random.default_rng(_path_seed(seed, k))
        assert row.tobytes() == generator.random(segments).tobytes()
    uniforms = np.array(list(rows.values()))
    settings = ((0.05 + 1e-9, 0.05), (0.2, 0.05), (0.5, 0.3), (0.95 - 1e-9, 0.05))
    for alpha, delta in settings:
        bounds = (phi_inv(alpha - delta), phi_inv(alpha + delta))
        slopes = _slopes(bounds, uniforms)
        assert slopes.shape == (2 * len(paths), segments)
        expected = [
            reference_slopes(bound, side, segments, _path_seed(seed, k))
            for bound, side in zip(bounds, oracle_module.SIDES)
            for k in paths
        ]
        assert slopes.tobytes() == np.array(expected).tobytes()


def test_sampler_rejects_bad_arguments():
    # the sampler's segment count is refused before any draw
    spec = tanh_spec(2, step=1.0 / 64)
    with pytest.raises(ConfigError, match="segments must be >= 1, got 0"):
        dominance_checks(spec, [0.8], 0.05, 4, 0, 0)


def test_setting_problems_name_every_fault_with_its_key():
    assert setting_problems([0.2, 0.8], 0.05, 200, 32, 0, 64) == []
    assert setting_problems([1.5, 0.02], 0.0, 0, 0, 0, 64) == [
        ("oracle.delta", "delta must be positive, got 0.0"),
        ("oracle.n_paths", "n_paths must be >= 1, got 0"),
        ("oracle.segments", "segments must be >= 1, got 0"),
        ("oracle.alphas", "need alpha + delta < 1, got alpha=1.5, delta=0.0"),
    ]
    # both sides of every alpha are checked, whatever side a run takes
    assert [m for _, m in setting_problems([0.02, 0.98], 0.05, 1, 1, 0, 64)] == [
        "need alpha - delta > 0, got alpha=0.02, delta=0.05",
        "need alpha + delta < 1, got alpha=0.98, delta=0.05",
    ]
    # the seed and an empty alpha list come first, in the CLI's words
    empty = "`oracle.alphas` must be a non-empty list of numbers, got []"
    assert setting_problems([], 0.0, 1, 1, -1, 64) == [
        ("oracle.seed", "`oracle.seed` must be >= 0, got -1"),
        ("oracle.alphas", empty),
        ("oracle.delta", "delta must be positive, got 0.0"),
    ]
    # every segment needs a step: up to the step count, divisor or not
    assert setting_problems([0.2], 0.05, 1, 64, 0, 64) == []
    assert setting_problems([0.2], 0.05, 1, 24, 0, 64) == []
    assert setting_problems([0.2], 0.05, 1, 65, 0, 64) == [
        ("oracle.segments", "segments must be <= the 64 solver steps, got 65")
    ]


def test_dominance_below_polynomial_closed_form():
    # any slope m < phi_inv(alpha) gives m t^2/2 < phi_inv(alpha) t^2/2
    spec = polynomial_spec(2, step=1.0 / 256)
    report, _ = dominance_checks(
        spec, [0.7], delta=0.05, n_paths=25, segments=16, seed=17
    )
    assert report.side == "below"
    assert report.passed
    assert report.min_margin > 0.0
    assert report.paths_tested == 25


def test_dominance_above_polynomial():
    spec = polynomial_spec(2, step=1.0 / 256)
    _, report = dominance_checks(
        spec, [0.3], delta=0.05, n_paths=25, segments=16, seed=17
    )
    assert report.side == "above"
    assert report.passed


def test_dominance_nonlinear_both_sides():
    spec = tanh_spec(2, step=1.0 / 256)
    reports = dominance_checks(
        spec, [0.8], delta=0.05, n_paths=20, segments=16, seed=4
    )
    assert [r.side for r in reports] == ["below", "above"]
    for report in reports:
        assert report.passed, report.side


def test_boundary_driver_reproduces_alpha_path_exactly():
    # the alpha-path recast as a constant-slope driver: equality at every
    # node, so strict dominance must NOT hold
    spec = polynomial_spec(2, step=1.0 / 256)
    alpha = 0.8
    states = driven(spec, [[phi_inv(alpha)]])[0][0]
    target = solve_fan(spec, [alpha])
    assert np.array_equal(states, target.states[0])
    margin = target.positions[0, 1:] - states[1:, 0]
    assert (margin <= 0.0).all()  # equality: no strictly positive margin


def test_boundary_driver_is_reported_as_violation(monkeypatch):
    # route the boundary driver through the verifier: every node must be
    # flagged, ordered by (path, t), and the report must not pass
    spec = polynomial_spec(2, step=1.0 / 64)
    alpha = 0.8

    def constant_bound_slopes(bounds, uniforms):
        return np.full((2 * len(uniforms), uniforms.shape[1]), phi_inv(alpha))

    monkeypatch.setattr(oracle_module, "_slopes", constant_bound_slopes)
    # 64 paths a side: one batch of 128 rows, compared below with chunks of
    # 10 paths (20 rows) each
    n_paths = 64
    kwargs = dict(delta=0.05, n_paths=n_paths, segments=1, seed=0)
    report, _ = dominance_checks(spec, [alpha], **kwargs)
    assert not report.passed
    assert report.min_margin == 0.0
    assert len(report.violations) == n_paths * 64  # every node t >= h, every path
    assert report.violations == sorted(report.violations)
    assert {v[0] for v in report.violations} == set(range(n_paths))
    # chunks of 10 paths (20 rows) give the same report
    monkeypatch.setattr(oracle_module, "CHUNK_PATHS", 10)
    assert dominance_checks(spec, [alpha], **kwargs)[0] == report


def test_each_alpha_integrates_both_sides_as_one_block(monkeypatch):
    # 2 alphas of 40 paths a side: one call of 80 rows per alpha, the below
    # rows on top, rather than one call of 40 rows per (alpha, side)
    calls = []

    def spy(spec, slopes):
        calls.append(slopes)
        return solver.sample_positions(spec, slopes)

    monkeypatch.setattr(oracle_module, "sample_positions", spy)
    spec = tanh_spec(2, step=1.0 / 64)
    kwargs = dict(delta=0.05, n_paths=40, segments=4, seed=6)
    reports = dominance_checks(spec, [0.3, 0.8], **kwargs)
    assert [len(slopes) for slopes in calls] == [80, 80]
    for alpha, slopes in zip((0.3, 0.8), calls):
        assert (slopes[:40] < phi_inv(alpha - 0.05)).all()
        assert (slopes[40:] > phi_inv(alpha + 0.05)).all()
    assert all(report.passed for report in reports)


def test_chunks_hold_both_sides_of_the_same_paths(monkeypatch):
    # 600 paths a side at the production CHUNK_PATHS: paths 0..511 make one
    # chunk of 1024 rows and paths 512..599 one of 176, each the below rows
    # and then the above rows of its paths; one chunk of all 1200 rows gives
    # the same reports
    calls = []

    def spy(spec, slopes):
        calls.append(slopes)
        return solver.sample_positions(spec, slopes)

    monkeypatch.setattr(oracle_module, "sample_positions", spy)
    spec = tanh_spec(2, step=1.0 / 64)
    kwargs = dict(alphas=[0.7], delta=0.05, n_paths=600, segments=4, seed=3)
    reports = dominance_checks(spec, **kwargs)
    assert [len(slopes) for slopes in calls] == [1024, 176]
    bounds = (phi_inv(0.7 - 0.05), phi_inv(0.7 + 0.05))
    for slopes, paths in zip(calls, (range(512), range(512, 600))):
        drawn = [
            reference_slopes(bound, side, 4, _path_seed(3, k))
            for bound, side in zip(bounds, oracle_module.SIDES)
            for k in paths
        ]
        assert np.array_equal(slopes, drawn)
    monkeypatch.setattr(oracle_module, "CHUNK_PATHS", 10**6)
    assert dominance_checks(spec, **kwargs) == reports


def test_dominance_memory_is_one_chunk_of_positions():
    # shaped like the oracle-sweep benchmark: each alpha's 400 rows are one
    # chunk of positions, 400 x 801 doubles. Storing g for the samples, a
    # chunk kept alive into the next alpha, or a copy of a side's rows while
    # scanning would each add at least half a chunk to the peak. What a row
    # stores does not depend on f and g; the polynomial problem, with no
    # per-element tanh, keeps the traced run short
    spec = polynomial_spec(3, step=1.0 / 800)
    kwargs = dict(alphas=[0.2, 0.8], delta=0.05, n_paths=200, segments=32, seed=9)
    dominance_checks(spec, **{**kwargs, "n_paths": 32})  # generated code compiled
    chunk_bytes = 2 * 200 * 801 * 8
    tracemalloc.start()
    try:
        reports = dominance_checks(spec, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(report.passed for report in reports)
    assert peak <= 1.25 * chunk_bytes


def test_dominance_monotone_coupling():
    # pointwise-ordered slopes produce ordered trajectories at every node
    spec = tanh_spec(2, step=1.0 / 128)
    base = reference_slopes(phi_inv(0.4), "below", 8, 33)
    low, high = driven(spec, [base, base + 0.25])[0][:, :, 0]
    assert (high[1:] > low[1:]).all()
    assert high[0] == low[0]


def test_dominance_reproducible():
    spec = tanh_spec(2, step=1.0 / 128)
    kwargs = dict(alphas=[0.8], delta=0.05, n_paths=8, segments=8, seed=99)
    assert dominance_checks(spec, **kwargs) == dominance_checks(spec, **kwargs)


def test_dominance_requires_valid_delta():
    # a setting fault, so a ConfigError like every other setting's
    spec = polynomial_spec(2, step=1.0 / 64)
    with pytest.raises(ConfigError, match="need alpha - delta > 0"):
        dominance_checks(spec, [0.04], delta=0.05, n_paths=1, segments=1, seed=0)
    with pytest.raises(ConfigError, match="need alpha \\+ delta < 1"):
        dominance_checks(spec, [0.98], delta=0.05, n_paths=1, segments=1, seed=0)


@pytest.mark.parametrize("segments", [0, -1])
def test_dominance_rejects_segments_before_the_gate(monkeypatch, segments):
    # the gate would refuse this spec; the segment count is checked first,
    # and no alpha-path is solved for a run that cannot start
    def unreachable(*args, **kwargs):
        raise AssertionError("the alpha-path was solved")

    monkeypatch.setattr(oracle_module, "solve_fan", unreachable)
    bad = UdeSpec.from_strings(2, "0-x0", "1", [0.1, 0.0], 1.0, 1.0 / 64)
    with pytest.raises(ConfigError, match=f"segments must be >= 1, got {segments}"):
        dominance_checks(
            bad, [0.8], delta=0.05, n_paths=1, segments=segments, seed=0
        )


@pytest.mark.parametrize(
    "segments", [65, 10**7], ids=["more-segments-than-steps", "ten-million-segments"]
)
def test_dominance_rejects_misaligned_segments_before_any_work(monkeypatch, segments):
    # neither the alpha-path nor a surrogate is computed, and no slope drawn,
    # for a run with more segments than its 64 steps: a segment without a
    # step would put a breakpoint off the solver nodes
    def unreachable(*args, **kwargs):
        raise AssertionError("work was done for a run that cannot start")

    monkeypatch.setattr(oracle_module, "solve_fan", unreachable)
    monkeypatch.setattr(oracle_module, "_uniforms", unreachable)
    spec = tanh_spec(2, step=1.0 / 64)
    message = f"segments must be <= the 64 solver steps, got {segments}"
    with pytest.raises(ConfigError, match=message):
        dominance_checks(spec, [0.8], 0.05, 50, segments, 0)


def test_dominance_runs_segments_that_do_not_divide_the_steps(monkeypatch):
    # 24 segments over 64 steps: the first 16 span 3 steps and the last 8
    # span 2, and each surrogate is integrated over exactly those counts
    counts = []
    original = solver._solve_rows

    def spy(spec, signed, segment_counts, *args, **kwargs):
        if signed:
            counts.append(list(segment_counts))
        return original(spec, signed, segment_counts, *args, **kwargs)

    monkeypatch.setattr(solver, "_solve_rows", spy)
    spec = tanh_spec(2, step=1.0 / 64)
    reports = dominance_checks(spec, [0.8], 0.05, 5, 24, 0)
    assert counts == [[3] * 16 + [2] * 8]
    assert [(r.side, r.paths_tested, r.passed) for r in reports] == [
        ("below", 5, True),
        ("above", 5, True),
    ]


def test_dominance_rejects_an_invalid_spec_before_the_alignment_check():
    spec = UdeSpec.from_strings(2, "x0", "1", [0.1, 0.0], 1.0, 0.0)
    with pytest.raises(ConfigError, match="step must be positive"):
        dominance_checks(spec, [0.8], 0.05, 1, 4, 0)


def test_dominance_refuses_without_hypotheses():
    spec = polynomial_spec(2, step=1.0 / 64)
    bad = type(spec).from_strings(2, "0-x0", "1", [0.1, 0.0], 1.0, 1.0 / 64)
    with pytest.raises(HypothesisError):
        dominance_checks(bad, [0.8], delta=0.05, n_paths=1, segments=1, seed=0)


def test_report_serializes():
    spec = polynomial_spec(2, step=1.0 / 64)
    report, _ = dominance_checks(
        spec, [0.7], delta=0.05, n_paths=3, segments=4, seed=8
    )
    payload = report.to_dict()
    assert payload["passed"] is True
    assert payload["paths_tested"] == 3
    assert payload["violations_total"] == 0


def test_report_with_violations_serializes():
    violations = [(1, 0.5, 1.25, 1.0), (1, 0.75, 1.5, 1.25)]
    report = oracle_module.DominanceReport(
        0.8, 0.05, "below", 2, violations, -0.25, 1, 0.5
    )
    assert report.to_dict() == {
        "alpha": 0.8,
        "delta": 0.05,
        "side": "below",
        "paths_tested": 2,
        "passed": False,
        "min_margin": -0.25,
        "min_margin_path": 1,
        "min_margin_time": 0.5,
        "violations_total": 2,
        "violations": violations,
    }


@pytest.mark.parametrize("side", ["below", "above"])
def test_dominance_report_does_not_depend_on_batching(monkeypatch, side):
    # one batch of both sides' 140 rows and chunks of 66 and 4 paths (132 and
    # 8 rows: the edge falls inside each side's paths), each in C where there
    # is a compiler, and path-by-path Python solves give the same report,
    # bit for bit
    spec = tanh_spec(3, step=1.0 / 128)
    kwargs = dict(alphas=[0.7], delta=0.05, n_paths=70, segments=8, seed=5)
    monkeypatch.setattr(engine, "_LIBRARIES", {})
    monkeypatch.setattr(engine, "COMPILE_MIN_ROW_STEPS", 0)
    block = dominance_checks(spec, **kwargs)
    monkeypatch.setattr(oracle_module, "CHUNK_PATHS", 66)
    chunked = dominance_checks(spec, **kwargs)
    monkeypatch.setattr(engine, "_LIBRARIES", {})
    monkeypatch.setattr(engine, "COMPILE_MIN_ROW_STEPS", math.inf)
    scalar = dominance_checks(spec, **kwargs)
    assert block == chunked == scalar
    (report,) = [r for r in block if r.side == side]
    target = solve_fan(spec, [0.7]).positions[0, 1:]
    bound = phi_inv(0.7 - 0.05 if side == "below" else 0.7 + 0.05)
    margins = []
    for k in range(70):
        slopes = reference_slopes(bound, side, 8, _path_seed(5, k))
        sampled = solver.sample_positions(spec, slopes[None])[0, 1:]
        margin = target - sampled if side == "below" else sampled - target
        margins.append(margin.min())
    assert report.min_margin == min(margins) > 0.0


def test_dominance_blowup_names_the_first_failing_path(monkeypatch):
    # x' = x^2 + k on path k blows up within the horizon for k >= 3: with 64
    # paths a side, most rows of the one batch of 128 fail, and the error is
    # path 3's, as when every path is solved alone. df/dx0 = 2 x0 < 0 below
    # the origin, so the gate would refuse this spec; it is passed by hand
    def path_index(seed, first, last, segments):
        return np.repeat(np.arange(first, last, dtype=float)[:, None], segments, 1)

    def slope_k(bounds, uniforms):
        return np.concatenate([uniforms, uniforms])

    def passing_gate(*args, **kwargs):
        return SimpleNamespace(passed=True)

    monkeypatch.setattr(oracle_module, "_uniforms", path_index)
    monkeypatch.setattr(oracle_module, "_slopes", slope_k)
    monkeypatch.setattr(oracle_module, "check_hypotheses", passing_gate)
    spec = type(polynomial_spec(1)).from_strings(1, "x0^2", "1", [0.0], 1.0, 1 / 64)
    with pytest.raises(BlowUpError) as excinfo:
        dominance_checks(spec, [0.8], delta=0.05, n_paths=64, segments=1, seed=0)
    for k in range(3):
        solver.sample_positions(spec, np.array([[float(k)]]))
    with pytest.raises(BlowUpError) as alone:
        solver.sample_positions(spec, np.array([[3.0]]))
    assert str(excinfo.value) == str(alone.value)
    assert excinfo.value.last_good_time > 0.5


def _spy_generators(monkeypatch):
    """The seeds of every generator the oracle's own code builds, in order;
    the generator of the gate's condition-H sample is not the oracle's."""
    seeds = []
    build = np.random.default_rng

    def spy(seed):
        if sys._getframe(1).f_globals["__name__"] == oracle_module.__name__:
            seeds.append(seed)
        return build(seed)

    monkeypatch.setattr(np.random, "default_rng", spy)
    return seeds


def test_a_run_draws_each_paths_uniforms_once(monkeypatch):
    # one generator per path for both sides and both alphas; in chunks of 2
    # paths, the first chunk's paths 0 and 1 serve both alphas and the later
    # chunks' paths 2, 3 and 4 are drawn once per alpha: 8 generators
    seeds = _spy_generators(monkeypatch)
    spec = tanh_spec(2, step=1.0 / 64)
    kwargs = dict(alphas=[0.3, 0.8], delta=0.05, n_paths=5, segments=4, seed=3)
    reports = dominance_checks(spec, **kwargs)
    assert seeds == [_path_seed(3, k) for k in range(5)]
    seeds.clear()
    monkeypatch.setattr(oracle_module, "CHUNK_PATHS", 2)
    assert dominance_checks(spec, **kwargs) == reports
    assert seeds == [_path_seed(3, k) for k in (0, 1, 2, 3, 4, 2, 3, 4)]


def test_a_refused_run_draws_no_uniforms(monkeypatch):
    # refused by its settings, or at its first alpha's gate: no generator
    seeds = _spy_generators(monkeypatch)
    spec = tanh_spec(2, step=1.0 / 64)
    with pytest.raises(ConfigError, match="alpha - delta > 0"):
        dominance_checks(spec, [0.8, 0.02], 0.05, 5, 4, 0)
    with pytest.raises(ConfigError, match="segments must be <= the 64 solver"):
        dominance_checks(spec, [0.8], 0.05, 5, 65, 0)
    bad = UdeSpec.from_strings(2, "0-x0", "1", [0.1, 0.0], 1.0, 1.0 / 64)
    with pytest.raises(HypothesisError):
        dominance_checks(bad, [0.8, 0.3], 0.05, 5, 4, 0)
    assert seeds == []


def test_dominance_checks_equal_one_check_per_alpha_and_side():
    # one report per (alpha, side), alpha by alpha, each one's sides in the
    # order of SIDES, as a run of each alpha alone gives them
    spec = tanh_spec(2, step=1.0 / 64)
    kwargs = dict(delta=0.05, n_paths=5, segments=4, seed=3)
    reports = dominance_checks(spec, [0.3, 0.8], **kwargs)
    assert [(r.alpha, r.side) for r in reports] == [
        (alpha, side) for alpha in (0.3, 0.8) for side in oracle_module.SIDES
    ]
    assert reports == [
        report
        for alpha in (0.3, 0.8)
        for report in dominance_checks(spec, [alpha], **kwargs)
    ]


def test_dominance_checks_reject_a_later_alpha_before_any_solve(monkeypatch):
    # 0.02 - 0.05 <= 0 is found before 0.8 is solved, gated or sampled
    def unreachable(*args, **kwargs):
        raise AssertionError("work was done for a run that cannot start")

    monkeypatch.setattr(oracle_module, "solve_fan", unreachable)
    monkeypatch.setattr(oracle_module, "_uniforms", unreachable)
    spec = tanh_spec(2, step=1.0 / 64)
    with pytest.raises(ConfigError, match="alpha - delta > 0"):
        dominance_checks(spec, [0.8, 0.02], 0.05, 5, 4, 0)


@pytest.mark.parametrize(
    "alphas, seed, message",
    [
        ([0.2, 0.8], -1, "`oracle.seed` must be >= 0, got -1"),
        ([], 0, "`oracle.alphas` must be a non-empty list of numbers, got []"),
    ],
    ids=["negative-seed", "no-alphas"],
)
def test_dominance_checks_refuse_a_bad_seed_or_no_alphas_before_any_solve(
    monkeypatch, alphas, seed, message
):
    def unreachable(*args, **kwargs):
        raise AssertionError("work was done for a run that cannot start")

    monkeypatch.setattr(oracle_module, "solve_fan", unreachable)
    monkeypatch.setattr(oracle_module, "_uniforms", unreachable)
    spec = tanh_spec(2, step=1.0 / 64)
    with pytest.raises(ConfigError, match=re.escape(message)):
        dominance_checks(spec, alphas, 0.05, 4, 4, seed)


@pytest.mark.parametrize("case", ["distinct", "tied", "chunked"])
@pytest.mark.parametrize("side", ["below", "above"])
def test_min_margin_location_matches_a_brute_force_scan(monkeypatch, side, case):
    # tied: every path draws the same surrogate, so each margin is tied across
    # paths and the first path holds the minimum; chunked: the 5 paths are
    # integrated and scanned two at a time, both sides' rows of them
    # together, so the third chunk holds below path 4 and above path 4, and
    # with seed 2 a later chunk than the first holds each side's minimum
    # (below path 3, above path 2)
    if case == "tied":

        def same_surrogate(seed, first, last, segments):
            return np.repeat(_uniforms(0, 0, 1, segments), last - first, 0)

        monkeypatch.setattr(oracle_module, "_uniforms", same_surrogate)
    seed = 1
    if case == "chunked":
        monkeypatch.setattr(oracle_module, "CHUNK_PATHS", 2)
        seed = 2
    spec = tanh_spec(2, step=1.0 / 64)
    reports = dominance_checks(
        spec, [0.6], delta=0.05, n_paths=5, segments=4, seed=seed
    )
    (report,) = [r for r in reports if r.side == side]
    target = solve_fan(spec, [0.6])
    bounds = (phi_inv(0.6 - 0.05), phi_inv(0.6 + 0.05))
    best = (np.inf, -1, np.nan)
    for k in range(5):
        rows = oracle_module._slopes(bounds, oracle_module._uniforms(seed, k, k + 1, 4))
        slopes = rows[oracle_module.SIDES.index(side)]
        sampled = solver.sample_positions(spec, slopes[None])[0]
        for j in range(1, len(target.times)):
            gap = target.positions[0, j] - sampled[j]
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
    assert (best[1] == 0) if case == "tied" else (best[1] > 0)
    if case == "chunked":
        assert best[1] >= 2
