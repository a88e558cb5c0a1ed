"""End-to-end command tests: exit codes, artifacts, and reproducibility."""

from __future__ import annotations

import json
import math
import os
import threading
import time

import numpy as np
import pytest

from alphapath import (
    AlphaGridSpec,
    alpha_grid,
    check_hypotheses,
    expected_value,
    inverse_distribution,
    phi_inv,
    solve_fan,
)
from alphapath import cli
from alphapath import config as config_module
from alphapath import oracle, solver
from alphapath.cli import _write_text, main
from alphapath.config import KNOWN_KEYS, load_config, parse_config_text
from alphapath.errors import ConfigError
from alphapath.expr import MAX_DEPTH

from conftest import needs_compiler, reference_fan_csv, reference_fan_json, tanh_spec

RENDERERS = [pytest.param("c", marks=needs_compiler), "repr"]

BASE_CONFIG = """\
# nonlinear second-order run
order   = 2
f       = "x0"
g       = "2 + tanh(x0)"
initial = [0.1, 0]
horizon = 1.0
step    = 0.0025
alpha.count = 9
alpha.lo    = 0.1
oracle.n_paths  = 6
oracle.segments = 16
oracle.seed     = 2718
output.formats  = [csv, json]
"""


def write_config(tmp_path, text=BASE_CONFIG, name="run.conf"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_config_parsing_round_trip(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.spec.order == 2
    assert cfg.spec.initial == (0.1, 0.0)
    assert cfg.alpha.count == 9
    assert cfg.oracle.seed == 2718
    assert cfg.output_formats == ("csv", "json")
    assert cfg.raw["order"] == 2


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        values, lines = parse_config_text("order = 2\naplha.count = 9\n")
        from alphapath.config import build_config

        build_config(values, lines)


def test_config_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("order = 2\nwhat is this\n")


def test_config_expression_error_names_line(tmp_path):
    bad = BASE_CONFIG.replace('f       = "x0"', 'f       = "x0 +"')
    with pytest.raises(ConfigError, match="`f` does not parse"):
        load_config(write_config(tmp_path, bad))


def test_solve_writes_artifacts(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "fan.csv").exists()
    assert (out / "fan.json").exists()
    run = json.loads((out / "run.json").read_text())
    assert run["config"]["order"] == 2
    assert run["solver"]["nodes"] == 401
    assert run["solver"]["alpha_count"] == 9


def test_fan_csv_round_trips_bit_exactly(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    spec = tanh_spec(2, step=0.0025)
    fan = solve_fan(spec, alpha_grid(AlphaGridSpec(count=9, lo=0.1)))
    lines = (out / "fan.csv").read_text().splitlines()
    assert lines[0] == "alpha,t,x0,x1"
    rows = [line.split(",") for line in lines[1:]]
    nodes = spec.step_count + 1
    assert len(rows) == 9 * nodes
    for i, alpha in enumerate(fan.grid):
        block = rows[i * nodes : (i + 1) * nodes]
        assert all(float(r[0]) == alpha for r in block)
        times = np.array([float(r[1]) for r in block])
        states = np.array([[float(r[2]), float(r[3])] for r in block])
        assert np.array_equal(times, fan.times)
        assert np.array_equal(states, fan.states[i])


def test_missing_key_exits_2(tmp_path, capsys):
    text = "\n".join(
        line for line in BASE_CONFIG.splitlines() if not line.startswith("g")
    )
    cfg = write_config(tmp_path, text)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "missing key `g`" in capsys.readouterr().err


def test_blowup_exits_3_naming_alpha(tmp_path, capsys):
    text = BASE_CONFIG.replace('f       = "x0"', 'f       = "exp(x0)"').replace(
        "initial = [0.1, 0]", "initial = [2, 2]"
    ).replace("horizon = 1.0", "horizon = 4.0")
    cfg = write_config(tmp_path, text)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "alpha" in err and "t=" in err
    # the oracle's alpha-path is a fan of one, so its blow-up reads as a fan's
    out = tmp_path / "oracle"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "error: fan solve failed for alpha in [0.2]: trajectory blew up" in err
    assert not (out / "oracle.json").exists()


def test_check_passes_on_blessed_spec(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 0
    checks = json.loads((out / "checks.json").read_text())
    assert checks["passed"]
    assert checks["regularity"]["passed"]
    assert checks["condition_h"]["passed"]
    assert checks["monotone"]["passed"]


def test_check_fails_on_negative_drift(tmp_path, capsys):
    text = BASE_CONFIG.replace('f       = "x0"', 'f       = "0-x0"')
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 4
    checks = json.loads((out / "checks.json").read_text())
    assert not checks["condition_h"]["passed"]
    assert checks["condition_h"]["min_partial"] == pytest.approx(-1.0, abs=1e-6)


def test_check_fails_on_sign_changing_diffusion(tmp_path):
    text = BASE_CONFIG.replace('g       = "2 + tanh(x0)"', 'g       = "t-0.5"')
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 4
    checks = json.loads((out / "checks.json").read_text())
    assert not checks["regularity"]["passed"]
    times = [v[1] for v in checks["regularity"]["violations"]]
    assert times and max(times) <= 0.5 + 1e-12


@pytest.mark.parametrize("g", ["2 + tanh(x0)", "0*x0"], ids=["passing", "failing"])
def test_checks_json_is_the_hypothesis_report(tmp_path, g):
    text = BASE_CONFIG.replace('g       = "2 + tanh(x0)"', f'g       = "{g}"')
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out)]) in (0, 4)
    config = load_config(cfg)
    fan = solve_fan(config.spec, alpha_grid(config.alpha))
    report = check_hypotheses(fan, seed=config.oracle.seed)
    expected = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    assert (out / "checks.json").read_text(encoding="utf-8") == expected


def test_check_names_the_failing_checks_in_field_order(tmp_path, capsys):
    # g = 0 fails regularity, and every path is the same, so the fan is not
    # ordered; df/dx0 = 1 and dg/dx0 = 0 pass condition H
    text = BASE_CONFIG.replace('g       = "2 + tanh(x0)"', 'g       = "0*x0"')
    cfg = write_config(tmp_path, text)
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    assert capsys.readouterr().err == "error: checks failed: regularity, monotone\n"


def test_dist_writes_table_and_expected_value(tmp_path):
    text = BASE_CONFIG.replace('f       = "x0"', 'f       = "0"').replace(
        'g       = "2 + tanh(x0)"', 'g       = "1"'
    ).replace("initial = [0.1, 0]", "initial = [0, 0]")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["dist", "--config", cfg, "--out", str(out), "--t", "1.0"]) == 0
    lines = (out / "dist_t1.csv").read_text().splitlines()
    assert lines[0] == "alpha,x"
    for line in lines[1:]:
        a_text, x_text = line.split(",")
        assert float(x_text) == pytest.approx(phi_inv(float(a_text)) / 2.0, abs=1e-12)
    run = json.loads((out / "run.json").read_text())
    assert run["expected_value"]["t"] == 1.0
    assert run["expected_value"]["value"] == pytest.approx(0.0, abs=1e-12)


def test_dist_at_zero_flags_degenerate(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["dist", "--config", cfg, "--out", str(out), "--t", "0"]) == 0
    run = json.loads((out / "run.json").read_text())
    assert run["distribution"]["degenerate"] is True
    assert run["expected_value"]["value"] == 0.1


def test_dist_at_zero_agrees_with_the_library(tmp_path):
    # a trapezoid over 99 copies of 2.7 reads 2.7000000000000006; the
    # degenerate table's value is the initial value itself
    text = BASE_CONFIG.replace("initial = [0.1, 0]", "initial = [2.7, 0]")
    text = text.replace("alpha.count = 9\nalpha.lo    = 0.1\n", "")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["dist", "--config", cfg, "--out", str(out), "--t", "0"]) == 0
    run = json.loads((out / "run.json").read_text())
    config = load_config(cfg)
    assert config.alpha == AlphaGridSpec()
    fan = solve_fan(config.spec, alpha_grid(config.alpha))
    library = expected_value(inverse_distribution(fan, 0.0))
    assert library == run["expected_value"]["value"] == 2.7


def test_dist_names_keep_every_t_apart(tmp_path):
    # 100000.0 and 100000.4 snap to nodes a step apart, and both print as
    # 100000 to six significant digits: the second file is named by repr,
    # so it does not replace the first. A t whose %g text reads back to it
    # keeps that name, dist_t1 for --t 1.0 among them
    text = (
        'order = 1\nf = "0"\ng = "1"\ninitial = [0]\nhorizon = 100000.5\n'
        "step = 0.5\nalpha.count = 3\noracle.n_paths = 1\n"
        "output.formats = [csv, json]\n"
    )
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    for t in ("100000.0", "100000.4", "1.0"):
        argv = ["dist", "--config", cfg, "--out", str(out), "--t", t, "--force"]
        assert main(argv) == 0
    assert sorted(path.name for path in out.iterdir()) == [
        "dist_t1.csv",
        "dist_t1.json",
        "dist_t100000.4.csv",
        "dist_t100000.4.json",
        "dist_t100000.csv",
        "dist_t100000.json",
        "run.json",
    ]
    names = ("dist_t100000", "dist_t100000.4")
    tables = [json.loads((out / f"{name}.json").read_text()) for name in names]
    assert tables[1]["t"] - tables[0]["t"] == 0.5
    csvs = [(out / f"{name}.csv").read_text() for name in names]
    assert csvs[0] != csvs[1]


def test_dist_out_of_range_exits_2(tmp_path, capsys, monkeypatch):
    # found before the fan is solved
    def unreachable(*args, **kwargs):
        raise AssertionError("the fan was solved")

    monkeypatch.setattr(cli, "solve_fan", unreachable)
    cfg = write_config(tmp_path)
    code = main(["dist", "--config", cfg, "--out", str(tmp_path / "o"), "--t", "9"])
    assert code == 2
    assert "t=9.0 out of range [0, 1.0]" in capsys.readouterr().err


def test_oracle_passes_and_writes_reports(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "oracle.json").read_text())
    assert payload["passed"]
    assert len(payload["reports"]) == 4  # two alphas x two sides
    sides = {(r["alpha"], r["side"]) for r in payload["reports"]}
    assert sides == {(0.2, "below"), (0.2, "above"), (0.8, "below"), (0.8, "above")}


def test_oracle_refuses_on_failed_hypotheses(tmp_path, capsys):
    text = BASE_CONFIG.replace('f       = "x0"', 'f       = "0-x0"')
    cfg = write_config(tmp_path, text)
    assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == 5
    assert "(failed: condition_h); run `alphapath check`" in capsys.readouterr().err


def test_oracle_solves_and_gates_once_per_alpha(tmp_path, monkeypatch):
    calls = {"solve_fan": 0, "check_hypotheses": 0}
    for name in calls:
        original = getattr(oracle, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(oracle, name, counted)
    cfg = write_config(tmp_path)
    assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert calls == {"solve_fan": 2, "check_hypotheses": 2}


def test_oracle_argument_errors_precede_the_gate(tmp_path, capsys):
    # alpha - delta <= 0 is a usage error (exit 2) even when the gate, which
    # would refuse with exit 5, is never reached
    text = BASE_CONFIG.replace('f       = "x0"', 'f       = "0-x0"')
    cfg = write_config(tmp_path, text + "oracle.alphas = [0.02, 0.8]\n")
    assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "alpha - delta > 0" in capsys.readouterr().err


@pytest.mark.parametrize("segments", [0, -1])
def test_oracle_nonpositive_segments_exit_2_before_the_gate(
    tmp_path, capsys, segments
):
    # the gate would refuse f = 0-x0 with exit 5; the segment count is a
    # usage error, found before any alpha-path is solved
    text = BASE_CONFIG.replace('f       = "x0"', 'f       = "0-x0"').replace(
        "oracle.segments = 16", f"oracle.segments = {segments}"
    )
    cfg = write_config(tmp_path, text)
    assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"segments must be >= 1, got {segments}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "oracle"])
def test_negative_seed_exits_2_naming_its_line(tmp_path, capsys, command):
    text = BASE_CONFIG.replace("oracle.seed     = 2718", "oracle.seed     = -1")
    line = text.splitlines().index("oracle.seed     = -1") + 1
    cfg = write_config(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"line {line}: `oracle.seed` must be >= 0, got -1" in capsys.readouterr().err


def test_failed_write_keeps_the_previous_artifact(tmp_path):
    path = tmp_path / "fan.csv"
    _write_text(path, "previous\n")
    with pytest.raises(UnicodeEncodeError):
        _write_text(path, "x" * 100_000 + "\ud800")  # cannot be UTF-8 encoded
    assert path.read_text(encoding="utf-8") == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["fan.csv"]


def test_failed_streamed_write_keeps_the_previous_artifact(tmp_path):
    path = tmp_path / "fan.csv"
    _write_text(path, ["previous\n"])

    def chunks():
        for _ in range(4):
            yield "x" * 1_000_000
        # the chunks so far have reached the temporary file
        (partial,) = tmp_path.glob(".fan.csv.*.tmp")
        assert partial.stat().st_size >= 3_000_000
        raise RuntimeError("render failed")

    with pytest.raises(RuntimeError, match="render failed"):
        _write_text(path, chunks())
    assert path.read_text(encoding="utf-8") == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["fan.csv"]


def test_a_config_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys):
    cfg = tmp_path / "bad.conf"
    cfg.write_bytes(b'order = 2\nf = "x0\xff"\n')
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: cannot read config {cfg}: 'utf-8' codec")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, name, fault, left",
    [
        ("solve", "fan.csv", "cannot write", ["fan.csv"]),
        ("check", "run.json", "cannot read", ["checks.json", "run.json"]),
    ],
)
def test_an_output_file_that_is_a_directory_exits_2_naming_it(
    tmp_path, capsys, command, name, fault, left
):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    assert main([command, "--config", cfg, "--out", str(out), "--force"]) == 2
    assert capsys.readouterr().err == f"error: {fault} {out / name}: Is a directory\n"
    assert sorted(p.name for p in out.iterdir()) == left  # no temporary file


@pytest.mark.parametrize("renderer", [pytest.param("c", marks=needs_compiler), "repr"])
def test_a_fan_json_that_is_a_directory_exits_2_after_publishing_fan_csv(
    tmp_path, capsys, monkeypatch, renderer
):
    # both layouts are written to temporary files (at once under the
    # renderer library), then renamed in format order: fan.csv gets the
    # bytes of a solve that writes both, the rename of fan.json fails and
    # names it, and no temporary file is left
    cfg = write_config(tmp_path)
    _fresh_libraries(monkeypatch, render_min=0 if renderer == "c" else math.inf)
    whole = tmp_path / "whole"
    assert main(["solve", "--config", cfg, "--out", str(whole)]) == 0
    out = tmp_path / "out"
    (out / "fan.json").mkdir(parents=True)
    assert main(["solve", "--config", cfg, "--out", str(out), "--force"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write {out / 'fan.json'}: Is a directory\n"
    assert sorted(p.name for p in out.iterdir()) == ["fan.csv", "fan.json"]
    assert (out / "fan.csv").read_bytes() == (whole / "fan.csv").read_bytes()
    assert list((out / "fan.json").iterdir()) == []
    built = [library is not None for library in solver._RENDERER]
    assert built == ([True] if renderer == "c" else [])


@needs_compiler
@pytest.mark.parametrize("failing", ["csv", "json"])
def test_a_layout_that_fails_to_render_reaches_the_caller(
    tmp_path, monkeypatch, failing
):
    # under the renderer library fan.csv is written on a thread of its own
    # and fan.json on the calling thread; a layout that raises partway
    # stops the solve with its error once the other layout's thread is
    # joined, fan.csv is published only if its own write succeeded, and no
    # temporary file is left
    cfg = write_config(tmp_path)
    _fresh_libraries(monkeypatch, render_min=0)
    monkeypatch.setattr(solver, "_cpu_count", lambda: 2)
    render_paths = solver._render_paths

    def spy(library, layout, *args):
        for k, text in enumerate(render_paths(library, layout, *args)):
            if layout == failing and k == 3:
                raise RuntimeError(f"{layout} failed")
            yield text

    monkeypatch.setattr(solver, "_render_paths", spy)
    threads = threading.active_count()
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match=f"^{failing} failed$"):
        main(["solve", "--config", cfg, "--out", str(out)])
    assert threading.active_count() == threads
    left = ["fan.csv"] if failing == "json" else []
    assert sorted(p.name for p in out.iterdir()) == left


@pytest.mark.parametrize("renderer", [pytest.param("c", marks=needs_compiler), "repr"])
def test_the_renderer_library_writes_two_layouts_on_two_threads(
    tmp_path, monkeypatch, renderer
):
    # each layout's paths are drawn on the thread that writes its file:
    # under the renderer library fan.csv's on a thread of its own and
    # fan.json's on the calling thread; under repr both on the calling
    # thread, one after the other
    cfg = write_config(tmp_path)
    _fresh_libraries(monkeypatch, render_min=0 if renderer == "c" else math.inf)
    monkeypatch.setattr(solver, "_cpu_count", lambda: 2)
    name = "_render_paths" if renderer == "c" else "_python_paths"
    engine, drawn = getattr(solver, name), {}

    def spy(*args):  # (library,) layout, states, alphas, times
        for text in engine(*args):
            drawn.setdefault(args[-4], set()).add(threading.get_ident())
            yield text

    monkeypatch.setattr(solver, name, spy)
    threads = threading.active_count()
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert threading.active_count() == threads
    main_thread = threading.get_ident()
    assert drawn["json"] == {main_thread}
    assert (drawn["csv"] == {main_thread}) == (renderer == "repr")
    assert len(drawn["csv"]) == 1


def _fan_config(
    order=2,
    f="x0",
    g="2 + tanh(x0)",
    initial="[0.1, 0]",
    horizon="1.0",
    step="0.01",
    count=9,
    lo="0.1",
    formats="[csv, json]",
):
    return (
        f'order = {order}\nf = "{f}"\ng = "{g}"\ninitial = {initial}\n'
        f"horizon = {horizon}\nstep = {step}\n"
        f"alpha.count = {count}\nalpha.lo = {lo}\noutput.formats = {formats}\n"
    )


# (config, substrings the rendered csv + json must hold, in this order)
FAN_RENDER_CASES = [
    pytest.param(
        _fan_config(order=1, initial="[0.1]"), ["alpha,t,x0\n"], id="order-1"
    ),
    pytest.param(
        _fan_config(order=3, initial="[0.1, 0, 0]"),
        ["alpha,t,x0,x1,x2\n", '"order": 3,'],
        id="order-3",
    ),
    pytest.param(
        _fan_config(f="0", g="1", initial="[-0.0, -0.0]"),
        ["\n0.5,0.0,-0.0,-0.0\n", "        -0.0,\n        -0.0\n"],
        id="negative-zero",
    ),
    pytest.param(
        _fan_config(initial="[1e-07, 0]", horizon="0.0001", step="1e-05"),
        ["\n0.1,0.0,1e-07,0.0\n0.1,1e-05,", '"times": [\n    0.0,\n    1e-05,'],
        id="exponent-form",
    ),
    # "1e-05" is the first path in grid order and the last key sorted as text
    pytest.param(
        _fan_config(lo="1e-05"),
        ["alpha,t,x0,x1\n1e-05,", '"0.99999": [', '"1e-05": ['],
        id="keys-sort-apart-from-the-grid",
    ),
    pytest.param(
        _fan_config(lo="1e-05", formats="[json]"),
        ['"0.99999": [', '"1e-05": ['],
        id="json-only",
    ),
    # wide fans, 65 alphas of order 3 and 63 written as csv alone: many more
    # paths than the other cases, an odd count each so that 0.5 is a path
    pytest.param(
        _fan_config(order=3, initial="[0.1, 0, 0]", count=65, lo="0.01"),
        ["alpha,t,x0,x1,x2\n"],
        id="wide-order-3",
    ),
    pytest.param(
        _fan_config(count=63, lo="0.01", formats="[csv]"),
        ["alpha,t,x0,x1\n"],
        id="wide-csv-only",
    ),
]


@pytest.mark.parametrize("text, expected", FAN_RENDER_CASES)
def test_fan_artifacts_equal_the_reference_renders(tmp_path, text, expected):
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    config = load_config(cfg)
    fan = solve_fan(config.spec, alpha_grid(config.alpha))
    rendered = ""
    for fmt, reference in (("csv", reference_fan_csv), ("json", reference_fan_json)):
        if fmt in config.output_formats:
            want = reference(fan)
            assert (out / f"fan.{fmt}").read_bytes() == want.encode("utf-8")
            rendered += want
        else:
            assert not (out / f"fan.{fmt}").exists()
    at = 0
    for part in expected:
        at = rendered.index(part, at) + len(part)


def test_refuses_overwrite_without_force(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert "--force" in capsys.readouterr().err
    assert main(["solve", "--config", cfg, "--out", str(out), "--force"]) == 0


def test_runs_reproduce_byte_identical_artifacts(tmp_path):
    cfg = write_config(tmp_path)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert main(["oracle", "--config", cfg, "--out", str(out), "--force"]) == 0
        outs.append(out)
    assert (outs[0] / "fan.csv").read_bytes() == (outs[1] / "fan.csv").read_bytes()
    assert (outs[0] / "fan.json").read_bytes() == (outs[1] / "fan.json").read_bytes()
    assert (outs[0] / "oracle.json").read_bytes() == (
        outs[1] / "oracle.json"
    ).read_bytes()


def _use_compiler(tmp_path, monkeypatch, compiler):
    """Point the solver at gcc, at a compiler that is missing or at one that
    exits 1."""
    if compiler != "gcc":
        stub = tmp_path / "cc"
        if compiler == "exits-1":
            stub.write_text("#!/bin/sh\nexit 1\n")
            stub.chmod(0o755)
        monkeypatch.setattr(solver, "COMPILER", str(stub))


def _fresh_libraries(monkeypatch, compile_min=math.inf, render_min=math.inf):
    """A process with no library built and no value rendered yet, and the
    two build thresholds."""
    monkeypatch.setattr(solver, "_LIBRARIES", {})
    monkeypatch.setattr(solver, "_RENDERER", [])
    monkeypatch.setattr(solver, "_REPR_VALUES", 0)
    monkeypatch.setattr(solver, "COMPILE_MIN_ROW_STEPS", compile_min)
    monkeypatch.setattr(solver, "RENDER_MIN_VALUES", render_min)


def _run_every_command(tmp_path, capsys, name, text=BASE_CONFIG):
    """Exit codes, stdout and stderr of solve, check, dist and oracle on the
    config ``text``, and the bytes of every artifact they write."""
    cfg = write_config(tmp_path, text)
    out = tmp_path / name
    runs = []
    for argv in (["solve"], ["check"], ["dist", "--t", "1.0"], ["oracle"]):
        code = main([*argv, "--config", cfg, "--out", str(out), "--force"])
        runs.append((code, *capsys.readouterr()))
    return runs, {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@pytest.mark.parametrize(
    "compiler", [pytest.param("gcc", marks=needs_compiler), "missing", "exits-1"]
)
def test_every_engine_writes_the_same_artifacts(
    tmp_path, capsys, monkeypatch, compiler
):
    # the Python runner and repr, then every call compiled: with gcc the C
    # libraries write the same bytes; with no compiler, or one that fails,
    # every call falls back to Python silently. No build directory is left
    _fresh_libraries(monkeypatch)
    runs, artifacts = _run_every_command(tmp_path, capsys, "python")
    assert [code for code, _, _ in runs] == [0, 0, 0, 0]
    assert [err for _, _, err in runs] == [""] * 4
    assert sorted(artifacts) == [
        "checks.json",
        "dist_t1.csv",
        "dist_t1.json",
        "fan.csv",
        "fan.json",
        "oracle.json",
        "run.json",
    ]

    builds = tmp_path / "builds"
    builds.mkdir()
    _use_compiler(tmp_path, monkeypatch, compiler)
    monkeypatch.setattr(solver, "_BUILD_ROOT", str(builds))
    _fresh_libraries(monkeypatch, 0, 0)
    assert _run_every_command(tmp_path, capsys, compiler) == (runs, artifacts)
    built = [*solver._LIBRARIES.values(), *solver._RENDERER]
    assert len(built) == 2
    assert all((library is not None) == (compiler == "gcc") for library in built)
    assert os.listdir(builds) == []


# f and g with time terms: long-narrow's, one whose term fails at t = 0
# (ln(0)), and one whose term overflows in C where a later tanh absorbs it,
# as Python's float arithmetic does
TIME_TERM_CONFIGS = [
    pytest.param(
        '"0.5*x0 + sin(3*t)*x1"', '"1.5 + tanh(x0) + 0.25*cos(t)"', [0, 0, 0, 0],
        id="long-narrow",
    ),
    pytest.param('"x0"', '"2 + tanh(x0) + 0.01*ln(t)"', [3, 3, 3, 3], id="ln-at-0"),
    pytest.param(
        '"x0 + tanh(1e200*1e200*(t + 1))"', '"2 + tanh(x0) + cos(t)^2"', [0, 0, 0, 0],
        id="absorbed-overflow",
    ),
]


@pytest.mark.parametrize(
    "compiler", [pytest.param("gcc", marks=needs_compiler), "missing", "exits-1"]
)
@pytest.mark.parametrize("f, g, codes", TIME_TERM_CONFIGS)
def test_time_terms_give_every_engine_the_same_artifacts_and_errors(
    tmp_path, capsys, monkeypatch, compiler, f, g, codes
):
    # every command on the Python runner and repr, then every call compiled,
    # a flagged table fill rerunning its whole batch in Python: the same
    # exit codes, messages and artifact bytes
    text = BASE_CONFIG.replace('"x0"', f, 1).replace('"2 + tanh(x0)"', g, 1)
    _fresh_libraries(monkeypatch)
    runs, artifacts = _run_every_command(tmp_path, capsys, "python", text)
    assert [code for code, _, _ in runs] == codes
    _use_compiler(tmp_path, monkeypatch, compiler)
    _fresh_libraries(monkeypatch, 0, 0)
    assert _run_every_command(tmp_path, capsys, compiler, text) == (runs, artifacts)


# grids whose time texts take each of repr's forms, and texts they hold
TIME_TEXT_CASES = [
    pytest.param(
        _fan_config(horizon="0.0001", step="1e-05"), ["1e-05", "9e-05", "0.0001"],
        id="exponent-below-1e-4",
    ),
    pytest.param(
        _fan_config(f="0", g="0", initial="[0, 0]", horizon="1.5e16", step="5e15"),
        ["5000000000000000.0", "1e+16", "1.5e+16"],
        id="exponent-from-1e16",
    ),
    pytest.param(
        _fan_config(horizon="10.0", step="0.3333333333333333"),
        ["0.3333333333333333", "1.6666666666666665", "10.0"],
        id="17-digits",
    ),
    pytest.param(
        _fan_config(horizon="3.0", step="1.0"), ["0.0", "1.0", "2.0", "3.0"],
        id="integral",
    ),
]


@pytest.mark.parametrize("renderer", RENDERERS)
@pytest.mark.parametrize("text, times", TIME_TEXT_CASES)
def test_every_form_of_time_text_is_written_as_repr(
    tmp_path, monkeypatch, renderer, text, times
):
    # the time texts written once per solve, by the renderer library or by
    # repr: fan.csv's time column and fan.json's "times" are the reference
    # renders' bytes, and hold the texts of each form
    cfg = write_config(tmp_path, text)
    _fresh_libraries(monkeypatch, render_min=0 if renderer == "c" else math.inf)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert [library is not None for library in solver._RENDERER] == (
        [True] if renderer == "c" else []
    )
    config = load_config(cfg)
    fan = solve_fan(config.spec, alpha_grid(config.alpha))
    assert (out / "fan.csv").read_text() == reference_fan_csv(fan)
    assert (out / "fan.json").read_text() == reference_fan_json(fan)
    written = json.loads((out / "fan.json").read_text())["times"]
    assert set(times) <= {repr(t) for t in written}
    assert all(f",{t}," in (out / "fan.csv").read_text() for t in times)


@needs_compiler
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_a_fan_at_the_render_threshold_writes_the_reference_bytes(
    tmp_path, monkeypatch, offset
):
    # order-1 fans of RENDER_MIN_VALUES - 1, RENDER_MIN_VALUES and
    # RENDER_MIN_VALUES + 1 values as fan.csv in a fresh process: repr writes
    # the first, the renderer library the others, and each is the reference
    values = solver.RENDER_MIN_VALUES + offset
    count = {-1: 3, 0: 5, 1: 11}[offset]
    assert values % count == 0
    steps = values // count - 1
    text = _fan_config(
        order=1, initial="[0.1]", horizon=repr(steps / 10000), step="0.0001",
        count=count, formats="[csv]",
    )
    cfg = write_config(tmp_path, text + "oracle.n_paths = 2\n")  # under the size cap
    limits = solver.COMPILE_MIN_ROW_STEPS, solver.RENDER_MIN_VALUES
    _fresh_libraries(monkeypatch, *limits)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    config = load_config(cfg)
    fan = solve_fan(config.spec, alpha_grid(config.alpha))
    assert fan.states.size == values
    assert [library is not None for library in solver._RENDERER] == (
        [True] if offset >= 0 else []
    )
    assert (out / "fan.csv").read_text() == reference_fan_csv(fan)


def test_a_warm_command_writes_no_c_text(tmp_path, capsys, monkeypatch):
    # the process's library is found by (order, f, g), so once every command
    # has run, running each again renders the problem's C text not once and
    # writes the same bytes; the one library serves all four commands
    monkeypatch.setattr(solver, "_LIBRARIES", {})
    monkeypatch.setattr(solver, "COMPILE_MIN_ROW_STEPS", 0)
    cold = _run_every_command(tmp_path, capsys, "cold")
    rendered = []
    c_source = solver._c_source

    def spy(spec):
        rendered.append(spec)
        return c_source(spec)

    monkeypatch.setattr(solver, "_c_source", spy)
    cfg = write_config(tmp_path)
    out = tmp_path / "warm"
    counts = []
    for argv in (["solve"], ["check"], ["dist", "--t", "1.0"], ["oracle"]):
        rendered.clear()
        assert main([*argv, "--config", cfg, "--out", str(out), "--force"]) == 0
        counts.append(len(rendered))
    assert counts == [0, 0, 0, 0]
    assert len(solver._LIBRARIES) == 1
    warm = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    assert warm == cold[1]


@pytest.mark.parametrize(
    "compiler", [pytest.param("gcc", marks=needs_compiler), "missing", "exits-1"]
)
def test_every_renderer_writes_the_same_fan(tmp_path, monkeypatch, compiler):
    # a 99-alpha fan in both formats, rendered by repr where no library is
    # built, then in a process where RENDER_MIN_VALUES lies between the
    # fan's values in one format and in two: the solve decides for both
    # formats before the first, so with gcc the renderer library writes
    # every path of both layouts, the repr reference's text (the layouts at
    # once, so their paths interleave); with no compiler, or one that
    # fails, repr renders it all. The files are the same bytes every time
    text = BASE_CONFIG.replace("alpha.count = 9", "alpha.count = 99")
    cfg = write_config(tmp_path, text)
    spec = load_config(cfg).spec
    values = 99 * (spec.step_count + 1) * spec.order
    rendered = []  # per path rendered in C, its layout and whether it is repr's
    render_paths = solver._render_paths

    def spy(library, layout, states, alphas, times):
        texts = render_paths(library, layout, states, alphas, times)
        (joined, ends), starts = times, [0, *times[1][:-1]]
        words = [joined[a:b].decode() for a, b in zip(starts, ends)]
        want = solver._python_paths(layout, states, alphas, words)
        for got, reference in zip(texts, want):
            rendered.append((layout, got == reference))
            yield got

    monkeypatch.setattr(solver, "_render_paths", spy)
    _fresh_libraries(monkeypatch)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "repr")]) == 0
    assert rendered == [] and solver._RENDERER == []

    _use_compiler(tmp_path, monkeypatch, compiler)
    _fresh_libraries(monkeypatch, 0, 1.5 * values)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / compiler)]) == 0
    for name in ("fan.csv", "fan.json"):
        want = (tmp_path / "repr" / name).read_bytes()
        assert (tmp_path / compiler / name).read_bytes() == want
    if compiler == "gcc":
        assert sorted(rendered) == [("csv", True)] * 99 + [("json", True)] * 99
    else:
        assert rendered == [] and solver._RENDERER == [None]


def _solve_without_a_compiler(tmp_path, monkeypatch, cfg) -> Path:
    """The fan artifacts of ``cfg`` as a process with no compiler writes
    them."""
    with monkeypatch.context() as patch:
        _fresh_libraries(patch, 0, 0)
        patch.setattr(solver, "COMPILER", str(tmp_path / "missing"))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "none")]) == 0
    return tmp_path / "none"


@needs_compiler
def test_a_library_without_a_function_is_a_failed_build(tmp_path, monkeypatch):
    # the renderer's text cut before ``render`` compiles and loads but lacks
    # it: the build counts as failed, the problem's library still runs the
    # solve, and solve writes the bytes it writes with no compiler
    text = BASE_CONFIG.replace("alpha.count = 9", "alpha.count = 99")
    cfg = write_config(tmp_path, text.replace("0.0025", "0.001"))
    spec = load_config(cfg).spec
    source = solver._renderer_source()
    cut = source[: source.index("int64_t render(")]
    assert solver._build(cut, solver._RENDER_BUILD_ARGS, ["render"]) is None
    none = _solve_without_a_compiler(tmp_path, monkeypatch, cfg)
    _fresh_libraries(monkeypatch, solver.COMPILE_MIN_ROW_STEPS, 0)
    monkeypatch.setattr(solver, "_renderer_source", lambda: cut)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "cut")]) == 0
    assert solver._RENDERER == [None]
    assert list(solver._LIBRARIES) == [solver._library_key(spec)]
    assert all(solver._LIBRARIES.values())
    for name in ("fan.csv", "fan.json", "run.json"):
        assert (tmp_path / "cut" / name).read_bytes() == (none / name).read_bytes()


@needs_compiler
def test_the_renderer_runs_without_the_problems_library(tmp_path, monkeypatch):
    # a fan below COMPILE_MIN_ROW_STEPS in a process whose repr count has
    # reached RENDER_MIN_VALUES: the renderer library is built and writes
    # the fan, the problem's is not, and the bytes are those of a process
    # with no compiler
    cfg = write_config(tmp_path)
    none = _solve_without_a_compiler(tmp_path, monkeypatch, cfg)
    config = load_config(cfg)
    row_steps = len(alpha_grid(config.alpha)) * config.spec.step_count
    assert row_steps < solver.COMPILE_MIN_ROW_STEPS
    limits = solver.COMPILE_MIN_ROW_STEPS, solver.RENDER_MIN_VALUES
    _fresh_libraries(monkeypatch, *limits)
    monkeypatch.setattr(solver, "_REPR_VALUES", solver.RENDER_MIN_VALUES)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "render")]) == 0
    assert solver._LIBRARIES == {} and solver._RENDERER[0] is not None
    for name in ("fan.csv", "fan.json", "run.json"):
        assert (tmp_path / "render" / name).read_bytes() == (none / name).read_bytes()


def test_the_renderer_is_built_once_repr_has_rendered_enough(monkeypatch):
    # rent or buy, decided once per fan write for every layout it writes: a
    # write below RENDER_MIN_VALUES renders by repr and adds the values of
    # all its layouts to the process's count, and the write that brings the
    # count to the constant builds the renderer, once
    builds = []

    def spy(source, args, names):
        builds.append((source, args, names))
        return None  # as a failed build, so that the test needs no compiler

    spec = tanh_spec(2, step=0.01)
    fan = solve_fan(spec, [0.25, 0.5, 0.75])
    values = fan.states.size
    _fresh_libraries(monkeypatch, render_min=2.5 * values)
    monkeypatch.setattr(solver, "_build", spy)
    counts = []
    rows = reference_fan_csv(fan).split("\n", 1)[1]
    for layouts in (["csv"], ["json"], ["csv", "json"], ["csv"]):
        texts, _, _ = solver.path_texts(fan, layouts)
        counts.append((len(builds), solver._REPR_VALUES))
        assert b"".join(texts("csv", range(3))).decode() == rows
    assert counts == [(0, values), (0, 2 * values), (1, 4 * values), (1, 5 * values)]
    assert builds == [
        (
            solver._renderer_source(),
            solver._RENDER_BUILD_ARGS,
            ["render", "render_values"],
        )
    ]
    # a write of both layouts past the constant builds before its first
    # layout, though that layout alone is below it
    _fresh_libraries(monkeypatch, render_min=1.5 * values)
    solver.path_texts(fan, ["csv", "json"])
    assert len(builds) == 2 and solver._REPR_VALUES == 2 * values


@needs_compiler
def test_the_renderers_path_texts_can_be_kept(monkeypatch):
    # every path text is bytes of its own, not a view of the buffer that the
    # renderer writes the next path in: each layout's texts, collected
    # before any is read, are those of repr
    fan = solve_fan(tanh_spec(2, step=0.01), [0.25, 0.5, 0.75])
    kept = []
    for render_min in (math.inf, 0):
        _fresh_libraries(monkeypatch, render_min=render_min)
        texts, _, _ = solver.path_texts(fan, ["csv", "json"])
        kept.append([list(texts(layout, [2, 0, 1])) for layout in ("csv", "json")])
    assert solver._RENDERER[0] is not None
    assert kept[1] == kept[0] and len(set(kept[0][0])) == 3


def test_a_run_that_builds_nothing_never_imports_subprocess(tmp_path):
    # a fresh interpreter runs every command on a fan below
    # COMPILE_MIN_ROW_STEPS: no solve builds, and neither the condition-H
    # audit nor the fan renderer does, so no library is loaded and the
    # import of subprocess, which only a build needs, never happens
    import subprocess
    import sys

    cfg = write_config(tmp_path)
    config = load_config(cfg)
    row_steps = len(alpha_grid(config.alpha)) * config.spec.step_count
    tail = ["--config", cfg, "--out", str(tmp_path / "out"), "--force"]
    commands = [["solve"], ["check"], ["dist", "--t", "1.0"], ["oracle"]]
    code = (
        "import sys\n"
        "from alphapath import solver\n"
        "from alphapath.cli import main\n"
        f"codes = [main(command + {tail!r}) for command in {commands!r}]\n"
        f"below = {row_steps} < solver.COMPILE_MIN_ROW_STEPS\n"
        "print(codes, below, solver._LIBRARIES, 'subprocess' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (result.stdout, result.stderr) == ("[0, 0, 0, 0] True {} False\n", "")


def _render_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return f'"{value}"'
    return repr(value)


def _config_text_from_echo(raw: dict) -> str:
    lines = []
    for key, value in raw.items():
        if isinstance(value, list):
            rendered = "[" + ", ".join(_render_scalar(v) for v in value) + "]"
        else:
            rendered = _render_scalar(value)
        lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"


def test_run_reproducible_from_run_json_alone(tmp_path):
    cfg = write_config(tmp_path)
    first = tmp_path / "first"
    assert main(["solve", "--config", cfg, "--out", str(first)]) == 0
    echoed = json.loads((first / "run.json").read_text())["config"]
    rebuilt = write_config(tmp_path, _config_text_from_echo(echoed), "rebuilt.conf")
    second = tmp_path / "second"
    assert main(["solve", "--config", rebuilt, "--out", str(second)]) == 0
    assert (first / "fan.csv").read_bytes() == (second / "fan.csv").read_bytes()


def test_output_directory_from_config(tmp_path):
    text = BASE_CONFIG + f'output.directory = "{tmp_path / "cfg_out"}"\n'
    cfg = write_config(tmp_path, text)
    assert main(["solve", "--config", cfg]) == 0
    assert (tmp_path / "cfg_out" / "fan.csv").exists()


def test_no_output_directory_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["solve", "--config", cfg]) == 2
    assert "output directory" in capsys.readouterr().err


def _count_alpha_path_solves(monkeypatch) -> list:
    solves = []
    original = oracle.solve_fan

    def counted(*args, **kwargs):
        solves.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(oracle, "solve_fan", counted)
    return solves


def test_oracle_misaligned_segments_exits_2(tmp_path, capsys, monkeypatch):
    # every segment needs a solver step, or a breakpoint falls between nodes:
    # 401 segments over the 400 steps are refused before any alpha-path is
    # solved
    solves = _count_alpha_path_solves(monkeypatch)
    text = BASE_CONFIG.replace("oracle.segments = 16", "oracle.segments = 401")
    cfg = write_config(tmp_path, text)
    assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "segments must be <= the 400 solver steps, got 401" in err
    assert solves == []


def test_oracle_misaligned_segments_name_their_line(tmp_path, capsys):
    # the rule needs the step count, which the config holds: every command
    # refuses at load and names `oracle.segments`, also when it is `step`
    # that shrank the run to 10 steps under the 16 segments
    text, line = _set_key("oracle.segments", "401")
    message = f"line {line}: segments must be <= the 400 solver steps, got 401"
    _assert_load_error_on_every_command(tmp_path, capsys, text, message)
    text = BASE_CONFIG.replace("step    = 0.0025", "step    = 0.1")
    message = f"line {line}: segments must be <= the 10 solver steps, got 16"
    _assert_load_error_on_every_command(tmp_path, capsys, text, message)


@pytest.mark.parametrize(
    "f, alphas, message",
    [
        ("0-x0", "[0.8, 0.02]", "need alpha - delta > 0"),
        ("x0", "[0.8, 0.98]", "need alpha + delta < 1"),
    ],
    ids=["refused-first-alpha", "passing-first-alpha"],
)
def test_oracle_checks_every_alpha_before_any_solve(
    tmp_path, capsys, monkeypatch, f, alphas, message
):
    # a bad alpha later in the list is a usage error (exit 2), found before
    # the first alpha is solved and gated, whether or not the gate would pass
    solves = _count_alpha_path_solves(monkeypatch)
    text = BASE_CONFIG.replace('f       = "x0"', f'f       = "{f}"')
    cfg = write_config(tmp_path, text + f"oracle.alphas = {alphas}\n")
    assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert solves == []


@pytest.mark.parametrize("alphas", ["[abc]", "[0.2, true]"])
def test_oracle_alphas_must_be_numbers(tmp_path, capsys, alphas):
    cfg = write_config(tmp_path, BASE_CONFIG + f"oracle.alphas = {alphas}\n")
    assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"line {BASE_CONFIG.count(chr(10)) + 1}: `oracle.alphas`" in err


def test_check_nonfinite_audit_point_exits_3(tmp_path, capsys):
    # the condition-h audit samples x0 below 0, where sqrt(x0) is undefined
    text = (
        BASE_CONFIG.replace('f       = "x0"', 'f       = "sqrt(x0)"')
        .replace('g       = "2 + tanh(x0)"', 'g       = "1"')
        .replace("initial = [0.1, 0]", "initial = [0.001, 0.5]")
        .replace("step    = 0.0025", "step    = 0.01")
        .replace("alpha.count = 9", "alpha.count = 3")
        .replace("alpha.lo    = 0.1", "alpha.lo    = 0.3")
    )
    cfg = write_config(tmp_path, text)
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "non-finite value in sqrt(x0)" in capsys.readouterr().err


def test_run_json_caps_diffusion_warnings(tmp_path):
    # g = t - 0.5 is non-positive on the first half of the steps: 1251 nodes
    # per alpha at step 0.0004, over both caps, and 51 at step 0.01, under both
    for step, per_alpha in (("0.0004", 1251), ("0.01", 51)):
        text = BASE_CONFIG.replace(
            'g       = "2 + tanh(x0)"', 'g       = "t-0.5"'
        ).replace("step    = 0.0025", f"step    = {step}")
        cfg = write_config(tmp_path, text, name=f"run-{step}.conf")
        solved, checked = tmp_path / f"solve-{step}", tmp_path / f"check-{step}"
        assert main(["solve", "--config", cfg, "--out", str(solved)]) == 0
        assert main(["check", "--config", cfg, "--out", str(checked)]) == 4
        run = json.loads((solved / "run.json").read_text())
        warnings = run["solver"]["diffusion_warnings"]
        assert len(warnings) == 9
        for entry in warnings.values():
            assert entry["warnings_total"] == per_alpha
            assert len(entry["warnings"]) == min(per_alpha, 1000)
            assert entry["warnings"][0] == [0.0, -0.5]
        # run.json is checks.json's regularity violations grouped by alpha,
        # capped at 1000 per alpha where checks.json caps at 1000 in all
        regularity = json.loads((checked / "checks.json").read_text())["regularity"]
        grouped = [
            [float(alpha), t, g]
            for alpha, entry in sorted(warnings.items(), key=lambda e: float(e[0]))
            for t, g in entry["warnings"]
        ]
        assert regularity["violations_total"] == 9 * per_alpha
        assert grouped[:1000] == regularity["violations"]


def test_check_decides_on_the_values_the_solver_integrates(tmp_path):
    # 1e307*x0 overflows to inf at x0 = 20; tanh maps it to 1.0 in the
    # compiled f that the solver and the audit run, while the tree-walking
    # evaluator would reject the overflow
    text = (
        BASE_CONFIG.replace('f       = "x0"', 'f       = "tanh(1e307*x0)"')
        .replace("initial = [0.1, 0]", "initial = [20, 0]")
    )
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert main(["check", "--config", cfg, "--out", str(out), "--force"]) == 0
    checks = json.loads((out / "checks.json").read_text())
    assert checks["condition_h"]["passed"]


def test_expressions_at_the_depth_limit_solve_and_check(tmp_path):
    f = "x0" + " + x0" * (MAX_DEPTH - 1)
    # the parentheses and the call nest 2 + tanh(x0) MAX_DEPTH levels deep
    g = "(" * (MAX_DEPTH - 2) + "2 + tanh(x0)" + ")" * (MAX_DEPTH - 2)
    text = BASE_CONFIG.replace('f       = "x0"', f'f       = "{f}"').replace(
        'g       = "2 + tanh(x0)"', f'g       = "{g}"'
    )
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert main(["check", "--config", cfg, "--out", str(out), "--force"]) == 0


@pytest.mark.parametrize(
    "f",
    [
        "x0" + " + x0" * MAX_DEPTH,
        "(" * 3000 + "x0" + ")" * 3000,
        "-" * 5000 + "x0",
    ],
    ids=["sum", "parentheses", "negation"],
)
def test_expressions_past_the_depth_limit_exit_2(tmp_path, capsys, f):
    text = BASE_CONFIG.replace('f       = "x0"', f'f       = "{f}"')
    cfg = write_config(tmp_path, text)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "line 3: `f` does not parse" in err
    assert f"at most {MAX_DEPTH} levels of nesting" in err


def test_order_disagreeing_with_initial_exits_2_fast(tmp_path, capsys):
    text = BASE_CONFIG.replace("order   = 2", f"order   = {10**12}")
    cfg = write_config(tmp_path, text)
    start = time.perf_counter()
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "line 2: `order` = 1000000000000 disagrees with the 2 values" in err


@pytest.mark.parametrize(
    "old, new, named",
    [
        ("step    = 0.0025", "step    = 1e-10", "line 7: the run would store"),
        ("alpha.count = 9", "alpha.count = 1000000000", "line 8: the run would"),
        ("alpha.count = 9", "alpha.count = 1000000001", "line 8: the run would"),
        ("oracle.n_paths  = 6", "oracle.n_paths  = 10000", "line 10: the run"),
    ],
    ids=["step", "alpha-count-even", "alpha-count-odd", "oracle-n-paths"],
)
def test_oversized_runs_exit_2_before_any_allocation(
    tmp_path, capsys, monkeypatch, old, new, named
):
    # one oracle chunk of 1024 rows (of 10,000 paths a side) x 401 nodes,
    # positions only, is 410,624 values: over a cap lowered to 10**5, far
    # under the real one
    if "n_paths" in new:
        monkeypatch.setattr(config_module, "MAX_STATE_VALUES", 10**5)
    cfg = write_config(tmp_path, BASE_CONFIG.replace(old, new))
    start = time.perf_counter()
    for command in ("solve", "check", "oracle"):
        out = str(tmp_path / command)
        assert main([command, "--config", cfg, "--out", out]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert named in err
    assert f"over the cap of {config_module.MAX_STATE_VALUES}" in err


def test_an_oracle_chunk_of_both_sides_over_the_cap_exits_2(
    tmp_path, capsys, monkeypatch
):
    # order 1 and 200 paths a side: one chunk holds both sides' 400 rows of
    # positions, 400 x 401 = 160,400 values, over a cap lowered to 10**5,
    # while one side's 200 rows (80,200) and the fan (9 x 401) are under it
    monkeypatch.setattr(config_module, "MAX_STATE_VALUES", 10**5)
    text = (
        BASE_CONFIG.replace("order   = 2", "order   = 1")
        .replace("initial = [0.1, 0]", "initial = [0.1]")
        .replace("oracle.n_paths  = 6", "oracle.n_paths  = 200")
    )
    cfg = write_config(tmp_path, text)
    for command in ("solve", "check", "oracle"):
        out = str(tmp_path / command)
        assert main([command, "--config", cfg, "--out", out]) == 2
        assert not (tmp_path / command).exists()
    err = capsys.readouterr().err
    assert "line 10: the run would store 160400 state values" in err
    assert "400 oracle rows" in err


@pytest.mark.parametrize(
    "step, message",
    [
        ("1e-9", "line 7: the run would store 18000000018 state values"),
        ("0.3", "line 7: horizon/step = 3.3333333333333335 is not an integer"),
    ],
    ids=["finer-than-doubles-resolve", "not-a-node-count"],
)
def test_a_step_is_judged_by_its_node_count_at_any_size(
    tmp_path, capsys, step, message
):
    # 1/1e-9 is 999999999.9999999, a rounding of 10**9 finer than the 1e-9
    # grid tolerance and within the spacing of doubles there: the run is
    # refused by the size cap, which names its real fault, while 0.3 is
    # still no node count
    text = BASE_CONFIG.replace("step    = 0.0025", f"step    = {step}")
    cfg = write_config(tmp_path, text)
    for command in ("solve", "check", "dist", "oracle"):
        argv = [command, "--config", cfg, "--out", str(tmp_path / command)]
        assert main(argv + (["--t", "1.0"] if command == "dist" else [])) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / command).exists()


def test_size_cap_is_far_above_the_documented_runs():
    # the README fan with the default 200 oracle paths: one oracle chunk of
    # both sides' 400 rows x 1001 nodes, positions only, which is also
    # 200 x 1001 x order 2 (the fan's 99 x 2 per node is smaller)
    readme = BASE_CONFIG.replace("step    = 0.0025", "step    = 0.001").replace(
        "alpha.count = 9", "alpha.count = 99"
    ).replace("oracle.n_paths  = 6", "oracle.n_paths  = 200")
    config = config_module.build_config(*parse_config_text(readme))
    stored = (config.spec.step_count + 1) * 200 * config.spec.order
    assert stored == 400_400
    assert 20 * stored < config_module.MAX_STATE_VALUES


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("horizon = 1.0", "horizon = -1.0", "line 6: horizon must be positive"),
        ("step    = 0.0025", "step    = 0", "line 7: step must be positive"),
        ("step    = 0.0025", "step    = 2.0", "line 7: step 2.0 exceeds horizon"),
        ("step    = 0.0025", "step    = 0.003", "line 7: horizon/step = "),
        ("alpha.count = 9", "alpha.count = 8", "line 8: alpha count must be an odd"),
        ("alpha.lo    = 0.1", "alpha.lo    = 0.7", "line 9: alpha lo must lie in"),
    ],
    ids=["horizon", "step", "step-over-horizon", "ratio", "alpha-count", "alpha-lo"],
)
def test_grid_problems_name_their_line(tmp_path, capsys, old, new, message):
    cfg = write_config(tmp_path, BASE_CONFIG.replace(old, new))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "edits, message",
    [
        (
            {"[csv, json]\n": "[csv, json]\noracle.delta = nan\n"},
            "line 14: `oracle.delta` must be finite, got nan",
        ),
        (
            {"[csv, json]\n": "[csv, json]\noracle.alphas = [nan]\n"},
            "line 14: `oracle.alphas` must be finite, got [nan]",
        ),
        ({"[0.1, 0]": "[nan, 0]"}, "line 5: `initial` must be finite, got [nan, 0]"),
        ({"[0.1, 0]": "[1e400, 0]"}, "line 5: `initial` must be finite, got [inf, 0]"),
        (
            {"order   = 2": "order   = 0", "[0.1, 0]": "[]"},
            "line 2: `order` must be >= 1, got 0",
        ),
        (
            {"[csv, json]\n": "[csv, json]\nalpha.symmetric = true\n"},
            "line 14: unknown key `alpha.symmetric`",
        ),
        (
            {"horizon = 1.0": "horizon = 1e308", "step    = 0.0025": "step    = 1e-10"},
            "line 7: horizon/step = inf is not finite",
        ),
    ],
    ids=[
        "delta-nan", "alphas-nan", "initial-nan", "initial-overflow", "order-0",
        "alpha-symmetric", "step-ratio-overflow",
    ],
)
def test_load_errors_name_their_line_on_every_command(tmp_path, capsys, edits, message):
    text = BASE_CONFIG
    for old, new in edits.items():
        text = text.replace(old, new)
    _assert_load_error_on_every_command(tmp_path, capsys, text, message)


def _assert_load_error_on_every_command(tmp_path, capsys, text, message):
    """Every command exits 2 with exactly ``message`` and writes no run.json."""
    cfg = write_config(tmp_path, text)
    for command in ("solve", "check", "dist", "oracle"):
        argv = [command, "--config", cfg, "--out", str(tmp_path / command)]
        assert main(argv + (["--t", "1.0"] if command == "dist" else [])) == 2
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
        assert not (tmp_path / command / "run.json").exists()


def _set_key(key, value):
    """BASE_CONFIG with ``key = value``, on the key's line or appended, and
    that line's number."""
    lines = BASE_CONFIG.splitlines()
    keys = [line.partition("=")[0].strip() for line in lines]
    number = keys.index(key) + 1 if key in keys else len(lines) + 1
    lines[number - 1 : number] = [f"{key} = {value}"]
    return "\n".join(lines) + "\n", number


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("oracle.n_paths", "0", "n_paths must be >= 1, got 0"),
        ("oracle.segments", "0", "segments must be >= 1, got 0"),
        ("oracle.delta", "0", "delta must be positive, got 0.0"),
        ("oracle.delta", "0.5", "need alpha - delta > 0, got alpha=0.2, delta=0.5"),
        ("oracle.alphas", "[1.5]", "need alpha + delta < 1, got alpha=1.5, delta=0.05"),
        (
            "oracle.alphas",
            "[0.02]",
            "need alpha - delta > 0, got alpha=0.02, delta=0.05",
        ),
    ],
    ids=["n_paths", "segments", "delta", "delta-wide", "alpha-above", "alpha-below"],
)
def test_oracle_settings_the_oracle_refuses_fail_every_command_at_load(
    tmp_path, capsys, key, value, message
):
    text, line = _set_key(key, value)
    message = f"line {line}: {message}"
    _assert_load_error_on_every_command(tmp_path, capsys, text, message)


def test_segments_that_do_not_divide_the_steps_run_every_command(tmp_path):
    # unset, the segments are the default 32, which do not divide the README
    # problem's 1000 steps, or one a step on a run of fewer than 32 steps:
    # every command runs, and oracle.json records the count the oracle took
    unset = BASE_CONFIG.replace("oracle.segments = 16\n", "")
    for step, segments in (("0.001", 32), ("0.0625", 16)):
        text = unset.replace("step    = 0.0025", f"step    = {step}")
        cfg = write_config(tmp_path, text, f"run-{segments}.conf")
        out = tmp_path / f"out-{segments}"
        for command in ("solve", "check", "dist", "oracle"):
            argv = [command, "--config", cfg, "--out", str(out), "--force"]
            assert main(argv + (["--t", "1.0"] if command == "dist" else [])) == 0
        payload = json.loads((out / "oracle.json").read_text())
        assert payload["segments"] == segments
        assert payload["passed"] is True


HUGE = "1" + "0" * 400  # an integer literal no double can hold


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("order", HUGE, "`order` must be an integer, got inf"),
        ("initial", f"[{HUGE}, 0]", "`initial` must be finite, got [inf, 0]"),
        ("horizon", HUGE, "horizon must be positive and finite, got inf"),
        ("step", HUGE, "step must be positive and finite, got inf"),
        ("alpha.count", HUGE, "`alpha.count` must be an integer, got inf"),
        ("alpha.lo", HUGE, "alpha lo must lie in (0, 0.5), got inf"),
        ("oracle.delta", HUGE, "`oracle.delta` must be finite, got inf"),
        ("oracle.n_paths", HUGE, "`oracle.n_paths` must be an integer, got inf"),
        ("oracle.segments", HUGE, "`oracle.segments` must be an integer, got inf"),
        ("oracle.seed", HUGE, "`oracle.seed` must be an integer, got inf"),
        ("oracle.seed", f"-{HUGE}", "`oracle.seed` must be an integer, got -inf"),
        ("oracle.alphas", f"[{HUGE}]", "`oracle.alphas` must be finite, got [inf]"),
    ],
    ids=[
        "order", "initial", "horizon", "step", "alpha.count", "alpha.lo",
        "oracle.delta", "oracle.n_paths", "oracle.segments", "oracle.seed",
        "oracle.seed-negative", "oracle.alphas",
    ],
)
def test_integers_beyond_a_double_exit_2_naming_their_line(
    tmp_path, capsys, key, value, message
):
    text, line = _set_key(key, value)
    message = f"line {line}: {message}"
    _assert_load_error_on_every_command(tmp_path, capsys, text, message)


# for every key, a value of the wrong type and the message of the key's type
WRONG_TYPES = {
    "order": ("2.5", "must be an integer, got 2.5"),
    "initial": ("0.1", "must be a list of numbers, got 0.1"),
    "f": ("1", "must be a string, got 1"),
    "g": ("[x0]", "must be a string, got ['x0']"),
    "horizon": ('"1.0"', "must be a number, got '1.0'"),
    "step": ("true", "must be a number, got 'true'"),
    "alpha.count": ("[9]", "must be a number, got [9]"),
    "alpha.lo": ("x", "must be a number, got 'x'"),
    "oracle.delta": ("false", "must be a number, got 'false'"),
    "oracle.n_paths": ("6.5", "must be an integer, got 6.5"),
    "oracle.segments": ('"16"', "must be a number, got '16'"),
    "oracle.seed": ("2718.5", "must be an integer, got 2718.5"),
    "oracle.alphas": ("[0.2, x]", "must be a list of numbers, got [0.2, 'x']"),
    "output.directory": ("[out]", "must be a string, got ['out']"),
    "output.formats": ("csv", "must be a non-empty list, got 'csv'"),
}


@pytest.mark.parametrize("key", list(KNOWN_KEYS))
def test_a_value_of_the_wrong_type_exits_2_with_its_type_message(tmp_path, capsys, key):
    value, must = WRONG_TYPES[key]
    text, line = _set_key(key, value)
    _assert_load_error_on_every_command(
        tmp_path, capsys, text, f"line {line}: `{key}` {must}"
    )


def test_run_json_drops_sections_of_another_config(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["dist", "--config", cfg, "--out", str(out), "--t", "1.0"]) == 0
    assert "expected_value" in json.loads((out / "run.json").read_text())
    other = BASE_CONFIG.replace('g       = "2 + tanh(x0)"', 'g       = "3 + tanh(x0)"')
    cfg = write_config(tmp_path, other, "other.conf")
    assert main(["solve", "--config", cfg, "--out", str(out), "--force"]) == 0
    run = json.loads((out / "run.json").read_text())
    assert sorted(run) == ["config", "solver"]
    assert run["config"]["g"] == "3 + tanh(x0)"


@pytest.mark.parametrize(
    "previous",
    ["{not json", "[1, 2]", "\udcff"],
    ids=["not-json", "not-an-object", "not-utf8"],
)
def test_run_json_replaces_a_foreign_file(tmp_path, previous):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "run.json").write_text(previous, encoding="utf-8", errors="surrogateescape")
    assert main(["solve", "--config", cfg, "--out", str(out), "--force"]) == 0
    run = json.loads((out / "run.json").read_text())
    assert sorted(run) == ["config", "solver"]
