"""The README's examples run as written."""

from __future__ import annotations

import re
from pathlib import Path

from alphapath.config import KNOWN_KEYS, build_config, parse_config_text
from alphapath.solver import segment_counts

README = Path(__file__).resolve().parent.parent / "README.md"


def _fenced(info: str) -> list[str]:
    """Bodies of the README's fenced blocks whose info string is ``info``."""
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{info}\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)


def test_readme_library_example_runs():
    (source,) = _fenced("python")
    namespace: dict = {}
    exec(compile(source, str(README), "exec"), namespace)
    assert namespace["verdict"].failed == []
    assert [(r.alpha, r.side) for r in namespace["reports"]] == [
        (0.2, "below"), (0.2, "above"), (0.8, "below"), (0.8, "above")
    ]
    assert all(r.passed for r in namespace["reports"])


def test_readme_config_without_its_segments_line_takes_32():
    # the README problem's 1000 steps take the default 32 segments, which do
    # not divide them: the first 8 span 32 steps and the other 24 span 31
    (text,) = [block for block in _fenced("") if "oracle.segments" in block]
    unset = [line for line in text.splitlines() if "oracle.segments" not in line]
    config = build_config(*parse_config_text("\n".join(unset)))
    assert config.oracle.segments == 32
    counts = segment_counts(config.spec.step_count, config.oracle.segments)
    assert counts == [32] * 8 + [31] * 24


def test_readme_config_block_sets_every_known_key():
    (text,) = [block for block in _fenced("") if "oracle.segments" in block]
    values, _ = parse_config_text(text)
    assert sorted(values) == sorted(KNOWN_KEYS)
