"""The repository's claims about itself: README examples and counts, the 3.10 grammar."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_examples_run():
    # one namespace: the second block uses real, cfg and rng from the first
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(block, namespace)
    assert namespace["report"].channel_uses_total == 168
    assert namespace["h_rest"].shape == (32, 120)


def test_sources_parse_under_the_oldest_supported_python():
    # pyproject.toml requires Python >= 3.10; reject syntax that 3.10 lacks
    sources = sorted(path for folder in ("src/twostage", "tests", "bench")
                     for path in (ROOT / folder).glob("*.py"))
    assert {path.parent.name for path in sources} == {"twostage", "tests", "bench"}
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_readme_layout_states_the_source_line_count():
    stated = re.search(r"src/twostage/\s+([\d,]+) lines in all",
                       (ROOT / "README.md").read_text())
    assert stated is not None
    lines = sum(len(path.read_text().splitlines())
                for path in (ROOT / "src" / "twostage").glob("*.py"))
    assert int(stated.group(1).replace(",", "")) == lines
    assert lines <= 1131  # the line budget in ROADMAP.md
