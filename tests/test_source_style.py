"""The package source keeps its lines within 100 characters."""

from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "unitgraph").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_source_line_is_over_100_characters(path):
    long = [
        f"{path.name}:{number}"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert not long
