"""The package's sources parse at the Python floor that pyproject.toml
declares, so a newer syntax cannot slip in unnoticed."""

import ast
import re
from pathlib import Path

import gridcubes


def test_sources_parse_at_the_floor():
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()
    floor = (int(major), int(minor))
    assert floor == (3, 10)
    sources = sorted(Path(gridcubes.__file__).parent.glob("*.py"))
    assert len(sources) >= 10
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)
