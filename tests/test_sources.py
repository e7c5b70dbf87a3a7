"""The package's sources parse at the Python floor that pyproject.toml
declares, so a newer syntax cannot slip in unnoticed; the CLI loads no
process-pool machinery; every cube search enters through one function."""

import ast
import os
import re
import subprocess
import sys
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


def test_cli_loads_no_process_pool():
    # every command runs in one process, so importing the CLI in a fresh
    # interpreter leaves both packages unloaded
    env = dict(os.environ, PYTHONPATH=str(Path(gridcubes.__file__).parent.parent))
    code = ("import sys, gridcubes.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_one_entry_to_the_cube_search():
    # cubes._search is the one place that runs the search core, so what
    # every search must do (raise on a spent budget) is done once; a target
    # too big for the set the core answers itself, with no check
    callers = []

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif "_run_box_search" in (getattr(node, "id", None), getattr(node, "attr", None)):
            callers.append((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted(Path(gridcubes.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem, None)
    assert callers == [("cubes", "_search")]
