"""The benchmark's tracer (benchmarks/tracing.py) wraps gridcubes functions
under the module globals their callers look them up by.  A rename or a
dropped import of a traced name, such as cubes.reduce_against or
cubes.is_primitive_system, must fail here and not only in the benchmark's
self-test."""

import types
from pathlib import Path

from gridcubes import cli, construct, cubes, grid, toric

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_tracer_wraps_and_restores_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing

    lib = types.SimpleNamespace(cli=cli, construct=construct, cubes=cubes, grid=grid, toric=toric)
    tracer = tracing.Tracer()
    try:
        tracer.install(lib)
    finally:
        restored = tracer.uninstall()
    assert restored


def test_search_looks_up_reduce_against_through_cubes(monkeypatch):
    """The search must call reduce_against by its cubes module global, so
    that the tracer's per-layer counter sees the calls."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing

    lib = types.SimpleNamespace(cli=cli, construct=construct, cubes=cubes, grid=grid, toric=toric)
    tracer = tracing.Tracer()
    try:
        tracer.install(lib)
        tracer.recording = True
        cubes.m_value(grid.PointSet.full(grid.GridParams(3, 3)), cubes.CubeNotion.INDEPENDENT_GENERATORS)
    finally:
        tracer.recording = False
        tracer.uninstall()
    assert tracer.counts["intlinalg.reduce_against.calls"] > 0


def test_traced_code_stats_records_lattice_points(monkeypatch):
    """code_stats enumerates the lattice points through the method that the
    tracer wraps, so toric.lattice_points_s measures the enumeration."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing

    lib = types.SimpleNamespace(cli=cli, construct=construct, cubes=cubes, grid=grid, toric=toric)
    tracer = tracing.Tracer()
    try:
        tracer.install(lib)
        tracer.recording = True
        toric.code_stats(toric.LatticePolytope([(0, 0), (2, 0), (0, 2)]), 5)
    finally:
        tracer.recording = False
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer)
    assert metrics["toric.lattice_points_s"][0] > 0
