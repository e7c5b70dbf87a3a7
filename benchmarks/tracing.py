"""Spans around the calls into each gridcubes layer, for the traced run.

The wrappers live here, in the benchmark, not in the program: each public
function is replaced by a wrapper under the name that its caller looks it up
by (`cli`, `construct`, `toric` and `cubes` module globals, and methods of
`PointSet` and `LatticePolytope`).  Every span records its name, start, end,
parent span and operation id in flat arrays kept in memory and written out
when the run ends.  A span's self time is its duration minus the time its
child spans cover.

Calls into `intlinalg` come by the hundred thousand per operation, so they
are not stored one by one: each adds its count and time to totals and its
time to the covered time of the span that made it.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from collections import defaultdict
from time import perf_counter

# Set once a tracer is installed in this process and never cleared: timings
# from such a process are not end-to-end figures any more.
_ever_installed = False


def ever_installed() -> bool:
    return _ever_installed


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.covered = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self.recording = False
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.covered.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        t = perf_counter()
        self.end[idx] = t
        self.stack.pop()
        if self.stack:
            self.covered[self.stack[-1]] += t - self.start[idx]

    def span(self, name: str, fn, after=None):
        """Wrap fn in a span; after(counts, args, result) adds counters."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx)
                tracer.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            tracer._close(idx)
            if after is not None:
                after(tracer.counts, args, result)
            return result

        return wrapper

    def leaf(self, name: str, fn, passed):
        """Wrap a hot leaf call: totals only, time charged to the open span."""
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            counts[name + ".calls"] += 1
            counts[name + ".s"] += dt
            if passed(result):
                counts[name + ".passed"] += 1
            if tracer.stack:
                tracer.covered[tracer.stack[-1]] += dt
            return result

        return wrapper

    def patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self, lib) -> None:
        global _ever_installed
        _ever_installed = True
        for owner, attr, wrapper in _targets(self, lib):
            self.patch(owner, attr, wrapper)

    def uninstall(self) -> bool:
        """Put every wrapped name back; True when all are the originals."""
        saved, self._saved = self._saved, []
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
        return all(owner.__dict__[attr] is orig for owner, attr, orig in saved)

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,op,parent,name,start_s,end_s,child_covered_s\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.name)):
                fh.write(f"{i},{self.op[i]},{self.parent[i]},{self.names[self.name[i]]},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},{self.covered[i]:.9f}\n")


def _count_points(counts, args, result):
    counts["grid.points_built"] += len(args[0])


def _count_hit(counts, args, result):
    if result is not None:
        counts["cubes.find_cube.hits"] += 1


def _count_rounds(counts, args, outcome):
    counts["construct.rounds"] += outcome.rounds
    counts["construct.cells_redrawn"] += outcome.rounds * 2 ** args[1]


def _count_messages(counts, args, code):
    counts["toric.messages"] += code.field.q ** code.dimension - 1


BOUNDS_NAMES = ("c_n_schedule", "check_eq_ep", "choose_r_dense", "choose_r_sparse",
                "count_affine_maps_bound", "lll_condition")


def _targets(tr: Tracer, lib):
    cli, construct, cubes, grid, toric = lib.cli, lib.construct, lib.cubes, lib.grid, lib.toric
    m_value = tr.span("cubes.m_value", cubes.m_value)
    find_cube = tr.span("cubes.find_cube", cubes.find_cube, _count_hit)
    out = [
        (cli, "run", tr.span("cli.run", cli.run)),
        (cli, "parse_point_set", tr.span("grid.parse_point_set", cli.parse_point_set)),
        (cli, "m_value", m_value),
        (cli, "f_exhaustive", tr.span("cubes.f_exhaustive", cli.f_exhaustive)),
        (cli, "code_stats", tr.span("toric.code_stats", cli.code_stats)),
        (cli, "parse_polytope", tr.span("toric.parse_polytope", cli.parse_polytope)),
        (cli, "bound_table_rows", tr.span("bounds.bound_table_rows", cli.bound_table_rows)),
        (cli, "construct_dense_small_M",
         tr.span("construct.construct_dense_small_M", cli.construct_dense_small_M)),
        (cli, "construct_sparse_bounded_M",
         tr.span("construct.construct_sparse_bounded_M", cli.construct_sparse_bounded_M)),
        (construct, "moser_tardos_sample",
         tr.span("construct.moser_tardos_sample", construct.moser_tardos_sample, _count_rounds)),
        (construct, "verify_construction",
         tr.span("construct.verify_construction", construct.verify_construction)),
        (construct, "find_cube", find_cube),
        (toric, "m_value", m_value),
        (toric, "build_code", tr.span("toric.build_code", toric.build_code, _count_messages)),
        (toric, "minimum_distance", tr.span("toric.minimum_distance", toric.minimum_distance)),
        (toric.LatticePolytope, "lattice_points",
         tr.span("toric.lattice_points", toric.LatticePolytope.lattice_points)),
        (cubes, "m_value", m_value),
        (cubes, "find_cube", find_cube),
        (cubes, "reduce_against",
         tr.leaf("intlinalg.reduce_against", cubes.reduce_against, lambda r: r is not None)),
        (cubes, "is_primitive_system",
         tr.leaf("intlinalg.is_primitive_system", cubes.is_primitive_system, bool)),
        (grid.PointSet, "__init__", tr.span("grid.PointSet", grid.PointSet.__init__, _count_points)),
    ]
    for name in BOUNDS_NAMES:
        out.append((construct, name, tr.span(f"bounds.{name}", getattr(construct, name))))
    return out


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, as name -> (value, unit)."""
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    for i in range(len(tr.name)):
        name = tr.names[tr.name[i]]
        d = tr.end[i] - tr.start[i]
        calls[name] += 1
        total[name] += d
        self_s[name] += d - tr.covered[i]
    c = tr.counts

    def frac(num, den):
        return num / den if den else 0.0

    bounds = [n for n in calls if n.startswith("bounds.")]
    budget = sum(c[f"cubes.{f}.raised.SearchBudgetExceeded"] for f in ("m_value", "find_cube"))
    m = {
        "cli.calls": (calls["cli.run"], "count"),
        "cli.self_s": (self_s["cli.run"], "s"),
        "grid.pointsets_built": (calls["grid.PointSet"], "count"),
        "grid.points_built": (c["grid.points_built"], "count"),
        "grid.pointset_s": (total["grid.PointSet"], "s"),
        "grid.parse_s": (self_s["grid.parse_point_set"], "s"),
        "cubes.m_value_calls": (calls["cubes.m_value"], "count"),
        "cubes.m_value_self_s": (self_s["cubes.m_value"], "s"),
        "cubes.find_cube_calls": (calls["cubes.find_cube"], "count"),
        "cubes.find_cube_self_s": (self_s["cubes.find_cube"], "s"),
        "cubes.find_cube_hit_frac": (frac(c["cubes.find_cube.hits"], calls["cubes.find_cube"]), "ratio"),
        "cubes.f_exhaustive_self_s": (self_s["cubes.f_exhaustive"], "s"),
        "cubes.budget_exhausted": (budget, "count"),
        "intlinalg.reduce_calls": (c["intlinalg.reduce_against.calls"], "count"),
        "intlinalg.reduce_indep_frac": (
            frac(c["intlinalg.reduce_against.passed"], c["intlinalg.reduce_against.calls"]), "ratio"),
        "intlinalg.reduce_s": (c["intlinalg.reduce_against.s"], "s"),
        "intlinalg.primitive_calls": (c["intlinalg.is_primitive_system.calls"], "count"),
        "intlinalg.primitive_pass_frac": (
            frac(c["intlinalg.is_primitive_system.passed"], c["intlinalg.is_primitive_system.calls"]),
            "ratio"),
        "intlinalg.primitive_s": (c["intlinalg.is_primitive_system.s"], "s"),
        "construct.sample_calls": (calls["construct.moser_tardos_sample"], "count"),
        "construct.rounds": (c["construct.rounds"], "count"),
        "construct.cells_redrawn": (c["construct.cells_redrawn"], "count"),
        "construct.sample_self_s": (self_s["construct.moser_tardos_sample"], "s"),
        "construct.verify_calls": (calls["construct.verify_construction"], "count"),
        "construct.verify_self_s": (self_s["construct.verify_construction"], "s"),
        "bounds.calls": (sum(calls[n] for n in bounds), "count"),
        "bounds.s": (sum((total[n] for n in bounds), 0.0), "s"),
        "toric.lattice_points_s": (total["toric.lattice_points"], "s"),
        "toric.build_code_s": (self_s["toric.build_code"], "s"),
        "toric.min_distance_s": (total["toric.minimum_distance"], "s"),
        "toric.messages": (c["toric.messages"], "count"),
        "toric.messages_per_s": (frac(c["toric.messages"], total["toric.minimum_distance"]), "1/s"),
    }
    return {k: (int(v) if u == "count" else v, u) for k, (v, u) in m.items()}


# Counters that depend only on the inputs; two traced runs of one seed must
# give the same values.
DETERMINISTIC = (
    "cli.calls", "grid.pointsets_built", "grid.points_built", "cubes.m_value_calls",
    "cubes.find_cube_calls", "cubes.budget_exhausted", "intlinalg.reduce_calls",
    "intlinalg.primitive_calls", "construct.sample_calls", "construct.rounds",
    "construct.cells_redrawn", "construct.verify_calls", "bounds.calls", "toric.messages",
)
