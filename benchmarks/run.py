"""Benchmark of the gridcubes toolkit: seeded workloads, end to end and per layer.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload mvalue --seed 3 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all            # every workload, one process each
    python3 benchmarks/run.py --self-test               # counters repeat, golden outputs hold
    python3 benchmarks/run.py --record-golden           # rewrite benchmarks/golden.json

One client runs a closed loop in this process: the next operation starts
when the previous one has returned.  Operations call `gridcubes.cli.run(argv)`
at the default budget with `--threads 1`, or the sampler directly, on inputs
generated from the workload seed.  Every output is checked; a check that
fails counts as a failed operation.

A shared host's speed can drift by 2x within seconds, as other tenants load
its cores and caches.  So the end-to-end times are given in units of a fixed
reference loop timed between operations, at least every quarter second (see
`reference_loop` and `measure`); `setup_s` is converted back to seconds at a
fixed 0.02 s per reference.  The raw seconds are printed and kept in the run
record.

With `--trace 0` the run reports the end-to-end metrics; with `--trace 1` it
runs a fixed list of operations twice, untraced and then traced, and reports
the per-layer metrics of the traced pass (see tracing.py).  Process-level
parallelism (`--threads`) is deliberately not measured: worker processes
would hide the per-layer spans.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A run record with the
environment, the input digest and the failures goes to .bench_work/records.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")  # relative to ROOT, so generated argv never holds absolute paths
GOLDEN = Path(__file__).resolve().parent / "golden.json"

DEFAULT_SEED = 0
# Cycles of distinct inputs generated per seed.  A run that gets through all
# of them starts again at the first.
POOL_CYCLES = 12
# Set-ups per run; one runs before each of the first cycles, so that their
# median is not taken from a single stretch of the host's speed.
SETUPS = 9
# Iterations of the reference loop: about 20 ms on a 2-core x86-64 VM with
# Python 3.11.
REFERENCE_REPS = 40_000
# Seconds of operations between two timings of the reference loop.  The
# host's speed drifts over seconds, not within a fraction of one.
REFERENCE_GAP = 0.25
# Seconds per reference when set-up costs are given in seconds: `setup_s` is
# the set-up time on a host on which the reference loop takes this long.
REFERENCE_S = 0.02
_REFERENCE_SET = frozenset((a, b, c) for a in range(8) for b in range(0, 8, 2) for c in range(11))
TAIL_LADDER = (99, 95, 90, 75, 50)
MODULES = ("cli", "construct", "cubes", "grid", "toric")


def load_gridcubes() -> types.SimpleNamespace:
    """Import gridcubes afresh from this checkout's src/ tree."""
    for name in [m for m in sys.modules if m == "gridcubes" or m.startswith("gridcubes.")]:
        del sys.modules[name]
    lib = types.SimpleNamespace(**{m: importlib.import_module(f"gridcubes.{m}") for m in MODULES})
    if Path(lib.cli.__file__).resolve().parent != SRC / "gridcubes":
        raise ImportError(f"gridcubes was imported from {lib.cli.__file__}, not from {SRC}")
    return lib


def execute(lib, op, golden, tracer=None):
    """Run one operation, timed, then check it untimed: (latency, error).

    A full garbage collection runs first, untimed, so that the operation
    pays only for the collections its own allocations cause, not for those
    that earlier operations left due."""
    gc.collect()
    if tracer is not None:
        tracer.recording = True
    t0 = time.perf_counter()
    try:
        out = op.run(lib)
    except Exception as exc:  # the operation failed; the loop goes on
        return time.perf_counter() - t0, f"raised {type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.recording = False
    latency = time.perf_counter() - t0
    try:
        err = op.check(lib, out)
        if err is None and op.golden_key in golden and op.checksum(out) != golden[op.golden_key]:
            err = "output differs from its golden checksum"
    except Exception as exc:  # a check that cannot run is a failed check
        err = f"check raised {type(exc).__name__}: {exc}"
    return latency, err


def reference_loop(reps: int = REFERENCE_REPS) -> int:
    """A fixed piece of pure-Python work of the kind the search does: tuple
    arithmetic, set lookups and dict updates.  Its time tracks the host's
    current speed; it touches no gridcubes code."""
    seen = {}
    hits = 0
    for i in range(reps):
        p = (i & 7, (i >> 3) & 7, (i * 5) % 11)
        q = (p[0] + 1, p[1] ^ 3, p[2])
        if q in _REFERENCE_SET:
            hits += 1
        seen[q] = i
    return hits + len(seen)


def reference_time() -> float:
    gc.collect()
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def measure(lib, ops, golden, tracer=None):
    """Run ops in order, with the reference loop timed before the first, after
    the last, and after each operation that brings the time measured since
    the previous timing to REFERENCE_GAP seconds: [(latency in s, latency in
    references, error)].  The operations between two timings take the mean
    of the two as their reference, so cheap operations share one and the
    loop's own time stays a small part of the run."""
    out = []
    pending = []
    before = reference_time()
    since = 0.0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        latency, err = execute(lib, op, golden, tracer)
        pending.append((latency, err))
        since += latency
        if since >= REFERENCE_GAP or i == len(ops) - 1:
            after = reference_time()
            ref = (before + after) / 2
            out.extend((t, t / ref, e) for t, e in pending)
            pending, before, since = [], after, 0.0
    return out


def setup(workload: str, seed: int):
    """Import, generate the inputs and warm up: (lib, pool, digest, seconds).

    Everything alive at the end, the benchmark's own pool and golden table
    included, is then frozen out of the garbage collector's reach, so the
    full collection before each operation is cheap and the collections an
    operation causes scan only what the program allocated."""
    gc.unfreeze()
    t0 = time.perf_counter()
    lib = load_gridcubes()
    inputs = WORK / "inputs" / workload
    shutil.rmtree(inputs, ignore_errors=True)
    pool, digest = workloads.build_pool(workload, seed, POOL_CYCLES, inputs)
    _, err = execute(lib, workloads.warmup_op(workload, inputs), {})
    if err:
        raise RuntimeError(f"warm-up failed: {err}")
    dt = time.perf_counter() - t0
    gc.collect()
    gc.freeze()
    return lib, pool, digest, dt


def setup_between_references(workload: str, seed: int):
    """A set-up between two timings of the reference loop:
    (lib, pool, digest, seconds, references)."""
    before = reference_time()
    lib, pool, digest, dt = setup(workload, seed)
    after = reference_time()
    return lib, pool, digest, dt, 2 * dt / (before + after)


def load_golden() -> dict:
    if not GOLDEN.exists():
        return {}
    return json.loads(GOLDEN.read_text())["outputs"]


def tail_percentile(ops: int) -> float:
    """The highest ladder percentile with at least ten of `ops` operations
    above it.  It is taken at the fewest operations a run of the workload may
    measure, so every run of one workload reports the same percentile."""
    return next(p for p in TAIL_LADDER if ops - math.ceil(p * ops / 100) >= 10)


def nearest_rank(xs, p: float) -> float:
    return sorted(xs)[math.ceil(p * len(xs) / 100) - 1]


def git_sha():
    """The checkout's commit, read from .git without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_file = ROOT / ".git" / ref[5:]
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "gridcubes").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def base_record(workload, seed, trace, digest):
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "inputs_sha256": digest,
    }


def run_end_to_end(workload, seed, seconds):
    if tracing.ever_installed():
        raise RuntimeError("this process was traced; it cannot report end-to-end metrics")
    golden = load_golden()
    min_cycles = workloads.WORKLOADS[workload][1]
    setup_times, setup_refs, failures, results = [], [], [], []
    golden_checked = 0
    first_op_after = None
    # Whole cycles, at least min_cycles, until the run, reference timings
    # included, is within half a cycle of `seconds`.
    cycles, elapsed, cycle_s = 0, 0.0, 0.0
    while cycles < min_cycles or elapsed + cycle_s / 2 < seconds:
        if cycles < SETUPS:
            lib, pool, digest, dt, refs = setup_between_references(workload, seed)
            setup_times.append(dt)
            setup_refs.append(refs)
        if first_op_after is None:
            first_op_after = time.perf_counter() - T_START
        t0 = time.perf_counter()
        cycle = pool[cycles % len(pool)]
        for op, result in zip(cycle, measure(lib, cycle, golden)):
            golden_checked += op.golden_key in golden
            if result[2]:
                failures.append(f"cycle {cycles} {op.label}: {result[2]}")
            results.append((op.label,) + result)
        cycle_s = time.perf_counter() - t0
        elapsed += cycle_s
        cycles += 1
    while len(setup_times) < SETUPS:
        dt, refs = setup_between_references(workload, seed)[3:]
        setup_times.append(dt)
        setup_refs.append(refs)
    seconds_of = [r[1] for r in results]
    refs_of = [r[2] for r in results]
    attempted, failed = len(results), len(failures)
    pct = tail_percentile(min_cycles * len(pool[0]))
    metrics = {
        "setup_s": (statistics.median(setup_refs) * REFERENCE_S, "s"),
        "ops_per_ref": (attempted / sum(refs_of), "1/ref"),
        "latency_p50_ref": (nearest_rank(refs_of, 50), "ref"),
        "latency_tail_ref": (nearest_rank(refs_of, pct), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    # Raw seconds, printed and recorded but not reported as metrics: they
    # follow the host's speed.
    raw = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": attempted / sum(seconds_of),
        "latency_p50_s": nearest_rank(seconds_of, 50),
        "latency_tail_s": nearest_rank(seconds_of, pct),
    }
    record = base_record(workload, seed, 0, digest)
    record.update({
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "cycles": cycles,
        "latency_tail_percentile": pct,
        "latency_tail_samples": attempted,
        "raw_seconds": raw,
        "setup_runs_s": setup_times,
        "setup_runs_ref": setup_refs,
        "start_to_first_op_s": first_op_after,
        "golden_checked": golden_checked,
        "failures": failures[:20],
        "latency": [[label, secs, refs] for label, secs, refs, _ in results],
    })
    return attempted, failed, metrics, record


def run_traced(workload, seed):
    """One untraced and one traced pass over the workload's fewest cycles."""
    golden = load_golden()
    lib, pool, digest, _ = setup(workload, seed)
    ops = [op for cycle in pool[:workloads.WORKLOADS[workload][1]] for op in cycle]
    golden_checked = 2 * sum(op.golden_key in golden for op in ops)
    untraced = measure(lib, ops, golden)
    tracer = tracing.Tracer()
    tracer.install(lib)
    try:
        traced = measure(lib, ops, golden, tracer)
    finally:
        restored = tracer.uninstall()
    failures = [f"{kind} {op.label}: {err}"
                for kind, results in (("untraced", untraced), ("traced", traced))
                for op, (_, _, err) in zip(ops, results) if err]
    if not restored:
        failures.append("a wrapped name was not restored")
    metrics = tracing.layer_metrics(tracer)
    # In references, so that a change of the host's speed between the two
    # passes does not show as overhead.
    overhead = sum(r for _, r, _ in traced) / sum(r for _, r, _ in untraced) - 1
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    spans = WORK / "records" / f"{workload}-seed{seed}-spans.csv.gz"
    tracer.write(spans)
    record = base_record(workload, seed, 1, digest)
    record.update({
        "attempted": 2 * len(ops),
        "failed": len(failures),
        "operations": [op.label for op in ops],
        "untraced_s": sum(t for t, _, _ in untraced),
        "traced_s": sum(t for t, _, _ in traced),
        "golden_checked": golden_checked,
        "spans": len(tracer.name),
        "spans_file": str(spans),
        "leaf_totals": {k: v for k, v in tracer.counts.items() if k.startswith("intlinalg.")},
        "failures": failures[:20],
    })
    return 2 * len(ops), len(failures), metrics, record


def run_one(workload, seed, seconds, trace) -> int:
    (WORK / "records").mkdir(parents=True, exist_ok=True)
    if trace:
        attempted, failed, metrics, record = run_traced(workload, seed)
    else:
        attempted, failed, metrics, record = run_end_to_end(workload, seed, seconds)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    path = WORK / "records" / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} = {value:.6g} {unit}")
    print(f"{workload} fail_frac = {failed / attempted:.6g} ratio ({failed} of {attempted})")
    if not trace:
        for name, value in record["raw_seconds"].items():
            print(f"{workload} {name} = {value:.6g} {'1/s' if name == 'ops_per_s' else 's'} (raw)")
        print(f"{workload} latency_tail is p{record['latency_tail_percentile']:g} "
              f"of {record['attempted']} operations in {record['cycles']} cycles")
    for line in record["failures"]:
        print(f"FAILED {line}")
    print(f"run record: {path}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


def run_child(workload, seed, seconds, trace):
    """Run one workload in its own process; returns its result object."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} run exited {proc.returncode}")
    return json.loads(lines[-1])


def run_all(seed, seconds, trace) -> int:
    results = {w: run_child(w, seed, seconds, trace) for w in workloads.WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def self_test() -> int:
    """Two traced runs per workload on the default seed: the deterministic
    counters must agree exactly and every output must match its golden."""
    problems = []
    for w in workloads.WORKLOADS:
        first, second = (run_child(w, DEFAULT_SEED, 1, 1) for _ in range(2))
        record = json.loads((WORK / "records" / f"{w}-seed{DEFAULT_SEED}-trace1.json").read_text())
        for name in tracing.DETERMINISTIC:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                problems.append(f"{w} {name}: {a} != {b}")
        if not (first["correct"] and second["correct"]):
            problems.append(f"{w}: an operation failed its check")
        if record["golden_checked"] != record["attempted"]:
            problems.append(f"{w}: only {record['golden_checked']} of {record['attempted']} "
                            "outputs have a golden checksum")
    for p in problems:
        print(f"SELF-TEST FAILED {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def record_golden() -> int:
    """Run every pooled operation of the default seed once and store the
    checksums of the outputs in golden.json."""
    outputs = {}
    for w in workloads.WORKLOADS:
        lib, pool, _, _ = setup(w, DEFAULT_SEED)
        for cycle in pool:
            for op in cycle:
                out = op.run(lib)
                err = op.check(lib, out)
                if err:
                    raise RuntimeError(f"{op.label}: {err}")
                outputs[op.golden_key] = op.checksum(out)
        print(f"{w}: {sum(len(c) for c in pool)} outputs recorded")
    GOLDEN.write_text(json.dumps({"seed": DEFAULT_SEED, "outputs": outputs}, indent=1) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()
    if not (SRC / "gridcubes" / "__init__.py").is_file():
        print(f"error: no gridcubes sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return self_test()
    if args.record_golden:
        return record_golden()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
