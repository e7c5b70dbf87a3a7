"""Seeded workloads of the gridcubes benchmark: inputs, operations, checks.

Each workload is a fixed cycle of operation kinds.  The workload seed draws
the concrete inputs of every cycle (point subsets, construction seeds,
polytope placements), so one seed always gives the same inputs.  A run
executes whole cycles, which keeps the mix of operation kinds, and so the
median and tail it reports, the same from run to run.

An operation returns whatever the program returned; its check is a separate
step that the benchmark does not time.  A check returns None for a correct
output and a one-line reason otherwise.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Callable, Optional

NOTIONS = ("vertex-injective", "independent-generators", "unimodular")

# One cycle of each workload, as tuples the generators below expand.  The
# instances are sized so that a run measures several cycles (see run.py).
# mvalue: (N, n, density); 40-51 points, each search takes about 0.05-0.2 s.
MVALUE_GRIDS = (
    (2, 7, Fraction(1, 3)),
    (2, 8, Fraction(1, 5)),
    (3, 4, Fraction(1, 2)),
    (3, 5, Fraction(1, 5)),
    (5, 3, Fraction(1, 3)),
)
# construct: the three CLI constructions, one sampler call at r = 3 on [2]^8
# and 200 on [2]^6, all with p = 1/2: the sampler resamples only at this r.
# The cost of one construction varies from milliseconds to seconds with its
# seed and a run measures only a few of them, so the cheap [2]^6 calls give
# the run enough operations for a steady median and tail, and keep the
# constructions and the [2]^8 call to under half of the time.
CONSTRUCT_CLI = (("dense", 7, 2, "1"), ("sparse", 12, 2, "1/2"), ("sparse", 8, 3, "1/2"))
SAMPLER_GRIDS = ((2, 8),) + ((2, 6),) * 200
SAMPLER_R = 3
SAMPLER_P = Fraction(1, 2)
# fexact: the exhaustive instances, then seeded sampled runs on [2]^6.
# (2, 4, 5/8) enumerates 14,893 subsets where the 8,008 of size k_min would
# do, and takes a sixth of the cycle; the sampled runs set the median and
# the tail.
FEXACT_EXHAUSTIVE = ((2, 4, "5/8"), (2, 4, "3/4"), (4, 2, "3/4"), (2, 4, "13/16"))
FEXACT_SAMPLED = (2, 6, "1/2", 20)
FEXACT_SAMPLED_PER_CYCLE = 72
# toric: (name, q, vertices, lattice points k, segment length or None), with
# q^k between about 10^3 and 2 * 10^5.  Costs are fixed per shape, so the
# percentiles of a run fall on shapes: with these 14, the median falls between
# two shapes of equal cost and p75 inside the prism's group.
TORIC_SHAPES = (
    ("segment-2", 11, ((0,), (2,)), 3, 2),
    ("segment-4", 11, ((0,), (4,)), 5, 4),
    ("segment-2", 13, ((0,), (2,)), 3, 2),
    ("segment-3", 13, ((0,), (3,)), 4, 3),
    ("segment-2", 17, ((0,), (2,)), 3, 2),
    ("segment-3", 17, ((0,), (3,)), 4, 3),
    ("square-1", 7, ((0, 0), (1, 0), (0, 1), (1, 1)), 4, None),
    ("parallelogram", 7, ((0, 0), (1, 0), (1, 1), (2, 1)), 4, None),
    ("rectangle-2x1", 5, ((0, 0), (2, 0), (0, 1), (2, 1)), 6, None),
    ("triangle-2", 5, ((0, 0), (2, 0), (0, 2)), 6, None),
    ("hexagon", 5, ((1, 0), (2, 0), (0, 1), (2, 1), (0, 2), (1, 2)), 7, None),
    ("unit-cube", 3, tuple(product((0, 1), repeat=3)), 8, None),
    ("simplex-1", 7, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)), 4, None),
    ("prism", 5, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1)), 6, None),
)



@dataclass
class Op:
    """One closed-loop operation.

    `golden_key` names the output in golden.json.  Keys of outputs that the
    seed cannot change (exhaustive f, toric statistics) leave the seed out,
    so those outputs are compared with the recording on every seed.
    """

    label: str
    golden_key: str
    run: Callable[[object], object]
    check: Callable[[object, object], Optional[str]]
    checksum: Callable[[object], str]


def _cli_checksum(out) -> str:
    code, text = out
    try:
        digest = json.loads(text)["manifest"]["output_checksum"]
    except (ValueError, KeyError, TypeError):
        digest = hashlib.sha256(text.encode()).hexdigest()
    return f"{code}:{digest}"


def _cli_op(label, golden_key, argv, check) -> Op:
    return Op(label, golden_key, lambda lib: lib.cli.run(list(argv)), check, _cli_checksum)


def _parse_cli(out, codes=(0,)):
    """(result, None) for a well-formed CLI output, else (None, reason)."""
    code, text = out
    if code not in codes:
        return None, f"exit {code}: {text.strip()[:200]}"
    try:
        doc = json.loads(text)
    except ValueError:
        return None, "output is not JSON"
    result = doc.get("result")
    blob = json.dumps(result, separators=(",", ":"), sort_keys=False)
    if hashlib.sha256(blob.encode()).hexdigest() != doc["manifest"]["output_checksum"]:
        return None, "manifest checksum does not match the result block"
    return result, None


def _point_text(N, n, pts) -> str:
    return f"{N} {n}\n" + "".join(" ".join(map(str, p)) + "\n" for p in sorted(pts))


# ---------------------------------------------------------------- mvalue


def _mvalue_check(N, n, pts, notion):
    def check(lib, out):
        result, err = _parse_cli(out)
        if err:
            return err
        wit = result["witness"]
        if wit["notion"] != notion or wit["m"] != result["m"]:
            return "witness does not match the reported m and notion"
        s = lib.grid.PointSet(lib.grid.GridParams(N, n), pts)
        cube = lib.cubes.AffineCube(tuple(wit["base"]), tuple(tuple(v) for v in wit["generators"]))
        if not lib.cubes.is_cube_in(s, cube, lib.cubes.CubeNotion(notion)):
            return f"witness {result['canonical']} is not a {notion} cube in S"
        return None
    return check


def _mvalue_cycle(seed, c, inputs):
    rng = random.Random(f"mvalue:{seed}:{c}")
    ops = []
    for k in range(len(NOTIONS)):
        for N, n, dens in MVALUE_GRIDS:
            notion = NOTIONS[(c + k) % len(NOTIONS)]
            cells = list(product(range(N), repeat=n))
            pts = rng.sample(cells, round(dens * len(cells)))
            path = inputs / f"mvalue-c{c}-{N}-{n}-{k}.txt"
            path.write_text(_point_text(N, n, pts))
            label = f"mvalue [{N}]^{n} |S|={len(pts)} {notion}"
            argv = ["--threads", "1", "mvalue", str(path), "--notion", notion]
            ops.append(_cli_op(label, f"seed={seed} c={c} {label}", argv,
                               _mvalue_check(N, n, pts, notion)))
    return ops


# ------------------------------------------------------------- construct


def _construct_check(out_prefix, N, n, eps):
    allowed = {0: {"verified"}, 4: {"cube-persists", "size-missed", "density-missed"}}

    def check(lib, out):
        result, err = _parse_cli(out, codes=(0, 4))
        if err:
            return err
        status = result["status"]
        if status not in allowed[out[0]]:
            return f"status {status!r} under exit {out[0]}"
        cert = result["certificate"]
        text = Path(out_prefix + ".points.txt").read_text()
        s = lib.grid.parse_point_set(text)
        if hashlib.sha256(lib.grid.format_point_set(s).encode()).hexdigest() != result["points_sha256"]:
            return "point set does not round-trip to points_sha256"
        if cert["cardinality"] != len(s) or (s.grid.base, s.grid.dim) != (N, n):
            return "certificate does not describe the written point set"
        if status == "verified" and not (cert["verified"] and "witness" not in cert):
            return "verified status without a clean certificate"
        if status == "cube-persists":
            wit = cert.get("witness")
            cube = wit and lib.cubes.AffineCube(tuple(wit["base"]), tuple(map(tuple, wit["generators"])))
            if not cube or not lib.cubes.is_cube_in(s, cube, lib.cubes.CubeNotion(wit["notion"])):
                return "cube-persists without a witness cube inside the set"
        if status == "size-missed":
            # |S| < N^((1-eps) n), decided on integers
            e = (1 - Fraction(eps)) * n
            if not (cert["verified"] and len(s) ** e.denominator < N ** e.numerator):
                return "size-missed although the size target holds"
        return None
    return check


def _sampler_run(grid_shape, seed):
    def run(lib):
        grid = lib.grid.GridParams(*grid_shape)
        config = lib.construct.SamplerConfig(p=SAMPLER_P, seed=seed)
        return lib.construct.moser_tardos_sample(grid, SAMPLER_R, config)
    return run


def _sampler_check(lib, outcome):
    if not outcome.success or outcome.last_violation is not None:
        return f"sampler gave up after {outcome.rounds} rounds"
    s = outcome.point_set
    if lib.grid.parse_point_set(lib.grid.format_point_set(s)) != s:
        return "sampled set does not round-trip through the point-set format"
    return None


def _sampler_checksum(outcome) -> str:
    s = outcome.point_set
    text = _point_text(s.grid.base, s.grid.dim, s.tuple_set)
    return f"{outcome.rounds}:{hashlib.sha256(text.encode()).hexdigest()}"


def _construct_cycle(seed, c, inputs):
    rng = random.Random(f"construct:{seed}:{c}")
    ops = []
    out_prefix = str(inputs / "construct-out")
    for mode, n, N, eps in CONSTRUCT_CLI:
        s = rng.randrange(10 ** 6)
        label = f"construct {mode} {n} {N} {eps} --seed {s}"
        argv = ["--seed", str(s), "--threads", "1", "construct", mode, str(n), str(N), eps,
                "--out", out_prefix]
        ops.append(_cli_op(label, label, argv, _construct_check(out_prefix, N, n, eps)))
    for N, n in SAMPLER_GRIDS:
        s = rng.randrange(10 ** 6)
        label = f"moser_tardos_sample [{N}]^{n} r={SAMPLER_R} p={SAMPLER_P} seed={s}"
        ops.append(Op(label, label, _sampler_run((N, n), s), _sampler_check, _sampler_checksum))
    return ops


# ---------------------------------------------------------------- fexact


def _fexact_check(N, n, c, notion, samples):
    def check(lib, out):
        result, err = _parse_cli(out)
        if err:
            return err
        want = {"N": N, "n": n, "c": str(Fraction(c)), "notion": notion, "samples": samples,
                "mode": "exhaustive" if samples is None else "sampled"}
        if any(result[k] != v for k, v in want.items()):
            return "result echoes other parameters than requested"
        if not 0 <= result["f"] <= n * (N - 1).bit_length():
            return f"f = {result['f']} outside [0, n log2 N]"
        return None
    return check


def _fexact_cycle(seed, c, inputs):
    rng = random.Random(f"fexact:{seed}:{c}")
    kinds = [inst + (None,) for inst in FEXACT_EXHAUSTIVE]
    kinds += [FEXACT_SAMPLED] * FEXACT_SAMPLED_PER_CYCLE
    ops = []
    for j, (N, n, frac, samples) in enumerate(kinds):
        notion = NOTIONS[(c + j) % len(NOTIONS)]
        argv = ["--threads", "1", "fexact", str(N), str(n), frac, "--notion", notion]
        label = f"fexact {N} {n} {frac} {notion}"
        if samples is not None:
            s = rng.randrange(10 ** 6)
            argv = ["--seed", str(s)] + argv + ["--samples", str(samples)]
            label += f" --samples {samples} --seed {s}"
        ops.append(_cli_op(label, label, argv, _fexact_check(N, n, frac, notion, samples)))
    return ops


# ----------------------------------------------------------------- toric


def _place(vertices, q, rng):
    """A seeded image of the polytope under a coordinate permutation,
    reflections and a translation that keep it inside [0, q-2]^n.  Such a
    map changes neither the code parameters nor the cube dimension."""
    n = len(vertices[0])
    perm = rng.sample(range(n), n)
    pts = [tuple(v[i] for i in perm) for v in vertices]
    for i in range(n):
        width = max(p[i] for p in pts)
        flip = rng.random() < 0.5
        shift = rng.randrange(q - 1 - width)
        pts = [p[:i] + ((width - p[i] if flip else p[i]) + shift,) + p[i + 1:] for p in pts]
    return pts


def _toric_check(q, n, k, seg_len):
    def check(lib, out):
        result, err = _parse_cli(out)
        if err:
            return err
        block, d = (q - 1) ** n, result["min_distance"]
        if result["block_length"] != block or result["dimension"] != k:
            return "block length or dimension differs from the polytope's"
        if not 1 <= d <= block - k + 1:
            return f"d = {d} breaks the Singleton bound"
        if seg_len is not None and d != (q - 1) - seg_len:
            return f"segment code has d = {d}, Reed-Solomon gives {(q - 1) - seg_len}"
        if (result["relative_min_distance"], result["information_rate"]) != (
            str(Fraction(d, block)), str(Fraction(k, block))
        ):
            return "rates do not match d, k and the block length"
        return None
    return check


def _toric_cycle(seed, c, inputs):
    rng = random.Random(f"toric:{seed}:{c}")
    ops = []
    for j, (name, q, verts, k, seg_len) in enumerate(TORIC_SHAPES):
        notion = NOTIONS[(c + j) % len(NOTIONS)]
        placed = _place(verts, q, rng)
        n = len(placed[0])
        path = inputs / f"toric-c{c}-{j}.poly"
        path.write_text(f"{q} {n}\n" + "".join(" ".join(map(str, v)) + "\n" for v in placed))
        label = f"toric {name} F_{q} {notion}"
        argv = ["--threads", "1", "toric", str(path), "--notion", notion]
        ops.append(_cli_op(label, label, argv, _toric_check(q, n, k, seg_len)))
    return ops


# workload -> (cycle generator, fewest cycles a run may measure).  The
# minimum gives every run at least 40 operations, so at least ten lie above
# the p75 tail.
WORKLOADS = {
    "mvalue": (_mvalue_cycle, 3),
    "construct": (_construct_cycle, 2),
    "fexact": (_fexact_cycle, 1),
    "toric": (_toric_cycle, 3),
}


def build_pool(workload: str, seed: int, cycles: int, inputs: Path) -> tuple[list[list[Op]], str]:
    """Write the inputs of `cycles` cycles under `inputs` and return the
    operations per cycle with a digest of everything generated."""
    inputs.mkdir(parents=True, exist_ok=True)
    pool = [WORKLOADS[workload][0](seed, c, inputs) for c in range(cycles)]
    h = hashlib.sha256()
    for path in sorted(inputs.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    for cycle in pool:
        for op in cycle:
            h.update(op.label.encode() + b"\0")
    return pool, h.hexdigest()


def warmup_op(workload: str, inputs: Path) -> Op:
    """A cheap, seed-free operation of the workload's kind, run once per
    set-up so that lazy work in the interpreter is done before timing."""
    if workload == "mvalue":
        path = inputs / "warmup.txt"
        path.write_text(_point_text(2, 4, [p for p in product(range(2), repeat=4) if sum(p) % 3]))
        argv = ["mvalue", str(path)]
    elif workload == "toric":
        path = inputs / "warmup.poly"
        path.write_text("7 1\n0\n2\n")
        argv = ["toric", str(path)]
    elif workload == "construct":
        argv = ["construct", "dense", "6", "2", "1"]
    else:
        argv = ["fexact", "2", "3", "1/2"]
    return _cli_op(f"warm-up {workload}", "", ["--threads", "1"] + argv,
                   lambda lib, out: _parse_cli(out)[1])
