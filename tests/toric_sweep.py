"""A seeded sweep of toric minimum distances, kept so that a change to the
minimum distance reruns the same codes and compares one digest.

The codes are boxes prod [0, a_i], triangles a Delta_2, simplices a Delta_3
and small random polytopes over the primes up to 31, in dimensions 1-3,
each placed by a seeded lattice-preserving map (an axis permutation, flips
and a translation inside [0, q-2]^n).  About a quarter have more than
MESSAGE_CAP messages (q^k), so the word cap's exit-3 bounds are swept too.
The outcome of a code is d, or the bounds and message of the
SearchBudgetExceeded that the cap raised.

    PYTHONPATH=src python tests/toric_sweep.py

prints one line per code and the sha256 of all of them, and exits 1 unless
it equals DIGEST, every box, triangle and simplex agrees with its closed form
(closed_form), d equal to it or bounds around it, and the footprint bound
agrees with every code (footprint_miss).  The digest covers only what
minimum_distance, Brouwer-Zimmermann alone, found.  tests/test_toric.py
recomputes the digest of a subset and checks the closed forms and the
footprint bound on it.
"""

from __future__ import annotations

import hashlib
import random
import re
import sys
from math import prod
from typing import Optional

from gridcubes import toric
from gridcubes.cubes import SearchBudgetExceeded
from gridcubes.toric import LatticePolytope, build_code, minimum_distance

SEED = 2031
COUNT = 360
PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
SMALL_QK = 10 ** 6  # codes that finish, and most do, weigh at most this many messages
DIGEST = "ffd083697b4fe23d6399414b101db2620241bb25f8b16455effa132ea1c998e5"
SUBSET_STRIDE = 8  # the subset that tests/test_toric.py recomputes: every eighth code
SUBSET_DIGEST = "8bab4f825564587c7f2e4c5518edbf524229607e35b50bc8cf3eeb29f72f6dfd"


def _place(vertices, q, rng):
    """The vertices under a seeded axis permutation, flips and translation
    that keep them inside [0, q-2]^n; the code's parameters do not change.
    The benchmark's _place does the same; this copy keeps the sweep's codes
    fixed whatever the benchmark's workloads become."""
    n = len(vertices[0])
    perm = rng.sample(range(n), n)
    pts = [tuple(v[i] for i in perm) for v in vertices]
    for i in range(n):
        width = max(p[i] for p in pts)
        flip = rng.random() < 0.5
        shift = rng.randrange(q - 1 - width)
        pts = [p[:i] + ((width - p[i] if flip else p[i]) + shift,) + p[i + 1:] for p in pts]
    return pts


def _draw(rng):
    """(family, q, vertices) of one polytope inside [0, q-2]^n."""
    family = rng.choice(("box", "triangle", "simplex", "random"))
    q = rng.choice(PRIMES)
    top = min(q - 2, 6)
    if family == "box":
        n = rng.randint(1, 3)
        sides = [rng.randint(0, top) for _ in range(n)]
        corners = [tuple(a * bit for a, bit in zip(sides, bits)) for bits in range(1 << n)
                   for bits in [[(bits >> i) & 1 for i in range(n)]]]
        return family, q, sorted(set(corners))
    if family in ("triangle", "simplex"):
        n = 2 if family == "triangle" else 3
        a = rng.randint(1, top)
        return family, q, [(0,) * n] + [tuple(a * (i == j) for i in range(n)) for j in range(n)]
    n = rng.randint(1, 3)
    width = rng.randint(1, min(q - 2, 4))
    return family, q, [tuple(rng.randint(0, width) for _ in range(n))
                       for _ in range(rng.randint(2, 5))]


def codes(seed: int = SEED, count: int = COUNT) -> list[tuple[str, int, list]]:
    """The sweep's codes, (family, q, placed vertices): codes with 1 <= k <
    n that build_code accepts, with q^k at most SMALL_QK or past MESSAGE_CAP
    (of those, one draw in four is kept)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        family, q, vertices = _draw(rng)
        placed = _place(vertices, q, rng)
        n = (q - 1) ** len(placed[0])
        k = len(LatticePolytope(placed).lattice_points())
        if not 1 <= k < n or k * n > toric.ENTRY_CAP or SMALL_QK < q ** k <= toric.MESSAGE_CAP:
            continue
        if q ** k > toric.MESSAGE_CAP and rng.random() >= 0.25:
            continue
        out.append((family, q, placed))
    return out


def outcome(q: int, vertices) -> str:
    """One line: the code and its minimum distance, or the cap's bounds."""
    code = build_code(LatticePolytope(vertices), q)
    head = f"{q} {vertices} k={code.dimension} n={code.block_length}"
    try:
        return f"{head} d={minimum_distance(code)}"
    except SearchBudgetExceeded as stop:
        return f"{head} {sorted(stop.bounds.items())} {stop}"


def closed_form(family: str, q: int, vertices) -> Optional[int]:
    """d by a closed form, for the families that have one: a box
    prod [0, a_i] has prod (q - 1 - a_i), the product of its Reed-Solomon
    factors' distances, a triangle a Delta_2 with a < q - 1 has
    (q - 1)(q - 1 - a) (J. P. Hansen 2002), and a simplex a Delta_3
    (q - 1)^2 (q - 1 - a), each the footprint bound's least product over a
    down-set, at a vertex.  A placement keeps each width."""
    widths = [max(c) - min(c) for c in zip(*vertices)]
    if family == "box":
        return prod(q - 1 - a for a in widths)
    if family == "triangle":
        return (q - 1) * (q - 1 - widths[0])
    if family == "simplex":
        return (q - 1) ** 2 * (q - 1 - widths[0])
    return None


def bracket(line: str) -> tuple[int, int]:
    """(lower, upper) on d that an outcome line states: d twice, or the
    cap's bounds."""
    capped = re.search(r"(\d+) <= d <= (\d+)$", line)
    if capped:
        return int(capped[1]), int(capped[2])
    d = int(re.search(r" d=(\d+)$", line)[1])
    return d, d


def footprint_miss(q: int, vertices, line: str) -> Optional[str]:
    """How the footprint bound's L <= d <= W (toric._footprint, on the
    code's lattice points) contradicts an outcome line, or None: L must be
    at most the line's upper bound and W at least its lower one, and a
    code that the bound settles, L = W, must have d = L, or L inside the
    cap's bounds."""
    pts = LatticePolytope(vertices).lattice_points()
    low, high = toric._footprint(q, set(pts), len(vertices[0]))
    lower, upper = bracket(line)
    if low > upper or high < lower or (low == high and not lower <= low <= upper):
        return f"the footprint bound {low} <= d <= {high}"
    return None


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def main() -> int:
    lines = []
    wrong = broken = 0
    for family, q, vertices in codes():
        lines.append(outcome(q, vertices))
        form = closed_form(family, q, vertices)
        low, high = bracket(lines[-1])
        miss = form is not None and not low <= form <= high
        wrong += miss
        note = f" MISSES the closed form {form}" if miss else ""
        footprint = footprint_miss(q, vertices, lines[-1])
        broken += footprint is not None
        note += f" CONTRADICTS {footprint}" if footprint else ""
        print(f"{family} {lines[-1]}{note}", flush=True)
    got = digest(lines)
    print(f"{len(lines)} codes, sha256 {got}, {wrong} missing their closed form, "
          f"{broken} contradicting the footprint bound")
    return 0 if got == DIGEST and not wrong and not broken else 1


if __name__ == "__main__":
    sys.exit(main())
