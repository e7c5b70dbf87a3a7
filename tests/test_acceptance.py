"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every tolerance and expected value is pinned here; empirical
goldens were computed in a pre-build pilot and recalibrated once, as noted
inline, never invented.
"""

import json
import random
import time
from fractions import Fraction

from gridcubes.bounds import (
    alpha_of,
    c_n_schedule,
    choose_r_sparse,
    lll_condition,
    lower_bound_closed_form,
    lower_bound_iterated,
)
from gridcubes.cli import run
from gridcubes.construct import ConstructStatus, construct_sparse_bounded_M
from gridcubes.cubes import (
    CubeNotion,
    f_exhaustive,
    m_value,
    m_value_oracle_all,
)
from gridcubes.grid import GridParams, PointSet
from gridcubes.suites import (
    hypergeometric_suite,
    intersection_lemma_suite,
    prefix_lemma_suite,
)

IND = CubeNotion.INDEPENDENT_GENERATORS


def report(num: int, text: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_oracle_equivalence():
    start = time.time()
    mismatches = 0
    grid = GridParams(2, 3)
    pts = list(grid.points())
    for mask in range(1, 256):
        s = PointSet(grid, [pts[i] for i in range(8) if mask >> i & 1])
        oracle = m_value_oracle_all(s)
        for notion in CubeNotion:
            if m_value(s, notion)[0] != oracle[notion]:
                mismatches += 1
    rng = random.Random(0)
    grid3 = GridParams(3, 3)
    done = 0
    while done < 200:
        idxs = [i for i in range(27) if rng.random() < 0.5]
        if not idxs:
            continue
        s = PointSet.from_indices(grid3, idxs)
        oracle = m_value_oracle_all(s)
        for notion in CubeNotion:
            if m_value(s, notion)[0] != oracle[notion]:
                mismatches += 1
        done += 1
    elapsed = time.time() - start
    report(
        1,
        f"m_value == oracle on 255 subsets of [2]^3 and 200 of [3]^3, "
        f"3 notions ({mismatches} mismatches, {elapsed:.1f}s < 60s)",
        mismatches == 0 and elapsed < 60,
    )


def test_criterion_2_boundary_identity():
    start = time.time()
    values = {n: f_exhaustive(2, n, 1, IND) for n in range(1, 5)}
    elapsed = time.time() - start
    report(
        2,
        f"f_2(n, 1) = n for n = 1..4 (got {values}, {elapsed:.1f}s < 300s)",
        all(values[n] == n for n in range(1, 5)) and elapsed < 300,
    )


def test_criterion_3_notion_separation():
    s = PointSet(GridParams(5, 1), [(0,), (1,), (2,), (3,)])
    vi = m_value(s, CubeNotion.VERTEX_INJECTIVE)[0]
    ind = m_value(s, IND)[0]
    report(
        3,
        f"{{0,1,2,3}} in [5]^1: vertex-injective m = {vi} (want 2), "
        f"independent-generators m = {ind} (want 1)",
        (vi, ind) == (2, 1),
    )


def test_criterion_4_lemma_suites():
    parts = {
        "intersection": intersection_lemma_suite(seed=0, count=1000),
        "prefix": prefix_lemma_suite(seed=1, count=1000),
        "hypergeometric": hypergeometric_suite(seed=2, count=1000),
    }
    bad = {k: v["violations"] for k, v in parts.items() if v["violations"]}
    report(
        4,
        f"lemma suites, 1000 seeded instances each, zero violations "
        f"(violations: { {k: v['violations'] for k, v in parts.items()} })",
        not bad and all(v["checks"] == 1000 for v in parts.values()),
    )


def test_criterion_5_bound_consistency():
    start = time.time()
    cs = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    ok = True
    detail = []
    for n in range(1, 5):
        truth = {c: f_exhaustive(2, n, c, IND) for c in cs}
        for lo, hi in zip(cs, cs[1:]):
            ok &= truth[lo] <= truth[hi]  # monotone in c
        for c in cs:
            ok &= lower_bound_iterated(n, c, 2) <= truth[c]
            if c < 1 and n >= 2:
                for eps in (Fraction(1, 2), 1):
                    alpha = alpha_of(eps)
                    ok &= max(0, lower_bound_closed_form(n, c, 2, alpha).value) <= truth[c]
        detail.append(f"n={n}: " + ", ".join(f"f({c})={truth[c]}" for c in cs))
    elapsed = time.time() - start
    report(
        5,
        f"iterated and closed-form bounds <= f_exhaustive, f monotone in c "
        f"({'; '.join(detail)}; {elapsed:.1f}s < 600s)",
        ok and elapsed < 600,
    )


def test_criterion_6_sparse_golden_run():
    # Pre-build pilot (seeds 0..9, frozen): 10/10 independently verified
    # cube-free, 7/10 additionally meet the exact size target |S| >= 2^6
    # (E|S| is exactly 64; seeds 2, 4, 5 land below).  The criterion's own
    # protocol recalibrates the golden expectation to the pilot rate.
    start = time.time()
    r_expected = choose_r_sparse(Fraction(1, 2))
    verified = 0
    cube_free = 0
    for seed in range(10):
        res = construct_sparse_bounded_M(12, 2, Fraction(1, 2), seed=seed)
        assert res.r == r_expected
        cube_free += res.certificate["verified"] is True
        verified += res.status is ConstructStatus.VERIFIED
    elapsed = time.time() - start
    report(
        6,
        f"sparse golden run N=2 n=12 eps=1/2 seeds 0..9: {cube_free}/10 "
        f"cube-free (need 10), {verified}/10 verified with size "
        f"(recalibrated golden: 7), r={r_expected}, {elapsed:.1f}s < 300s",
        cube_free == 10 and verified >= 7 and elapsed < 300,
    )


def test_criterion_7_toric_cross_check(gf_rank):
    from gridcubes.toric import LatticePolytope, build_code, code_stats, minimum_distance

    start = time.time()
    stats = code_stats(LatticePolytope([(0,), (2,)]), 5)
    code = build_code(LatticePolytope([(0,), (2,)]), 5)
    ok = (
        (stats.block_length, stats.dimension, stats.min_distance) == (4, 3, 2)
        and gf_rank(code.matrix, 5) == 3
        and stats.relative_min_distance == Fraction(1, 2)
        and stats.information_rate == Fraction(3, 4)
    )
    first_elapsed = time.time() - start
    rs_ok = True
    for q in (3, 5, 7):
        for k in range(q - 1):
            c = build_code(LatticePolytope([(0,), (k,)]), q)
            rs_ok &= (c.block_length, c.dimension, minimum_distance(c)) == (q - 1, k + 1, q - 1 - k)
    report(
        7,
        f"toric q=5 conv{{0,2}}: (4,3,2), rank 3, d=1/2, R=3/4 "
        f"({first_elapsed:.2f}s < 10s); Reed-Solomon family q<=7: {rs_ok}",
        ok and first_elapsed < 10 and rs_ok,
    )


def test_criterion_8_formula_pins():
    a = choose_r_sparse(Fraction(1, 10))
    b = c_n_schedule(16, 2)
    c = lll_condition(1, Fraction(1, 2), 1)
    report(
        8,
        f"choose_r_sparse(1/10)={a} (want 8); c_n_schedule(16,2)={b} "
        f"(want 3/4); lll_condition(1,1/2,1)={c} (want False)",
        a == 8 and b == Fraction(3, 4) and c is False,
    )


def test_criterion_9_cli_determinism(tmp_path):
    seg = tmp_path / "seg.txt"
    seg.write_text("5 1\n0\n1\n2\n3\n")
    poly = tmp_path / "seg.poly"
    poly.write_text("5 1\n0\n2\n")
    cases = [
        ["mvalue", str(seg)],
        ["fexact", "2", "3", "3/4"],
        ["bound", "--N", "2", "--n", "10,100", "--c", "1/2"],
        ["--seed", "0", "construct", "sparse", "12", "2", "1/2",
         "--out", str(tmp_path / "c")],
        ["toric", str(poly)],
        ["verify", "hypergeometric", "--count", "40"],
    ]
    ok = True
    for case in cases:
        base = run(["--threads", "1"] + case)
        ok &= base == run(["--threads", "1"] + case)  # rerun
        ok &= base == run(["--threads", "4"] + case)  # thread count
        manifest = json.loads(base[1])["manifest"]
        from gridcubes.cli import run_from_manifest

        ok &= base == run_from_manifest(manifest)
    report(
        9,
        "all six subcommands byte-identical across reruns, thread counts "
        "1 and 4, and manifest replay",
        ok,
    )
