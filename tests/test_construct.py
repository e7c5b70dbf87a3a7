"""Resampling constructions: sampler, verifier, certificates."""

import json
import random
from fractions import Fraction

import pytest

from gridcubes import construct, cubes
from gridcubes.construct import (
    ConstructStatus,
    SamplerConfig,
    certificate_dict,
    construct_dense_small_M,
    construct_sparse_bounded_M,
    containment_probability,
    moser_tardos_sample,
    sparse_exponent_chain,
    verify_construction,
)
from gridcubes.bounds import choose_r_sparse
from gridcubes.cubes import (
    AffineCube,
    CubeNotion,
    SearchBudgetExceeded,
    _search,
    find_cube,
    m_value_oracle_all,
)
from gridcubes.grid import GridParams, PointSet


class TestSamplerConfig:
    def test_probability_range(self):
        with pytest.raises(ValueError):
            SamplerConfig(p=Fraction(0))
        with pytest.raises(ValueError):
            SamplerConfig(p=1)
        with pytest.raises(ValueError):
            SamplerConfig(p=Fraction(1, 2), max_rounds=0)

    def test_negative_search_budget(self):
        # rejected here, not inside the first search after the initial draw
        with pytest.raises(ValueError, match="search_budget"):
            SamplerConfig(p=Fraction(1, 2), search_budget=-1)
        assert SamplerConfig(p=Fraction(1, 2), search_budget=0).search_budget == 0


class TestMoserTardos:
    def test_sparse_initial_sample_is_already_clean(self):
        out = moser_tardos_sample(GridParams(2, 8), 4, SamplerConfig(p=Fraction(1, 128), seed=1))
        assert out.success and out.rounds == 0

    def test_golden_cube_free_rate(self):
        # Pinned empirical run: 10 fixed seeds, all produce a verified
        # 6-cube-free subset of [2]^12 at p = 2^-6 without resampling.
        grid = GridParams(2, 12)
        successes = 0
        for seed in range(10):
            out = moser_tardos_sample(grid, 6, SamplerConfig(p=Fraction(1, 64), seed=seed))
            successes += out.success
        assert successes >= 9

    def test_determinism_and_seed_sensitivity(self):
        grid = GridParams(2, 10)
        cfg = SamplerConfig(p=Fraction(1, 32), seed=77)
        a = moser_tardos_sample(grid, 5, cfg)
        b = moser_tardos_sample(grid, 5, cfg)
        assert a.point_set == b.point_set and a.rounds == b.rounds
        c = moser_tardos_sample(grid, 5, SamplerConfig(p=Fraction(1, 32), seed=78))
        assert c.point_set != a.point_set

    def test_resampling_actually_happens(self):
        # Dense sample in a tiny grid: 1-cubes (pairs) keep appearing, so the
        # run must either clean up after some rounds or report failure.
        out = moser_tardos_sample(
            GridParams(2, 2), 1, SamplerConfig(p=Fraction(9, 10), seed=5, max_rounds=50)
        )
        if out.success:
            assert len(out.point_set) <= 1
        else:
            assert out.rounds == 50 and out.last_violation is not None

    def test_against_reference_loop(self):
        # slow path: a PointSet and find_cube every round, drawing from the
        # random stream in the same order, the point_of order of indices
        # (first coordinate least significant, so sorted by v[::-1])
        def reference(grid, r, config):
            rng = random.Random(config.seed)
            p = float(config.p)
            included = {grid.point_of(idx) for idx in range(grid.size) if rng.random() < p}
            rounds = 0
            while True:
                current = PointSet(grid, included)
                cube = find_cube(current, r, config.notion, budget=config.search_budget)
                if cube is None or rounds >= config.max_rounds:
                    return rounds, cube is None, current, cube
                for v in sorted(cube.vertices(), key=lambda v: v[::-1]):
                    if rng.random() < p:
                        included.add(v)
                    else:
                        included.discard(v)
                rounds += 1

        cases = [((2, 5), 3, Fraction(1, 2), 100), ((2, 6), 3, Fraction(1, 2), 100),
                 ((3, 3), 2, Fraction(1, 2), 100), ((3, 3), 2, Fraction(2, 3), 100),
                 ((2, 8), 3, Fraction(1, 2), 100), ((4, 3), 2, Fraction(1, 2), 100),
                 ((2, 6), 2, Fraction(3, 4), 5)]  # the last one runs out of rounds
        resampled = exhausted = 0
        for (N, n), r, p, max_rounds in cases:
            grid = GridParams(N, n)
            for notion in CubeNotion:
                for seed in range(4):
                    config = SamplerConfig(p=p, seed=seed, max_rounds=max_rounds, notion=notion)
                    out = moser_tardos_sample(grid, r, config)
                    got = (out.rounds, out.success, out.point_set, out.last_violation)
                    assert got == reference(grid, r, config), (N, n, r, notion, seed)
                    resampled += out.rounds > 0
                    exhausted += not out.success
        assert resampled >= 60 and exhausted == 12

    def test_each_round_searches_from_the_last_base(self, monkeypatch):
        # a redraw only keeps or drops cells of the set, so each round's set
        # is a subset of the last, and a round searches only the cells at or
        # above the last round's cube's base
        searches = []

        def spy(box, s_mask, notion, m, budget):
            out = _search(box, s_mask, notion, m, budget)
            searches.append((s_mask, out.cells))
            return out

        monkeypatch.setattr(construct, "_search", spy)
        cut = 0
        for (N, n), r, p in [((2, 8), 3, Fraction(1, 2)), ((3, 4), 2, Fraction(1, 2)),
                             ((4, 3), 2, Fraction(1, 2)), ((2, 6), 2, Fraction(3, 4))]:
            for notion in CubeNotion:
                for seed in range(3):
                    searches.clear()
                    config = SamplerConfig(p=p, seed=seed, max_rounds=50, notion=notion)
                    out = moser_tardos_sample(GridParams(N, n), r, config)
                    assert len(searches) == out.rounds + 1
                    for (mask, cells), (child, _) in zip(searches, searches[1:]):
                        assert child & ~mask == 0
                        assert child & ((1 << cells[0]) - 1) == 0
                        cut += cells[0] > 0
        assert cut >= 100

    def test_checks_pinned(self, monkeypatch):
        # the summed checks of every round's search on seeded runs; searching
        # every round from the first cell of the set, they were 595,971 and
        # 4,626,283
        total = []
        run = cubes._run_box_search

        def spy(*args):
            out = run(*args)
            total.append(out.checks)
            return out

        monkeypatch.setattr(cubes, "_run_box_search", spy)
        for (N, n), r, calls, checks in [((2, 8), 3, 100, 218016), ((2, 10), 4, 10, 1733058)]:
            total.clear()
            for seed in range(calls):
                moser_tardos_sample(GridParams(N, n), r, SamplerConfig(p=Fraction(1, 2), seed=seed))
            assert sum(total) == checks, (N, n, r)

    def test_builds_at_most_the_last_violation(self, monkeypatch):
        # rounds redraw the vertex cells of the search's answer, with no
        # AffineCube; only a run whose rounds run out builds one, its
        # last_violation
        built = []
        post_init = AffineCube.__post_init__
        monkeypatch.setattr(AffineCube, "__post_init__", lambda cube: built.append(cube) or post_init(cube))
        grid = GridParams(3, 3)
        for notion in CubeNotion:
            for max_rounds in (100, 1):
                built.clear()
                config = SamplerConfig(p=Fraction(2, 3), seed=1, max_rounds=max_rounds, notion=notion)
                out = moser_tardos_sample(grid, 2, config)
                assert out.rounds >= 1
                assert built == ([] if out.success else [out.last_violation])
                assert out.success == (max_rounds == 100)

    def test_calls_on_one_grid_share_the_box(self, monkeypatch):
        # the process keeps the grid's box, so a second call on the grid
        # searches the box the first one decoded and guarded
        boxes = []

        def spy(box, s_mask, notion, m, budget):
            boxes.append(box)
            return _search(box, s_mask, notion, m, budget)

        monkeypatch.setattr(construct, "_search", spy)
        grid = GridParams(2, 6)
        calls = []
        for seed in (1, 2):
            boxes.clear()
            out = moser_tardos_sample(grid, 3, SamplerConfig(p=Fraction(1, 2), seed=seed))
            assert len(boxes) == out.rounds + 1 and out.rounds >= 1
            calls.append(boxes[:])
        first, second = calls
        assert all(box is first[0] for box in first + second)
        assert first[0].decoded and first[0].guard_hi

    def test_budget_propagates(self):
        with pytest.raises(SearchBudgetExceeded):
            moser_tardos_sample(
                GridParams(2, 8), 2,
                SamplerConfig(p=Fraction(3, 4), seed=0, search_budget=5),
            )


class TestVerifyConstruction:
    def test_empty_set_is_cube_free(self):
        report = verify_construction(PointSet.empty(GridParams(2, 4)), 2)
        assert report.verified and report.cardinality == 0

    def test_negative_budget_rejected_before_the_empty_set_answers(self):
        for s, r in ((PointSet.empty(GridParams(2, 3)), 2), (PointSet.full(GridParams(2, 2)), 0)):
            with pytest.raises(ValueError, match="budget must be >= 0"):
                verify_construction(s, r, budget=-1)

    def test_r_below_one_rejected(self):
        # every nonempty set holds a 0-cube, so no r < 1 can be verified
        for s in (PointSet.full(GridParams(2, 2)), PointSet.empty(GridParams(2, 2))):
            for r in (0, -1):
                with pytest.raises(ValueError, match="r must be >= 1"):
                    verify_construction(s, r)

    def test_full_grid_fails_with_witness(self):
        s = PointSet.full(GridParams(2, 3))
        for r in (1, 2, 3):
            report = verify_construction(s, r)
            assert not report.verified
            assert report.witness is not None and report.witness.m == r

    def test_end_to_end_matches_sampler_claim(self):
        out = moser_tardos_sample(GridParams(2, 10), 5, SamplerConfig(p=Fraction(1, 32), seed=4))
        assert out.success
        report = verify_construction(out.point_set, 5)
        assert report.verified
        assert report.cardinality == len(out.point_set)

    def test_report_serializes_standalone(self):
        report = verify_construction(PointSet.full(GridParams(2, 2)), 1)
        doc = report.to_dict()
        assert json.dumps(doc)
        assert doc["verified"] is False and doc["witness"]["m"] == 1
        assert (doc["density_num"], doc["density_den"]) == (1, 1)


class TestCertificates:
    def test_field_order_is_stable(self):
        grid = GridParams(2, 3)
        report = verify_construction(PointSet.empty(grid), 2)
        cert = certificate_dict(grid, 2, CubeNotion.INDEPENDENT_GENERATORS,
                                Fraction(1, 4), 7, 0, report)
        assert list(cert) == [
            "grid", "r", "notion", "p", "seed", "rounds",
            "density_num", "density_den", "cardinality", "verified",
        ]
        assert json.dumps(cert)  # serializable as-is

    def test_witness_included_on_failure(self):
        s = PointSet.full(GridParams(2, 2))
        report = verify_construction(s, 1)
        cert = certificate_dict(s.grid, 1, CubeNotion.INDEPENDENT_GENERATORS,
                                Fraction(1, 2), 0, 3, report)
        assert cert["verified"] is False
        assert cert["witness"]["m"] == 1


class TestCertificateSlowPath:
    """A certificate is read off the sampler's searches; the naive oracle
    and a fresh search of the returned set must agree with it."""

    @staticmethod
    def oracle_cube_free(s, r, notion):
        return len(s) == 0 or m_value_oracle_all(s)[notion] < r

    def test_constructions_against_oracle(self, monkeypatch):
        dense, sparse = construct_dense_small_M, construct_sparse_bounded_M
        cases = [(dense, 5, 2, eps, None, range(3)) for eps in (Fraction(1, 2), Fraction(1, 3))]
        cases += [(dense, 5, 2, 1, None, [0, 1, 2, 211]),  # seed 211 misses the density
                  (dense, 6, 2, 1, None, [0]), (dense, 3, 2, 1, None, [0]),  # the last has c_n = 0
                  (sparse, 9, 2, Fraction(1, 2), None, [2])]
        # the sparse r of a small eps needs more points than these grids
        # sample, so r = 2 gives runs that resample and runs that end on a cube
        cases += [(sparse, n, N, Fraction(1, n), 2, range(3)) for N, n in [(3, 3), (4, 3), (3, 4)]]
        statuses = set()
        resampled = 0
        for build, n, N, eps, r, seeds in cases:
            monkeypatch.setattr(construct, "choose_r_sparse", (lambda eps, r=r: r) if r else choose_r_sparse)
            for notion in CubeNotion if N > 2 else [CubeNotion.INDEPENDENT_GENERATORS]:
                for seed in seeds:
                    for max_rounds in (1, 100):
                        res = build(n, N, eps, seed=seed, max_rounds=max_rounds, notion=notion)
                        cert = res.certificate
                        assert cert["verified"] == self.oracle_cube_free(res.point_set, res.r, notion)
                        report = verify_construction(res.point_set, res.r, notion).to_dict(notion)
                        assert {k: cert.get(k) for k in report} == report
                        statuses.add(res.status)
                        resampled += cert["rounds"] > 0
        assert statuses == set(ConstructStatus) - {ConstructStatus.NO_VALID_R}
        assert resampled >= 30

    def test_sampler_runs_against_oracle(self, has_cube_naive):
        resampled = persisted = 0
        for (N, n), r, p in [((2, 5), 3, Fraction(1, 2)), ((3, 3), 2, Fraction(1, 2)),
                             ((4, 3), 2, Fraction(1, 3)), ((3, 4), 2, Fraction(1, 3)),
                             ((5, 3), 2, Fraction(1, 4))]:
            for notion in CubeNotion:
                for seed in range(2):
                    for max_rounds in (1, 100):
                        config = SamplerConfig(p=p, seed=seed, max_rounds=max_rounds, notion=notion)
                        out = moser_tardos_sample(GridParams(N, n), r, config)
                        assert out.success == self.oracle_cube_free(out.point_set, r, notion)
                        assert out.success != has_cube_naive(out.point_set, r, notion)
                        report = verify_construction(out.point_set, r, notion)
                        assert (report.verified, report.witness) == (out.success, out.last_violation)
                        resampled += out.rounds > 0
                        persisted += not out.success
        assert resampled >= 40 and persisted >= 20

    def test_sampler_sets_on_a_larger_grid(self, has_cube_naive):
        # one round leaves 70 points of [8]^3, where m_value_oracle_all,
        # which enumerates every level, takes over a minute; the naive
        # check at r alone takes milliseconds
        outcomes = set()
        for notion in CubeNotion:
            for max_rounds in (1, construct.DEFAULT_MAX_ROUNDS):
                config = SamplerConfig(p=Fraction(1, 8), seed=0, max_rounds=max_rounds, notion=notion)
                out = moser_tardos_sample(GridParams(8, 3), 2, config)
                assert out.success != has_cube_naive(out.point_set, 2, notion)
                report = verify_construction(out.point_set, 2, notion)
                assert (report.verified, report.witness) == (out.success, out.last_violation)
                outcomes.add((max_rounds, out.success, out.rounds > 0))
        assert outcomes == {(1, False, True), (construct.DEFAULT_MAX_ROUNDS, True, True)}


class TestSparseConstruction:
    def test_golden_seeds(self):
        # Pre-build pilot, frozen: seeds 0..9 at N=2, n=12, eps=1/2 give
        # seven verified runs; seeds 2, 4, 5 are honest size misses (the
        # expected cardinality is exactly the 2^6 target, so the Bernoulli
        # sample straddles it).  All ten are cube-free.
        statuses = {}
        for seed in range(10):
            res = construct_sparse_bounded_M(12, 2, Fraction(1, 2), seed=seed)
            statuses[seed] = res.status
            assert res.certificate["verified"] is True
            assert res.r == 6
        assert [s for s, st in statuses.items() if st is ConstructStatus.SIZE_MISSED] == [2, 4, 5]
        assert sum(1 for st in statuses.values() if st is ConstructStatus.VERIFIED) == 7

    def test_size_comparison_is_exact(self):
        res = construct_sparse_bounded_M(12, 2, Fraction(1, 2), seed=0)
        # (1-eps)n = 6: success required |S| >= 2^6 exactly
        assert res.certificate["cardinality"] >= 64
        missed = construct_sparse_bounded_M(12, 2, Fraction(1, 2), seed=2)
        assert missed.certificate["cardinality"] < 64

    def test_exponent_chain_valid_for_accepted_params(self):
        for (n, eps) in [(12, Fraction(1, 2)), (8, 1), (20, Fraction(1, 4))]:
            from gridcubes.bounds import choose_r_sparse

            chain = sparse_exponent_chain(n, 2, eps, choose_r_sparse(eps))
            assert chain["final_exponent_negative"]
            assert Fraction(chain["final_exponent"]) < 0

    def test_eps_n_too_small(self):
        with pytest.raises(ValueError, match="increase n"):
            construct_sparse_bounded_M(1, 2, Fraction(1, 2), seed=0)

    def test_expected_size_meets_target(self):
        # E|S| = p N^n = N^(n - floor(eps n)) >= N^((1-eps)n), pure exponent
        # arithmetic, exact over rationals
        rng = random.Random(8)
        for _ in range(100):
            n = rng.randint(2, 50)
            eps = Fraction(rng.randint(1, 12), rng.randint(2, 12))
            if eps >= 1:
                continue
            assert n - (eps * n).__floor__() >= (1 - eps) * n


class TestDenseConstruction:
    def test_no_valid_r_outcome(self):
        res = construct_dense_small_M(16, 2, Fraction(1, 2), seed=0)
        assert res.status is ConstructStatus.NO_VALID_R
        assert res.certificate is None and "no integer" in res.detail

    def test_small_scale_verified_run(self):
        res = construct_dense_small_M(8, 2, 1, seed=0)
        assert res.status is ConstructStatus.VERIFIED
        assert res.r == 5
        cert = res.certificate
        assert cert["verified"] is True
        assert "eq_ep_holds" in cert
        # realized density within three binomial sigmas of p = 1/2
        assert abs(cert["cardinality"] / 256 - 0.5) <= 3 * (0.25 / 256) ** 0.5

    def test_one_search_per_round(self, monkeypatch):
        # the certificate comes from the sampler's own searches: a run of k
        # rounds searches k + 1 times and no more, and the degenerate
        # schedule searches not at all
        runs = []
        search = cubes._run_box_search
        monkeypatch.setattr(cubes, "_run_box_search", lambda *args: runs.append(args) or search(*args))
        for build, n, eps, max_rounds, rounds in [
                (construct_dense_small_M, 9, 1, 100, 0), (construct_dense_small_M, 9, Fraction(1, 3), 100, 5),
                (construct_dense_small_M, 9, Fraction(1, 3), 1, 1),
                (construct_sparse_bounded_M, 12, Fraction(1, 2), 100, 0)]:
            runs.clear()
            res = build(n, 2, eps, seed=0, max_rounds=max_rounds)
            assert res.certificate["rounds"] == rounds
            assert len(runs) == rounds + 1, (build.__name__, n, eps)
        runs.clear()
        assert construct_dense_small_M(3, 2, 1).status is ConstructStatus.VERIFIED and runs == []

    def test_budget_blowup_is_inconclusive(self):
        with pytest.raises(SearchBudgetExceeded):
            construct_dense_small_M(16, 2, 1, seed=0, budget=10 ** 5)

    def test_max_rounds_checked_before_degenerate_schedule(self):
        # n = 3 < N^N = 4 gives c_n = 0, which returns without sampling
        assert construct_dense_small_M(3, 2, 1).status is ConstructStatus.VERIFIED
        for bad in (0, -7):
            with pytest.raises(ValueError, match="max_rounds"):
                construct_dense_small_M(3, 2, 1, max_rounds=bad)
        # so is a negative budget, which neither the c_n = 0 path nor the
        # no-valid-r one hands a SamplerConfig
        for n, eps in ((3, 1), (16, Fraction(1, 2))):
            with pytest.raises(ValueError, match="budget must be >= 0"):
                construct_dense_small_M(n, 2, eps, budget=-1)

    def test_negative_seed_refused_before_degenerate_schedule(self):
        # random.Random(-1) draws what random.Random(1) draws, so neither early
        # return may certify a set under seed -1
        for n, eps in ((3, 1), (16, Fraction(1, 2))):
            with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
                construct_dense_small_M(n, 2, eps, seed=-1)


class TestHypergeometricBound:
    def test_pinned_product(self):
        assert containment_probability(2, 2, 1, Fraction(1, 2)) == Fraction(1, 6)

    def test_oversized_event_impossible(self):
        assert containment_probability(2, 1, 3, Fraction(1, 2)) == 0

    @pytest.mark.parametrize("r, c, match", [
        (1, Fraction(3, 2), "must lie in"),
        (1, Fraction(-1, 4), "must lie in"),
        (2, Fraction(1, 3), "integer"),  # 4/3 cells
        (-1, Fraction(1, 2), "r must be"),
    ], ids=["c-above-one", "c-negative", "size-not-integer", "r-negative"])
    def test_rejects_bad_inputs(self, r, c, match):
        with pytest.raises(ValueError, match=match):
            containment_probability(2, 2, r, c)

    def test_edges_of_the_range(self):
        assert containment_probability(2, 2, 0, Fraction(0)) == 0
        assert containment_probability(2, 2, 2, Fraction(1)) == 1

    def test_strict_bound_random(self):
        rng = random.Random(21)
        for _ in range(300):
            N = rng.randint(2, 4)
            n = rng.randint(1, 4)
            cells = N ** n
            r = rng.randint(1, max(1, min(3, cells.bit_length() - 1)))
            c = Fraction(rng.randint(1, cells - 1), cells)
            assert containment_probability(N, n, r, c) < c ** (2 ** r)
