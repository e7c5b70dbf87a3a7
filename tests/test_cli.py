"""CLI contract: subcommands, exit codes, formats, manifests, determinism."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product as iproduct
from pathlib import Path

import pytest

import gridcubes
from gridcubes import construct, cubes, toric
from gridcubes.bounds import EqEpReport
from gridcubes.cli import run, run_from_manifest
from gridcubes.construct import DEFAULT_SEED
from gridcubes.cubes import (
    DEFAULT_BUDGET,
    DEFAULT_NOTION,
    AffineCube,
    CubeNotion,
    _box_of,
    _run_box_search,
    is_cube_in,
)
from gridcubes.grid import GridParams, PointSet, format_point_set, parse_point_set
from gridcubes.suites import run_suite

SEG_FILE = "5 1\n0\n1\n2\n3\n"
SEG_POLY = "5 1\n0\n2\n"
POINT_POLY = "3 1\n0\n"
# a parallelogram over F_7: k = 6 points, (0,0)-(2,0) and (2,1)-(4,1), n = 36
# and d = 20.  No coordinate splits off, and the footprint bound leaves
# 12 <= d <= 24 open, so code_stats runs Brouwer-Zimmermann on its whole
# code and a small word cap stops it
PARALLELOGRAM7_POLY = "7 2\n0 0\n2 0\n2 1\n4 1\n"


@pytest.fixture
def seg_path(tmp_path):
    p = tmp_path / "seg.txt"
    p.write_text(SEG_FILE)
    return str(p)


def result_of(out):
    return json.loads(out)["result"]


class TestMValue:
    def test_full_square(self, tmp_path):
        p = tmp_path / "full.txt"
        p.write_text("2 2\n0 0\n0 1\n1 0\n1 1\n")
        code, out = run(["mvalue", str(p)])
        assert code == 0 and result_of(out)["m"] == 2

    def test_singleton(self, tmp_path):
        p = tmp_path / "one.txt"
        p.write_text("2 2\n1 1\n")
        code, out = run(["mvalue", str(p)])
        assert code == 0 and result_of(out)["m"] == 0

    def test_notion_flags_disagree(self, seg_path):
        code_vi, out_vi = run(["mvalue", seg_path, "--notion", "vertex-injective"])
        code_in, out_in = run(["mvalue", seg_path, "--notion", "independent-generators"])
        assert (code_vi, code_in) == (0, 0)
        assert result_of(out_vi)["m"] == 2
        assert result_of(out_in)["m"] == 1

    def test_parse_error_exits_2(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("2 2\n0 0\n0 0\n")
        code, out = run(["mvalue", str(p)])
        assert code == 2 and "error" in json.loads(out)

    def test_missing_file_exits_2(self):
        code, _ = run(["mvalue", "/nonexistent/file.txt"])
        assert code == 2

    def test_bounding_box_over_limit_exits_2(self, tmp_path):
        p = tmp_path / "far.txt"
        p.write_text("1000000 3\n0 0 0\n999999 999999 999999\n")
        code, out = run(["mvalue", str(p)])
        assert code == 2 and "bounding box" in json.loads(out)["error"]

    def test_budget_exceeded_exits_3(self, tmp_path):
        p = tmp_path / "full4.txt"
        pts = [f"{a} {b} {c} {d}" for a in (0, 1) for b in (0, 1) for c in (0, 1) for d in (0, 1)]
        p.write_text("2 4\n" + "\n".join(pts) + "\n")
        code, out = run(["--budget", "2", "mvalue", str(p)])
        assert code == 3 and result_of(out)["status"] == "inconclusive"


class TestFExact:
    def test_boundary_identity(self):
        code, out = run(["fexact", "2", "3", "1"])
        assert code == 0 and result_of(out)["f"] == 3

    def test_bad_density_exits_2(self):
        code, _ = run(["fexact", "2", "3", "5/4"])
        assert code == 2

    def test_budget_exhaustion_exits_3(self):
        # each search has the whole budget; the first needs more than one check
        code, out = run(["--budget", "1", "fexact", "2", "4", "1/2"])
        assert code == 3 and result_of(out)["status"] == "inconclusive"


class TestBound:
    def test_c_one_keeps_iterated_only(self):
        code, out = run(["bound", "--N", "2", "--n", "10", "--c", "1"])
        row = result_of(out)["rows"][0]
        assert code == 0 and row["closed_form_bound"] is None and row["iterated_bound"] == 1

    def test_matches_library(self):
        code, out = run(["bound", "--N", "2", "--n", "10", "--c", "1/2", "--eps", "1/2"])
        row = result_of(out)["rows"][0]
        assert code == 0
        assert row["iterated_bound"] == 1 and row["closed_form_bound"] == 2

    def test_csv_header_exactly_once(self):
        code, out = run(["--format", "csv", "bound", "--N", "2", "--n", "8,10,12", "--c", "1/2"])
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "N,n,c,iterated_bound,closed_form_bound,alpha,beta"
        assert sum(1 for ln in lines if ln.startswith("N,n,c,")) == 1
        assert len(lines) == 4

    def test_density_next_to_one(self):
        # log(1/c) rounds to 0.0 here; beta takes it from x = (1 - c)/c,
        # since log(1/c) = log1p(x) = x to within x/2
        c = Fraction(10 ** 20 - 1, 10 ** 20)
        code, out = run(["bound", "--N", "2", "--n", "10", "--c", str(c)])
        row = result_of(out)["rows"][0]
        assert code == 0 and row["closed_form_bound"] == 1
        la = math.log(13 / 6)  # alpha = 2 + eps/3 at the default eps = 1/2
        x = float((1 - c) / c)
        expected = (math.log(2) + math.log(x / math.log(2)) - math.log(7 / 6)) / la + 2
        assert math.isclose(row["beta"], expected, rel_tol=1e-12)

    def test_rows_pinned_on_ordinary_densities(self):
        # every c here gave a row before the near-one case was mended
        rng = random.Random(49)
        cs = []
        for _ in range(30):
            d = rng.randint(2, 10 ** rng.randint(1, 9))
            cs.append(Fraction(rng.randint(1, d - 1), d))
        cs += [1 - Fraction(1, 10 ** k) for k in range(1, 15)]
        outs = []
        for c in cs:
            N, eps = rng.choice((2, 3, 5)), rng.choice(("1/10", "1/2", "1"))
            code, out = run(["bound", "--N", str(N), "--n", "2,10,1000", "--c", str(c), "--eps", eps])
            assert code == 0
            outs.append(out)
        digest = hashlib.sha256("".join(outs).encode()).hexdigest()
        assert digest == "5dc9b5a1f8dcbe136a5ec0030f174cfa1577e2a037ac40ccc8950ce6c7d45f1f"


class TestCsvMode:
    def test_mvalue_row(self, seg_path):
        code, out = run(["--format", "csv", "mvalue", seg_path])
        lines = out.strip().splitlines()
        assert code == 0 and lines[0] == "notion,m,base,generators"
        assert lines[1].startswith("independent-generators,1,")

    def test_toric_row(self, tmp_path):
        p = tmp_path / "seg.poly"
        p.write_text(SEG_POLY)
        code, out = run(["--format", "csv", "toric", str(p)])
        lines = out.strip().splitlines()
        assert code == 0 and len(lines) == 2
        assert "4,3,2,1/2,3/4,1" in lines[1]


class TestConstruct:
    def test_sparse_verified_writes_files(self, tmp_path):
        prefix = str(tmp_path / "run")
        code, out = run(["--seed", "0", "construct", "sparse", "12", "2", "1/2", "--out", prefix])
        assert code == 0
        res = result_of(out)
        assert res["status"] == "verified"
        points = (tmp_path / "run.points.txt").read_text()
        cert = json.loads((tmp_path / "run.cert.json").read_text())
        assert cert["verified"] is True
        assert points.startswith("2 12\n")
        assert cert["cardinality"] == len(points.strip().splitlines()) - 1

    def test_sparse_size_miss_exits_4(self):
        code, out = run(["--seed", "2", "construct", "sparse", "12", "2", "1/2"])
        assert code == 4 and result_of(out)["status"] == "size-missed"

    def test_dense_no_valid_r_exits_4(self):
        code, out = run(["construct", "dense", "16", "2", "1/2"])
        assert code == 4
        res = result_of(out)
        assert res["status"] == "no-valid-r" and "no integer" in res["detail"]

    @pytest.mark.parametrize("mode, n, eps", [("dense", "9", "1/3"), ("sparse", "12", "1/2")])
    def test_cube_persists_exits_4_with_its_witness(self, mode, n, eps, tmp_path, monkeypatch):
        # one round of resampling leaves a cube.  The sparse r = 6 of eps = 1/2
        # needs all of the about 64 sampled points as vertices, so the sparse
        # run is given r = 2.
        monkeypatch.setattr(construct, "choose_r_sparse", lambda eps: 2)
        prefix = str(tmp_path / "run")
        code, out = run(["--seed", "0", "construct", mode, n, "2", eps, "--max-rounds", "1",
                         "--out", prefix])
        res = result_of(out)
        assert code == 4 and res["status"] == "cube-persists"
        s = parse_point_set((tmp_path / "run.points.txt").read_text())
        cert = json.loads((tmp_path / "run.cert.json").read_text())
        assert cert["verified"] is False and cert["rounds"] == 1
        w = cert["witness"]
        cube = AffineCube(tuple(w["base"]), tuple(map(tuple, w["generators"])))
        assert cube.m == res["r"] and is_cube_in(s, cube, CubeNotion(w["notion"]))

    def test_density_missed_exits_4(self):
        # seed 211 draws 7 of the 32 cells of [2]^5 at c_n = 1/2, and the
        # 4-cube needs 16: 7/32 lies more than 3 sigma = 3/(4 sqrt 2) below
        # 1/2, since (9/32)^2 > 9/128, where 8/32 would not be
        code, out = run(["--seed", "211", "construct", "dense", "5", "2", "1"])
        res = result_of(out)
        assert code == 4 and res["status"] == "density-missed" and res["r"] == 4
        assert res["detail"] == "density 7/32 below c_n - 3 sigma"

    def test_dense_budget_exits_3(self):
        code, out = run(["--budget", "50000", "construct", "dense", "16", "2", "1"])
        assert code == 3 and result_of(out)["status"] == "inconclusive"

    def test_dense_small_scale_verified(self):
        code, out = run(["--seed", "0", "construct", "dense", "8", "2", "1"])
        assert code == 0 and result_of(out)["status"] == "verified"

    # exit code and output_checksum, as printed when each construction ran
    # the sampler and then a second search of the returned set
    PINNED = [
        ("0 construct dense 7 2 1", 0, "46740be050dd666918c2f0f31e5acf51996627a2dd51f1d710e7df32d37208d6"),
        ("0 construct dense 8 2 1", 0, "f0f17224951825c4c295837762f65611892c275b2643c3f67d55493fd411aa76"),
        ("0 construct dense 9 2 1", 0, "24b5e65c922da99ed1992c4ac4b6200636508361e82f5cb3e06dccd45e68791e"),
        ("0 construct sparse 12 2 1/2", 0, "a6187f1fbff0e4a18cf0d32ff561d5ce147ee96e779197da13224068bcee2a61"),
        ("2 construct sparse 12 2 1/2", 4, "04bc5dc624b4b00316a28619d76b558c87d74e64cb0961d6936f080bbeb9095c"),
        ("211 construct dense 5 2 1", 4, "dfc1a3de751395c02b72490e6afb0e7ebdcaeb1d397987a0550259e4ada72ff3"),
        ("0 construct dense 9 2 1/3", 4, "faf83204df0153d20bb8e5de0ca5a741e7c33d435376fcfc14b01c3688287916"),
        ("0 construct dense 9 2 1/3 --max-rounds 1", 4,
         "bb401262b2614b0ed4fc39b37658c972282f9b52cd343e38fb12c5ed065150c2"),
    ]

    @pytest.mark.parametrize("args, code, checksum", PINNED, ids=[case[0] for case in PINNED])
    def test_output_pinned(self, args, code, checksum):
        got, out = run(["--seed"] + args.split())
        assert (got, json.loads(out)["manifest"]["output_checksum"]) == (code, checksum)

    @pytest.mark.parametrize("args, digest", [
        ("8 2 1", "43eb388e1ea5cff18e34252506413b04d929261ee7608e7105c19a37f146b4c5"),
        ("9 2 1/3 --max-rounds 1", "821e4a3de1c7024358012d856b94f62ce4b5d5bf6f7be238c7f1cf9662e8879e"),
    ], ids=["verified", "cube-persists"])
    def test_certificate_file_pinned(self, args, digest, tmp_path):
        prefix = str(tmp_path / "run")
        run(["--seed", "0", "construct", "dense"] + args.split() + ["--out", prefix])
        assert hashlib.sha256((tmp_path / "run.cert.json").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("max_rounds, checks", [
        ("100000", [5018, 573, 1444, 1308, 25447, 5645]),  # 5 rounds, density missed
        ("1", [5018, 573]),  # cube persists
    ])
    def test_budget_exits_3_only_when_a_round_runs_out(self, max_rounds, checks, monkeypatch):
        # the sampler's rounds are the only searches, so a budget that lets
        # each of them finish prints the unbounded run's output
        argv = ["--seed", "0", "construct", "dense", "9", "2", "1/3", "--max-rounds", max_rounds]
        seen = []
        search = cubes._run_box_search

        def spy(*args):
            found = search(*args)
            seen.append(found.checks)
            return found

        monkeypatch.setattr(cubes, "_run_box_search", spy)
        code, out = run(argv)
        assert seen == checks
        top = max(checks)
        budgets = {c + d for c in checks for d in (-1, 0, 1)} | set(range(0, 2 * top, 997))
        for budget in sorted(budgets):
            got, text = run(["--budget", str(budget)] + argv)
            assert got == (3 if budget < top else code), budget
            if got != 3:
                assert result_of(text) == result_of(out), budget


class TestToric:
    def test_segment(self, tmp_path):
        p = tmp_path / "seg.poly"
        p.write_text(SEG_POLY)
        code, out = run(["toric", str(p)])
        res = result_of(out)
        assert code == 0
        assert (res["block_length"], res["dimension"], res["min_distance"]) == (4, 3, 2)
        assert res["relative_min_distance"] == "1/2"
        assert res["information_rate"] == "3/4"
        assert res["max_cube_dim"] == 1

    def test_point(self, tmp_path):
        p = tmp_path / "pt.poly"
        p.write_text(POINT_POLY)
        code, out = run(["toric", str(p)])
        res = result_of(out)
        assert code == 0
        assert (res["block_length"], res["dimension"], res["min_distance"]) == (2, 1, 2)

    def test_malformed_exits_2(self, tmp_path):
        p = tmp_path / "bad.poly"
        p.write_text("5 1\n0 0\n")
        assert run(["toric", str(p)])[0] == 2

    def test_out_of_box_exits_2(self, tmp_path):
        p = tmp_path / "oob.poly"
        p.write_text("5 1\n0\n4\n")
        assert run(["toric", str(p)])[0] == 2

    def test_field_of_two_exits_2(self, tmp_path):
        p = tmp_path / "f2.poly"
        p.write_text("2 1\n0\n")
        code, out = run(["toric", str(p)])
        assert code == 2
        assert "q >= 3, got q = 2" in json.loads(out)["error"]

    def test_budget_exhaustion_exits_3(self, tmp_path):
        # a unit square needs two checks; a segment is settled by its first
        p = tmp_path / "square.poly"
        p.write_text("5 2\n0 0\n1 0\n0 1\n1 1\n")
        code, out = run(["--budget", "1", "toric", str(p)])
        assert code == 3 and result_of(out)["status"] == "inconclusive"


    def test_message_cap_exits_3_with_bounds(self, tmp_path, monkeypatch):
        # the parallelogram over F_7 (d = 20, 7^6 > 2,000), no product and
        # no down-set, so Brouwer-Zimmermann runs on its whole code from the
        # footprint bound's 12 <= d <= 24; a cap of 2,000 words stops it at
        # 15 <= d <= 20: inconclusive, with the bounds it proved, not an
        # input error
        monkeypatch.setattr(toric, "MESSAGE_CAP", 2000)
        p = tmp_path / "parallelogram.poly"
        p.write_text(PARALLELOGRAM7_POLY)
        code, out = run(["toric", str(p)])
        res = result_of(out)
        assert code == 3 and res["status"] == "inconclusive"
        assert set(res) == {"status", "min_distance_lower", "min_distance_upper"}
        assert (res["min_distance_lower"], res["min_distance_upper"]) == (15, 20)

    def test_cap_refuses_a_set_before_building_it(self, tmp_path, monkeypatch):
        # the parallelogram over F_7: k = 6, n = 36, words of 30 lanes, each
        # counted once.  The first set counts its 6 level-1 words; each later
        # set 6 * 6 * 36 // 4 = 324 for its elimination and 6 for its level
        # 1.  A cap of 850 admits the second set (336) and the third (666)
        # but not the fourth (996), so exactly three systematic forms are
        # built.  Level 1 on each proves 2 toward Brouwer-Zimmermann's own
        # lower bound, 6, under the footprint bound's 12, which is reported.
        calls = []
        systematic = toric._systematic
        monkeypatch.setattr(toric, "_systematic", lambda *a: calls.append(1) or systematic(*a))
        monkeypatch.setattr(toric, "MESSAGE_CAP", 850)
        p = tmp_path / "parallelogram.poly"
        p.write_text(PARALLELOGRAM7_POLY)
        code, out = run(["toric", str(p)])
        res = result_of(out)
        assert code == 3 and res["status"] == "inconclusive"
        assert res["min_distance_lower"] == 12 <= 20 <= res["min_distance_upper"]
        assert len(calls) == 3

    def test_square_past_the_old_cap(self, tmp_path):
        # [0,2]^2 over F_7: k = 9 and 7^9 > 10^7, which the scan alone
        # refused; d = 4 * 4, the distance of RS[6,3] (x) RS[6,3]
        p = tmp_path / "square.poly"
        p.write_text("7 2\n0 0\n2 0\n0 2\n2 2\n")
        outs = [run(["--threads", t, "toric", str(p)]) for t in ("1", "2")]
        assert outs[0][0] == 0 and outs[1] == outs[0]
        assert result_of(outs[0][1])["min_distance"] == 16


class TestInconclusive:
    """Every exit 3 is a SearchBudgetExceeded, whose bounds are the result
    block: the best dimension of a cube search, or the bracket of a minimum
    distance stopped by its word cap."""

    FILES = {
        # [3]^4 at density about 1/2: one random.Random(0) draw per cell, in
        # lexicographic order
        "set.txt": lambda: "3 4\n" + "".join(
            " ".join(map(str, p)) + "\n"
            for p, x in zip(iproduct(range(3), repeat=4), iter(random.Random(0).random, None))
            if x < 0.5),
        "square5.poly": lambda: "5 2\n0 0\n1 0\n0 1\n1 1\n",
        "parallelogram7.poly": lambda: PARALLELOGRAM7_POLY,
    }

    # exit code and output_checksum of each kind of exit 3, as printed when
    # the word cap had an exception type and an except clause of its own;
    # the word cap's case on the parallelogram, since the square and then
    # the triangle it used to stop are settled with no search, by the
    # product rule and by the footprint bound
    PINNED = [
        ("--budget 5 mvalue set.txt", None,
         "ed7daf605d1608494b234f438f16b81d20bbe1f60675698f7d60d9b61e40446c"),
        ("--budget 3 fexact 2 4 1/2", None,
         "ddb77b0b05ad1a15c91257c1b7d266b8221c349a367b3c4a7c8fcee54fb9d9ed"),
        ("--budget 100 --seed 0 construct dense 9 2 1/3", None,
         "11a3ff9e840011fc97b7d4a763634a7c043b822dc18434f41f1d1ee5979e6c13"),
        ("--budget 1 toric square5.poly", None,
         "ddb77b0b05ad1a15c91257c1b7d266b8221c349a367b3c4a7c8fcee54fb9d9ed"),
        ("toric parallelogram7.poly", 2000,
         "ad79d6e814af3a016a873821d768965d7ec0f4a7222315b93fba64dbd2791712"),
    ]

    @pytest.mark.parametrize("args, cap, checksum", PINNED, ids=[case[0] for case in PINNED])
    def test_output_pinned(self, args, cap, checksum, tmp_path, monkeypatch):
        if cap is not None:
            monkeypatch.setattr(toric, "MESSAGE_CAP", cap)
        argv = []
        for arg in args.split():
            if arg in self.FILES:
                (tmp_path / arg).write_text(self.FILES[arg]())
                arg = str(tmp_path / arg)
            argv.append(arg)
        code, out = run(argv)
        assert (code, json.loads(out)["manifest"]["output_checksum"]) == (3, checksum)

    def test_word_cap_is_a_search_budget(self, monkeypatch):
        # the square [0,2]^2 over F_7 (d = 16) under a cap of 2,000 words
        monkeypatch.setattr(toric, "MESSAGE_CAP", 2000)
        code = toric.build_code(toric.LatticePolytope([(0, 0), (2, 0), (0, 2), (2, 2)]), 7)
        with pytest.raises(cubes.SearchBudgetExceeded) as stop:
            toric.minimum_distance(code)
        assert not isinstance(stop.value, ValueError)
        assert stop.value.bounds == {"min_distance_lower": 6, "min_distance_upper": 16}
        assert str(stop.value).endswith("6 <= d <= 16")


class TestVerify:
    def test_lemma_suite_passes(self):
        code, out = run(["verify", "intersection", "--count", "60"])
        res = result_of(out)
        assert code == 0 and res["violations"] == 0 and res["checks"] == 60

    def test_combined_lemmas_suite(self):
        code, out = run(["verify", "lemmas", "--count", "30"])
        res = result_of(out)
        assert code == 0 and res["violations"] == 0
        assert set(res["parts"]) == {"intersection", "prefix", "hypergeometric"}

    def test_oracle_suite(self):
        code, out = run(["verify", "oracle", "--count", "10"])
        assert code == 0 and result_of(out)["violations"] == 0

    def test_all_suites_aggregate(self):
        code, out = run(["verify", "all", "--count", "5"])
        res = result_of(out)
        assert code == 0 and res["violations"] == 0
        assert set(res["parts"]) == {
            "intersection", "prefix", "hypergeometric",
            "oracle", "nesting", "monotonicity",
        }

    def test_unknown_suite_exits_2(self):
        assert run(["verify", "bogus"])[0] == 2

    def test_all_stdout_pinned(self):
        # the whole stdout of `gridcubes verify all`, manifest included
        code, out = run(["verify", "all"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b96f4bbc5e1a034f8d5638523aead22e6a72c79ca6e6f753a72487fdf02bc346")


class TestBadNumericFlags:
    def test_exit_2_with_one_line_error(self, seg_path, tmp_path):
        poly = tmp_path / "p.poly"
        poly.write_text(SEG_POLY)
        # q = 10^16 + 61 is prime; the block-length cap refuses it before
        # trial division to sqrt(q) starts
        big_q = tmp_path / "big_q.poly"
        big_q.write_text("10000000000000061 1\n0\n")
        # k = n = 10006: 10^8 entries, refused before the matrix is built
        big_matrix = tmp_path / "big_matrix.poly"
        big_matrix.write_text("10007 1\n0\n10005\n")
        for argv in (
            ["--threads", "0", "mvalue", seg_path],
            ["--threads", "-3", "mvalue", seg_path],
            ["--threads", "0", "toric", str(poly)],
            ["--budget", "-5", "mvalue", seg_path],
            ["verify", "oracle", "--count", "-1"],
            ["--threads", "0", "bound", "--N", "2", "--n", "10", "--c", "1/2"],
            ["--threads", "0", "fexact", "2", "2", "1"],
            ["--threads", "-1", "verify", "hypergeometric", "--count", "3"],
            ["--budget", "-1", "construct", "sparse", "10", "2", "1/2"],
            ["construct", "dense", "3", "2", "1", "--max-rounds", "0"],
            ["construct", "dense", "3", "2", "1", "--max-rounds", "-7"],
            # alpha = 2 + eps/3 overflows a float: an ArithmeticError, not exit 1
            ["bound", "--N", "2", "--n", "10", "--c", "1/3", "--eps", "1e400"],
            ["toric", str(big_q)],
            ["toric", str(big_matrix)],
            # grids past 2^24 cells, refused before N^n is built or printed
            ["construct", "dense", str(10 ** 400), "2", "1"],
            ["fexact", "2", "20000", "1/2"],
            ["construct", "sparse", "20000", "2", "1/2"],
            # powers past exactmath.BITS_CAP, refused before they are built
            ["construct", "dense", "4", "2", "1e400"],
            ["construct", "sparse", "2", "2", "1e400"],
            # n^(1+eps/2) past a float, and p = 2^-20000 past 4300 printed digits
            ["construct", "dense", "24", "2", "10000"],
            ["construct", "sparse", "20", "2", "1000"],
        ):
            code, out = run(argv)
            assert code == 2, argv
            assert out.count("\n") == 1 and "error" in json.loads(out)
            assert "4300 digits" not in out and "out of range" not in out, argv
        for argv in (["construct", "dense", "24", "2", "10000"],
                     ["construct", "sparse", "20", "2", "1000"]):
            assert json.loads(run(argv)[1])["error"].startswith("eps = "), argv

    def test_empty_dimension_list_exits_2(self):
        code, out = run(["bound", "--N", "2", "--n", "", "--c", "1/2"])
        assert code == 2 and json.loads(out) == {"error": "bad dimension list ''"}

    def test_negative_seed_exits_2(self):
        # random.Random(-n) draws what random.Random(n) draws, so a negative
        # seed would repeat another seed's run under its own manifest
        for argv in (["--seed", "-7", "construct", "dense", "8", "2", "1"],
                     ["--seed", "-3", "fexact", "2", "5", "1/2", "--samples", "30"],
                     ["--seed", "-1", "verify", "lemmas", "--count", "3"]):
            code, out = run(argv)
            assert code == 2, argv
            assert json.loads(out) == {"error": f"--seed must be >= 0, got {argv[1]}"}
        assert run(["--seed", "0", "fexact", "2", "5", "1/2", "--samples", "3"])[0] == 0

    @pytest.mark.parametrize("call", [
        lambda: construct.SamplerConfig(p=Fraction(1, 2), seed=-1),
        lambda: cubes.f_exhaustive(2, 3, Fraction(1, 2), samples=3, seed=-1),
        lambda: cubes.f_exhaustive(2, 3, Fraction(1, 2), seed=-1),
        lambda: run_suite("lemmas", seed=-1, count=3),
    ])
    def test_library_refuses_a_negative_seed(self, call):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            call()


class TestDeterminismAndManifest:
    CASES = [
        ["fexact", "2", "3", "3/4"],
        ["bound", "--N", "2", "--n", "10,20", "--c", "1/2"],
        ["verify", "hypergeometric", "--count", "25"],
    ]

    def test_rerun_byte_identical(self, seg_path):
        for case in self.CASES + [["mvalue", seg_path]]:
            a = run(case)
            b = run(case)
            assert a == b

    def test_thread_counts_byte_identical(self, seg_path, tmp_path):
        poly = tmp_path / "p.poly"
        poly.write_text(SEG_POLY)
        for case in [["mvalue", seg_path], ["toric", str(poly)]] + self.CASES:
            out1 = run(["--threads", "1"] + case)
            out4 = run(["--threads", "4"] + case)
            assert out1 == out4
        # the search budget is one global count, so the thread count cannot
        # decide between exit 3 and a result on either side of the boundary
        grid = GridParams(3, 4)
        s = PointSet.from_indices(grid, random.Random(0).sample(range(grid.size), 32))
        path = tmp_path / "s.txt"
        path.write_text(format_point_set(s))
        checks = _run_box_search(*_box_of(s), DEFAULT_NOTION, None, DEFAULT_BUDGET).checks
        for budget, exit_code in ((checks - 1, 3), (checks, 0)):
            outs = [run(["--threads", str(k), "--budget", str(budget), "mvalue", str(path)])
                    for k in (1, 2, 3)]
            assert outs[0][0] == exit_code
            assert outs[1] == outs[0] and outs[2] == outs[0]

    def test_manifest_round_trip(self, seg_path):
        for case in self.CASES + [["mvalue", seg_path]]:
            code, out = run(case)
            manifest = json.loads(out)["manifest"]
            code2, out2 = run_from_manifest(manifest)
            assert (code, out) == (code2, out2)

    def test_construct_rerun_with_files(self, tmp_path):
        prefix = str(tmp_path / "c")
        case = ["--seed", "1", "construct", "sparse", "10", "2", "1/2", "--out", prefix]
        a = run(case)
        files_a = ((tmp_path / "c.points.txt").read_bytes(), (tmp_path / "c.cert.json").read_bytes())
        b = run(case)
        files_b = ((tmp_path / "c.points.txt").read_bytes(), (tmp_path / "c.cert.json").read_bytes())
        assert a == b and files_a == files_b

    def test_canonical_argv_per_subcommand(self, seg_path, tmp_path):
        poly = tmp_path / "p.poly"
        poly.write_text(SEG_POLY)
        out = str(tmp_path / "c")
        head = ["--format", "json", "--budget", "100000000", "--seed", "1729"]
        cases = [
            (["--threads", "2", "mvalue", seg_path, "--notion", "unimodular"],
             ["mvalue", seg_path, "--notion", "unimodular"]),
            (["fexact", "2", "2", "1/2"],
             ["fexact", "2", "2", "1/2", "--notion", "independent-generators"]),
            (["fexact", "2", "3", "1/2", "--samples", "2"],
             ["fexact", "2", "3", "1/2", "--notion", "independent-generators", "--samples", "2"]),
            (["bound", "--c", "1/2", "--n", "10,20", "--N", "2"],
             ["bound", "--N", "2", "--n", "10,20", "--c", "1/2", "--eps", "1/2"]),
            (["construct", "dense", "16", "2", "1/2", "--out", out],
             ["construct", "dense", "16", "2", "1/2", "--max-rounds", "100000",
              "--notion", "independent-generators", "--out", out]),
            (["toric", str(poly)], ["toric", str(poly), "--notion", "independent-generators"]),
            (["verify", "hypergeometric"], ["verify", "hypergeometric"]),
            (["verify", "hypergeometric", "--count", "3"], ["verify", "hypergeometric", "--count", "3"]),
        ]
        for argv, expected in cases:
            _, text = run(argv)
            assert json.loads(text)["manifest"]["argv"] == head + expected

    def test_checksum_matches_result(self):
        import hashlib

        code, out = run(["fexact", "2", "2", "1"])
        doc = json.loads(out)
        blob = json.dumps(doc["result"], separators=(",", ":"), sort_keys=False)
        assert doc["manifest"]["output_checksum"] == hashlib.sha256(blob.encode()).hexdigest()


class TestStrictJson:
    """Every JSON text the CLI writes is RFC 8259 JSON: no NaN or Infinity."""

    @staticmethod
    def strict(text):
        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        return json.loads(text, parse_constant=refuse)

    def test_every_output_parses_strictly(self, seg_path, tmp_path, monkeypatch):
        # the cap of 2,000 words stops the F_7 parallelogram with exit 3, as
        # in TestToric; it leaves the segment's code alone
        monkeypatch.setattr(toric, "MESSAGE_CAP", 2000)
        seg_poly = tmp_path / "seg.poly"
        seg_poly.write_text(SEG_POLY)
        parallelogram = tmp_path / "parallelogram.poly"
        parallelogram.write_text(PARALLELOGRAM7_POLY)
        prefix = str(tmp_path / "run")
        cases = [
            (0, ["mvalue", seg_path]),
            (0, ["fexact", "2", "3", "1"]),
            (0, ["bound", "--N", "2", "--n", "8,10", "--c", "1/2"]),
            (0, ["construct", "dense", "3", "2", "1", "--out", prefix]),  # c_n = 0
            (0, ["--seed", "0", "construct", "sparse", "12", "2", "1/2"]),
            (0, ["toric", str(seg_poly)]),
            (0, ["verify", "intersection", "--count", "10"]),
            (3, ["--budget", "1", "fexact", "2", "4", "1/2"]),
            (3, ["toric", str(parallelogram)]),
            (2, ["fexact", "2", "3", "5/4"]),
        ]
        for code, argv in cases:
            got, out = run(argv)
            assert got == code, argv
            self.strict(out)
        cert = self.strict((tmp_path / "run.cert.json").read_text())
        assert cert["eq_ep_holds"] is True and cert["eq_ep_rhs"] is None
        assert cert["eq_ep_lhs"] == pytest.approx(2 + 3 * (2 * math.log2(3) + 1))

    @pytest.mark.parametrize("out", [False, True])
    def test_non_finite_float_exits_2(self, out, tmp_path, monkeypatch):
        report = EqEpReport(True, math.inf, math.nan, Fraction(1, 2))
        monkeypatch.setattr(construct, "check_eq_ep", lambda n, eps, N: report)
        argv = ["construct", "dense", "6", "2", "1"]
        if out:
            argv += ["--out", str(tmp_path / "run")]
        code, text = run(argv)
        assert code == 2 and "JSON" in self.strict(text)["error"]
        assert not (tmp_path / "run.cert.json").exists()


class TestCachedParser:
    def test_calls_in_one_process_stay_independent(self):
        # build_parser is built once per process; a seeded call and a
        # rejected one must not leak into the next call's defaults
        env = dict(os.environ, PYTHONPATH=str(Path(gridcubes.__file__).parent.parent))
        argv = ["fexact", "2", "3", "1/2", "--samples", "3"]
        seeded = run(["--seed", "5"] + argv)
        assert seeded[0] == 0 and json.loads(seeded[1])["manifest"]["seed"] == 5
        assert run(["--threads", "0", "fexact", "2", "2", "1"])[0] == 2
        assert run(["--seed", "x"] + argv) == (2, "")
        third = run(argv)
        first = subprocess.run(
            [sys.executable, "-m", "gridcubes"] + argv,
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert third == (first.returncode, first.stdout)
        assert json.loads(third[1])["manifest"]["seed"] == DEFAULT_SEED
        for code, out in (seeded, third):
            assert run_from_manifest(json.loads(out)["manifest"]) == (code, out)


class TestModuleEntryPoint:
    def test_python_m_matches_run(self):
        env = dict(os.environ, PYTHONPATH=str(Path(gridcubes.__file__).parent.parent))
        argv = ["bound", "--N", "2", "--n", "10", "--c", "1/2"]
        for module in ("gridcubes", "gridcubes.cli"):
            proc = subprocess.run(
                [sys.executable, "-m", module] + argv,
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert (proc.returncode, proc.stdout) == run(argv)
        proc = subprocess.run(
            [sys.executable, "-m", "gridcubes", "--threads", "0"] + argv,
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2 and "error" in json.loads(proc.stdout)
