"""Formula evaluations pinned exactly, plus their soundness properties."""

import math
import random
import re
from fractions import Fraction
from itertools import permutations

import pytest

from gridcubes import bounds, exactmath
from gridcubes.bounds import (
    alpha_of,
    beta,
    bound_table_rows,
    c_n_schedule,
    check_eq_ep,
    choose_r_dense,
    choose_r_sparse,
    count_affine_maps_bound,
    inductive_step,
    lll_condition,
    lower_bound_closed_form,
    lower_bound_iterated,
)
from gridcubes.cubes import AffineCube, CubeNotion, f_exhaustive
from gridcubes.grid import GridParams

C_GRID = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]


def below(x, y, u, v):
    """x y < u v by bounds._below on the brackets of the two products."""
    def bracket(f, g):
        return bounds._times(bounds._cut(f), bounds._cut(g))
    return bounds._below(bracket(x, y), bracket(u, v), lambda: x * y < u * v)


def iterated_oracle(n, c, N, cap=None):
    """The recursion on Fractions, with ceil(log_N(8 c^-2)) found by
    counting powers of N; past `cap` bits, the refusal message's step."""
    steps = 0
    while True:
        r, power = 0, 1
        while power < 8 / c ** 2:
            r, power = r + 1, power * N
        if n <= r:
            return steps
        n, c, steps = n - r, 2 * c ** 2 / (c + 4) ** 2, steps + 1
        if cap is not None and max(c.numerator.bit_length(), c.denominator.bit_length()) > cap:
            return f"after {steps} inductive steps"


class TestInductiveStep:
    def test_half(self):
        assert inductive_step(10, Fraction(1, 2), 2) == (5, Fraction(2, 81))

    def test_one(self):
        assert inductive_step(4, 1, 2) == (1, Fraction(2, 25))

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            inductive_step(5, Fraction(1, 2), 2)  # ceil(log2 32) = 5, need n > 5
        with pytest.raises(ValueError):
            inductive_step(3, 1, 2)

    def test_strictly_decreasing(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(4, 200)
            den = rng.randint(2, 30)
            c = Fraction(rng.randint(1, den), den)
            N = rng.choice([2, 3, 5])
            try:
                n2, c2 = inductive_step(n, c, N)
            except ValueError:
                continue
            assert n2 < n and c2 < c

    def test_bracketed_product_against_the_product(self):
        # slow path: the product itself, on seeded x y against z at, next to
        # and far from x y, with sizes on both sides of the 64 kept bits
        rng = random.Random(64)
        for _ in range(3000):
            x, y = (rng.getrandbits(rng.choice([1, 8, 63, 64, 65, 200, 3000])) for _ in range(2))
            xy = x * y
            z = rng.choice([xy, xy + 1, xy - 1, xy + (1 << rng.randrange(1, 3000)),
                            xy - (xy >> rng.randrange(1, 200)), rng.getrandbits(rng.randrange(1, 6000))])
            z = max(z, 0)
            assert below(x, y, z, 1) == (xy < z), (x, y, z)

    def test_two_bracketed_products(self):
        # slow path: both products, with factors on both sides of the 64
        # kept bits, equal products in other factors, and products one
        # apart, where the brackets overlap
        rng = random.Random(66)
        sizes = [1, 8, 63, 64, 65, 130, 1000, 5000]
        for _ in range(3000):
            x, y, v = (rng.getrandbits(rng.choice(sizes)) for _ in range(3))
            xy = x * y
            if v:
                u = rng.choice([xy // v, xy // v + 1, max(0, xy // v - 1), rng.getrandbits(rng.choice(sizes))])
            else:
                u = rng.getrandbits(rng.choice(sizes))
            assert below(x, y, u, v) == (xy < u * v), (x, y, u, v)
            g = 1 << rng.randrange(0, 200)
            assert below(x * g, y, u, v * g) == (xy < u * v)
        for k in (0, 1, 63, 64, 65, 500):
            x, y = (1 << k) + 3, (1 << (2 * k)) + 7
            assert below(x, y, y, x) is False
            for d in (-1, 0, 1):
                assert below(x, y, x * y + d, 1) == (d > 0)
                assert below(3 * x, y, x, 3 * y + d) == (d > 0)

    def test_power_bracket_against_the_power(self):
        # slow path: N^r itself, for N on both sides of the 64 kept bits and
        # r up to several thousand; the bracket is exact while N^r fits in
        # 64 bits and stays narrow past them
        rng = random.Random(67)
        cases = [(N, r) for N in (2, 3, 5, 18, 2 ** 64 - 1, 2 ** 64, 2 ** 64 + 1, 3 ** 50) for r in range(40)]
        cases += [(rng.getrandbits(rng.choice([2, 8, 63, 64, 65, 200])) | 2, rng.randrange(6000)) for _ in range(300)]
        for N, r in cases:
            p, q, s = bounds._pow_bracket(N, r)
            power = N ** r
            assert p << s <= power <= q << s, (N, r)
            assert q.bit_length() <= 64
            if power.bit_length() <= 64:
                assert (p, q, s) == (power, power, 0), (N, r)
            else:
                assert (q - p) << 40 <= p, (N, r)

    def test_step_against_direct_comparisons(self):
        # slow path: r by direct products from r = 0 up, including exact
        # equalities N^r a^2 = 8 b^2 (a = 1, b = 2^k over N = 2, 8 and 32;
        # b = 2^(k-1) 3^(2k+1) over N = 18, 18^3 and 18^27), where the
        # brackets overlap
        def step_oracle(n, a, b, N):
            r = 0
            while N ** r * a * a < 8 * b * b:
                r += 1
            c = Fraction(2 * a * a, (a + 4 * b) ** 2)
            return (n - r, a, b) if n <= r else (n - r, c.numerator, c.denominator)

        cases = [(2, 1, 2 ** k) for k in (0, 1, 5, 40, 200)]
        cases += [(8, 1, 2 ** (3 * k)) for k in (1, 30)] + [(32, 1, 2 ** (5 * k + 1)) for k in (0, 40)]
        cases += [(18, 1, 2 ** (k - 1) * 3 ** (2 * k + 1)) for k in (1, 2, 60)]
        # N past the 64 kept bits: 18^27 (113 bits) with 8 b^2 = 18^(2k+1),
        # 2^71 with r = 1, 3 and 41, and N = 2 3^60 with a = 2, b = 3^30
        cases += [(18 ** 3, 1, 2 ** (k - 1) * 3 ** (2 * k + 1)) for k in (1, 4, 40)]
        cases += [(18 ** 27, 1, 2 ** (k - 1) * 3 ** (2 * k + 1)) for k in (13, 40, 148)]
        cases += [(2 ** 71, 1, 2 ** ((71 * r - 3) // 2)) for r in (1, 3, 41)] + [(2 * 3 ** 60, 2, 3 ** 30)]
        # equalities with a > 1: N = 2, a = 2^j 3^i, b = 2^(j + k) 3^i
        cases += [(2, 3 ** i * 2 ** j, 3 ** i * 2 ** (j + k)) for i, j, k in ((1, 0, 1), (40, 3, 70), (300, 1, 500))]
        equal = 0
        for N, a, b in cases:
            m, _, _ = step_oracle(10 ** 6, a, b, N)
            equal += N ** (10 ** 6 - m) * a * a == 8 * b * b
        assert equal == len(cases)
        rng = random.Random(65)
        for _ in range(300):
            N = rng.choice([2, 3, 5, 7, 16, 1000])
            b = rng.getrandbits(rng.choice([4, 64, 400]))
            cases.append((N, rng.randint(1, max(1, b)), max(1, b)))
        # a near b (r from the 8 alone), a tiny against a huge b, and b of
        # several thousand bits, where N^r and 8 b^2 pass the kept 64 bits
        for _ in range(100):
            N = rng.choice([2, 3, 5, 7, 16, 1000])
            b = rng.getrandbits(rng.choice([65, 400, 3000])) | 1
            cases.append((N, rng.choice([b - 1, b - rng.getrandbits(60), 1, rng.getrandbits(30) + 1]), b))
        # N itself past the kept 64 bits
        for _ in range(100):
            N = rng.choice([2 ** 64 + 13, 3 ** 50, rng.getrandbits(200) | 3])
            b = rng.getrandbits(rng.choice([4, 400, 3000])) | 1
            cases.append((N, rng.randint(1, b), b))
        for N, a, b in cases:
            g = math.gcd(a, b)
            a, b = a // g, b // g
            for n in (1, 10, 10 ** 4):
                assert bounds._step(n, a, b, N) == step_oracle(n, a, b, N), (n, a, b, N)


class TestIteratedBound:
    def test_no_step_possible(self):
        assert lower_bound_iterated(3, Fraction(1, 2), 2) == 0

    def test_pinned_values(self):
        assert lower_bound_iterated(10, Fraction(1, 2), 2) == 1
        assert lower_bound_iterated(100, Fraction(1, 2), 2) == 3
        assert lower_bound_iterated(100, 1, 2) == 4

    def test_below_exhaustive_truth(self):
        for n in range(1, 5):
            for c in C_GRID:
                truth = f_exhaustive(2, n, c, CubeNotion.INDEPENDENT_GENERATORS)
                assert lower_bound_iterated(n, c, 2) <= truth

    def test_bad_density_or_base_rejected(self):
        for c, N in ((Fraction(3, 2), 2), (Fraction(1, 2), 1), (Fraction(-1, 2), 2), (0, 2)):
            with pytest.raises(ValueError):
                lower_bound_iterated(10, c, N)
            with pytest.raises(ValueError):
                inductive_step(10, c, N)

    def test_against_a_fraction_oracle(self):
        rng = random.Random(4)
        for _ in range(300):
            N = rng.choice([2, 3, 5])
            den = rng.randint(1, 10 ** 6)
            c = Fraction(rng.randint(1, den), den)
            n = rng.randint(1, 10 ** rng.randint(1, 3))
            assert lower_bound_iterated(n, c, N) == iterated_oracle(n, c, N), (n, c, N)

    def test_refusals_against_a_fraction_oracle(self, monkeypatch):
        # a step refused before it is built is the step the oracle refuses
        # after building it
        monkeypatch.setattr(exactmath, "BITS_CAP", 2 ** 8)
        rng = random.Random(6)
        refused = 0
        for _ in range(300):
            N = rng.choice([2, 3, 5, 7, 16])
            den = rng.randint(1, 10 ** 6)
            c = Fraction(rng.randint(1, den), den)
            n = rng.randint(1, 10 ** rng.randint(1, 12))
            expected = iterated_oracle(n, c, N, 2 ** 8)
            if isinstance(expected, str):
                with pytest.raises(ArithmeticError, match=expected):
                    lower_bound_iterated(n, c, N)
                refused += 1
            else:
                assert lower_bound_iterated(n, c, N) == expected, (n, c, N)
        assert refused >= 100

    def test_refuses_once_c_passes_the_bit_cap(self, monkeypatch):
        # c's numerator and denominator about double in bits per step
        monkeypatch.setattr(exactmath, "BITS_CAP", 2 ** 10)
        assert lower_bound_iterated(100, Fraction(1, 3), 2) == 3
        with pytest.raises(ArithmeticError, match="bits"):
            lower_bound_iterated(10 ** 12, Fraction(1, 3), 2)

    def test_refuses_a_step_before_building_it(self, monkeypatch):
        # the step that passes the cap is refused before _step squares
        monkeypatch.setattr(exactmath, "BITS_CAP", 2 ** 10)
        steps = []
        step = bounds._step
        monkeypatch.setattr(bounds, "_step", lambda *args: steps.append(args) or step(*args))
        with pytest.raises(ArithmeticError, match="after 8 inductive steps"):
            lower_bound_iterated(10 ** 12, Fraction(1, 3), 2)
        assert len(steps) == 7


class TestClosedForm:
    def test_large_instance_exact_power_path(self):
        res = lower_bound_closed_form(10 ** 6, Fraction(1, 2), 2, Fraction(21, 10))
        assert res.value == 17 and not res.clamped and not res.initial_step

    def test_exact_boundary(self):
        # c = 1/2, alpha = 2 makes the log argument exactly n
        res = lower_bound_closed_form(4, Fraction(1, 2), 2, 2)
        assert (res.value, res.raw) == (1, 1)
        res = lower_bound_closed_form(2, Fraction(1, 2), 2, 2)
        assert (res.value, res.raw) == (0, 0)

    def test_powers_of_n_settle_through_the_bracket(self, monkeypatch):
        # c = N^-j takes the float seed like any c: where y lands on an
        # integer the exact settle runs, and the bracket of pow_at_least
        # decides it with no big power (a 64-bit cap would refuse one)
        calls = []
        settle = bounds._alpha_pow_le_x
        monkeypatch.setattr(bounds, "_alpha_pow_le_x", lambda *a: calls.append(a) or settle(*a))
        monkeypatch.setattr(exactmath, "BITS_CAP", 64)
        # x = 1 + (n-1)/j with alpha = 2: x = 4 at (n, j) = (4, 1), 1024 at (2047, 2)
        assert lower_bound_closed_form(4, Fraction(1, 2), 2, 2).raw == 1
        assert lower_bound_closed_form(2047, Fraction(1, 9), 3, 2).raw == 9
        assert len(calls) == 2

    def test_float_seed_above_the_floor_settles_down(self, monkeypatch):
        # c = 2^-j, alpha = 2: x = 1 + (n-1)/j = 2^40 - 1/j, which rounds to
        # the float 2^40, so the seed y = 40.0 is one too high; the exact
        # settle at k = 40 fails and the floor is 39
        calls = []
        settle = bounds._alpha_pow_le_x
        monkeypatch.setattr(bounds, "_alpha_pow_le_x", lambda *a: calls.append(a[0]) or settle(*a))
        j = 2 ** 14
        assert lower_bound_closed_form(j * (2 ** 40 - 1), Fraction(1, 2 ** j), 2, 2).raw == 38
        assert calls == [40]

    def test_float_guard_path(self):
        res = lower_bound_closed_form(100, Fraction(3, 8), 2, 2)
        assert res.value == 5

    def test_initial_step_for_large_c(self):
        res = lower_bound_closed_form(100, Fraction(3, 4), 2, Fraction(13, 6))
        assert res.initial_step and res.value == 4
        small = lower_bound_closed_form(4, Fraction(3, 4), 2, Fraction(13, 6))
        assert small.value == 0  # the initial step does not fit at n = 4

    def test_small_regime_clamps(self):
        res = lower_bound_closed_form(2, Fraction(1, 4), 2, Fraction(13, 6))
        assert res.value == 0

    def test_c_one_rejected(self):
        with pytest.raises(ValueError):
            lower_bound_closed_form(10, 1, 2, 2)

    def test_growth_without_bound(self):
        values = [
            lower_bound_closed_form(n, Fraction(1, 2), 2, Fraction(21, 10)).value
            for n in (10, 10 ** 3, 10 ** 6, 10 ** 9)
        ]
        assert values == sorted(values) and values[-1] > values[0]

    def test_below_exhaustive_truth(self):
        for n in range(2, 5):
            for c in C_GRID[:-1]:
                truth = f_exhaustive(2, n, c, CubeNotion.INDEPENDENT_GENERATORS)
                for eps in (Fraction(1, 10), Fraction(1, 2), 1, 3):
                    alpha = alpha_of(eps)
                    assert lower_bound_closed_form(n, c, 2, alpha).value <= truth

    def test_reproducible(self):
        a = lower_bound_closed_form(12345, Fraction(3, 8), 2, Fraction(13, 6))
        b = lower_bound_closed_form(12345, Fraction(3, 8), 2, Fraction(13, 6))
        assert a == b

    def test_floor_postcondition_exact_branch(self):
        # k = raw + 1 must satisfy alpha^k <= x < alpha^(k+1) with x exact
        rng = random.Random(27)
        for _ in range(120):
            N = rng.choice([2, 3, 5])
            j = rng.randint(1, 12)
            c = Fraction(1, N ** j)
            n = rng.randint(2, 10 ** 6)
            alpha = Fraction(rng.randint(5, 40), rng.randint(2, 4))
            if alpha <= 1:
                continue
            res = lower_bound_closed_form(n, c, N, alpha)
            x = 1 + Fraction(1 - n, -j) * (alpha - 1)
            k = res.raw + 1
            assert alpha ** k <= x < alpha ** (k + 1)

    def test_floor_postcondition_float_branch(self):
        # same two-sided check, via the exact power comparison that settles
        # alpha^k <= x when log_N(c) is irrational; parameters kept small
        # enough that the big-integer comparison stays feasible
        from gridcubes.bounds import _alpha_pow_le_x

        rng = random.Random(28)
        done = 0
        while done < 60:
            c = Fraction(rng.randint(3, 15), 32)
            if c.numerator == 1:
                continue  # power of two: the exact branch, covered above
            n = rng.randint(2, 200)
            alpha = Fraction(rng.randint(5, 9), 2)
            res = lower_bound_closed_form(n, c, 2, alpha)
            k = res.raw + 1
            assert _alpha_pow_le_x(k, n, c, 2, alpha)
            assert not _alpha_pow_le_x(k + 1, n, c, 2, alpha)
            done += 1


class TestBeta:
    def test_plug_in(self):
        assert beta(Fraction(1, 2), 2, 2) == 3.0

    def test_monotone_in_c(self):
        values = [beta(Fraction(1, d), 2, 2) for d in (2, 4, 8, 64, 1024)]
        assert values == sorted(values)

    def test_finite(self):
        assert math.isfinite(beta(Fraction(99, 100), 3, Fraction(5, 2)))

    def test_base_below_two_rejected(self):
        for N in (1, 0):
            with pytest.raises(ValueError, match="N must be >= 2"):
                beta("1/2", N, 2)


class TestCnSchedule:
    def test_pinned(self):
        assert c_n_schedule(16, 2) == Fraction(3, 4)
        assert c_n_schedule(4, 2) == Fraction(1, 2)
        assert c_n_schedule(3, 2) == Fraction(0)
        assert c_n_schedule(256, 2) == Fraction(7, 8)

    def test_nondecreasing(self):
        prev = Fraction(0)
        for n in range(2, 2000):
            cur = c_n_schedule(n, 2)
            assert cur >= prev
            prev = cur

    def test_too_small(self):
        with pytest.raises(ValueError):
            c_n_schedule(2, 3)

    def test_domain(self):
        with pytest.raises(ValueError, match="need n >= N for a nonnegative exponent, got n=1"):
            c_n_schedule(1, 2)
        with pytest.raises(ValueError, match="N must be >= 2, got 1"):
            c_n_schedule(5, 1)

    def test_against_tower_loop(self):
        # slow path: k = floor(log_N log_N n) is the k with
        # N^(N^k) <= n < N^(N^(k+1)), towers of exact integers
        def tower_k(n, N):
            k = 0
            while N ** (N ** (k + 1)) <= n:
                k += 1
            return k

        for N in range(2, 40):
            ns = set(range(N, 5000 if N <= 3 else 400))
            k = 0
            while N ** k * N.bit_length() <= 20000:  # each tower N^(N^k) ± 1
                tower = N ** (N ** k)
                ns |= {tower - 1, tower, tower + 1} - {N - 1}
                k += 1
            for n in sorted(ns):
                assert c_n_schedule(n, N) == 1 - Fraction(1, N ** tower_k(n, N)), (n, N)


class TestEqEp:
    def test_golden_threshold(self):
        # Computed by scanning n >= 16 upward for eps=1, N=2.
        assert not check_eq_ep(24514, 1, 2).holds
        assert check_eq_ep(24515, 1, 2).holds

    def test_schedule_jump_flips_back(self):
        # The inequality is not monotone at desk scale: the density schedule
        # steps up at n = 65536 and halves log(1/c_n).
        assert check_eq_ep(65535, 1, 2).holds
        assert not check_eq_ep(65536, 1, 2).holds
        assert not check_eq_ep(143405, 1, 2).holds
        assert check_eq_ep(143406, 1, 2).holds

    def test_ratio_grows_within_band(self):
        ratios = [
            check_eq_ep(n, 1, 2).rhs / check_eq_ep(n, 1, 2).lhs
            for n in (2000, 4000, 8000, 16000, 32000)
        ]
        assert ratios == sorted(ratios)

    def test_degenerate_schedule_vacuous(self):
        rep = check_eq_ep(3, 1, 2)
        assert rep.holds and rep.c_n == 0 and math.isinf(rep.rhs)
        # only the right side is infinite: log_2 4 + 3 ((1 + 1) log2 3 + 1)
        assert rep.lhs == pytest.approx(2 + 3 * (2 * math.log2(3) + 1))

    def test_base_below_two_rejected(self):
        with pytest.raises(ValueError, match="N must be >= 2"):
            check_eq_ep(16, 1, 1)


class TestChooseR:
    def test_dense_examples(self):
        assert choose_r_dense(1024, Fraction(1, 2)) == 13
        assert choose_r_dense(16, Fraction(1, 2)) is None
        assert choose_r_dense(16, 1) == 7
        assert choose_r_dense(8, 1) == 5

    def test_dense_upper_strictness(self):
        rng = random.Random(9)
        for _ in range(200):
            n = rng.randint(2, 10 ** 6)
            eps = Fraction(rng.randint(1, 8), rng.randint(1, 8))
            r = choose_r_dense(n, eps)
            if r is None:
                continue
            p, q = eps.numerator, eps.denominator
            assert 2 ** (2 * q * r) > n ** (2 * q + p)  # strictly above the lower end
            assert 2 ** (q * r) < n ** (q + p)  # strictly below the upper end

    def test_dense_matches_upward_scan(self):
        """The closed form against the definition: the least r >= 1 with
        2^(2qr) > n^(2q+p), kept only if 2^(qr) < n^(q+p)."""
        for n in list(range(2, 70)) + [1000, 2 ** 20, 3 ** 13]:
            for eps in (Fraction(1, 7), Fraction(1, 2), Fraction(2, 3), 1, Fraction(5, 2), 9):
                p, q = eps.numerator, eps.denominator
                r = 1
                while not 2 ** (2 * q * r) > n ** (2 * q + p):
                    r += 1
                expected = r if 2 ** (q * r) < n ** (q + p) else None
                assert choose_r_dense(n, eps) == expected, (n, eps)

    def test_dense_refuses_past_the_bit_cap(self):
        with pytest.raises(ArithmeticError, match="bits"):
            choose_r_dense(4, Fraction(10 ** 400))
        r = choose_r_dense(24, 10 ** 4)  # inside the cap, with no scan over r
        assert 4 ** r > 24 ** 10002 >= 4 ** (r - 1) and 2 ** r < 24 ** 10001

    def test_sparse_examples(self):
        assert choose_r_sparse(Fraction(1, 10)) == 8
        assert choose_r_sparse(1) == 4
        assert choose_r_sparse(Fraction(1, 2)) == 6

    def test_sparse_monotone(self):
        values = [choose_r_sparse(Fraction(k, 12)) for k in range(1, 60)]
        assert values == sorted(values, reverse=True)


class TestLLLCondition:
    def test_exact_boundary_false(self):
        assert lll_condition(1, Fraction(1, 2), 1) is False
        assert lll_condition(4, Fraction(1, 2), 2) is False  # 4*4*(1/16) = 1

    def test_exact_true(self):
        assert lll_condition(1, Fraction(2, 5), 1) is True

    def test_eventually_true_in_r(self):
        assert not lll_condition(10 ** 9, Fraction(9, 10), 3)
        assert lll_condition(10 ** 9, Fraction(9, 10), 12)

    def test_huge_count(self):
        assert lll_condition(2 ** 84, Fraction(1, 64), 6) is True

    def test_refuses_past_the_bit_cap(self, monkeypatch):
        # 3^(2^r) is counted at 2^(r+1) bits; r = 10^9 is refused before 2^r
        # is built
        monkeypatch.setattr(exactmath, "BITS_CAP", 2 ** 10)
        assert lll_condition(1, Fraction(1, 3), 9) is True
        for r in (10, 10 ** 9):
            with pytest.raises(ArithmeticError, match="bits"):
                lll_condition(1, Fraction(1, 3), r)


class TestCountBound:
    def test_examples(self):
        assert count_affine_maps_bound(2, 1, 1) == 4
        assert count_affine_maps_bound(3, 2, 2) == 729

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            count_affine_maps_bound(1, 1, 1)

    def test_raw_map_count_within_bound(self):
        # count the injective affine maps {0,1}^r -> [N]^n (a base point and
        # r ordered vertex images) by brute force and compare with the
        # N^(n(r+1)) parametrization bound
        cases = [(2, 1, 1), (2, 2, 1), (3, 1, 1), (2, 2, 2), (2, 2, 0), (3, 2, 0),
                 (3, 2, 2), (2, 3, 3)]
        for N, n, r in cases:
            grid = GridParams(N, n)
            pts = list(grid.points())
            count = 0
            for z in pts:
                for images in permutations(pts, r):
                    gens = tuple(tuple(w - b for w, b in zip(im, z)) for im in images)
                    verts = AffineCube(z, gens).vertices()
                    if len(set(verts)) == 2 ** r and all(grid.contains(v) for v in verts):
                        count += 1
            assert 0 < count <= count_affine_maps_bound(N, n, r), (N, n, r)


class TestDensityIncrementVsPower:
    def test_increment_beats_power_when_c_small(self):
        # 2c^2/(c+4)^2 >= c^alpha under the smallness condition on log c.
        rng = random.Random(15)
        checked = 0
        while checked < 60:
            eps = Fraction(rng.randint(1, 6), rng.randint(1, 4))
            alpha = 2 + eps / 3
            N = rng.choice([2, 3])
            bound = (3 / eps) * min(
                math.log(2 / 25, N), -(1 + math.log(8, N))
            )
            k = rng.randint(1, 60)
            c = Fraction(1, N) ** k
            if math.log(float(c), N) > bound - 1e-9:
                continue  # smallness condition not clearly satisfied
            lhs = 2 * c ** 2 / (c + 4) ** 2
            p, q = alpha.numerator, alpha.denominator
            # lhs >= c^(p/q)  <=>  lhs^q >= c^p  (both sides in (0,1))
            assert lhs ** q >= c ** p
            checked += 1


class TestBoundTable:
    def test_rows_shape(self):
        rows = bound_table_rows(2, [10, 20], Fraction(1, 2), Fraction(1, 2))
        assert [r["n"] for r in rows] == [10, 20]
        assert all(set(r) == {"N", "n", "c", "iterated_bound", "closed_form_bound", "alpha", "beta"} for r in rows)

    def test_c_one_drops_closed_form(self):
        rows = bound_table_rows(2, [10], 1, Fraction(1, 2))
        assert rows[0]["closed_form_bound"] is None
        assert rows[0]["iterated_bound"] >= 1


@pytest.mark.parametrize("call, message", [
    (lambda: alpha_of(0), "eps must be positive, got 0"),
    (lambda: lower_bound_iterated(0, Fraction(1, 2), 2), "n must be >= 1, got 0"),
    (lambda: lower_bound_closed_form(1, Fraction(1, 2), 2, 3), "n must be >= 2, got 1"),
    (lambda: lower_bound_closed_form(10, Fraction(1, 2), 2, 1), "alpha must exceed 1, got 1"),
    (lambda: beta(Fraction(1, 2), 1, 3), "N must be >= 2, got 1"),
    (lambda: beta(1, 2, 3), "c must lie in (0, 1), got 1"),
    (lambda: beta(Fraction(1, 2), 2, Fraction(1, 2)), "alpha must exceed 1, got 1/2"),
    (lambda: check_eq_ep(16, 0, 2), "eps must be positive, got 0"),
    (lambda: choose_r_dense(1, Fraction(1, 2)), "n must be >= 2, got 1"),
    (lambda: choose_r_dense(16, -1), "eps must be positive, got -1"),
    (lambda: choose_r_sparse(0), "eps must be positive, got 0"),
    (lambda: lll_condition(0, Fraction(1, 2), 1), "L must be >= 1, got 0"),
    (lambda: lll_condition(1, 1, 1), "p must lie in (0, 1), got 1"),
    (lambda: lll_condition(1, Fraction(1, 2), -1), "r must be >= 0, got -1"),
])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_alpha_power_at_or_below_zero_is_at_most_x():
    # x = 1 + (1-n)(alpha-1)/log_N(c) >= 1 >= alpha^k for every k <= 0
    for k in (0, -1, -5):
        assert bounds._alpha_pow_le_x(k, 5, Fraction(1, 2), 2, Fraction(5, 2))
        assert bounds._alpha_pow_le_x(k, 2, Fraction(99, 100), 7, Fraction(7, 3))
