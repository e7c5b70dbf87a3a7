"""Exact floors/ceilings of logarithms and rational power comparisons."""

import random
import re
from fractions import Fraction

import pytest

from gridcubes import exactmath
from gridcubes.exactmath import (
    floor_log,
    log_float,
    pow_at_least,
)


class TestRationalArguments:
    # a rational argument may be an int, a Fraction, a fraction string like
    # '3/4' or a float, taken at its exact binary value
    def test_accepted_forms(self):
        assert floor_log(3, 2) == floor_log("3", 2) == 1
        assert floor_log("3/4", 2) == floor_log(Fraction(3, 4), 2) == -1
        assert floor_log(Fraction(1, 2), "2") == -1
        assert floor_log(0.5, 2) == -1 and floor_log(0.1, 2) == -4
        assert pow_at_least("3/4", 0.5, 2) is False
        assert pow_at_least(0.5, "-1", 2) is True

    def test_rejects_junk(self):
        for junk in (object(), None, [1]):
            for call in (lambda: floor_log(junk, 2), lambda: floor_log(2, junk),
                         lambda: log_float(junk), lambda: pow_at_least(junk, 1, 2),
                         lambda: pow_at_least(2, junk, 2)):
                with pytest.raises(TypeError):
                    call()


class TestFloorLog:
    def test_exact_powers(self):
        assert floor_log(8, 2) == 3
        assert floor_log(9, 3) == 2
        assert floor_log(Fraction(1, 8), 2) == -3
        assert floor_log(1, 7) == 0
        assert floor_log(10 ** 15, 10) == 15  # the float seed is 14

    def test_just_below_and_above(self):
        assert floor_log(7, 2) == 2
        assert floor_log(Fraction(799, 100), 2) == 2
        assert floor_log(Fraction(801, 100), 2) == 3

    def test_fractional_base(self):
        assert floor_log(Fraction(9, 4), Fraction(3, 2)) == 2
        assert floor_log(Fraction(4, 9), Fraction(3, 2)) == -2

    def test_against_power_postcondition(self):
        rng = random.Random(2)
        for _ in range(300):
            x = Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
            base = Fraction(rng.randint(3, 50), rng.randint(1, 2))
            if base <= 1:
                continue
            k = floor_log(x, base)
            assert base ** k <= x < base ** (k + 1)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            floor_log(0, 2)
        with pytest.raises(ValueError):
            floor_log(4, 1)


class TestPowAtLeast:
    def test_integral_exponents(self):
        assert pow_at_least(64, Fraction(6), 2)
        assert not pow_at_least(63, Fraction(6), 2)

    def test_fractional_exponents(self):
        # 2^(7/2) = 11.3...
        assert pow_at_least(12, Fraction(7, 2), 2)
        assert not pow_at_least(11, Fraction(7, 2), 2)

    def test_zero_and_negative_exponent(self):
        assert not pow_at_least(0, Fraction(1), 2)
        assert pow_at_least(1, Fraction(-5, 3), 2)

    def test_rational_values(self):
        assert pow_at_least(Fraction(1, 8), Fraction(-3), 2)
        assert not pow_at_least(Fraction(1, 9), Fraction(-3), 2)
        # 3^(-1/2) = 0.577...
        assert pow_at_least(Fraction(3, 5), Fraction(-1, 2), 3)
        assert not pow_at_least(Fraction(4, 7), Fraction(-1, 2), 3)

    def test_against_direct_power_comparison(self):
        rng = random.Random(16)
        for _ in range(2000):
            x = Fraction(rng.randint(1, 10 ** rng.randint(1, 5)), rng.randint(1, 10 ** rng.randint(0, 4)))
            e = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
            base = rng.choice([2, 3, 5, 10])
            a, b = e.numerator, e.denominator
            want = x ** b >= Fraction(base) ** a
            assert pow_at_least(x, e, base) == want, (x, e, base)

    def test_bracket_settles_a_tiny_exponent_without_a_power(self, monkeypatch):
        # 2 >= 2^(1/(5*10^10)), and 1 < 2^(1/(5*10^10)); the direct test
        # would build 2^(5*10^10).  With a 64-bit cap any big power refuses.
        monkeypatch.setattr(exactmath, "BITS_CAP", 64)
        e = Fraction(1, 5 * 10 ** 10)
        assert pow_at_least(2, e, 2)
        assert pow_at_least(300, e, 2)
        assert not pow_at_least(1, e, 2)
        assert pow_at_least(Fraction(1, 3), -e - 2, 2)  # 1/4 <= 1/3 < 1/2
        assert not pow_at_least(Fraction(1, 4), e - 2, 2)  # 1/4 = 2^-2 exactly

    def test_refuses_past_the_bit_cap_inside_the_bracket(self):
        # 2 < 3 < 4 and 1 < e < 2: only 3^b >= 2^a can decide, with b = 2^24
        with pytest.raises(ArithmeticError, match=r"2\^\(16777217/16777216\) needs more than"):
            pow_at_least(3, Fraction(2 ** 24 + 1, 2 ** 24), 2)


@pytest.mark.parametrize("call, message", [
    (lambda: log_float(0), "log of non-positive value 0"),
    (lambda: log_float(Fraction(-1, 3)), "log of non-positive value -1/3"),
    (lambda: pow_at_least(-1, 2, 2), "x must be non-negative"),
    (lambda: pow_at_least(Fraction(-1, 2), Fraction(1, 2), 3), "x must be non-negative"),
])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
