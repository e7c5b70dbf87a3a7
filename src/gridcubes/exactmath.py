"""Exact rational helpers for formulas that mix logarithms with floors.

Ceiling/floor boundary cases must never flip because a float rounded the
wrong way, so every floor-of-log here is seeded with a float estimate and
then settled by exact rational power comparisons.  pow_at_least is the
package's one test of x >= base^e for a rational exponent e; it, and every
caller that builds a big power, refuses integers past BITS_CAP bits before
building them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]

# Bit cap on the big integers of exact comparisons: on a 2-core VM (Python
# 3.11) a power of 3 of 2^23 bits took 1.5 s to build and 3.4 s to square,
# one of 2^25 bits 14 s and 30 s.  Past it a command exits 2.
BITS_CAP = 2 ** 23


def require_bits(bits: int, what: str) -> None:
    """Refuse, before it is built, an integer of more than BITS_CAP bits."""
    if bits > BITS_CAP:
        raise ArithmeticError(f"{what} needs more than {BITS_CAP} bits")


def log_float(x: Rational) -> float:
    """Natural log of a positive rational, safe for huge numerators."""
    f = Fraction(x)
    if f <= 0:
        raise ValueError(f"log of non-positive value {f}")
    return math.log(f.numerator) - math.log(f.denominator)


def floor_log(x: Rational, base: Rational) -> int:
    """Exact floor(log_base(x)) for rational x > 0 and rational base > 1.

    A float gives the first candidate; exact comparisons against rational
    powers of the base settle it.
    """
    xf = Fraction(x)
    bf = Fraction(base)
    if xf <= 0:
        raise ValueError(f"floor_log of non-positive value {xf}")
    if bf <= 1:
        raise ValueError(f"floor_log base must exceed 1, got {bf}")
    k = int(log_float(xf) / log_float(bf))
    while bf ** k > xf:
        k -= 1
    while bf ** (k + 1) <= xf:
        k += 1
    return k


def pow_at_least(x: Rational, exponent: Rational, base: int) -> bool:
    """Exact test  x >= base**exponent  for rational x >= 0 and integer base >= 2.

    x is first bracketed as base^m <= x < base^(m+1), m = floor_log(x, base),
    which settles, with integers no larger than x, every exponent outside
    (m, m+1), and every exponent when x = base^m.  Inside it, exponent = a/b
    is not an integer and the test is x^b >= base^a in big integers, refused
    where x^b or base^a would pass BITS_CAP bits.
    """
    x = Fraction(x)
    e = Fraction(exponent)
    if x < 0:
        raise ValueError("x must be non-negative")
    if x == 0:
        return False  # base**e > 0 always
    m = floor_log(x, base)
    if e <= m or e >= m + 1 or x == Fraction(base) ** m:
        return e <= m
    a, b = e.numerator, e.denominator
    # refused only when a power is sure to pass the cap: y^k has more than
    # k (y.bit_length() - 1) bits
    power = f"{base}^({e})" if max(abs(a).bit_length(), b.bit_length()) <= 64 else f"{base}^(a/b)"
    require_bits(max(b * (max(x.numerator, x.denominator).bit_length() - 1),
                     abs(a) * (base.bit_length() - 1)),
                 f"the exact comparison of a rational with {power}")
    return x ** b >= Fraction(base) ** a
