"""Closed-form bounds, recursions and parameter schedules for f_N(n, c).

f_N(n, c) is the smallest cube dimension forced on subsets of [N]^n of
density at least c.  This module evaluates the inductive lower-bound step,
its iteration and closed form, the feasibility inequalities behind the
probabilistic constructions, and the density/dimension schedules those
constructions use.  All logarithms are base N unless a base is written
explicitly; every floor/ceil that decides a branch is settled by exact
rational comparisons, never by a bare float.  Each comparison of a rational
with a rational power goes through exactmath.pow_at_least, and every big
integer built here is first checked against exactmath.BITS_CAP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .exactmath import (
    floor_log,
    log_float,
    pow_at_least,
    require_bits,
)


def alpha_of(eps) -> Fraction:
    """alpha = 2 + eps/3, the base of the closed form's logarithm, for eps > 0."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return 2 + eps / 3


def _density(c, N: int) -> Fraction:
    """c as a Fraction, checked to lie in (0, 1], for a base N >= 2."""
    c = Fraction(c)
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if not 0 < c <= 1:
        raise ValueError(f"c must lie in (0, 1], got {c}")
    return c


def _cut(x: int) -> tuple[int, int, int]:
    """(p, q, s) with p 2^s <= x <= q 2^s for an integer x >= 0, keeping at
    most 64 bits of x: p = x >> s, and q = p + 1 unless x is kept whole."""
    s = max(0, x.bit_length() - 64)
    p = x >> s
    return p, p + (s > 0), s


def _times(f: tuple[int, int, int], g: tuple[int, int, int]) -> tuple[int, int, int]:
    """A bracket of a product, from brackets (p, q, s) of its two factors."""
    return f[0] * g[0], f[1] * g[1], f[2] + g[2]


def _pow_bracket(N: int, r: int) -> tuple[int, int, int]:
    """(p, q, s) with p 2^s <= N^r <= q 2^s for integers N, r >= 0, with no
    N^r: the top 64 bits of N raised by squaring, each square or product
    cut back to 64 bits, p rounded down and q up, the shift kept in s."""
    n = _cut(N)
    p, q, s = 1, 1, 0
    for bit in bin(r)[2:]:
        p, q, s = p * p, q * q, 2 * s
        if bit == "1":
            p, q, s = _times((p, q, s), n)
        k = max(0, q.bit_length() - 64)
        p, q, s = p >> k, -(-q >> k), s + k
    return p, q, s


def _scaled_below(p: int, s: int, q: int, t: int) -> bool:
    """p 2^s < q 2^t for integers p, q >= 0 and s, t >= 0, by shifting
    one side down: p 2^k < q iff p < ceil(q / 2^k)."""
    if s >= t:
        return p < -(-q >> (s - t))
    return p >> (t - s) < q


def _below(lhs: tuple[int, int, int], rhs: tuple[int, int, int], exact: Callable[[], bool]) -> bool:
    """x < y from a bracket lhs of x and a bracket rhs of y, mostly without
    x and y: exact() decides, forming them, only where the brackets
    overlap."""
    p, q, s = lhs
    p2, q2, t = rhs
    if _scaled_below(q, s, p2, t):
        return True  # x <= q 2^s < p2 2^t <= y
    if not _scaled_below(p, s, q2, t):
        return False  # y <= q2 2^t <= p 2^s <= x
    return exact()


def _step(n: int, a: int, b: int, N: int) -> tuple[int, int, int]:
    """inductive_step on c = a/b in lowest terms, in integers: (n - r, a', b')
    with a'/b' in lowest terms, or (n - r, a, b) when n <= r.  r is the least
    integer with N^r a^2 >= 8 b^2, seeded by floats from 3 + 2 log2 b and
    settled on brackets of N^r a^2 (N^r from _pow_bracket) and of 8b b, so
    N^r and 8 b^2 are formed only where the brackets overlap; gcd(a, a + 4b)
    = gcd(a, 4), so a shift divides gcd(2 a^2, (a + 4b)^2) out, with no gcd."""
    a2, b8 = a * a, b << 3
    a2_cut, rhs = _cut(a2), _times(_cut(b8), _cut(b))

    def short(r: int) -> bool:  # N^r a^2 < 8 b^2
        return _below(_times(_pow_bracket(N, r), a2_cut), rhs, lambda: N ** r * a2 < b8 * b)

    r = math.ceil((3 + 2 * (math.log2(b) - math.log2(a))) / math.log2(N))
    while short(r):
        r += 1
    while not short(r - 1):
        r -= 1
    if n <= r:
        return n - r, a, b
    num, den = 2 * a2, (a + 4 * b) ** 2
    shift = min(num & -num, den & -den).bit_length() - 1
    return n - r, num >> shift, den >> shift


def inductive_step(n: int, c, N: int) -> tuple[int, Fraction]:
    """One application of the density-increment recursion.

    Maps (n, c) to (n - ceil(log_N(8 c^-2)), 2 c^2 / (c+4)^2); requires n
    strictly above the ceiling so the new dimension stays positive.
    """
    c = _density(c, N)
    m, a, b = _step(n, c.numerator, c.denominator, N)
    if m <= 0:
        raise ValueError(f"n={n} too small: need n > ceil(log_{N}(8 c^-2)) = {n - m}")
    return m, Fraction(a, b)


def lower_bound_iterated(n: int, c, N: int) -> int:
    """Number of inductive steps possible from (n, c): a lower bound on f.
    Each step about doubles c's bits; refused once they pass BITS_CAP.  A
    step that surely goes ahead, n above a bound on its r from bit lengths,
    is refused before it is built when its new denominator, of at least
    2 bit_length(a + 4b) - 6 bits (_step shifts out at most 5), must pass."""
    c = _density(c, N)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    steps, a, b = 0, c.numerator, c.denominator
    while True:
        what = f"the density after {steps + 1} inductive steps"
        # N^r a^2 >= 8 b^2 once r (bit_length(N) - 1) >= 5 + 2 (bit_length(b) - bit_length(a))
        r_above = -(-(5 + 2 * (b.bit_length() - a.bit_length())) // (N.bit_length() - 1))
        if n > r_above:
            require_bits(2 * (a + 4 * b).bit_length() - 6, what)
        n, a, b = _step(n, a, b, N)
        if n <= 0:
            return steps
        steps += 1
        require_bits(max(a.bit_length(), b.bit_length()), what)


@dataclass(frozen=True)
class ClosedFormBound:
    value: int  # clamped at 0
    raw: int  # pre-clamp formula value
    clamped: bool
    alpha: Fraction
    initial_step: bool  # one inductive step was taken first (c > 1/2)


def _alpha_pow_le_x(k: int, n: int, c: Fraction, N: int, alpha: Fraction) -> bool:
    """Exact test alpha^k <= x for x = 1 + (1-n)(alpha-1)/log_N(c).

    For k >= 1 this is c >= N^((1-n)(alpha-1)/(alpha^k - 1)): multiplying
    by log_N(c) < 0 flips the inequality.
    """
    if k <= 0:
        return True  # x >= 1 always
    return pow_at_least(c, (1 - n) * (alpha - 1) / (alpha ** k - 1), N)


def lower_bound_closed_form(n: int, c, N: int, alpha) -> ClosedFormBound:
    """Closed-form lower bound floor(log_alpha((1-n)(alpha-1)/log_N(c) + 1)) - 1.

    Exact for any rational c: the floor is seeded by floats and settled by
    rational power comparisons.  For c > 1/2 one inductive step is applied
    first so the iteration map stays inside its stated domain, and the step
    contributes +1 to the bound.
    """
    c = _density(c, N)
    alpha = Fraction(alpha)
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if c == 1:
        raise ValueError("c = 1 has log c = 0; the closed form does not apply")
    if alpha <= 1:
        raise ValueError(f"alpha must exceed 1, got {alpha}")

    initial_step = c > Fraction(1, 2)
    bonus = 0
    if initial_step:
        m, a, b = _step(n, c.numerator, c.denominator, N)
        if m < 2:  # no step (m <= 0), or one step, to n = 1
            return ClosedFormBound(int(m > 0), int(m > 0), False, alpha, True)
        n, c, bonus = m, Fraction(a, b), 1

    log_c = log_float(c) / math.log(N)
    x_f = 1.0 + (1 - n) * (float(alpha) - 1.0) / log_c
    y = math.log(x_f) / log_float(alpha)
    k = math.floor(y)
    # Trust the float only away from integer boundaries; candidates on
    # either side of a near-integer y are settled exactly.
    tol = 1e-9 * max(1.0, abs(y))
    if y - k < tol:
        if not _alpha_pow_le_x(k, n, c, N, alpha):
            k -= 1
    elif y - k > 1 - tol:
        if _alpha_pow_le_x(k + 1, n, c, N, alpha):
            k += 1
    raw = k - 1 + bonus
    return ClosedFormBound(max(0, raw), raw, raw < 0, alpha, initial_step)


def beta(c, N: int, alpha) -> float:
    """The additive constant in f >= log_alpha(n) - beta(c), reporting only."""
    c = Fraction(c)
    alpha = Fraction(alpha)
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if not 0 < c < 1:
        raise ValueError(f"c must lie in (0, 1), got {c}")
    if alpha <= 1:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    la = log_float(alpha)
    log_inv_c = log_float(1 / c)
    if log_inv_c > 0:
        log_log = math.log(log_inv_c / math.log(N))
    else:
        # c is so close to 1 that log(1/c) rounded to 0.  There
        # log(1/c) = log1p(x) with x = (1 - c)/c, which is x within a
        # relative x/2, far below a float's own rounding.
        log_log = log_float((1 - c) / c) - math.log(math.log(N))
    return math.log(2) / la + log_log / la - log_float(alpha - 1) / la + 2


def c_n_schedule(n: int, N: int) -> Fraction:
    """Density schedule 1 - N^(-floor(log_N log_N n)), exact.

    Needs n >= N so the inner logarithm is at least 1.  Degenerates to 0 for
    n < N^N (the floor is 0 there), which callers must tolerate.
    """
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if n < N:
        raise ValueError(f"need n >= N for a nonnegative exponent, got n={n}")
    # exact: N^j is an integer, so N^(N^j) <= n iff N^j <= floor(log_N n)
    k = floor_log(floor_log(n, N), N)
    return 1 - Fraction(1, N ** k)


@dataclass(frozen=True)
class EqEpReport:
    holds: bool
    lhs: float
    rhs: float  # +inf when c_n = 0
    c_n: Fraction


def check_eq_ep(n: int, eps, N: int) -> EqEpReport:
    """Feasibility inequality for the dense construction at scale n.

    log(4) + n((1+eps) log2(n) + 1) < n^(1+eps/2) log(1/c_n), logs base N on
    the two unmarked log terms, as everywhere in this module.  The log2(n)
    factor groups with (1+eps): that is the only reading under which the
    inequality follows from n(r+1) with r < (1+eps) log2(n).
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    c_n = c_n_schedule(n, N)
    ln_N = math.log(N)
    lhs = math.log(4) / ln_N + n * ((1 + float(eps)) * math.log2(n) + 1)
    try:
        power = float(n) ** (1 + float(eps) / 2)
    except OverflowError:
        raise ValueError(
            f"eps = {eps} is too large: n^(1+eps/2) = {n}^(1+{eps}/2) of the feasibility "
            f"check overflows a float"
        ) from None
    if c_n == 0:
        # log(1/c_n) is +infinity; the inequality holds vacuously.
        return EqEpReport(True, lhs, math.inf, c_n)
    rhs = power * log_float(1 / c_n) / ln_N
    return EqEpReport(lhs < rhs, lhs, rhs, c_n)


def choose_r_dense(n: int, eps) -> Optional[int]:
    """Smallest integer strictly inside ((1+eps/2) log2(n), (1+eps) log2(n)).

    Exact: with eps = p/q, r > (1+eps/2) log2(n) iff 4^(qr) > n^(2q+p), so
    r = floor(log_{4^q}(n^(2q+p))) + 1, and r < (1+eps) log2(n) iff
    2^(qr) < n^(q+p).  Returns None when the open interval contains no
    integer (small n).
    """
    eps = Fraction(eps)
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    p, q = eps.numerator, eps.denominator
    require_bits((2 * q + p) * n.bit_length(), "n^(2q+p) for eps = p/q")
    r = floor_log(n ** (2 * q + p), 4 ** q) + 1
    if 2 ** (q * r) < n ** (q + p):
        return r
    return None


def choose_r_sparse(eps) -> int:
    """Smallest r with 2^(r-1)/(r+3) > 1/eps, by exact upward scan."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    r = 1
    while not eps * 2 ** (r - 1) > r + 3:
        r += 1
    return r


def lll_condition(L: int, p, r: int) -> bool:
    """Exact decision of 4 L p^(2^r) < 1, as 4 L a^(2^r) < b^(2^r) for
    p = a/b, refused where those powers would pass BITS_CAP bits."""
    p = Fraction(p)
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    if not 0 < p < 1:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    # the shift stops at 64, where every p is past the cap, so a huge r is
    # refused before 2^r is built
    bits = max(p.numerator.bit_length(), p.denominator.bit_length())
    require_bits(bits << min(r, 64), f"the LLL comparison at p^(2^{r})")
    exp = 2 ** r
    return 4 * L * p.numerator ** exp < p.denominator ** exp


def count_affine_maps_bound(N: int, n: int, r: int) -> int:
    """Upper bound N^(n(r+1)) on the number of injective affine cube maps."""
    if N < 2 or n < 0 or r < 0:
        raise ValueError("need N >= 2, n >= 0, r >= 0")
    return N ** (n * (r + 1))


def bound_table_rows(N: int, ns, c, eps) -> list[dict]:
    """Rows (N, n, c, iterated_bound, closed_form_bound, alpha, beta) for CSV."""
    c = _density(c, N)
    alpha = alpha_of(eps)
    rows = []
    for n in ns:
        iterated = lower_bound_iterated(n, c, N)
        if c == 1 or n < 2:
            closed: Optional[int] = None
            b: Optional[float] = None
        else:
            closed = lower_bound_closed_form(n, c, N, alpha).value
            b = beta(c, N, alpha)
        rows.append(
            {
                "N": N,
                "n": n,
                "c": str(c),
                "iterated_bound": iterated,
                "closed_form_bound": closed,
                "alpha": str(alpha),
                "beta": b,
            }
        )
    return rows
