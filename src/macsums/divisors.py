"""Divisor power sums, Eisenstein series, Lambert-type series, and umbral
evaluation of integer polynomials against series families.

All generating functions return exact integer-coefficient Series.  The tail
product of `dilcher_r` is one coefficient list, taking one signed-kernel
step (`over_geometric_coeffs`) per m, with no division.  An umbral
polynomial is a tuple of integer coefficients, constant term first
(`qcombo.poly_from_roots`), read in one formal symbol X; evaluating it
replaces each power X^s by the s-th member of a family, which is any function
(s, order) -> Series such as `sigma_series`, `theta_moment` or `dilcher_r`.
"""

from itertools import repeat
from math import isqrt
from operator import add, mul

from .qcombo import poly_from_roots
from .series import Series, geometric_pow, over_geometric_coeffs


def sigma(s: int, n: int) -> int:
    """Sum of d^s over the divisors d of n."""
    if n < 1:
        raise ValueError("sigma is defined for n >= 1")
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            total += d**s
            e = n // d
            if e != d:
                total += e**s
    return total


def sigma_series(s: int, order: int) -> Series:
    """Generating function of sigma_s, by a divisor sieve; this is also the
    Lambert series sum over m >= 1 of m^s * q^m/(1-q^m)."""
    out = [0] * (order + 1)
    for d in range(1, order + 1):
        v = d**s
        for m in range(d, order + 1, d):
            out[m] += v
    return Series(out, order)


def eisenstein(which: str, order: int) -> Series:
    """Normalized Eisenstein series E2, E4 or E6 (constant term 1)."""
    if which == "E2":
        return Series.one(order) - 24 * sigma_series(1, order)
    if which == "E4":
        return Series.one(order) + 240 * sigma_series(3, order)
    if which == "E6":
        return Series.one(order) - 504 * sigma_series(5, order)
    raise ValueError(f"unknown Eisenstein series {which!r}; use E2, E4 or E6")


def power_lambert(a: int, r: int, order: int) -> Series:
    """Sum over m >= 1 of q^(a*m)/(1-q^m)^r, by a direct divisor loop: each m
    adds the coefficients C(i+r-1, r-1) of 1/(1-q)^r at the exponents (a+i)*m."""
    if a < 1 or r < 1:
        raise ValueError("power_lambert needs a >= 1 and r >= 1")
    out = [0] * (order + 1)
    weights = geometric_pow(1, r, order).coeffs
    for m in range(1, order // a + 1):
        out[a * m :: m] = map(add, out[a * m :: m], weights)
    return Series(out, order)


def dilcher_r(t: int, order: int) -> Series:
    """Sum over m >= 1 of m^t q^m * prod_{j>m} (1-q^j), the tail product
    grown from m = order down to 1."""
    out = [0] * (order + 1)
    tail = [1] + [0] * order
    for m in range(order, 0, -1):
        out[m:] = map(add, out[m:], map(mul, tail, repeat(m**t)))
        tail = over_geometric_coeffs(tail, m, -1)
    return Series(out, order)


def theta_moment(s: int, order: int) -> Series:
    """Alternating theta series with weights (2m+1)^s on triangular exponents."""
    out = [0] * (order + 1)
    m = 0
    while m * (m + 1) // 2 <= order:
        v = (2 * m + 1) ** s
        out[m * (m + 1) // 2] += -v if m % 2 else v
        m += 1
    return Series(out, order)


# ---------------------------------------------------------------------------
# umbral evaluation


def umbral_eval(p: tuple, family, order: int) -> Series:
    """Replace each X^s in the polynomial p by family(s, order) and sum.

    p is a tuple of integer coefficients, constant term first, read in the
    umbral symbol X; its products have already been multiplied out, so only
    the coefficients reach the series.
    """
    acc = Series.zero(order)
    for s, c in enumerate(p):
        if c:
            acc = acc + family(s, order) * c
    return acc


def odd_square_product(t: int) -> tuple:
    """X*(X^2-1^2)(X^2-3^2)...(X^2-(2t-1)^2), degree 2t+1."""
    return poly_from_roots([0, *(s * (2 * i - 1) for i in range(1, t + 1) for s in (1, -1))])


def square_product(t: int) -> tuple:
    """X*(X^2-1^2)(X^2-2^2)...(X^2-(t-1)^2), degree 2t-1."""
    return poly_from_roots([0, *(s * i for i in range(1, t) for s in (1, -1))])


def lower_factorial(t: int) -> tuple:
    """(X-1)(X-2)...(X-(t-1)); the empty product for t = 1."""
    return poly_from_roots(range(1, t))


def raising_factorial(t: int) -> tuple:
    """X(X+1)(X+2)...(X+t-1), t factors."""
    return poly_from_roots(range(0, -t, -1))
