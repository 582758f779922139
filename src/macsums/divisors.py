"""Divisor power sums, Eisenstein series, Lambert-type series, and umbral
evaluation against series families.

All generating functions return exact integer-coefficient Series.  The
umbral machinery expands a polynomial in one formal symbol and then replaces
each power X^s by the s-th member of a series family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt
from typing import Callable

from .series import Series, euler_function, geometric_pow


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
    """Generating function of sigma_s, by a divisor sieve."""
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


def lambert_series(t: int, order: int) -> Series:
    """Sum over m >= 1 of m^t * q^m/(1-q^m)."""
    out = [0] * (order + 1)
    for m in range(1, order + 1):
        v = m**t
        for e in range(m, order + 1, m):
            out[e] += v
    return Series(out, order)


def binomial_lambert(t: int, order: int) -> Series:
    """Sum over m >= 1 of q^(t*m)/(1-q^m)^(2t).

    Coefficientwise this is the Lambert series with binomial weights
    C(j+t-1, 2t-1) attached to each divisor j.
    """
    if t < 1:
        raise ValueError("binomial_lambert needs t >= 1")
    out = [0] * (order + 1)
    for m in range(1, order // t + 1):
        base = t * m
        for i in range(0, (order - base) // m + 1):
            out[base + i * m] += comb(i + 2 * t - 1, 2 * t - 1)
    return Series(out, order)


def dilcher_r(t: int, order: int) -> Series:
    """Sum over m >= 1 of m^t q^m * prod_{j>m} (1-q^j).

    Tail products are grown incrementally from m = order down to 1, one
    sparse multiplication per step.
    """
    acc = Series.zero(order)
    tail = Series.one(order)
    for m in range(order, 0, -1):
        acc = acc + (m**t) * tail.shift(m)
        tail = tail - tail.shift(m)
    return acc


def power_lambert(t: int, order: int) -> Series:
    """Sum over m >= 1 of q^(t*m)/(1-q^m)^t."""
    if t < 1:
        raise ValueError("power_lambert needs t >= 1")
    acc = Series.zero(order)
    for m in range(1, order // t + 1):
        acc = acc + geometric_pow(m, t, order).shift(t * m)
    return acc


def alternating_tail_quotient(t: int, order: int) -> Series:
    """Sum over m >= 1 of (-1)^(m-1) q^(m(m+1)/2) / ((1-q^m)^t (q;q)_m).

    The finite product in the denominator runs over (1-q^j) for j <= m.
    """
    acc = Series.zero(order)
    finite_prod = Series.one(order)
    for m in range(1, order + 1):
        e = m * (m + 1) // 2
        if e > order:
            break
        finite_prod = finite_prod - finite_prod.shift(m)
        term = (geometric_pow(m, t, order) / finite_prod).shift(e)
        acc = acc + term if m % 2 else acc - term
    return acc


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


class UmbralPoly:
    """Polynomial in one umbral symbol, finitely supported rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = {s: c for s, c in coeffs.items() if c != 0}

    @classmethod
    def symbol(cls):
        return cls({1: 1})

    @classmethod
    def const(cls, c):
        return cls({0: c})

    def __eq__(self, other):
        if not isinstance(other, UmbralPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self):
        terms = [f"{c}*X^{s}" for s, c in sorted(self.coeffs.items())]
        return "UmbralPoly(" + (" + ".join(terms) or "0") + ")"

    def _as_poly(self, other):
        if isinstance(other, UmbralPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return UmbralPoly.const(other)
        return None

    def __add__(self, other):
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        out = dict(self.coeffs)
        for s, c in other.coeffs.items():
            out[s] = out.get(s, 0) + c
        return UmbralPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        out = dict(self.coeffs)
        for s, c in other.coeffs.items():
            out[s] = out.get(s, 0) - c
        return UmbralPoly(out)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return UmbralPoly({s: -c for s, c in self.coeffs.items()})

    def __mul__(self, other):
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        out = {}
        for s1, c1 in self.coeffs.items():
            for s2, c2 in other.coeffs.items():
                s = s1 + s2
                out[s] = out.get(s, 0) + c1 * c2
        return UmbralPoly(out)

    __rmul__ = __mul__


@dataclass(frozen=True)
class BaseFamily:
    """A named family s -> Series used as the target of umbral substitution."""

    label: str
    generator: Callable[[int, int], Series]

    def __call__(self, s: int, order: int) -> Series:
        return self.generator(s, order)


THETA_FAMILY = BaseFamily("J", theta_moment)
LAMBERT_FAMILY = BaseFamily("S", lambert_series)
TAIL_FAMILY = BaseFamily("R", dilcher_r)


def umbral_eval(p: UmbralPoly, fam: BaseFamily, order: int) -> Series:
    """Replace each X^s in p by fam(s) and sum; the multiplication in p has
    already been carried out symbolically."""
    acc = Series.zero(order)
    for s, c in p.coeffs.items():
        acc = acc + fam(s, order) * c
    return acc


def odd_square_product(t: int) -> UmbralPoly:
    """X*(X^2-1^2)(X^2-3^2)...(X^2-(2t-1)^2), degree 2t+1."""
    x = UmbralPoly.symbol()
    p = x
    for i in range(1, t + 1):
        p = p * (x * x - (2 * i - 1) ** 2)
    return p


def square_product(t: int) -> UmbralPoly:
    """X*(X^2-1^2)(X^2-2^2)...(X^2-(t-1)^2), degree 2t-1."""
    x = UmbralPoly.symbol()
    p = x
    for i in range(1, t):
        p = p * (x * x - i * i)
    return p


def lower_factorial(t: int) -> UmbralPoly:
    """(X-1)(X-2)...(X-(t-1)); the empty product for t = 1."""
    x = UmbralPoly.symbol()
    p = UmbralPoly.const(1)
    for j in range(1, t):
        p = p * (x - j)
    return p


def raising_factorial(t: int) -> UmbralPoly:
    """X(X+1)(X+2)...(X+t-1), t factors."""
    x = UmbralPoly.symbol()
    p = x
    for j in range(1, t):
        p = p * (x + j)
    return p
