"""q-integers, Gaussian binomials, Stirling numbers, central factorial numbers.

Gaussian binomials are exact integer polynomials in q, built by the q-Pascal
recurrence (additions and shifts only, no division).  Stirling and central
factorial values are memoized in triangular tables.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .reports import FrozenRecord
from .series import Series, _norm


class IntPoly(FrozenRecord):
    """Dense integer-coefficient polynomial in q, trailing zeros trimmed.

    The coefficients are a tuple, and the attribute cannot be rebound or
    deleted after construction, so a polynomial handed out by a cached table
    (`q_binomial`, `q_factorial`) cannot be changed by its caller.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [_norm(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        for c in coeffs:
            if not isinstance(c, int):
                raise TypeError(f"IntPoly coefficients must be integers, got {c!r}")
        self._freeze(tuple(coeffs))

    @classmethod
    def zero(cls):
        return cls([])

    @classmethod
    def one(cls):
        return cls([1])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    __hash__ = None

    def __repr__(self):
        if not self.coeffs:
            return "IntPoly(0)"
        terms = [f"{c}*q^{i}" if i else str(c) for i, c in enumerate(self.coeffs) if c]
        return "IntPoly(" + " + ".join(terms) + ")"

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return IntPoly([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])

    def __sub__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return IntPoly([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)])

    def __neg__(self):
        return IntPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly([])
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if not c:
                continue
            for j, d in enumerate(b):
                if d:
                    out[i + j] += c * d
        return IntPoly(out)

    __rmul__ = __mul__

    def shift(self, k):
        """Multiply by q^k."""
        if k < 0:
            raise ValueError("negative shifts would leave the polynomial ring")
        if self.is_zero():
            return self
        return IntPoly((0,) * k + self.coeffs)

    def __call__(self, x):
        """Evaluate at an exact scalar (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return _norm(acc)

    def to_series(self, order):
        return Series(self.coeffs[: order + 1], order)


def poly_from_roots(roots):
    """Monic integer polynomial with the given integer roots."""
    p = IntPoly.one()
    for r in roots:
        p = p * IntPoly([-r, 1])
    return p


def q_int(n: int) -> IntPoly:
    """The q-integer 1 + q + ... + q^(n-1); zero for n = 0."""
    if n < 0:
        raise ValueError("q_int takes a nonnegative argument")
    return IntPoly([1] * n)


@lru_cache(maxsize=None)
def q_factorial(n: int) -> IntPoly:
    if n < 0:
        raise ValueError("q_factorial takes a nonnegative argument")
    if n == 0:
        return IntPoly.one()
    return q_factorial(n - 1) * q_int(n)


@lru_cache(maxsize=None)
def q_binomial(n: int, k: int) -> IntPoly:
    """Gaussian binomial coefficient as an integer polynomial.

    q_binomial(n, k) is zero for k > n (same convention as the ordinary
    binomial).  Computed by the q-Pascal rule, so no exact-division step
    is ever needed.
    """
    if n < 0 or k < 0:
        raise ValueError("q_binomial takes nonnegative arguments")
    if k > n:
        return IntPoly.zero()
    if k == 0 or k == n:
        return IntPoly.one()
    return q_binomial(n - 1, k - 1) + q_binomial(n - 1, k).shift(k)


@lru_cache(maxsize=None)
def stirling1_unsigned(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind (permutations by cycles)."""
    if n == 0 and k == 0:
        return 1
    if n <= 0 or k <= 0 or k > n:
        return 0
    return stirling1_unsigned(n - 1, k - 1) + (n - 1) * stirling1_unsigned(n - 1, k)


@lru_cache(maxsize=None)
def central_u(t: int, k: int) -> int:
    """Alternating Stirling convolution behind the even central factorials."""
    if not (t >= 1 and 0 <= k <= t - 1):
        raise ValueError("central_u needs 1 <= t and 0 <= k <= t-1")
    total = 0
    for j in range(-k, k + 1):
        s = stirling1_unsigned(t, t - k + j) * stirling1_unsigned(t, t - k - j)
        total += -s if j % 2 else s
    return total


@lru_cache(maxsize=None)
def central_T(t: int, k: int) -> int:
    """Central factorial number of the second kind; always an integer."""
    if not (1 <= k <= t):
        raise ValueError("central_T needs 1 <= k <= t")
    total = Fraction(0)
    for i in range(1, k + 1):
        term = Fraction(2 * i ** (2 * t), factorial(k - i) * factorial(k + i))
        total += -term if (k - i) % 2 else term
    if total.denominator != 1:
        raise ArithmeticError(f"central_T({t},{k}) failed to reduce to an integer: {total}")
    return total.numerator


def gbinom(a, k: int) -> Fraction:
    """Generalized binomial C(a, k) = a(a-1)...(a-k+1)/k! for exact rational a."""
    if k < 0:
        raise ValueError("gbinom needs k >= 0")
    num = Fraction(1)
    a = Fraction(a)
    for i in range(k):
        num *= a - i
    return num / factorial(k)
