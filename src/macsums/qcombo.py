"""Integer polynomials from their roots, Stirling numbers of the first kind
and central factorial numbers.

A polynomial is a tuple of integer coefficients, constant term first; the
umbral builders in `divisors` read it in one formal symbol.  Stirling and
central factorial values are memoized in triangular tables.
"""

from functools import lru_cache
from math import comb, factorial


def poly_from_roots(roots) -> tuple:
    """Coefficients, constant term first, of the monic integer polynomial
    with the given integer roots."""
    p = (1,)
    for r in roots:
        p = tuple(a - r * b for a, b in zip((0, *p), (*p, 0)))  # (X - r) p
    return p


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
    """Central factorial number of the second kind, always an integer:
    T(t, k) = 2 sum_(i=1..k) (-1)^(k-i) i^(2t) C(2k, k-i) / (2k)!, one
    integer numerator divided exactly by (2k)!."""
    if not (1 <= k <= t):
        raise ValueError("central_T needs 1 <= k <= t")
    total = 0
    for i in range(1, k + 1):
        term = 2 * i ** (2 * t) * comb(2 * k, k - i)
        total += -term if (k - i) % 2 else term
    value, remainder = divmod(total, factorial(2 * k))
    if remainder:
        raise ArithmeticError(f"central_T({t},{k}) failed to reduce to an integer: {total}/{factorial(2 * k)}")
    return value
