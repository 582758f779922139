"""Shared brute-force oracles for the test suite.

Everything here is deliberately naive and independent of the library's own
algorithms: dense polynomial products, direct tuple enumeration, recursive
partition counting, the pentagonal expansion of the Euler product, and the
q-Pascal reference (`IntPoly`, `q_int`, `q_factorial`, `q_binomial`) that
the kernel-step builders of the q-rational factors are checked against.
Expected values in the tests either come from these oracles or were checked
by hand.  `failed_cases` is the one shortcut into the library: the identity
catalog's runner, narrowed to its failures.
"""

from functools import lru_cache
from math import comb
import random

from macsums import registry
from macsums.reports import FrozenRecord
from macsums.series import Series, geometric_pow


def failed_cases(ident_id, order, **grids):
    """The failing reports among every case of one catalog id over the given
    grids (declared defaults for the rest); at least one case must run."""
    reports = registry.run_identity(ident_id, grids, order)
    assert reports, ident_id
    return [r for r in reports if not r.passed]


def naive_mul(a, b, order):
    """Dense schoolbook product of coefficient lists, truncated."""
    out = [0] * (order + 1)
    for i, c in enumerate(a[: order + 1]):
        if c == 0:
            continue
        for j, d in enumerate(b[: order + 1 - i]):
            out[i + j] += c * d
    return out


def geometric_factor(k, r, order, shift=0):
    """q^shift/(1-q^k)^r through q^order, materialized: the closed form
    `geometric_pow` for r >= 1, and for r <= -1 the binomial theorem,
    (-1)^i C(|r|, i) at q^(shift + k*i)."""
    if r > 0:
        return geometric_pow(k, r, order, shift).coeffs
    out = [0] * (order + 1)
    for i in range(-r + 1):
        if shift + k * i <= order:
            out[shift + k * i] = (-1) ** i * comb(-r, i)
    return out


def naive_product_euler(order):
    """Multiply out (1-q)(1-q^2)...(1-q^order) directly."""
    acc = [1]
    for k in range(1, order + 1):
        factor = [0] * (k + 1)
        factor[0] = 1
        factor[k] = -1
        acc = naive_mul(acc, factor, order)
    return acc


def partition_counts(order):
    """p(0..order) by the bounded-part recursion (no pentagonal shortcut)."""
    table = [1] + [0] * order
    for part in range(1, order + 1):
        for n in range(part, order + 1):
            table[n] += table[n - part]
    return table


def weak_tuples(t, max_part):
    """All weakly increasing t-tuples with entries in 1..max_part."""
    if t == 0:
        yield ()
        return
    def rec(prefix, lo):
        if len(prefix) == t:
            yield tuple(prefix)
            return
        for k in range(lo, max_part + 1):
            yield from rec(prefix + [k], k)
    yield from rec([], 1)


def brute_multisum(t, order, strict=False):
    """Direct enumeration of the multisum coefficients: for every tuple,
    expand each factor q^k/(1-q^k)^2 as sum of j*q^(j*k) and convolve."""
    out = [0] * (order + 1)
    def factor(k):
        f = [0] * (order + 1)
        for j in range(1, order // k + 1):
            f[j * k] = j
        return f
    def rec(pos, lo, acc):
        if pos == t:
            for i, c in enumerate(acc):
                out[i] += c
            return
        for k in range(lo, order + 1):
            remaining = t - pos
            if k * remaining > order:
                break
            rec(pos + 1, k + 1 if strict else k, naive_mul(acc, factor(k), order))
    one = [1] + [0] * order
    rec(0, 1, one)
    return out


def rand_int_series(rng, order, span=9):
    return Series([rng.randrange(-span, span + 1) for _ in range(order + 1)], order)


def seeded(seed):
    return random.Random(seed)


def euler_function(order):
    """Product of (1-q^k) for k >= 1, via the pentagonal number expansion."""
    out = [0] * (order + 1)
    out[0] = 1
    m = 1
    while True:
        g = m * (3 * m - 1) // 2
        if g > order:
            break
        s = -1 if m % 2 else 1
        out[g] += s
        g2 = m * (3 * m + 1) // 2
        if g2 <= order:
            out[g2] += s
        m += 1
    return Series(out, order)


# ---------------------------------------------------------------------------
# the q-Pascal reference


class IntPoly(FrozenRecord):
    """Dense integer-coefficient polynomial in q, trailing zeros trimmed.

    The coefficients are a tuple, and the attribute cannot be rebound or
    deleted after construction, so a polynomial handed out by a cached table
    (`q_binomial`, `q_factorial`) cannot be changed by its caller.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        for c in coeffs:
            if type(c) is not int:
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
        return IntPoly(naive_mul(a, b, len(a) + len(b) - 2))

    __rmul__ = __mul__

    def shift(self, k):
        """Multiply by q^k."""
        if k < 0:
            raise ValueError("negative shifts would leave the polynomial ring")
        if self.is_zero():
            return self
        return IntPoly((0,) * k + self.coeffs)

    def __call__(self, x):
        """Evaluate at an integer (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def to_series(self, order):
        return Series(self.coeffs[: order + 1], order)


def q_int(n):
    """The q-integer 1 + q + ... + q^(n-1); zero for n = 0."""
    if n < 0:
        raise ValueError("q_int takes a nonnegative argument")
    return IntPoly([1] * n)


@lru_cache(maxsize=None)
def q_factorial(n):
    if n < 0:
        raise ValueError("q_factorial takes a nonnegative argument")
    if n == 0:
        return IntPoly.one()
    return q_factorial(n - 1) * q_int(n)


@lru_cache(maxsize=None)
def q_binomial(n, k):
    """Gaussian binomial coefficient as an integer polynomial, by the q-Pascal
    rule (no division); zero for k > n, as for the ordinary binomial."""
    if n < 0 or k < 0:
        raise ValueError("q_binomial takes nonnegative arguments")
    if k > n:
        return IntPoly.zero()
    if k == 0 or k == n:
        return IntPoly.one()
    return q_binomial(n - 1, k - 1) + q_binomial(n - 1, k).shift(k)
