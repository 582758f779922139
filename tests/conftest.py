"""Shared brute-force oracles for the test suite.

Everything here is deliberately naive and independent of the library's own
algorithms: dense polynomial products, direct tuple enumeration, recursive
partition counting.  Expected values in the tests either come from these
oracles or were checked by hand.  `failed_cases` is the one shortcut into
the library: the identity catalog's runner, narrowed to its failures.
"""

from fractions import Fraction
from math import comb
import random

from macsums import registry
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


def rand_rational_series(rng, order, span=6):
    return Series(
        [Fraction(rng.randrange(-span, span + 1), rng.randrange(1, 5)) for _ in range(order + 1)],
        order,
    )


def rand_int_series(rng, order, span=9):
    return Series([rng.randrange(-span, span + 1) for _ in range(order + 1)], order)


def seeded(seed):
    return random.Random(seed)
