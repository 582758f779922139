"""Tests for exact truncated series arithmetic."""

import gc
import re
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    euler_function,
    geometric_factor,
    naive_mul,
    naive_product_euler,
    partition_counts,
    rand_int_series,
    seeded,
)
from macsums import series
from macsums.divisors import eisenstein, sigma_series
from macsums.series import LEAF, Series, geometric_pow, over_geometric_coeffs

ONES = lambda n: Series([1] * (n + 1), n)


def test_add_cancellation():
    a = Series([1, 1], 1)
    b = Series([1, -1], 1)
    assert a + b == Series([2, 0], 1)


def test_add_zero_identity():
    a = Series([3, 7, -5], 2)
    assert a + Series.zero(2) == a


def test_add_sigma_doubling():
    s = sigma_series(1, 10)
    assert (s + s)[2] == 6  # sigma_1(2) = 3


def test_add_truncates_to_min_order():
    a = Series([1, 2, 3], 2)
    b = Series([1, 1], 1)
    assert (a + b).order == 1


def test_mul_telescoping_geometric():
    one_minus_q = Series([1, -1], 10)
    assert one_minus_q * ONES(10) == Series.one(10)


def test_mul_commutative_random():
    rng = seeded(1201)
    for _ in range(100):
        a = rand_int_series(rng, 20)
        b = rand_int_series(rng, 20)
        assert a * b == b * a


def test_mul_inverse_square_expansion():
    # 1/(1-q)^2 expands with coefficients i+1; the product with (1-q)^2 is 1
    n = 15
    inv_sq = Series([i + 1 for i in range(n + 1)], n)
    sq = Series([1, -2, 1], n)
    assert sq * inv_sq == Series.one(n)


def inverse(s):
    return Series.one(s.order) / s


def test_invert_geometric():
    assert inverse(Series([1, -1], 12)) == ONES(12)


def test_invert_involution_random():
    # an integer series has an integer inverse exactly when its constant term is a unit
    rng = seeded(7)
    for _ in range(100):
        a = rand_int_series(rng, 12)
        a.coeffs[0] = rng.choice((1, -1))
        assert inverse(inverse(a)) == a


def test_invert_partition_counts():
    n = 25
    p = partition_counts(n)
    inv = inverse(euler_function(n))
    assert inv.coeffs == p
    assert inv[3] == 3  # partitions of 3: (3), (2,1), (1,1,1)


def test_invert_cube_counts_partition_triples():
    n = 18
    p = partition_counts(n)
    triples = naive_mul(naive_mul(p, p, n), p, n)
    cube = inverse(euler_function(n)) ** 3
    assert cube.coeffs == triples


def test_invert_requires_unit():
    with pytest.raises(ZeroDivisionError):
        inverse(Series([0, 1], 5))


def test_division_undoes_multiplication_random():
    rng = seeded(11)
    for _ in range(100):
        a = rand_int_series(rng, 15)
        b = rand_int_series(rng, 15)
        b.coeffs[0] = rng.choice((1, -1, 2, -3))
        assert (a * b) / b == a
        if abs(b[0]) == 1:
            assert (a / b) * b == a


def test_division_requires_unit_divisor():
    with pytest.raises(ZeroDivisionError):
        Series([1, 2, 3], 5) / Series([0, 1], 5)


def _divisor(rng, order, shape, b0):
    """A sparse theta-like divisor (odd weights of random sign on the
    triangular numbers), a dense one, or a sparse one whose sum of |c|
    passes 2^20 ("heavy"), with constant term b0."""
    b = [0] * (order + 1)
    if shape == "dense":
        b = [rng.randrange(-9, 10) for _ in range(order + 1)]
    else:
        m = 1
        while m * (m + 1) // 2 <= order:
            weight = rng.randrange(2**18, 2**19) if shape == "heavy" else 2 * m + 1
            b[m * (m + 1) // 2] = rng.choice((-1, 1)) * weight
            m += 1
    b[0] = b0
    return b


@pytest.mark.parametrize(
    "order, shape",
    [(n, "theta") for n in (LEAF - 1, LEAF, LEAF + 1, 300, 777, 1500)]
    + [(n, "dense") for n in (LEAF + 1, 300, 777)]
    + [(n, "heavy") for n in (LEAF + 1, 2 * LEAF + 1, 777)],
)
def test_division_at_depth_matches_the_product_oracle(order, shape):
    # past LEAF the quotient is solved divide and conquer, up to four levels
    # here, and every middle product packs: signed quotients of 3 to 1200
    # bits, over divisors with constant term +-1, +-2 or +-3 whose sum of |c|
    # passes 2^20 when heavy (a dropped bias, lane, fold or slice shows)
    rng = seeded(order)
    b0s = (1, -3) if shape == "dense" else (1, -1, 2, -2, 3, -3)
    for bits in (3, 60, 300, 600, 1200):
        for b0 in b0s:
            q = [rng.randrange(-(2**bits), 2**bits) for _ in range(order + 1)]
            b = _divisor(rng, order, shape, b0)
            a = naive_mul(b, q, order)
            assert (Series(a, order) / Series(b, order)).coeffs == q, (bits, b0)
            if abs(b0) > 1:
                # a planted remainder raises at its own coefficient
                m = rng.randrange(order + 1)
                a[m] += 1
                with pytest.raises(ArithmeticError, match=rf"at q\^{m}$"):
                    Series(a, order) / Series(b, order)


def test_division_cut_into_bit_slices_matches_the_product_oracle(monkeypatch):
    # a middle product whose packed ints would pass PACK bytes cuts the
    # solved ints into bit slices, one packed pass each: the low slices are
    # nonnegative, the top one keeps the sign
    monkeypatch.setattr(series, "PACK", 1 << 12)
    passes = []
    real = series._packed_pass

    def spy(*args):
        passes.append(args[-1])
        return real(*args)

    monkeypatch.setattr(series, "_packed_pass", spy)
    rng = seeded(12)
    order = 600
    for bits in (60, 1200):
        for b0 in (1, -2):
            q = [rng.randrange(-(2**bits), 2**bits) for _ in range(order + 1)]
            b = _divisor(rng, order, "theta", b0)
            a = naive_mul(b, q, order)
            assert (Series(a, order) / Series(b, order)).coeffs == q, (bits, b0)
    assert max(passes) > 0  # some pass ran on a slice above the lowest


@pytest.mark.parametrize("b0, fraction_term", [(2, False), (-3, False), (1, True), (-1, True)])
def test_division_at_depth_by_a_non_unit_or_fraction_divisor(b0, fraction_term):
    # a non-unit constant term divides each solved coefficient exactly; a
    # fraction term cannot enter a divisor at all
    order = 300
    rng = seeded(b0)
    b = _divisor(rng, order, "theta", b0)
    if fraction_term:
        b[5] = Fraction(1, 3)
        with pytest.raises(TypeError, match=r"got Fraction\(1, 3\) at q\^5$"):
            Series(b, order)
        return
    q = [rng.randrange(-(2**20), 2**20) for _ in range(order + 1)]
    a = naive_mul(q, b, order)
    assert (Series(a, order) / Series(b, order)).coeffs == q


def test_division_leaves_no_reference_cycle():
    rng = seeded(5)
    order = 2000
    a = Series([rng.randrange(-(2**40), 2**40) for _ in range(order + 1)], order)
    b = Series(_divisor(rng, order, "theta", 1), order)
    gc.collect()
    gc.disable()
    try:
        a / b
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


def test_geometric_pow_simple():
    assert geometric_pow(1, 2, 6).coeffs == [1, 2, 3, 4, 5, 6, 7]
    assert geometric_pow(3, 1, 9).coeffs == [1, 0, 0, 1, 0, 0, 1, 0, 0, 1]


def test_geometric_pow_binomial_coefficient():
    # brute force (1-q^2)^(-4) by repeatedly convolving the plain geometric
    n = 12
    base = [1 if i % 2 == 0 else 0 for i in range(n + 1)]
    acc = [1] + [0] * n
    for _ in range(4):
        acc = naive_mul(acc, base, n)
    g = geometric_pow(2, 4, n)
    assert g.coeffs == acc
    assert g[6] == 20


def test_geometric_pow_times_binomial_expansion_is_one():
    from math import comb

    for k, r in [(1, 1), (2, 3), (3, 2), (5, 4)]:
        n = 30
        poly = [0] * (k * r + 1)
        for i in range(r + 1):
            poly[k * i] = (-1) ** i * comb(r, i)
        lhs = geometric_pow(k, r, n) * Series(poly, n)
        assert lhs == Series.one(n)


def test_geometric_pow_shift_matches_materialized_factors():
    # the chain factors q^k/(1-q^k)^2, q^k/(1-q^k) and 1/(1-q^k), written out
    def materialize(k, order, first, weight):
        out = [0] * (order + 1)
        for j in range(first, order // k + 1):
            out[j * k] = weight(j)
        return Series(out, order)

    weighted = lambda k, order: materialize(k, order, 1, lambda j: j)
    tail = lambda k, order: materialize(k, order, 1, lambda j: 1)
    full = lambda k, order: materialize(k, order, 0, lambda j: 1)

    for order in (0, 1, 7, 30):
        for k in range(1, order + 3):
            assert geometric_pow(k, 2, order, k) == weighted(k, order), (k, order)
            assert geometric_pow(k, 1, order, k) == tail(k, order), (k, order)
            assert geometric_pow(k, 1, order) == full(k, order), (k, order)
            for r in (1, 2):
                for shift in (0, 3, order + 1, order + 5):
                    assert geometric_pow(k, r, order, shift) == geometric_pow(k, r, order).shift(shift)
    assert geometric_pow(2, 2, 5, 6) == Series.zero(5)
    with pytest.raises(ValueError):
        geometric_pow(2, 1, 5, -1)


exact_scalars = st.integers(-50, 50) | st.fractions(min_value=-20, max_value=20, max_denominator=12)
signed_powers = st.integers(1, 6) | st.integers(-6, -1)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_over_geometric_matches_materialized_product(data):
    # k runs past sqrt(order + 1) and past order, so both the per-residue
    # and the block branch of the running sums are exercised; a negative r
    # takes strided differences instead
    order = data.draw(st.integers(0, 60), label="order")
    k = data.draw(st.integers(1, order + 2), label="k")
    r = data.draw(signed_powers, label="r")
    shift = data.draw(st.integers(0, order + 2), label="shift")
    coeffs = data.draw(st.lists(exact_scalars, min_size=order + 1, max_size=order + 1))
    expected = naive_mul(coeffs, geometric_factor(k, r, order, shift), order)
    assert over_geometric_coeffs(coeffs, k, r, shift) == expected


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_over_geometric_skips_a_zero_prefix(data):
    # the running sums start at the first nonzero coefficient plus the shift,
    # and the branch follows the tail's length: k is drawn half the time with
    # k^2 <= order + 1, so a long enough prefix flips it to the block branch
    order = data.draw(st.integers(0, 40), label="order")
    prefix = data.draw(st.integers(0, order + 1), label="prefix")
    k = data.draw(st.integers(1, isqrt(order + 1)) | st.integers(1, order + 2), label="k")
    r = data.draw(signed_powers, label="r")
    shift = data.draw(st.integers(0, 2) | st.integers(0, order + 2), label="shift")
    tail = data.draw(st.lists(exact_scalars, min_size=order + 1 - prefix, max_size=order + 1 - prefix))
    coeffs = [0] * prefix + tail
    expected = naive_mul(coeffs, geometric_factor(k, r, order, shift), order)
    assert over_geometric_coeffs(coeffs, k, r, shift) == expected
    assert coeffs == [0] * prefix + tail  # the input is left alone


def test_over_geometric_rejects_what_geometric_pow_rejects():
    s = [1, 2, 3]
    for k, r, shift in [(0, 1, 0), (1, 0, 0), (1, 1, -1), (0, -1, 0), (1, -1, -1)]:
        with pytest.raises(ValueError):
            geometric_pow(k, r, 2, shift)
        with pytest.raises(ValueError):
            over_geometric_coeffs(s, k, r, shift)
    # a negative r is a numerator power for the kernel only
    with pytest.raises(ValueError):
        geometric_pow(1, -1, 2)
    assert over_geometric_coeffs(s, 1, -1) == [1, 1, 1]


def test_euler_function_prefix():
    assert euler_function(7).coeffs == [1, -1, -1, 0, 0, 1, 0, 1]


def test_euler_function_matches_naive_product():
    n = 50
    assert euler_function(n).coeffs == naive_product_euler(n)


def test_euler_function_inverse_pair():
    e = euler_function(30)
    assert e * inverse(e) == Series.one(30)


def test_q_derivative_constant():
    assert Series.one(9).q_derivative() == Series.zero(9)


def test_q_derivative_weights_sigma():
    d = sigma_series(1, 8).q_derivative()
    assert d[4] == 28  # 4 * sigma_1(4)


def test_q_derivative_eisenstein_relation():
    n = 40
    e2 = eisenstein("E2", n)
    e4 = eisenstein("E4", n)
    assert e2.q_derivative() * 12 == e2 * e2 - e4


def test_ring_axioms_random():
    rng = seeded(99)
    for _ in range(100):
        a = rand_int_series(rng, 30)
        b = rand_int_series(rng, 30)
        c = rand_int_series(rng, 30)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_derivation_rule_random():
    rng = seeded(4242)
    for _ in range(100):
        a = rand_int_series(rng, 25)
        b = rand_int_series(rng, 25)
        assert (a * b).q_derivative() == a.q_derivative() * b + a * b.q_derivative()


def test_shift():
    a = Series([1, 2, 3, 4], 3)
    assert a.shift(2) == Series([0, 0, 1, 2], 3)
    assert a.shift(5) == Series.zero(3)


def test_constructor_rejects_extra_coefficients():
    with pytest.raises(ValueError):
        Series([1, 2, 3], 1)


@pytest.mark.parametrize("coeffs, at", [([1, Fraction(1, 2)], 1), ([True], 0), ([1.0], 0), ([0, 2, Fraction(4, 2)], 2)])
def test_construction_rejects_what_is_not_an_int(coeffs, at):
    # a bool or an integral Fraction is not an int either
    with pytest.raises(TypeError, match=re.escape(f"got {coeffs[at]!r} at q^{at}") + "$"):
        Series(coeffs)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_integer_contract(data):
    # quotients drawn on both sides of LEAF and 3 to 1200 bits wide, all of
    # which pack; divisors with constant term in {+-1, +-2, +-3} and a sum
    # of |c| that may pass 2^20
    order = data.draw(st.integers(0, LEAF - 1) | st.integers(LEAF + 1, 2 * LEAF + 40), label="order")
    bits = data.draw(st.sampled_from((3, 60, 300, 600, 1200)), label="bits")
    q = data.draw(st.lists(st.integers(-(2**bits), 2**bits), min_size=order + 1, max_size=order + 1), label="q")
    b0 = data.draw(st.sampled_from((1, -1, 2, -2, 3, -3)), label="b0")
    spread = data.draw(st.sampled_from((9, 2**20)), label="spread")
    rest = data.draw(st.lists(st.integers(-spread, spread), min_size=order, max_size=order), label="divisor")
    b = Series([b0, *rest], order)
    a = naive_mul(q, b.coeffs, order)
    assert Series(a, order) / b == Series(q, order)
    if abs(b0) > 1:
        m = data.draw(st.integers(0, order), label="m")
        a[m] += 1
        with pytest.raises(ArithmeticError, match=rf"at q\^{m}$"):
            Series(a, order) / b
    # an int divides each coefficient exactly
    s = Series(q, order)
    n = data.draw(st.integers(-7, 7).filter(lambda n: abs(n) > 1), label="n")
    assert (s * n) / n == s
    m = data.draw(st.integers(0, order), label="m")
    with pytest.raises(ArithmeticError, match=rf"at q\^{m}$"):
        (s * n + Series.monomial(1, m, order)) / n
    # the constructor copies its input
    coeffs = list(q)
    s = Series(coeffs, order)
    coeffs[0] += 1
    coeffs.append(5)
    assert s == Series(q, order)
