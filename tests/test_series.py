"""Tests for exact truncated series arithmetic."""

import gc
import re
from fractions import Fraction
from math import gcd, isqrt, prod

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
from macsums import macmahon, series
from macsums.congruences import prospect, verify_paper_suite
from macsums.divisors import eisenstein, sigma_series, theta_moment
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
    # the edges of one leaf and of one level more, and 127 to 129 and 257,
    # the edges of two and four leaves at LEAF = 64
    [(n, "theta") for n in sorted({LEAF - 1, LEAF, LEAF + 1, 127, 128, 129, 300, 777, 1500})]
    + [(n, "dense") for n in sorted({LEAF + 1, 129, 300, 777})]
    + [(n, "heavy") for n in sorted({LEAF + 1, 2 * LEAF + 1, 257, 777})],
)
def test_division_at_depth_matches_the_product_oracle(order, shape):
    # given the quotient's width, past LEAF the quotient is solved divide
    # and conquer, up to five levels here, and every middle product packs:
    # signed quotients of 3 to 1200 bits, over divisors with constant term
    # +-1, +-2 or +-3 whose sum of |c| passes 2^20 when heavy (a dropped
    # bias or lane shows)
    rng = seeded(order)
    b0s = (1, -3) if shape == "dense" else (1, -1, 2, -2, 3, -3)
    for bits in (3, 60, 300, 600, 1200):
        for b0 in b0s:
            q = [rng.randrange(-(2**bits), 2**bits) for _ in range(order + 1)]
            b = _divisor(rng, order, shape, b0)
            a = naive_mul(b, q, order)
            assert series.divide_coeffs(a, b, bits + 1) == q, (bits, b0)
            if abs(b0) > 1:
                # a planted remainder raises at its own coefficient
                m = rng.randrange(order + 1)
                a[m] += 1
                with pytest.raises(ArithmeticError, match=rf"at q\^{m}$"):
                    series.divide_coeffs(a, b, bits + 1)


def test_a_quotient_past_its_given_width_raises_naming_its_leaf():
    # a dividend narrower than its quotient (the constant 1 over the theta
    # series, whose quotient counts partitions in three colours) with a
    # width one bit short of the quotient's: the first leaf to solve a value
    # of 2^b or more raises at once, naming its q-range, and a width that
    # holds the quotient gives the term loop's quotient
    order = 3 * LEAF
    b = theta_moment(1, order).coeffs
    a = [1] + [0] * order
    q = series.divide_coeffs(a, b)
    width = max(map(abs, q)).bit_length()
    first = next(m for m, v in enumerate(q) if abs(v) >> (width - 1))
    with pytest.raises(ArithmeticError, match=rf"needs more than its proved {width - 1} bits$") as raised:
        series.divide_coeffs(a, b, width - 1)
    lo, last = map(int, re.fullmatch(r"a quotient coefficient in q\^(\d+)\.\.q\^(\d+) .*", str(raised.value)).groups())
    assert lo <= first <= last < lo + LEAF  # the leaf that solved it
    assert series.divide_coeffs(a, b, width) == q


def test_every_packed_division_packs_once_at_its_proved_width(monkeypatch):
    # no division is retried: a `_leaf` spy sees one lane layout (bytes, b)
    # per division on the scans, the exact MO tables (t <= 15, orders 64 to
    # 3000, with each t's orders below its second numerator term, whose one
    # numerator coefficient is 1) and the umbral quotients; the benchmark's
    # divisions keep their lanes: the suite's 29 bits in 6 bytes, the MO
    # prospect's 124 in 18 and the exact t = 6 table's 147 in 21, and the
    # exact [10, 4, 3, 2] tables at order 3000 share 370 bits in 49
    divisions = []
    divide, leaf = macmahon.divide_coeffs, series._leaf

    def division(*args):
        divisions.append(set())
        return divide(*args)

    def recording(out, tail, d, reduce, lanes, lo, hi, pending):
        divisions[-1].add(lanes[:2])
        return leaf(out, tail, d, reduce, lanes, lo, hi, pending)

    monkeypatch.setattr(macmahon, "divide_coeffs", division)
    monkeypatch.setattr(series, "_leaf", recording)
    verify_paper_suite(20000)
    prospect("MO", range(1, 7), [5, 7, 11], 5000)
    macmahon.mo_andrews_rose(6, 20000)
    list(macmahon.mo_andrews_rose_many([10, 4, 3, 2], 3000))
    assert divisions == [{(6, 29)}, {(18, 124)}, {(21, 147)}, {(49, 370)}]
    divisions.clear()
    tables = 0
    for t in range(1, 16):
        second = (t + 1) * (t + 2) // 2
        for order in (LEAF, second - 1, second, 3000):
            if order >= LEAF:
                macmahon.mo_andrews_rose(t, order)
                tables += 1
    for t in range(1, 5):
        macmahon.mo_umbral(t, 200)
    assert len(divisions) == tables + 4 and all(len(lanes) == 1 for lanes in divisions)


def lane_checks(monkeypatch, a, b, bits, reduce=None):
    """Divide a by b at the width `bits` and check every leaf's lanes
    against the product oracle: the pending lane of q^m, m in the leaf [lo,
    hi), is H + a_m - sum(c_(m-j) v_j, j < lo) + 2^b C_(m-lo), with |lane -
    H| < 2^b (1 + 2S), and its solved lane is v_m + 2^b, in
    [0, 2^(b+1)).  W is the fewest whole bytes holding b + bits(S) + 2
    bits.  Returns the quotient and the b of each leaf."""
    leaves = []
    real = series._leaf

    def recording(out, tail, d, reduce, lanes, lo, hi, pending):
        leaves.append([lanes[0], lanes[1], lo, hi, pending, None])
        leaves[-1][-1] = real(out, tail, d, reduce, lanes, lo, hi, pending)
        return leaves[-1][-1]

    monkeypatch.setattr(series, "_leaf", recording)
    q = series.divide_coeffs(a, b, bits, reduce)
    order = len(q) - 1
    sign = -1 if b[0] < 0 else 1
    a, b = [sign * c for c in a[: order + 1]], [sign * c for c in b[: order + 1]]
    spread = sum(map(abs, b[1:]))
    prefix = [sum(b[1 : k + 1]) for k in range(series.LEAF)]
    assert leaves
    for size, top, lo, hi, pending, packed in leaves:
        w, h = 8 * size, 1 << (8 * size - 1)
        assert w - 8 < top + spread.bit_length() + 2 <= w
        taken = naive_mul(b, q[:lo] + [0] * (order + 1 - lo), order)
        lanes = pending.to_bytes((hi - lo) * size, "little")
        for m in range(lo, hi):
            lane = int.from_bytes(lanes[(m - lo) * size : (m - lo + 1) * size], "little")
            assert lane == h + a[m] - taken[m] + (prefix[m - lo] << top), (lo, m)
            assert abs(lane - h) < (1 + 2 * spread) << top, (lo, m)
        if packed is not None:
            solved = packed.to_bytes((hi - lo) * size, "little")
            for m in range(lo, hi):
                lane = int.from_bytes(solved[(m - lo) * size : (m - lo + 1) * size], "little")
                assert lane == q[m] + (1 << top) and 0 <= lane < 1 << (top + 1), (lo, m)
    return q, [top for _, top, *_ in leaves]


def _signed_division():
    """A signed quotient over a divisor with constant term -2, scaled so
    that b + bits(S) + 2 is one bit past a whole byte: a lane one bit short
    of the proof is a byte short here.  Returns (a, b, bits, None, q),
    bits the quotient's width."""
    rng = seeded(21)
    order = 3 * LEAF + 5
    b = _divisor(rng, order, "theta", -2)
    q = [rng.randrange(-(2**60), 2**60) for _ in range(order + 1)]
    top = max(map(abs, naive_mul(b, q, order))).bit_length()
    spread = sum(map(abs, b[1:])).bit_length() + 2
    q = [v << (1 - top - spread) % 8 for v in q]
    a = naive_mul(b, q, order)
    assert (max(map(abs, a)).bit_length() + spread) % 8 == 1
    return a, b, max(map(abs, q)).bit_length(), None, q


def _suite_residue_division(monkeypatch):
    """The division of the paper suite's MO residue tables at order 1000,
    with its width and `reduce` hook.  Returns (a, b, bits, reduce,
    quotient)."""
    moduli = {10: 11, 4: 11, 3: 7, 2: 5}
    seen = []

    def recording(a, b, bits, reduce):
        q = series.divide_coeffs(a, b, bits, reduce)
        seen.append((list(a), list(b), bits, reduce, list(q)))  # the caller reads q in place
        return q

    monkeypatch.setattr(macmahon, "divide_coeffs", recording)
    list(macmahon.mo_andrews_rose_many(moduli, 1000, moduli))
    (division,) = seen
    return division


@pytest.mark.parametrize("case", ("signed", "suite residues"))
def test_division_lanes_stay_in_their_proved_ranges(monkeypatch, case):
    # each division packs once: the suite's dividend is as wide as its
    # reduced quotient, and the signed one is wider than its quotient
    a, b, bits, reduce, q = _signed_division() if case == "signed" else _suite_residue_division(monkeypatch)
    solved, bs = lane_checks(monkeypatch, a, b, bits, reduce)
    assert solved == q and len(set(bs)) == 1


EDGES = (LEAF - 1, LEAF + 1, 2 * LEAF - 1, 2 * LEAF + 1)  # one leaf, two, and one level more


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_packed_division_matches_the_product_oracle(data):
    # signed quotients narrower than their dividends (a = b q), or wider: a
    # narrow dividend b0 a' over b = b0 u, u_0 = 1, whose quotient a'/u may
    # outgrow it; packed at the quotient's width, the division gives the
    # term loop's quotient, and when |b0| > 1 a planted remainder raises at
    # its own q^m
    order = data.draw(st.sampled_from(EDGES), label="order")
    b0 = data.draw(st.sampled_from((1, -1, 2, -2, 3, -3)), label="b0")
    spread = data.draw(st.sampled_from((9, 2**20)), label="spread")
    u = [1, *data.draw(st.lists(st.integers(-spread, spread), min_size=order, max_size=order), label="u")]
    bits = data.draw(st.sampled_from((3, 60, 300)), label="bits")
    ints = st.lists(st.integers(-(2**bits), 2**bits), min_size=order + 1, max_size=order + 1)
    if data.draw(st.booleans(), label="wider"):
        b = [b0 * c for c in u]
        a = [b0 * c for c in data.draw(ints, label="a'")]
    else:
        b = [b0, *u[1:]]
        a = naive_mul(b, data.draw(ints, label="q"), order)
    q = series.divide_coeffs(a, b)
    assert naive_mul(b, q, order) == a
    width = max(map(abs, q)).bit_length()
    assert series.divide_coeffs(a, b, width) == q
    if abs(b0) > 1:
        m = data.draw(st.integers(0, order), label="m")
        a[m] += 1
        with pytest.raises(ArithmeticError, match=rf"at q\^{m}$"):
            series.divide_coeffs(a, b, width)


COPRIME_PAIRS = st.tuples(*[st.sampled_from((4, 7, 9, 11, 25, 27, 49, 2**31 - 1))] * 2).filter(lambda p: gcd(*p) == 1)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_packed_division_reduced_over_two_crt_layers(data):
    # a reduce hook as a residue scan's: two layers, each working mod the
    # product L of two coprime moduli in a slot of bits(L (1 + S)) + 1 bits,
    # read signed and kept mod L; packed at the top slot's shift plus
    # bits(L - 1), the packed quotient then holds each layer's quotient mod
    # L, which the product oracle gives back mod L
    order = data.draw(st.sampled_from(EDGES), label="order")
    spread = data.draw(st.sampled_from((9, 2**20)), label="spread")
    u = [1, *data.draw(st.lists(st.integers(-spread, spread), min_size=order, max_size=order), label="u")]
    mods = [prod(data.draw(COPRIME_PAIRS, label="layer")) for _ in range(2)]
    widths = [(L * (1 + sum(map(abs, u[1:])))).bit_length() + 1 for L in mods]
    slots = [(widths[1], widths[0], mods[0]), (0, widths[1], mods[1])]  # (shift, width, L), the top layer first
    bias = sum(1 << (w - 1) << shift for shift, w, _ in slots)

    def reduce(c):
        c += bias
        return sum(((c >> shift & (1 << w) - 1) - (1 << w - 1)) % L << shift for shift, w, L in slots)

    packed = [0] * (order + 1)
    a = [0] * (order + 1)
    for shift, _, L in slots:
        r = data.draw(st.lists(st.integers(0, L - 1), min_size=order + 1, max_size=order + 1), label="residues")
        packed = [p + (x << shift) for p, x in zip(packed, r)]
        a = [p + (x % L << shift) for p, x in zip(a, naive_mul(u, r, order))]
    assert series.divide_coeffs(a, u, widths[1] + (mods[0] - 1).bit_length(), reduce) == packed


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
    b = _divisor(rng, order, "theta", 1)
    a = naive_mul(b, [rng.randrange(-(2**40), 2**40) for _ in range(order + 1)], order)
    gc.collect()
    gc.disable()
    try:
        series.divide_coeffs(a, b, 41)
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
