"""Tests for the M/MO generating function routes and their agreements."""

import math
import re
import sys
import time
import tracemalloc
from array import array
from collections import Counter
from math import comb, gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_multisum, failed_cases, geometric_factor, naive_mul
from macsums import identities, macmahon, registry, series
from macsums.divisors import eisenstein, sigma_series, theta_moment
from macsums.identities import jacobi_product_side, jacobi_theta_side, jacobi_weak_sum_side
from macsums.macmahon import (
    CLOSED_FORMS,
    M_FORMULAS,
    MO_FORMULAS,
    chain_series,
    coefficient_table,
    conjugate_chain_m_form,
    coprime_layers,
    _dual,
    m_conjugate_form,
    m_recurrence,
    m_single_sum,
    m_single_sum_many,
    mo_andrews_rose,
    mo_andrews_rose_many,
    mo_from_m,
    mo_recurrence,
    mo_slot_bound,
    mo_umbral,
    multisums,
    single_sum_weights,
    single_sum_weights_mod,
    strict_multisum,
    symmetric_relation_sides,
    weak_multisum,
)
from macsums.series import Series, geometric_pow


def two_size_partition_weight(n):
    """Direct count for the weak two-tuple family: over k1 <= k2 and
    s1, s2 >= 1 with s1 k1 + s2 k2 = n, add s1*s2."""
    total = 0
    for k1 in range(1, n + 1):
        for k2 in range(k1, n + 1):
            for s1 in range(1, n // k1 + 1):
                rest = n - s1 * k1
                if rest >= k2 and rest % k2 == 0:
                    total += s1 * (rest // k2)
    return total


def test_weak_multisum_matches_brute_force():
    for t in (1, 2, 3):
        assert weak_multisum(t, 14).coeffs == brute_multisum(t, 14)


@pytest.mark.parametrize("order, T, strict", [
    pytest.param(order, T, strict, id=f"{order}-{T}" + ("-strict" if strict else ""))
    for order, T in [(0, 3), (1, 4), (12, 14), (16, 8)]
    for strict in (False, True)
])
def test_weak_multisums_match_chain_series(order, T, strict):
    # multisums is one chain_series pass, so the reference is the tuple walk
    # of conftest, with levels past the order (T > order) among them
    hs = multisums(T, order, strict=strict)
    assert len(hs) == T
    for t, h in enumerate(hs, 1):
        assert h.coeffs == brute_multisum(t, order, strict), t


def chain_walk(factors, order, strict_after, max_part):
    """Sum over explicit k-tuples of the products of the factors
    k^w q^(c k + b) / prod (1-q^(k+d))^r named by factors[i] = (w, c, b, powers),
    each (d, r) built with `geometric_pow` (or by the binomial theorem for
    r < 0, `geometric_factor`) and multiplied in with `naive_mul`.  A prefix
    whose product vanishes through the order is not extended."""
    top = order if max_part is None else max_part
    out = [0] * (order + 1)

    def walk(i, lo, acc):
        if i == len(factors):
            for n, c in enumerate(acc):
                out[n] += c
            return
        w, c, b, powers = factors[i]
        for k in range(lo, top + 1):
            nxt = [0] * (order + 1)
            if c * k + b <= order:
                nxt[c * k + b] = k**w
            for d, r in powers:
                nxt = naive_mul(nxt, geometric_factor(k + d, r, order), order)
            nxt = naive_mul(nxt, acc, order)
            if any(nxt):
                walk(i + 1, k + 1 if i + 1 in strict_after else k, nxt)

    walk(0, 1, [1] + [0] * order)
    return out


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_chain_series_matches_a_tuple_walk(data):
    # factors k^w q^(c k + b) / prod (1-q^(k+d))^r, numerator powers (r < 0)
    # among them; every tail is the walk of its own factors
    order = data.draw(st.integers(0, 24), label="order")
    power = st.tuples(st.integers(0, 2), st.integers(1, 2) | st.integers(-2, -1))
    factor = lambda powers, low=0: st.tuples(st.integers(low, 2), st.integers(0, 1), st.integers(low, 2), powers)
    # a last factor with one power r >= 1 is written directly (here with w, b,
    # d > 0), one with two powers or r < 0 through the kernel
    direct = factor(st.tuples(st.tuples(st.integers(1, 2), st.integers(1, 3))), low=1)
    kernel = factor(st.tuples(power, power) | st.tuples(st.tuples(st.integers(0, 2), st.integers(-2, -1))))
    powers = st.lists(power, min_size=1, max_size=2).map(tuple)
    factors = data.draw(st.lists(factor(powers), max_size=3), label="factors")
    factors += data.draw(st.lists(direct | kernel, max_size=1), label="last")
    m = len(factors)
    strict_after = data.draw(st.sets(st.integers(1, m - 1)) if m > 1 else st.just(set()), label="strict_after")
    # the valuation weights c sum to 0 over a tail exactly when the last position's is 0
    bounded = st.integers(1, 8) if m and factors[-1][1] == 0 else st.none() | st.integers(1, order + 2)
    max_part = data.draw(bounded, label="max_part")
    tails = chain_series(factors, order, strict_after=strict_after, max_part=max_part)
    assert len(tails) == m + 1 and tails[-1] == Series.one(order)
    for i in range(m):
        shifted = {p - i for p in strict_after if p > i}
        assert tails[i].coeffs == chain_walk(factors[i:], order, shifted, max_part), i


def test_chain_series_rejects_an_unbounded_or_mismatched_chain():
    factor = (0, 0, 0, ((0, 1),))
    with pytest.raises(ValueError, match="position 2 is unbounded"):
        chain_series([(0, 1, 0, ((0, 1),)), factor], 10)
    # a factor needs a power, and a power r = 0 is none, as in the kernel
    with pytest.raises(ValueError, match="not enough values"):
        chain_series([(0, 1, 0, ())], 10)
    with pytest.raises(ValueError, match="r != 0"):
        chain_series([(0, 1, 0, ((0, 0),))], 10)


def test_chain_series_holds_one_sum_per_position():
    # the chain state is one series per position, not one per part value
    tracemalloc.start()
    try:
        m_conjugate_form(1, 800)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def count_products(monkeypatch):
    """Count Series products from here on; returns the list that grows."""
    calls = []
    mul = Series.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Series, "__mul__", counted)
    monkeypatch.setattr(Series, "__rmul__", counted)
    return calls


def count_chain_series(monkeypatch):
    """Record whether each chain_series call from here on is strict."""
    calls = []
    chain = macmahon.chain_series

    def counted(*args, **kwargs):
        calls.append(bool(kwargs.get("strict_after")))
        return chain(*args, **kwargs)

    monkeypatch.setattr(macmahon, "chain_series", counted)
    return calls


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12).flatmap(
    lambda order: st.lists(st.lists(st.integers(-9, 9), min_size=order + 1, max_size=order + 1), max_size=6)
    .map(lambda rows: (order, rows))
))
def test_dual_is_an_involution(order_rows):
    order, rows = order_rows
    xs = [Series(r, order) for r in rows]
    assert _dual(_dual(xs, order), order) == xs


def test_symmetric_route_shares_chain_levels(monkeypatch):
    # mo_from_m solves e from the single sums: T(T+1)/2 products and no
    # chain walk; rebuilding every m_recurrence(s) took 10 chain_series
    # calls and 599 products.  The relation takes every level of one weak
    # and one strict pass.
    chains = count_chain_series(monkeypatch)
    products = count_products(monkeypatch)
    mo_from_m(4, 40)
    assert chains == [] and 0 < len(products) <= 20
    products.clear()
    symmetric_relation_sides(4, 40)
    assert sorted(chains) == [False, True] and 0 < len(products) < 250


def test_multisums_form_no_series_products(monkeypatch):
    # every chain factor x_v is applied as strided running sums
    products = count_products(monkeypatch)
    multisums(10, 300)
    multisums(10, 300, strict=True)
    assert products == []


def test_multisums_write_level_one_without_the_kernel(monkeypatch):
    # level 1 gains x_v itself; level s >= 2 takes one kernel call at each v
    # with s*v <= order, on level s - 1, whose weak chains start at q^((s-1)v)
    levels = []
    kernel = macmahon.over_geometric_coeffs

    def spy(coeffs, k, r, shift=0):
        levels.append(next(i for i, c in enumerate(coeffs) if c) // k + 1)
        return kernel(coeffs, k, r, shift)

    monkeypatch.setattr(macmahon, "over_geometric_coeffs", spy)
    multisums(3, 800)
    assert len(levels) == 666
    assert Counter(levels) == {2: 400, 3: 266}


def test_identity_chains_write_the_last_position_without_the_kernel(monkeypatch):
    # the last position multiplies the constant 1, so a kernel call there
    # would read a nonzero constant term; the positions before it read
    # chains with valuation >= v
    constants = []
    kernel = macmahon.over_geometric_coeffs

    def spy(coeffs, k, r, shift=0):
        constants.append(coeffs[0])
        return kernel(coeffs, k, r, shift)

    monkeypatch.setattr(macmahon, "over_geometric_coeffs", spy)
    identities.harmonic_multisum(3, 8, 200)
    assert constants and not any(constants)


def test_multisums_far_past_the_order():
    # levels above the order are never written, so they cost one shared list
    start = time.perf_counter()
    hs = multisums(100000, 5)
    elapsed = time.perf_counter() - start
    assert len(hs) == 100000
    assert [h.coeffs for h in hs[:5]] == [brute_multisum(t, 5) for t in range(1, 6)]
    assert all(h.coeffs == [0] * 6 for h in hs[5:])
    assert elapsed < 1.0


def test_scan_routes_match_chains_up_to_t10():
    # the paper suite scans up to t = 10 on these two routes
    weak = multisums(10, 1000)
    strict = multisums(10, 1000, strict=True)
    for t in range(1, 11):
        assert m_single_sum(t, 1000) == weak[t - 1], t
        assert mo_andrews_rose(t, 1000) == strict[t - 1], t


SUITE_MO_MODULI = {10: 11, 4: 11, 3: 7, 2: 5}  # lcm of each t's claim primes, largest t first


def test_packed_and_single_mo_tables_pack_every_middle_product(monkeypatch):
    # the wide packed scan quotient and each narrow single-t one pack every
    # middle product (each returns its upper half's biased pending lanes,
    # never zero), and both agree
    biases = []
    real = series._middle_product

    def spy(*args):
        biases.append(real(*args))
        return biases[-1]

    monkeypatch.setattr(series, "_middle_product", spy)
    packed = dict(mo_andrews_rose_many(SUITE_MO_MODULI, 3000))
    assert biases and all(biases)
    biases.clear()
    strict = multisums(10, 3000, strict=True)  # an independent route
    for t, values in packed.items():
        m = SUITE_MO_MODULI[t]
        assert values == [v % m for v in mo_andrews_rose(t, 3000).coeffs] == [v % m for v in strict[t - 1].coeffs], t
    assert biases and all(biases)


def test_packed_mo_division_peak_is_a_small_multiple_of_its_quotient(monkeypatch):
    # the packed middle products' temporaries and the root's run-packed
    # lanes stay within a small multiple of the packed quotient: the suite's
    # residue division peaks at 2.28 times its size, where packing every
    # lane at once, as an earlier prototype did, reached 3.82 on the exact
    # tables
    sizes = []
    divide = macmahon.divide_coeffs

    def measured(a, b, bits, reduce):
        quotient = divide(a, b, bits, reduce)
        sizes.append(sys.getsizeof(quotient) + sum(map(sys.getsizeof, quotient)))
        return quotient

    monkeypatch.setattr(macmahon, "divide_coeffs", measured)
    tracemalloc.start()
    try:
        list(mo_andrews_rose_many(SUITE_MO_MODULI, 3000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (size,) = sizes
    assert peak < 3.4 * size


@settings(max_examples=25, deadline=None)
@given(
    st.dictionaries(st.integers(1, 12), st.one_of(st.sets(st.sampled_from((2, 3, 5, 7, 11, 13)), min_size=1).map(prod),
                                                  st.integers(2, 2**40)), max_size=5),
    st.integers(0, 400),
)
@example({}, 5)  # no t: nothing to divide
@example({1: 2, 2: 2}, 1)  # a zero-width slot under the top one
@example({10: 7, 3: 11}, 30)  # MO(10, n) = 0 for n < 55: its leading window passes the order
@example({2: 5, 1: 3, 4: 3, 6: 13}, 300)  # every prime divides 2t+1
@example({10: 11, 4: 11, 3: 7, 2: 5}, 129)  # the suite's moduli, one coefficient past a leaf
@example({1: 11, 2: 13, 3: 2, 5: 3}, 400)  # N_t = 33, 65, 14 pairwise coprime: one layer of three, then 33
def test_residue_theta_quotients_match_exact_tables(moduli, order):
    # each t's residue table from the one packed division equals its own
    # exact division and the strict multisum mod m_t; the tables come layer
    # by layer, each layer's ts in the map's order
    tables = list(mo_andrews_rose_many(moduli, order))
    assert [t for t, _ in tables] == [t for layer in coprime_layers(moduli) for t in layer]
    strict = multisums(max(moduli, default=0), order, strict=True)  # an independent route
    for t, values in tables:
        assert values == [v % moduli[t] for v in mo_andrews_rose(t, order).coeffs], t
        assert values == [v % moduli[t] for v in strict[t - 1].coeffs], t


@pytest.mark.parametrize("t, k, m, bump", [(2, 3, 5, 1), (4, 6, 11, 1), (3, 4, 5, 7), (10, 12, 11, 21)])
def test_a_planted_numerator_error_shows_in_the_residues(monkeypatch, t, k, m, bump):
    # the integer numerator C(k+t, 2t+1) + C(k+t+1, 2t+1) at q^T, T =
    # k(k+1)/2, is off by bump, which m does not divide (a multiple of 2t+1
    # at t = 3): theta's constant term is 1, so MO(t, T) moves by bump and
    # every earlier value stays, and the exact table through q^T and the
    # residue table both first differ from the strict multisum mod m at
    # q^T; later, bump times 1/theta outgrows the slot bound, so the exact
    # table at depth raises at a leaf that ends at or past q^T
    order, at = 600, k * (k + 1) // 2
    strict = [v % m for v in strict_multisum(t, order).coeffs]
    real = macmahon.comb
    # C(k+t+1, 2t+1) is also the first term at k + 1, past q^T
    monkeypatch.setattr(macmahon, "comb", lambda n, r: real(n, r) + bump * ((n, r) == (k + t + 1, 2 * t + 1)))
    ((_, values),) = mo_andrews_rose_many({t: m}, order)
    exact = [v % m for v in mo_andrews_rose(t, at).coeffs]
    for table in (exact, values):
        assert next(n for n, (a, b) in enumerate(zip(table, strict)) if a != b) == at
    with pytest.raises(ArithmeticError, match=r"needs more than its proved \d+ bits$") as raised:
        mo_andrews_rose(t, order)
    assert int(re.search(r"\.\.q\^(\d+) ", str(raised.value))[1]) >= at


def test_a_slot_bound_below_a_table_maximum_raises_at_a_leaf(monkeypatch, capsys):
    # an exact table is divided in Z at the width bits(mo_slot_bound), so a
    # bound one bit short of the table's maximum makes the first leaf that
    # solves a value past it raise: `coeffs` prints one error line naming
    # that leaf and no table, and exits 1; below LEAF the term loop checks
    # no width, so `verify` at order 40 still passes, with exact tables
    from macsums.cli import main

    top = max(strict_multisum(6, 3000).coeffs).bit_length()
    monkeypatch.setattr(macmahon, "mo_slot_bound", lambda t, order: (1 << (top - 1)) - 1)
    assert main(["coeffs", "--family", "MO", "--t", "6", "--n", "3000"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(rf"error: a quotient coefficient in q\^\d+\.\.q\^\d+ needs more than its proved {top - 1} bits\n",
                        err)
    assert main(["verify", "--id", "U-agreement", "--order", "40"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def crt(residues, moduli):
    """The x in [0, prod(moduli)) with x = r mod n for every pair, found by
    search: the reference for the layers' CRT."""
    x, step = 0, 1
    for r, n in zip(residues, moduli):
        while x % n != r % n:
            x += step
        step *= n
    return x


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers(1, 60), st.integers(1, 60), max_size=8))
@example({10: 11, 4: 11, 3: 7, 2: 5})  # the suite's m_t
@example({4: 231, 3: 99, 2: 49, 1: 25})  # two layers of two
def test_coprime_layers_are_a_first_fit_partition(moduli):
    layers = coprime_layers(moduli)
    order = list(moduli)
    assert sorted(t for layer in layers for t in layer) == sorted(moduli)  # each once
    for i, layer in enumerate(layers):
        assert layer == sorted(layer, key=order.index)  # in the map's order
        assert all(gcd(moduli[a], moduli[b]) == 1 for a in layer for b in layer if a != b)
        for t in layer:  # first fit: every earlier layer held a modulus sharing a prime with t's
            assert all(any(gcd(moduli[t], moduli[u]) > 1 for u in earlier if order.index(u) < order.index(t))
                       for earlier in layers[:i])


def test_suite_mo_layers_halve_the_packed_width():
    # {10, 3, 2} with L = 11 * 7 * 5 = 385 and {4} with L = 11: slots of 25
    # and 20 bits at order 20000, where one slot per t took 79 bits
    layers = coprime_layers(SUITE_MO_MODULI)
    assert layers == [[10, 3, 2], [4]]
    spread = 1 + sum(map(abs, theta_moment(1, 20000).coeffs[1:]))
    products = [prod(SUITE_MO_MODULI[t] for t in layer) for layer in layers]
    assert products == [385, 11]
    assert [(L * spread).bit_length() + 1 for L in products] == [25, 20]
    assert sum((n * spread).bit_length() + 1 for n in SUITE_MO_MODULI.values()) == 79


def test_residue_slots_hold_every_leaf_value(monkeypatch):
    # each leaf's packed value is the sum of each layer's signed slot value
    # v shifted into place, and |v| < 2^(w - 1) for w = bits(L (1 + S)) + 1,
    # L the product of the layer's m_t: v is recomputed from the integer
    # numerators and the yielded residues, each combined over its layer by CRT
    moduli, order = SUITE_MO_MODULI, 1000
    seen = []
    divide = macmahon.divide_coeffs

    def recording(a, b, bits, reduce):
        return divide(a, b, bits, lambda c: (seen.append(c), reduce(c))[1])

    monkeypatch.setattr(macmahon, "divide_coeffs", recording)
    tables = dict(mo_andrews_rose_many(moduli, order))
    terms = [(i, c) for i, c in enumerate(theta_moment(1, order).coeffs) if i and c]
    spread = 1 + sum(abs(c) for _, c in terms)
    packed, shift = [0] * (order + 1), 0
    for layer in ([4], [10, 3, 2]):  # the bottom slot first
        ns = [moduli[t] for t in layer]
        w = (prod(ns) * spread).bit_length() + 1
        solved = [crt([tables[t][n] for t in layer], ns) for n in range(order + 1)]
        numerators = [[0] * (order + 1) for _ in layer]
        for row, t in zip(numerators, layer):
            for k in range(t, order + 1):
                if k * (k + 1) // 2 > order:
                    break
                row[k * (k + 1) // 2] = (-1) ** (k + t) * (comb(k + t, 2 * t + 1) + comb(k + t + 1, 2 * t + 1))
        v = [crt(column, ns) for column in zip(*numerators)]
        for m in range(order + 1):
            v[m] -= sum(c * solved[m - i] for i, c in terms if i <= m)
        largest = max(map(abs, v))
        assert largest < 1 << (w - 1), layer
        assert largest.bit_length() > w - 8, layer  # the bound is not far off
        packed = [p + (x << shift) for p, x in zip(packed, v)]
        shift += w
    assert seen == packed


SUITE_M_MODULI = {10: 35, 9: 7, 7: 5, 6: 3, 5: 5, 4: 3, 3: 21, 2: 35, 1: 21}  # lcm of each t's claim primes
WIDE_M_MODULI = {3: 2147483647 * 2147483629 * 2147483587, 1: 2147483647, 2: 35}  # about 2^93 at t = 3
MODULI = st.one_of(st.sets(st.sampled_from((2, 3, 5, 7, 11, 13)), min_size=1).map(prod),
                   st.sampled_from((4, 9, 25, 27, 45, 49)))


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.integers(1, 12), MODULI, min_size=1, max_size=5), st.integers(0, 400),
       st.integers(1, 16), st.sampled_from((None, -1, 0)))
@example(SUITE_M_MODULI, 400, 1, None)  # the suite's moduli
def test_residue_single_sums_match_exact_tables(moduli, order, k, edge):
    # K, the number of terms, grows at the order C(k,2) + k lo: besides any
    # order in 0..400, draw orders on both sides of such an edge
    if edge is not None:
        order = k * (k - 1) // 2 + min(moduli) * k + edge
    tables = list(m_single_sum_many(moduli, order))
    assert [t for t, _ in tables] == list(moduli)
    for t, values in tables:
        assert values == [v % moduli[t] for v in m_single_sum(t, order).coeffs], t  # each in [0, m_t)


@pytest.mark.parametrize("lo, K", [(1, 1), (1, 3), (2, 3), (3, 4), (5, 2), (10, 5)])
def test_term_count_takes_a_last_term_that_lands_on_the_order(lo, K):
    # at order C(K,2) + lo K term K's first weight, 1, lands on q^order
    # itself, so K terms count there and K - 1 one below; the exact and the
    # residue single sums both need it to match the weak multisum
    order = K * (K - 1) // 2 + lo * K
    assert (macmahon._term_count(lo, order), macmahon._term_count(lo, order - 1)) == (K, K - 1)
    weak = weak_multisum(lo, order).coeffs
    assert m_single_sum(lo, order).coeffs == weak
    ((_, values),) = m_single_sum_many({lo: 7}, order)
    assert values == [v % 7 for v in weak]


def test_residue_single_sum_slot_holds_twice_the_bias():
    # t's slot holds K m_t + v with 0 < v for t = 1 (M(1, n) = sigma(n),
    # below m_t), so it needs bits(2 K m_t): with m_t = (2^b - 1) // K, K m_t
    # fits one machine word and the slot value does not, and t = 1's slot
    # spans two words under t = 2's
    order, b = 200, 8 * array("I").itemsize
    K = macmahon._term_count(1, order)
    moduli = {1: ((1 << b) - 1) // K, 2: 35}
    assert (K * moduli[1]).bit_length() <= b < (2 * K * moduli[1]).bit_length()
    tables = dict(m_single_sum_many(moduli, order))
    for t, m in moduli.items():
        assert tables[t] == [v % m for v in m_single_sum(t, order).coeffs], t


def single_sum_slot_spans(monkeypatch, moduli):
    """Check the pass's packed list against slots rebuilt from the weights,
    and return the number of machine words each t's slot spans.

    The list holds each t's slot value K m_t + v in the s_t machine words
    from t's first word on, for |v| <= K (m_t - 1) and the K terms the pass
    makes: each slot value lies in [0, 2 K m_t), and s_t is the fewest words
    that hold 2 K m_t.  v is recomputed term by term from the weights mod m_t."""
    order, seen = 1000, []
    real = macmahon._single_sum_pass

    def recording(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(macmahon, "_single_sum_pass", recording)
    tables = dict(m_single_sum_many(moduli, order))
    (out,) = seen
    lo = min(moduli)
    terms = [k for k in range(1, order + 1) if k * (k - 1) // 2 + k * lo <= order]
    K, b = len(terms), 8 * array("I").itemsize
    packed, at, spans = [0] * (order + 1), 0, []
    for t, m in moduli.items():
        weights = [w % m for w in single_sum_weights(t, order + 1)]
        v = [0] * (order + 1)
        for k in terms:
            for n, w in zip(range(k * (k - 1) // 2 + k * t, order + 1, k), weights):
                v[n] += w if k % 2 else -w
        assert max(map(abs, v)) <= K * (m - 1), t
        assert [x % m for x in v] == tables[t], t
        slot = [K * m + x for x in v]
        assert 0 <= min(slot) and max(slot) < 2 * K * m, t
        spans.append(-(-(2 * K * m).bit_length() // b))
        packed = [p + (x << (b * at)) for p, x in zip(packed, slot)]
        at += spans[-1]
    assert out == packed
    return spans


def test_residue_single_sum_slots_hold_every_signed_value(monkeypatch):
    assert max(single_sum_slot_spans(monkeypatch, SUITE_M_MODULI)) == 1


def test_wide_residue_single_sum_slots_span_several_words(monkeypatch):
    # m_t near 2^93 at t = 3 takes four words on the same path
    assert max(single_sum_slot_spans(monkeypatch, WIDE_M_MODULI)) == 4


@pytest.mark.parametrize("t", range(1, 11))
def test_residue_weights_match_exact_weights(t):
    exact = single_sum_weights(t, 3000)
    for m in [*range(1, 60), 385, 5775]:
        assert single_sum_weights_mod(t, 3000, m) == [w % m for w in exact], m


def test_suite_weights_tile_their_lucas_periods(monkeypatch):
    # m_t is split into its prime powers for the primes <= 2t - 1 and the
    # cofactor, and each part q is tiled from its own first proved
    # candidate q^e: the suite's moduli, and the M prospect's 385, which
    # gets the periods 1925 at t = 3 and 13475 at t = 4, 5 where no power
    # of 385 was proved below 20000
    proved = []
    real = macmahon._proved_tile

    def recording(t, count, q):
        tile = real(t, count, q)
        proved.append((q, len(tile)))
        return tile

    monkeypatch.setattr(macmahon, "_proved_tile", recording)
    periods = {}
    for t, m in [*SUITE_M_MODULI.items(), *((t, 385) for t in range(1, 7))]:
        proved.clear()
        single_sum_weights_mod(t, 20000, m)
        periods[t, m] = proved[:]
    assert periods == {
        (10, 35): [(5, 25), (7, 49)], (9, 7): [(7, 49)], (7, 5): [(5, 25)], (6, 3): [(3, 27)],
        (5, 5): [(5, 25)], (4, 3): [(3, 9)], (3, 21): [(3, 9), (7, 7)], (2, 35): [(35, 35)], (1, 21): [(21, 21)],
        (1, 385): [(385, 385)], (2, 385): [(385, 385)], (3, 385): [(5, 25), (77, 77)],
        (4, 385): [(5, 25), (7, 49), (11, 11)], (5, 385): [(5, 25), (7, 49), (11, 11)],
        (6, 385): [(5, 25), (7, 49), (11, 121)],
    }
    assert math.lcm(25, 77) == 1925 and math.lcm(25, 49, 11) == 13475


def test_weight_cofactors_are_never_factored(monkeypatch):
    # trial division stops at 2t - 1: a product of primes past it is one
    # part, and so is a prime power times it only past the small primes
    assert macmahon._prime_power_parts(2147483647 * 2147483629, 5) == [2147483647 * 2147483629]
    assert macmahon._prime_power_parts(4 * 27 * 11 * 13, 11) == [4, 27, 11, 13]
    assert macmahon._prime_power_parts(4 * 27 * 11 * 13, 9) == [4, 27, 143]
    assert macmahon._prime_power_parts(1, 5) == []


@pytest.mark.parametrize("t, m, bad, good", [
    (2, 5, 6, 5), (3, 21, 440, 441), (6, 3, 3, 27), (10, 35, 35, 1225), (1, 21, 20, 21), (2, 21, 14, 441),
])
def test_a_candidate_period_that_fails_the_check_is_never_tiled(monkeypatch, t, m, bad, good):
    # tiling `bad` would give wrong residues.  Offered as each part's only
    # candidate it is refused at the first part, and the exact weights below
    # count are reduced; offered before `good`, which every part proves, it
    # is refused by the first part, which tiles `good`, and no part falls
    # back to exact weights (14 is a true period mod 7).  With g(j) =
    # w(j + bad) - w(j) and r = 2t - 1, bad = 3 at t = 6, m = 3 (the suite's
    # natural first candidate) fails only at g(6): the check needs all of
    # g(0..r-1)
    count, r = 3000, 2 * t - 1
    exact = [w % m for w in single_sum_weights(t, count)]
    assert (exact[:bad] * (count // bad + 1))[:count] != exact
    built = []
    real = macmahon.single_sum_weights
    monkeypatch.setattr(macmahon, "single_sum_weights", lambda t, n: built.append(n) or real(t, n))
    for candidates in ([bad], [bad, good]):
        built.clear()
        monkeypatch.setattr(macmahon, "_period_candidates", lambda m, r, count: iter(candidates))
        assert single_sum_weights_mod(t, count, m) == exact, candidates
        assert built[:2] == [bad + r, count if candidates == [bad] else good + r], candidates
        assert (count in built) == (candidates == [bad]), candidates


def test_coefficient_table_names_the_first_non_integer(monkeypatch):
    # a route's exact division raises at the first coefficient it cannot divide
    monkeypatch.setitem(macmahon.M_FORMULAS, "non-integral", lambda t, order: Series([0, 0, 2, 1, 1], order) / 2)
    with pytest.raises(ArithmeticError, match=r"^non-integer coefficient 1/2 at q\^3$"):
        coefficient_table("M", 1, 4, "non-integral")


def test_a_value_below_the_leading_window_is_an_arithmetic_error(monkeypatch, capsys):
    # a nonzero coefficient planted at q^(window - 1), in an exact route
    # reached through the formula table and in a packed residue pass: both
    # table paths raise naming family(t,n), and `coeffs` prints one error
    # line and exits 1
    from macsums.cli import main

    def single_sum_with_plant(t, order):
        table = m_single_sum(t, order)
        table.coeffs[t - 1] = 1  # M(t, n) starts at n = t
        return table

    monkeypatch.setitem(M_FORMULAS, "single-sum", single_sum_with_plant)
    with pytest.raises(ArithmeticError, match=r"^M\(3,2\) = 1 below the minimal partition size$"):
        coefficient_table("M", 3, 20)
    assert main(["coeffs", "--family", "M", "--t", "3", "--n", "20"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: M(3,2) = 1 below the minimal partition size\n")

    real = macmahon.mo_andrews_rose_many

    def packed_with_plant(moduli, order):
        for t, values in real(moduli, order):
            if t == 3:
                values[5] = 1  # MO(3, n) starts at n = 6
            yield t, values

    monkeypatch.setattr(macmahon, "mo_andrews_rose_many", packed_with_plant)
    with pytest.raises(ArithmeticError, match=r"^MO\(3,5\) = 1 below the minimal partition size$"):
        list(macmahon.residue_tables("MO", {2: 5, 3: 7}, 20))


def test_slot_bound_dominates_every_theta_quotient_coefficient():
    # sigma(m) <= m P/phi(P), P the product of the most smallest primes
    # whose product is <= N, bounds every MO(t, n), n <= N
    strict = multisums(10, 1000, strict=True)
    for t in range(1, 11):
        quotients = strict[t - 1].coeffs
        assert mo_slot_bound(t, 1000) >= max(quotients), t
        assert all(mo_slot_bound(t, n) >= c for n, c in enumerate(quotients)), t
    for t in (2, 3, 4):
        quotients = mo_andrews_rose(t, 5000).coeffs
        assert all(mo_slot_bound(t, n) >= c for n, c in enumerate(quotients)), t
    # the bounds at order 20000 of the benchmark's exact table, t = 6, and
    # of the suite's ts, which size their exact tables' lanes
    assert [mo_slot_bound(t, 20000).bit_length() for t in (6, 4, 3, 2)] == [137, 93, 69, 44]


def test_slot_bound_holds_where_its_prime_count_steps():
    # the number of smallest primes whose product is <= n steps at the
    # primorials 2, 6, 30, 210 and 2310: on either side of each, the bound
    # at n dominates MO(t, m) for every m <= n
    strict = multisums(10, 3000, strict=True)
    for n in (0, 1, 2, 5, 6, 29, 30, 209, 210, 2309, 2310, 3000):
        for t in range(1, 11):
            assert mo_slot_bound(t, n) >= max(strict[t - 1].coeffs[: n + 1]), (t, n)


def test_strict_multisum_matches_brute_force():
    for t in (1, 2, 3):
        assert strict_multisum(t, 14).coeffs == brute_multisum(t, 14, strict=True)


def test_m_2_4_is_14_via_all_four_routes():
    expected = two_size_partition_weight(4)
    assert expected == 14
    for name, formula in M_FORMULAS.items():
        assert formula(2, 10)[4] == 14, name


def test_t1_routes_give_divisor_sums():
    s = sigma_series(1, 30)
    for formula in M_FORMULAS.values():
        assert formula(1, 30) == s
    for formula in MO_FORMULAS.values():
        assert formula(1, 30) == s


def test_strict_family_small_values():
    u2 = strict_multisum(2, 12)
    assert u2.coeffs[:4] == [0, 0, 0, 1]  # first strict pair is (1, 2)
    for n in range(3):
        assert u2[n] == 0


def test_strict_family_mod5_progression():
    u2 = strict_multisum(2, 51)
    for n in range(11):
        assert u2[5 * n + 1] % 5 == 0


def test_excess_of_weak_over_strict():
    n = 40
    lhs = weak_multisum(2, n) - strict_multisum(2, n)
    rhs = Series.zero(n)
    for k in range(1, n // 2 + 1):
        rhs = rhs + geometric_pow(k, 4, n).shift(2 * k)
    assert lhs == rhs


def test_single_sum_small_coefficients():
    assert m_single_sum(1, 10)[6] == 12  # sigma_1(6)
    assert m_single_sum(2, 10)[4] == 14


def test_single_sum_equals_multisum_to_50():
    for t in (1, 2, 3, 4):
        assert m_single_sum(t, 50) == weak_multisum(t, 50)


def test_conjugate_form_equals_multisum():
    for t in (1, 2, 3):
        assert m_conjugate_form(t, 40) == weak_multisum(t, 40)


def test_conjugate_form_values():
    assert m_conjugate_form(2, 10)[4] == 14
    assert m_conjugate_form(1, 30) == sigma_series(1, 30)


def test_andrews_rose_matches_multisum():
    for t in (1, 2, 3, 4):
        assert mo_andrews_rose(t, 50) == strict_multisum(t, 50)


def test_andrews_rose_prefix():
    assert mo_andrews_rose(1, 6).coeffs == [0, 1, 3, 4, 7, 6, 12]


def test_andrews_rose_mod11_progression():
    u4 = mo_andrews_rose(4, 11 * 8 + 7)
    for n in range(9):
        assert u4[11 * n + 6] % 11 == 0


def test_umbral_route_matches_multisum():
    # at order 200, past LEAF, the theta quotient packs at MO's proved width
    for t in (1, 2, 3):
        assert mo_umbral(t, 40) == strict_multisum(t, 40)
    for t in (1, 2, 3, 4):
        assert mo_umbral(t, 200) == strict_multisum(t, 200)


def test_umbral_route_t1_theta_quotient():
    # -(J_3 - J_1) / (24 J_1) is the divisor-sum series
    n = 30
    j1 = theta_moment(1, n)
    j3 = theta_moment(3, n)
    lhs = (j3 - j1) / j1 / -24
    assert lhs == sigma_series(1, n)
    assert lhs == mo_umbral(1, n)


def test_umbral_minimal_coefficient_is_one():
    for t in (1, 2, 3, 4):
        assert mo_umbral(t, t * (t + 1) // 2)[t * (t + 1) // 2] == 1


def test_recurrence_routes():
    for t in (1, 2, 3, 4):
        assert mo_recurrence(t, 50) == strict_multisum(t, 50)
        assert m_recurrence(t, 50) == weak_multisum(t, 50)
    assert mo_recurrence(2, 10)[3] == 1
    for t in (1, 2, 3):
        assert mo_from_m(t, 40) == strict_multisum(t, 40)


def test_u4_closed_form_to_40():
    lhs, rhs = CLOSED_FORMS["U4_sigma"](40)
    assert lhs == rhs


def test_symmetric_relation():
    for t in (1, 2, 3, 4):
        acc, zero = symmetric_relation_sides(t, 40)
        assert acc == zero, t


def test_weak_recurrence_restated():
    # the weak series is also (1 - E2)/24 at t = 1
    n = 40
    assert weak_multisum(1, n) == (Series.one(n) - eisenstein("E2", n)) / 24


def test_all_closed_forms_pass_at_50():
    for which in CLOSED_FORMS:
        lhs, rhs = CLOSED_FORMS[which](50)
        assert lhs == rhs, which


def test_sigma1_convolution_value_at_4():
    # 12*(s1(1)s1(3) + s1(2)^2 + s1(3)s1(1)) = 204 = 5*73 + 7 - 24*7
    s = sigma_series(1, 6)
    conv4 = sum(s[j] * s[4 - j] for j in range(1, 4))
    assert 12 * conv4 == 204
    assert 5 * 73 + 7 - 24 * 7 == 204


def test_excess_coefficient_q2():
    lhs, rhs = CLOSED_FORMS["excess_V2U2"](10)
    assert lhs == rhs
    lhs = weak_multisum(2, 4) - strict_multisum(2, 4)
    assert lhs[2] == 1  # (sigma_3(2) - sigma_1(2))/6 = 1


def test_jacobi_specializations():
    assert failed_cases("jacobi-specialization", 30, c=(4, 2, 1)) == []


def test_jacobi_specializations_at_order_60():
    assert failed_cases("jacobi-specialization", 60, c=(4, 2, 1)) == []


def test_jacobi_weak_sum_shares_chain_levels(monkeypatch):
    # one suffix pass serves every n; building each weak_multisum(n) afresh
    # takes over 5000 products
    calls = count_products(monkeypatch)
    jacobi_weak_sum_side(4, 40)
    assert 0 < len(calls) < 300


def test_jacobi_sides_are_nontrivial():
    prod = jacobi_product_side(4, 12)
    assert prod != Series.zero(12) and prod[0] == 1
    assert jacobi_theta_side(2, 12)[0] == 1
    assert jacobi_weak_sum_side(1, 12)[0] == 1


@pytest.mark.parametrize("c", [4, 2, 1])
def test_jacobi_product_steps_are_each_load_bearing(monkeypatch, c):
    # the theta side keeps its own denominators, so a corrupted step of the
    # product table fails the product against the theta sum
    steps = identities._JACOBI_PRODUCT_STEPS[c]
    for i, (j, r) in enumerate(steps):
        for bad in ((j + 1, r), (j, -r)):
            monkeypatch.setitem(identities._JACOBI_PRODUCT_STEPS, c, steps[:i] + (bad,) + steps[i + 1 :])
            (report,) = registry.run_identity("jacobi-specialization", {"c": [c]}, 30)
            assert not report.passed and report.note == "product vs theta", (i, bad)
    monkeypatch.setitem(identities._JACOBI_PRODUCT_STEPS, c, steps)
    assert failed_cases("jacobi-specialization", 30, c=[c]) == []


@pytest.mark.parametrize("c", [4, 2, 1])
def test_jacobi_theta_steps_are_each_load_bearing(monkeypatch, c):
    # the product side keeps its own step table, so a corrupted step of the
    # theta table fails the product against the theta sum
    steps = identities._JACOBI_THETA_STEPS[c]
    for i, (j, r) in enumerate(steps):
        for bad in ((j + 1, r), (j, -r)):
            monkeypatch.setitem(identities._JACOBI_THETA_STEPS, c, steps[:i] + (bad,) + steps[i + 1 :])
            (report,) = registry.run_identity("jacobi-specialization", {"c": [c]}, 30)
            assert not report.passed and report.note == "product vs theta", (i, bad)
    monkeypatch.setitem(identities._JACOBI_THETA_STEPS, c, steps)
    assert failed_cases("jacobi-specialization", 30, c=[c]) == []


def test_conjugate_chain_supports_weak_family():
    for t in (1, 2, 3):
        assert conjugate_chain_m_form(t, 30) == weak_multisum(t, 30)
        (r,) = registry.run_identity("conjugate-chain", {"t": [t]}, 30)
        assert r.passed and "weak" in r.note


def test_conjugate_chain_matching_the_strict_family_names_both_coefficients(monkeypatch):
    # such a chain fails against the weak family, and like every other
    # failure its report names the two coefficients where they differ
    monkeypatch.setattr(macmahon, "conjugate_chain_m_form", strict_multisum)
    (r,) = registry.run_identity("conjugate-chain", {"t": [2]}, 30)
    strict, weak = strict_multisum(2, 30), weak_multisum(2, 30)
    at = strict.first_mismatch(weak)
    assert (r.passed, r.mismatch_at, r.lhs, r.rhs) == (False, at, str(strict[at]), str(weak[at]))
    assert r.note == "chain matches the strict (MO-family) series, not the weak one"


def test_coefficient_table_basics():
    tab = coefficient_table("M", 2, 20)
    assert tab[4] == 14
    assert tab.provenance == "single-sum"
    with pytest.raises(ValueError):
        coefficient_table("X", 1, 5)
    with pytest.raises(ValueError):
        coefficient_table("M", 1, 5, "made-up")
    for family, t, order in (("M", 2, -1), ("M", 1, -1), ("MO", 3, -5)):  # the zero-table shortcut too
        with pytest.raises(ValueError, match="order >= 0"):
            coefficient_table(family, t, order)


def test_coefficient_tables_nonnegative_and_ordered():
    for t in (1, 2, 3):
        m = coefficient_table("M", t, 40, "multisum")
        mo = coefficient_table("MO", t, 40, "multisum")
        for n in range(41):
            assert m[n] >= mo[n] >= 0


def test_support_windows():
    mo = coefficient_table("MO", 3, 20)
    assert all(mo[n] == 0 for n in range(6))
    assert mo[6] == 1
    m = coefficient_table("M", 3, 20)
    assert all(m[n] == 0 for n in range(3))
    assert m[3] == 1
