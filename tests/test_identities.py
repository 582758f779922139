"""Tests for the finite identity catalog: the triplet, the Dilcher-type
sums, the rational specializations, and the certificate checks."""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import IntPoly, failed_cases, q_binomial, q_factorial, q_int
from macsums import registry
from macsums.identities import (
    _one_minus_q,
    _one_plus,
    _q_factorial,
    _q_int,
    _qbin,
    _term,
    _wz52_G,
    _wz53_G,
    atid_b_sides,
    dilcher_sides,
    harmonic_multisum,
    harmonic_paired_sum,
    harmonic_single_sum,
    harmonic_single_sum_alt,
    mss_precursor_sides,
    mss_sides,
    qbin_difference_failure,
    wz_cor52_failure,
    wz_cor53_failure,
    wz_lemma51_failure,
)
from macsums.macmahon import weak_multisum
from macsums.rational import (
    _master_lhs,
    rational_hypothesis_sides,
    rational_master_sides,
    rational_triplet_sums,
    wz_cor32_failure,
    wz_master_failure,
)
from macsums.series import Series, over_geometric_coeffs
from paper_checks import certify_rational_equality, gbinom, master_lemma_sides, triplet_degree_bound

HALF = Fraction(1, 2)
SEVEN_THIRDS = Fraction(7, 3)


def test_initial_values_vanish():
    for t in (1, 2, 3):
        assert harmonic_multisum(t, 0, 20) == Series.zero(20)
        assert harmonic_single_sum(t, 0, 20) == Series.zero(20)
        assert harmonic_paired_sum(t, 0, 20) == Series.zero(20)


def test_initial_values_at_n1_are_monomials():
    # all three sums collapse to the plain monomial q^t at n = 1, since
    # every q-integer involved is [1]_q = 1 or cancels
    for t in (1, 2, 3):
        mono = Series.monomial(1, t, 20)
        assert harmonic_multisum(t, 1, 20) == mono
        assert harmonic_single_sum(t, 1, 20) == mono
        assert harmonic_paired_sum(t, 1, 20) == mono


def test_triplet_equality_grid():
    assert failed_cases("theorem-FGH", 40, t=(1, 2, 3), n=(1, 2, 3, 4)) == []


def test_triplet_recurrences():
    # each case checks the multisum, the single sum and the paired sum in turn
    assert failed_cases("FGH-recurrence", 30, t=(1, 2), n=(1, 2, 3)) == []


def test_single_sum_two_forms_agree():
    assert failed_cases("G-forms", 40, t=(1, 2, 3), n=(1, 2, 3)) == []


def test_multisum_converges_to_weak_family():
    # dividing out (1-q)^(2t) recovers the infinite weak multisum up to q^n
    t, n, order = 2, 12, 12
    f = harmonic_multisum(t, n, order)
    v = weak_multisum(t, order)
    recovered = Series(over_geometric_coeffs(f.coeffs, 1, 2 * t), order)
    assert recovered.agrees(v, upto=n)


def test_certify_rational_equality():
    t, n = 1, 1
    # both sides are q/(1-q)^2 after clearing, so bound 2 is honest
    f = harmonic_multisum(t, n, 5)
    g = harmonic_single_sum(t, n, 5)
    assert certify_rational_equality(f, g, 2)

    b = triplet_degree_bound(2, 2)
    order = 2 * b + 1
    assert certify_rational_equality(
        harmonic_multisum(2, 2, order), harmonic_single_sum(2, 2, order), b
    )


def test_certify_requires_enough_coefficients():
    with pytest.raises(ValueError):
        certify_rational_equality(Series.one(5), Series.one(5), 10)


def test_certify_adversarial_bound():
    # two series that differ only beyond 2B+1 are accepted at bound B:
    # that is the caller's contract, not a defect of the check
    b = 3
    good = Series.one(2 * b + 2)
    bad = Series.one(2 * b + 2) + Series.monomial(1, 2 * b + 2, 2 * b + 2)
    assert certify_rational_equality(good, bad, b)
    assert not good.agrees(bad)


def test_dilcher_identity_grid():
    assert failed_cases("dilcher", 50, t=(1, 2, 3, 4), n=(1, 2, 3, 4)) == []


def test_dilcher_t1_n1_is_q():
    lhs, rhs = dilcher_sides(1, 1, 10)
    assert lhs == Series.monomial(1, 1, 10)
    assert rhs == Series.monomial(1, 1, 10)


def test_dilcher_rational_specialization():
    # at q = 1: alternating sum of C(n,k)/k^t equals the multiple harmonic sum
    from itertools import combinations_with_replacement
    from math import comb

    for t in (1, 2, 3):
        for n in range(1, 7):
            lhs = Fraction(0)
            for k in range(1, n + 1):
                term = Fraction(comb(n, k), k**t)
                lhs += term if k % 2 else -term
            rhs = Fraction(0)
            for tup in combinations_with_replacement(range(1, n + 1), t):
                den = 1
                for k in tup:
                    den *= k
                rhs += Fraction(1, den)
            assert lhs == rhs


def test_mss_identity_grid():
    assert failed_cases("mss", 40, t=(1, 2, 3), n=(1, 2, 3), x=(0, 1, 2)) == []


def test_mss_x0_reduces_to_dilcher():
    for t in (1, 2):
        for n in (1, 2, 3):
            m_lhs, m_rhs = mss_sides(t, n, 0, 30)
            d_lhs, d_rhs = dilcher_sides(t, n, 30)
            assert m_lhs == d_lhs
            assert m_rhs == d_rhs


def test_mss_precursor_inverse_pair_reading():
    (r,) = registry.run_identity("mss-precursor", {"t": [1], "n": [2], "x": [1]}, 40)
    assert r.passed
    assert "fails" in r.note  # the literal printed form does not hold
    assert failed_cases("mss-precursor", 40, t=(1, 2), n=(1, 2, 3), x=(0, 1, 2)) == []


def test_mss_precursor_printed_form_fails():
    lhs, rhs = mss_precursor_sides(1, 2, 1, 40, reading="printed")
    assert not lhs.agrees(rhs)


def test_atid_b_grid():
    assert failed_cases("atidB", 40, t=[1], n=[2], x=[0]) == []
    assert failed_cases("atidB", 40, t=(1, 2, 3), n=(1, 2, 3), x=(0, 1, 2)) == []


def test_atid_b_x0_reduces_to_paired_structure():
    # at x = 0 the right side is the 2t-fold multisum with plain q-integers
    lhs, rhs = atid_b_sides(2, 3, 0, 30)
    assert lhs == rhs


def test_cor52_grid():
    assert failed_cases("cor52", 40, t=[1], n=[2], x=[1], z=[1]) == []
    assert failed_cases("cor52", 40, t=(1, 2), n=(1, 2, 3), x=(0, 1), z=(0, 1)) == []


def test_cor53_grid():
    assert failed_cases("cor53", 40, t=[2], n=[3], z=[1]) == []
    assert failed_cases("cor53", 40, t=(1, 2, 3), n=(1, 2, 3), z=(0, 1, 2)) == []


# ---------------------------------------------------------------------------
# rational identities


def test_rational_master_reduces_at_zero():
    lhs, rhs = rational_master_sides(2, 3, 0, 0)
    assert lhs == rhs


def test_rational_master_single_term():
    lhs, rhs = rational_master_sides(1, 1, HALF, Fraction(1, 3))
    assert lhs == rhs
    # explicit value: a_1/(z+1) with a_1 = 1/(x+1)
    assert lhs == Fraction(1) / ((HALF + 1) * (Fraction(1, 3) + 1))


def test_rational_master_grid():
    for t in (1, 2, 3, 4):
        for n in (1, 2, 4, 6, 8):
            for z in (0, 1, 2, HALF, SEVEN_THIRDS):
                for x in (0, 1, HALF, SEVEN_THIRDS):
                    lhs, rhs = rational_master_sides(t, n, z, x)
                    assert lhs == rhs, (t, n, z, x)


def test_rational_master_pole_detection():
    with pytest.raises(ValueError, match="pole"):
        rational_master_sides(1, 3, -2, 0)


def test_master_lemma_with_random_sequences():
    import random

    rng = random.Random(5150)
    for _ in range(100):
        n = rng.randrange(1, 7)
        t = rng.randrange(1, 4)
        z = Fraction(rng.randrange(0, 5), rng.choice((1, 2, 3)))
        a = [Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(n)]
        lhs, rhs = master_lemma_sides(t, n, z, a)
        assert lhs == rhs


def test_rational_hypothesis():
    for n in range(1, 7):
        for x in (HALF, 2, SEVEN_THIRDS):
            lhs, rhs = rational_hypothesis_sides(n, x)
            assert lhs == rhs, (n, x)


def test_rational_triplet_limit():
    assert failed_cases("rational-FGH-limit", 40, t=(1, 2, 3), n=range(1, 7)) == []


# Tuple-walk oracles for the q = 1 chain sums: every weak t-tuple of parts in
# 1..n is visited once, and every pole the library rejects raises ValueError.


def _oracle_poles(n, z, x=None):
    for k in range(1, n + 1):
        if z + k == 0 or (x is not None and x + k == 0):
            raise ValueError("pole")


def oracle_master_lemma_rhs(t, n, z, a):
    z = Fraction(z)
    _oracle_poles(n, z)
    b = [
        sum((-1) ** (k - 1) * comb(m, k) * Fraction(a[k - 1]) for k in range(1, m + 1))
        for m in range(1, n + 1)
    ]
    rhs = Fraction(0)
    for tup in combinations_with_replacement(range(1, n + 1), t):
        den = Fraction(1)
        for k in tup:
            den *= z + k
        rhs += b[tup[0] - 1] * gbinom(z + tup[0], tup[0]) / den
    denom = gbinom(z + n, n)
    if denom == 0:
        raise ValueError("pole")
    return rhs / denom


def oracle_rational_master_rhs(t, n, z, x):
    z, x = Fraction(z), Fraction(x)
    _oracle_poles(n, z, x)
    if any(gbinom(x + k, k) == 0 for k in range(1, n + 1)) or gbinom(z + n, n) == 0:
        raise ValueError("pole")
    rhs = Fraction(0)
    for tup in combinations_with_replacement(range(1, n + 1), t):
        den = x + tup[0]
        for k in tup:
            den *= z + k
        rhs += tup[0] * gbinom(z + tup[0], tup[0]) / den
    return rhs / gbinom(z + n, n)


def oracle_triplet_multisums(t, n):
    s1 = Fraction(0)
    for tup in combinations_with_replacement(range(1, n + 1), t):
        den = 1
        for k in tup:
            den *= k * k
        s1 += Fraction(1, den)
    s3 = Fraction(0)
    for tup in combinations_with_replacement(range(1, n + 1), 2 * t):
        den = n + tup[0]
        for k in tup[1:]:
            den *= k
        s3 += Fraction(2, den)
    return s1, s3


# small rationals, with the negative integers that hit the poles z + k = 0,
# x + k = 0 and C(z+n, n) = 0
q1_param = st.one_of(
    st.integers(-7, 4),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 3)),
)


def _sides_or_pole(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return "pole"


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(0, 7), q1_param, q1_param)
def test_rational_master_rhs_matches_tuple_walk(t, n, z, x):
    got = _sides_or_pole(rational_master_sides, t, n, z, x)
    want = _sides_or_pole(oracle_rational_master_rhs, t, n, z, x)
    assert (got if got == "pole" else got[1]) == want


def oracle_rational_master_lhs(t, n, z, x):
    z, x = Fraction(z), Fraction(x)
    _oracle_poles(n, z, x)
    lhs = Fraction(0)
    for k in range(1, n + 1):
        bk = gbinom(x + k, k)
        if bk == 0:
            raise ValueError("pole")
        lhs += (-1) ** (k - 1) * comb(n, k) / ((z + k) ** t * bk)
    return lhs


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4), st.integers(0, 7), q1_param, q1_param)
def test_rational_master_lhs_matches_gbinom_single_sum(t, n, z, x):
    if t == 0:
        # the seed identity's lhs, where z drops out; the master sides need t >= 1
        z = 0
        got = _sides_or_pole(_master_lhs, 0, n, Fraction(0), Fraction(x))
    else:
        got = _sides_or_pole(rational_master_sides, t, n, z, x)
        got = got if got == "pole" else got[0]
    assert got == _sides_or_pole(oracle_rational_master_lhs, t, n, z, x)


@pytest.mark.parametrize("t", [0, -1])
def test_master_sides_need_a_chain_of_length_at_least_one(t):
    # t = 0 used to run the t = 1 chain on the rhs: lhs 3/4 against rhs 23/48
    with pytest.raises(ValueError, match="t must be >= 1"):
        rational_master_sides(t, 3, 1, 1)
    with pytest.raises(ValueError, match="t must be >= 1"):
        master_lemma_sides(t, 2, 1, [1, 2])


FRACTION_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
    "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__", "__pow__", "__rpow__", "__neg__", "__pos__",
    "__abs__",
)


def test_rational_master_runs_on_integers(monkeypatch):
    # both sides are integer numerators over one denominator, reduced once;
    # summing term by term in Fraction takes 375 operator calls at these arguments
    calls = []

    def counted(fn):
        def op(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return op

    for name in FRACTION_OPERATORS:
        monkeypatch.setattr(Fraction, name, counted(getattr(Fraction, name)))
    lhs, rhs = rational_master_sides(4, 8, Fraction(7, 3), Fraction(1, 2))
    monkeypatch.undo()
    assert len(calls) <= 40, calls
    assert lhs == rhs == oracle_rational_master_lhs(4, 8, Fraction(7, 3), Fraction(1, 2))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(0, 7).flatmap(lambda n: st.lists(q1_param, min_size=n, max_size=n)),
    q1_param,
)
def test_master_lemma_rhs_matches_tuple_walk(t, a, z):
    n = len(a)
    got = _sides_or_pole(master_lemma_sides, t, n, z, a)
    want = _sides_or_pole(oracle_master_lemma_rhs, t, n, z, a)
    assert (got if got == "pole" else got[1]) == want


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 7))
def test_rational_triplet_multisums_match_tuple_walk(t, n):
    # the check passes only if its two multisums equal the single sum, and
    # the tuple walk pins that single sum down
    s2 = sum(
        Fraction((-1) ** (k - 1) * 2 * comb(n, k), k ** (2 * t) * comb(n + k, k)) for k in range(1, n + 1)
    )
    assert oracle_triplet_multisums(t, n) == (s2, s2)
    assert rational_triplet_sums(t, n) == (s2, s2, s2)


# ---------------------------------------------------------------------------
# certificates


def test_wz_master():
    for z in (0, 1, HALF):
        assert wz_master_failure(z, 6) is None


def test_wz_cor32():
    for x in (HALF, 2, SEVEN_THIRDS):
        assert wz_cor32_failure(x, 6) is None


@pytest.mark.parametrize("v", range(-1, -8, -1))
def test_q1_walks_reject_every_pole_they_reach(v):
    # with nmax = 6 the walks divide by z + k, or by C(x+k, k), for k = 1..7
    with pytest.raises(ValueError, match="parameter hits pole: z"):
        wz_master_failure(v, 6)
    with pytest.raises(ValueError, match="parameter hits pole: x"):
        wz_cor32_failure(v, 6)


def test_wz_lemma51():
    for z in (0, 1, 2):
        assert wz_lemma51_failure(z, 4, 40) is None


def test_wz_cor52():
    for x in (0, 1, 2):
        assert wz_cor52_failure(x, 3, 40) is None


def test_wz_cor53():
    for z in (0, 1, 2):
        assert wz_cor53_failure(z, 3, 40) is None


def test_qbin_difference_lemma():
    assert qbin_difference_failure(5, 40) is None


# ---------------------------------------------------------------------------
# kernel-step builders of the q-rational factors, against q-Pascal polynomials

BUILDER_ORDERS = (0, 1, 5, 17, 40)


def inverse(steps):
    return tuple((j, -r) for j, r in steps)


@pytest.mark.parametrize("n", range(11))
def test_step_builders_match_q_pascal_polynomials(n):
    for order in BUILDER_ORDERS:
        assert _term(order, _q_factorial(n)) == q_factorial(n).to_series(order)
        if n:
            assert _term(order, _q_int(n)) == q_int(n).to_series(order)
            assert _term(order, _one_plus(n)) == (IntPoly.one() + IntPoly.one().shift(n)).to_series(order)
        omq = IntPoly.one()
        for _ in range(n):
            omq = omq * IntPoly([1, -1])
        assert _term(order, _one_minus_q(n)) == omq.to_series(order)
        for k in range(n + 1):
            assert _term(order, _qbin(n, k)) == q_binomial(n, k).to_series(order)


@pytest.mark.parametrize("n", range(11))
def test_step_builders_times_their_inverses_are_one(n):
    # p = -1 is the inverse, and applied in a second pass it undoes the first
    factors = [(_q_factorial(n), _q_factorial(n, -1)), (_one_minus_q(n), _one_minus_q(-n))]
    if n:
        factors += [(_q_int(n), _q_int(n, -1)), (_one_plus(n), inverse(_one_plus(n)))]
    factors += [(_qbin(n, k), _qbin(n, k, -1)) for k in range(n + 1)]
    for steps, inv in factors:
        assert inv == inverse(steps)
        for order in BUILDER_ORDERS:
            assert _term(order, steps, inv) == Series.one(order)
            assert _term(order, inv, base=_term(order, steps)) == Series.one(order)


@pytest.mark.parametrize("build", [lambda: _q_int(0), lambda: _qbin(3, 4), lambda: _qbin(3, -1),
                                   lambda: _qbin(0, 1), lambda: _one_plus(0), lambda: _q_factorial(-1)])
def test_zero_factors_are_no_step_products(build):
    # [0]_q, qbin(n,k) off 0..n and 1+q^0 = 2 are not products of (1-q^j)^(+-1)
    with pytest.raises(ValueError, match="not a product of kernel steps"):
        _term(10, build())


def test_certificate_terms_with_a_zero_factor_are_zero():
    # [k-1]_q vanishes at k = 1, so the G terms are zero there without a builder call
    for n in (1, 2, 3):
        for shift in (0, 1, 2):
            assert _wz52_G(n, 1, shift, 40) == Series.zero(40)
            assert _wz53_G(n, 1, shift, 40) == Series.zero(40)
