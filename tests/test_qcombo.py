"""Tests for polynomials from roots, Stirling and central factorial numbers,
and for the tests' q-Pascal reference (q-integers, q-factorials, Gaussian
binomials) and generalized binomials."""

import copy
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from conftest import IntPoly, naive_mul, q_binomial, q_factorial, q_int, seeded
from macsums import qcombo
from macsums.qcombo import central_T, central_u, poly_from_roots, stirling1_unsigned
from macsums.series import Series
from paper_checks import gbinom, q_binomial_inverse_transform, q_binomial_transform


def test_q_int_small():
    assert q_int(0) == IntPoly.zero()
    assert q_int(1) == IntPoly([1])
    assert q_int(4) == IntPoly([1, 1, 1, 1])


def test_q_binomial_base_cases():
    for n in range(8):
        assert q_binomial(n, 0) == IntPoly.one()
        assert q_binomial(n, n) == IntPoly.one()
    assert q_binomial(3, 5).is_zero()


def test_q_binomial_4_2():
    assert q_binomial(4, 2) == IntPoly([1, 1, 2, 1, 1])


def test_cached_polynomials_cannot_be_changed_by_callers():
    with pytest.raises(TypeError):
        q_binomial(4, 2).coeffs[0] = 99
    with pytest.raises(TypeError):
        q_factorial(3).coeffs[0] = 99
    with pytest.raises(AttributeError):
        q_binomial(4, 2).coeffs = (99, 1, 2, 1, 1)
    with pytest.raises(AttributeError):
        del q_factorial(3).coeffs
    assert copy.deepcopy(q_binomial(4, 2)) == q_binomial(4, 2)
    assert q_binomial(4, 2) == IntPoly([1, 1, 2, 1, 1])
    assert q_factorial(3) == IntPoly([1, 2, 2, 1])


def test_q_binomial_is_factorial_quotient():
    # cross-check by clearing denominators: qbin(n,k) [k]! [n-k]! = [n]!
    for n in range(9):
        for k in range(n + 1):
            assert q_binomial(n, k) * q_factorial(k) * q_factorial(n - k) == q_factorial(n)


def pascal_triangle(rows):
    tri = [[1]]
    for n in range(1, rows + 1):
        prev = tri[-1]
        tri.append([1] + [prev[i - 1] + prev[i] for i in range(1, n)] + [1])
    return tri


def test_q_binomial_at_one_is_binomial():
    tri = pascal_triangle(12)
    for n in range(13):
        for k in range(n + 1):
            assert q_binomial(n, k)(1) == tri[n][k]


def test_q_pascal_rule():
    for n in range(1, 11):
        for k in range(1, n + 1):
            lhs = q_binomial(n, k)
            rhs = q_binomial(n - 1, k - 1) + q_binomial(n - 1, k).shift(k)
            assert lhs == rhs


def test_q_binomial_palindromic_and_degree():
    for n in range(1, 11):
        for k in range(n + 1):
            c = q_binomial(n, k).coeffs or [1]
            assert c == c[::-1]
            assert q_binomial(n, k).degree in (k * (n - k), -1 if k > n else k * (n - k))


def cycle_count(perm):
    seen = [False] * len(perm)
    cycles = 0
    for i in range(len(perm)):
        if not seen[i]:
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return cycles


def test_stirling_diagonal_and_small():
    for n in range(9):
        assert stirling1_unsigned(n, n) == 1
    # count permutations of 3 elements with exactly 2 cycles
    count = sum(1 for p in permutations(range(3)) if cycle_count(p) == 2)
    assert count == 3
    assert stirling1_unsigned(3, 2) == 3


def test_stirling_row_sums():
    for n in range(1, 9):
        assert sum(stirling1_unsigned(n, k) for k in range(n + 1)) == factorial(n)


def test_stirling_counts_cycles_exhaustively():
    for n in range(1, 6):
        for k in range(1, n + 1):
            count = sum(1 for p in permutations(range(n)) if cycle_count(p) == k)
            assert stirling1_unsigned(n, k) == count


def test_central_u_base():
    for t in range(1, 7):
        assert central_u(t, 0) == 1


def test_central_u_t2_by_expansion():
    # u(2,0) x^3 - u(2,1) x = (x+1) x (x-1) = x^3 - x
    expanded = poly_from_roots([-1, 0, 1])
    assert expanded == (0, -1, 0, 1)
    assert central_u(2, 1) == 1


def test_central_u_polynomial_identity():
    for t in range(1, 7):
        acc = IntPoly.zero()
        for k in range(t):
            mono = IntPoly([0] * (2 * t - 1 - 2 * k) + [central_u(t, k)])
            acc = acc + mono if k % 2 == 0 else acc - mono
        assert acc.coeffs == poly_from_roots(range(-(t - 1), t))


def test_central_T_small():
    assert central_T(1, 1) == 1
    for t in range(1, 7):
        assert central_T(t, t) == 1


def rational_central_T(t, k):
    """T(t, k) = sum_(i=1..k) (-1)^(k-i) 2 i^(2t) / ((k-i)! (k+i)!), summed
    term by term in Fraction."""
    total = Fraction(0)
    for i in range(1, k + 1):
        term = Fraction(2 * i ** (2 * t), factorial(k - i) * factorial(k + i))
        total += -term if (k - i) % 2 else term
    return total


def test_central_T_matches_the_rational_sum():
    # every t and k the catalog's grid cap admits
    for t in range(1, 17):
        for k in range(1, t + 1):
            assert central_T(t, k) == rational_central_T(t, k), (t, k)


def test_central_T_raises_on_a_remainder(monkeypatch):
    # a wrong binomial makes the numerator miss a multiple of (2k)!
    comb = qcombo.comb
    monkeypatch.setattr(qcombo, "comb", lambda n, k: comb(n, k) + ((n, k) == (4, 1)))
    with pytest.raises(ArithmeticError, match=r"central_T\(3,2\) failed to reduce to an integer"):
        central_T.__wrapped__(3, 2)


def test_central_T_polynomial_identity():
    for t in range(1, 7):
        acc = IntPoly.zero()
        for k in range(1, t + 1):
            prod = IntPoly([0, 1])
            for j in range(1, k):
                prod = prod * IntPoly([-j * j, 1])
            acc = acc + prod * central_T(t, k)
        assert acc == IntPoly([0] * t + [1])


def test_central_T_generating_function():
    # sum_t T(t,k) x^t = x^k / prod_{i<=k} (1 - i^2 x), checked as series in x
    tmax = 10
    for k in range(1, 5):
        denom = [1] + [0] * tmax
        for i in range(1, k + 1):
            factor = [1, -i * i] + [0] * (tmax - 1)
            denom = naive_mul(denom, factor, tmax)
        inv = Series.one(tmax) / Series(denom, tmax)
        series = Series([0] * (tmax + 1), tmax).coeffs
        for t in range(k, tmax + 1):
            series[t] = central_T(t, k)
        assert Series(series, tmax) == inv.shift(k)


def test_gbinom_matches_comb_on_integers():
    from math import comb

    for a in range(10):
        for k in range(a + 2):
            assert gbinom(a, k) == comb(a, k)
    assert gbinom(Fraction(1, 2), 2) == Fraction(-1, 8)


def test_q_binomial_transform_round_trip():
    rng = seeded(2024)
    order = 40
    for _ in range(100):
        length = rng.randrange(1, 9)
        a = [rng.randrange(-9, 10) for _ in range(length)]
        b = q_binomial_transform(a, order)
        back = q_binomial_inverse_transform(b, order)
        for orig, rec in zip(a, back):
            assert rec == Series.monomial(orig, 0, order)


def test_intpoly_rejects_fractions():
    with pytest.raises(TypeError):
        IntPoly([Fraction(1, 2)])


def test_intpoly_shift():
    p = IntPoly([1, 2])
    assert p.shift(0) == p
    assert p.shift(2) == IntPoly([0, 0, 1, 2])
    assert IntPoly([]).shift(3) == IntPoly([])
    with pytest.raises(ValueError):
        p.shift(-1)
