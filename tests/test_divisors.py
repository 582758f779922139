"""Tests for divisor sums, Eisenstein series, Lambert-type series and the
umbral machinery."""

from math import comb, factorial, gcd, prod

from conftest import IntPoly, euler_function, naive_mul
from macsums.divisors import (
    dilcher_r,
    eisenstein,
    lower_factorial,
    odd_square_product,
    power_lambert,
    raising_factorial,
    sigma,
    sigma_series,
    square_product,
    theta_moment,
    umbral_eval,
)
from macsums.identities import alternating_tail_quotient
from macsums.qcombo import central_T, central_u
from macsums.series import Series, geometric_pow


def test_sigma_values():
    assert sigma(1, 4) == 7
    assert sigma(3, 4) == 73
    assert sigma(5, 4) == 7 * 151  # 1057


def test_sigma_multiplicative_on_coprimes():
    for s in (1, 3, 5, 7):
        for a in range(2, 26):
            for b in range(2, 200 // a + 1):
                if gcd(a, b) == 1:
                    assert sigma(s, a * b) == sigma(s, a) * sigma(s, b)


def test_sigma_series_prefix():
    assert sigma_series(1, 6).coeffs == [0, 1, 3, 4, 7, 6, 12]


def lambert_rearrangement(s, order):
    """Sum over m of m^s * q^m/(1-q^m), one geometric series per m."""
    acc = Series.zero(order)
    for m in range(1, order + 1):
        acc = acc + geometric_pow(m, 1, order).shift(m) * m**s
    return acc


def test_sigma_series_matches_lambert_rearrangement():
    assert sigma_series(1, 30) == lambert_rearrangement(1, 30)
    assert sigma_series(3, 50) == lambert_rearrangement(3, 50)


def test_sigma_series_matches_pointwise_sigma():
    s = sigma_series(2, 80)
    for n in range(1, 81):
        assert s[n] == sigma(2, n)


def test_sigma1_of_8n_plus_4_divisible_by_7():
    for n in range(11):
        assert sigma(1, 8 * n + 4) % 7 == 0


def test_eisenstein_first_coefficients():
    assert eisenstein("E2", 3).coeffs == [1, -24, -72, -96]
    assert eisenstein("E4", 2)[1] == 240
    assert eisenstein("E6", 2)[1] == -504


def test_eisenstein_ramanujan_derivatives():
    n = 40
    e2, e4, e6 = (eisenstein(w, n) for w in ("E2", "E4", "E6"))
    assert 12 * e2.q_derivative() == e2 * e2 - e4
    assert 3 * e4.q_derivative() == e2 * e4 - e6
    assert 2 * e6.q_derivative() == e2 * e6 - e4 * e4


def test_lambert_series_classics():
    assert sigma_series(0, 12)[12] == 6  # d(12)
    assert power_lambert(1, 1, 30) == sigma_series(0, 30)  # sum of q^m/(1-q^m)
    assert power_lambert(1, 2, 50) == sigma_series(1, 50)  # sum of q^m/(1-q^m)^2


def test_power_lambert_matches_geometric_shifts():
    # the definition term by term: q^(a*m) times the series of 1/(1-q^m)^r
    n = 30
    for a in (1, 2, 3, 5):
        for r in (1, 2, 3, 4, 6):
            expected = Series.zero(n)
            for m in range(1, n + 1):
                expected = expected + geometric_pow(m, r, n).shift(a * m)
            assert power_lambert(a, r, n) == expected, (a, r)


def test_binomial_lambert_t1_is_sigma():
    assert power_lambert(1, 2, 40) == sigma_series(1, 40)


def test_binomial_lambert_divisor_weights():
    for t in range(1, 5):
        g = power_lambert(t, 2 * t, 60)
        for n in range(1, 61):
            expected = sum(comb(n // k + t - 1, 2 * t - 1) for k in range(1, n + 1) if n % k == 0)
            assert g[n] == expected


def test_binomial_lambert_stirling_combination():
    for t in range(1, 5):
        lhs = power_lambert(t, 2 * t, 40) * factorial(2 * t - 1)
        rhs = Series.zero(40)
        for k in range(t):
            term = sigma_series(2 * t - 1 - 2 * k, 40) * central_u(t, k)
            rhs = rhs + term if k % 2 == 0 else rhs - term
        assert lhs == rhs


def test_dilcher_r_telescopes_to_euler_complement():
    n = 30
    assert dilcher_r(0, n) == Series.one(n) - euler_function(n)


def test_dilcher_r_first_coefficient():
    for t in range(5):
        assert dilcher_r(t, 10)[1] == 1  # only m = 1 reaches q^1


def test_dilcher_r_brute_force():
    # rebuild the tail products from scratch for each m
    n = 25
    for t in (0, 1, 2):
        expected = [0] * (n + 1)
        for m in range(1, n + 1):
            tail = [1]
            for j in range(m + 1, n + 1):
                fac = [0] * (j + 1)
                fac[0], fac[j] = 1, -1
                tail = naive_mul(tail, fac, n)
            shifted = [0] * (n + 1)
            for i, c in enumerate(tail[: n + 1 - m]):
                shifted[i + m] = c * m**t
            expected = [a + b for a, b in zip(expected, shifted)]
        assert dilcher_r(t, n).coeffs == expected


def test_theta_moment_prefix():
    j0 = theta_moment(0, 7)
    assert j0.coeffs == [1, -1, 0, 1, 0, 0, -1, 0]
    assert theta_moment(1, 3)[3] == 5  # m = 2 contributes (2m+1) = 5


def test_theta_moment_cube_identity():
    n = 40
    assert theta_moment(1, n) == euler_function(n) ** 3


def test_umbral_symbol_linearity():
    x = IntPoly([0, 1])
    assert umbral_eval(x.coeffs, theta_moment, 20) == theta_moment(1, 20)
    assert umbral_eval((x * x * 2 + IntPoly([-3])).coeffs, sigma_series, 15) == (
        2 * sigma_series(2, 15) - 3 * sigma_series(0, 15)
    )


def test_umbral_builders_evaluate_to_their_products():
    for t in range(1, 7):
        for v in range(-4, 9):
            assert IntPoly(odd_square_product(t))(v) == v * prod(v * v - (2 * i - 1) ** 2 for i in range(1, t + 1))
            assert IntPoly(square_product(t))(v) == v * prod(v * v - i * i for i in range(1, t))
            assert IntPoly(lower_factorial(t))(v) == prod(v - j for j in range(1, t))
            assert IntPoly(raising_factorial(t))(v) == prod(v + j for j in range(t))
        assert type(odd_square_product(t)) is tuple  # a caller cannot change it
        assert IntPoly(odd_square_product(t)).degree == 2 * t + 1
        assert IntPoly(square_product(t)).degree == 2 * t - 1


def test_umbral_square_product_matches_binomial_lambert():
    for t in range(1, 5):
        lhs = power_lambert(t, 2 * t, 40) * factorial(2 * t - 1)
        rhs = umbral_eval(square_product(t), sigma_series, 40)
        assert lhs == rhs


def test_T_inversion_returns_lambert():
    for t in range(1, 5):
        acc = Series.zero(40)
        for k in range(1, t + 1):
            acc = acc + power_lambert(k, 2 * k, 40) * (central_T(t, k) * factorial(2 * k - 1))
        assert acc == sigma_series(2 * t - 1, 40)


def test_umbral_lower_factorial_matches_power_lambert():
    # at t = 1 the right side collapses to the divisor-count series
    assert umbral_eval(lower_factorial(1), sigma_series, 20) == sigma_series(0, 20)
    for t in range(1, 5):
        lhs = power_lambert(t, t, 40) * factorial(t - 1)
        rhs = umbral_eval(lower_factorial(t), sigma_series, 40)
        assert lhs == rhs


def test_umbral_raising_factorial_matches_tail_quotient():
    for t in range(1, 5):
        lhs = alternating_tail_quotient(t, 30) * factorial(t)
        rhs = umbral_eval(raising_factorial(t), dilcher_r, 30)
        assert lhs == rhs


def test_alternating_tail_quotient_t2_prefix():
    # hand expansion of the m = 1 and m = 2 terms up to q^5:
    # m=1: q/((1-q)^2 (1-q)) = q + 3q^2 + 6q^3 + 10q^4 + 15q^5
    # m=2: -q^3/((1-q^2)^2 (1-q)(1-q^2)) = -q^3 - q^4 - 4q^5 + ...
    # m=3: q^6/... does not reach q^5
    s = alternating_tail_quotient(2, 5)
    assert s.coeffs == [0, 1, 3, 5, 9, 11]
