"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines and timings.  Every tolerance is exact (integer or rational
equality); the only numeric budgets are the stated runtimes.
"""

import time
from fractions import Fraction

from conftest import IntPoly, failed_cases, naive_mul, q_binomial, rand_int_series, seeded
from macsums import registry
from macsums.congruences import check_claim, verify_paper_suite
from macsums.identities import (
    harmonic_multisum,
    harmonic_paired_sum,
    harmonic_single_sum,
    qbin_difference_failure,
    wz_cor52_failure,
    wz_cor53_failure,
    wz_lemma51_failure,
)
from macsums.macmahon import (
    M_FORMULAS,
    MO_FORMULAS,
    strict_multisum,
    weak_multisum,
)
from macsums.qcombo import central_T, central_u, poly_from_roots
from macsums.rational import rational_master_sides, wz_cor32_failure, wz_master_failure
from macsums.reports import EVIDENCE, REFUTED, VERIFIED, CongruenceClaim
from paper_checks import (
    certify_rational_equality,
    q_binomial_inverse_transform,
    q_binomial_transform,
    sigma_lemma_a_check,
    sigma_lemma_b_check,
    sigma_progression_check,
    triplet_degree_bound,
)


def report(number, label, started):
    print(f"ACCEPT {number:2d} PASS ({time.time() - started:5.1f}s)  {label}")


def test_criterion_01_m24_under_one_second():
    started = time.time()
    for name, formula in M_FORMULAS.items():
        assert formula(2, 10)[4] == 14, name
    elapsed = time.time() - started
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    report(1, "M(2,4) = 14 via multisum, single sum, conjugate form, recurrence", started)


def test_criterion_02_triplet_grid_and_certification():
    started = time.time()
    for t in range(1, 5):
        for n in range(1, 6):
            f = harmonic_multisum(t, n, 60)
            g = harmonic_single_sum(t, n, 60)
            h = harmonic_paired_sum(t, n, 60)
            assert f == g == h, (t, n)
    for t in (1, 2):
        for n in (1, 2, 3):
            bound = triplet_degree_bound(t, n)
            order = 2 * bound + 1
            assert certify_rational_equality(
                harmonic_multisum(t, n, order), harmonic_single_sum(t, n, order), bound
            ), (t, n)
            assert certify_rational_equality(
                harmonic_multisum(t, n, order), harmonic_paired_sum(t, n, order), bound
            ), (t, n)
    elapsed = time.time() - started
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.2f}s"
    report(2, "triplet equality to order 60 on {1..4}x{1..5}, certified on {1..2}x{1..3}", started)


def test_criterion_03_multiway_agreement():
    started = time.time()
    for t in (1, 2, 3):
        strict = strict_multisum(t, 40)
        for name, formula in MO_FORMULAS.items():
            assert formula(t, 40) == strict, (t, name)
        weak = weak_multisum(t, 40)
        for name, formula in M_FORMULAS.items():
            assert formula(t, 40) == weak, (t, name)
    elapsed = time.time() - started
    assert elapsed < 60.0, f"criterion 3 took {elapsed:.2f}s"
    report(3, "five-way strict and four-way weak agreement, order 40, t <= 3", started)


def test_criterion_04_closed_forms():
    started = time.time()
    for ident in ("closed-form-V3", "closed-form-U3-minus-V3", "closed-form-U4", "sigma1-convolution",
                  "excess-V2-U2", "closed-form-V2", "closed-form-V3-ode", "V1-eisenstein"):
        assert failed_cases(ident, 50) == [], ident
    report(4, "sigma closed forms, convolution identity, recurrences, order 50", started)


def test_criterion_05_stirling_umbral_suite():
    started = time.time()
    for ident in ("stirling-lambert", "umbral-square-product", "T-inversion",
                  "umbral-compact", "umbral-tail"):
        for r in registry.run_identity(ident, {"t": [1, 2, 3, 4]}, 40):
            assert r.passed, (ident, r.params)
    for t in range(1, 7):
        acc = IntPoly.zero()
        for k in range(t):
            mono = IntPoly([0] * (2 * t - 1 - 2 * k) + [central_u(t, k)])
            acc = acc + mono if k % 2 == 0 else acc - mono
        assert acc.coeffs == poly_from_roots(range(-(t - 1), t)), t
        acc = IntPoly.zero()
        for k in range(1, t + 1):
            prod = IntPoly([0, 1])
            for j in range(1, k):
                prod = prod * IntPoly([-j * j, 1])
            acc = acc + prod * central_T(t, k)
        assert acc == IntPoly([0] * t + [1]), t
    report(5, "Stirling/umbral Lambert suite at order 40; factorial-basis identities t <= 6", started)


def test_criterion_06_q_identities_and_certificates():
    started = time.time()
    params = (0, 1, 2, 3)
    t, n = range(1, 5), range(1, 5)
    assert failed_cases("dilcher", 50, t=t, n=n) == []
    assert failed_cases("mss", 50, t=t, n=n, x=params) == []
    assert failed_cases("atidB", 50, t=t, n=n, x=params) == []
    assert failed_cases("cor53", 50, t=t, n=n, z=params) == []
    assert failed_cases("cor52", 50, t=t, n=n, x=params, z=params) == []
    rational_params = (0, 1, 2, Fraction(1, 2), Fraction(7, 3))
    for t in range(1, 5):
        for n in range(1, 9):
            for z in rational_params:
                for x in rational_params:
                    lhs, rhs = rational_master_sides(t, n, z, x)
                    assert lhs == rhs, (t, n, z, x)
    for z in (0, 1, Fraction(1, 2)):
        assert wz_master_failure(z, 6) is None
    for x in (Fraction(1, 2), 2, Fraction(7, 3)):
        assert wz_cor32_failure(x, 6) is None
    for v in (0, 1, 2):
        assert wz_lemma51_failure(v, 4, 40) is None
        assert wz_cor52_failure(v, 3, 40) is None
        assert wz_cor53_failure(v, 3, 40) is None
    assert qbin_difference_failure(5, 40) is None
    report(6, "Dilcher/MSS/ATidB/52/53 grids at order 50; rational grids; WZ certificates", started)


def test_criterion_07_congruence_suite_depth_300():
    started = time.time()
    results = verify_paper_suite(300)
    for c in results:
        expected = EVIDENCE if c.kind == "conjecture" else VERIFIED
        assert c.status == expected, c.label
    conj = [c for c in results if c.kind == "conjecture"]
    assert conj and conj[0].first_violation is None
    assert sigma_progression_check(5, 3, 1, 5, 1, 300).passed
    assert sigma_lemma_a_check(5, 1, 3, 1, -2, 300).passed
    assert sigma_lemma_a_check(7, 1, 5, 3, -2, 300).passed
    assert sigma_lemma_a_check(7, 1, 5, -1, 5, 300).passed
    assert sigma_lemma_a_check(11, 3, 7, 7, 6, 300).passed
    for p in (3, 5, 7, 11):
        assert sigma_lemma_b_check(p, 300).passed
    elapsed = time.time() - started
    assert elapsed < 300.0, f"criterion 7 took {elapsed:.2f}s"
    report(7, "all congruence theorems to depth 300; conjecture evidence-only", started)


def test_criterion_08_jacobi_specializations():
    started = time.time()
    assert failed_cases("jacobi-specialization", 30, c=(4, 2, 1)) == []
    report(8, "Jacobi product specializations c in {4,2,1} to order 30", started)


def test_criterion_09_negative_controls():
    started = time.time()
    controls = [
        CongruenceClaim("M", 1, 5, 5, 1, kind="control"),
        CongruenceClaim("M", 2, 5, 5, 2, kind="control"),
        CongruenceClaim("MO", 2, 7, 7, 3, kind="control"),
        CongruenceClaim("M", 1, 3, 3, 1, kind="control"),
    ]
    for claim in controls:
        result = check_claim(claim, 100)
        assert result.status == REFUTED, claim
        assert result.first_violation is not None
    report(9, "scanner refutes four false claims", started)


def test_criterion_10_randomized_property_suites():
    started = time.time()
    rng = seeded(777)
    # ring axioms
    for _ in range(100):
        a = rand_int_series(rng, 30)
        b = rand_int_series(rng, 30)
        c = rand_int_series(rng, 30)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
    # derivation rule
    for _ in range(100):
        a = rand_int_series(rng, 20)
        b = rand_int_series(rng, 20)
        assert (a * b).q_derivative() == a.q_derivative() * b + a * b.q_derivative()
    # q-Pascal on random (n, k)
    for _ in range(100):
        n = rng.randrange(1, 26)
        k = rng.randrange(1, n + 1)
        assert q_binomial(n, k) == q_binomial(n - 1, k - 1) + q_binomial(n - 1, k).shift(k)
    # mod-p homomorphism
    for _ in range(100):
        p = rng.choice((3, 5, 7, 11, 13))
        a = rand_int_series(rng, 25)
        b = rand_int_series(rng, 25)
        ra, rb = [c % p for c in a.coeffs], [c % p for c in b.coeffs]
        assert [c % p for c in (a * b).coeffs] == [c % p for c in naive_mul(ra, rb, 25)]
        assert [c % p for c in (a + b).coeffs] == [(x + y) % p for x, y in zip(ra, rb)]
    # q-binomial inverse pair round trip
    for _ in range(100):
        length = rng.randrange(1, 9)
        seq = [rng.randrange(-9, 10) for _ in range(length)]
        transformed = q_binomial_transform(seq, 40)
        recovered = q_binomial_inverse_transform(transformed, 40)
        for orig, back in zip(seq, recovered):
            assert back[0] == orig and all(c == 0 for c in back.coeffs[1:])
    report(10, "five property suites, 100 randomized instances each", started)
