"""Tests for the congruence scanner: paper suite, sigma lemmas, termwise
checks, cross-validation of the scanned tables, and negative controls."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macsums import congruences, macmahon
from macsums.congruences import check_claim, paper_claims, prospect, verify_paper_suite
from macsums.macmahon import (
    coefficient_table,
    coefficient_values,
    leading_window,
    m_conjugate_form,
    mo_recurrence,
    single_sum_weights,
    strict_multisum,
    weak_multisum,
)
from macsums.reports import EVIDENCE, REFUTED, VERIFIED, CongruenceClaim
from macsums.series import Series
from paper_checks import (
    delta_residue_check,
    delta_vanishing_check,
    exponent_residue_set,
    phi_termwise_check,
    sigma_lemma_a_check,
    sigma_lemma_b_check,
    sigma_progression_check,
)


def test_paper_suite_verifies_to_150():
    results = verify_paper_suite(150)
    assert len(results) == 29
    for c in results:
        if c.kind == "conjecture":
            assert c.status == EVIDENCE, c.label
        else:
            assert c.status == VERIFIED, c.label
        assert c.first_violation is None


def test_conjecture_reported_as_evidence_only():
    claims = [c for c in paper_claims() if c.kind == "conjecture"]
    assert len(claims) == 1
    c = check_claim(claims[0], 150)
    assert c.family == "MO" and c.t == 10 and c.p == 11 and c.offset == 7
    assert c.status == EVIDENCE


def test_eq5_intro_congruences():
    # both families vanish mod 5 on 5n+1 at t = 2
    m = check_claim(CongruenceClaim("M", 2, 5, 5, 1), 120)
    mo = check_claim(CongruenceClaim("MO", 2, 5, 5, 1), 120)
    assert m.status == VERIFIED and mo.status == VERIFIED


def test_negative_controls_refuted():
    # sigma_1(1) = 1 breaks (M, t=1, p=5, 5n+1) immediately
    c1 = check_claim(CongruenceClaim("M", 1, 5, 5, 1, kind="control"), 100)
    assert c1.status == REFUTED and c1.first_violation == 1
    # M(2,2) = 1 breaks 5n+2
    c2 = check_claim(CongruenceClaim("M", 2, 5, 5, 2, kind="control"), 100)
    assert c2.status == REFUTED and c2.first_violation == 2
    # MO(2,3) = 1 breaks 7n+3
    c3 = check_claim(CongruenceClaim("MO", 2, 7, 7, 3, kind="control"), 100)
    assert c3.status == REFUTED and c3.first_violation == 3


def test_check_claim_monotone_in_depth():
    claim = CongruenceClaim("M", 2, 5, 5, 1)
    deep = check_claim(claim, 200)
    assert deep.status == VERIFIED
    for order in (50, 100, 150):
        assert check_claim(claim, order).status == VERIFIED


def reduced(values, p):
    return [v % p for v in values]


# The three "mod_stream" tests keep their names so their ids stay stable; they
# check the exact tables that scans reduce.


def test_mod_streams_match_rational_backends():
    # the tables a scan reduces, against the multisums and one more exact route
    for t in (1, 2, 3, 4):
        m_others = [weak_multisum(t, 100).coeffs, m_conjugate_form(t, 100).coeffs]
        mo_others = [strict_multisum(t, 100).coeffs, mo_recurrence(t, 100).coeffs]
        for p in (3, 5, 7, 11):
            m = reduced(coefficient_table("M", t, 100).values, p)
            mo = reduced(coefficient_table("MO", t, 100).values, p)
            assert all(m == reduced(other, p) for other in m_others)
            assert all(mo == reduced(other, p) for other in mo_others)


def test_mod_streams_match_multisums():
    for t in (1, 2, 3):
        assert reduced(coefficient_table("M", t, 60).values, 7) == reduced(weak_multisum(t, 60).coeffs, 7)
        assert reduced(coefficient_table("MO", t, 60).values, 7) == reduced(strict_multisum(t, 60).coeffs, 7)


def test_family_mod_stream_rejects_unknown():
    with pytest.raises(ValueError):
        check_claim(CongruenceClaim("Q", 1, 5, 5, 1), 10)


def test_paper_suite_builds_one_table_per_family_and_t(monkeypatch):
    calls = []

    def counting(family, ts, order, formula=None, moduli=None):
        for t, values in coefficient_values(family, ts, order, formula, moduli):
            calls.append((family, t))
            yield t, values

    monkeypatch.setattr(congruences, "coefficient_values", counting)
    assert len(verify_paper_suite(62)) == 29
    assert len(calls) == len(set(calls)) == 13


def count_divisions(monkeypatch):
    """Count series divisions from here on, exact (`Series.__truediv__`) or
    reduced at the leaves (`divide_coeffs` called by macmahon); returns the
    list that grows."""
    calls = []
    div, divide_coeffs = Series.__truediv__, macmahon.divide_coeffs

    def counted(self, other):
        calls.append(1)
        return div(self, other)

    def counted_coeffs(a, b, bits=None, reduce=None):
        calls.append(1)
        return divide_coeffs(a, b, bits, reduce)

    monkeypatch.setattr(Series, "__truediv__", counted)
    monkeypatch.setattr(macmahon, "divide_coeffs", counted_coeffs)
    return calls


def test_mo_scans_share_one_theta_division(monkeypatch):
    # the suite's four MO tables and the prospect's six come from one packed
    # division each, reduced at its leaves; every table was its own division before
    divisions = count_divisions(monkeypatch)
    verify_paper_suite(300)
    assert len(divisions) == 1
    divisions.clear()
    prospect("MO", range(1, 7), [5, 7, 11], 300)
    assert len(divisions) == 1


def test_scan_residue_tables_match_exact_tables(monkeypatch):
    # every table a scan checks equals the exact table mod the lcm m_t of
    # the primes of t's claims, and holds residues in [0, m_t): the suite
    # and both benchmark prospects at order 3000
    order, tables = 3000, []

    def recording(family, ts, order, formula=None, moduli=None):
        for t, values in coefficient_values(family, ts, order, formula, moduli):
            tables.append((family, t, moduli[t], values))
            yield t, values

    monkeypatch.setattr(congruences, "coefficient_values", recording)
    verify_paper_suite(order)
    suite = len(tables)
    for family in ("MO", "M"):
        prospect(family, range(1, 7), [5, 7, 11], order)
    primes = {}
    for c in paper_claims():
        primes.setdefault((c.family, c.t), set()).add(c.p)
    for i, (family, t, m, values) in enumerate(tables):
        assert m == (math.prod(primes[(family, t)]) if i < suite else 385), (family, t)
        assert [v % m for v in values] == [v % m for v in coefficient_table(family, t, order).values], (family, t)
        assert 0 <= min(values) and max(values) < m, (family, t)
    assert len(tables) == suite + 12 == 25


WIDE_PRIMES = (2147483647, 2147483629, 2147483587)  # the three largest primes below 2^31


def test_wide_moduli_scan_tables_match_exact_tables(monkeypatch, capsys):
    # claim primes near 2^31, end to end: the prospect's m_t, their product,
    # is about 2^93, so each M slot spans four machine words and every
    # weight cofactor, a prime or a product of primes past 2t - 1 whose
    # powers all pass the order, falls back to exact weights.  Every table
    # still equals the exact table mod m_t.  (MO(3, n) starts at n = 6, so
    # the MO claim checks offset 6.)
    from macsums.cli import main

    tables = []

    def recording(family, ts, order, formula=None, moduli=None):
        for t, values in coefficient_values(family, ts, order, formula, moduli):
            tables.append((family, t, moduli[t], values))
            yield t, values

    monkeypatch.setattr(congruences, "coefficient_values", recording)
    p = WIDE_PRIMES[0]
    for argv in (["--claim", f"M,3,{p},{p},5"], ["--claim", f"MO,3,{p},{p},6"],
                 ["--prospect", "--family", "M", "--t", "1..3", "--p", ",".join(map(str, WIDE_PRIMES))]):
        assert main(["scan", *argv, "--order", "200"]) in (0, 1), argv
    capsys.readouterr()
    assert [(family, t, m) for family, t, m, _ in tables] == [
        ("M", 3, p), ("MO", 3, p), *(("M", t, math.prod(WIDE_PRIMES)) for t in (3, 2, 1))]
    for family, t, m, values in tables:
        assert values == [v % m for v in coefficient_table(family, t, 200).values], (family, t)
    assert macmahon._prime_power_parts(math.prod(WIDE_PRIMES), 5) == [math.prod(WIDE_PRIMES)]
    assert macmahon._proved_tile(3, 198, math.prod(WIDE_PRIMES)) is None


def first_nonvanishing_loop(values, p, step, offset):
    """The progression check as a loop, the reference for `_first_nonvanishing`."""
    checked = 0
    for idx in range(offset, len(values), step):
        checked += 1
        if values[idx] % p:
            return idx, checked
    return None, checked


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-4, 4), max_size=60), st.sampled_from((2, 3, 5, 7)), st.integers(1, 12),
       st.integers(0, 70))
def test_first_nonvanishing_matches_the_loop(values, p, step, offset):
    assert congruences._first_nonvanishing(values, p, step, offset) == first_nonvanishing_loop(
        values, p, step, offset
    )


def test_sigma_lemma_a_examples():
    assert sigma_lemma_a_check(5, 1, 3, 1, -2, 200).passed
    assert sigma_lemma_a_check(7, 1, 5, 3, -2, 200).passed
    assert sigma_lemma_a_check(7, 1, 5, -1, 5, 200).passed
    assert sigma_lemma_a_check(11, 3, 7, 7, 6, 200).passed


def test_sigma_lemma_a_precondition():
    with pytest.raises(ValueError):
        sigma_lemma_a_check(5, 1, 2, 1, 1, 50)


def test_sigma_lemma_b_examples():
    for p in (3, 5, 7, 11, 13):
        assert sigma_lemma_b_check(p, 200).passed


def test_sigma_quadratic_nonresidue_progressions():
    # 7n+3 and 7n+5 are never squares mod 7; 11n+6 is never a square mod 11
    squares7 = {pow(r, 2, 7) for r in range(1, 7)}
    assert 3 not in squares7 and 5 not in squares7
    from macsums.divisors import sigma

    for n in range(29):
        assert sigma(3, 7 * n + 3) % 7 == 0
        assert sigma(3, 7 * n + 5) % 7 == 0
    for n in range(19):
        assert sigma(5, 11 * n + 6) % 11 == 0


def test_sigma_progression_corollary():
    # sigma_3 = sigma_1 mod 5 along 5n+1
    assert sigma_progression_check(5, 3, 1, 5, 1, 300).passed


def test_phi_termwise_grids():
    for k in range(1, 11):
        assert phi_termwise_check(3, k, 3, 3, 2, 120).passed
        assert phi_termwise_check(2, k, 5, 5, 1, 120).passed
        assert phi_termwise_check(2, k, 5, 5, 3, 120).passed


def test_phi_termwise_detects_nonvanishing():
    # t=1, k=1: the term is sigma-like and does not vanish on 5n+1
    r = phi_termwise_check(1, 1, 5, 5, 1, 60)
    assert not r.passed


def test_delta_binomial_value():
    assert single_sum_weights(3, 3)[2] == 27  # delta(3, 2) = C(7,5) + C(6,5)


def test_delta_polynomial_forms():
    for p, t in [(3, 3), (3, 6), (5, 5), (5, 2), (5, 7), (7, 2), (7, 9), (7, 3), (7, 10)]:
        assert delta_residue_check(p, t, 20).passed


def test_delta_vanishing_all_classes():
    for p, t in [(3, 3), (3, 6), (3, 1), (3, 4), (5, 5), (5, 10), (5, 2), (5, 7),
                 (7, 2), (7, 9), (7, 3), (7, 10)]:
        assert delta_vanishing_check(p, t, 60).passed


def test_exponent_residue_sets():
    # for t = 0 mod 3 the exponent residues stay inside {0, m, 2m+1}
    for m in range(12):
        allowed = {0, m % 3, (2 * m + 1) % 3}
        assert exponent_residue_set(3, 3, m) <= allowed


def test_prospect_recovers_known_progressions():
    mo = prospect("MO", [2], [5], 150)
    offsets = {(c.p, c.offset) for c in mo.claims}
    assert offsets == {(5, 1), (5, 2)}

    m = prospect("M", [2], [5], 150)
    offsets = {(c.p, c.offset) for c in m.claims}
    assert offsets == {(5, 1), (5, 3)}


def test_prospect_finds_conjectured_progression():
    res = prospect("MO", [10], [11], 150)
    assert any(c.offset == 7 for c in res.claims)


def test_prospect_finds_theorem_8_10():
    res = prospect("MO", list(range(1, 7)), [5, 7, 11], 120)
    hits = [c for c in res.claims if c.t == 4 and c.p == 11 and c.offset == 6]
    assert hits and "[known claim]" in hits[0].label


def test_prospect_consistent_with_check_claim():
    res = prospect("M", [1, 2, 3], [3, 5, 7], 100)
    for c in res.claims:
        fresh = check_claim(
            CongruenceClaim(c.family, c.t, c.p, c.step, c.offset), 100
        )
        assert fresh.status != REFUTED


def test_prospect_reports_only_tested_offsets():
    # below order p the offsets past the order hold no coefficient, and
    # offset 0 holds only M(1, 0), below the leading window; 7 | M(1, 4)
    res = prospect("M", [1], [7], 5)
    assert [(c.offset, c.checked) for c in res.claims] == [(4, 1)]
    assert res.chance_level == Fraction(5, 7)  # five offsets, one coefficient each


@pytest.mark.parametrize("t_values, p, order", [([1], 3, 1), ([1, 2, 3], 2147483647, 50), ([6], 5, 6)])
def test_prospect_skips_offsets_that_check_only_structural_zeros(t_values, p, order):
    # every index b, b + p, ... <= order of such an offset lies below the
    # leading window, so it would survive on zeros alone; the chance level
    # leaves it out as well
    res = prospect("M", t_values, [p], order)
    for c in res.claims:
        assert c.offset + c.depth * p >= leading_window("M", c.t), c
    rows = [(c.t, c.p, c.offset, c.depth, c.checked) for c in res.claims]
    assert (rows, res.chance_level) == oracle_prospect("M", t_values, [p], order)


def oracle_prospect(family, t_values, primes, order):
    """(t, p, offset, depth, checked) of every survivor, one table per t
    built on its own in the caller's order, then stably sorted by depth;
    and the chance level, one Fraction 1/p^checked per (t, p, b); an offset
    whose indices all lie below the leading window is not scanned."""
    rows, chance = [], Fraction(0)
    for t in t_values:
        values = coefficient_table(family, t, order).values
        for p in primes:
            for b in range(min(p, order + 1)):
                if not any(n >= leading_window(family, t) for n in range(b, order + 1, p)):
                    continue
                checked = values[b::p]
                chance += Fraction(1, p ** len(checked))
                if all(v % p == 0 for v in checked):
                    rows.append((t, p, b, (order - b) // p, len(checked)))
    rows.sort(key=lambda row: -row[3])
    return rows, chance


@pytest.mark.parametrize("t_values", [[1, 2, 3, 4, 5, 6], [4, 1, 6, 2]])
def test_prospect_builds_widest_slot_first_and_keeps_caller_order(monkeypatch, t_values):
    seen = []
    many = macmahon.mo_andrews_rose_many

    def recording(ts, order, moduli=None):
        seen.append(list(ts))
        return many(ts, order, moduli)

    monkeypatch.setattr(macmahon, "mo_andrews_rose_many", recording)
    res = prospect("MO", t_values, [5, 7, 11], 200)
    assert seen == [sorted(t_values, reverse=True)]
    rows = [(c.t, c.p, c.offset, c.depth, c.checked) for c in res.claims]
    assert (rows, res.chance_level) == oracle_prospect("MO", t_values, [5, 7, 11], 200)


@pytest.mark.parametrize("t_values, primes", [([2, 2], [5]), ([1, 2], [5, 7, 5])])
def test_prospect_rejects_repeated_grid_values(t_values, primes):
    with pytest.raises(ValueError, match="repeats"):
        prospect("MO", t_values, primes, 60)


@pytest.mark.parametrize("order", [0, 4, 10, 11, 12, 77, 5000])
def test_prospect_chance_level_is_exact(order):
    # at order 5000 the float sum this replaced underflowed to 0.0; below
    # order 6 = 3*4/2 the table of MO t = 3 (and at order 0 that of t = 1)
    # holds only structural zeros, so the grid is rejected
    t_values, primes = [1, 3], [3, 5, 7, 11]
    vacuous = {0: (1, 1), 4: (3, 6)}
    if order in vacuous:
        t, window = vacuous[order]
        with pytest.raises(ValueError, match=rf"^t = {t}: .* order {window} is the smallest with a nonzero"):
            prospect("MO", t_values, primes, order)
        return
    res = prospect("MO", t_values, primes, order)
    assert res.chance_level == oracle_prospect("MO", t_values, primes, order)[1] > 0


@pytest.mark.parametrize(
    "family, t_values, order, t, window",
    [("M", [30], 20, 30, 30), ("MO", [2, 6, 9], 20, 6, 21), ("M", itertools.count(1), 5, 6, 6)],
)
def test_prospect_rejects_a_table_that_vanishes_through_the_order(family, t_values, order, t, window):
    # every offset of such a table survives on zeros alone; the grid is
    # checked t by t, so even an endless one stops at its first vacuous t
    message = rf"^t = {t}: {family}\({t}, n\) is 0 for every n <= {order},.* order {window} is the smallest"
    with pytest.raises(ValueError, match=message):
        prospect(family, t_values, [5, 7], order)


@pytest.mark.parametrize("family, t", [("M", 6), ("MO", 3)])
def test_prospect_accepts_a_table_whose_window_ends_at_the_order(family, t):
    # the one nonzero coefficient, 1 at q^6, is the one index at or past the
    # window: only 5n+1 reaches it, and fails there
    assert leading_window(family, t) == 6
    res = prospect(family, [t], [5], 6)
    assert res.claims == [] and res.chance_level == Fraction(1, 25)


def test_prospect_chance_level_positive():
    res = prospect("M", [2], [5], 100)
    assert 0 < res.chance_level < 1
