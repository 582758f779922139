"""Data-driven identity catalog.

Each spec names an identity, declares its parameter grids (grid name to
default values, outermost first) and gives one case function that checks a
single grid point.  One runner walks every spec; the `verify` command
reaches the catalog only through it.

Case functions look library functions up at call time, through their module
or a global of this module, never through a value captured when the table
is built, so that rebinding those names reaches every call.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import partial
from math import factorial

from . import divisors as div
from . import identities as ident
from . import macmahon as mac
from .qcombo import central_T, central_u
from .reports import FrozenRecord, IdentityReport, series_report
from .reports import InputError as GridError  # an undeclared or empty grid, or a value outside its domain
from .series import Series


class IdentitySpec(FrozenRecord):
    __slots__ = ("ident", "description", "grids", "case")

    def __init__(self, ident: str, description: str, grids: dict, case):
        # grids: grid name -> default values, outermost first
        # case: (order, **one value per grid) -> list[IdentityReport]
        self._freeze(ident, description, grids, case)


# The values each grid name admits in every identity that declares it.  The
# cap keeps one case within memory and recursion limits: the q-binomial table
# behind the shifted identities holds about (n*x)^2 coefficients, and the
# q-Pascal recursion that fills it is x + n calls deep.
_CAP = 16
GRID_DOMAINS = {
    "t": (f"an integer in 1..{_CAP}", lambda v: 1 <= v <= _CAP),
    "n": (f"an integer in 1..{_CAP}", lambda v: 1 <= v <= _CAP),
    "x": (f"an integer in 0..{_CAP}", lambda v: 0 <= v <= _CAP),
    "z": (f"an integer in 0..{_CAP}", lambda v: 0 <= v <= _CAP),
    "c": ("one of 4, 2, 1", lambda v: v in (4, 2, 1)),
}

_RATIONAL_PARAMS = (0, 1, 2, Fraction(1, 2), Fraction(7, 3))
_T3 = {"t": (1, 2, 3)}
_T4 = {"t": (1, 2, 3, 4)}
_TN3 = {"t": (1, 2, 3), "n": (1, 2, 3)}
_TNX3 = {"t": (1, 2, 3), "n": (1, 2, 3), "x": (0, 1, 2)}


def _wz_certificates(order):
    return [
        *(ident.wz_master_check(x, 6) for x in (0, 1, Fraction(1, 2))),
        *(ident.wz_cor32_check(x, 6) for x in (Fraction(1, 2), 2, Fraction(7, 3))),
        ident.wz_lemma51_check(1, 4, order),
        *(ident.wz_cor52_check(x, 3, order) for x in (0, 1)),
        *(ident.wz_cor53_check(x, 3, order) for x in (0, 1)),
        ident.qbin_difference_check(5, order),
    ]


def _closed_form(which, order):
    return [mac.closed_form_check(which, order)]


def _agreement(ident_id, family, routes, order, t):
    """The defining multisum, built once per t, against each other route."""
    base = mac.strict_multisum(t, order) if family == "MO" else mac.weak_multisum(t, order)
    formulas = mac.MO_FORMULAS if family == "MO" else mac.M_FORMULAS
    return [
        series_report(ident_id, {"t": t, "formula": name}, order, base, formulas[name](t, order))
        for name in routes
    ]


def _by_t(ident_id, order, t, lhs, rhs):
    return [series_report(ident_id, {"t": t}, order, lhs, rhs)]


def _stirling_lambert(order, t):
    lhs = div.power_lambert(t, 2 * t, order) * factorial(2 * t - 1)
    rhs = Series.zero(order)
    for k in range(t):
        term = div.sigma_series(2 * t - 1 - 2 * k, order) * central_u(t, k)
        rhs = rhs + term if k % 2 == 0 else rhs - term
    return _by_t("stirling-lambert", order, t, lhs, rhs)


def _t_inversion(order, t):
    lhs = Series.zero(order)
    for k in range(1, t + 1):
        lhs = lhs + div.power_lambert(k, 2 * k, order) * (central_T(t, k) * factorial(2 * k - 1))
    return _by_t("T-inversion", order, t, lhs, div.sigma_series(2 * t - 1, order))


def _eisenstein_ramanujan(order):
    e2, e4, e6 = (div.eisenstein(which, order) for which in ("E2", "E4", "E6"))
    sides = (("E2", 12 * e2.q_derivative(), e2 * e2 - e4), ("E4", 3 * e4.q_derivative(), e2 * e4 - e6),
             ("E6", 2 * e6.q_derivative(), e2 * e6 - e4 * e4))
    return [series_report("eisenstein-ramanujan", {"which": w}, order, lhs, rhs) for w, lhs, rhs in sides]


_SPECS = [
    IdentitySpec("theorem-FGH", "three equal finite q-harmonic sums", {"t": (1, 2, 3), "n": (1, 2, 3, 4)},
                 lambda order, t, n: [ident.triplet_check(t, n, order)]),
    IdentitySpec("FGH-recurrence", "first-difference recurrence for all three sums", _TN3,
                 lambda order, t, n: [ident.triplet_recurrence_check(which, t, n, order)
                                      for which in ("multisum", "single-sum", "paired-sum")]),
    IdentitySpec("G-forms", "both shapes of the alternating single sum agree", _TN3,
                 lambda order, t, n: [ident.single_sum_forms_check(t, n, order)]),
    IdentitySpec("dilcher", "single sum vs multisum with simple q-integer denominators",
                 {"t": (1, 2, 3, 4), "n": (1, 2, 3, 4)},
                 lambda order, t, n: [ident.dilcher_check(t, n, order)]),
    IdentitySpec("mss", "x-shifted single sum vs multisum", _TNX3,
                 lambda order, t, n, x: [ident.mss_check(t, n, x, order)]),
    IdentitySpec("mss-precursor", "inverse-pair reading of the unnumbered precursor",
                 {"t": (1, 2), "n": (1, 2, 3), "x": (0, 1, 2)},
                 lambda order, t, n, x: [ident.mss_precursor_check(t, n, x, order)]),
    IdentitySpec("atidB", "x-shifted 2t-fold identity", _TNX3,
                 lambda order, t, n, x: [ident.atid_b_check(t, n, x, order)]),
    IdentitySpec("cor52", "two-parameter (x, z) single sum vs weighted multisum",
                 {"t": (1, 2), "n": (1, 2, 3), "x": (0, 1), "z": (0, 1)},
                 lambda order, t, n, x, z: [ident.cor52_check(t, n, x, z, order)]),
    IdentitySpec("cor53", "z-shifted recovery of the x-shifted identity",
                 {"t": (1, 2, 3), "n": (1, 2, 3), "z": (0, 1, 2)},
                 lambda order, t, n, z: [ident.cor53_check(t, n, z, order)]),
    IdentitySpec("rational-master", "exact rational master identity at q = 1",
                 {"t": (1, 2, 3, 4), "n": (1, 2, 4, 6, 8)},
                 lambda order, t, n: [ident.rational_master_check(t, n, z, x)
                                      for z in _RATIONAL_PARAMS for x in _RATIONAL_PARAMS]),
    IdentitySpec("rational-hypothesis", "alternating binomial seed identity", {"n": (1, 2, 3, 4, 5, 6)},
                 lambda order, n: [ident.rational_hypothesis_check(n, x) for x in _RATIONAL_PARAMS]),
    IdentitySpec("rational-FGH-limit", "the q = 1 shadow of the triplet",
                 {"t": (1, 2, 3), "n": (1, 2, 3, 4, 5, 6)},
                 lambda order, t, n: [ident.rational_triplet_check(t, n)]),
    IdentitySpec("wz-certificates", "all difference certificates on their grids", {}, _wz_certificates),
    *(IdentitySpec(ident_id, f"closed form {which}", {}, partial(_closed_form, which))
      for which, ident_id in mac.CLOSED_FORMS.items()),
    IdentitySpec("conjugate-M-form", "smallest-part weighted conjugate sum equals the multisum", _T3,
                 lambda order, t: _by_t("conjugate-M-form", order, t, mac.m_conjugate_form(t, order),
                                        mac.weak_multisum(t, order))),
    IdentitySpec("conjugate-chain", "alternating-inequality chain vs both multisum families", _T3,
                 lambda order, t: [mac.conjugate_chain_check(t, order)]),
    IdentitySpec("jacobi-specialization", "product = theta sum = signed weak sums", {"c": (4, 2, 1)},
                 lambda order, c: [mac.jacobi_specialization_check(c, order)]),
    IdentitySpec("U-agreement", "five formula routes for the strict family agree", _T3, partial(
        _agreement, "U-agreement", "MO", ("andrews-rose", "umbral", "recurrence", "symmetric"))),
    IdentitySpec("V-agreement", "four formula routes for the weak family agree", _T3, partial(
        _agreement, "V-agreement", "M", ("single-sum", "conjugate", "recurrence"))),
    IdentitySpec("symmetric-relation", "alternating strict/weak convolution vanishes", _T4,
                 lambda order, t: [mac.symmetric_relation_check(t, order)]),
    IdentitySpec("stirling-lambert", "binomial Lambert series as a Stirling combination", _T4,
                 _stirling_lambert),
    IdentitySpec("umbral-square-product", "binomial Lambert series as one umbral product", _T4,
                 lambda order, t: _by_t(
                     "umbral-square-product", order, t, div.power_lambert(t, 2 * t, order) * factorial(2 * t - 1),
                     div.umbral_eval(div.square_product(t), div.sigma_series, order))),
    IdentitySpec("T-inversion", "central factorial inversion back to a plain Lambert series", _T4,
                 _t_inversion),
    IdentitySpec("umbral-compact", "t-th power Lambert sum as an umbral falling product", _T4,
                 lambda order, t: _by_t(
                     "umbral-compact", order, t, div.power_lambert(t, t, order) * factorial(t - 1),
                     div.umbral_eval(div.lower_factorial(t), div.sigma_series, order))),
    IdentitySpec("umbral-tail", "alternating theta quotient as an umbral rising product", _T4,
                 lambda order, t: _by_t(
                     "umbral-tail", order, t, div.alternating_tail_quotient(t, order) * factorial(t),
                     div.umbral_eval(div.raising_factorial(t), div.dilcher_r, order))),
    IdentitySpec("eisenstein-ramanujan", "the three modular derivative identities", {}, _eisenstein_ramanujan),
]

REGISTRY: dict[str, IdentitySpec] = {spec.ident: spec for spec in _SPECS}


def known_ids():
    return sorted(REGISTRY)


def run_identity(ident_id: str, grids: dict, order: int) -> list[IdentityReport]:
    """Every case of one identity over the product of its grids: the values
    passed in `grids`, the declared defaults for grids not passed.  The grids
    are checked before any case runs; a bad one raises GridError."""
    spec = REGISTRY[ident_id]
    undeclared = sorted(set(grids) - set(spec.grids))
    if undeclared:
        grids_taken = ", ".join(spec.grids) or "none"
        raise GridError(f"{ident_id} has no grid {', '.join(undeclared)}; its grids: {grids_taken}")
    walk = [grids.get(name, defaults) for name, defaults in spec.grids.items()]
    for name, values in zip(spec.grids, walk):
        domain, admits = GRID_DOMAINS[name]
        if not values:
            raise GridError(f"grid {name} is empty")
        for v in values:
            if not admits(v):
                raise GridError(f"grid {name} takes {domain}, got {v}")
    out = []
    for point in itertools.product(*walk):
        out.extend(spec.case(order, **dict(zip(spec.grids, point))))
    return out
