"""Data-driven identity catalog, and the one place a case becomes a report.

Each spec names an identity, declares its parameter grids (grid name to
default values, outermost first) and gives one case function for a single
grid point.  A case function only computes what is compared: it returns
the point's comparisons, each a dict of `_report` fields.  Its `pairs` are
(lhs, rhs) or (lhs, rhs, note) values to compare; the params default to the
point, the id to the spec's and the order to the one asked for.  One runner
walks every spec and turns each comparison into an IdentityReport with
`_report`; the `verify` command reaches the catalog only through it.

Case functions look library functions up at call time, through their module
or a global of this module, never through a value captured when the table
is built, so that rebinding those names reaches every call.  The four q = 1
cases import `rational`, and with it `fractions`, when they run; their
rational grid values are the strings their reports print, which
`Fraction` parses, so no other id loads `fractions`.
"""

import itertools
from functools import partial
from math import factorial

from . import divisors as div
from . import identities as ident
from . import macmahon as mac
from .qcombo import central_T, central_u
from .reports import FrozenRecord, IdentityReport
from .reports import InputError as GridError  # an undeclared or empty grid, or a value outside its domain
from .series import Series


class IdentitySpec(FrozenRecord):
    __slots__ = ("ident", "description", "grids", "case")

    def __init__(self, ident: str, description: str, grids: dict, case):
        # grids: grid name -> default values, outermost first
        # case: (order, **one value per grid) -> list of comparisons, each a dict of `_report` fields
        self._freeze(ident, description, grids, case)


# The values each grid name admits in every identity that declares it.  The
# cap keeps one case small: a term of a shifted identity takes up to about
# 2(n + x) kernel passes over the order, and a multisum side t chain levels.
_CAP = 16
GRID_DOMAINS = {
    "t": (f"an integer in 1..{_CAP}", lambda v: 1 <= v <= _CAP),
    "n": (f"an integer in 1..{_CAP}", lambda v: 1 <= v <= _CAP),
    "x": (f"an integer in 0..{_CAP}", lambda v: 0 <= v <= _CAP),
    "z": (f"an integer in 0..{_CAP}", lambda v: 0 <= v <= _CAP),
    "c": ("one of 4, 2, 1", lambda v: v in (4, 2, 1)),
}

_HALF = "1/2"
_RATIONAL_PARAMS = (0, 1, 2, _HALF, "7/3")
_T3 = {"t": (1, 2, 3)}
_T4 = {"t": (1, 2, 3, 4)}
_TN3 = {"t": (1, 2, 3), "n": (1, 2, 3)}
_TNX3 = {"t": (1, 2, 3), "n": (1, 2, 3), "x": (0, 1, 2)}

# each closed form's name in macmahon.CLOSED_FORMS -> the catalog id of its check
_CLOSED_FORM_IDS = {
    "V2_ode": "closed-form-V2", "V3_ode": "closed-form-V3-ode", "V3_sigma": "closed-form-V3",
    "U3mV3_sigma": "closed-form-U3-minus-V3", "U4_sigma": "closed-form-U4",
    "MO251": "sigma1-convolution", "excess_V2U2": "excess-V2-U2", "V1_E2": "V1-eisenstein",
}


def _report(ident, order, params, pairs=(), note="", failure=None):
    """The report of one comparison.  Each pair holds two series, compared
    by `first_mismatch`, or two exact scalars, compared by ==; a scalar is
    not truncated, so its report has no order.  The first pair that differs
    fails the case with the two values where they differ and the pair's
    note after the case note; a case note is kept on pass.  A WZ walk
    compares its own steps: its first failure, a note naming the step,
    fails the case with no values."""
    if pairs and not isinstance(pairs[0][0], Series):
        order = None
    for lhs, rhs, *pair_note in pairs:
        at = lhs.first_mismatch(rhs) if isinstance(lhs, Series) else None
        if at is not None:
            lhs, rhs = lhs[at], rhs[at]
        elif isinstance(lhs, Series) or lhs == rhs:
            continue
        return IdentityReport(ident, params, order, False, at, str(lhs), str(rhs),
                              "; ".join(filter(None, (note, *pair_note))))
    return IdentityReport(ident, params, order, failure is None, note=failure or note)


def _sides(sides):
    """The case of one comparison at the grid point: `sides(order, **point)`
    returns its two sides."""
    return lambda order, **point: [dict(pairs=[sides(order, **point)])]


def _triplet(order, t, n):
    f = ident.harmonic_multisum(t, n, order)
    g = ident.harmonic_single_sum(t, n, order)
    h = ident.harmonic_paired_sum(t, n, order)
    return [dict(pairs=[(f, g, "multisum vs single-sum"), (g, h, "single-sum vs paired-sum")])]


def _mss_precursor(order, t, n, x):
    """The inverse-pair reading is compared; the case note records what the
    literal display does at the same point."""
    sides = ident.mss_precursor_sides(t, n, x, order, reading="inverse-pair")
    lit_lhs, lit_rhs = ident.mss_precursor_sides(t, n, x, order, reading="printed")
    at = lit_lhs.first_mismatch(lit_rhs)
    held = "also holds" if at is None else f"fails (first mismatch at q^{at})"
    return [dict(pairs=[sides], note=f"inverse-pair reading; literal printed form {held}")]


def _rational_master(order, t, n):
    """Each grid value is parsed once per point: the point makes 25 pairs."""
    from . import rational

    values = [(str(v), rational.Fraction(v)) for v in _RATIONAL_PARAMS]
    return [dict(params={"t": t, "n": n, "z": zs, "x": xs}, pairs=[rational.rational_master_sides(t, n, z, x)])
            for zs, z in values for xs, x in values]


def _rational_hypothesis(order, n):
    from . import rational

    return [dict(params={"n": n, "x": str(x)}, pairs=[rational.rational_hypothesis_sides(n, x)])
            for x in _RATIONAL_PARAMS]


def _rational_triplet(order, t, n):
    from . import rational

    s1, s2, s3 = rational.rational_triplet_sums(t, n)
    return [dict(pairs=[(s1, s2, "multisum vs single sum"), (s2, s3, "single sum vs paired sum")])]


def _wz_certificates(order):
    """Each walk compares its own steps and returns its first failure, or None."""
    from . import rational

    walks = [
        *(("wz-master", {"z": str(z), "nmax": 6}, None, rational.wz_master_failure(z, 6)) for z in (0, 1, _HALF)),
        *(("wz-cor32", {"x": str(x), "nmax": 6}, None, rational.wz_cor32_failure(x, 6)) for x in (_HALF, 2, "7/3")),
        ("wz-lemma51", {"z": 1, "nmax": 4}, order, ident.wz_lemma51_failure(1, 4, order)),
        *(("wz-cor52", {"x": x, "nmax": 3}, order, ident.wz_cor52_failure(x, 3, order)) for x in (0, 1)),
        *(("wz-cor53", {"z": z, "nmax": 3}, order, ident.wz_cor53_failure(z, 3, order)) for z in (0, 1)),
        ("wz-qbin-diff", {"nmax": 5}, order, ident.qbin_difference_failure(5, order)),
    ]
    return [dict(ident=i, params=p, order=o, failure=f) for i, p, o, f in walks]


def _closed_form(which, order):
    return [dict(params={"which": which}, pairs=[mac.CLOSED_FORMS[which](order)])]


def _conjugate_chain(order, t):
    """The chain against the weak multisum; the case note names which
    multisum family the chain reproduces."""
    chain, weak = mac.conjugate_chain_m_form(t, order), mac.weak_multisum(t, order)
    if chain.agrees(weak):
        note = "chain matches the weak (M-family) series"
    elif chain.agrees(mac.strict_multisum(t, order)):
        note = "chain matches the strict (MO-family) series, not the weak one"
    else:
        note = "chain matches neither multisum family"
    return [dict(pairs=[(chain, weak)], note=note)]


def _jacobi(order, c):
    prod = ident.jacobi_product_side(c, order)
    theta = ident.jacobi_theta_side(c, order)
    weak = ident.jacobi_weak_sum_side(c, order)
    return [dict(pairs=[(prod, theta, "product vs theta"), (theta, weak, "theta vs weak sum")])]


def _agreement(family, order, t):
    """The defining multisum, built once per t, against every other route of
    the family's formula table, in its order."""
    base = mac.strict_multisum(t, order) if family == "MO" else mac.weak_multisum(t, order)
    formulas = mac.MO_FORMULAS if family == "MO" else mac.M_FORMULAS
    return [dict(params={"t": t, "formula": name}, pairs=[(base, route(t, order))])
            for name, route in formulas.items() if name != "multisum"]


def _stirling_lambert(order, t):
    lhs = div.power_lambert(t, 2 * t, order) * factorial(2 * t - 1)
    rhs = Series.zero(order)
    for k in range(t):
        term = div.sigma_series(2 * t - 1 - 2 * k, order) * central_u(t, k)
        rhs = rhs + term if k % 2 == 0 else rhs - term
    return lhs, rhs


def _t_inversion(order, t):
    lhs = Series.zero(order)
    for k in range(1, t + 1):
        lhs = lhs + div.power_lambert(k, 2 * k, order) * (central_T(t, k) * factorial(2 * k - 1))
    return lhs, div.sigma_series(2 * t - 1, order)


def _eisenstein_ramanujan(order):
    e2, e4, e6 = (div.eisenstein(which, order) for which in ("E2", "E4", "E6"))
    sides = (("E2", 12 * e2.q_derivative(), e2 * e2 - e4), ("E4", 3 * e4.q_derivative(), e2 * e4 - e6),
             ("E6", 2 * e6.q_derivative(), e2 * e6 - e4 * e4))
    return [dict(params={"which": w}, pairs=[(lhs, rhs)]) for w, lhs, rhs in sides]


_SPECS = [
    IdentitySpec("theorem-FGH", "three equal finite q-harmonic sums", {"t": (1, 2, 3), "n": (1, 2, 3, 4)},
                 _triplet),
    IdentitySpec("FGH-recurrence", "first-difference recurrence for all three sums", _TN3,
                 lambda order, t, n: [dict(params={"which": which, "t": t, "n": n},
                                           pairs=[ident.triplet_recurrence_sides(which, t, n, order)])
                                      for which in ("multisum", "single-sum", "paired-sum")]),
    IdentitySpec("G-forms", "both shapes of the alternating single sum agree", _TN3, _sides(
        lambda order, t, n: (ident.harmonic_single_sum(t, n, order),
                             ident.harmonic_single_sum_alt(t, n, order)))),
    IdentitySpec("dilcher", "single sum vs multisum with simple q-integer denominators",
                 {"t": (1, 2, 3, 4), "n": (1, 2, 3, 4)},
                 _sides(lambda order, t, n: ident.dilcher_sides(t, n, order))),
    IdentitySpec("mss", "x-shifted single sum vs multisum", _TNX3,
                 _sides(lambda order, t, n, x: ident.mss_sides(t, n, x, order))),
    IdentitySpec("mss-precursor", "inverse-pair reading of the unnumbered precursor",
                 {"t": (1, 2), "n": (1, 2, 3), "x": (0, 1, 2)}, _mss_precursor),
    IdentitySpec("atidB", "x-shifted 2t-fold identity", _TNX3,
                 _sides(lambda order, t, n, x: ident.atid_b_sides(t, n, x, order))),
    IdentitySpec("cor52", "two-parameter (x, z) single sum vs weighted multisum",
                 {"t": (1, 2), "n": (1, 2, 3), "x": (0, 1), "z": (0, 1)},
                 _sides(lambda order, t, n, x, z: ident.cor52_sides(t, n, x, z, order))),
    IdentitySpec("cor53", "z-shifted recovery of the x-shifted identity",
                 {"t": (1, 2, 3), "n": (1, 2, 3), "z": (3, 4, 5)},  # z past mss's x grid
                 _sides(lambda order, t, n, z: ident.mss_sides(t, n, z, order))),
    IdentitySpec("rational-master", "exact rational master identity at q = 1",
                 {"t": (1, 2, 3, 4), "n": (1, 2, 4, 6, 8)}, _rational_master),
    IdentitySpec("rational-hypothesis", "alternating binomial seed identity", {"n": (1, 2, 3, 4, 5, 6)},
                 _rational_hypothesis),
    IdentitySpec("rational-FGH-limit", "the q = 1 shadow of the triplet",
                 {"t": (1, 2, 3), "n": (1, 2, 3, 4, 5, 6)}, _rational_triplet),
    IdentitySpec("wz-certificates", "all difference certificates on their grids", {}, _wz_certificates),
    *(IdentitySpec(ident_id, f"closed form {which}", {}, partial(_closed_form, which))
      for which, ident_id in _CLOSED_FORM_IDS.items()),
    IdentitySpec("conjugate-M-form", "smallest-part weighted conjugate sum equals the multisum", _T3,
                 _sides(lambda order, t: (mac.m_conjugate_form(t, order), mac.weak_multisum(t, order)))),
    IdentitySpec("conjugate-chain", "alternating-inequality chain vs both multisum families", _T3,
                 _conjugate_chain),
    IdentitySpec("jacobi-specialization", "product = theta sum = signed weak sums", {"c": (4, 2, 1)}, _jacobi),
    IdentitySpec("U-agreement", "five formula routes for the strict family agree", _T3, partial(_agreement, "MO")),
    IdentitySpec("V-agreement", "four formula routes for the weak family agree", _T3, partial(_agreement, "M")),
    IdentitySpec("symmetric-relation", "alternating strict/weak convolution vanishes", _T4,
                 _sides(lambda order, t: mac.symmetric_relation_sides(t, order))),
    IdentitySpec("stirling-lambert", "binomial Lambert series as a Stirling combination", _T4,
                 _sides(_stirling_lambert)),
    IdentitySpec("umbral-square-product", "binomial Lambert series as one umbral product", _T4, _sides(
        lambda order, t: (div.power_lambert(t, 2 * t, order) * factorial(2 * t - 1),
                          div.umbral_eval(div.square_product(t), div.sigma_series, order)))),
    IdentitySpec("T-inversion", "central factorial inversion back to a plain Lambert series", _T4,
                 _sides(_t_inversion)),
    IdentitySpec("umbral-compact", "t-th power Lambert sum as an umbral falling product", _T4, _sides(
        lambda order, t: (div.power_lambert(t, t, order) * factorial(t - 1),
                          div.umbral_eval(div.lower_factorial(t), div.sigma_series, order)))),
    IdentitySpec("umbral-tail", "alternating theta quotient as an umbral rising product", _T4, _sides(
        lambda order, t: (ident.alternating_tail_quotient(t, order) * factorial(t),
                          div.umbral_eval(div.raising_factorial(t), div.dilcher_r, order)))),
    IdentitySpec("eisenstein-ramanujan", "the three modular derivative identities", {}, _eisenstein_ramanujan),
]

REGISTRY: dict[str, IdentitySpec] = {spec.ident: spec for spec in _SPECS}


def known_ids():
    return sorted(REGISTRY)


def run_identity(ident_id: str, grids: dict, order: int) -> list[IdentityReport]:
    """Every case of one identity over the product of its grids: the values
    passed in `grids`, the declared defaults for grids not passed.  The grids
    are checked before any case runs; a bad one raises GridError.  A case
    whose exact division leaves a remainder (ArithmeticError, not a zero
    division or an overflow) fails with the error's message as its note."""
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
    for values in itertools.product(*walk):
        point = dict(zip(spec.grids, values))
        try:
            comparisons = spec.case(order, **point)
        except (ZeroDivisionError, OverflowError):
            raise
        except ArithmeticError as exc:  # an exact division left a remainder: a side is not what it claims
            comparisons = [dict(failure=str(exc))]
        out.extend(_report(**{"ident": ident_id, "order": order, "params": point, **comparison})
                   for comparison in comparisons)
    return out
