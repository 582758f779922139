"""Congruence verification and mining for the M and MO coefficient families.

A scan reads each coefficient of its family's default route (the
alternating single sum for M, the theta quotient for MO) only modulo the
primes of its claims.  One table serves every claim and prime for its
(family, t); tables are built uncached, one family at a time, and each is
dropped once its claims are checked.  Every table is a list of residues
mod m_t, the lcm of the primes of t's claims.  The M tables of every t
come from one packed single-sum pass whose weights are reduced mod m_t
(`macmahon.m_single_sum_many`); an M scan holds that packed sum, one
32-bit machine word per t at the suite's order, then the words read back
from it, plus the one table read from them.  The MO tables come from one
packed division by the theta series whose slots are reduced at the
division's leaves (`macmahon.mo_andrews_rose_many`): the ts whose moduli
m_t are pairwise coprime share one slot, reduced mod the product of their
moduli, so the suite's four MO tables take slots of 25 and 20 bits at
order 20000.  The division (`series.divide_coeffs`) packs each
coefficient into a lane once and reads it back once, at a width proved
from the slots' moduli, 29 bits for the suite (6-byte lanes), and is
never retried.  An MO
scan holds that packed quotient plus one slot and one table unpacked from
it, and the division's packed lanes while it runs.  A status comes from
one rule, `reports.claim_status`.  Only a prospect's chance level is a
rational, so only `prospect` loads `fractions`.
"""

from itertools import compress, count, repeat
from math import lcm
from operator import mod

from .macmahon import coefficient_values, leading_window
from .reports import REFUTED, CongruenceClaim, InputError, ProspectResult, claim_status


def _first_nonvanishing(values, p, step, offset):
    """(first index on step*n + offset where p does not divide the value, or
    None; number of indices checked)."""
    run = values[offset::step]
    n = next(compress(count(), map(mod, run, repeat(p))), None)  # one C-level scan
    return (None, len(run)) if n is None else (offset + n * step, n + 1)


def _first_checked(claim) -> int:
    """The smallest index of the claim's progression a*n + b at or past
    its family's leading window: the first coefficient that is not a
    structural zero."""
    window = leading_window(claim.family, claim.t)
    return claim.offset + max(0, -(-(window - claim.offset) // claim.step)) * claim.step


def require_checked(claims, order: int) -> None:
    """Raise InputError if some claim's progression a*n + b has no index
    <= order at or past its leading window (`_first_checked`), so that
    checking it would check no coefficient, or only structural zeros.
    The message names the claim that needs the largest order and the
    smallest order that checks it."""
    unchecked = [c for c in claims if _first_checked(c) > order]
    if unchecked:
        c = max(unchecked, key=_first_checked)
        raise InputError(
            f"claim {c.p} | {c.family}({c.t}, {c.step}n+{c.offset}) checks no coefficient at or past its"
            f" leading window at order {order}; order {_first_checked(c)} is the smallest that checks it"
        )


def check_claims(claims, order: int) -> list[CongruenceClaim]:
    """Check coeff(a*n + b) = 0 mod p for every a*n + b <= order, for each
    claim; one table per (family, t) serves all of its claims, and the
    tables of one family come from one `coefficient_values` pass, asked
    for residues mod the lcm of the primes of t's claims.

    Returns new claims, in the given order, with status
    (`reports.claim_status`), depth and (on failure) the first violating
    coefficient index filled in.  A claim that is one of `paper_claims()`
    takes that claim's kind and label, whatever kind it was given, unless
    it is a prospect's survivor: a scan's finding stays a prospect.  A
    claim checked on no coefficient, or only on structural zeros, raises
    InputError (`require_checked`).
    """
    require_checked(claims, order)
    paper = {c.key(): c for c in paper_claims()}
    groups = {}
    for i, claim in enumerate(claims):
        groups.setdefault(claim.family, {}).setdefault(claim.t, []).append(i)
    results = [None] * len(claims)
    for family, members in groups.items():
        moduli = {t: lcm(*(claims[i].p for i in idx)) for t, idx in members.items()}
        # largest t first: the MO tables share slots first-fit in this order
        # (`macmahon.coprime_layers`), which gives the suite's {10, 3, 2} and {4}
        for t, values in coefficient_values(family, sorted(members, reverse=True), order, moduli=moduli):
            for i in members[t]:
                claim = claims[i]
                first_violation, checked = _first_nonvanishing(values, claim.p, claim.step, claim.offset)
                known = paper.get(claim.key()) if claim.kind != "prospect" else None
                kind, label = (known.kind, known.label) if known else (claim.kind, claim.label)
                results[i] = CongruenceClaim(
                    *claim.key(), kind=kind, label=label, status=claim_status(kind, first_violation),
                    depth=checked - 1, checked=checked, first_violation=first_violation,
                )
            del values  # free this table before the next one is built
    return results


def check_claim(claim: CongruenceClaim, order: int) -> CongruenceClaim:
    """`check_claims` for one claim."""
    return check_claims([claim], order)[0]


def paper_claims() -> list[CongruenceClaim]:
    """The fixed claim list: every stated congruence theorem, with two t
    representatives per residue class, plus the open conjecture."""
    claims = []

    def add(family, t, p, step, offset, label, kind="theorem"):
        claims.append(
            CongruenceClaim(family=family, t=t, p=p, step=step, offset=offset, kind=kind, label=label)
        )

    for t in (3, 6, 1, 4):
        add("M", t, 3, 3, 2, f"3 | M({t}, 3n+2)  [t = 0,1 mod 3]")
    for t in (5, 10):
        add("M", t, 5, 5, 2, f"5 | M({t}, 5n+2)  [t = 0 mod 5]")
        add("M", t, 5, 5, 4, f"5 | M({t}, 5n+4)  [t = 0 mod 5]")
    for t in (2, 7):
        add("M", t, 5, 5, 1, f"5 | M({t}, 5n+1)  [t = 2 mod 5]")
        add("M", t, 5, 5, 3, f"5 | M({t}, 5n+3)  [t = 2 mod 5]")
    for t in (2, 9):
        add("M", t, 7, 7, 1, f"7 | M({t}, 7n+1)  [t = 2 mod 7]")
    for t in (3, 10):
        add("M", t, 7, 7, 1, f"7 | M({t}, 7n+1)  [t = 3 mod 7]")
        add("M", t, 7, 7, 2, f"7 | M({t}, 7n+2)  [t = 3 mod 7]")
        add("M", t, 7, 7, 6, f"7 | M({t}, 7n+6)  [t = 3 mod 7]")
    for t in (1, 2, 3):
        add("M", t, 7, 8, 4, f"7 | M({t}, 8n+4)")
    add("MO", 2, 5, 5, 1, "5 | MO(2, 5n+1)")
    add("MO", 2, 5, 5, 2, "5 | MO(2, 5n+2)")
    add("MO", 3, 7, 7, 3, "7 | MO(3, 7n+3)")
    add("MO", 3, 7, 7, 5, "7 | MO(3, 7n+5)")
    add("MO", 4, 11, 11, 6, "11 | MO(4, 11n+6)")
    add("MO", 10, 11, 11, 7, "11 | MO(10, 11n+7)  [open]", kind="conjecture")
    return claims


def verify_paper_suite(order: int):
    """Check every claim of `paper_claims()` at the requested depth."""
    return check_claims(paper_claims(), order)


def prospect_grid(family: str, t_values, primes, order: int) -> tuple[list, list]:
    """The prospect grid as two lists, or InputError for a bad one.

    The t are checked one by one, so a huge range stops at its first bad t:
    a t < 1 has no table, and a table zero through the order (its leading
    window passes it) would be scanned on structural zeros only.  Then a
    repeated t or prime would report its survivors twice and count its
    progressions twice in the chance level.
    """
    grid = []
    for t in t_values:
        if t < 1:
            raise InputError(f"t must be >= 1, got {t}")
        window = leading_window(family, t)
        if window > order:
            raise InputError(
                f"t = {t}: {family}({t}, n) is 0 for every n <= {order}, so its scan checks only structural zeros;"
                f" order {window} is the smallest with a nonzero coefficient"
            )
        grid.append(t)
    for name, values in (("t", grid), ("p", primes)):
        seen = set()
        for v in values:
            if v in seen:
                raise InputError(f"{name} grid repeats {v}")
            seen.add(v)
    return grid, list(primes)


def _scanned_offsets(p: int, order: int, window: int) -> list:
    """The offsets b < p whose progression p*n + b checks at least one index
    <= order at or past the leading window: the last such index,
    b + p*((order - b)//p), is >= window.  An offset with none would check
    only structural zeros."""
    return [b for b in range(min(p, order + 1)) if b + (order - b) // p * p >= window]


def _null_survivals(p: int, order: int, windows) -> "Fraction":
    """Sum over the leading windows of a prospect's t, and over the offsets
    b scanned under each (`_scanned_offsets`), of p^-((order - b)//p + 1):
    one integer numerator over p^C, for the largest count C (at b = 0).
    It runs once per prime of a prospect, the one use of `fractions` in a
    scan, so the import is made here."""
    from fractions import Fraction

    c = order // p + 1
    return Fraction(
        sum(p ** (c - 1 - (order - b) // p) for window in windows for b in _scanned_offsets(p, order, window)), p ** c
    )


def prospect(family: str, t_values, primes, order: int) -> ProspectResult:
    """Scan all progressions (p, b) with step p for full vanishing.

    Only offsets b whose progression checks an index <= order at or past
    t's leading window are scanned (`_scanned_offsets`), so every survivor
    rests on at least one coefficient that is not a structural zero.
    Survivors are reported sorted by evidence depth; ties keep the order
    of t_values, then of primes, then of offsets.  A
    bad grid raises InputError (`prospect_grid`).  Every (t, p, b)
    is a claim of kind "prospect", checked by `check_claims`, so a survivor
    carries the status a recheck of its report gives it: evidence-to-depth.

    The chance level is the survivor count a uniform-residue null would
    predict over the scanned progressions, as an exact Fraction: offset b
    has (order - b)//p + 1 coefficients checked, each vanishing with
    probability 1/p, so (t, p, b) survives with probability p to the minus
    that count (`_null_survivals`).
    """
    t_values, primes = prospect_grid(family, t_values, primes, order)
    known = {c.key() for c in paper_claims()}
    claims = []
    for t in t_values:
        window = leading_window(family, t)
        for p in primes:
            for b in _scanned_offsets(p, order, window):
                label = f"{p} | {family}({t}, {p}n+{b})"
                if (family, t, p, p, b) in known:
                    label += "  [known claim]"
                claims.append(CongruenceClaim(family, t, p, p, b, kind="prospect", label=label))
    claims = [c for c in check_claims(claims, order) if c.status != REFUTED]
    claims.sort(key=lambda c: -c.depth)
    windows = [leading_window(family, t) for t in t_values]
    chance = sum(_null_survivals(p, order, windows) for p in primes)
    return ProspectResult(
        family=family,
        order=order,
        claims=claims,
        chance_level=chance,
        note="survivors under a uniform-residue null; not a significance test",
    )
