"""Congruence verification and mining for the M and MO coefficient families.

Scans run on mod-p streams built from the cheapest formula per family: the
alternating single sum for M and the theta quotient for MO.  The theta
quotient's rational weight (2k+1)/(2t+1) is replaced by the equal integer
2*C(k+t, 2t+1) + C(k+t, 2t), so the stream stays defined even when p
divides 2t+1 (as it does for the t = 2, p = 5 claims).
"""

from __future__ import annotations

from math import comb

from .divisors import sigma
from .reports import EVIDENCE, REFUTED, VERIFIED, CongruenceClaim, IdentityReport, ProspectResult
from .series import ModSeries

_STREAM_CACHE: dict = {}


def m_mod_stream(t: int, p: int, order: int) -> ModSeries:
    """Coefficients of the M-family series modulo p, via the single sum."""
    key = ("M", t, p, order)
    hit = _STREAM_CACHE.get(key)
    if hit is not None:
        return hit
    out = [0] * (order + 1)
    k = 1
    while k * (k - 1) // 2 + t * k <= order:
        e = k * (k - 1) // 2 + t * k
        sign = -1 if k % 2 == 0 else 1
        for m in range((order - e) // k + 1):
            c = sign * comb(m + 2 * t - 1, 2 * t - 1) % p
            idx = e + m * k
            out[idx] = (out[idx] + c) % p
            if idx + k <= order:
                out[idx + k] = (out[idx + k] + c) % p
        k += 1
    result = ModSeries(out, p, order)
    _STREAM_CACHE[key] = result
    return result


def mo_mod_stream(t: int, p: int, order: int) -> ModSeries:
    """Coefficients of the MO-family series modulo p, via the theta quotient
    with integer weights."""
    key = ("MO", t, p, order)
    hit = _STREAM_CACHE.get(key)
    if hit is not None:
        return hit
    num = [0] * (order + 1)
    k = t
    while k * (k + 1) // 2 <= order:
        w = 2 * comb(k + t, 2 * t + 1) + comb(k + t, 2 * t)
        if (k + t) % 2:
            w = -w
        num[k * (k + 1) // 2] = (num[k * (k + 1) // 2] + w) % p
        k += 1
    # (q)_inf^3 equals the weight-1 theta series; invert it mod p
    cube = [0] * (order + 1)
    m = 0
    while m * (m + 1) // 2 <= order:
        v = 2 * m + 1
        cube[m * (m + 1) // 2] = (-v if m % 2 else v) % p
        m += 1
    result = ModSeries(num, p, order) * ModSeries(cube, p, order).invert()
    _STREAM_CACHE[key] = result
    return result


def family_mod_stream(family: str, t: int, p: int, order: int) -> ModSeries:
    if family == "M":
        return m_mod_stream(t, p, order)
    if family == "MO":
        return mo_mod_stream(t, p, order)
    raise ValueError(f"unknown family {family!r}")


def check_claim(claim: CongruenceClaim, order: int) -> CongruenceClaim:
    """Check coeff(a*n + b) = 0 mod p for every a*n + b <= order.

    Returns a new claim with status, depth and (on failure) the first
    violating coefficient index filled in.
    """
    stream = family_mod_stream(claim.family, claim.t, claim.p, order)
    p = claim.p
    checked = 0
    first_violation = None
    depth = -1
    for idx in range(claim.offset, order + 1, claim.step):
        checked += 1
        depth = (idx - claim.offset) // claim.step
        if stream[idx] % p != 0:
            first_violation = idx
            break
    status = REFUTED if first_violation is not None else (
        EVIDENCE if claim.kind == "conjecture" else VERIFIED
    )
    return CongruenceClaim(
        family=claim.family,
        t=claim.t,
        p=claim.p,
        step=claim.step,
        offset=claim.offset,
        kind=claim.kind,
        label=claim.label,
        status=status,
        depth=depth,
        checked=checked,
        first_violation=first_violation,
    )


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


def sigma_progression_check(p, s_hi, s_lo, step, offset, depth) -> IdentityReport:
    """sigma_(s_hi)(n) = sigma_(s_lo)(n) mod p along n = step*m + offset."""
    params = {"p": p, "s_hi": s_hi, "s_lo": s_lo, "step": step, "offset": offset, "depth": depth}
    for n in range(offset if offset else step, depth + 1, step):
        if (sigma(s_hi, n) - sigma(s_lo, n)) % p != 0:
            return IdentityReport(
                "sigma-progression", params, None, False, mismatch_at=n,
                lhs=str(sigma(s_hi, n) % p), rhs=str(sigma(s_lo, n) % p),
            )
    return IdentityReport("sigma-progression", params, None, True)


def verify_paper_suite(order: int):
    """Check every claim of `paper_claims()` at the requested depth."""
    results = [check_claim(c, order) for c in paper_claims()]
    return results


def sigma_lemma_a_check(p, k, j, a, b, depth) -> IdentityReport:
    """a*sigma_k(n) + b*sigma_j(n) = 0 mod p for every n <= depth with
    n != 0 mod p and a + b*n^j = 0 mod p; needs k + j = 0 mod p-1."""
    params = {"p": p, "k": k, "j": j, "a": a, "b": b, "depth": depth}
    if (k + j) % (p - 1) != 0:
        raise ValueError("sigma lemma needs k + j divisible by p - 1")
    qualifying = 0
    for n in range(1, depth + 1):
        if n % p == 0:
            continue
        if (a + b * pow(n, j, p)) % p != 0:
            continue
        qualifying += 1
        if (a * sigma(k, n) + b * sigma(j, n)) % p != 0:
            return IdentityReport(
                "sigma-lemma-a", params, None, False, mismatch_at=n,
                note=f"combination nonzero mod {p} at n={n}",
            )
    return IdentityReport("sigma-lemma-a", params, None, True, note=f"{qualifying} qualifying n")


def sigma_lemma_b_check(p, depth) -> IdentityReport:
    """sigma_((p-1)/2)(n) = 0 mod p for quadratic non-residues n mod p."""
    params = {"p": p, "depth": depth}
    residues = {pow(r, 2, p) for r in range(1, p)}
    s = (p - 1) // 2
    count = 0
    for n in range(1, depth + 1):
        if n % p == 0 or (n % p) in residues:
            continue
        count += 1
        if sigma(s, n) % p != 0:
            return IdentityReport(
                "sigma-lemma-b", params, None, False, mismatch_at=n,
                note=f"sigma_{s}({n}) nonzero mod {p}",
            )
    return IdentityReport("sigma-lemma-b", params, None, True, note=f"{count} non-residue n")


def phi_termwise_check(t, k, p, step, offset, order) -> IdentityReport:
    """Single-k term of the M single sum: (1+q^k) q^(C(k,2)+tk) / (1-q^k)^(2t),
    tested for vanishing along the progression modulo p."""
    params = {"t": t, "k": k, "p": p, "step": step, "offset": offset}
    e = k * (k - 1) // 2 + t * k
    out = [0] * (order + 1)
    if e <= order:
        for m in range((order - e) // k + 1):
            c = comb(m + 2 * t - 1, 2 * t - 1) % p
            idx = e + m * k
            out[idx] = (out[idx] + c) % p
            if idx + k <= order:
                out[idx + k] = (out[idx + k] + c) % p
    for idx in range(offset, order + 1, step):
        if out[idx] % p != 0:
            return IdentityReport(
                "phi-termwise", params, order, False, mismatch_at=idx,
                lhs=str(out[idx]), rhs="0",
            )
    return IdentityReport("phi-termwise", params, order, True)


def delta_binomial(t, m):
    """C(m+2t-1, 2t-1) + C(m+2t-2, 2t-1): the paired binomial weight that
    drives the termwise congruences."""
    return comb(m + 2 * t - 1, 2 * t - 1) + (comb(m + 2 * t - 2, 2 * t - 1) if m >= 1 else 0)


_DELTA_FACTORED = {
    # (p, t residue class): polynomial in m congruent to delta mod p.
    # The reduction behind these is digit-wise (Lucas), so the polynomial
    # form is exact for every m only when the binomial's lower index 2t-1
    # stays below p; otherwise it is exact on the base period m < p.
    (3, 0): lambda m: (m + 1) ** 2,
    (5, 0): lambda m: 3 * (m - 2) * (m - 3) ** 2 * (m - 4),
    (5, 2): lambda m: -3 * (m - 1) * (m - 3) * (m - 4),
    (7, 2): lambda m: -2 * (m - 2) * (m - 5) * (m - 6),
    (7, 3): lambda m: 2 * (m - 1) * (m - 3) * (m - 4) * (m - 5) * (m - 6),
}

# residues r mod p where the termwise argument needs delta(t, m) = 0 mod p
# for every m = r: exactly the m for which the exponent C(k,2)+(m+t)k can
# land on a target progression class
DELTA_ZERO_RESIDUES = {
    (3, 0): (2,),
    (3, 1): (1,),
    (5, 0): (2, 3, 4),
    (5, 2): (1, 3, 4),
    (7, 2): (2, 5, 6),
    (7, 3): (1, 3, 4, 5, 6),
}


def delta_residue_check(p, t, mmax) -> IdentityReport:
    """Compare delta(t, m) mod p against its factored polynomial form, on
    the range where the digit-wise reduction makes the form exact."""
    params = {"p": p, "t": t, "mmax": mmax}
    key = (p, t % p)
    if key not in _DELTA_FACTORED:
        raise ValueError(f"no factored form recorded for p={p}, t={t}")
    poly = _DELTA_FACTORED[key]
    top = mmax if 2 * t - 1 < p else min(mmax, p - 1)
    for m in range(top + 1):
        if (delta_binomial(t, m) - poly(m)) % p != 0:
            return IdentityReport(
                "delta-residue", params, None, False, mismatch_at=m,
                lhs=str(delta_binomial(t, m) % p), rhs=str(poly(m) % p),
            )
    note = "" if top == mmax else f"polynomial form checked on the base period m <= {top}"
    return IdentityReport("delta-residue", params, None, True, note=note)


def delta_vanishing_check(p, t, mmax) -> IdentityReport:
    """delta(t, m) = 0 mod p for every m in the residue classes the
    termwise congruence argument relies on; holds for all m."""
    params = {"p": p, "t": t, "mmax": mmax}
    key = (p, t % p)
    if key not in DELTA_ZERO_RESIDUES:
        raise ValueError(f"no vanishing data recorded for p={p}, t={t}")
    residues = DELTA_ZERO_RESIDUES[key]
    for m in range(mmax + 1):
        if m % p in residues and delta_binomial(t, m) % p != 0:
            return IdentityReport(
                "delta-vanishing", params, None, False, mismatch_at=m,
                lhs=str(delta_binomial(t, m) % p), rhs="0",
            )
    return IdentityReport("delta-vanishing", params, None, True)


def exponent_residue_set(t, p, m, kmax=None):
    """All residues of C(k,2) + (m+t)k mod p as k runs over a full period."""
    kmax = kmax if kmax is not None else 2 * p
    return {(k * (k - 1) // 2 + (m + t) * k) % p for k in range(1, kmax + 1)}


def prospect(family: str, t_values, primes, order: int) -> ProspectResult:
    """Scan all progressions (p, b) with step p for full vanishing.

    Survivors are reported sorted by evidence depth.  The chance level is
    the survivor count a uniform-residue null would predict: each of the
    roughly order/p residues in a progression vanishes with probability
    1/p, so each (t, p, b) survives with probability p^(-order/p).
    """
    known = {c.key(): c.label for c in paper_claims() if c.family == family}
    claims = []
    chance = 0.0
    for t in t_values:
        for p in primes:
            stream = family_mod_stream(family, t, p, order)
            chance += p * p ** (-(order / p))
            for b in range(p):
                ok = True
                checked = 0
                for idx in range(b, order + 1, p):
                    checked += 1
                    if stream[idx] % p != 0:
                        ok = False
                        break
                if ok:
                    anchor = known.get((family, t, p, p, b))
                    label = f"{p} | {family}({t}, {p}n+{b})"
                    if anchor:
                        label += "  [known claim]"
                    claims.append(
                        CongruenceClaim(
                            family=family, t=t, p=p, step=p, offset=b,
                            kind="prospect", label=label,
                            status=EVIDENCE, depth=(order - b) // p, checked=checked,
                        )
                    )
    claims.sort(key=lambda c: -c.depth)
    return ProspectResult(
        family=family,
        order=order,
        claims=claims,
        chance_level=chance,
        note="survivors under a uniform-residue null; not a significance test",
    )
