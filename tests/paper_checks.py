"""The paper's lemmas as checks that only the tests run: the sigma lemmas,
the termwise delta(t, m) argument, the rational-certificate bound, the
Master Lemma for a general sequence and the q-binomial inverse pair.

Each check takes parameters that no catalog grid carries, so none of them
is a `verify` id; each returns an IdentityReport (or plain values) built
from the library's own routes.
"""

from fractions import Fraction
from math import comb, factorial

from conftest import q_binomial
from macsums.congruences import _first_nonvanishing
from macsums.divisors import sigma
from macsums.macmahon import add_single_sum_term, single_sum_weights
from macsums.rational import _check_chain_length, _check_poles, _weak_chain_sum
from macsums.reports import IdentityReport
from macsums.series import Series

# ---------------------------------------------------------------------------
# sigma lemmas


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


# ---------------------------------------------------------------------------
# the termwise argument for the M single sum


def phi_termwise_check(t, k, p, step, offset, order) -> IdentityReport:
    """Single-k term of the M single sum, (-1)^(k-1) (1+q^k) q^(C(k,2)+tk) / (1-q^k)^(2t),
    tested for vanishing along the progression modulo p."""
    params = {"t": t, "k": k, "p": p, "step": step, "offset": offset}
    out = [0] * (order + 1)
    add_single_sum_term(out, t, k, single_sum_weights(t, order + 1))
    idx, _ = _first_nonvanishing(out, p, step, offset)
    if idx is not None:
        return IdentityReport(
            "phi-termwise", params, order, False, mismatch_at=idx,
            lhs=str(out[idx] % p), rhs="0",
        )
    return IdentityReport("phi-termwise", params, order, True)


# delta(t, m) = C(m+2t-1, 2t-1) + C(m+2t-2, 2t-1), the paired binomial weight
# that drives the termwise congruences, is `single_sum_weights(t, m + 1)[m]`.

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
    delta = single_sum_weights(t, top + 1)
    for m in range(top + 1):
        if (delta[m] - poly(m)) % p != 0:
            return IdentityReport(
                "delta-residue", params, None, False, mismatch_at=m,
                lhs=str(delta[m] % p), rhs=str(poly(m) % p),
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
    delta = single_sum_weights(t, mmax + 1)
    for m in range(mmax + 1):
        if m % p in residues and delta[m] % p != 0:
            return IdentityReport(
                "delta-vanishing", params, None, False, mismatch_at=m,
                lhs=str(delta[m] % p), rhs="0",
            )
    return IdentityReport("delta-vanishing", params, None, True)


def exponent_residue_set(t, p, m, kmax=None):
    """All residues of C(k,2) + (m+t)k mod p as k runs over a full period."""
    kmax = kmax if kmax is not None else 2 * p
    return {(k * (k - 1) // 2 + (m + t) * k) % p for k in range(1, kmax + 1)}


# ---------------------------------------------------------------------------
# rational-function certificates


def certify_rational_equality(lhs: Series, rhs: Series, bound: int) -> bool:
    """Promote truncated agreement to rational-function equality.

    Sound when bound dominates deg(numerator) + deg(denominator) of both
    sides as rational functions: two distinct rational functions of that
    complexity cannot agree on 2*bound+1 series coefficients.
    """
    need = 2 * bound + 1
    if lhs.order < need or rhs.order < need:
        raise ValueError(f"insufficient truncation: bound {bound} needs order {need}")
    return lhs.agrees(rhs, upto=need)


def triplet_degree_bound(t: int, n: int) -> int:
    # conservative: common denominator of every term on either side
    return 2 * t * sum(range(1, 2 * n + 1))


# ---------------------------------------------------------------------------
# the Master Lemma for a general sequence


def gbinom(a, k: int) -> Fraction:
    """Generalized binomial C(a, k) = a(a-1)...(a-k+1)/k! for exact rational a."""
    if k < 0:
        raise ValueError("gbinom needs k >= 0")
    num = Fraction(1)
    a = Fraction(a)
    for i in range(k):
        num *= a - i
    return num / factorial(k)


def master_lemma_sides(t: int, n: int, z, a_seq):
    """General form: any sequence a with b defined by the alternating
    binomial transform satisfies the lemma."""
    _check_chain_length(t)
    z = Fraction(z)
    _check_poles(n, z)
    a = [Fraction(v) for v in a_seq]
    if len(a) < n:
        raise ValueError("need a_1..a_n")
    b = []
    for m in range(1, n + 1):
        s = Fraction(0)
        for k in range(1, m + 1):
            term = comb(m, k) * a[k - 1]
            s += term if k % 2 else -term
        b.append(s)
    lhs = Fraction(0)
    for k in range(1, n + 1):
        term = comb(n, k) * a[k - 1] / (z + k) ** t
        lhs += term if k % 2 else -term
    denom = gbinom(z + n, n)
    if denom == 0:
        raise ValueError("parameter hits pole: C(z+n, n) = 0")
    first = lambda k: b[k - 1] * gbinom(z + k, k) / (z + k)
    return lhs, _weak_chain_sum(t, n, first, lambda k: 1 / (z + k)) / denom


# ---------------------------------------------------------------------------
# the q-binomial inverse pair


def q_binomial_transform(a, order):
    """Forward transform b_n = sum_k (-1)^(k-1) qbin(n,k) a_k, as series.

    a is a list [a_1, ..., a_L] of ints or Series; returns the
    matching list [b_1, ..., b_L] of Series at the given order.
    """
    out = []
    for n in range(1, len(a) + 1):
        acc = Series.zero(order)
        for k in range(1, n + 1):
            term = q_binomial(n, k).to_series(order) * a[k - 1]
            acc = acc + term if k % 2 else acc - term
        out.append(acc)
    return out


def q_binomial_inverse_transform(b, order):
    """Inverse transform a_n = sum_k (-1)^(k-1) q^C(n-k,2) qbin(n,k) b_k."""
    out = []
    for n in range(1, len(b) + 1):
        acc = Series.zero(order)
        for k in range(1, n + 1):
            e = (n - k) * (n - k - 1) // 2
            bk = b[k - 1]
            if not isinstance(bk, Series):
                bk = Series.monomial(bk, 0, order)
            term = (q_binomial(n, k).to_series(order) * bk).shift(e)
            acc = acc + term if k % 2 else acc - term
        out.append(acc)
    return out
