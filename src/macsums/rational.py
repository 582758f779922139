"""The finite identities specialized at q = 1, in exact rationals, and the
two q = 1 WZ certificate walks.

These are the q = 1 shadows of the q-series identities in `identities`:
the master identity and its seed, the triplet limit, and the telescoping
certificates of the master lemma (walked by `identities.telescoping_failure`)
and of the seed.  It is the one module that imports `fractions` at its
top, and the registry imports it only inside its four q = 1 cases, so the
other catalog ids, `coeffs` and the congruence suite never load
`fractions`.  A WZ walk compares its own steps and returns its first
failure, a note naming the step, or None.
"""

from fractions import Fraction
from math import comb, factorial, prod

from .identities import telescoping_failure


def _chain_tails(w: list, r: int) -> list:
    """The tails T_r(v) for v = 1..n (index 0 unused) of the weights
    w = [_, w_1, ..., w_n]: T_r(v) sums w_(k_1)...w_(k_r) over
    v <= k_1 <= ... <= k_r <= n, and T_r(v) = T_r(v+1) + w_v T_(r-1)(v)
    from T_0 = 1.  The sums start from the ints 1 and 0, so integer weights
    give integer tails."""
    tail = [1] * len(w)
    for _ in range(r):
        acc = 0
        for v in range(len(w) - 1, 0, -1):
            acc += w[v] * tail[v]
            tail[v] = acc
    return tail


def _weak_chain_sum(t: int, n: int, first, rest) -> Fraction:
    """Sum over 1 <= k_1 <= ... <= k_t <= n of first(k_1) rest(k_2)...rest(k_t):
    the sum of first(k) T_(t-1)(k) over the tails of the weights rest(v)."""
    tail = _chain_tails([None] + [rest(v) for v in range(1, n + 1)], t - 1)
    return sum((first(k) * tail[k] for k in range(1, n + 1)), Fraction(0))


def _check_chain_length(t):
    """A chain of length t < 1 has no first part, so neither side is defined."""
    if t < 1:
        raise ValueError(f"chain length t must be >= 1, got {t}")


def _check_poles(n, z=None, x=None):
    for k in range(1, n + 1):
        if z == -k:
            raise ValueError("parameter hits pole: z + k = 0")
        if x is not None and x == -k:
            raise ValueError("parameter hits pole: x + k = 0")


# The master identity and its seed run on integers.  With z = a/b and
# x = c/d in lowest terms, e_k = a + kb = b(z+k) and f_k = c + kd = d(x+k)
# are integers, and every term of either side is an integer over
# E^t P_n, where E = e_1...e_n and P_n = f_1...f_n.  Each side is summed as
# one integer numerator over that denominator and reduced once.


def _master_lhs(t: int, n: int, z: Fraction, x: Fraction) -> Fraction:
    """Sum over k = 1..n of (-1)^(k-1) C(n,k) / ((z+k)^t C(x+k, k)).

    C(x+k, k) = f_1...f_k / (d^k k!), so term k is
    (-1)^(k-1) C(n,k) b^t d^k k! (E/e_k)^t (P_n/P_k) over E^t P_n.  The
    factors P_n/P_k = f_(k+1)...f_n grow from the top down, so one pass over
    k gives the numerator and leaves P_n.
    """
    a, b = z.numerator, z.denominator
    c, d = x.numerator, x.denominator
    e = [a + k * b for k in range(n + 1)]
    big_e = prod(e[1:])
    num, tail = 0, 1
    for k in range(n, 0, -1):
        term = comb(n, k) * d ** k * factorial(k) * (big_e // e[k]) ** t * tail
        num += term if k % 2 else -term
        tail *= c + k * d
    if tail == 0:
        raise ValueError("parameter hits pole: C(x+k, k) = 0")
    return Fraction(b ** t * num, big_e ** t * tail)


def rational_master_sides(t: int, n: int, z, x):
    """Master identity specialized: a_k = 1/C(x+k, k), b_k = k/(x+k).

    The rhs is the weak chain of first(k_1) rest(k_2)...rest(k_t) over
    C(z+n, n), with first(k) = k C(z+k, k)/((x+k)(z+k)) and
    rest(v) = 1/(z+v) = b w_v / E for the integer weights w_v = E/e_v.
    Its tails T_r(v) = T_r(v+1) + w_v T_(r-1)(v) stay integers, and over
    b^(n-1) n! P_n, first(k) is k d b^(n-k) (n!/k!) e_1...e_(k-1) (P_n/f_k).
    """
    _check_chain_length(t)
    z = Fraction(z)
    x = Fraction(x)
    _check_poles(n, z, x)
    lhs = _master_lhs(t, n, z, x)
    a, b = z.numerator, z.denominator
    c, d = x.numerator, x.denominator
    e = [a + k * b for k in range(n + 1)]
    f = [c + k * d for k in range(n + 1)]
    big_e, big_p = prod(e[1:]), prod(f[1:])
    w = [0] + [big_e // e[v] for v in range(1, n + 1)]
    tail = _chain_tails(w, t - 1)  # the rest factors of a chain of length t
    total, head = 0, 1
    for k in range(1, n + 1):
        total += k * b ** (n - k) * (factorial(n) // factorial(k)) * head * (big_p // f[k]) * tail[k]
        head *= e[k]
    # b/E from each of the t - 1 rest factors, and from first(k) over C(z+n, n)
    return lhs, Fraction(b ** t * d * total, big_e ** t * big_p)


def rational_hypothesis_sides(n: int, x):
    """The seed identity: alternating sum of C(n,k)/C(x+k,k) equals n/(x+n).
    Its lhs is the master lhs at t = 0, where z drops out."""
    x = Fraction(x)
    return _master_lhs(0, n, Fraction(0), x), Fraction(n) / (x + n)


def rational_triplet_sums(t: int, n: int):
    """The q = 1 shadow of the triplet (set x = n in the master corollary):
    multisum of 1/(k_1^2...k_t^2) equals twice the alternating single sum,
    the master lhs with exponent 2t at z = 0, x = n, equals the paired
    2t-fold sum."""
    inverse_square = lambda k: Fraction(1, k * k)
    s1 = _weak_chain_sum(t, n, inverse_square, inverse_square)
    s3 = _weak_chain_sum(2 * t, n, lambda k: Fraction(2, n + k), lambda k: Fraction(1, k))
    return s1, 2 * _master_lhs(2 * t, n, 0, n), s3


# ---------------------------------------------------------------------------
# WZ certificate walks at q = 1: each returns its first failing step, or None


def _running_binomials(z: Fraction, kmax: int) -> list:
    """[C(z+k, k) for k = 0..kmax], each from the one before:
    C(z+k, k) = C(z+k-1, k-1) (z+k)/k."""
    out = [Fraction(1)]
    for k in range(1, kmax + 1):
        out.append(out[-1] * (z + k) / k)
    return out


def wz_master_failure(z, nmax: int) -> str | None:
    """Certificate for the binomial sum used by the master lemma:
    F(m,k) = C(z+k,k)/(z+k) * C(k,m), G(m,k) = F(m,k)(k-m)/(z+m), and the
    sum of F(m,m..n) is C(z+n,n)/(z+m) * C(n,m)."""
    z = Fraction(z)
    _check_poles(nmax + 1, z)
    binom = _running_binomials(z, nmax + 1)
    F = lambda m, k: binom[k] / (z + k) * comb(k, m)
    return telescoping_failure(F, lambda m, k: F(m, k) * (k - m) / (z + m),
                               lambda m, k: binom[k] / (z + m) * comb(k, m), nmax)


def wz_cor32_failure(x, nmax: int) -> str | None:
    """Certificate for the seed identity of the master corollary.

    As printed the pair relation is garbled; the relation that holds is
    F(n,k) = G(n,k) - G(n,k+1) with G(n,k) = (x+k)/(x+n) F(n,k).
    """
    x = Fraction(x)
    _check_poles(nmax + 1, x=x)
    binom = _running_binomials(x, nmax + 1)

    def F(n, k):
        s = comb(n, k) / binom[k]
        return s if k % 2 else -s

    def G(n, k):
        return (x + k) / (x + n) * F(n, k)

    for n in range(1, nmax + 1):
        total = Fraction(0)
        for k in range(1, n + 1):
            if F(n, k) != G(n, k) - G(n, k + 1):
                return f"pair relation fails at n={n}, k={k}"
            total += F(n, k)
        if total != Fraction(n) / (x + n):
            return f"sum wrong at n={n}"
    return None
