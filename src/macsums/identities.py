"""Both sides of the finite q-identities, and the q-series WZ certificate
walks.

Each identity's two sides are computed independently, as exact truncated
series; the catalog in `registry` compares them.  A WZ walk compares its
own steps and returns its first failure, a note naming the step, or None.
The specializations at q = 1 and their two WZ walks, in exact rationals,
are in `rational`.

Every q-rational factor here is a tuple of kernel steps (j, r), each
meaning 1/(1-q^j)^r (r < 0 is a numerator factor), built by `_q_int`,
`_qbin`, `_q_factorial`, `_one_minus_q` and `_one_plus`.  `_term` merges a
term's steps per j, so qbin(n,k)/qbin(n+k,k) cancels before any pass, and
applies the rest with `over_geometric_coeffs` to q^e or to a base series,
such as a multisum side's `chain_series`.  So a term is one integer
coefficient list: no polynomial product, no series division.  The Jacobi
product and theta sides and the alternating tail quotient are step sums
here too, and one telescoping walk serves the WZ certificates at q and at
q = 1.
"""

from .macmahon import chain_series, multisums
from .series import Series, over_geometric_coeffs


def _q_int(k: int, p: int = 1) -> tuple:
    """[k]_q^p = (1-q^k)^p / (1-q)^p; [0]_q = 0 is no step product."""
    if k < 1:
        raise ValueError(f"[{k}]_q is not a product of kernel steps")
    return ((k, -p), (1, p))


def _q_factorial(n: int, p: int = 1) -> tuple:
    """[n]_q!^p = prod_(i=1..n) (1-q^i)^p / (1-q)^(np), for n >= 0."""
    if n < 0:
        raise ValueError(f"[{n}]_q! is not a product of kernel steps")
    return (*((i, -p) for i in range(1, n + 1)), (1, n * p))


def _qbin(n: int, k: int, p: int = 1) -> tuple:
    """qbin(n,k)^p = ([n]_q! / ([k]_q! [n-k]_q!))^p, for 0 <= k <= n."""
    return _q_factorial(n, p) + _q_factorial(k, -p) + _q_factorial(n - k, -p)


def _one_minus_q(p: int) -> tuple:
    return ((1, -p),)


def _one_plus(k: int) -> tuple:
    """1+q^k = [2k]_q / [k]_q, for k >= 1."""
    return _q_int(2 * k) + _q_int(k, -1)


def _term(order: int, *factors, e: int = 0, base: Series | None = None) -> Series:
    """q^e times base (default 1) times the product of the step tuples.
    Steps are merged per j first, so a factor and its inverse cancel before
    any pass; a step with j past the order changes nothing and is skipped."""
    merged = {}
    for steps in factors:
        for j, r in steps:
            merged[j] = merged.get(j, 0) + r
    out = (Series.monomial(1, e, order) if base is None else base.shift(e)).coeffs
    for j, r in merged.items():
        if r and j <= order:
            out = over_geometric_coeffs(out, j, r)
    return Series(out, order)


def _alternating_sum(n: int, order: int, exponent, factors, base=None) -> Series:
    """Sum over k = 1..n of (-1)^(k-1) `_term`(*factors(k), e=exponent(k),
    base=base(k)); a term whose shift passes the order is skipped first."""
    acc = Series.zero(order)
    for k in range(1, n + 1):
        e = exponent(k)
        if e > order:
            continue
        term = _term(order, *factors(k), e=e, base=base(k) if base else None)
        acc = acc + term if k % 2 else acc - term
    return acc


# ---------------------------------------------------------------------------
# specializations of Jacobi's product identity, and the alternating tail
# quotient of the umbral-tail identity

# (1-q^m)^2 / D_c(m) as kernel steps (j, r), each 1/(1-q^(jm))^r, where
# D_c(m) = 1 - 2 cos(2x) q^m + q^(2m) at 4 sin^2(x) = c
_JACOBI_PRODUCT_STEPS = {
    4: ((1, -4), (2, 2)),  # (1-q^m)^4 / (1-q^2m)^2
    2: ((1, -2), (2, -1), (4, 1)),  # (1-q^m)^2 (1-q^2m) / (1-q^4m)
    1: ((1, -1), (2, -1), (3, -1), (6, 1)),  # (1-q^m)(1-q^2m)(1-q^3m) / (1-q^6m)
}

# (1-q^m)(1-q^2m) / D_c(m) as kernel steps, a table apart from the product's
# so that one wrong table cannot fool both sides; each row's comment writes
# its D_c(m) as steps
_JACOBI_THETA_STEPS = {
    4: ((1, -3), (2, 1)),  # D_4 = (1+q^m)^2 = (1-q^2m)^2 / (1-q^m)^2
    2: ((1, -1), (2, -2), (4, 1)),  # D_2 = 1+q^2m = (1-q^4m) / (1-q^2m)
    1: ((2, -2), (3, -1), (6, 1)),  # D_1 = 1-q^m+q^2m = (1-q^m)(1-q^6m) / ((1-q^2m)(1-q^3m))
}


def jacobi_product_side(c: int, order: int) -> Series:
    """Product over m of (1-q^m)^2 / (1 - 2 cos(2x) q^m + q^(2m)) at the
    specialization with 4 sin^2(x) = c: one `_term` over every m's steps."""
    return _term(order, [(j * m, r) for m in range(1, order + 1) for j, r in _JACOBI_PRODUCT_STEPS[c]])


def jacobi_theta_side(c: int, order: int) -> Series:
    """Single theta-style sum for the same specialization: terms
    (-1)^(m-1) q^(m(m-1)/2) (1-q^m)(1-q^2m) / D_c(m)."""
    return _alternating_sum(order + 1, order, lambda m: m * (m - 1) // 2,
                            lambda m: ([(j * m, r) for j, r in _JACOBI_THETA_STEPS[c]],))


def jacobi_weak_sum_side(c: int, order: int) -> Series:
    """Sum over n of (-c)^n times the weak n-tuple enumeration."""
    acc = Series.one(order)
    for n, h in enumerate(multisums(order, order), 1):
        acc = acc + (-c) ** n * h
    return acc


def alternating_tail_quotient(t: int, order: int) -> Series:
    """Sum over m >= 1 of (-1)^(m-1) q^(m(m+1)/2) / ((1-q^m)^t (q;q)_m),
    where (q;q)_m = [m]_q! (1-q)^m is the product of (1-q^j) for j <= m."""
    return _alternating_sum(order, order, lambda m: m * (m + 1) // 2,
                            lambda m: (_q_factorial(m, -1), _one_minus_q(-m), ((m, t),)))


# ---------------------------------------------------------------------------
# the triplet of equivalent finite q-harmonic sums


def harmonic_multisum(t: int, n: int, order: int) -> Series:
    """Weak t-tuples with parts at most n, each factor q^k/[k]_q^2."""
    if t == 0:
        return Series.one(order)
    if n == 0:
        return Series.zero(order)
    core = chain_series([(0, 1, 0, ((0, 2),))] * t, order, max_part=n)[0]
    return _term(order, _one_minus_q(2 * t), base=core)


def harmonic_single_sum(t: int, n: int, order: int) -> Series:
    """Alternating single sum with Gaussian binomial weights, equal to the
    multisum for every t, n."""
    if t == 0:
        return Series.one(order)
    return _alternating_sum(n, order, lambda k: k * (k - 1) // 2 + t * k,
                            lambda k: (_qbin(n, k), _qbin(n + k, k, -1), _one_plus(k), _q_int(k, -2 * t)))


def harmonic_single_sum_alt(t: int, n: int, order: int) -> Series:
    """Second displayed shape of the single sum, normalized by qbin(2n, n)."""
    if t == 0:
        return Series.one(order)
    return _alternating_sum(n, order, lambda k: k * (k - 1) // 2 + t * k,
                            lambda k: (_qbin(2 * n, n - k), _qbin(2 * n, n, -1), _one_plus(k), _q_int(k, -2 * t)))


def harmonic_paired_sum(t: int, n: int, order: int) -> Series:
    """Paired 2t-fold sum with the shifted first denominator [n+k_1]_q."""
    if t == 0:
        return Series.one(order)
    if n == 0:
        return Series.zero(order)
    m = 2 * t
    # 1/(1-q^(n+k_1)) at position 1, 1/(1-q^(k_j)) elsewhere; part a takes
    # q^(k_j) at the odd positions, part b at the even ones
    part_a, part_b = (
        chain_series([(0, int(p % 2 == parity), 0, ((n if p == 1 else 0, 1),)) for p in range(1, m + 1)],
                     order, max_part=n)[0]
        for parity in (1, 0)
    )
    return _term(order, _one_minus_q(m), base=part_a.shift(n) + part_b)


TRIPLET = {
    "multisum": harmonic_multisum,
    "single-sum": harmonic_single_sum,
    "paired-sum": harmonic_paired_sum,
}


def triplet_recurrence_sides(which: str, t: int, n: int, order: int):
    """X_t(n) - X_t(n-1) = q^n/[n]_q^2 * X_(t-1)(n) for each of the three sums."""
    fn = TRIPLET[which]
    lhs = fn(t, n, order) - fn(t, n - 1, order)
    return lhs, _term(order, _q_int(n, -2), e=n, base=fn(t - 1, n, order))


# ---------------------------------------------------------------------------
# Dilcher-type single-sum identities


def dilcher_sides(t: int, n: int, order: int):
    lhs = _alternating_sum(n, order, lambda k: k * (k - 1) // 2 + t * k, lambda k: (_qbin(n, k), _q_int(k, -t)))
    rhs = _term(order, _one_minus_q(t), base=chain_series([(0, 1, 0, ((0, 1),))] * t, order, max_part=n)[0])
    return lhs, rhs


def _bounded_x_multisum(t, kmax, x, order):
    core = chain_series([(0, 1, 0, ((x, 1),))] * t, order, max_part=kmax)[0]
    return _term(order, _one_minus_q(t), base=core)


def mss_sides(t: int, n: int, x: int, order: int):
    """The x-shifted single sum and multisum; Cor. 5.3 is the same identity
    with the shift named z."""
    lhs = _alternating_sum(n, order, lambda k: k * (k - 1) // 2 + t * k,
                           lambda k: (_qbin(n, k), _q_int(k), _one_minus_q(t + 1), ((x + k, t + 1),)))
    rhs = _term(order, _qbin(x + n, n, -1), base=_bounded_x_multisum(t, n, x, order))
    return lhs, rhs


def mss_precursor_sides(t: int, n: int, x: int, order: int, reading: str = "inverse-pair"):
    """The unnumbered precursor with exponent C(k,2) - k(n-1).

    Both sides are multiplied through by q^(n(n-1)) so the negative
    exponents of the kernel become honest series shifts.

    reading = "printed": the display read literally, as a product of the
    k-sum (including its [k]_q factor) with the full multiple sum bounded
    by n.  reading = "inverse-pair": the k-sum carries no [k]_q, and the
    multiple sum inside it is bounded by the summation index k; this is
    the inverse q-binomial transform applied to the companion identity.
    """
    rhs = _term(order, _q_int(n), _one_minus_q(t + 1), ((x + n, t + 1),), e=t * n + n * (n - 1))
    exponent = lambda k: k * (k - 1) // 2 + (n - k) * (n - 1)
    if reading == "printed":
        ksum = _alternating_sum(n, order, exponent, lambda k: (_qbin(n, k), _q_int(k), _qbin(x + k, k, -1)))
        lhs = ksum * _bounded_x_multisum(t, n, x, order)
    elif reading == "inverse-pair":
        lhs = _alternating_sum(n, order, exponent, lambda k: (_qbin(n, k), _qbin(x + k, k, -1)),
                               lambda k: _bounded_x_multisum(t, k, x, order))
    else:
        raise ValueError(f"unknown reading {reading!r}")
    return lhs, rhs


def atid_b_sides(t: int, n: int, x: int, order: int):
    lhs = _alternating_sum(n, order, lambda k: k * (k - 1) // 2 + (x + 2 * t) * k,
                           lambda k: (_qbin(n, k), _qbin(x + k, k, -1), _q_int(k, -2 * t)))
    factors = [(0, 1, x, ((x, 1),))] + [(0, 1, 0, ((0, 1),))] * (2 * t - 1)
    rhs = _term(order, _one_minus_q(2 * t), base=chain_series(factors, order, max_part=n)[0])
    return lhs, rhs


def cor52_sides(t: int, n: int, x: int, z: int, order: int):
    lhs = _alternating_sum(n, order, lambda k: k * (k - 1) // 2 + (x + t) * k,
                           lambda k: (_qbin(n, k), _qbin(x + k, k, -1), _one_minus_q(t), ((z + k, t),)))
    # position 1 is [k]_q qbin(z+k, k) q^k / ((1-q^(x+k)) (1-q^(z+k))), and
    # [k]_q qbin(z+k, k) = prod_{d=0..z} (1-q^(k+d)) / ((1-q) (q;q)_z): the
    # (1-q^(k+z)) cancels, and the constant 1/(q;q)_z = (1-q)^(-z)/[z]_q!
    # comes out of the chain
    first = (0, 1, 0, ((x, 1), *((d, -1) for d in range(z))))
    core = chain_series([first] + [(0, 1, 0, ((z, 1),))] * (t - 1), order, max_part=n)[0]
    rhs = _term(order, _q_factorial(z, -1), _one_minus_q(t - z), _qbin(z + n, n, -1), e=x, base=core)
    return lhs, rhs


# ---------------------------------------------------------------------------
# q-series WZ certificate walks: each returns its first failing step, or None


def telescoping_failure(F, G, closed, nmax) -> str | None:
    """Walk a WZ pair F(m, k), G(m, k) for m = 1..nmax and k = m..nmax:
    F(m,k) equals G(m,k+1) - G(m,k), and the sum of F(m,m..k) equals
    closed(m, k) at every endpoint k.  Values are compared with == and !=,
    so the pair may be series or exact rationals."""
    for m in range(1, nmax + 1):
        g = G(m, m)
        for k in range(m, nmax + 1):
            f, g_next = F(m, k), G(m, k + 1)
            if f != g_next - g:
                return f"pair relation fails at m={m}, k={k}"
            total = f if k == m else total + f
            if total != closed(m, k):
                return f"telescoped sum fails at m={m}, n={k}"
            g = g_next
    return None


def _wz_lemma51_F(m, k, z, order):
    return _term(order, _qbin(z + k, k), _qbin(k, m), _q_int(z + k, -1), e=k)


def _wz_lemma51_G(m, k, z, order):
    # F(m,k) [k-m]_q q^(m-k) / [z+m]_q; the q^k inside F cancels down to q^m,
    # so this is a genuine power series, and [k-m]_q = 0 for k = m
    if k <= m:
        return Series.zero(order)
    return _term(order, _qbin(z + k, k), _qbin(k, m), _q_int(k - m), _q_int(z + k, -1), _q_int(z + m, -1), e=m)


def wz_lemma51_failure(z: int, nmax: int, order: int) -> str | None:
    """q-certificate behind the z-shifted transform lemma."""
    return telescoping_failure(lambda m, k: _wz_lemma51_F(m, k, z, order),
                               lambda m, k: _wz_lemma51_G(m, k, z, order),
                               lambda m, k: _term(order, _qbin(z + k, k), _qbin(k, m), _q_int(z + m, -1), e=m),
                               nmax)


def _wz52_F(n, k, x, order):
    # (-1)^(k-1) qbin(n,k) a_k / b_n with a_k = q^(C(k,2)+xk)/qbin(x+k,k),
    # b_n = [n]_q q^x/[x+n]_q; exponent C(k,2) + x(k-1) stays nonnegative
    if k > n:
        return Series.zero(order)
    e = k * (k - 1) // 2 + x * (k - 1)
    s = _term(order, _qbin(n, k), _q_int(x + n), _qbin(x + k, k, -1), _q_int(n, -1), e=e)
    return s if k % 2 else -s


def _wz52_G(n, k, x, order):
    # -F(n,k) [x+k][k-1] q^(n+1-k) / ([x+n][n+1-k]), written with
    # qbin(n,k)/[n+1-k] = qbin(n,k-1)/[k] so the k = n+1 boundary is regular;
    # [k-1]_q = 0 at k = 1
    if k < 2 or k > n + 1:
        return Series.zero(order)
    e = k * (k - 1) // 2 + x * (k - 1) + n + 1 - k
    s = _term(order, _qbin(n, k - 1), _q_int(x + k), _q_int(k - 1), _q_int(k, -1), _qbin(x + k, k, -1),
              _q_int(n, -1), e=e)
    return -s if k % 2 else s


def _wz_row_failure(F, G, shift, nmax, order) -> str | None:
    """Rows n = 1..nmax of a normalized WZ pair F(n, k, shift, order),
    G(n, k, shift, order): each row sum of F is 1 (the transform hypothesis
    itself), and F(n+1,k) - F(n,k) equals G(n,k+1) - G(n,k) for k = 1..n+1."""
    for n in range(1, nmax + 1):
        total = Series.zero(order)
        for k in range(1, n + 1):
            total = total + F(n, k, shift, order)
        if not total.agrees(Series.one(order)):
            return f"row sum differs from 1 at n={n}"
        for k in range(1, n + 2):
            lhs = F(n + 1, k, shift, order) - F(n, k, shift, order)
            if not lhs.agrees(G(n, k + 1, shift, order) - G(n, k, shift, order)):
                return f"pair relation fails at n={n}, k={k}"
    return None


def wz_cor52_failure(x: int, nmax: int, order: int) -> str | None:
    return _wz_row_failure(_wz52_F, _wz52_G, x, nmax, order)


def _wz53_F(n, k, z, order):
    # a_k = [k]_q q^C(k,2)/[z+k]_q, b_k = 1/qbin(z+k,k)
    if k > n:
        return Series.zero(order)
    s = _term(order, _qbin(n, k), _q_int(k), _qbin(z + n, n), _q_int(z + k, -1), e=k * (k - 1) // 2)
    return s if k % 2 else -s


def _wz53_G(n, k, z, order):
    # [k-1]_q = 0 at k = 1
    if k < 2 or k > n + 1:
        return Series.zero(order)
    e = k * (k - 1) // 2 + n + 1 - k
    s = _term(order, _qbin(n, k - 1), _q_int(k - 1), _qbin(z + n, n), _q_int(n, -1), e=e)
    return -s if k % 2 else s


def wz_cor53_failure(z: int, nmax: int, order: int) -> str | None:
    return _wz_row_failure(_wz53_F, _wz53_G, z, nmax, order)


def qbin_difference_failure(nmax: int, order: int) -> str | None:
    """Finite-difference lemma used to prove the single-sum recurrence:
    qbin(n,k)/qbin(n+k,k) - qbin(n-1,k)/qbin(n+k-1,k)
      = [n-1]!^2 [k]_q^2 q^(n-k) / ([n-k]! [n+k]!).

    The numerator factor is [k]_q^2: expanding the factorial ratio gives
    ([n]^2 - [n-k][n+k]) = q^(n-k) (1-q^k)^2 / (1-q)^2.  At k = n the
    second term drops out, since qbin(n-1, n) = 0."""
    for n in range(1, nmax + 1):
        for k in range(1, n + 1):
            lhs = _term(order, _qbin(n, k), _qbin(n + k, k, -1))
            if k < n:
                lhs = lhs - _term(order, _qbin(n - 1, k), _qbin(n + k - 1, k, -1))
            rhs = _term(order, _q_factorial(n - 1, 2), _q_int(k, 2), _q_factorial(n - k, -1),
                        _q_factorial(n + k, -1), e=n - k)
            if not lhs.agrees(rhs):
                return f"fails at n={n}, k={k}"
    return None
