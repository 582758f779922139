"""Generating functions for the two families of generalized divisor sums.

M(t, n) counts partitions of n with t part sizes allowed to repeat (weakly
increasing size tuples, product of frequencies as weight); MO(t, n) is the
strict-tuple variant.  Both families come with several equivalent series
formulas: the defining multiple sums, a single alternating sum, a conjugate
(smallest-part weighted) sum, a theta quotient, an umbral expansion, and
closed recurrences.  Cross-checking those routes against each other is the
main correctness instrument of this package.

With x_k = q^k/(1-q^k)^2, the M series are the complete homogeneous
functions h_t of the x_k and the MO series their elementary functions e_t:
one chain pass (`chain_series`, as `multisums`) builds either family for
every length, and one self-inverse transform (`_dual`) solves the relation
between them.

Every chain factor k^w q^a prod (1-q^j)^(e_j) is data, applied on plain
coefficient lists by the signed kernel `over_geometric_coeffs` (strided
running sums for a denominator, strided differences for a numerator),
never multiplied in as a built series.  The exception is a chain's last
position, which multiplies the constant 1: a factor there with one
denominator power r is written directly as strided binomial weights
C(j+r-1, r-1), so x_k, the first level of `multisums`, is the weights
1, 2, 3, ... at stride k.
"""

from bisect import bisect_left
from itertools import accumulate, repeat
from math import comb, factorial, gcd, lcm, prod
from operator import add, and_, itemgetter, lshift, mod, mul, rshift, sub
from sys import byteorder

from .divisors import eisenstein, odd_square_product, sigma_series, theta_moment, umbral_eval
from .reports import FrozenRecord
from .series import Series, divide_coeffs, geometric_pow, over_geometric_coeffs


# ---------------------------------------------------------------------------
# chain enumeration


def chain_series(factors, order, *, strict_after=(), max_part=None) -> list:
    """Every tail [R_1(1), ..., R_m(1), 1] of the truncated sum over chains
    k_1 <= k_2 <= ... <= k_m of part values >= 1 of the product of the
    factors f_i(k_i): the whole chain first, down to the empty chain.

    factors[i] = (w, c, b, powers) is the factor
    f_i(k) = k^w q^(c*k + b) / prod over (d, r) in powers of (1-q^(k+d))^r,
    with c, b, d >= 0, powers nonempty and each r a nonzero integer, so a
    negative r is a numerator factor (1-q^(k+d))^|r|.  It is applied to a
    coefficient list as kernel steps (`over_geometric_coeffs`), never built
    as a series of its own.  Positions named in strict_after (1-based)
    require k_i < k_(i+1).  f_i(k) has q-valuation at least c*k, and the sum of the
    c of positions i..m is what bounds the enumeration at position i; a
    position whose remaining sum is zero needs max_part instead.

    With R_i(v) the sum over the chain tails k_i <= ... <= k_m with k_i >= v,
    R_i(v) = R_i(v+1) + f_i(v) R_(i+1)(v'), where v' = v+1 after a strict
    position and v otherwise, and R_(m+1) is the constant 1.  One pass with v
    falling keeps one running sum per position and walks the positions last
    to first, so R_(i+1)(v) is already in place; a strict position reads
    R_(i+1)(v+1) through the reference held before that sum was rebound.
    The bounds never fall along the chain, so the positions still live at v
    are a suffix, and the finished ones before it are not visited.

    The last position multiplies the constant 1.  When its factor has one
    power (d, r) with r >= 1, f_m(v) is v^w C(j+r-1, r-1) at q^(c*v+b+j*(v+d))
    for j >= 0: one strided add into R_m, in place and with no kernel call,
    made after position m-1 has read R_m(v+1) when that position is strict.
    """
    m = len(factors)
    strict = set(strict_after)
    tailw = list(accumulate(f[1] for f in reversed(factors)))[::-1]
    if max_part is None and 0 in tailw:
        raise ValueError(f"chain position {tailw.index(0) + 1} is unbounded; pass max_part")
    cap = order if max_part is None else max_part
    bounds = [min(cap, order // w) if w else cap for w in tailw]

    acc = [[0] * (order + 1)] * m + [[1] + [0] * order]  # one running sum per position
    direct = m > 0 and len(factors[-1][3]) == 1 and factors[-1][3][0][1] >= 1
    if direct:
        lw, lc, lb, ((ld, lr),) = factors[-1]
        weights = geometric_pow(1, lr, order).coeffs
        last = acc[m - 1] = [0] * (order + 1)  # the one sum written in place

    def write_last(v):
        s, k = lc * v + lb, v + ld
        last[s::k] = map(add, last[s::k], weights if lw == 0 else map(mul, weights, repeat(v**lw)))

    late = direct and (m - 1) in strict
    for v in range(max(bounds, default=0), 0, -1):
        if direct and not late:
            write_last(v)
        above = acc[m - direct]  # acc[i + 1] as it stood at v + 1, read after a strict position
        for i in range(m - 1 - direct, bisect_left(bounds, v) - 1, -1):
            nxt = above if (i + 1) in strict else acc[i + 1]
            above = acc[i]
            if any(nxt):
                w, c, b, ((d, r), *rest) = factors[i]
                nxt = over_geometric_coeffs(nxt, v + d, r, c * v + b)
                for d, r in rest:
                    nxt = over_geometric_coeffs(nxt, v + d, r)
                acc[i] = list(map(add, above, nxt if w == 0 else map(mul, nxt, repeat(v**w))))
        if late:
            write_last(v)
    return [Series(a, order) for a in acc]


# ---------------------------------------------------------------------------
# the defining multiple sums


def multisums(T: int, order: int, strict: bool = False) -> list:
    """[h_1, ..., h_T] (weak chains, the M family), or [e_1, ..., e_T]
    (strict chains, the MO family) when strict is set: the tails of one
    `chain_series` pass over T factors x_k = q^k/(1-q^k)^2, in reverse and
    without the empty chain.  Level 1 is the chain's direct last write."""
    if T < 0:
        raise ValueError("T >= 0")
    return chain_series([(0, 1, 0, ((0, 2),))] * T, order, strict_after=range(1, T) if strict else ())[-2::-1]


def weak_multisum(t: int, order: int) -> Series:
    """M-family generating function: weakly increasing t-tuples of part
    sizes, each contributing q^k/(1-q^k)^2."""
    if t < 1:
        raise ValueError("t >= 1")
    return multisums(t, order)[-1]


def strict_multisum(t: int, order: int) -> Series:
    """MO-family generating function: strictly increasing t-tuples."""
    if t < 1:
        raise ValueError("t >= 1")
    return multisums(t, order, strict=True)[-1]


# ---------------------------------------------------------------------------
# single-sum, conjugate, theta-quotient, umbral, and recurrence routes


def single_sum_weights(t: int, count: int) -> list:
    """C(m+2t-1, 2t-1) + C(m+2t-2, 2t-1) for m < count: the coefficients of
    (1+q)/(1-q)^(2t)."""
    r = 2 * t - 1
    out = []
    b, prev = 1, 0  # C(m+r, r) and C(m-1+r, r)
    for m in range(count):
        out.append(b + prev)
        prev, b = b, b * (m + 1 + r) // (m + 1)
    return out


def _period_candidates(m: int, r: int, count: int):
    """m, m^2, m^3, ... while the candidate L has L + r <= count."""
    period = m
    while period + r <= count:
        yield period
        period *= m


def _prime_power_parts(m: int, r: int) -> list:
    """m split into its prime powers p^a for the primes p <= r, in rising
    order, then the cofactor if it is not 1.  Every prime of the cofactor
    exceeds r, and it is never factored: trial division stops at r."""
    parts = []
    p = 2
    while p <= min(r, m):
        if m % p == 0:  # p is prime: every smaller prime is divided out of m
            q = 1
            while m % p == 0:
                m //= p
                q *= p
            parts.append(q)
        p += 1
    return parts + [m] * (m > 1)


def _proved_tile(t: int, count: int, q: int):
    """`single_sum_weights(t, L)` reduced mod q, for the first candidate
    L = q, q^2, ... (`_period_candidates`) proved to be a period of the
    weights mod q, or None if none is proved.

    With r = 2t-1, w(j) = C(j+r, r) + C(j+r-1, r) is a polynomial of degree
    r in j, so for any L, g(j) = w(j+L) - w(j) is an integer-valued
    polynomial of degree < r.  In the Newton basis g(j) = sum over i < r of
    (Delta^i g)(0) C(j, i), and each (Delta^i g)(0) is an integer
    combination of g(0), ..., g(i); so if q divides g(0), ..., g(r-1), it
    divides every g(j), and w mod q has period L.  The check on the exact
    weights below L + r is the proof, for any q; by Lucas' theorem it
    succeeds for a prime power p^e once p^e > r, and at L = q for a q whose
    primes all exceed r.
    """
    r = 2 * t - 1
    for period in _period_candidates(q, r, count):
        exact = single_sum_weights(t, period + r)
        if not any(map(mod, map(sub, exact[period:], exact), repeat(q))):  # q | g(0), ..., g(r-1)
            return list(map(mod, exact[:period], repeat(q)))
    return None


def _tile(values: list, n: int) -> list:
    """The first n entries of values repeated."""
    return (values * (n // len(values) + 1))[:n]


def single_sum_weights_mod(t: int, count: int, m: int) -> list:
    """`single_sum_weights(t, count)` reduced mod m, tiled from proved
    periods where they are found.

    m is split into its prime powers for the primes p <= 2t-1 and the
    cofactor (`_prime_power_parts`), and each part q gets its own proved
    period (`_proved_tile`).  The parts are coprime, so the tiles are
    combined by the Chinese remainder theorem, one part at a time, over
    the lcm of the periods so far, or over count if that is shorter.  With
    some part proving no period, the exact weights below count are
    reduced.
    """
    tiles = []
    for q in _prime_power_parts(m, 2 * t - 1):
        tile = _proved_tile(t, count, q)
        if tile is None:
            return list(map(mod, single_sum_weights(t, count), repeat(m)))
        tiles.append((q, tile))
    acc, modulus = [0], 1
    for q, tile in tiles:
        n = min(lcm(len(acc), len(tile)), count)
        e = modulus * pow(modulus, -1, q)  # 0 mod modulus, 1 mod q
        modulus *= q
        left, right = _tile(acc, n), _tile(tile, n)
        acc = list(map(mod, map(add, map(mul, left, repeat(modulus + 1 - e)), map(mul, right, repeat(e))),
                       repeat(modulus)))
    return _tile(acc, count)


def add_single_sum_term(out: list, t: int, k: int, weights: list) -> None:
    """Add the k-th single-sum term (-1)^(k-1) (1+q^k) q^(C(k,2)+t*k) / (1-q^k)^(2t)
    to the coefficient list out in place, for weights[j] the coefficient of
    q^j in (1+q)/(1-q)^(2t), as `single_sum_weights` gives them."""
    e = k * (k - 1) // 2 + t * k
    if e < len(out):
        out[e::k] = map(add if k % 2 else sub, out[e::k], weights)


def _single_sum_pass(weights: list, lo: int, order: int, bias: int = 0) -> list:
    """bias plus every term k >= 1 of the single sum with least index lo,
    through q^order: weights[j] goes to q^(C(k,2) + k(lo + j)) with sign
    (-1)^(k-1) (`add_single_sum_term`)."""
    out = [bias] * (order + 1)
    k = 1
    while k * (k - 1) // 2 + lo * k <= order:
        add_single_sum_term(out, lo, k, weights)
        k += 1
    return out


def m_single_sum_many(ts, order: int, moduli=None):
    """Yield (t, coefficients of `m_single_sum(t, order)` as a list) for
    each t of ts in turn; with `moduli`, a map t -> m_t, yield M(t, n) mod
    m_t instead, every t from one packed pass.

    Term k of t's sum adds (-1)^(k-1) w_t(j) at q^(C(k,2) + k(t+j)), j >= 0,
    for w_t = `single_sum_weights`.  Exact tables are built one t at a time:
    no slot, no bias.

    Residues: with u = t + j, term k adds w_t(u - t) at q^(C(k,2) + k u),
    so one packed list W, whose u-th int holds w_t(u - t) mod m_t in t's
    slot for every t (`single_sum_weights_mod`; no term for u < t), serves
    every t at each stride k, starting from lo = min(ts).  Let K be the
    number of strides k >= 1 with C(k,2) + k lo <= order, the terms the
    pass makes, or 1 if it makes none.  t's slot is s_t machine words of
    b bits (`array('I')`'s), the fewest that hold 2 K m_t:
    s_t = ceil(bits(2 K m_t) / b).  Each term reaches any q^n at most once
    and adds t's slot a value in (-m_t, m_t), so t's signed slot value v
    has |v| <= K (m_t - 1); the list starts at a bias of K m_t in every
    slot, so t's slot holds K m_t + v, in [0, 2 K m_t), and no slot
    borrows from its neighbour.  As m_t divides K m_t, the slot mod m_t is
    v mod m_t = M(t, n) mod m_t.

    The slots are machine-word lanes of each packed int, little-endian
    word after word: the residues of every t are written as the columns
    of one `array('I')`, one bytes -> int pass packs its rows, and after
    the strided adds one int -> bytes pass gives the rows back, so t's
    slot is its columns' words, shifted into place, mod m_t.  A wide m_t
    just takes more words.
    """
    ts = list(ts)
    if any(t < 1 for t in ts):
        raise ValueError("t >= 1")
    if moduli is None:
        for t in ts:
            yield t, _single_sum_pass(single_sum_weights(t, order + 1 - t), t, order)
        return
    if not ts:
        return
    from array import array  # imported here, off the start-up path
    from struct import iter_unpack

    lo = min(ts)
    terms = 1
    while terms * (terms + 1) // 2 + lo * (terms + 1) <= order:
        terms += 1
    size = array("I").itemsize
    b = 8 * size
    spans = [-(-(2 * terms * moduli[t]).bit_length() // b) for t in ts]
    starts = [0, *accumulate(spans)][:-1]
    width = sum(spans)  # words per packed int
    n = max(order + 1 - lo, 0)
    lanes = array("I", bytes(n * width * size))
    bias = 0
    for t, at, span in zip(ts, starts, spans):
        residues = ([0] * (t - lo) + single_sum_weights_mod(t, order + 1 - t, moduli[t]))[:n]
        for i in range(span):
            words = map(rshift, residues, repeat(b * i)) if i else residues
            lanes[at + i :: width] = array("I", map(and_, words, repeat((1 << b) - 1)) if i + 1 < span else words)
        bias += terms * moduli[t] << (b * at)
    del residues
    if byteorder == "big":
        lanes.byteswap()
    row = width * size
    packed = list(map(int.from_bytes, map(itemgetter(0), iter_unpack(f"{row}s", lanes)), repeat("little")))
    del lanes
    out = _single_sum_pass(packed, lo, order, bias)
    del packed
    lanes = array("I", b"".join(map(int.to_bytes, out, repeat(row), repeat("little"))))
    del out
    if byteorder == "big":
        lanes.byteswap()
    for t, at, span in zip(ts, starts, spans):
        slot = lanes[at::width]
        for i in range(1, span):
            slot = map(add, slot, map(lshift, lanes[at + i :: width], repeat(b * i)))
        yield t, list(map(mod, slot, repeat(moduli[t])))


def m_single_sum(t: int, order: int) -> Series:
    """Alternating single sum for the M family: terms
    (-1)^(k-1) (1+q^k) q^(C(k,2)+t*k) / (1-q^k)^(2t).  This is the
    one-t case of `m_single_sum_many`."""
    ((_, out),) = m_single_sum_many([t], order)
    return Series(out, order)


def m_conjugate_form(t: int, order: int) -> Series:
    """Smallest-part weighted sum over weak (2t-1)-tuples: weight k_1, with
    q^(k_j)/(1-q^(k_j)) at odd positions and 1/(1-q^(k_j)) at even ones."""
    if t < 1:
        raise ValueError("t >= 1")
    odd, even = (0, 1, 0, ((0, 1),)), (0, 0, 0, ((0, 1),))
    return chain_series([(1, 1, 0, ((0, 1),))] + [even, odd] * (t - 1), order)[0]


def mo_slot_bound(t: int, order: int) -> int:
    """An integer B >= MO(t, n) for every n <= order: an exact table of
    `mo_andrews_rose_many` is its residues mod B + 1, so its exactness
    rests on this bound.

    MO(t, n) is the q^n coefficient of e_t(x_1, x_2, ...), where
    x_k = q^k/(1-q^k)^2 has nonnegative coefficients.  Expanding
    p_1^t = (x_1 + x_2 + ...)^t gives every product of t distinct x_k
    exactly t! times and only nonnegative terms besides, so t! e_t <= p_1^t
    coefficientwise.  p_1 = sum sigma(m) q^m, and for m <= N = order

        sigma(m) = m * (sum of 1/d over the divisors d of m) <= m H_N <= m H,

    where H_N = 1 + 1/2 + ... + 1/N <= 1 + ln N <= 1 + log2 N, and
    log2 N < N.bit_length(), so the integer H = N.bit_length() + 1 bounds
    it.  m is the q^m coefficient of q/(1-q)^2, so through q^N,
    p_1^t <= H^t q^t/(1-q)^(2t) coefficientwise, and

        MO(t, n) <= H^t C(n+t-1, 2t-1) / t!.

    The right side grows with n, so its value at n = order bounds every
    n <= order, and as MO(t, n) is an integer its floor does too.
    """
    h = order.bit_length() + 1
    return h**t * comb(order + t - 1, 2 * t - 1) // factorial(t)


def coprime_layers(moduli: list) -> list:
    """The positions of `moduli`, grouped first-fit in the order given
    into layers whose moduli are pairwise coprime: each position joins the
    first layer whose product it is coprime to, or opens a new one."""
    layers, products = [], []
    for j, n in enumerate(moduli):
        i = next((i for i, L in enumerate(products) if gcd(n, L) == 1), len(layers))
        if i == len(layers):
            layers.append([])
            products.append(1)
        layers[i].append(j)
        products[i] *= n
    return layers


def mo_andrews_rose_many(ts, order: int, moduli=None):
    """Yield (t, coefficients of `mo_andrews_rose(t, order)` as a list) for
    each t of ts in turn, from one division by the theta series; with
    `moduli`, a map t -> m_t, yield MO(t, n) mod m_t instead.

    The numerators are integral: (2k+1) C(k+t, 2t) = (2t+1) [C(k+t, 2t+1)
    + C(k+t+1, 2t+1)], so MO_t = A_t / theta exactly, where A_t puts
    (-1)^(k+t) [C(k+t, 2t+1) + C(k+t+1, 2t+1)] at q^(k(k+1)/2) for each
    k >= t and theta is the weight-1 theta series.

    Every table is a table of residues.  Without `moduli`, m_t is
    `mo_slot_bound(t, order)` + 1: as 0 <= MO(t, n) <= that bound, the
    residue is MO(t, n) itself, so an exact table is exact because that
    bound is proved.

    Division by an integer series with constant term 1 is Z-linear, so the
    numerators of every t share one pass.  The ts are grouped first-fit,
    in the order given, into layers whose m_t are pairwise coprime
    (`coprime_layers`); each layer gets its own bit slot of one int per
    coefficient, above the slots of the layers after it, and works mod L,
    the product of its m_t.  By the Chinese remainder theorem each t of
    the layer has E_t = 1 mod m_t and 0 mod the layer's other m_t, and the
    layer's numerator is the sum over its ts of (c mod m_t) E_t, reduced
    into [0, L): it is c mod m_t for each t of the layer.  The division's
    `reduce` hook, at each leaf, reads every slot as a signed value and
    keeps it mod L.  As the solve is Z-linear and theta's constant term is
    1, the slot then holds the layer's quotient mod L, and t reads it mod
    m_t as MO(t, n) mod m_t.  A layer's slot is read as c >> shift when its
    first t is read, and the packed list is then masked down in place to
    the slots below.  No table is kept once it is yielded, and no layer
    once its last t is.

    A slot is w = bits(L (1 + S)) + 1 bits wide, where S sums the absolute
    coefficients of theta's terms q^1..q^order; the top slot needs no
    width.  Proof that it holds a leaf's signed value v: the packed
    arithmetic is exact and linear, and each divisor term reaches q^m
    exactly once, in a middle product or in the leaf, so v is the layer's
    reduced numerator, in [0, L), less the sum of c times a solved,
    reduced slot, in [0, L), over theta's terms c q^i, 1 <= i <= m.  Hence
    |v| <= (L - 1)(1 + S) < 2^(w - 1).  The hook adds 2^(w - 1) to every
    slot, which makes each slot nonnegative and below 2^w, so no slot
    borrows from its neighbour; it reads each slot, takes the bias back
    off, reduces mod L and repacks.

    The division's width is Q = s + bits(L - 1), for s the top layer's
    shift and L its product: every slot holds a residue below its L, so
    the packed numerator and every value the hook returns are below
    (L - 1) 2^s + 2^s <= 2^Q.  `divide_coeffs` packs its lanes once at
    that width, and a value past it would raise ArithmeticError, never
    yield a wrong residue.
    """
    ts = list(ts)
    if any(t < 1 for t in ts):
        raise ValueError("t >= 1")
    if not ts:
        return
    theta = theta_moment(1, order)
    mods = [moduli[t] if moduli is not None else mo_slot_bound(t, order) + 1 for t in ts]
    layers = coprime_layers(mods)
    products = [prod(mods[j] for j in layer) for layer in layers]
    spread = 1 + sum(map(abs, theta.coeffs[1:]))
    widths = [(L * spread).bit_length() + 1 for L in products]
    shifts = [0] * len(layers)
    for i in range(len(layers) - 2, -1, -1):
        shifts[i] = shifts[i + 1] + widths[i + 1]
    num = [0] * (order + 1)
    for i, (layer, shift) in enumerate(zip(layers, shifts)):
        part = {}
        for j in layer:
            t, n = ts[j], mods[j]
            rest = products[i] // n
            e = rest * pow(rest, -1, n)  # 1 mod m_t, 0 mod the layer's other m_t
            k = t
            while k * (k + 1) // 2 <= order:
                c = comb(k + t, 2 * t + 1) + comb(k + t + 1, 2 * t + 1)
                if (k + t) % 2:
                    c = -c
                at = k * (k + 1) // 2
                part[at] = part.get(at, 0) + c % n * e
                k += 1
        for at, c in part.items():
            num[at] += c % products[i] << shift
    slots = [(shift, (1 << w) - 1, 1 << (w - 1), L) for shift, w, L in zip(shifts, widths, products)]
    bias = sum(h << shift for shift, _, h, _ in slots)

    def reduce(c):
        c += bias
        r = 0
        for shift, mask, h, L in slots:
            r |= (((c >> shift) & mask) - h) % L << shift
        return r

    packed = divide_coeffs(num, theta.coeffs, shifts[0] + (products[0] - 1).bit_length(), reduce)
    del num
    layer_of = {j: i for i, layer in enumerate(layers) for j in layer}
    held = {}  # layer -> its slots, while a t of it is left to read
    for j, t in enumerate(ts):
        i = layer_of[j]
        if i not in held:  # layers open in order, so i is the top slot left
            if i + 1 == len(layers):
                held[i] = packed
            else:
                held[i] = list(map(rshift, packed, repeat(shifts[i])))
                packed[:] = map(and_, packed, repeat((1 << shifts[i]) - 1))
        out = held[i] if len(layers[i]) == 1 else list(map(mod, held[i], repeat(mods[j])))
        if j == layers[i][-1]:
            del held[i]
        yield t, out
        del out


def mo_andrews_rose(t: int, order: int) -> Series:
    """Theta quotient for the MO family: a finite alternating theta-like sum
    with weights (2k+1)/(2t+1) * C(k+t, k-t), divided by the cube of the
    Euler product.

    The cube is taken as the weight-1 theta series (Jacobi's identity), and
    the weights are written as the integers C(k+t, 2t+1) + C(k+t+1, 2t+1),
    so the quotient is one division with no remainder to check.  This is
    the one-t case of `mo_andrews_rose_many`."""
    ((_, out),) = mo_andrews_rose_many([t], order)
    return Series(out, order)


def mo_umbral(t: int, order: int) -> Series:
    """Umbral route for the MO family: expand X(X^2-1^2)...(X^2-(2t-1)^2),
    substitute the theta family, divide by its first member, and divide
    exactly by (-1)^t 4^t (2t+1)!; a remainder is a transcription error.

    The first quotient is (-1)^t 4^t (2t+1)! MO_t, so its packed division
    is given the width bits(4^t (2t+1)! `mo_slot_bound(t, order)`).  A
    transcription error that passes that width raises ArithmeticError; the
    width cannot make a wrong quotient pass, so the route stays
    independent of the theta quotient whose bound it borrows."""
    if t < 1:
        raise ValueError("t >= 1")
    scale = (-1) ** t * 4**t * factorial(2 * t + 1)
    combo = umbral_eval(odd_square_product(t), theta_moment, order)
    bits = (abs(scale) * mo_slot_bound(t, order)).bit_length()
    return Series(divide_coeffs(combo.coeffs, theta_moment(1, order).coeffs, bits), order) / scale


def mo_recurrence(t: int, order: int) -> Series:
    """Closed first-order recurrence for the MO family, seeded with the
    divisor-sum series at t = 1; each step divides exactly by 2s(2s+1)."""
    if t < 1:
        raise ValueError("t >= 1")
    u = sigma_series(1, order)
    if t == 1:
        return u
    u1 = u
    for s in range(2, t + 1):
        u = ((6 * u1 + s * (s - 1)) * u - 2 * u.q_derivative()) / (2 * s * (2 * s + 1))
    return u


def _dual(xs: list, order: int) -> list:
    """[y_1, ..., y_T] with y_0 = 1 and y_s = sum over i = 1..s of
    (-1)^(i-1) x_i y_(s-i), for xs = [x_1, ..., x_T].

    This solves the relation sum_i (-1)^i e_i h_(t-i) = 0 between the
    elementary and complete homogeneous functions of one set of variables
    for either one given the other, so it is its own inverse: h from e and
    e from h.
    """
    ys = [Series.one(order)]
    for s in range(1, len(xs) + 1):
        acc = Series.zero(order)
        for i in range(1, s + 1):
            term = xs[i - 1] * ys[s - i]
            acc = acc + term if i % 2 else acc - term
        ys.append(acc)
    return ys[1:]


def m_recurrence(t: int, order: int) -> Series:
    """Convolution recurrence for the M family: the e/h relation solved for
    h_t from the strict chains e_1..e_t."""
    if t < 1:
        raise ValueError("t >= 1")
    return _dual(multisums(t, order, strict=True), order)[-1]


def mo_from_m(t: int, order: int) -> Series:
    """Fifth MO route: the e/h relation solved for e_t from the M single
    sums h_1..h_t."""
    if t < 1:
        raise ValueError("t >= 1")
    return _dual([m_single_sum(s, order) for s in range(1, t + 1)], order)[-1]


M_FORMULAS = {
    "multisum": weak_multisum,
    "single-sum": m_single_sum,
    "conjugate": m_conjugate_form,
    "recurrence": m_recurrence,
}

MO_FORMULAS = {
    "multisum": strict_multisum,
    "andrews-rose": mo_andrews_rose,
    "umbral": mo_umbral,
    "recurrence": mo_recurrence,
    "symmetric": mo_from_m,
}

DEFAULT_FORMULA = {"M": "single-sum", "MO": "andrews-rose"}


# ---------------------------------------------------------------------------
# coefficient tables


class CoefficientTable(FrozenRecord):
    __slots__ = ("family", "t", "order", "provenance", "values")

    def __init__(self, family: str, t: int, order: int, provenance: str, values: tuple):
        self._freeze(family, t, order, provenance, values)

    def __getitem__(self, n):
        return self.values[n]


def leading_window(family: str, t: int) -> int:
    """The smallest n with a nonzero coefficient: the least sum of t parts,
    t for weak tuples (M) and 1 + 2 + ... + t = t(t+1)/2 for strict (MO)."""
    return t if family == "M" else t * (t + 1) // 2


def coefficient_values(family: str, ts, order: int, formula: str | None = None, moduli=None):
    """Yield (t, integer coefficients of the family through q^order) for
    each t of ts in turn, each table built afresh as a list the caller owns.

    The theta quotient, MO's default formula, builds the tables of every t
    in one packed division (`mo_andrews_rose_many`); every other formula
    builds one t at a time.  `moduli`, a map t -> m_t, is passed to the
    two default formulas, the theta quotient (where the ts whose moduli
    m_t are coprime then share one slot) and M's single sum
    (`m_single_sum_many`, which then packs every t into machine-word lanes
    of one pass), and both yield residues mod m_t, in [0, m_t); every
    other formula ignores it and yields exact values, so with moduli a
    value is only known to be congruent to its coefficient mod m_t.  No
    yielded table is kept here, so a caller that drops each table before
    asking for the next holds one at a time.  The values are ints by
    construction: the theta quotient divides integer numerators by a
    series with constant term 1, and every other exact division in a
    route raises on a remainder; the vanishing of the leading window
    (every n below `leading_window`) is asserted for every table.  A t
    whose leading window passes the order gets the zero table that
    assertion proves, without running the route: some routes take time
    growing with t.
    """
    if family not in ("M", "MO"):
        raise ValueError(f"unknown family {family!r}; use M or MO")
    formula = formula or DEFAULT_FORMULA[family]
    table = M_FORMULAS if family == "M" else MO_FORMULAS
    if formula not in table:
        raise ValueError(f"unknown formula {formula!r} for family {family}; known: {sorted(table)}")
    ts = list(ts)
    vanishing = {t for t in ts if t >= 1 and leading_window(family, t) > order}
    live = [t for t in ts if t not in vanishing]
    if family == "MO" and formula == "andrews-rose":
        tables = mo_andrews_rose_many(live, order, moduli)
    elif family == "M" and formula == "single-sum":
        tables = m_single_sum_many(live, order, moduli)
    else:
        tables = ((t, table[formula](t, order).coeffs) for t in live)
    for t in ts:
        vals = [0] * (order + 1) if t in vanishing else next(tables)[1]
        for n in range(min(leading_window(family, t), order + 1)):
            if vals[n] != 0:
                raise ArithmeticError(f"{family}({t},{n}) = {vals[n]} below the minimal partition size")
        yield t, vals
        del vals  # the next table is built before the loop rebinds this name


def coefficient_table(family: str, t: int, order: int, formula: str | None = None) -> CoefficientTable:
    """One t of `coefficient_values` as a table naming its formula, built afresh."""
    formula = formula or DEFAULT_FORMULA.get(family)
    ((_, values),) = coefficient_values(family, [t], order, formula)
    return CoefficientTable(family, t, order, formula, tuple(values))


# ---------------------------------------------------------------------------
# closed forms and named identities


def _sigma_combination(order, combos):
    """Series whose n-th coefficient is sum over (poly, s) of poly(n)*sigma_s(n),
    with the n = 0 coefficient set to zero."""
    out = [0] * (order + 1)
    for poly, s in combos:
        ss = sigma_series(s, order)
        for n in range(1, order + 1):
            out[n] += poly(n) * ss[n]
    return Series(out, order)


def _ode_v2(order):
    v1, v2 = multisums(2, order)
    return v2, ((7 * v1 - 1) * v1 + v1.q_derivative()) / 10


def _ode_v3(order):
    v1, v2, v3 = multisums(3, order)
    return v3, ((19 * v1 - 3) * v2 - 4 * v1**3 + v1 * v1 + v2.q_derivative()) / 21


def _sigma1_convolution(order):
    # 12*sum sigma1(j)sigma1(n-j) = 5 sigma3 + (1-6n) sigma1
    s1 = sigma_series(1, order)
    return 12 * (s1 * s1), _sigma_combination(order, [(lambda n: 1 - 6 * n, 1), (lambda n: 5, 3)])


# each named closed-form identity -> (order -> its two sides, exactly)
CLOSED_FORMS = {
    "V2_ode": _ode_v2,
    "V3_ode": _ode_v3,
    "V3_sigma": lambda order: (weak_multisum(3, order), _sigma_combination(order, [
        (lambda n: 40 * n * n + 60 * n + 9, 1), (lambda n: -70 * (n + 1), 3), (lambda n: 31, 5),
    ]) / 1920),
    "U3mV3_sigma": lambda order: (strict_multisum(3, order) - weak_multisum(3, order), _sigma_combination(
        order, [(lambda n: -160 * n + 28, 1), (lambda n: 40 * n + 120, 3), (lambda n: -28, 5)],
    ) / 1920),
    "U4_sigma": lambda order: (strict_multisum(4, order), _sigma_combination(order, [
        (lambda n: -840 * n**3 + 5880 * n**2 - 9870 * n + 3229, 1), (lambda n: 756 * n**2 - 4410 * n + 4935, 3),
        (lambda n: -126 * n + 441, 5), (lambda n: 5, 7),
    ]) / 967680),
    "MO251": _sigma1_convolution,
    "excess_V2U2": lambda order: (weak_multisum(2, order) - strict_multisum(2, order),
                                  (sigma_series(3, order) - sigma_series(1, order)) / 6),
    "V1_E2": lambda order: (weak_multisum(1, order),
                            (Series.one(order) - eisenstein("E2", order)) / 24),
}


def symmetric_relation_sides(t: int, order: int):
    """Alternating sum of strict times weak series over total weight t, and zero."""
    e = [Series.one(order)] + multisums(t, order, strict=True)
    h = [Series.one(order)] + multisums(t, order)
    acc = Series.zero(order)
    for i in range(t + 1):
        term = e[i] * h[t - i]
        acc = acc - term if i % 2 else acc + term
    return acc, Series.zero(order)


# ---------------------------------------------------------------------------
# the conjugate chain with alternating strict and weak inequalities


def conjugate_chain_m_form(t: int, order: int) -> Series:
    """Sum over chains M_1 > M_2 >= M_3 > M_4 >= ... >= M_(2t-1) >= 1 of
    q^(M_1) / ((1-q^(M_1)) * prod_j (1-q^(M_j))).

    Enumerated in ascending order (from M_(2t-1) up to M_1), so strictness
    sits after the even original positions.
    """
    if t < 1:
        raise ValueError("t >= 1")
    m = 2 * t - 1
    # ascending position pos holds original index m + 1 - pos
    factors = [(0, 0, 0, ((0, 1),))] * (m - 1) + [(0, 1, 0, ((0, 2),))]
    strict = [pos for pos in range(1, m) if (m + 1 - pos) % 2 == 0]
    return chain_series(factors, order, strict_after=strict)[0]
