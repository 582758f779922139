"""Exact truncated power series in one variable q.

A Series stores the coefficients of q^0..q^N for an explicit truncation
order N.  Coefficients are Python ints: the paper's series all have
integer coefficients, and an exact division that would leave a remainder
raises instead of producing a rational.  Binary operations truncate to the
smaller operand order, and no operation silently extends a series beyond
the coefficients it was constructed with.
"""

from bisect import bisect_left
from itertools import accumulate, compress, count, islice, repeat
from math import comb, gcd
from operator import add, itemgetter, lshift, sub


def inexact_quotient(value: int, d: int, at: int) -> ArithmeticError:
    """The error of an exact division whose quotient value/d at q^at is not
    an integer; it names that quotient in lowest terms."""
    g = gcd(value, d) if d > 0 else -gcd(value, d)
    return ArithmeticError(f"non-integer coefficient {value // g}/{d // g} at q^{at}")


class Series:
    """Coefficient prefix of a formal power series with integer coefficients."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order=None):
        coeffs = list(coeffs)
        if not set(map(type, coeffs)) <= {int}:  # one C-level type scan; find the culprit only on failure
            i, c = next((i, c) for i, c in enumerate(coeffs) if type(c) is not int)
            raise TypeError(f"Series coefficients are ints; got {c!r} at q^{i}")
        if order is None:
            if not coeffs:
                raise ValueError("empty coefficient list needs an explicit order")
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be >= 0")
        if len(coeffs) > order + 1:
            raise ValueError("more coefficients than order allows; truncate explicitly")
        if len(coeffs) < order + 1:
            coeffs = coeffs + [0] * (order + 1 - len(coeffs))
        self.coeffs = coeffs
        self.order = order

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, order):
        return cls([0] * (order + 1), order)

    @classmethod
    def one(cls, order):
        c = [0] * (order + 1)
        c[0] = 1
        return cls(c, order)

    @classmethod
    def monomial(cls, coeff, exp, order):
        c = [0] * (order + 1)
        if 0 <= exp <= order:
            c[exp] = coeff
        return cls(c, order)

    # ------------------------------------------------------------------
    # inspection

    def __getitem__(self, n):
        return self.coeffs[n]

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    __hash__ = None

    def agrees(self, other, upto=None):
        """True if coefficients match for exponents 0..upto (default: min order)."""
        return self.first_mismatch(other, upto) is None

    def first_mismatch(self, other, upto=None):
        n = min(self.order, other.order)
        if upto is not None:
            if upto > n:
                raise ValueError("comparison beyond truncation order")
            n = upto
        a, b = self.coeffs, other.coeffs
        for i in range(n + 1):
            if a[i] != b[i]:
                return i
        return None

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*q^{i}" if i else f"{c}")
            if len(terms) >= 8:
                terms.append("...")
                break
        body = " + ".join(terms) if terms else "0"
        return f"Series({body}; order={self.order})"

    # ------------------------------------------------------------------
    # shifts (always explicit)

    def shift(self, k):
        """Multiply by q^k; order is preserved, the top k coefficients drop."""
        if k < 0:
            raise ValueError("negative shifts would leave the power-series ring")
        if k == 0:
            return self
        n = self.order
        if k > n:
            return Series.zero(n)
        return Series([0] * k + self.coeffs[: n + 1 - k], n)

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other):
        if type(other) is int:
            c = list(self.coeffs)
            c[0] = c[0] + other
            return Series(c, self.order)
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        return Series([a[i] + b[i] for i in range(n + 1)], n)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is int:
            return self.__add__(-other)
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        return Series([a[i] - b[i] for i in range(n + 1)], n)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Series([-c for c in self.coeffs], self.order)

    def __mul__(self, other):
        if type(other) is int:
            if other == 0:
                return Series.zero(self.order)
            return Series([c * other for c in self.coeffs], self.order)
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        a = self.coeffs
        b = other.coeffs
        # run the sparser operand on the outside
        na = sum(1 for c in a[: n + 1] if c)
        nb = sum(1 for c in b[: n + 1] if c)
        if nb < na:
            a, b = b, a
        out = [0] * (n + 1)
        for i in range(n + 1):
            c = a[i]
            if not c:
                continue
            for j, d in enumerate(b[: n - i + 1]):
                if d:
                    out[i + j] += c * d
        return Series(out, n)

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("series powers take a nonnegative integer exponent")
        result = Series.one(self.order)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __truediv__(self, other):
        """Exact quotient by a nonzero int, or by a series with a nonzero
        constant term; a coefficient that would not be an integer raises
        ArithmeticError naming its q^i.  A series divisor runs the
        term-by-term loop of `divide_coeffs` at every order: no width is
        proved for a general quotient, and a caller that has one calls
        `divide_coeffs` with it."""
        if type(other) is int:
            if other == 0:
                raise ZeroDivisionError("division of a series by zero")
            out = [c // other for c in self.coeffs]
            for i, (c, v) in enumerate(zip(self.coeffs, out)):
                if v * other != c:
                    raise inexact_quotient(c, other, i)
            return Series(out, self.order)
        if not isinstance(other, Series):
            return NotImplemented
        return Series(divide_coeffs(self.coeffs, other.coeffs), min(self.order, other.order))

    def q_derivative(self):
        """Apply q*d/dq: the coefficient of q^n becomes n times itself."""
        return Series([i * c for i, c in enumerate(self.coeffs)], self.order)


# Series division, measured on the theta quotients the program divides (a
# 199-term divisor at N = 20000) with Python 3.11 on a 2-core x86-64 host:
# the suite's residue quotient (N = 20000, 29-bit values, 6-byte lanes), a
# prospect's (N = 5000, 124 bits, 18-byte lanes) and a single-t exact table
# (t = 6, N = 20000, lanes sized from its 147-bit modulus, 21 bytes).  Best
# of 7 runs, interleaved in one process: LEAF = 64 takes 51, 19 and 85 ms
# on these; against it, 32 takes 1.04 to 1.06 times as long, 128 takes
# 0.98 to 1.04 and 256 takes 1.05 to 1.09.
LEAF = 64


def divide_coeffs(a: list, b: list, bits=None, reduce=None) -> list:
    """The coefficients of a/b through the shorter of the two lists, for
    integer coefficient lists a and b, where b's constant term d is
    nonzero; a coefficient that would not be an integer raises
    ArithmeticError naming its q^i.

    Signs are moved so that d > 0; a unit divisor (d = 1) then needs no
    division at all, and any other d divides each solved coefficient
    exactly.  `reduce`, when given, maps each solved coefficient, right
    after that exact division and before any later coefficient reads it,
    to the value the quotient keeps.  The solve is Z-linear, so for d = 1 a
    `reduce` that keeps each coefficient's residue modulo N yields the
    quotient modulo N.  `bits`, when given, is a width the caller has
    proved: every value the quotient keeps has |v| < 2^bits.  Without it,
    or with at most `LEAF` coefficients, the quotient is solved by the
    term-by-term loop over the divisor's nonzero terms (`_solve`) alone,
    with nothing packed.

    With `bits`, longer quotients are solved divide and conquer over
    q^0..q^N (`_divide`) on packed ints whose lanes are all W bits wide.
    Each dividend coefficient is packed into a pending lane once, at the
    root, and read back once, at its leaf; each solved coefficient is
    packed once, at its leaf, and never read back.  A node solves its
    lower half, takes the lower half's contributions off its upper half's
    pending lanes (`_middle_product`, run on the packed int the lower half
    returned), then solves its upper half.  A leaf unpacks its pending
    lanes, takes the bias back out, runs `_solve` and packs what it solved
    (`_leaf`).

    The lanes.  With c_i the divisor's coefficients (d's sign moved), S =
    sum |c_i| over 1 <= i <= N and C_k = c_1 + ... + c_k, b is the larger
    of `bits` and the bit length of the dividend's widest coefficient, so
    |a_m| < 2^b; W is the fewest whole bytes that hold b + bits(S) + 2
    bits, and H = 2^(W-1).  A solved v is packed as the lane v + 2^b, and
    the root packs a_m + H + 2^b C_m as the pending lane of q^m.  Claim:
    while every solved |v| < 2^b,

    - each solved lane lies in [1, 2^(b+1)), so in [0, 2^(b+1));
    - once the coefficients below L are solved and taken off, the pending
      lane of q^m, m >= L, is H + a_m - sum(c_(m-j) v_j, j < L) + 2^b
      C_(m-L), and it lies in [0, 2^W).

    Proof.  The first is |v| < 2^b.  For the second, each pending lane
    read holds a prefix j < L of the quotient: a node takes the lanes j in
    [lo, mid) off the lanes m in [mid, hi), which held the prefix j < lo,
    and every pair j < m lies across the halves of exactly one node or
    within one leaf.  The lane of q^m starts as H + a_m + 2^b C_m; taking
    off c_(m-j) (v_j + 2^b) for each j < L with m - j >= 1 takes off 2^b
    (C_m - C_(m-L)) beside the c_(m-j) v_j, which is the formula.  Its
    value less H has absolute value at most (2^b - 1) + S 2^b + S 2^b <
    2^b (1 + 2S) <= 2^(b + bits(S) + 1) <= H, so it lies in [0, 2^W).  The
    packed arithmetic is exact, so once a node's middle product is taken
    off, whatever the partial sums on the way, the packed int is the sum
    of its lanes, each in range, and no lane has borrowed from another.
    At a leaf [lo, hi), L = lo and m - L = k is the lane's place in the
    leaf, so the leaf's pending value is its lane less H + 2^b C_k.
    Hence a leaf that checks the values it solves against 2^b is the only
    guard needed: a leaf that solves some |v| >= 2^b raises
    ArithmeticError naming its q-range, as `bits` was then no bound on
    this quotient, and no lane has borrowed before that leaf.
    """
    n = min(len(a), len(b)) - 1
    if b[0] == 0:
        raise ZeroDivisionError("non-unit series: constant term is zero")
    if b[0] < 0:  # a / b = (-a) / (-b)
        a, b = [-c for c in a[: n + 1]], [-c for c in b[: n + 1]]
    d = b[0]
    tail = [(i, c) for i, c in enumerate(b[1 : n + 1], 1) if c]
    out = a[: n + 1]
    if bits is None or n < LEAF:
        _solve(out, tail, d, reduce, 0, out)  # reads out[m] before it writes it
        return out
    top = max(bits, max(map(abs, out)).bit_length())
    size = (top + sum(abs(c) for _, c in tail).bit_length() + 9) // 8  # b + bits(S) + 2 bits, in whole bytes
    h = 1 << (8 * size - 1)
    unbias = [h + (c << top) for c in accumulate(b[1:LEAF], initial=0)]  # H + 2^b C_k, k < LEAF
    lanes = map(add, map(add, out, repeat(h)), map(lshift, accumulate(b[1 : n + 1], initial=0), repeat(top)))
    _divide(out, tail, d, reduce, (size, top, unbias), 0, n + 1, [_pack(lanes, size)], False)
    return out


def _pack(lanes, size):
    """The int whose k-th `size`-byte lane is the k-th value that `lanes`
    yields, each in [0, 2^(8 size)).  Wider lanes than a machine word are
    joined LEAF at a time, so the bytes held at once are about twice the
    int's size."""
    if size == 8:
        return int.from_bytes(_words(lanes), "little")
    chunk = lambda: b"".join(map(int.to_bytes, islice(lanes, LEAF), repeat(size), repeat("little")))
    return int.from_bytes(b"".join(iter(chunk, b"")), "little")


def _words(data):
    """The array('Q') built from `data`, ints or the bytes of 8-byte
    little-endian lanes, with its words' byte order swapped on a
    big-endian host: built from ints its bytes are the lanes, built from
    bytes its items are the lanes' values.  One C loop packs or reads
    every lane, where wider lanes take one bytes object each; on the
    suite's 8-byte lanes the division takes 0.91 to 0.95 of the time it
    takes with bytes objects."""
    from array import array  # imported here, off the start-up path
    from sys import byteorder

    words = array("Q", data)
    if byteorder == "big":
        words.byteswap()
    return words


def _divide(out, tail, d, reduce, lanes, lo, hi, held, need):
    """Solve out[lo:hi] for `divide_coeffs` from the packed pending lanes
    of q^lo..q^(hi-1), the int on top of the stack `held`, and pop it;
    return the solved lanes packed when `need`.

    `tail` lists the divisor's nonzero (i, c), i >= 1, d > 0 is its
    constant term, and `lanes` is (W / 8, b, the leaves' unbias values).
    Each pending int is handed down on `held` alone, so a split frees it,
    and a frame holds only what a later step reads: its upper half's
    pending lanes, on the stack, and the lower half's solved lanes while
    its own caller needs them.  No closure refers back to this function,
    so a division leaves no reference cycle behind.
    """
    if hi - lo <= LEAF:
        return _leaf(out, tail, d, reduce, lanes, lo, hi, held.pop())
    mid = (lo + hi) // 2
    cut = (mid - lo) * 8 * lanes[0]
    pending = held.pop()
    held.append(pending >> cut)
    held.append(pending & ((1 << cut) - 1))
    del pending
    low = _divide(out, tail, d, reduce, lanes, lo, mid, held, True)
    held.append(_middle_product(held.pop(), low, tail, mid - lo, hi - lo, 8 * lanes[0]))
    if not need:
        del low
        return _divide(out, tail, d, reduce, lanes, mid, hi, held, False)
    return low | _divide(out, tail, d, reduce, lanes, mid, hi, held, True) << cut


def _leaf(out, tail, d, reduce, lanes, lo, hi, pending):
    """Unpack the pending lanes of q^lo..q^(hi-1), solve out[lo:hi] from
    them and return the solved values packed, value + 2^b per lane, or
    raise ArithmeticError if some solved v has |v| >= 2^b."""
    size, top, unbias = lanes
    n = (hi - lo) * size
    buf = pending.to_bytes(n, "little")
    del pending
    if size == 8:
        values = _words(buf)
    else:
        parts = map(buf.__getitem__, map(slice, range(0, n, size), range(size, n + size, size)))
        values = map(int.from_bytes, parts, repeat("little"))
    _solve(out, tail, d, reduce, lo, map(sub, values, unbias))
    solved = out[lo:hi]
    bias = 1 << top
    if max(solved) >= bias or min(solved) <= -bias:
        raise ArithmeticError(f"a quotient coefficient in q^{lo}..q^{hi - 1} needs more than its proved {top} bits")
    return _pack(map(add, solved, repeat(bias)), size)


def _solve(out, tail, d, reduce, lo, pending):
    """Solve out[lo], out[lo + 1], ... term by term from the values
    `pending` yields, each its coefficient's dividend less the
    contributions of every out[j], j < lo: one multiply and one subtract
    per pair, then the exact division by d unless d = 1, then `reduce` if
    one is given."""
    for m, acc in enumerate(pending, lo):
        k = m - lo
        for i, c in tail:
            if i > k:
                break
            acc -= c * out[m - i]
        if d != 1:
            q, rem = divmod(acc, d)
            if rem:
                raise inexact_quotient(acc, d, m)
            acc = q
        out[m] = acc if reduce is None else reduce(acc)


def _middle_product(pending, x, tail, n_lo, span, w):
    """The packed pending lanes of a node's upper half less the
    contributions of its solved lower half: lane e, 0 <= e < span - n_lo,
    loses the sum of c times lane n_lo + e - i of x over the divisor terms
    (i, c) with 0 <= n_lo + e - i < n_lo, where x packs the n_lo solved
    lanes, each w bits wide and nonnegative, so a right shift drops whole
    lanes exactly.

    For i <= n_lo the term is c * (x >> (n_lo - i) lanes), i lanes wide;
    for i > n_lo it is c times the low span - i lanes of x, shifted up by
    i - n_lo lanes.  The terms that write at most half the output's lanes
    are summed, those past n_lo Horner fashion from the largest i, and each
    sum is taken off whole; every wider term is taken off alone.  So each
    term costs about the lanes it writes, and the ints live at once add up
    to at most about four times the output's width.  The lanes on the way
    may leave their range; `divide_coeffs` proves those of the result do
    not.
    """
    terms = tail[: bisect_left(tail, span, key=itemgetter(0))]
    low_half = bisect_left(terms, n_lo // 2 + 1, key=itemgetter(0))
    split = bisect_left(terms, n_lo + 1, key=itemgetter(0))
    high_half = bisect_left(terms, n_lo + (span - n_lo) // 2 + 1, key=itemgetter(0))
    if high_half < len(terms):
        acc = 0
        prev = terms[-1][0]
        for i, c in reversed(terms[high_half:]):
            acc <<= (prev - i) * w
            acc += c * (x & ((1 << ((span - i) * w)) - 1))
            prev = i
        acc <<= (prev - n_lo) * w
        pending -= acc
        del acc
    for i, c in terms[split:high_half]:
        pending -= c * (x & ((1 << ((span - i) * w)) - 1)) << ((i - n_lo) * w)
    acc = 0
    for i, c in terms[:low_half]:
        acc += c * (x >> ((n_lo - i) * w))
    pending -= acc
    del acc
    for i, c in terms[low_half:split]:
        pending -= c * (x >> ((n_lo - i) * w))
    return pending


def _check_stride_shift(k, shift):
    if k < 1:
        raise ValueError("a geometric factor q^shift/(1-q^k)^r needs k >= 1")
    if shift < 0:
        raise ValueError("negative shifts would leave the power-series ring")


def over_geometric_coeffs(coeffs: list, k: int, r: int, shift: int = 0) -> list:
    """The coefficient list times q^shift/(1-q^k)^r, truncated to its length;
    a negative r multiplies by q^shift (1-q^k)^|r|.

    Dividing by 1-q^k is a running sum with stride k, so the product is a
    shift followed by r strided running sums: O(N) additions per sum, run in
    C over slices, with no product formed.  Multiplying by 1-q^k is one
    strided difference, a single slice-subtract.  The product vanishes below
    the input's first nonzero coefficient plus the shift, so the passes run
    only over the tail from there: each running sum is one `accumulate` per
    residue class mod k when k^2 is at most the tail's length, otherwise one
    slice-add per block of k.  k and the shift are checked as in
    `geometric_pow`, and r may be any nonzero integer; a shift past the end
    gives zeros.
    """
    if r == 0:
        raise ValueError("a geometric factor q^shift/(1-q^k)^r needs r != 0")
    _check_stride_shift(k, shift)
    n = len(coeffs)
    first = next(compress(count(), coeffs), n)  # one C-level scan
    start = first + shift
    if start >= n:
        return [0] * n
    y = [0] * start + coeffs[first : n - shift]
    for _ in range(-r):
        y[start + k :] = map(sub, y[start + k :], y[start : n - k])  # the right side is read before the write
    for _ in range(r):
        if k * k <= n - start:
            for res in range(start, start + k):
                y[res::k] = accumulate(y[res::k])
        else:
            for j in range(start + k, n, k):
                y[j : j + k] = map(add, y[j : j + k], y[j - k : j])
    return y


def geometric_pow(k: int, r: int, order: int, shift: int = 0) -> Series:
    """Series for q^shift/(1-q^k)^r: the coefficient of q^(shift+k*m) is
    C(m+r-1, r-1)."""
    if r < 1:
        raise ValueError("a geometric factor q^shift/(1-q^k)^r needs r >= 1")
    _check_stride_shift(k, shift)
    out = [0] * (order + 1)
    for m in range((order - shift) // k + 1):
        out[shift + k * m] = comb(m + r - 1, r - 1)
    return Series(out, order)
