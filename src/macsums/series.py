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
from operator import add, and_, itemgetter, lshift, rshift, sub


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
        constant term (`divide_coeffs`); a coefficient that would not be an
        integer raises ArithmeticError naming its q^i."""
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
# 199-term divisor at N = 20000) with Python 3.11 on a 2-core x86-64 host,
# best of five or more in-process runs.  Against the term-by-term loop
# alone, the packed division takes 0.30 of the time on the suite's residue
# quotient (N = 20000, two CRT-shared slots, 42-bit values), 0.63 on a
# prospect's six-slot one (N = 5000, 144 bits) and 0.32 on a single-t
# exact table (N = 20000, 123 bits).  LEAF at 96 takes 1.00 to 1.03 times
# as long on these as at 128, and 256 takes 0.91 to 0.97 times as long.
# PIECE bounds the bytes objects and the struct format that a pack or an
# unpack holds at once, and the lanes it pads a node's output to: 64 and
# 256 lanes take the same time, 1024 takes 1.2 times as long on the
# single-t table, and 64 keeps the formats struct caches smallest.  PACK
# bounds the packed ints.  None of the shapes above is cut: it was set on
# the suite's former exact quotient (N = 20000, 417 bits), whose top
# middle product it cut into two bit slices, which cost 2% of that
# division against no cut (2^17: 12%) and lowered the suite command's peak
# RSS from 21.2 to 19.7 MB; a single-t exact table at t = 10 is not cut
# either.
LEAF = 128
PIECE = 64
PACK = 1 << 18


def divide_coeffs(a: list, b: list, reduce=None) -> list:
    """The coefficients of a/b through the shorter of the two lists, for
    integer coefficient lists a and b, where b's constant term d is
    nonzero; a coefficient that would not be an integer raises
    ArithmeticError naming its q^i.

    The quotient is solved divide and conquer over q^0..q^N (`_divide`):
    solve the lower half, subtract its contributions from the upper half (a
    Kronecker-packed middle product, `_middle_product`, at any lane width),
    then solve the upper half.  Spans of at most `LEAF` coefficients run
    the term-by-term loop over the divisor's nonzero terms (`_leaf`).
    Signs are moved so that d > 0; a unit divisor (d = 1) then needs no
    division at all, and any other d divides each solved coefficient
    exactly.

    `reduce`, when given, maps each solved coefficient, right after that
    exact division and before any later coefficient reads it, to the value
    the quotient keeps.  The solve is Z-linear, so for d = 1 a `reduce`
    that keeps each coefficient's residue modulo N yields the quotient
    modulo N; the middle products size their lanes from the values they
    pack, so they need not know of it.
    """
    n = min(len(a), len(b)) - 1
    d = b[0]
    if d == 0:
        raise ZeroDivisionError("non-unit series: constant term is zero")
    s = -1 if d < 0 else 1  # a / b = (s a) / (s b)
    tail = [(i, s * c) for i, c in enumerate(b[1 : n + 1], 1) if c]
    out = a[: n + 1] if s == 1 else [-c for c in a[: n + 1]]  # partial sums, solved in place
    _divide(out, tail, s * d, reduce, 0, n + 1)
    return out


def _divide(out, tail, d, reduce, lo, hi, off=0):
    """Solve out[lo:hi] in place for `divide_coeffs`.

    On entry out[m] + off holds the dividend's coefficient less the
    contributions of every solved out[j], j < lo; `tail` lists the
    divisor's nonzero (i, c), i >= 1, and d > 0 is its constant term.  A
    middle product leaves its upper half short by the bias it returns, and
    that bias is carried down to the leaves.  No closure refers back to
    this function, so a division leaves no reference cycle behind.
    """
    if hi - lo <= LEAF:
        _leaf(out, tail, d, reduce, lo, hi, off)
        return
    mid = (lo + hi) // 2
    _divide(out, tail, d, reduce, lo, mid, off)
    _divide(out, tail, d, reduce, mid, hi, off + _middle_product(out, tail, lo, mid, hi))


def _leaf(out, tail, d, reduce, lo, hi, off):
    """Solve out[lo:hi] term by term, subtracting the contributions of
    out[lo:m] from each out[m] + off: one multiply and one subtract per
    pair, then the exact division by d unless d = 1, then `reduce` if one
    is given."""
    for m in range(lo, hi):
        acc = out[m] + off
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


def _middle_product(out, tail, lo, mid, hi):
    """Subtract sum of c * out[m - i] over lo <= m - i < mid from each
    out[m], mid <= m < hi, and return the bias by which each out[m] is
    then short.

    The solved ints out[lo:mid] are cut into as few bit slices as keep
    each packed int near PACK bytes, and `_packed_pass` takes each slice's
    contributions off: the product is linear in the ints, so the slices'
    contributions, shifted into place, sum to the whole.  Every slice but
    the top one is nonnegative; the top one keeps the sign.
    """
    terms = tail[: bisect_left(tail, hi - lo, key=itemgetter(0))]
    low = out[lo:mid]
    top = max(max(low), -min(low))
    if not (top and terms):
        return 0
    b = top.bit_length()
    spread = sum(abs(c) for _, c in terms).bit_length() + 2
    cut = -(-b // -(-(mid - lo) * (b + spread) // (8 * PACK)))
    bias = 0
    for j in range(0, b, cut):
        if j + cut < b:
            part, width = map(and_, map(rshift, low, repeat(j)), repeat((1 << cut) - 1)), cut
        else:
            part, width = (map(rshift, low, repeat(j)) if j else low), b - j
        bias += _packed_pass(out, terms, part, width, spread, lo, mid, hi, j) << j
    return bias


def _packed_pass(out, terms, low, b, spread, lo, mid, hi, shift):
    """Subtract sum of c * low[m - i - lo] << shift from each out[m],
    mid <= m < hi, over the divisor terms (i, c) with lo <= m - i < mid,
    as sums of shifted packed ints, where -2^b <= low[k] < 2^b; return the
    bias h by which each out[m] is then short, before the shift.

    Each int low[k] + 2^b becomes lane k, w bits wide, of x (Kronecker
    substitution).  The lanes are nonnegative, so a right shift drops
    whole lanes exactly.  Output lane e is what out[mid + e] needs taken
    off, and the term (i, c) adds c * low[n_lo + e - i] to it for e in
    [max(0, i - n_lo), min(i, n_up)).  For i <= n_lo that is
    c * (x >> (n_lo - i) lanes), i lanes wide; for i > n_lo it is c times
    the low hi - lo - i lanes of x, shifted up by i - n_lo lanes and summed
    Horner fashion from the largest i.  So each term costs the lanes it
    writes, and at most four ints as wide as x are live at once.  Each
    term also adds c 2^b to every lane it covers; a constant whose lanes
    are h = 2^(w-1) less those sums makes every lane of the result
    nonnegative, and the lanes are packed and read off PIECE at a time.
    Every lane fits in w bits as b + `spread` (bits of sum |c|, plus 2)
    bits.
    """
    from struct import unpack_from  # imported here, off the start-up path

    n_lo, n_up = mid - lo, hi - mid
    size = (b + spread + 7) // 8
    w = 8 * size
    buf = bytearray(n_lo * size)
    low = iter(low)
    for j in range(0, n_lo * size, PIECE * size):
        lanes = map(add, islice(low, PIECE), repeat(1 << b))
        buf[j : j + PIECE * size] = b"".join(map(int.to_bytes, lanes, repeat(size), repeat("little")))
    x = int.from_bytes(buf, "little")
    del buf
    steps = {0: 0}  # lane e is covered by terms whose c sum to the steps at or below e
    split = bisect_left(terms, n_lo + 1, key=itemgetter(0))
    acc = 0
    if split < len(terms):
        prev = terms[-1][0]
        for i, c in reversed(terms[split:]):
            acc <<= (prev - i) * w
            acc += c * (x & ((1 << ((hi - lo - i) * w)) - 1))
            prev = i
            steps[i - n_lo] = steps.get(i - n_lo, 0) + c
        acc <<= (prev - n_lo) * w
    # the Horner part joins the sum once that is half as wide, which keeps
    # four ints live rather than five
    part, acc = acc, 0
    fold = bisect_left(terms, n_lo // 2 + 1, key=itemgetter(0))
    for j, (i, c) in enumerate(terms[:split]):
        if j == fold and part:
            acc, part = acc + part, 0
        acc += c * (x >> ((n_lo - i) * w))
        steps[0] += c
        steps[i] = steps.get(i, 0) - c
    del x
    if part:
        acc += part
    del part
    h = 1 << (w - 1)
    at = sorted(steps)
    level = 0
    fill = []
    for e, f in zip(at, [*at[1:], n_up]):
        level += steps[e]
        fill.append((h - (level << b)).to_bytes(size, "little") * (f - e))
    acc += int.from_bytes(b"".join(fill), "little")
    packed = acc.to_bytes(-(-n_up // PIECE) * PIECE * size, "little")  # whole pieces: one struct format per size
    del acc
    piece = f"{size}s" * PIECE
    for j in range(mid, hi, PIECE):
        lanes = map(int.from_bytes, unpack_from(piece, packed, (j - mid) * size), repeat("little"))
        if shift:
            lanes = map(lshift, lanes, repeat(shift))
        out[j : j + PIECE] = map(sub, out[j : j + PIECE], lanes)
    return h


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
