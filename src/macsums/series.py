"""Exact truncated power series in one variable q.

A Series stores the coefficients of q^0..q^N for an explicit truncation
order N.  Coefficients are Python ints: the paper's series all have
integer coefficients, and an exact division that would leave a remainder
raises instead of producing a rational.  Binary operations truncate to the
smaller operand order, and no operation silently extends a series beyond
the coefficients it was constructed with.
"""

from itertools import accumulate, compress, count, repeat
from math import comb, gcd
from operator import add, itemgetter, sub


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
        constant term d; a coefficient that would not be an integer raises
        ArithmeticError naming its q^i.

        The series quotient is solved divide and conquer over q^0..q^N
        (`_divide`): solve the lower half, subtract its contributions from
        the upper half (a Kronecker-packed middle product, `_middle_product`),
        then solve the upper half.  Spans of at most `LEAF` coefficients, and
        every node whose lanes would be too wide to pack, run the term-by-term
        loop over the divisor's nonzero terms (`_leaf`).  Signs are moved so
        that d > 0; a unit divisor (d = 1) then needs no division at all, and
        any other d divides each solved coefficient exactly.
        """
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
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        d = b[0]
        if d == 0:
            raise ZeroDivisionError("non-unit series: constant term is zero")
        s = -1 if d < 0 else 1  # a / b = (s a) / (s b)
        tail = [(i, s * c) for i, c in enumerate(b[1 : n + 1], 1) if c]
        out = a[: n + 1] if s == 1 else [-c for c in a[: n + 1]]  # partial sums, solved in place
        _divide(out, tail, s * d, 0, n + 1)
        return Series(out, n)

    def q_derivative(self):
        """Apply q*d/dq: the coefficient of q^n becomes n times itself."""
        return Series([i * c for i, c in enumerate(self.coeffs)], self.order)


# Series division, measured on the theta quotient at N = 20000 (a 199-term
# divisor) with Python 3.11 on a 2-core x86-64 host.  At 123-bit quotient
# values the division time is flat for LEAF from 128 to 512 and about 15%
# higher at 32.  The whole division with packed middle products, against
# the term-by-term loop alone, takes 0.45 of the time at 123-bit values,
# 0.55 at 223, 0.7 at 323, 1.0 at 423 and 1.4 at 1123 bits.  LANE_MAX
# caps a lane (value bits + bits of the divisor's sum of |c| + a sign bit)
# at 256 bits, on the winning side of that crossover; it also bounds the
# packed ints' memory.
LEAF = 128
LANE_MAX = 32


def _divide(out, tail, d, lo, hi):
    """Solve out[lo:hi] in place for `Series.__truediv__`.

    On entry out[m] holds the dividend's coefficient less the
    contributions of every solved out[j], j < lo; `tail` lists the
    divisor's nonzero (i, c), i >= 1, and d > 0 is its constant term.  No
    closure refers back to this function, so a division leaves no
    reference cycle behind.
    """
    if hi - lo <= LEAF:
        _leaf(out, tail, d, lo, lo, hi)
        return
    mid = (lo + hi) // 2
    _divide(out, tail, d, lo, mid)
    if not _middle_product(out, tail, lo, mid, hi):
        _leaf(out, tail, d, lo, mid, hi)
        return
    _divide(out, tail, d, mid, hi)


def _leaf(out, tail, d, lo, start, hi):
    """Solve out[start:hi] term by term, subtracting the contributions of
    out[lo:m] from each out[m]: one multiply and one subtract per pair, then
    the exact division by d unless d = 1."""
    for m in range(start, hi):
        acc = out[m]
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
        out[m] = acc


def _middle_product(out, tail, lo, mid, hi):
    """Subtract sum of c * out[m - i] over lo <= m - i < mid from each
    out[m], mid <= m < hi, as one sum of shifted packed ints.

    Each solved int out[lo + k] becomes lane k, w bits wide, of
    x = sum out[lo + k] 2^(kw) (Kronecker substitution).  The divisor term
    (i, c) adds c * x shifted by i - n_lo lanes, so lane e of the sum is
    what out[mid + e] needs taken off: one C-level pass per term does a
    whole run of pairs.  Lanes are signed, and every lane of the sum fits
    in w bits as value bits + bits of sum |c| + a sign bit.  Returns False,
    changing nothing, when a lane would be wider than LANE_MAX bytes.
    """
    from bisect import bisect_left  # imported here, off the start-up path
    from struct import unpack

    low = out[lo:mid]
    terms = tail[: bisect_left(tail, hi - lo, key=itemgetter(0))]
    top = max(max(low), -min(low))
    if not (top and terms):
        return True
    size = (top.bit_length() + sum(abs(c) for _, c in terms).bit_length() + 8) // 8
    if size > LANE_MAX:
        return False
    w = 8 * size
    bias = 1 << (w - 1)
    lane = bias.to_bytes(size, "little")
    n_lo, n_up = mid - lo, hi - mid
    # pack signed lanes as biased (nonnegative) bytes, then take the bias off
    biased = map(int.to_bytes, map(add, low, repeat(bias)), repeat(size), repeat("little"))
    x = int.from_bytes(b"".join(biased), "little") - int.from_bytes(lane * n_lo, "little")
    signs = x.to_bytes(n_lo * size, "little", signed=True)  # bit 8j - 1 set: the lanes in bytes < j sum negative
    # x + 2^(n_lo w) is positive, so a right shift is one pass; the extra
    # 1 in lane n_lo puts c in lane i of each term, taken back out below
    x += 1 << (n_lo * w)
    acc = borrow = 0
    for i, c in terms:
        if i < n_lo:
            # x >> cut floors: it is 1 short when the lanes below the cut
            # sum negative, the sign of the highest nonzero lane below it;
            # add that borrow back on lane 0
            cut = (n_lo - i) * size
            acc += c * (x >> (8 * cut))
            borrow += c * (signs[cut - 1] >> 7)
        else:
            acc += (c * x) << ((i - n_lo) * w)
    del x, signs
    # biased, each of the n_up low lanes is nonnegative and reads off as bytes
    acc += int.from_bytes(lane * n_up, "little")
    packed = (acc & ((1 << (n_up * w)) - 1)).to_bytes(n_up * size, "little")
    del acc
    lanes = map(int.from_bytes, unpack(f"{size}s" * n_up, packed), repeat("little"))
    out[mid:hi] = map(sub, map(add, out[mid:hi], repeat(bias)), lanes)
    out[mid] -= borrow
    for i, c in terms:
        if i >= n_up:
            break
        out[mid + i] += c
    return True


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
