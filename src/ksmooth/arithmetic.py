"""The operations of a coefficient field on the indices of its elements:
one `IndexArithmetic` per field, built on first use as the field's
`arithmetic`, which is when `fields` first imports this module."""

import operator
from fractions import Fraction
from math import lcm

from .errors import DescriptorMismatch
from .fields import (
    _digits, _digitwise, _index, _monic_gcd, _mulmod, _poly_trim, _powmod, _remainder)


def _first_root(f, order, mul, add):
    """The first index t below `order` with f(t) = 0 by Horner's rule, f an
    index list (low degree first; 0 for f = []), or None."""
    for t in range(order):
        v = 0
        for c in reversed(f):
            v = add(mul(v, t), c)
        if not v:
            return t
    return None


def _resultant(a, b, mul, inv, add, power, minus_one):
    """The resultant of two polynomials given as index lists (low degree
    first) at their actual degrees, the Sylvester determinant, 0 when one
    of them is zero, by the division step `_remainder` of `_monic_gcd`: for
    deg b > 0 and r = a mod b, Res(a, b) = (-1)^(deg a deg b)
    lc(b)^(deg a - deg r) Res(b, r), and Res(a, c) = c^(deg a) for a
    nonzero constant c."""
    a = _poly_trim(list(a))
    b = _poly_trim(list(b))
    if not a or not b:
        return 0
    res = 1
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        r = _remainder(a, b, mul, inv, add, minus_one)
        if not r:
            return 0
        if da & db & 1:
            res = mul(res, minus_one)
        res = mul(res, power(b[-1], da + 1 - len(r)))
        a, b = b, r
    return mul(res, power(b[0], len(a) - 1))


class IndexArithmetic:
    """The operations of a coefficient field on the indices of its elements,
    the only code that does arithmetic in a finite field: FieldElement
    operators call it, and inner loops and linear algebra keep FieldElement
    at their boundary, where `index` and `element` convert; over Q an index
    is the Fraction itself.  `add`, `neg`, `mul`, `inv` (of a nonzero index)
    and `power(a, k)` (k >= 0) are functions of indices, and `combine` takes
    (c, terms) pairs, a nonzero index and a map from ints to nonzero
    indices, and returns the map of the sum of c times terms, zeros
    dropped, added into a copy of the map `start` when given:
    - over Q, on integer numerators over one common denominator;
    - over GF(p), on ints, reduced mod p once per sum;
    - over a tabled GF(p^e), e > 1, on logs: a product adds them and reads
      the antilog list, and a sum is an XOR of indices in characteristic 2
      and otherwise one Zech lookup on the logs, a + b = a * (1 + b/a);
    - over an untabled GF(p^e), e > 1, a product by `_mulmod` on the digits
      and a sum digit by digit.
    `int_mod` is p over GF(p), whose indices are the ints mod p, so that a
    loop may add and multiply them as ints and reduce them once, and 0
    over every other field.  A finite field also has the univariate kernel
    of the line scan on index lists (low degree first): `gcd(a, b)`, the
    monic gcd by the one Euclid loop `_monic_gcd` ([] when both are zero),
    and `root(f)`, the first index t in canonical order with f(t) = 0 by
    Horner's rule (`_first_root`).  A
    tabled field's arithmetic reads the descriptor's log, antilog and Zech
    lists, and builds no list of its own; each field builds its arithmetic
    once, as its `arithmetic`, and no operation but `element` builds a
    FieldElement."""

    __slots__ = ("field", "index", "element", "int_mod", "add", "neg", "mul", "inv", "combine",
                 "power", "gcd", "root", "resultant")

    def __init__(self, field):
        self.field = field
        p, e = field.p, field.e
        if p:
            def index(x):
                if x.field is not field and x.field.key != field.key:
                    raise DescriptorMismatch(f"{x!r} is not an element of {field!r}")
                return x.idx

            self.index, self.element = index, field.element_from_index
        else:
            self.index = self.element = lambda x: x if x.__class__ is Fraction else Fraction(x)
        self.int_mod = p if e == 1 else 0
        if p and e == 1:
            self.neg = lambda a: -a % p
            self.mul = lambda a, b: a * b % p
            self.inv = lambda a: pow(a, -1, p)
            self.add = lambda a, b: (a + b) % p
            self.power = lambda a, k: pow(a, k, p)

            def combine(parts, start=()):
                acc = dict(start)
                get = acc.get
                for c, terms in parts:
                    for k, v in terms.items():
                        acc[k] = get(k, 0) + c * v
                return {k: r for k, v in acc.items() if (r := v % p)}
        elif p and field._exp is not None:
            # the log of 0 is 2n, which the zero padding of `_exp` absorbs
            n = field.order - 1
            log, exp, zech = field._log, field._exp, field._zech
            self.mul = lambda a, b: exp[log[a] + log[b]]
            self.inv = lambda a: exp[n - log[a]]
            self.power = lambda a, k: exp[log[a] * k % n] if a else int(not k)
            if p == 2:
                self.add = operator.xor
                self.neg = lambda a: a

                def combine(parts, start=()):
                    acc = dict(start)
                    get = acc.get
                    for c, terms in parts:
                        c = log[c]
                        for k, v in terms.items():
                            acc[k] = get(k, 0) ^ exp[c + log[v]]
                    return {k: v for k, v in acc.items() if v}
            else:
                # -1 = g^(n/2), and its log moves a log of zero into the padding
                half = n // 2
                self.neg = lambda a: exp[log[a] + half]

                def add(a, b):
                    if not a or not b:
                        return a or b
                    a = log[a]
                    return exp[a + zech[log[b] - a]]

                self.add = add

                def combine(parts, start=()):
                    acc = dict(start)
                    get = acc.get
                    for c, terms in parts:
                        c = log[c]
                        for k, v in terms.items():
                            x = c + log[v]
                            a = get(k)
                            if a:
                                a = log[a]
                                acc[k] = exp[a + zech[x - a]]
                            else:
                                acc[k] = exp[x]
                    return {k: v for k, v in acc.items() if v}
        elif p:
            red, q = field._red, field.order

            def mul(a, b):
                return _index(_mulmod(_digits(a, p, e), _digits(b, p, e), red, p), p)

            def power(a, k):
                return _index(_powmod(_digits(a, p, e), k, red, p), p)

            self.mul, self.power = mul, power
            self.inv = lambda a: power(a, q - 2)
            self.add = lambda a, b: _digitwise(a, b, p, e)
            # -1 has the one digit p - 1
            self.neg = lambda a: mul(a, p - 1)

            def combine(parts, start=()):
                acc = dict(start)
                get = acc.get
                for c, terms in parts:
                    for k, v in terms.items():
                        acc[k] = _digitwise(get(k, 0), mul(c, v), p, e)
                return {k: v for k, v in acc.items() if v}
        else:
            self.add, self.neg, self.mul = operator.add, operator.neg, operator.mul
            self.power = operator.pow
            self.inv = lambda a: 1 / a

            def combine(parts, start=()):
                parts = [(1, start), *parts] if start else parts
                den = lcm(*[c.denominator * v.denominator for c, t in parts for v in t.values()])
                acc = {}
                get = acc.get
                for c, terms in parts:
                    s = c.numerator * (den // c.denominator)
                    for k, v in terms.items():
                        acc[k] = get(k, 0) + s * v.numerator // v.denominator
                return {k: Fraction(v, den) for k, v in acc.items() if v}
        self.combine = combine
        if p:
            mul, inv, add, power, q = self.mul, self.inv, self.add, self.power, field.order
            self.gcd = lambda a, b: _monic_gcd(a, b, mul, inv, add, p - 1)
            self.root = lambda f: _first_root(f, q, mul, add)
            self.resultant = lambda a, b: _resultant(a, b, mul, inv, add, power, p - 1)

    def rref(self, rows, ncols):
        """The reduced row echelon form of a matrix of indices with `ncols`
        columns, its rows given as maps from columns to nonzero entries, by
        Gauss-Jordan elimination that takes as pivot of each column the
        first nonzero entry at or below the current row.  Returns the
        reduced rows, as such maps, the pivot columns, and the product of
        the pivots signed by the row swaps: the determinant of a square
        matrix with a pivot in every column."""
        combine, mul, neg = self.combine, self.mul, self.neg
        a = list(rows)
        pivots = []
        det = self.index(self.field.one())
        for c in range(ncols):
            r = len(pivots)
            if r == len(a):
                break
            piv = next((i for i in range(r, len(a)) if c in a[i]), None)
            if piv is None:
                continue
            if piv != r:
                a[r], a[piv] = a[piv], a[r]
                det = neg(det)
            pv = a[r][c]
            if pv != 1:
                det = mul(det, pv)
                a[r] = combine([(self.inv(pv), a[r])])
            for i, row in enumerate(a):
                f = row.get(c)
                if f and i != r:
                    a[i] = combine([(neg(f), a[r])], row)
            pivots.append(c)
        return a, pivots, det

    def kernel(self, rows, ncols):
        """A basis of the right kernel of a matrix given as to `rref`: one
        list of `ncols` indices per free column of its reduced form, in
        column order, with 1 there and 0 at the other free columns."""
        reduced, pivots, _ = self.rref(rows, ncols)
        neg = self.neg
        zero, one = self.index(self.field.zero()), self.index(self.field.one())
        basis = []
        for free in sorted(set(range(ncols)) - set(pivots)):
            v = [zero] * ncols
            v[free] = one
            for row, c in zip(reduced, pivots):
                v[c] = neg(row.get(free, zero))
            basis.append(v)
        return basis
