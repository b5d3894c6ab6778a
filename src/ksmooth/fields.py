"""Exact arithmetic in prime fields, extension fields GF(p^e) and the
rationals, and the digit helpers that `arithmetic` builds on.

Extension fields are presented as F_p[u]/(modulus); a prime field is
F_p[u]/(u), so one multiply serves every field and the irreducibility test.
An element is its index, the coefficient vector in the basis 1, u, ...,
u^(e-1) read as a base-p integer.  Fields up to order 2^16 intern their
elements and build int lists of logs to the first generator of the unit
group, antilogs and Zech logs (O(q) entries each), so every operation (a
power included) is one or two lookups; a larger field computes mod p or on
the digits.  All of that arithmetic is the field's one `IndexArithmetic`,
which reads the lists without copying them: `FieldElement` is a thin
wrapper whose operators each call it, and inner loops, all linear algebra
and the univariate gcd and root search of the point search work on the
indices themselves (over Q on the Fractions).  Canonical moduli make every
derived object bit-reproducible.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import prod

from .errors import (
    DescriptorMismatch,
    DivisionByZero,
    NoSolution,
    WrongCharacteristic,
)

_TABLE_LIMIT = 1 << 16


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 86 (2017), 985-1003).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n):
    """Deterministic Miller-Rabin; a ValueError for n at or above _MR_BOUND."""
    if n >= _MR_BOUND:
        raise ValueError(f"primality of {n} is decided only below {_MR_BOUND}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n):
    """The distinct primes dividing n >= 1, ascending, by trial division:
    once every prime up to r has been divided out, a rest below r^2 is 1
    or a prime."""
    out = []
    r = 2
    while r * r <= n:
        if n % r == 0:
            out.append(r)
            while n % r == 0:
                n //= r
        r += 1
    if n > 1:
        out.append(n)
    return out


def _first_of_full_order(candidates, n, power):
    """The first candidate x, the index of a unit of a field with x^n = 1,
    of order exactly n: x^(n/r) != 1 for every prime r dividing n, with
    `power(a, k)` the index of a^k.  The powers share one chain:
    y = x^(n/s), s the product of the primes, then y^(s/r) for each r, the
    smallest (most often failing) first."""
    primes = _prime_factors(n)
    s = prod(primes)
    for x in candidates:
        y = power(x, n // s)
        if all(power(y, s // r) != 1 for r in primes):
            return x
    raise AssertionError("unreachable: no candidate of full order")


def _digits(idx, p, k):
    """The k base-p digits of idx, least significant first."""
    out = []
    for _ in range(k):
        out.append(idx % p)
        idx //= p
    return tuple(out)


def _index(digits, p):
    idx = 0
    for c in reversed(digits):
        idx = idx * p + c
    return idx


def _spread(values, k, scale):
    """The sum of values[d_i] * scale^i over the base-b digits d_i of m,
    b = len(values), for every m below b^k in order."""
    out, power = [0], 1
    for _ in range(k):
        out = [x + v * power for v in values for x in out]
        power *= scale
    return out


def _digitwise(a, b, p, e):
    """a + b on e-digit base-p indices, digit by digit mod p (no carry): the
    sum in GF(p^e); XOR for p = 2 and one mod for a prime field."""
    if p == 2:
        return a ^ b
    if e == 1:
        return (a + b) % p
    return _index([(x + y) % p for x, y in zip(_digits(a, p, e), _digits(b, p, e))], p)


# -- F_p[u]/(m) for a monic m of degree e, as coefficient tuples of length e

def _reduction_rows(modulus, p):
    """Row k holds the coefficients of u^(e+k) mod the monic modulus."""
    e = len(modulus) - 1
    base_row = [(-m) % p for m in modulus[:e]]
    rows = [tuple(base_row)]
    for _ in range(e - 2):
        prev = rows[-1]
        shifted = [0] + list(prev[: e - 1])
        c = prev[e - 1]
        if c:
            shifted = [(s + c * b) % p for s, b in zip(shifted, base_row)]
        rows.append(tuple(shifted))
    return rows


def _mulmod(a, b, rows, p):
    e = len(a)
    prod = [0] * (2 * e - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    out = prod[:e]
    for k in range(e, 2 * e - 1):
        c = prod[k] % p
        if c:
            row = rows[k - e]
            for j in range(e):
                out[j] += c * row[j]
    # from a list: tuple() of a generator shrinks a fresh 10-slot tuple,
    # and the free list of the final size keeps one per call
    return tuple([v % p for v in out])


def _powmod(a, k, rows, p):
    """a^k for k >= 0, squaring only below the top bit of k and starting
    from the first power taken instead of multiplying 1 by it."""
    result = None
    while k:
        if k & 1:
            result = a if result is None else _mulmod(result, a, rows, p)
        k >>= 1
        if k:
            a = _mulmod(a, a, rows, p)
    return (1,) + (0,) * (len(a) - 1) if result is None else result


def _poly_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _remainder(a, b, mul, inv, add, minus_one):
    """The one division step of the Euclid loops: a mod b, both lists of
    element indices (low degree first, b nonzero and trimmed), with a
    field's `mul`, `inv` and `add` on indices and the index of -1; a is
    overwritten, and the remainder comes back trimmed."""
    s = mul(inv(b[-1]), minus_one)
    db = len(b) - 1
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            c = mul(c, s)
            off = i - db
            for j in range(db):
                if b[j]:
                    a[off + j] = add(a[off + j], mul(c, b[j]))
    return _poly_trim(a[:db])


def _monic_gcd(a, b, mul, inv, add, minus_one):
    """The one Euclid loop: the monic gcd of two polynomials given as lists
    of element indices (low degree first), [] when both are zero, with a
    field's `mul`, `inv` and `add` on indices and the index of -1."""
    a = _poly_trim(list(a))
    b = _poly_trim(list(b))
    while b:
        a, b = b, _remainder(a, b, mul, inv, add, minus_one)
    if a and a[-1] != 1:
        s = inv(a[-1])
        a = [mul(c, s) for c in a]
    return a


def _frobenius_gcds(f, p, first=1):
    """For k = first, first + 1, ..., the monic gcd over GF(p) of the monic f
    (a list of ints mod p, low degree first, of degree at least 2) and
    x^(p^k) - x, the product of f's distinct irreducible factors of degree
    dividing k, with one p-th power of x mod f per k from 1 on."""
    rows = _reduction_rows(f, p)
    mul, inv, add = (lambda a, b: a * b % p), (lambda a: pow(a, -1, p)), (lambda a, b: (a + b) % p)
    x = (0, 1) + (0,) * (len(f) - 3)
    for k in itertools.count(1):
        x = _powmod(x, p, rows, p)
        if k >= first:
            yield _monic_gcd(f, [x[0], (x[1] - 1) % p, *x[2:]], mul, inv, add, p - 1)


def is_irreducible(coeffs, p):
    """Irreducibility over F_p of a monic polynomial given as a coefficient list:
    it is irreducible iff it shares no factor with x^(p^k) - x for any k below
    its degree."""
    coeffs = [c % p for c in coeffs]
    k = len(coeffs) - 1
    if k < 1 or coeffs[-1] != 1:
        return False
    return k == 1 or all(len(g) == 1 for g in itertools.islice(_frobenius_gcds(coeffs, p), k - 1))


def find_irreducible(p, k):
    """Canonical monic irreducible of degree k over F_p.

    Candidates are scanned in increasing order of the coefficient vector read
    as a base-p integer (constant term least significant), so the result is
    the same on every run.  Degree 1 needs no modulus and returns None.
    """
    if k < 1:
        raise ValueError("degree must be >= 1")
    if k == 1:
        return None
    for m in range(p ** k):
        cand = list(_digits(m, p, k)) + [1]
        if is_irreducible(cand, p):
            return cand
    raise AssertionError("unreachable: an irreducible of every degree exists")


class FieldDescriptor:
    """Finite field GF(p^e), presented as F_p[u]/(modulus) for e >= 2."""

    __slots__ = ("p", "e", "modulus", "order", "key", "_red", "_elements",
                 "_log", "_exp", "_zech", "_arith")

    def __init__(self, p, e=1, modulus=None):
        p = int(p)
        e = int(e)
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if e < 1:
            raise ValueError("extension degree must be >= 1")
        if e == 1:
            if modulus is not None:
                raise ValueError("prime fields carry no modulus")
            self.modulus = None
        else:
            if modulus is None:
                modulus = find_irreducible(p, e)
            else:
                modulus = [int(c) % p for c in modulus]
                if len(modulus) != e + 1 or modulus[-1] != 1:
                    raise ValueError("modulus must be monic of degree e")
                if not is_irreducible(modulus, p):
                    raise ValueError("modulus is reducible over the prime field")
            self.modulus = tuple(modulus)
        self.p = p
        self.e = e
        self.order = p ** e
        self.key = (p, e, self.modulus)
        self._red = _reduction_rows(self.modulus or (0, 1), p)
        self._elements = self._log = self._exp = self._zech = self._arith = None
        if self.order <= _TABLE_LIMIT:
            self._build_tables()

    def _build_tables(self):
        """Intern every element, and build three int lists: `_log`, the log
        of each index to the first generator g of the unit group (2(q-1)
        for zero), the antilog list `_exp` (doubled, then padded with zeros
        so that the log of zero absorbs any sum or difference of logs) and
        the Zech list `_zech[k] = log(1 + g^k)` (doubled, so that a negative
        index wraps mod q-1).

        `_exp` walks x -> g x from 1.  g x adds the images under x -> g x of
        the low ceil(e/2) and the high base-p digits of x, which `_mulmod`
        tabulates: XOR for p = 2, else `+` on digit slots, one lookup per
        chunk reducing them mod p."""
        p, e, red = self.p, self.e, self._red
        n = self.order - 1
        # powers on digits, not `**`, which would keep the digit arithmetic
        # of a field without tables; for e > 1 those below p lie in GF(p)
        first = p if e > 1 else 1
        g = _first_of_full_order(range(first, n + 1), n,
                                 lambda a, k: _index(_powmod(_digits(a, p, e), k, red, p), p))
        exp = [1]
        step = exp.append
        if e == 1:
            x = 1
            for _ in range(n - 1):
                x = x * g % p
                step(x)
        else:
            c = (e + 1) // 2
            width = 1 if p == 2 else (2 * (p - 1)).bit_length()
            gd = _digits(g, p, e)

            # g x u^shift for every x of k digits, its digits in slots
            def images(k, shift):
                return [_index(_mulmod(gd, _digits(x * p ** shift, p, e), red, p), 1 << width)
                        for x in range(p ** k)]

            low, high = images(c, 0), images(e - c, c)
            if p == 2:
                mask, x = (1 << c) - 1, 1
                for _ in range(n - 1):
                    x = low[x & mask] ^ high[x >> c]
                    step(x)
            else:
                # fold[s] is the index of the chunk whose digits, mod p, sit
                # in the slots of s; it serves both chunks, the high one
                # having at most c digits
                digit_sums = range(2 * p - 1)
                fold = dict(zip(_spread(digit_sums, c, 1 << width),
                                _spread([d % p for d in digit_sums], c, p)))
                mask, shift, size = (1 << width * c) - 1, width * c, p ** c
                lo, hi = 1, 0
                for _ in range(n - 1):
                    s = low[lo] + high[hi]
                    lo = fold[s & mask]
                    hi = fold[s >> shift]
                    step(lo + size * hi)
        log = [2 * n] * (n + 1)
        for i, j in enumerate(exp):
            log[j] = i
        # 1 + g^k adds 1 to the constant digit of the index of g^k
        self._zech = [log[j - j % p + (j + 1) % p] for j in exp] * 2
        # the antilogs are the elements' own index ints, not the walk's copies
        ints = list(range(n + 1))
        self._log, self._exp = log, [ints[j] for j in exp] * 2 + [0] * (2 * n + 1)
        self._elements = list(map(FieldElement, itertools.repeat(self), ints))

    @property
    def arithmetic(self):
        """The field's one `IndexArithmetic`, built on first use."""
        if self._arith is None:
            # imported here: `arithmetic` reads this module's digit helpers
            from .arithmetic import IndexArithmetic
            self._arith = IndexArithmetic(self)
        return self._arith

    # -- public element constructors -------------------------------------

    def element(self, coeffs):
        cs = tuple(int(c) % self.p for c in coeffs)
        if len(cs) != self.e:
            raise ValueError(f"expected {self.e} coefficients, got {len(cs)}")
        return self.element_from_index(_index(cs, self.p))

    def element_from_index(self, idx):
        if not 0 <= idx < self.order:
            raise ValueError("index out of range")
        if self._elements is not None:
            return self._elements[idx]
        return FieldElement(self, idx)

    def from_int(self, n):
        return self.element_from_index(int(n) % self.p)

    def zero(self):
        return self.element_from_index(0)

    def one(self):
        return self.element_from_index(1)

    def elements(self):
        """All field elements, ordered by coefficient vector read as a base-p
        integer with the constant term least significant."""
        if self._elements is None:
            self._elements = [FieldElement(self, i) for i in range(self.order)]
        return list(self._elements)

    def __eq__(self, other):
        if isinstance(other, FieldDescriptor):
            return self.key == other.key
        return NotImplemented

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.e})"


class RationalField:
    """The rational numbers as a coefficient domain (used by lifts)."""

    p = 0
    e = 1
    modulus = None
    order = None
    key = ("QQ",)
    _arith = None
    arithmetic = FieldDescriptor.arithmetic

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class FieldElement:
    """Element of a FieldDescriptor, stored as its index (the coefficients of
    1, u, ..., u^(e-1) as base-p digits, constant term least significant).
    It does no arithmetic of its own: each operator checks its operand and
    calls the field's `IndexArithmetic` once on the indices, and returns
    the element of the index it gets, interned in a field of order up to
    _TABLE_LIMIT; a - b is a + (-b) and a / b is a * b.inv()."""

    __slots__ = ("field", "idx")

    def __init__(self, field, idx):
        self.field = field
        self.idx = idx

    @property
    def coeffs(self):
        return _digits(self.idx, self.field.p, self.field.e)

    def _operand(self, other):
        """The field, once other is checked to be an element of it."""
        f = self.field
        if not isinstance(other, FieldElement):
            raise TypeError(f"cannot combine FieldElement with {type(other).__name__}")
        if other.field is not f and other.field.key != f.key:
            raise DescriptorMismatch(f"{f!r} vs {other.field!r}")
        return f

    def __add__(self, other):
        f = self._operand(other)
        return f.element_from_index(f.arithmetic.add(self.idx, other.idx))

    def __sub__(self, other):
        self._operand(other)
        return self + -other

    def __mul__(self, other):
        f = self._operand(other)
        return f.element_from_index(f.arithmetic.mul(self.idx, other.idx))

    def __neg__(self):
        f = self.field
        return f.element_from_index(f.arithmetic.neg(self.idx))

    def inv(self):
        if not self.idx:
            raise DivisionByZero("inverse of zero")
        f = self.field
        return f.element_from_index(f.arithmetic.inv(self.idx))

    def __truediv__(self, other):
        self._operand(other)
        return self * other.inv()

    def __pow__(self, n):
        if n < 0:
            return self.inv() ** -n
        f = self.field
        return f.element_from_index(f.arithmetic.power(self.idx, n))

    def __bool__(self):
        return self.idx != 0

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.idx == other.idx and (self.field is other.field
                                              or self.field.key == other.field.key)
        return NotImplemented

    def __hash__(self):
        return hash((self.field.key, self.idx))

    def __str__(self):
        parts = []
        for i in reversed(range(self.field.e)):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                var = "u" if i == 1 else f"u^{i}"
                parts.append(var if c == 1 else f"{c}{var}")
        return "+".join(parts) if parts else "0"

    def __repr__(self):
        return f"{self}::{self.field!r}"


def frobenius(x, power=1):
    """Apply the p-power Frobenius `power` times: x -> x^(p^power)."""
    if power < 1:
        raise ValueError("power must be >= 1")
    return x ** (x.field.p ** power)


def sqrt_char2(x):
    """Square root in characteristic 2 via x -> x^(2^(e-1))."""
    if not isinstance(x, FieldElement) or x.field.p != 2:
        raise WrongCharacteristic("square roots this way exist only in characteristic 2")
    return x ** (2 ** (x.field.e - 1))


def enumerate_projective_points(field, r):
    """Points of P^r over a finite field, one representative each.

    The first nonzero coordinate is normalized to 1 and tuples come out in
    lexicographic order (canonical field order per coordinate, leftmost
    coordinate most significant).
    """
    if r < 0:
        raise ValueError("dimension must be >= 0")
    one = field.one()
    zero = field.zero()
    els = field.elements() if r else ()
    for lead in range(r, -1, -1):
        head = (zero,) * lead + (one,)
        for tail in itertools.product(els, repeat=r - lead):
            yield head + tail


def normalize_projective(point):
    """Scale a nonzero coordinate tuple so its first nonzero entry is 1."""
    for c in point:
        if c:
            if c == c.field.one():
                return tuple(point)
            cinv = c.inv()
            return tuple(x * cinv for x in point)
    raise ValueError("zero tuple is not a projective point")


class FieldEmbedding:
    """Embedding of GF(p^e) into GF(p^E) with e dividing E.

    Determined by the first root of the small modulus in canonical order, so
    repeated runs embed identically.  It maps element indices; `up` and `down`
    convert at that boundary, and `down_index` raises NoSolution off the image.

    The roots are the images of u, so they lie in the copy of GF(q) inside
    the big field and, except for the root 0 of a prime field's modulus u,
    in its unit group: the subgroup of order q - 1 of the big field's units,
    generated by h = x^((Q-1)/(q-1)) for any x for which h has order q - 1.
    The powers of h are scanned up to the first root, and the root of
    smallest index is taken among its e Frobenius conjugates, which are all
    the roots of the irreducible modulus.
    """

    __slots__ = ("small", "big", "root", "_image", "_preimage")

    def __init__(self, small, big):
        if small.p != big.p:
            raise DescriptorMismatch("embeddings require equal characteristic")
        if big.e % small.e:
            raise ValueError(f"GF({small.p}^{small.e}) does not embed in GF({big.p}^{big.e})")
        self.small = small
        self.big = big
        arith = big.arithmetic
        add, mul = arith.add, arith.mul
        # a prime field is F_p[u]/(u), so its root is 0
        root = 0 if small.modulus is None else self._first_root(arith)
        self.root = big.element_from_index(root)
        # the image of every small element, by index: sum of c_i * root^i,
        # built digit by digit, so the image of index c * p^j + r (r < p^j)
        # is that of r plus c * root^j, one addition per element; the
        # integer c < p has the index c
        image, power = [0], 1
        for _ in range(small.e):
            lower = list(image)
            for c in range(1, small.p):
                shift = mul(c, power)
                image += [add(x, shift) for x in lower]
            power = mul(power, root)
        self._image = image
        self._preimage = {y: x for x, y in enumerate(image)}

    def _first_root(self, arith):
        small, big = self.small, self.big
        add, mul, power = arith.add, arith.mul, arith.power
        n = small.order - 1
        h = _first_of_full_order(
            (power(i, (big.order - 1) // n) for i in range(2, big.order)), n, power)
        # the modulus at h^k is its constant term plus one running term
        # c_i h^(k i) for each other nonzero coefficient, advanced by h^i
        terms, steps, x = [], [], 1
        for c in small.modulus[1:]:
            x = mul(x, h)
            if c:
                terms.append(c)
                steps.append(x)
        for k in range(n):
            if not functools.reduce(add, terms, small.modulus[0]):
                root = power(h, k)
                return min(power(root, small.p ** j) for j in range(1, small.e + 1))
            terms = [mul(t, s) for t, s in zip(terms, steps)]
        raise AssertionError("unreachable: the modulus splits in the big field")

    def up(self, x):
        if x.field.key != self.small.key:
            raise DescriptorMismatch("element is not in the small field")
        return self.big.element_from_index(self._image[x.idx])

    def up_index(self, i):
        """The index of the image of the small field's element of index i."""
        return self._image[i]

    def down(self, y):
        if y.field.key != self.big.key:
            raise DescriptorMismatch("element is not in the big field")
        return self.small.element_from_index(self.down_index(y.idx))

    def down_index(self, i):
        """The index of the preimage of the big field's element of index i."""
        x = self._preimage.get(i)
        if x is None:
            raise NoSolution(f"{self.big.element_from_index(i)!r} lies outside the image "
                             f"of {self.small!r}")
        return x


# every descriptor built through this module under its `key`, and the
# canonical one of GF(p^e) also under (p, e)
_DESCRIPTOR_CACHE = {}
_EMBEDDING_CACHE = {}


def get_descriptor(p, e=1):
    """Cached descriptor with the canonical modulus."""
    d = _DESCRIPTOR_CACHE.get((p, e))
    if d is None:
        d = FieldDescriptor(p, e)
        d = _DESCRIPTOR_CACHE[(p, e)] = _DESCRIPTOR_CACHE.setdefault(d.key, d)
    return d


def get_embedding(small, big):
    key = (small.key, big.key)
    emb = _EMBEDDING_CACHE.get(key)
    if emb is None:
        emb = FieldEmbedding(small, big)
        _EMBEDDING_CACHE[key] = emb
    return emb


# -- JSON wire format --------------------------------------------------------

def field_to_json(field):
    if isinstance(field, RationalField):
        return {"p": 0, "e": 1, "modulus": None}
    return {"p": field.p, "e": field.e,
            "modulus": list(field.modulus) if field.modulus else None}


_JSON_KINDS = {int: "an integer", list: "a list", dict: "an object"}


def json_get(obj, key, kind, default=None):
    """obj[key] after checking that obj is a JSON object and that the value
    has the JSON type `kind` (int, list or dict; a boolean is no integer).
    An absent key gives `default` when one is set.  Every failure is a
    ValueError that names the key."""
    if not isinstance(obj, dict):
        raise ValueError(f'expected an object with key "{key}", got {type(obj).__name__}')
    if key not in obj:
        if default is None:
            raise ValueError(f'missing key "{key}"')
        return default
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f'"{key}" must be {_JSON_KINDS[kind]}, got {type(value).__name__}')
    return value


def json_ints(value, key):
    """The value itself if it is a JSON list of integers, else a ValueError
    that names the key."""
    if not (isinstance(value, list)
            and all(isinstance(v, int) and not isinstance(v, bool) for v in value)):
        raise ValueError(f'"{key}" must be a list of integers, got {value!r}')
    return value


def field_from_json(obj):
    p = json_get(obj, "p", int)
    if p == 0:
        return QQ
    e = json_get(obj, "e", int, default=1)
    modulus = obj.get("modulus")
    if modulus is None:
        return get_descriptor(p, e)
    modulus = json_ints(modulus, "modulus")
    d = _DESCRIPTOR_CACHE.get((p, e, tuple(c % p for c in modulus)))
    if d is None:
        d = FieldDescriptor(p, e, modulus)
        d = _DESCRIPTOR_CACHE.setdefault(d.key, d)
    return d


def element_to_json(x):
    if isinstance(x, Fraction):
        return str(x)
    return list(x.coeffs)


def index_from_json(field, data):
    """The index of a coefficient (over Q the Fraction) from its wire form;
    a malformed one is a ValueError that names the "coeff" key."""
    if isinstance(field, RationalField):
        if isinstance(data, str) or (isinstance(data, int) and not isinstance(data, bool)):
            try:
                return Fraction(data)
            except (ValueError, ZeroDivisionError):
                pass
        raise ValueError(f'"coeff" must be a rational number, got {data!r}')
    if len(json_ints(data, "coeff")) != field.e:
        raise ValueError(f'"coeff" over {field!r} needs {field.e} entries, got {data!r}')
    return _index([c % field.p for c in data], field.p)
