"""Sparse homogeneous multivariate forms over a declared coefficient field.

Forms are immutable values: a term map from exponent vectors to the
nonzero coefficients' indices in the field's `IndexArithmetic`, together
with the field, the variable count and the degree; field elements appear
only where a form is built from them, in its `terms` view and in its text
and JSON.
The monomial order is degrevlex with x0 > x1 > ... > xn everywhere; the
Groebner engine shares the same key so certificates never disagree about
leading terms.

Inner loops take a monomial packed into one int (`_Slots`): the exponent of
x_i sits in slot i (x_n in the top slot), and each slot has a guard bit above
the exponent.  A product is `+` and "a divides b" is `(b - a) & guard == 0`.
A linear substitution works on packed terms too (`_compose`), with
element indices for coefficients.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cache, reduce
from math import gcd, lcm

from .errors import (
    DegreeMismatch,
    DependentGenerators,
    DescriptorMismatch,
)
from .fields import (
    element_to_json,
    field_from_json,
    field_to_json,
    index_from_json,
    json_get,
    json_ints,
)


def monomial_key(exps):
    """Sort key realizing degrevlex with x0 > x1 > ... > xn."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


@cache
def _monomials(nvars, degree):
    return tuple(sorted(_compositions(degree, nvars), key=monomial_key, reverse=True))


def monomials_of_degree(nvars, degree):
    """All exponent vectors of the given total degree, leading one first,
    as a new list on each call (the order is worked out once)."""
    if nvars < 1:
        raise ValueError("need at least one variable")
    return list(_monomials(nvars, degree))


class HomogeneousForm:
    """Homogeneous polynomial of fixed degree in nvars variables, its terms
    kept once, in `index_terms`, as a map from exponent tuples to the
    nonzero indices of its field's `IndexArithmetic` (over Q the Fractions
    themselves), on which all of its operations run."""

    # `_terms` and `_primitive`, set on first read of `terms` and of
    # `primitive_integer_terms` (or by `LinearSystemOfForms.member`)
    __slots__ = ("field", "nvars", "degree", "index_terms", "_terms", "_primitive")

    def __init__(self, field, nvars, degree, terms=None):
        """`terms` maps exponent tuples, or is a list of (exponents,
        coefficient) pairs, with coefficients in `field` (over Q also ints);
        one from another field raises DescriptorMismatch."""
        index = field.arithmetic.index
        items = terms.items() if isinstance(terms, dict) else terms or ()
        self.field, self.nvars, self.degree = field, nvars, degree
        self.index_terms = _clean_terms(field, nvars, degree,
                                        [(exps, index(c)) for exps, c in items])

    @classmethod
    def zero(cls, field, nvars, degree):
        return cls(field, nvars, degree)

    @classmethod
    def monomial(cls, field, nvars, exps, coeff=None):
        if coeff is None:
            coeff = field.one()
        return cls(field, nvars, sum(exps), {tuple(exps): coeff})

    # -- structure ---------------------------------------------------------

    def _check(self, other, same_degree=False):
        if self.field != other.field:
            raise DescriptorMismatch(f"{self.field!r} vs {other.field!r}")
        if self.nvars != other.nvars:
            raise DescriptorMismatch("different variable counts")
        if same_degree and self.degree != other.degree:
            raise DegreeMismatch(f"degree {self.degree} vs {other.degree}")

    def __bool__(self):
        return bool(self.index_terms)

    @property
    def terms(self):
        """The terms with field elements (Fractions over Q) as
        coefficients, built from `index_terms` on first read, and not to be
        changed."""
        try:
            return self._terms
        except AttributeError:
            pass
        element = self.field.arithmetic.element
        self._terms = {m: element(c) for m, c in self.index_terms.items()}
        return self._terms

    @property
    def primitive_integer_terms(self):
        """Over Q, the terms scaled by a positive rational to integers with
        no common factor; derived from `index_terms`, and not to be changed."""
        try:
            return self._primitive
        except AttributeError:
            pass
        terms = self.index_terms
        den = lcm(*[c.denominator for c in terms.values()])
        ints = {m: c.numerator * (den // c.denominator) for m, c in terms.items()}
        g = gcd(*ints.values())
        self._primitive = {m: v // g for m, v in ints.items()}
        return self._primitive

    def __eq__(self, other):
        if not isinstance(other, HomogeneousForm):
            return NotImplemented
        return (self.field == other.field and self.nvars == other.nvars
                and self.degree == other.degree and self.index_terms == other.index_terms)

    # -- arithmetic ----------------------------------------------------------

    def _like(self, terms, degree=None):
        """A form over the same field and variables with these index terms."""
        return _raw_form(self.field, self.nvars, self.degree if degree is None else degree, terms)

    def __add__(self, other):
        self._check(other, same_degree=True)
        # 1 is the index of one over every field
        return self._like(self.field.arithmetic.combine([(1, other.index_terms)],
                                                        self.index_terms))

    def __neg__(self):
        neg = self.field.arithmetic.neg
        return self._like({m: neg(c) for m, c in self.index_terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        arith = self.field.arithmetic
        s = arith.index(s)
        return self._like(arith.combine([(s, self.index_terms)]) if s else {})

    def __mul__(self, other):
        self._check(other)
        right = other.index_terms.items()
        return self._like(self.field.arithmetic.combine(
            [(c, {tuple(map(operator.add, m, n)): v for n, v in right})
             for m, c in self.index_terms.items()]), self.degree + other.degree)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers of forms are not defined")
        if not k:
            return HomogeneousForm.monomial(self.field, self.nvars, (0,) * self.nvars)
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def partial_derivative(self, i):
        """Formal partial derivative, by `_partial`; terms whose exponent is
        divisible by the characteristic vanish."""
        if not 0 <= i < self.nvars:
            raise ValueError("variable index out of range")
        return self._like(_partial(self.index_terms, i, self.field), max(self.degree - 1, 0))

    def evaluate(self, point):
        """Exact value at a coordinate tuple over the form's own field, by
        `_evaluate` on indices."""
        point = tuple(point)
        if len(point) != self.nvars:
            raise ValueError("point has the wrong number of coordinates")
        arith = self.field.arithmetic
        (value,) = _evaluate([self.index_terms], tuple(map(arith.index, point)), arith)
        return arith.element(value)

    def substitute_linear(self, matrix):
        """Replace x_i by the linear form given by row i of the matrix."""
        return compose([self], matrix)[0]

    def embed(self, embedding):
        """The same form over the big field; an embedding keeps every
        coefficient nonzero."""
        if self.field != embedding.small:
            raise DescriptorMismatch(f"{self!r} is not over {embedding.small!r}")
        up = embedding.up_index
        return _raw_form(embedding.big, self.nvars, self.degree,
                         {m: up(c) for m, c in self.index_terms.items()})

    def __str__(self):
        if not self.index_terms:
            return "0"
        bits = []
        for exps in sorted(self.terms, key=monomial_key, reverse=True):
            c = self.terms[exps]
            mono = "*".join(f"x{i}^{e}" if e > 1 else f"x{i}"
                            for i, e in enumerate(exps) if e)
            cs = str(c)
            if not mono:
                bits.append(cs)
            elif cs == "1":
                bits.append(mono)
            elif any(ch in cs for ch in "+-/"):
                bits.append(f"({cs})*{mono}")
            else:
                bits.append(f"{cs}*{mono}")
        return " + ".join(bits)

    def __repr__(self):
        return f"<form deg {self.degree} over {self.field!r}: {self}>"


def _clean_terms(field, nvars, degree, items):
    """The index terms of a form from (exponents, index) pairs: exponent
    vectors checked against nvars and degree, repeated monomials added
    and zeros dropped."""
    if nvars < 1:
        raise ValueError("need at least one variable")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    add = field.arithmetic.add
    clean = {}
    for exps, c in items:
        exps = tuple(int(v) for v in exps)
        if len(exps) != nvars or any(v < 0 for v in exps):
            raise ValueError(f"bad exponent vector {exps}")
        if sum(exps) != degree:
            raise DegreeMismatch(
                f"term {exps} has degree {sum(exps)}, form has degree {degree}")
        cur = clean.get(exps)
        v = c if cur is None else add(cur, c)
        if v:
            clean[exps] = v
        elif cur is not None:
            del clean[exps]
    return clean


def _raw_form(field, nvars, degree, index_terms):
    """Form over an already clean index term map, without checks or copying."""
    f = HomogeneousForm.__new__(HomogeneousForm)
    f.field, f.nvars, f.degree, f.index_terms = field, nvars, degree, index_terms
    return f


def _partial(terms, i, field):
    """The partial in x_i of a form, its terms a map from exponent tuples to
    the field's indices, as such a map, empty when it is zero: the one
    derivative on exponent tuples (`groebner._jacobian` takes it on packed
    keys).  The integer e has the index e mod p, and over Q is e itself."""
    mul, p = field.arithmetic.mul, field.p
    return {m[:i] + (m[i] - 1,) + m[i + 1:]: mul(c, e)
            for m, c in terms.items() if (e := m[i] % p if p else m[i])}


def _monomial_values(point, monomials, mul, power):
    """The value of each monomial, an exponent tuple, at the point, a tuple
    of element indices, by a field's `mul` and `power` on indices."""
    values = []
    for exps in monomials:
        v = 1
        for x, e in zip(point, exps):
            if e:
                v = power(x, e) if v == 1 else mul(v, power(x, e))
        values.append(v)
    return values


def _evaluate(forms, point, arith):
    """The value of each of the forms, maps from exponent tuples to element
    indices of the field of `arith` (Fractions over Q), at the point, a
    tuple of such indices: the one evaluation routine, on
    `_monomial_values`."""
    add, mul, power = arith.add, arith.mul, arith.power
    return [reduce(add, map(mul, terms.values(), _monomial_values(point, terms, mul, power)), 0)
            for terms in forms]


class _Slots:
    """Exponent tuples of `nvars` entries packed into ints with slots of
    `width` bits; exponents up to `cap` leave the top bit of a slot clear."""

    def __init__(self, nvars, width):
        self.nvars = nvars
        self.width = width
        self.cap = (1 << (width - 1)) - 1
        self.mask = (1 << width) - 1
        self.ones = sum(1 << (width * i) for i in range(nvars))
        self.guard = self.ones << (width - 1)
        self.top = width * (nvars - 1)
        self.every = (1 << nvars) - 1

    @classmethod
    def for_degree(cls, nvars, degree):
        """Slots with room for twice the given degree."""
        return cls(nvars, (2 * degree).bit_length() + 1)

    def pack(self, terms):
        out = {}
        for exps, c in terms.items():
            key = 0
            for e in reversed(exps):
                key = key << self.width | e
            out[key] = c
        return out

    def exponents(self, key):
        w, mask = self.width, self.mask
        # from a list: tuple() of a generator shrinks a fresh 10-slot tuple,
        # and the free list of the final size keeps one per call
        return tuple([key >> (w * i) & mask for i in range(self.nvars)])

    def unpack(self, terms):
        return {self.exponents(key): c for key, c in terms.items()}

    def degree(self, key):
        """Sum of the slots, read from the top slot of key * ones; exact
        while it is below 2^width, so for the lcm of two keys of degree
        <= cap."""
        return key * self.ones >> self.top & self.mask

    def lcm(self, a, b):
        ge = ((a | self.guard) - b) & self.guard      # guard bit where a_i >= b_i
        return b ^ ((a ^ b) & (ge - (ge >> (self.width - 1))))

    def covered(self, key):
        """Bit mask of the variables whose pure powers the key holds: bit i
        for x_i^e with e > 0, every bit for the constant 0, else 0.  The
        top nonzero bit lies in the slot of the last variable present, so
        the key is a pure power exactly when nothing lies below that slot."""
        if not key:
            return self.every
        i = (key.bit_length() - 1) // self.width
        return 0 if key & ((1 << self.width * i) - 1) else 1 << i


def compose(forms, matrix):
    """The forms, all over one field in the same variables, with x_i
    replaced by the linear form given by row i of the matrix; runs
    `_compose` on element indices."""
    arith = forms[0].field.arithmetic
    slots = _Slots.for_degree(forms[0].nvars, max(f.degree for f in forms))
    images = _compose([slots.pack(f.index_terms) for f in forms],
                      [list(map(arith.index, row)) for row in matrix], slots, arith)
    return [f._like(slots.unpack(h)) for f, h in zip(forms, images)]


def _compose(packed_gens, rows, slots, arith):
    """The packed generators, their coefficients element indices of the
    field of `arith`, with x_i replaced by the linear form of row i of a
    square matrix of size nvars, given by its rows of element indices.  The
    image of x_i is the linear form of row i, and that of each other
    monomial m = x_i r is worked out once for all generators, as one
    `combine` of the image of r times each variable of row i (its keys
    moved by that variable's key), scaled by the row.  x_i is the first
    variable of m for which the image of r is already made, else m's first
    variable, so that few images are made.  A permutation matrix only
    moves exponents."""
    if len(rows) != slots.nvars or any(len(r) != slots.nvars for r in rows):
        raise ValueError("a substitution matrix must be square of size nvars")
    combine = arith.combine
    w = slots.width
    mask = (1 << w) - 1
    units = [1 << (w * k) for k in range(slots.nvars)]
    linear = [{units[k]: c for k, c in enumerate(row) if c} for row in rows]
    # for a row that is one variable with coefficient one, that variable's key
    single = [next(iter(row)) if list(row.values()) == [1] else None for row in linear]
    if None not in single and len(set(single)) == len(single):
        # the exponent of each x_i moves to the slot of the variable of row i
        return [{sum((m >> (w * i) & mask) * b for i, b in enumerate(single)): c
                 for m, c in g.items()} for g in packed_gens]
    images = {0: {0: 1}, **dict(zip(units, linear))}

    def image(m):
        got = images.get(m)
        if got is None:
            for i, u in enumerate(units):
                if m >> (w * i) & mask and m - u in images:
                    break
            else:
                i = ((m & -m).bit_length() - 1) // w
            terms = image(m - units[i]).items()
            got = images[m] = combine([(c, {k + u: v for k, v in terms})
                                       for u, c in linear[i].items()])
        return got

    return [combine([(c, image(m)) for m, c in g.items()]) for g in packed_gens]


class LinearSystemOfForms:
    """Linear system spanned by r+1 independent homogeneous generators."""

    __slots__ = ("field", "nvars", "degree", "generators", "_monomials", "_rows", "_den")

    def __init__(self, generators):
        gens = tuple(generators)
        if not gens:
            raise ValueError("at least one generator required")
        first = gens[0]
        for g in gens[1:]:
            first._check(g, same_degree=True)
        if any(not g for g in gens):
            raise DependentGenerators("zero generator")
        self.field = first.field
        self.nvars = first.nvars
        self.degree = first.degree
        self.generators = gens
        self._monomials, self._rows = _index_rows(gens)
        if len(self.field.arithmetic.rref(self._rows, len(self._monomials))[1]) != len(gens):
            raise DependentGenerators("generators are linearly dependent")
        # over Q the rows become integer numerators over one denominator
        self._den = None
        if not self.field.p:
            den = self._den = lcm(*[c.denominator for row in self._rows for c in row.values()])
            self._rows = [{k: c.numerator * (den // c.denominator) for k, c in row.items()}
                          for row in self._rows]

    @property
    def dim(self):
        """Projective dimension r (one less than the generator count)."""
        return len(self.generators) - 1

    def member(self, coeffs):
        """sum_i coeffs[i] * G_i, one `IndexArithmetic.combine` of the
        generators' index rows.  Over Q the coefficients are scaled to one
        denominator and combine the integer rows, and the member carries its
        `primitive_integer_terms`."""
        coeffs = tuple(coeffs)
        if len(coeffs) != len(self.generators):
            raise ValueError("one coefficient per generator required")
        arith = self.field.arithmetic
        monomials = self._monomials
        coeffs = list(map(arith.index, coeffs))
        if self._den is None:
            terms = arith.combine([(a, row) for a, row in zip(coeffs, self._rows) if a])
            return _raw_form(self.field, self.nvars, self.degree,
                             {monomials[k]: v for k, v in terms.items()})
        den = lcm(*[a.denominator for a in coeffs])
        acc = {}
        get = acc.get
        for a, row in zip(coeffs, self._rows):
            if a:
                s = a.numerator * (den // a.denominator)
                for k, v in row.items():
                    acc[k] = get(k, 0) + s * v
        acc = {monomials[k]: v for k, v in acc.items() if v}
        den *= self._den
        form = _raw_form(self.field, self.nvars, self.degree,
                         {m: Fraction(v, den) for m, v in acc.items()})
        g = gcd(*acc.values())
        form._primitive = {m: v // g for m, v in acc.items()}
        return form

    def __repr__(self):
        return (f"<system of {len(self.generators)} forms, deg {self.degree}, "
                f"P^{self.nvars - 1} over {self.field!r}>")


def _index_rows(forms):
    """The forms' monomials in order of first use, and each form's
    coefficients as a sparse row of element indices over them."""
    column = {}
    rows = [{column.setdefault(m, len(column)): c for m, c in f.index_terms.items()}
            for f in forms]
    return list(column), rows


def random_element(field, rng):
    return field.element_from_index(rng.randrange(field.order))


def random_form(field, nvars, degree, rng):
    """Uniformly random nonzero form (coefficients independent per monomial)."""
    monos = monomials_of_degree(nvars, degree)
    while True:
        terms = {m: c for m in monos if (c := rng.randrange(field.order))}
        if terms:
            return _raw_form(field, nvars, degree, terms)


def random_system(field, nvars, degree, count, rng, max_tries=10000):
    """Random linear system with `count` independent generators."""
    gens = []
    for _ in range(max_tries):
        cand = random_form(field, nvars, degree, rng)
        try:
            system = LinearSystemOfForms(gens + [cand])
        except DependentGenerators:
            continue
        gens.append(cand)
        if len(gens) == count:
            return system
    raise RuntimeError("could not sample an independent system")


# -- JSON wire format --------------------------------------------------------

def form_to_json(form):
    terms = [{"exps": list(exps), "coeff": element_to_json(form.terms[exps])}
             for exps in sorted(form.terms, key=monomial_key, reverse=True)]
    return {"field": field_to_json(form.field), "nvars": form.nvars,
            "degree": form.degree, "terms": terms}


def form_from_json(obj):
    field = field_from_json(json_get(obj, "field", dict))
    terms = []
    for t in json_get(obj, "terms", list):
        exps = json_ints(json_get(t, "exps", list), "exps")
        terms.append((tuple(exps), index_from_json(field, t.get("coeff"))))
    nvars, degree = json_get(obj, "nvars", int), json_get(obj, "degree", int)
    return _raw_form(field, nvars, degree, _clean_terms(field, nvars, degree, terms))


def system_to_json(system):
    return {"field": field_to_json(system.field), "nvars": system.nvars,
            "degree": system.degree,
            "generators": [form_to_json(g) for g in system.generators]}


def system_from_json(obj):
    gens = [form_from_json(g) for g in json_get(obj, "generators", list)]
    system = LinearSystemOfForms(gens)
    if (system.nvars != json_get(obj, "nvars", int)
            or system.degree != json_get(obj, "degree", int)
            or field_to_json(system.field) != json_get(obj, "field", dict)):
        raise ValueError("system header disagrees with its generators")
    return system
