"""Buchberger engine over exact coefficient fields, and the projective
emptiness certificate used to prove smoothness.

The order is fixed to degrevlex with x0 > ... > xn (shared with multipoly);
there is deliberately no order parameter.  A homogeneous ideal I cuts out the
empty set in P^n exactly when LT(I) holds a pure power of every variable:
then k[x]/I is finite-dimensional and the only affine zero is the origin.

`buchberger` runs the loop to the end and returns the reduced basis.
`certificate_basis` runs the same loop but returns the elements built so far
as soon as every variable has a pure-power leading monomial among them, which
is usually a small fraction of the full run; when that never happens it
finishes and returns the reduced basis, which then decides emptiness.

Inside a run a monomial is one int, packed by `multipoly._Slots`.  A run
takes homogeneous input, so every polynomial in it is homogeneous, and the
degrevlex leader of a polynomial is its smallest key, `min(terms)`.  No
degree in a run may reach a guard bit: a pair whose S-polynomial would is
caught before it is formed, and the run starts over with twice the slot
width.  The public functions take and return exponent tuples.

Every element of a run is monic, over a finite field and over Q alike: the
inputs and each new element are scaled once by the inverse of their leading
coefficient.  An S-polynomial is then the difference of two shifted elements,
and a reduction step adds the divisor's other terms times minus the reducee's
coefficient, so the loop itself never divides.  A coefficient inside a run
is the element's index, and over Q the Fraction itself; a run has two
coefficient kinds.  Over a prime field GF(p) an index is a plain int in
[0, p), which in `_reduce_full`, the one reduction loop, grows without
reduction and is taken mod p when it is read.  Over every other field a
step calls the field's `IndexArithmetic` (`add` and `mul` on indices, on
logs in a tabled GF(p^e)), and so does `_make_monic`, one `combine`;
`_s_poly` is one `combine` over every field.  `normal_form` and
`s_polynomial` take the indices of the given coefficients.

The keys of one degree are ranked once per slot width, in ascending order
(`_rank_table`), and a polynomial being reduced is a list indexed by rank:
an S-polynomial is written into it as the two shifted tails, and the walk
goes up the list, as in the row picture of Faugere's F4 (J. Pure Appl.
Algebra 139, 1999) taken one S-pair at a time.  A run remembers, for every
monomial it has reduced, the first element whose leader divides it and that
element's tail shifted onto it, as a row of (rank, coefficient) pairs, so a
reduction step is a list multiply-add.  A degree with more than
`_TABLE_BOUND` monomials has no table, and its polynomials are reduced as
dicts whose keys are popped from a heap, as in the division of Monagan and
Pearce (J. Symb. Comput. 46, 2011); see `_reduce_full`.

Field elements stay at the boundary of a run, whose input is the field's
element indices for every finite field and `Fraction`s over Q: `_groebner`
and `smoothness` take a form's indices when they pack it, `_jacobian`
differentiates on the packed keys and indices, and `certify_combinations`
combines packed index rows.  No run builds a FieldElement: a basis from a
run unpacks its elements, through `element_from_index`, only when they are
first read, and a run that ends without its pure-power stop builds the
minimal, tail-reduced basis only then too (see `GroebnerBasis`), so a
caller that asks only whether the stop fired never builds it.  A run that
outgrows its slots unpacks and repacks its generators.

A pair is popped in normal selection order and skipped, without forming its
S-polynomial, when the leaders are coprime (the product criterion) or when a
third element's leader divides the pair's lcm and neither of its pairs with
the two is still pending (Buchberger's chain criterion).  The step budget
counts popped pairs, skipped ones included.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from heapq import heapify, heappop, heappush
from itertools import compress, islice
from math import comb

from .errors import BudgetExceeded, NotHomogeneous
from .fields import element_to_json, field_to_json
from .multipoly import HomogeneousForm, _Slots, monomial_key
from .records import Record

DEFAULT_STEP_BUDGET = 1_000_000

# the most monomials of one degree that get a rank table: a dense walk costs
# a list of that many slots per S-pair, and a table about 110 bytes a slot
_TABLE_BOUND = 1 << 13
# (nvars, slot width, degree) -> `_rank_table`, never changed once built
_rank_tables = {}
# the longest walk that reads every slot: `compress` costs about 0.25 us to
# set up and saves about 25 ns a zero slot
_SHORT_WALK = 32


class _SlotOverflow(Exception):
    """A pair's S-polynomial would have degree above the slot cap."""


def _terms_of(f):
    if isinstance(f, HomogeneousForm):
        return dict(f.terms)
    return dict(f)


def _lead(terms):
    return max(terms, key=monomial_key)


def _degree(terms):
    """The common degree of a nonzero term dict; NotHomogeneous otherwise."""
    degrees = {sum(m) for m in terms}
    if len(degrees) > 1:
        raise NotHomogeneous("Groebner computations require homogeneous polynomials")
    return degrees.pop()


def _make_monic(terms, arith):
    """Packed terms scaled so that the leading coefficient is 1, with the
    leading term first (`_reduce_full` skips it): ints mod p over GF(p),
    and over any other field one `combine` of the field's arithmetic."""
    lm = min(terms)
    lc = terms[lm]
    if next(iter(terms)) != lm:
        terms = {lm: lc, **terms}
    if lc == 1:
        return terms
    inv, p = arith.inv(lc), arith.int_mod
    return {m: c * inv % p for m, c in terms.items()} if p else arith.combine([(inv, terms)])


def _rank_table(slots, degree):
    """(keys, ranks): the keys of the degree in ascending order and the map
    from key to rank, built once for every run with the same slots; None
    when the degree has more than `_TABLE_BOUND` monomials."""
    name = slots.nvars, slots.width, degree
    table = _rank_tables.get(name, False)
    if table is False:
        table = None
        if comb(degree + slots.nvars - 1, degree) <= _TABLE_BOUND:
            # degree d -> the keys of degree d in x_0, ..., x_i, ascending:
            # the exponent of x_i, in the top slot, counts up; the last
            # variable needs the degree itself only
            keys = {d: [d] for d in range(degree + 1)}
            for i in range(1, slots.nvars):
                unit = 1 << (slots.width * i)
                keys = {d: [e * unit + k for e in range(d + 1) for k in keys[d - e]]
                        for d in range(degree if i == slots.nvars - 1 else 0, degree + 1)}
            keys = keys[degree]
            table = keys, {k: r for r, k in enumerate(keys)}
        _rank_tables[name] = table
    return table


def _walk_table(slots, degree):
    """The table `_reduce_full` walks at the degree in one run: the rank
    table with a fresh list of reducer rows, or () above the bound."""
    # the shared table read here, not through a call: small runs fetch
    # a table for almost every S-pair they reduce
    table = _rank_tables.get((slots.nvars, slots.width, degree), False)
    if table is False:
        table = _rank_table(slots, degree)
    if not table:
        return ()
    keys, ranks = table
    return keys, ranks, [None] * len(keys)


def _reduce_full(work, start, gens, lms, guard, arith, divisor, table):
    """Full remainder of multivariate division of packed homogeneous `work`
    by `gens` (packed, homogeneous and monic, with leading keys `lms`, each
    leading term first), with the indices of the field of `arith` as
    coefficients (Fractions over Q); consumes `work`.  The remainder lists
    its terms in ascending key order, so a nonzero remainder has its
    leading term first.

    The walk reads the keys of `work` in ascending order, which is
    degrevlex order from the top.  A step at the key m with coefficient c
    subtracts c times the other terms of the first element g whose leader
    divides m, shifted by m - LM(g); their keys are all above m, and g's
    leading term, which would only cancel c, is skipped.  Over GF(p)
    (`arith.int_mod`) a coefficient is an int that grows without reduction
    and is taken mod p when its key is read; over any other field a step
    adds -c times each term with the arithmetic's `add` and `mul`.  The
    loop is picked once per call.  A coefficient that is zero when read is
    dropped.

    `divisor` maps a key to the index of that first element, or to ~n when
    none of the first n elements divides it, and the search for the key
    resumes from there; one map serves every call on elements that only
    grow by appending, as in `_run`.

    `table` is the run's `_walk_table` at the degree of `work`.  With a
    rank table, `work` is a list indexed by rank that holds 0 up to
    `start`, and the walk goes up the list from `start`; past `_SHORT_WALK`
    slots it skips zeros at C speed, with `compress` over a live iterator
    of the list.  The step at a key is cached in the table's rows as the
    divisor's shifted tail, (rank, coefficient) pairs, so that a
    step is a list multiply-add; a run's elements only grow by appending,
    so a row, like the divisor map, serves every call of the run.  With
    the empty table, above the bound, `work` is a dict whose keys are
    popped from a heap.
    """
    n = len(lms)
    p, add, mul, neg = arith.int_mod, arith.add, arith.mul, arith.neg
    rem = {}

    def tail(m, r=None):
        """The tail of the first element whose leader divides m, shifted
        onto m, as (key, coefficient) pairs, or, given m's rank r, as the
        (rank, coefficient) pairs of its row; None when none does."""
        k = divisor.get(m, -1)
        if k < 0:
            k = ~k
            while k < n and (m - lms[k]) & guard:
                k += 1
            divisor[m] = k if k < n else ~n
        if k == n:
            return None
        shift = m - lms[k]
        terms = iter(gens[k].items())
        next(terms)
        if r is None:
            return [(t + shift, gc) for t, gc in terms]
        row = rows[r] = [(ranks[t + shift], gc) for t, gc in terms]
        return row

    if not table:
        heap = list(work)
        heapify(heap)
        while heap:
            lm = heappop(heap)
            c = work.pop(lm)
            if not c:
                continue
            row = tail(lm)
            if row is None:
                rem[lm] = c
                continue
            c = neg(c)
            for m, gc in row:
                cur = work.get(m)
                if cur is None:
                    heappush(heap, m)
                    work[m] = mul(c, gc)
                else:
                    work[m] = add(cur, mul(c, gc))
        return rem
    keys, ranks, rows = table
    walk = range(start, len(work))
    if len(walk) > _SHORT_WALK:
        walk = compress(walk, islice(work, start, None))
    if p:
        for r in walk:
            c = work[r] % p
            if c:
                row = rows[r]
                if row is None and (divisor.get(keys[r]) == ~n
                                    or (row := tail(keys[r], r)) is None):
                    rem[keys[r]] = c
                    continue
                for t, gc in row:
                    work[t] -= c * gc
        return rem
    for r in walk:
        c = work[r]
        if c:
            row = rows[r]
            if row is None and (divisor.get(keys[r]) == ~n
                                or (row := tail(keys[r], r)) is None):
                rem[keys[r]] = c
                continue
            c = neg(c)
            for t, gc in row:
                work[t] = add(work[t], mul(c, gc))
    return rem


def _remainder(terms, gens, lms, slots, arith, divisor, tables):
    """`_reduce_full` of a nonzero packed homogeneous term map, with the
    run's tables by degree in `tables`."""
    degree = slots.degree(next(iter(terms)))
    table = tables.get(degree)
    if table is None:
        table = tables[degree] = _walk_table(slots, degree)
    if not table:
        return _reduce_full(terms, 0, gens, lms, slots.guard, arith, divisor, table)
    ranks = table[1]
    work = [0] * len(ranks)
    for m, c in terms.items():
        work[ranks[m]] = c
    return _reduce_full(work, ranks[min(terms)], gens, lms, slots.guard, arith, divisor, table)


def _s_poly(f, lf, g, lg, l, arith):
    """S-polynomial of two packed monic polynomials, by one `combine` of
    the field's arithmetic `arith`."""
    return arith.combine([(1, {m + l - lf: c for m, c in f.items()}),
                          (arith.neg(1), {m + l - lg: c for m, c in g.items()})])


def _s_row(f, lf, g, lg, l, ranks, arith):
    """The S-polynomial of two packed monic polynomials of a run, as the
    list by rank of a `_reduce_full` walk; the two leading terms at l
    cancel and are left out."""
    work = [0] * len(ranks)
    terms = iter(f.items())
    next(terms)
    shift = l - lf
    for m, c in terms:
        work[ranks[m + shift]] = c
    terms = iter(g.items())
    next(terms)
    shift = l - lg
    if arith.int_mod:
        for m, c in terms:
            work[ranks[m + shift]] -= c
    else:
        add, neg = arith.add, arith.neg
        for m, c in terms:
            r = ranks[m + shift]
            work[r] = add(work[r], neg(c))
    return work


def normal_form(f, basis, field=None):
    """Remainder of f under multivariate division by the basis.

    No monomial of the result is divisible by a leading monomial of the
    basis, and f minus the result lies in the generated ideal.  The basis
    must be homogeneous; f need not be, and each of its homogeneous
    components is reduced on its own.
    """
    if isinstance(basis, GroebnerBasis):
        gens = [dict(t) for t in basis.elements]
        field = basis.field if field is None else field
    else:
        gens = []
        for g in basis:
            if isinstance(g, HomogeneousForm) and field is None:
                field = g.field
            t = _terms_of(g)
            if t:
                gens.append(t)
    if field is None and isinstance(f, HomogeneousForm):
        field = f.field
    if field is None:
        raise ValueError("coefficient field could not be inferred")
    terms = _terms_of(f)
    if not terms:
        return {}
    arith = field.arithmetic
    index = arith.index
    components = {}
    for m, c in terms.items():
        components.setdefault(sum(m), {})[m] = index(c)
    slots = _Slots.for_degree(len(next(iter(terms))),
                              max([*components, *(_degree(g) for g in gens)]))
    gens = [_make_monic(slots.pack({m: index(c) for m, c in g.items()}), arith) for g in gens]
    lms = [min(g) for g in gens]
    divisor, tables = {}, {}
    rem = {}
    for d in sorted(components, reverse=True):
        rem.update(_remainder(slots.pack(components[d]), gens, lms, slots, arith, divisor, tables))
    return _read(field, slots, rem)


def s_polynomial(f, g, field):
    """S-polynomial of two homogeneous term dicts, each scaled by the
    inverse of its leading coefficient."""
    arith = field.arithmetic
    slots = _Slots.for_degree(len(next(iter(f))), _degree(f) + _degree(g))
    f, g = [_make_monic(slots.pack({m: arith.index(c) for m, c in t.items()}), arith)
            for t in (f, g)]
    lf, lg = min(f), min(g)
    return _read(field, slots, _s_poly(f, lf, g, lg, slots.lcm(lf, lg), arith))


class GroebnerBasis(Record):
    """Elements of a homogeneous ideal under the fixed degrevlex order.

    Every element is monic.  From `buchberger` this is the reduced Groebner
    basis: no leading monomial divides any monomial of another element.
    From `certificate_basis` it may instead be the monic elements built up to
    the pure-power stop, which generate the ideal and hold a pure-power
    leading monomial for every variable, but are neither reduced nor a
    Groebner basis.

    A basis from a run keeps its slots and packed elements, which `elements`
    unpacks on first read; a reduced basis is also built only then, from
    the finished run (see `_run`).  Equality, hash and repr read
    `elements`.
    """

    __slots__ = ("field", "nvars", "_elements", "_packed")
    _names = ("field", "nvars", "elements")

    def __init__(self, field, nvars, elements):
        self.field = field
        self.nvars = nvars
        self._elements = elements
        self._packed = None

    @property
    def elements(self):
        if self._packed is not None:
            slots, packed = self._packed
            if callable(packed):
                packed = packed()
            element = self.field.element_from_index if self.field.p else None
            self._elements, self._packed = tuple([
                {slots.exponents(m): element(c) if element else c for m, c in t.items()}
                for t in packed]), None
        return self._elements

    @property
    def leading_monomials(self):
        return tuple(_lead(t) for t in self.elements)


def _read(field, slots, terms):
    """Packed terms on run coefficients as a map from exponent tuples to
    elements, read as `GroebnerBasis.elements` reads a run's elements."""
    basis = GroebnerBasis(field, slots.nvars, None)
    basis._packed = slots, [terms]
    return basis.elements[0]


def _run(basis, arith, slots, step_budget, stop):
    """The Buchberger loop on packed, monic, homogeneous generators, with
    the indices of the field of `arith` as coefficients (Fractions over Q).

    Pairs are processed by normal selection (minimal lcm degree first, ties
    by index).  A popped pair is skipped by the product criterion (coprime
    leaders) or by Buchberger's chain criterion: some third element's leader
    divides the pair's lcm and neither of its pairs with the two is still
    pending.  `step_budget` bounds the pairs popped, skipped ones included.
    With `stop` the elements built so far are returned as soon as every
    variable has a pure-power leading monomial among them (or a constant
    turns up); otherwise, and when that never happens, the reduced basis is
    returned, as a function of no arguments that builds it (`_reduced`):
    a caller that only asks whether the stop fired never pays for it.
    Returns (elements, whether the stop fired); when it did not, no leader
    of the run, so none of the reduced basis, covers every variable.
    """
    guard, cap, lcm, degree = slots.guard, slots.cap, slots.lcm, slots.degree
    lms = [min(g) for g in basis]
    # key -> its first divisor among the elements, and degree -> the
    # table walked at that degree, see `_reduce_full`
    divisor, tables = {}, {}
    covered = 0

    def covers_all(lm):
        nonlocal covered
        covered |= slots.covered(lm)
        return covered == slots.every

    if stop and any([covers_all(lm) for lm in lms]):
        return basis, True
    # the pairs in the heap, as (smaller index, larger index)
    heap, pending = [], set()

    def chained(i, j, l):
        for k, lk in enumerate(lms):
            if (not (l - lk) & guard and k != i and k != j
                    and (min(i, k), max(i, k)) not in pending
                    and (min(j, k), max(j, k)) not in pending):
                return True
        return False

    for j in range(len(basis)):
        for i in range(j):
            heappush(heap, (degree(lcm(lms[i], lms[j])), i, j))
            pending.add((i, j))

    steps = 0
    while heap:
        d, i, j = heappop(heap)
        pending.remove((i, j))
        steps += 1
        if steps > step_budget:
            raise BudgetExceeded(f"pair budget {step_budget} exhausted")
        li, lj = lms[i], lms[j]
        l = lcm(li, lj)
        if l == li + lj or chained(i, j, l):
            continue
        if d > cap:
            raise _SlotOverflow
        table = tables.get(d)
        if table is None:
            table = tables[d] = _walk_table(slots, d)
        if table:
            ranks = table[1]
            work, start = _s_row(basis[i], li, basis[j], lj, l, ranks, arith), ranks[l] + 1
        else:
            work, start = _s_poly(basis[i], li, basis[j], lj, l, arith), 0
        r = _reduce_full(work, start, basis, lms, guard, arith, divisor, table)
        if r:
            r = _make_monic(r, arith)
            lm = min(r)
            basis.append(r)
            lms.append(lm)
            if stop and covers_all(lm):
                return basis, True
            k = len(basis) - 1
            for t in range(k):
                heappush(heap, (degree(lcm(lms[t], lm)), t, k))
                pending.add((t, k))

    return partial(_reduced, basis, lms, slots, arith, divisor, tables), False


def _reduced(basis, lms, slots, arith, divisor, tables):
    """The reduced basis of the ideal of a finished run, from the run's
    elements, leaders, divisor map and tables, as packed elements."""
    guard, degree = slots.guard, slots.degree
    # minimal basis: keep elements whose leading monomial no other kept
    # element's leading monomial divides (ascending degrevlex, ties by index)
    keep = []
    for k in sorted(range(len(basis)), key=lambda k: (degree(lms[k]), -lms[k])):
        if all((lms[k] - lms[m]) & guard for m in keep):
            keep.append(k)
    kept = [basis[k] for k in keep]
    klms = [lms[k] for k in keep]

    # tail reduction: no kept leader divides another, so a kept element
    # keeps its leading term, and its tail, of its degree, holds no multiple
    # of its own leader.  The elements of the run form a Groebner basis, and
    # a monomial is divisible by one of their leaders exactly when it is by
    # a kept one, so the run's elements reduce the tail, with the run's
    # divisor map and rows, to the tail of the unique reduced basis element
    for i, lm in enumerate(klms):
        tail = dict(kept[i])
        one = tail.pop(lm)
        if tail:
            kept[i] = {lm: one, **_remainder(tail, basis, lms, slots, arith, divisor, tables)}
    return kept


def _jacobian(terms, slots, field):
    """[F, dF/dx0, ..., dF/dxn], a zero partial empty, for a nonzero
    homogeneous packed term map F in the slots, with the field's indices as
    coefficients (`Fraction`s over Q), each partial's terms in F's order.
    The exponent of x_i is read from slot i of a key, and the key moves
    down one unit of that slot; a partial multiplies by the exponent with
    the field's `mul`, as e mod p, the index of e, or as `Fraction(e)`."""
    p, w, mask, mul = field.p, slots.width, slots.mask, field.arithmetic.mul
    scalar = [e % p if p else Fraction(e) for e in range(slots.degree(next(iter(terms))) + 1)]
    partials = []
    for i in range(slots.nvars):
        shift = w * i
        unit = 1 << shift
        partials.append({m - unit: v for m, c in terms.items()
                         if (e := m >> shift & mask) and (v := mul(c, scalar[e]))})
    return [terms, *partials]


def _packed_run(gens, slots, field, step_budget, stop):
    """`_run` on generators packed in the slots: homogeneous and nonzero,
    with the field's indices as coefficients (`Fraction`s over Q), which it
    makes monic.  Whenever a run would overflow the slots, the generators
    are unpacked and packed again with twice the slot width, and the run
    starts over.  Returns (slots, elements as `_run` returns them, whether
    the stop fired)."""
    arith = field.arithmetic
    gens = [_make_monic(g, arith) for g in gens]
    while True:
        try:
            return (slots, *_run(list(gens), arith, slots, step_budget, stop))
        except _SlotOverflow:
            wide = _Slots(slots.nvars, 2 * slots.width)
            gens = [wide.pack(slots.unpack(g)) for g in gens]
            slots = wide


def certify_combinations(rows, field, slots):
    """Projective emptiness of the ideals of linear combinations of rows.

    `rows` holds one list of term maps per summand, all lists of the same
    length, packed in the slots with the field's indices as coefficients
    (`Fraction`s over Q), as `_jacobian` gives them.  The returned function
    takes coefficients (a_0, a_1, ...) in the field and says whether the
    nonzero ones among the forms sum_i a_i rows[i][k], in order of k,
    generate an ideal with empty zero set in P^n.  It runs the loop of
    `certificate_basis` on them, which decides the answer by whether its
    pure-power stop fires, and so agrees with `is_projectively_empty` of
    that basis; when every combined form is zero the answer is False.  Each
    call combines the rows on the packed keys with `combine`.
    """
    combine = field.arithmetic.combine
    columns = list(zip(*rows))

    def certify(coeffs):
        scale = [a.idx for a in coeffs] if field.p else coeffs
        forms = [f for parts in columns
                 if (f := combine([(a, terms) for a, terms in zip(scale, parts) if a]))]
        return _packed_run(forms, slots, field, DEFAULT_STEP_BUDGET, True)[2]

    return certify


def _groebner(generators, field, nvars, step_budget, stop):
    """The basis of `buchberger` or, with `stop`, of `certificate_basis`,
    and whether the pure-power stop fired, which with `stop` is the answer
    of `is_projectively_empty` on that basis."""
    gens = []
    for g in generators:
        if isinstance(g, HomogeneousForm):
            if field is None:
                field = g.field
            if nvars is None:
                nvars = g.nvars
        t = _terms_of(g)
        if t:
            gens.append(t)
    if not gens:
        raise ValueError("need at least one nonzero generator")
    if field is None:
        raise ValueError("coefficient field could not be inferred")
    if nvars is None:
        nvars = len(next(iter(gens[0])))
    if field.p:
        gens = [{m: c.idx for m, c in g.items()} for g in gens]
    slots = _Slots.for_degree(nvars, max(_degree(g) for g in gens))
    return _run_basis([slots.pack(g) for g in gens], field, slots, step_budget, stop)


def _run_basis(gens, field, slots, step_budget, stop):
    """`_groebner` on nonzero homogeneous term maps packed in the slots,
    with the field's indices as coefficients (`Fraction`s over Q)."""
    basis = GroebnerBasis(field, slots.nvars, None)
    slots, elements, stopped = _packed_run(gens, slots, field, step_budget, stop)
    basis._packed = slots, elements
    return basis, stopped


def buchberger(generators, field=None, nvars=None, step_budget=DEFAULT_STEP_BUDGET):
    """Reduced Groebner basis of the ideal generated by homogeneous inputs.

    Output is deterministic for a given input sequence, and in fact
    canonical: the reduced basis is unique for the fixed order.
    `step_budget` bounds the number of pairs popped.
    """
    return _groebner(generators, field, nvars, step_budget, False)[0]


def certificate_basis(generators, field=None, nvars=None, step_budget=DEFAULT_STEP_BUDGET):
    """The elements that decide projective emptiness of the ideal.

    Runs the loop of `buchberger` and returns the elements built so far as
    soon as every variable has a pure-power leading monomial among them
    (then the ideal is projectively empty), or else the reduced basis.
    Either way `is_projectively_empty` reads the answer off the result.
    """
    return _groebner(generators, field, nvars, step_budget, True)[0]


def is_projectively_empty(basis):
    """Whether the homogeneous ideal of the basis has empty zero set in P^n.

    True when every variable contributes a pure-power leading monomial
    (equivalently the affine zero set is the origin alone); for the reduced
    basis this is also necessary.
    """
    covered = [False] * basis.nvars
    for terms in basis.elements:
        _degree(terms)
        lm = _lead(terms)
        nz = [i for i, e in enumerate(lm) if e]
        if not nz:
            return True
        if len(nz) == 1:
            covered[nz[0]] = True
    return all(covered)


def basis_to_json(basis):
    elements = []
    for terms in basis.elements:
        elements.append([
            {"exps": list(m), "coeff": element_to_json(terms[m])}
            for m in sorted(terms, key=monomial_key, reverse=True)])
    return {"field": field_to_json(basis.field), "nvars": basis.nvars,
            "order": "degrevlex", "elements": elements}
