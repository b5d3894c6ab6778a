"""Jacobian-criterion smoothness decisions, the base-point truncation map,
and constructive singular-member extraction.

A hypersurface {F = 0} is singular at P exactly when F and all its partial
derivatives vanish at P.  The decision procedure runs Buchberger on
[F, dF/dx0, ..., dF/dxn] until every variable has a pure-power leading
monomial, which certifies an empty projective zero set and so smoothness;
when that never happens the reduced basis shows a zero, and an exhaustive
search over extension fields produces a concrete witness point.  F itself
always stays among the generators: the Euler identity makes it redundant
only when the characteristic does not divide the degree.  Over Q the run is
tried first on the form's reductions mod a few small primes, any smooth one
of which proves smoothness over Q (see `is_smooth`).

The search scans lines, not points.  `enumerate_projective_points` lists
P^n over a field as (0, ..., 0, 1) first, then every prefix
(x0, ..., x_{n-1}) of P^(n-1) in its own order, each followed by the last
coordinate t in canonical field order.  So the search tests (0, ..., 0, 1)
directly and, for each prefix, restricts F and its partials to univariate
polynomials in t of degree at most d and takes their gcd.  The points of
a line are consecutive in that order and the gcd vanishes exactly at the
singular ones, so a nonzero constant gcd clears the whole line, and
otherwise t runs in canonical order to the first root (every t is a root
when the gcd is zero, which happens only on a line singular throughout,
whose point (0, ..., 0, 1) was found first).  The first witness is thus the
one a point-by-point scan would meet first, at the cost of O(n * terms +
n * d^2) field operations per line instead of one evaluation per point.
On a line, dF/dx_n restricts to the derivative in t of F's restriction, so
each line starts from gcd(F|, (F|)') and folds in the partials in x_0, ...,
x_{n-1} only while the gcd is not constant.

All of the scan runs on element indices through the field's one
`IndexArithmetic`: prefixes are index tuples, a restriction is one
`combine` of the form's terms grouped by their monomial in the prefix (on
logs in a tabled extension field), the gcd and the first root are the
arithmetic's `gcd` and `root`, and x -> x^q is its `power`.  Only the
witness returned is built as FieldElements.

Level k of the search scans GF(q^k), where GF(q) holds the coefficients of
F.  Four rules, each exact, keep a level from redoing what the Frobenius
x -> x^q, level 1 and elimination have decided; the first witness stays
the one of the full scan.
1. The Jacobian forms are fixed by the Frobenius, so it maps a witness on
   the line of a prefix to one on the line of the conjugate prefix; a
   conjugate keeps the zeros and the leading 1, so it is again a prefix.
   When a conjugate comes before a prefix, a witness on its line would
   have an earlier conjugate witness; the first witness thus lies on the
   first prefix of its orbit.  Only that prefix is scanned, in full, so
   its first root t is unchanged.
2. A prefix the Frobenius fixes lies over GF(q), and the monic gcd of its
   line is the same over every extension.  Level 1 records the gcd of each
   such line that is not a nonzero constant and had no root there; a later
   level only looks for a root of that gcd, and skips the other GF(q)-lines.
   A binary form has one line, which level 1 thus decides.
3. (0, ..., 0, 1) is a GF(q)-point, and an embedding of fields is
   injective, so it is tested at level 1 only.
4. For a plane curve of degree d >= 2 over a prime field GF(p), let
   F| = F(1, s, t) and let R(s) be the gcd over GF(p) of the resultants in
   t of F| with (F|)' and with G| = G(1, s, t) for each nonzero partial G
   in x_0 and x_1.  A singular point (1, s0, t0) makes all of them vanish
   at s0: where the leading coefficients in t of a pair do not both
   vanish, the resultant there is a multiple of the resultant of the pair
   at s0, whose common root is t0, and otherwise the first column of the
   Sylvester matrix is zero.  (F| has positive degree in t: a curve free
   of x_2 is singular at (0, 0, 1), and the search ends there.)  So when
   GF(p^k) holds no root of R, that is gcd(R, s^(p^k) - s) = 1, no line of
   a prefix (1, s) holds a witness at level k, and only the line
   (0, 1, t) is scanned, from its level-1 record; R = 0 decides nothing.
   R is read off once, after level 1, in GF(p^m), m = d(d-1) + 1, at
   s = u, the generator of index p.  The coefficients of F| in t have
   s-degree at most d < m, so none vanishes at u: the t-degrees stay the
   generic ones, and the Euclid resultant at u is the Sylvester
   determinant at u.  That determinant has s-degree at most d(d-1) < m:
   for t-degrees a, b and total degrees d1 = d, d2 = d - 1, the s-degrees
   of the entries sum over any permutation to at most
   b d1 + a d2 - ab = d1 d2 - (d1 - a)(d2 - b) <= d1 d2.  So the base-p
   digits of the resultant's index are exactly its coefficients in s.
"""

from __future__ import annotations

import operator
from array import array
from bisect import bisect_right
from itertools import product, repeat

from .errors import PreconditionViolated, WitnessNotFoundWithinCap
from .fields import (
    FieldDescriptor,
    _digits,
    _frobenius_gcds,
    _spread,
    element_to_json,
    enumerate_projective_points,
    field_to_json,
    get_descriptor,
    get_embedding,
)
from .groebner import (
    DEFAULT_STEP_BUDGET,
    _jacobian,
    _run_basis,
    certify_combinations,
)
from .multipoly import _compose, _evaluate, _monomial_values, _partial, _Slots
from .records import Record

DEFAULT_WITNESS_CAP = 6
# the largest GF(p^(d(d-1)+1)) in which the search reads off the gcd R of a
# plane curve's resultants (see `search_singular_point`)
_ABSCISSA_FIELD_LIMIT = 1 << 12
# the primes a rational form is reduced modulo before Buchberger over Q
_REDUCTION_PRIMES = (2, 3, 5, 7)


class SingularWitness(Record):
    """A projective point (normalized tuple) at which a form is singular,
    together with the field its coordinates live in; `member` carries the
    coefficient tuple when the witness refutes a whole system."""

    __slots__ = ("point", "field", "member")

    def __init__(self, point, field, member=None):
        self.point = point
        self.field = field
        self.member = member

    def for_member(self, member):
        """The same point and field, refuting the given member."""
        return SingularWitness(self.point, self.field, member)


class Smooth(Record):
    """A smoothness verdict.  `certificate` holds the elements of the
    Jacobian ideal that Buchberger had built when every variable first had a
    pure-power leading monomial among them (see `certificate_basis`); they
    put a power of every variable in the leading-term ideal, so the Jacobian
    ideal has no zero in P^n.  For a form over Q the certificate may lie
    over GF(l) instead, its `field` naming l: it is then that of the form's
    primitive integer reduction mod l (see `is_smooth`)."""

    __slots__ = ("certificate",)

    def __init__(self, certificate):
        self.certificate = certificate


class Singular(Record):
    """A singularity verdict, with the witness found, or None when the
    refutation is exact but names no point (over Q)."""

    __slots__ = ("witness",)

    def __init__(self, witness):
        self.witness = witness


def jacobian_generators(form):
    """[F, dF/dx0, ..., dF/dxn] with identically-zero partials pruned."""
    if not form:
        raise ValueError("zero form has no smoothness question")
    gens = [form]
    for i in range(form.nvars):
        g = form.partial_derivative(i)
        if g:
            gens.append(g)
    return gens


def search_singular_point(form, max_ext_degree):
    """Exhaustive scan of P^n over GF(q), GF(q^2), ..., GF(q^m) for a point
    where the form and all its partials vanish.  Returns the first witness
    in the order of `enumerate_projective_points`, or None (which proves
    nothing).

    Level 1 tests (0, ..., 0, 1) and then scans the lines of points that
    share a prefix (x0, ..., x_{n-1}), in prefix order: a line whose
    restrictions have a nonzero constant gcd holds no witness, and on any
    other line the first root of the gcd in canonical order is the first
    witness on it.  Each later level scans only the lines that level 1, the
    Frobenius and, for a plane curve over a prime field, the gcd R of its
    resultants have not decided (see the module docstring): R is read off
    once, when level 1 finds no witness and a later level is asked for,
    and a level whose field holds no root of R costs one p-th power mod R
    and at most the line (0, 1, t) from its record.  That filter runs only
    where GF(p^(d(d-1)+1)) has at most `_ABSCISSA_FIELD_LIMIT` = 2^12
    elements, so that it is tabled and cheap to build; elsewhere the
    search is that of rules 1-3.  Measured on a 2-core VM with Python 3.11:
    the largest such field a plane curve uses, GF(3^7), takes 2.6 ms to
    build, against 8.5 ms for GF(2^13), which quartics over GF(2) would
    need and which a cold `verify --oracle` of seven members does not earn
    back (0.48 -> 0.23 ms a search to GF(2^4)); in an untabled field the
    resultants on digits cost more than the levels they skip (a smooth
    quartic over GF(3) searched to GF(3^4): 1.4 ms scanned, 4.5 ms
    filtered).  All of it runs on element indices; only the witness is
    built as FieldElements."""
    field = form.field
    if not isinstance(field, FieldDescriptor):
        raise ValueError("the point search requires a finite base field")
    if max_ext_degree < 1:
        raise ValueError("max extension degree must be >= 1")
    charts = _line_charts(form)
    n = form.nvars - 1
    # at (0, ..., 0, 1), F is its coefficient of x_n^d and dF/dx_i, i < n,
    # that of x_i x_n^(d-1)
    if all(sum(m[:n]) > 1 for m in form.index_terms):
        return SingularWitness(point=(field.zero(),) * n + (field.one(),), field=field)
    if not n:
        return None
    # the GF(q)-prefixes whose gcd is not a nonzero constant, with that gcd
    lines = {}
    point = _scan_lines(field.arithmetic, charts, lines=lines)
    desc, k = field, 1
    # for a plane curve, whether each level k >= 2 may hold a root of R
    roots = None
    if point is None and max_ext_degree > 1 and n == 2 and field.e == 1 and form.degree > 1:
        m = form.degree * (form.degree - 1) + 1
        if field.p ** m <= _ABSCISSA_FIELD_LIMIT:
            roots = _levels_with_roots(_abscissa_gcd(charts[0], field.p, m), field.p)
    # the one line of a binary form lies over GF(q), so without a recorded
    # gcd level 1 decided it
    while point is None and k < max_ext_degree and (n > 1 or lines):
        k += 1
        # rule 4: where GF(p^k) holds no root of R, no line of lead 0 holds
        # a witness, and without a recorded line (0, 1, t) nothing is left
        skip = roots is not None and not next(roots)
        if skip and all(prefix[0] for prefix in lines):
            continue
        desc = get_descriptor(field.p, field.e * k)
        up = get_embedding(field, desc).up_index
        lifted = {tuple(map(up, prefix)): list(map(up, gcd)) for prefix, gcd in lines.items()}
        point = _scan_lines(desc.arithmetic, [
            None if skip and not lead else
            (tails, [[(i, {j: up(c) for j, c in group.items()}) for i, group in chart]
                     for chart in rows]) for lead, (tails, rows) in enumerate(charts)],
            field, lifted)
    if point is None:
        return None
    return SingularWitness(point=tuple(map(desc.element_from_index, point)), field=desc)


def _line_charts(form):
    """F and its nonzero partials in x_0, ..., x_{n-1}, grouped for the
    lines of the prefixes whose leading 1 is at each position `lead`: the
    distinct tails, exponent tuples of x_{lead+1}, ..., x_{n-1}, among the
    terms free of x_0, ..., x_{lead-1}, and for each of the forms, F first,
    a list of (tail position, map from the exponent of x_n to the
    coefficient's index); x_lead = 1 drops out.  dF/dx_n is left out: on a
    line (x_0, ..., x_{n-1}, t) its restriction is the derivative in t of
    F's."""
    if not form:
        raise ValueError("zero form has no smoothness question")
    n, terms = form.nvars - 1, form.index_terms
    rows = [terms, *filter(None, [_partial(terms, i, form.field) for i in range(n)])]
    charts = []
    for lead in range(n):
        tails, where, groups = [], {}, []
        for row in rows:
            by_tail = {}
            for m, c in row.items():
                if not any(m[:lead]):
                    by_tail.setdefault(m[lead + 1:n], {})[m[n]] = c
            for tail in by_tail:
                if tail not in where:
                    where[tail] = len(tails)
                    tails.append(tail)
            groups.append([(where[tail], group) for tail, group in by_tail.items()])
        charts.append((tails, groups))
    return charts


def _scan_lines(arith, charts, base=None, lines=None):
    """First point with a nonzero prefix (x0, ..., x_{n-1}) where F and all
    its partials vanish, as a tuple of element indices, or None; `charts`
    are the `_line_charts` of F, with coefficients over the field of
    `arith`, and a chart of None leaves out every line of its lead.

    The prefixes are index tuples in the order of `enumerate_projective_points`:
    for each position of the leading 1, the coordinates after it (the tail)
    in base-q order.  A restriction is one `combine` of the form's groups
    there, scaled by the values of their tail monomials.

    Without `base` every prefix gets one restriction and gcd, and `lines`,
    when given, receives under its prefix the gcd of each line that is not
    a nonzero constant and has no root.  With `base`, a proper subfield
    GF(q) holding every coefficient of the forms, only the first prefix of
    each orbit under x -> x^q is scanned, and a prefix the map fixes, which
    lies over GF(q), takes its gcd from `lines` (the base scan's record,
    mapped into this field): a prefix missing there holds no witness."""
    field = arith.field
    mul, power, root = arith.mul, arith.power, arith.root
    n = len(charts)
    if base is not None:
        q, k = base.order, field.e // base.e
    for lead in range(n - 1, -1, -1):
        if charts[lead] is None:
            continue
        head = (0,) * lead + (1,)
        tails, groups = charts[lead]
        for tail in product(range(field.order), repeat=n - 1 - lead):
            if base is None:
                gcd = _restricted_gcd(arith, groups, _monomial_values(tail, tails, mul, power))
            else:
                length = _orbit_length(tail, power, q, k)
                if not length:
                    continue
                if length == 1:
                    gcd = lines.get(head + tail)
                    if gcd is None:
                        continue
                else:
                    gcd = _restricted_gcd(arith, groups, _monomial_values(tail, tails, mul, power))
            if len(gcd) == 1:
                continue
            t = root(gcd)
            if t is not None:
                return head + tail + (t,)
            if base is None and lines is not None:
                lines[head + tail] = gcd
    return None


def _derivative(f, mul, p):
    """The derivative of an index list f (low degree first) in characteristic
    p, by `mul` on indices; the integer j has the index j mod p."""
    return [mul(c, j % p) if c and j % p else 0 for j, c in enumerate(f) if j]


def _restricted_gcd(arith, groups, values):
    """Monic gcd of F and its partials restricted to a line, as an index
    list in its last coordinate t (low degree first); [] when all of them
    vanish.  It starts from gcd(F|, (F|)'), (F|)' being the restriction of
    dF/dx_n, and folds in the other partials until it is constant."""
    combine, mul, gcd, p = arith.combine, arith.mul, arith.gcd, arith.field.p
    scaled = ([(values[i], group) for i, group in form if values[i]] for form in groups)
    f = _dense(combine(next(scaled)))
    g = gcd(f, _derivative(f, mul, p))
    for parts in scaled:
        if len(g) == 1:
            break
        g = gcd(g, _dense(combine(parts)))
    return g


def _abscissa_gcd(chart, p, m):
    """The gcd R(s) over GF(p) of Res_t(F|, (F|)') and Res_t(F|, G|) for
    the nonzero partials G in x_0 and x_1 of a plane curve F of degree d
    over GF(p), F| = F(1, s, t), folded in the order of `_restricted_gcd`
    until constant: a monic coefficient list (low degree first), [] when
    every resultant vanishes.  `chart` is F's lead-0 chart from
    `_line_charts`, and m > d(d - 1) (see rule 4 of the module docstring).

    Each resultant is one Euclid resultant in GF(p^m) at s = u, the
    generator of index p, and the base-p digits of its index are its
    coefficients in s."""
    tails, groups = chart
    arith = get_descriptor(p, m).arithmetic
    combine, mul = arith.combine, arith.mul
    values = _monomial_values((p,), tails, mul, arith.power)
    f, *partials = [_dense(combine([(values[i], group) for i, group in form if values[i]]))
                    for form in groups]
    gcd = get_descriptor(p).arithmetic.gcd
    r = []
    for g in [_derivative(f, mul, p), *partials]:
        r = gcd(r, _digits(arith.resultant(f, g), p, m))
        if len(r) == 1:
            break
    return r


def _levels_with_roots(r, p):
    """For k = 2, 3, ..., in turn, whether the monic R over GF(p) (or [],
    the zero polynomial) has a root in GF(p^k): whether gcd(R, s^(p^k) - s),
    from `fields._frobenius_gcds`, is not constant."""
    if len(r) < 3:
        # R = 0 decides nothing, a constant has no root, a linear R its root in GF(p)
        yield from repeat(len(r) != 1)
        return
    yield from (len(g) > 1 for g in _frobenius_gcds(r, p, first=2))


def _dense(line):
    """A map from exponents to nonzero indices as a coefficient list."""
    return [line.get(j, 0) for j in range(max(line) + 1)] if line else []


def _orbit_length(tail, power, q, k):
    """Length of the orbit of a prefix over GF(q^k) under x -> x^q, applied
    coordinate by coordinate, or 0 when one of its conjugates comes before
    it in enumeration order.  Every conjugate keeps the zeros and the leading
    1, so only the tail after the 1 moves, and that order compares the
    tails' indices lexicographically."""
    conj = tail
    for length in range(1, k):
        conj = tuple([power(x, q) for x in conj])
        if conj == tail:
            return length
        if conj < tail:
            return 0
    return k


def witness_verifies(form, witness):
    """Re-check a witness by direct evaluation of F and its partials, the
    forms `is_smooth` certifies and the search scans: one `_evaluate` on
    the indices of the witness's field, into which the form's coefficients
    are embedded when the witness lies in an extension."""
    if not form:
        raise ValueError("zero form has no smoothness question")
    field = witness.field
    terms = form.index_terms
    if form.field.key != field.key:
        up = get_embedding(form.field, field).up_index
        terms = {m: up(c) for m, c in terms.items()}
    forms = [terms, *[_partial(terms, i, field) for i in range(form.nvars)]]
    return not any(_evaluate(forms, tuple(x.idx for x in witness.point), field.arithmetic))


def is_smooth(form, witness_cap=DEFAULT_WITNESS_CAP):
    """Decide smoothness of the hypersurface cut out by the form.

    Smooth verdicts carry the pure-power certificate; Singular verdicts carry a
    witness found by the extension search (raising the bound up to the cap).
    Disagreement between certificate and search fails loudly instead of
    trusting either side.

    Over the rationals the form is first scaled to a primitive integer form
    F and reduced mod each prime in `_REDUCTION_PRIMES` in turn; the first
    reduction whose certificate says smooth gives the verdict, with its
    certificate over GF(l).  That is exact: the scheme Z in P^n over Z cut
    out by F and its partials is proper, so its image in Spec Z is closed,
    and if Z had a point over Q that image would hold the generic point and
    so every prime; the partials of F mod l are those of the nonzero form F
    mod l.  Only when every reduction is singular does Buchberger run over
    Q itself, so a singular verdict over Q always comes from there; it
    carries no witness: the refutation is exact but explicit algebraic
    points are out of scope.

    F is packed once, on its indices, and its Jacobian forms are taken on
    the packed keys (`_jacobian`).  Over Q the primitive integer form is
    packed, and the reduction mod l takes each packed coefficient mod l; a
    member of a system carries that form from `LinearSystemOfForms.member`.
    The runs are on ints mod p over GF(p), and the certificate builds field
    elements only when its `elements` are read.
    """
    if not form:
        raise ValueError("zero form has no smoothness question")
    slots = _Slots.for_degree(form.nvars, form.degree)
    for field, terms in _certificate_runs(form, slots):
        basis, empty = _run_basis([t for t in _jacobian(terms, slots, field) if t], field, slots,
                                  DEFAULT_STEP_BUDGET, True)
        if empty:
            return Smooth(basis)
    if isinstance(form.field, FieldDescriptor):
        return Singular(_certified_witness(form, witness_cap))
    return Singular(None)


def _certificate_runs(form, slots):
    """(field, F packed in the slots on the field's indices) for each run
    `is_smooth` tries in turn, F built only when its run comes."""
    field = form.field
    if isinstance(field, FieldDescriptor):
        yield field, slots.pack(form.index_terms)
        return
    integral = slots.pack(form.primitive_integer_terms)
    for ell in _REDUCTION_PRIMES:
        yield get_descriptor(ell), {m: r for m, c in integral.items() if (r := c % ell)}
    yield field, slots.pack(form.index_terms)


def _certified_witness(form, witness_cap):
    """The first singular point of a form over a finite field whose
    certificate says singular, searched up to the cap and checked by
    `witness_verifies`; a miss or a point that fails the check fails
    loudly."""
    witness = search_singular_point(form, witness_cap)
    if witness is None:
        raise WitnessNotFoundWithinCap(
            f"certificate says singular but no witness found up to extension degree {witness_cap}")
    if not witness_verifies(form, witness):
        raise AssertionError(f"the search's witness {witness!r} fails direct evaluation")
    return witness


def truncation_matrix(system):
    """Matrix of the base-point truncation on the system's coefficients, as
    index rows: row j maps each generator to the index of its coefficient
    of x0^(d-1)*x_j (j = 0..n), so the kernel is the set of members
    singular at [1:0:...:0]."""
    nv = system.nvars
    rows = []
    for j in range(nv):
        exps = [0] * nv
        exps[0] = system.degree - 1
        exps[j] += 1
        m = tuple(exps)
        rows.append({i: c for i, g in enumerate(system.generators)
                     if (c := g.index_terms.get(m))})
    return rows


def singular_member_at_base_point(system):
    """Nonzero member of the system singular at [1:0:...:0].

    Solves the linear condition "truncation of sum a_i F_i vanishes" over the
    base field; a solution is guaranteed once the affine dimension r+1 of the
    system exceeds n+1.  Returns (coefficients, member form).
    """
    nv = system.nvars
    zero = system.field.zero()
    arith = system.field.arithmetic
    kernel = arith.kernel(truncation_matrix(system), len(system.generators))
    if not kernel:
        raise PreconditionViolated(
            "no member is singular at the base point; this is guaranteed only "
            "for affine dimension >= n+2")
    coeffs = tuple(map(arith.element, kernel[0]))
    member = system.member(coeffs)
    base = (system.field.one(),) + (zero,) * (nv - 1)
    if not witness_verifies(member, SingularWitness(point=base, field=system.field)):
        raise AssertionError("extracted member is not singular at the base point")
    return coeffs, member


class VerifyReport(Record):
    """Outcome of checking every rational member of a linear system."""

    __slots__ = ("verdicts", "k_smooth", "witness")

    def __init__(self, verdicts, k_smooth, witness):
        self.verdicts = verdicts
        self.k_smooth = k_smooth
        self.witness = witness

    @property
    def member_count(self):
        return len(self.verdicts)

    def to_json(self):
        return {"members": self.member_count,
                "verdicts": list(self.verdicts),
                "k_smooth": self.k_smooth,
                "witness": witness_to_json(self.witness) if self.witness else None}


def witness_to_json(witness):
    return {"point": [element_to_json(x) for x in witness.point],
            "field": field_to_json(witness.field),
            "member": ([element_to_json(a) for a in witness.member]
                       if witness.member is not None else None)}


def verify_system_K_smooth(system, symmetries=()):
    """Run the smoothness decision of `is_smooth` on every rational member
    of the system.

    Members are enumerated as projective coefficient tuples over the base
    field; the report lists one verdict per member in enumeration order and
    carries the first singular witness, if any.

    Differentiation is linear, so the Jacobian forms [F, dF/dx0, ...,
    dF/dxn] of the member F = sum a_i G_i are sum a_i [G_i, dG_i/dx0, ...,
    dG_i/dxn].  `certify_combinations` takes those of the generators once
    and runs the certificate loop of each member on their combination with
    its zero forms dropped: the generators `is_smooth` runs on, so the
    verdict is the same.  Only a singular member is built as a form, for
    the witness search of `is_smooth`.

    `symmetries` may hold square matrices over the base field, such as the
    `moore_symmetries` of a construction; none of them is trusted.  Each
    must be invertible and map the span of the generators onto itself
    under x -> M x, which is checked exactly; then G_i(M x) = sum_j T[i][j]
    G_j(x), and the member c composed with M is the member c T, isomorphic
    to c over the base field.  So the members of an orbit of the group the
    T generate share their verdict, and only the first member of each orbit
    in enumeration order is certified, a singular one with its own witness
    search.  The first singular member is the first of its orbit, so the
    report is that of full enumeration.  Without symmetries, or when a
    matrix fails a check, every member is its own orbit.
    """
    field = system.field
    if not isinstance(field, FieldDescriptor):
        raise ValueError("member enumeration requires a finite base field")
    slots = _Slots.for_degree(system.nvars, system.degree)
    certify = certify_combinations([_jacobian(slots.pack(g.index_terms), slots, field)
                                    for g in system.generators], field, slots)
    induced = _induced_matrices(system, symmetries) if symmetries else None
    orbit_of = array("l")
    verdicts = []
    first_witness = None
    for coeffs in _orbit_representatives(field, system.dim, induced, orbit_of):
        if certify(coeffs):
            verdicts.append("smooth")
            continue
        witness = _certified_witness(system.member(coeffs), DEFAULT_WITNESS_CAP)
        verdicts.append("singular")
        if first_witness is None:
            first_witness = witness.for_member(tuple(coeffs))
    return VerifyReport(verdicts=tuple([verdicts[k] for k in orbit_of]),
                        k_smooth=first_witness is None, witness=first_witness)


def _induced_matrices(system, symmetries):
    """For each matrix M of `symmetries` the square matrix T, one row and
    column per generator, with G_i(M x) = sum_j T[i][j] G_j(x), as element
    indices, or None when some M is not invertible or maps a generator out
    of the span.

    The generators' coefficients C, over the monomials they use, are reduced
    once together with an identity block, to [R | E] with R = E C in
    reduced echelon form.  A form h of the span is sum_k h[p_k] R_k, p_k
    the pivot of row k, so it lies in the span exactly when it equals
    sum_j t_j G_j for t = sum_k h[p_k] E_k, and t is then its row of T.
    Past the boundary, where the generators and each M become element
    indices, all of it runs on the ints of the field's `IndexArithmetic`."""
    field, nvars = system.field, system.nvars
    arith = field.arithmetic
    combine, index = arith.combine, arith.index
    slots = _Slots.for_degree(nvars, system.degree)
    gens = [slots.pack(g.index_terms) for g in system.generators]
    count = len(gens)
    columns = sorted({m for g in gens for m in g})
    width = len(columns)
    column = {m: k for k, m in enumerate(columns)}
    reduced, pivots, _ = arith.rref([{**{column[m]: c for m, c in g.items()}, width + i: 1}
                                     for i, g in enumerate(gens)], width + count)
    # E_k, by generator
    coordinates = [{k - width: c for k, c in row.items() if k >= width} for row in reduced]
    pivot_keys = [columns[k] for k in pivots]
    induced = []
    for matrix in symmetries:
        rows = [[index(x) for x in row] for row in matrix]
        images = _compose(gens, rows, slots, arith)
        _, independent, _ = arith.rref([{k: x for k, x in enumerate(row) if x} for row in rows],
                                       nvars)
        if len(independent) < nvars:
            return None
        t = []
        for h in images:
            coords = combine([(a, row) for m, row in zip(pivot_keys, coordinates)
                              if (a := h.get(m))])
            if combine([(a, gens[j]) for j, a in coords.items()]) != h:
                return None
            t.append([coords.get(j, 0) for j in range(count)])
        induced.append(t)
    return induced


def _orbit_representatives(field, r, induced, orbit_of):
    """The first member, in enumeration order, of each orbit of the group
    generated by the invertible matrices `induced` (element indices, as
    `_induced_matrices` gives them) acting on the members by c -> c T,
    normalised to a leading 1; `orbit_of`, an empty array, receives for
    every member the index of its orbit among those yielded.  Each T
    permutes the finite set of members, so an orbit is everything reached
    from one member by the T alone; the members are walked in order and
    each one not yet reached starts a new orbit, which is collected by
    reading the `_image_tables` of the T: int lookups only.  Once the tables
    so far join every member into one orbit, no further table is built.
    Without `induced` every member is its own orbit."""
    q = field.order
    count = (q ** (r + 1) - 1) // (q - 1)
    tables = []
    for table in _image_tables(field.arithmetic, r, induced) if induced else ():
        tables.append(table)
        if len(tables) < len(induced) and len(_orbit(0, tables)) == count:
            break
    orbit_of.extend(repeat(-1, count))
    orbits = 0
    for i, coeffs in enumerate(enumerate_projective_points(field, r)):
        if orbit_of[i] < 0:
            for j in _orbit(i, tables):
                orbit_of[j] = orbits
            yield coeffs
            orbits += 1


def _orbit(start, tables):
    """The members the tables reach from `start`, itself included."""
    seen = {start}
    stack = [start]
    while stack:
        j = stack.pop()
        for table in tables:
            k = table[j]
            if k not in seen:
                seen.add(k)
                stack.append(k)
    return seen


def _image_tables(arith, r, matrices):
    """For each square invertible matrix T of element indices in
    `matrices`, in turn, an array holding, at the index of each member c of
    P^r over the field of `arith`, the index of the member c T normalised
    to a leading 1.

    The members with their leading 1 at position j come in the base-q
    order of their coordinates t_(j+1), ..., t_r, after the
    (q^(r-j) - 1) / (q - 1) members with fewer coordinates after it.  So
    their images T_j + sum_k t_k T_k are built by linearity, in that order,
    one position k at a time: each partial sum followed by it plus t T_k
    for every t, one vector addition each.  A vector is one int there,
    with a slot for each base-p digit of each coordinate, the first
    coordinate's top digit in the top slot.  In characteristic 2 a slot is
    one bit, the int is the base-q number whose digits are the indices of
    the coordinates, and a sum is an XOR.  Otherwise a slot has room for
    r + 1 digits, a sum is `+`, and each image reduces its slots mod p to
    that number.  An image is then scaled to a leading 1 and read as the
    index of a member."""
    field = arith.field
    q, p, e = field.order, field.p, field.e
    mul, inv = arith.mul, arith.inv
    width = 1 if p == 2 else ((r + 1) * (p - 1)).bit_length()
    mask = (1 << width) - 1
    # an element's base-p digits in their slots, by index
    spread = _spread(range(p), e, 1 << width)
    powers = [q ** k for k in range(r + 1)]
    # the index of a member with k coordinates after its leading 1, from
    # its base-q number
    shift = [(q ** k - 1) // (q - 1) - q ** k for k in range(r + 1)]

    def packed(coords):
        v = 0
        for x in coords:
            v = v << width * e | spread[x]
        return v

    def index(v):
        if width > 1:
            v, u, power = 0, v, 1
            while u:
                v += (u & mask) % p * power
                u >>= width
                power *= p
        k = bisect_right(powers, v) - 1
        lead = v // powers[k]
        if lead != 1:
            s = inv(lead)
            u, v, power = v, 0, 1
            for _ in range(k + 1):
                u, x = divmod(u, q)
                v += mul(s, x) * power
                power *= q
        return v + shift[k]

    vadd = operator.xor if p == 2 else operator.add
    for t in matrices:
        # s T_k for every s, for the positions k > 0 that take any coordinate
        multiples = [None] + [[packed([mul(s, x) for x in row]) for s in range(q)]
                              for row in t[1:]]
        table = array("l")
        for j in range(r, -1, -1):
            level = [packed(t[j])]
            for k in range(j + 1, r + 1):
                level = [vadd(u, v) for u in level for v in multiples[k]]
            table.extend(map(index, level))
        yield table
