"""Explicit constructions: diagonal (Fermat) and cyclic (Klein) forms, normal
bases and Moore matrices, systems of smooth hypersurfaces with Galois descent
to the base field, the characteristic-zero lift, the characteristic-2 quadric
refutation machinery, and a built-in cubic system over GF(3).

A template is data: F_0 as (monomial in the Moore coordinates, coefficient
index in GF(q^(n+1))) pairs; F_j moves the exponents cyclically by j and
raises each coefficient to the power q^j.  The construction runs on indices
through that field's `IndexArithmetic`, up to the results it returns.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd

from .errors import (
    EvenN,
    HypothesisViolated,
    NoSolution,
    NotFrobeniusCyclic,
    NotPrimeField,
    PreconditionViolated,
    RankViolated,
    ShapeViolated,
    WrongCharacteristic,
    ZeroCoefficient,
)
from .fields import (
    FieldDescriptor,
    QQ,
    _first_of_full_order,
    element_to_json,
    get_descriptor,
    get_embedding,
    normalize_projective,
    sqrt_char2,
)
from .multipoly import (
    HomogeneousForm,
    LinearSystemOfForms,
    _compose,
    _raw_form,
    _Slots,
    system_to_json,
)
from .records import Record
from .smoothness import (
    SingularWitness,
    singular_member_at_base_point,
    truncation_matrix,
    witness_verifies,
)


def _first_monomial(nvars, degree, cyclic):
    """x_0^d, or x_0^(d-1) x_1 (indices mod nvars) when `cyclic`."""
    exps = [degree - cyclic] + [0] * (nvars - 1)
    exps[1 % nvars] += cyclic
    return tuple(exps)


def _shifted(exps, j):
    """The exponents moved cyclically by 0 <= j < len(exps): x_i to x_(i+j)."""
    return exps[-j:] + exps[:-j]


def fermat_form(coefficients, degree):
    """Diagonal form c0*x0^d + c1*x1^d + ... + cn*xn^d.

    Cuts out a smooth hypersurface whenever every c_i is nonzero and the
    characteristic does not divide d (immediate from the Jacobian criterion).
    """
    cs = tuple(coefficients)
    if any(not c for c in cs):
        raise ZeroCoefficient("diagonal form needs every coefficient nonzero")
    first = _first_monomial(len(cs), degree, 0)
    return HomogeneousForm(cs[0].field, len(cs), degree,
                           {_shifted(first, i): c for i, c in enumerate(cs)})


def klein_form(coefficients, degree):
    """Cyclic form c0*x0^(d-1)*x1 + c1*x1^(d-1)*x2 + ... + cn*xn^(d-1)*x0,
    indices modulo n+1.

    Cuts out a smooth hypersurface whenever every c_i is nonzero, the
    characteristic divides d but not n+1.
    """
    cs = tuple(coefficients)
    if any(not c for c in cs):
        raise ZeroCoefficient("cyclic form needs every coefficient nonzero")
    if degree < 2:
        raise ValueError("degree must be >= 2")
    first = _first_monomial(len(cs), degree, 1)
    return HomogeneousForm(cs[0].field, len(cs), degree,
                           [(_shifted(first, i), c) for i, c in enumerate(cs)])


class MooreData(Record):
    """A normal-basis element alpha of GF(q^(n+1)) over GF(q) with the
    determinant of its Moore matrix A[j][i] = alpha^(q^(j+i)), whose row j
    applied to (x0, ..., xn) is the coordinate change y_j."""

    __slots__ = ("field", "base", "alpha", "det")

    def __init__(self, field, base, alpha, det):
        self.field = field
        self.base = base
        self.alpha = alpha
        self.det = det


def _orbit(arith, a, q, m):
    """The indices of a, a^q, ..., a^(q^(m-1)) in the field of `arith`."""
    orbit = [a]
    for _ in range(m - 1):
        orbit.append(arith.power(orbit[-1], q))
    return orbit


def _moore_rows(arith, a, q, m):
    """The `moore_matrix` of the element of index a of GF(q^m), as index rows."""
    orbit = _orbit(arith, a, q, m)
    return [orbit[j:] + orbit[:j] for j in range(m)]


def moore_matrix(alpha, e, nvars):
    """The Moore matrix A[j][i] = alpha^(q^(i+j)), indices mod nvars, of an
    element alpha of GF(q^nvars), q = p^e, as rows of elements; invertible
    exactly when alpha is normal over GF(q)."""
    big = alpha.field
    return [list(map(big.element_from_index, row))
            for row in _moore_rows(big.arithmetic, alpha.idx, big.p ** e, nvars)]


def normal_basis_search(p, e, n):
    """First element of GF(q^(n+1)) (canonical order, q = p^e) whose Frobenius
    orbit is a basis over GF(q), with the nonzero determinant of its
    `moore_matrix`; existence is the normal basis theorem.  The
    candidates are indices, each tested by `_is_normal`, one gcd, and the
    determinant is read off the `rref` of the chosen one's index rows."""
    base = get_descriptor(p, e)
    big = get_descriptor(p, e * (n + 1))
    arith = big.arithmetic
    for i in range(1, big.order):
        if _is_normal(arith, i, base.order, n + 1):
            # a normal element and its conjugates are nonzero
            rows = _moore_rows(arith, i, base.order, n + 1)
            det = arith.rref([dict(enumerate(row)) for row in rows], n + 1)[2]
            return MooreData(field=big, base=base, alpha=big.element_from_index(i),
                             det=big.element_from_index(det))
    raise AssertionError("unreachable: normal elements always exist")


def _is_normal(arith, a, q, m):
    """Whether the element of index a of GF(q^m) is normal over GF(q): when
    f = sum_i a^(q^i) x^(m-1-i) and x^m - 1 (-1 has index p - 1) are coprime
    (Lidl and Niederreiter, Finite Fields, Theorem 2.39).  x - 1 divides
    x^m - 1, so the trace f(1) of a must not vanish; that is checked first,
    and is the whole test when m is a power of p, x^m - 1 being (x - 1)^m."""
    orbit = _orbit(arith, a, q, m)
    if not reduce(arith.add, orbit):
        return False
    return len(arith.gcd(orbit[::-1], [arith.field.p - 1] + [0] * (m - 1) + [1])) == 1


def moore_symmetries(base, alpha):
    """Two invertible matrices over `base` = GF(q) that map the system
    constructed from alpha, a normal element of GF(q^(n+1)), onto itself
    under x -> M x, or () when alpha is not normal over GF(q).

    Let A be the `moore_matrix` of alpha, so y = A x are the Moore
    coordinates, and let lambda be the first primitive element of
    GF(q^(n+1)).  The first matrix is M = A^-1 D A with D = diag(lambda^(q^j)),
    so y_j(M x) = lambda^(q^j) y_j(x): it is Frobenius-fixed, because the
    Frobenius shifts both the rows of A and the diagonal of D by one, and is
    brought down to GF(q).  The second is the cyclic shift P with
    (P x)_i = x_(i-1), for which y_j(P x) = y_(j+1)(x): the Frobenius.  The
    member c of the constructed system is the template with coefficients
    a^(q^j), a = sum c_j alpha^(q^j), in y; composed with M it becomes the
    member of a * lambda^k (k = d in case 1, d - 1 + q in case 2), and with
    P that of a^(q^n).  `verify_system_K_smooth` checks all of this again
    for the system it is given and trusts none of it.
    """
    big = alpha.field
    arith = big.arithmetic
    nvars = big.e // base.e
    lam = _first_of_full_order(range(1, big.order), big.order - 1, arith.power)
    # [A | D A] reduces to [I | A^-1 D A] exactly when A is invertible
    rows = [row + [arith.mul(x, lam_j) for x in row]
            for row, lam_j in zip(_moore_rows(arith, alpha.idx, base.order, nvars),
                                  _orbit(arith, lam, base.order, nvars))]
    reduced, pivots, _ = arith.rref([{k: x for k, x in enumerate(row) if x} for row in rows],
                                    2 * nvars)
    if pivots[:nvars] != list(range(nvars)):
        return ()
    down = get_embedding(base, big).down_index
    try:
        m = [[down(row.get(k, 0)) for k in range(nvars, 2 * nvars)] for row in reduced]
    except NoSolution:
        return ()
    shift = [[int(k == (i - 1) % nvars) for k in range(nvars)] for i in range(nvars)]
    return tuple([list(map(base.element_from_index, row)) for row in a] for a in (m, shift))


class ConstructionResult(Record):
    """Raw big-field generators, their descent to the base field, the Moore
    data used and the returned system of the first r+1 descended generators;
    case 1 = diagonal powers, case 2 = cyclic products."""

    __slots__ = ("case", "moore", "raw_generators", "generators", "system")

    def __init__(self, case, moore, raw_generators, generators, system):
        self.case = case
        self.moore = moore
        self.raw_generators = raw_generators
        self.generators = generators
        self.system = system


def _check_equal_span(arith, family_a, family_b):
    """Certify that both families of maps from monomials to indices are
    independent with one span: rank A = rank B = rank of both = |A|."""
    size, column = len(family_a), {}
    rows = [{column.setdefault(m, len(column)): c for m, c in f.items()}
            for f in (*family_a, *family_b)]
    if {len(arith.rref(part, len(column))[1])
            for part in (rows[:size], rows[size:], rows)} != {size}:
        raise AssertionError("descent changed the span of the family or it is dependent")


def _descend(raw, moore):
    """The descent on maps from monomials to element indices, each G_j one
    `combine`.  Cyclicity (F_i mapped to F_(i+1 mod n+1) by the q-power
    Frobenius on coefficients) makes every G_j Frobenius-fixed; the Moore
    matrix is the change of basis, so the span is unchanged."""
    arith, q, nv = moore.field.arithmetic, moore.base.order, len(raw)
    power = arith.power
    for i in range(nv):
        if {m: power(c, q) for m, c in raw[i].items()} != raw[(i + 1) % nv]:
            raise NotFrobeniusCyclic(
                "family is not cyclically permuted by the q-power Frobenius")
    orbit = _orbit(arith, moore.alpha.idx, q, nv)
    big_gens = [arith.combine([(orbit[(i + j) % nv], raw[i]) for i in range(nv)])
                for j in range(nv)]
    if any(power(c, q) != c for g in big_gens for c in g.values()):
        raise AssertionError("descent produced coefficients not fixed by Frobenius")
    _check_equal_span(arith, raw, big_gens)
    down = get_embedding(moore.base, moore.field).down_index
    return [{m: down(c) for m, c in g.items()} for g in big_gens]


def galois_descent(raw_generators, moore):
    """Base-field generators G_j = sum_i alpha^(q^(i+j)) * F_i of the span of
    a Frobenius-cyclic family of forms F_0, ..., F_n, by `_descend`."""
    raw = list(raw_generators)
    index, element = moore.field.arithmetic.index, moore.base.element_from_index
    gens = _descend([{m: index(c) for m, c in f.terms.items()} for f in raw], moore)
    return [_raw_form(moore.base, f.nvars, f.degree, {m: element(c) for m, c in g.items()})
            for f, g in zip(raw, gens)]


def _construct(moore, template, degree):
    """The raw generators F_0, ..., F_n of a template (the terms of F_0) in
    the Moore coordinates, one `_compose` of packed index maps, and their
    descent, as two tuples of forms."""
    big, base = moore.field, moore.base
    nv = big.e // base.e
    arith = big.arithmetic
    slots = _Slots.for_degree(nv, degree)
    family = [slots.pack({_shifted(m, j): arith.power(c, base.order ** j) for m, c in template})
              for j in range(nv)]
    raw = _compose(family, _moore_rows(arith, moore.alpha.idx, base.order, nv), slots, arith)
    return tuple(tuple(_raw_form(field, nv, degree, {slots.exponents(m): field.element_from_index(c)
                                                     for m, c in h.items()}) for h in maps)
                 for field, maps in ((big, raw), (base, _descend(raw, moore))))


def construct_system_with_details(p, e, n, d, r):
    """System of the first r+1 descended generators, with the construction
    details (any subspace of a K-smooth system is K-smooth; taking a prefix
    keeps the output deterministic).

    The template is y_0^d with coefficient 1, the first term of
    `fermat_form`, when the characteristic does not divide d (case 1), and
    y_0^(d-1) * y_1, that of `klein_form`, when it divides d but not n+1
    (case 2); `_construct` writes F_j in the Moore coordinates y of a normal
    element and descends the family to GF(q).
    """
    if n < 1:
        raise ValueError("ambient dimension n must be >= 1")
    if r < 1:
        raise ValueError("projective dimension r must be >= 1")
    if r > n:
        raise RankViolated(
            f"no K-smooth linear system of projective dimension {r} > n = {n} "
            "exists for any degree; the maximum is r = n")
    if d < 2:
        raise ValueError("degree must be >= 2")
    get_descriptor(p, e)  # rejects a non-prime p and e < 1
    g = gcd(d, n + 1)
    if g % p == 0:
        if p == 2 and d == 2:
            raise HypothesisViolated(
                f"characteristic 2 divides gcd(d, n+1) = {g}: for quadrics with "
                "odd n every system of projective dimension n has a singular "
                "rational member, so no construction can succeed")
        raise HypothesisViolated(
            f"characteristic {p} divides gcd(d, n+1) = {g}; the construction "
            "requires p not to divide gcd(d, n+1)")
    moore = normal_basis_search(p, e, n)
    case = 1 if d % p else 2
    raw, generators = _construct(moore, [(_first_monomial(n + 1, d, case - 1), 1)], d)
    system = LinearSystemOfForms(generators[:r + 1])
    return system, ConstructionResult(case=case, moore=moore, raw_generators=raw,
                                      generators=generators, system=system)


def construct_smooth_system(p, e, n, d, r):
    """K-smooth linear system of projective dimension r <= n over GF(p^e)."""
    return construct_system_with_details(p, e, n, d, r)[0]


def lift_to_char_zero(system):
    """Lift a system over a prime field to the rationals by taking the integer
    representative in [0, p) of every coefficient.

    Smoothness of every residue member forces smoothness of the lifted
    members; generator independence is re-checked over the rationals.  A
    lifted member reduces mod p, once scaled to a primitive integer form, to
    a nonzero residue member, which is how `is_smooth` certifies it when
    p is among its small primes.
    """
    field = system.field
    if not isinstance(field, FieldDescriptor) or field.e != 1:
        raise NotPrimeField("the characteristic-zero lift is implemented for prime fields")
    gens = [g.map_coefficients(lambda c: Fraction(c.idx), QQ)
            for g in system.generators]
    return LinearSystemOfForms(gens)


def char2_quadric_singular_point(form):
    """Rational singular point of x0^2 + G(x1, ..., xn) over GF(2^k), n odd.

    The Hessian of G is symmetric with zero diagonal, hence skew-symmetric in
    characteristic 2, and an odd skew-symmetric matrix is singular: a kernel
    vector kills every partial derivative, and t0 = sqrt(G(t)) puts the point
    on the quadric (the field is perfect, so the root is rational).
    """
    field = form.field
    if not isinstance(field, FieldDescriptor) or field.p != 2:
        raise WrongCharacteristic("this construction lives in characteristic 2")
    nv = form.nvars
    n = nv - 1
    if n < 1 or n % 2 == 0:
        raise EvenN(f"needs an odd number of trailing variables, got n = {n}")
    if form.degree != 2:
        raise ShapeViolated("the form must be a quadric")
    one = field.one()
    zero = field.zero()
    x0_square = (2,) + (0,) * n
    g_terms = {}
    saw_x0 = False
    for exps, c in form.terms.items():
        if exps[0]:
            if exps != x0_square or c != one:
                raise ShapeViolated("terms involving x0 must be exactly x0^2")
            saw_x0 = True
        else:
            g_terms[exps] = c
    if not saw_x0:
        raise ShapeViolated("the x0^2 term is missing")
    hessian = [{} for _ in range(n)]
    for exps, c in g_terms.items():
        nz = [i for i, e in enumerate(exps) if e]
        if len(nz) == 2:
            i, j = nz
            hessian[i - 1][j - 1] = hessian[j - 1][i - 1] = c.idx
    kernel = field.arithmetic.kernel(hessian, n)
    if not kernel:
        raise AssertionError("odd skew-symmetric matrix reported as nonsingular")
    t = tuple(map(field.element_from_index, kernel[0]))
    g = HomogeneousForm(field, nv, 2, g_terms)
    t0 = sqrt_char2(g.evaluate((zero,) + t))
    witness = SingularWitness(point=normalize_projective((t0,) + t),
                              field=field)
    if not witness_verifies(form, witness):
        raise AssertionError("constructed point failed re-verification")
    return witness


class SingularMemberResult(Record):
    """A rational singular member of a quadric system, its witness point, and
    which branch produced it: "kernel" when the base-point truncation kills a
    member outright, "preimage" when the member with truncation x0^2 is
    singular by the Hessian argument."""

    __slots__ = ("coefficients", "member", "witness", "branch")

    def __init__(self, coefficients, member, witness, branch):
        self.coefficients = coefficients
        self.member = member
        self.witness = witness
        self.branch = branch


def char2_find_singular_member(system):
    """Rational singular member of any n-dimensional system of quadrics over
    GF(2^k) with n odd; such a member always exists."""
    field = system.field
    if not isinstance(field, FieldDescriptor) or field.p != 2:
        raise PreconditionViolated("base field of characteristic 2 required")
    if system.degree != 2:
        raise PreconditionViolated("quadric generators required")
    nv = system.nvars
    n = nv - 1
    if n < 1 or n % 2 == 0:
        raise PreconditionViolated(f"odd n required, got n = {n}")
    if len(system.generators) != nv:
        raise PreconditionViolated(
            "projective dimension of the system must equal n")
    zero = field.zero()
    one = field.one()
    try:
        coeffs, member = singular_member_at_base_point(system)
    except PreconditionViolated:
        # T is invertible, so [T | -e_0] (-1 = 1 here) has the kernel vector (c, 1): T c = e_0
        rows = truncation_matrix(system)
        rows[0][nv] = 1
        kernel = field.arithmetic.kernel(rows, nv + 1)
        coeffs = tuple(map(field.element_from_index, kernel[-1][:nv]))
        member = system.member(coeffs)
        witness = char2_quadric_singular_point(member).for_member(coeffs)
        return SingularMemberResult(coeffs, member, witness, "preimage")
    witness = SingularWitness(point=(one,) + (zero,) * n, field=field, member=coeffs)
    return SingularMemberResult(coeffs, member, witness, "kernel")


def builtin_example_f3():
    """Built-in system of three cubics over GF(3) whose 13 rational members
    all cut out smooth plane curves, even though the characteristic divides
    both the degree and n+1."""
    f3 = get_descriptor(3)

    def form(entries):
        return HomogeneousForm(f3, 3, 3,
                               {exps: f3.from_int(c) for exps, c in entries})

    f0 = form([((3, 0, 0), 1), ((2, 1, 0), 1), ((1, 2, 0), -1), ((0, 3, 0), 1),
               ((2, 0, 1), 1), ((1, 1, 1), 1), ((0, 2, 1), 1), ((1, 0, 2), -1),
               ((0, 0, 3), 1)])
    f1 = form([((3, 0, 0), 1), ((2, 1, 0), 1), ((2, 0, 1), -1), ((1, 1, 1), -1),
               ((0, 2, 1), 1), ((0, 0, 3), 1)])
    f2 = form([((3, 0, 0), 1), ((2, 1, 0), -1), ((1, 2, 0), 1), ((0, 3, 0), 1),
               ((2, 0, 1), 1), ((1, 1, 1), 1), ((0, 2, 1), 1), ((0, 1, 2), -1)])
    return LinearSystemOfForms([f0, f1, f2])


def construction_to_json(result):
    """System JSON of the constructed system plus the construction extras:
    case tag, normal element and Moore determinant."""
    obj = system_to_json(result.system)
    obj["case"] = result.case
    obj["alpha"] = element_to_json(result.moore.alpha)
    obj["moore_det"] = element_to_json(result.moore.det)
    return obj
