"""Explicit constructions: diagonal (Fermat) and cyclic (Klein) forms, normal
bases and Moore matrices, systems of smooth hypersurfaces with Galois descent
to the base field, the characteristic-zero lift, the characteristic-2 quadric
refutation machinery, and a built-in cubic system over GF(3).
"""

from __future__ import annotations

from fractions import Fraction
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
    FieldMatrix,
    QQ,
    _first_of_full_order,
    element_to_json,
    frobenius,
    get_descriptor,
    get_embedding,
    normalize_projective,
    poly_gcd,
    sqrt_char2,
)
from .multipoly import (
    HomogeneousForm,
    LinearSystemOfForms,
    coefficient_rank,
    coefficients_fixed_by_frobenius,
    compose,
    frobenius_twist,
    system_to_json,
)
from .records import Record
from .smoothness import (
    SingularWitness,
    singular_member_at_base_point,
    truncation_matrix,
    witness_verifies,
)


def fermat_form(coefficients, degree):
    """Diagonal form c0*x0^d + c1*x1^d + ... + cn*xn^d.

    Cuts out a smooth hypersurface whenever every c_i is nonzero and the
    characteristic does not divide d (immediate from the Jacobian criterion).
    """
    cs = tuple(coefficients)
    if any(not c for c in cs):
        raise ZeroCoefficient("diagonal form needs every coefficient nonzero")
    field = cs[0].field
    nv = len(cs)
    terms = {}
    for i, c in enumerate(cs):
        exps = [0] * nv
        exps[i] = degree
        terms[tuple(exps)] = c
    return HomogeneousForm(field, nv, degree, terms)


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
    field = cs[0].field
    nv = len(cs)
    terms = []
    for i, c in enumerate(cs):
        exps = [0] * nv
        exps[i] += degree - 1
        exps[(i + 1) % nv] += 1
        terms.append((tuple(exps), c))
    return HomogeneousForm(field, nv, degree, terms)


class MooreData(Record):
    """A normal-basis element alpha of GF(q^(n+1)) over GF(q) with its Moore
    matrix A[j][i] = alpha^(q^(j+i)); row j applied to (x0, ..., xn) is the
    coordinate change y_j."""

    __slots__ = ("field", "base", "alpha", "matrix", "det")

    def __init__(self, field, base, alpha, matrix, det):
        self.field = field
        self.base = base
        self.alpha = alpha
        self.matrix = matrix
        self.det = det


def moore_matrix(alpha, e, nvars):
    """The Moore matrix A[j][i] = alpha^(q^(i+j)), indices mod nvars, of an
    element alpha of GF(q^nvars), q = p^e; it is invertible exactly when
    alpha is normal over GF(q)."""
    orbit = [alpha]
    for _ in range(nvars - 1):
        orbit.append(frobenius(orbit[-1], e))
    return FieldMatrix(alpha.field, [[orbit[(i + j) % nvars] for i in range(nvars)]
                                     for j in range(nvars)])


def normal_basis_search(p, e, n):
    """First element of GF(q^(n+1)) (canonical order, q = p^e) whose Frobenius
    orbit is a basis over GF(q), with its `moore_matrix` and the nonzero
    determinant of that; existence is the normal basis theorem.  The
    candidates are built one at a time, and each is tested by `_is_normal`,
    one gcd; the Moore matrix is built for the chosen element only."""
    base = get_descriptor(p, e)
    big = get_descriptor(p, e * (n + 1))
    for i in range(1, big.order):
        alpha = big.element_from_index(i)
        if _is_normal(alpha, base.order, n + 1):
            matrix = moore_matrix(alpha, e, n + 1)
            return MooreData(field=big, base=base, alpha=alpha, matrix=matrix, det=matrix.det())
    raise AssertionError("unreachable: normal elements always exist")


def _is_normal(alpha, q, m):
    """Whether alpha, an element of GF(q^m), is normal over GF(q): exactly
    when f = sum_i alpha^(q^i) x^(m-1-i) and x^m - 1 are coprime (Lidl and
    Niederreiter, Finite Fields, Theorem 2.39).  x - 1 divides x^m - 1, so
    the trace f(1) of alpha must not vanish; that is checked first, and is
    the whole test when m is a power of p, x^m - 1 then being (x - 1)^m."""
    orbit = [alpha]
    for _ in range(m - 1):
        orbit.append(orbit[-1] ** q)
    trace = alpha.field.zero()
    for x in orbit:
        trace = trace + x
    if not trace:
        return False
    one = alpha.field.one()
    return len(poly_gcd(orbit[::-1], [-one] + [alpha.field.zero()] * (m - 1) + [one])) == 1


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
    nvars = big.e // base.e
    a = moore_matrix(alpha, base.e, nvars)
    lam = _first_of_full_order(
        (big.element_from_index(i) for i in range(1, big.order)), big.order - 1)
    # [A | D A] reduces to [I | A^-1 D A] exactly when A is invertible
    rows = []
    for row in a.rows:
        rows.append(row + [lam * x for x in row])
        lam = frobenius(lam, base.e)
    reduced, pivots, _ = FieldMatrix(big, rows).rref()
    if pivots[:nvars] != list(range(nvars)):
        return ()
    down = get_embedding(base, big).down
    try:
        m = [[down(x) for x in row[nvars:]] for row in reduced]
    except NoSolution:
        return ()
    zero, one = base.zero(), base.one()
    shift = [[one if k == (i - 1) % nvars else zero for k in range(nvars)]
             for i in range(nvars)]
    return FieldMatrix(base, m), FieldMatrix(base, shift)


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


def _check_equal_span(family_a, family_b):
    """Certify that both families are independent with one span:
    rank A = rank B = rank of both families together = the size of A."""
    both = list(family_a) + list(family_b)
    if {coefficient_rank(f) for f in (family_a, family_b, both)} != {len(family_a)}:
        raise AssertionError("descent changed the span of the family or it is dependent")


def galois_descent(raw_generators, moore):
    """Base-field generators G_j = sum_i alpha^(q^(i+j)) * F_i of the span of
    a Frobenius-cyclic family F_0, ..., F_n over GF(q^(n+1)).

    Cyclicity (F_i mapped to F_(i+1 mod n+1) by the q-power Frobenius on
    coefficients) makes every G_j Frobenius-fixed; the Moore matrix is the
    change of basis, so the span is unchanged.
    """
    raw = list(raw_generators)
    nv = len(raw)
    base = moore.base
    big = moore.field
    for i in range(nv):
        if frobenius_twist(raw[i], base.e) != raw[(i + 1) % nv]:
            raise NotFrobeniusCyclic(
                "family is not cyclically permuted by the q-power Frobenius")
    orbit = moore.matrix.rows[0]
    big_gens = []
    for j in range(nv):
        g = HomogeneousForm.zero(big, raw[0].nvars, raw[0].degree)
        for i in range(nv):
            g = g + raw[i].scale(orbit[(i + j) % nv])
        big_gens.append(g)
    for g in big_gens:
        if not coefficients_fixed_by_frobenius(g, base.e):
            raise AssertionError("descent produced coefficients not fixed by Frobenius")
    _check_equal_span(raw, big_gens)
    emb = get_embedding(base, big)
    return [g.map_coefficients(emb.down, base) for g in big_gens]


def construct_system_with_details(p, e, n, d, r):
    """System of the first r+1 descended generators, with the construction
    details (any subspace of a K-smooth system is K-smooth; taking a prefix
    keeps the output deterministic).

    The template is `fermat_form` with all coefficients 1 over GF(q^(n+1))
    when the characteristic does not divide d (case 1) and `klein_form` when
    it divides d but not n+1 (case 2).  Raw generator j is the template's
    j-th term written in the Moore coordinates y_i of a normal element (x_i
    replaced by row i of the Moore matrix, the image of each monomial built
    once for the whole template): y_j^d in case 1 and
    y_j^(d-1) * y_(j+1) in case 2, so a member with all-nonzero big-field
    coefficients is a template with those coefficients in y.  The terms come
    in the cyclic order the Frobenius permutes, and Galois descent turns the
    family into generators over GF(q).
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
    big = moore.field
    ones = (big.one(),) * (n + 1)
    case, template = (1, fermat_form(ones, d)) if d % p else (2, klein_form(ones, d))
    raw = tuple(compose([HomogeneousForm(big, n + 1, d, {m: c})
                         for m, c in template.terms.items()], moore.matrix))
    generators = tuple(galois_descent(raw, moore))
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
    hessian = [[zero] * n for _ in range(n)]
    for exps, c in g_terms.items():
        nz = [i for i, e in enumerate(exps) if e]
        if len(nz) == 2:
            i, j = nz
            hessian[i - 1][j - 1] = c
            hessian[j - 1][i - 1] = c
    kernel = FieldMatrix(field, hessian).kernel()
    if not kernel:
        raise AssertionError("odd skew-symmetric matrix reported as nonsingular")
    t = kernel[0]
    g = HomogeneousForm(field, nv, 2, g_terms)
    t0 = sqrt_char2(g.evaluate((zero,) + tuple(t)))
    witness = SingularWitness(point=normalize_projective((t0,) + tuple(t)),
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
        coeffs = truncation_matrix(system).solve([one] + [zero] * n)
        member = system.member(coeffs)
        witness = char2_quadric_singular_point(member).for_member(tuple(coeffs))
        return SingularMemberResult(tuple(coeffs), member, witness, "preimage")
    witness = SingularWitness(point=(one,) + (zero,) * n, field=field,
                              member=tuple(coeffs))
    return SingularMemberResult(tuple(coeffs), member, witness, "kernel")


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
