"""Smoothness decision tests: Jacobian generators, certificate vs search
agreement, the base-point truncation and its kernel, singular member
extraction and full system verification."""

import itertools
import json
import random
from array import array
from fractions import Fraction
from math import gcd

import pytest

from form_helpers import x0_truncation
from ksmooth.constructions import (
    builtin_example_f3,
    construct_smooth_system,
    construct_system_with_details,
    galois_descent,
    lift_to_char_zero,
    moore_matrix,
    moore_symmetries,
    normal_basis_search,
)
from ksmooth.errors import PreconditionViolated
from ksmooth.errors import DescriptorMismatch
from ksmooth.arithmetic import IndexArithmetic
from ksmooth.fields import (
    QQ,
    FieldDescriptor,
    FieldElement,
    enumerate_projective_points,
    get_descriptor,
    get_embedding,
    normalize_projective,
)
from ksmooth import groebner, smoothness
from ksmooth.groebner import (
    basis_to_json,
    buchberger,
    certificate_basis,
    is_projectively_empty,
    normal_form,
)
from ksmooth.multipoly import (
    HomogeneousForm,
    LinearSystemOfForms,
    compose,
    form_from_json,
    form_to_json,
    monomial_key,
    monomials_of_degree,
    random_form,
    random_system,
)
from ksmooth.smoothness import (
    Singular,
    SingularWitness,
    Smooth,
    VerifyReport,
    _line_charts,
    _scan_lines,
    is_smooth,
    jacobian_generators,
    search_singular_point,
    singular_member_at_base_point,
    verify_system_K_smooth,
    witness_to_json,
    witness_verifies,
)

F2 = get_descriptor(2)
F3 = get_descriptor(3)
F4 = get_descriptor(2, 2)
F5 = get_descriptor(5)
FIELDS = {2: F2, 3: F3, 4: F4}


def form(field, nvars, degree, entries):
    return HomogeneousForm(field, nvars, degree,
                           {tuple(e): field.from_int(c) for e, c in entries})


def invertible(field, rows):
    """Whether a square matrix of elements has a pivot in every column of
    the `rref` of its index rows."""
    rows = [{k: x.idx for k, x in enumerate(row) if x} for row in rows]
    return len(field.arithmetic.rref(rows, len(rows))[1]) == len(rows)


def fermat(field, nvars, degree, coeffs=None):
    terms = {}
    for i in range(nvars):
        e = [0] * nvars
        e[i] = degree
        terms[tuple(e)] = field.one() if coeffs is None else coeffs[i]
    return HomogeneousForm(field, nvars, degree, terms)


def primitive_reduction(f, ell):
    """A rational form scaled to integers with no common factor, mod ell."""
    den = 1
    for c in f.terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    ints = {m: int(c * den) for m, c in f.terms.items()}
    content = 0
    for v in ints.values():
        content = gcd(content, v)
    field = get_descriptor(ell)
    return HomogeneousForm(field, f.nvars, f.degree,
                           {m: field.from_int(v // content) for m, v in ints.items()})


class TestJacobianGenerators:
    def test_fermat_cubic_over_f2(self):
        F = fermat(F2, 3, 3)
        gens = jacobian_generators(F)
        assert gens[0] == F
        assert gens[1:] == [form(F2, 3, 2, [((2, 0, 0), 1)]),
                            form(F2, 3, 2, [((0, 2, 0), 1)]),
                            form(F2, 3, 2, [((0, 0, 2), 1)])]

    def test_cyclic_quadric_over_f2(self):
        F = form(F2, 3, 2, [((1, 1, 0), 1), ((0, 1, 1), 1), ((1, 0, 1), 1)])
        gens = jacobian_generators(F)
        assert gens == [F,
                        form(F2, 3, 1, [((0, 1, 0), 1), ((0, 0, 1), 1)]),
                        form(F2, 3, 1, [((1, 0, 0), 1), ((0, 0, 1), 1)]),
                        form(F2, 3, 1, [((1, 0, 0), 1), ((0, 1, 0), 1)])]

    def test_vanishing_partials_pruned(self):
        F = form(F2, 2, 2, [((2, 0), 1)])
        assert jacobian_generators(F) == [F]


class TestIsSmooth:
    def test_fermat_cubic_smooth_over_f2(self):
        v = is_smooth(fermat(F2, 3, 3))
        assert isinstance(v, Smooth)

    def test_product_of_coordinates_singular(self):
        v = is_smooth(form(F2, 3, 2, [((1, 1, 0), 1)]))
        assert isinstance(v, Singular)
        assert v.witness.point == (F2.zero(), F2.zero(), F2.one())

    def test_double_hyperplane_singular(self):
        # x0^2 + x1^2 + x2^2 = (x0+x1+x2)^2 over GF(2)
        v = is_smooth(fermat(F2, 3, 2))
        assert isinstance(v, Singular)
        # first point of the hyperplane x0+x1+x2 = 0 in enumeration order
        assert v.witness.point == (F2.zero(), F2.one(), F2.one())
        assert witness_verifies(fermat(F2, 3, 2), v.witness)

    def test_rejects_zero_form(self):
        for field in (F2, QQ):
            with pytest.raises(ValueError):
                is_smooth(HomogeneousForm.zero(field, 3, 2))

    @pytest.mark.parametrize("field", [F2, F3, QQ], ids=["gf2", "gf3", "qq"])
    def test_hyperplane_certificate_holds_a_constant(self, field):
        one = field.from_int(1)
        plane = HomogeneousForm(field, 3, 1, {(1, 0, 0): one, (0, 1, 0): one,
                                              (0, 0, 1): one})
        v = is_smooth(plane)
        assert isinstance(v, Smooth)
        assert any(set(terms) == {(0, 0, 0)} for terms in v.certificate.elements)

    def test_witness_cap_failure_is_loud(self):
        from ksmooth.errors import WitnessNotFoundWithinCap
        # singular locus is a conjugate point pair in GF(4), invisible at cap 1
        double = form(F2, 2, 4, [((4, 0), 1), ((2, 2), 1), ((0, 4), 1)])
        with pytest.raises(WitnessNotFoundWithinCap):
            is_smooth(double, witness_cap=1)
        v = is_smooth(double, witness_cap=2)
        assert isinstance(v, Singular) and v.witness.field.e == 2

    def test_singular_over_rationals_has_no_witness(self):
        from fractions import Fraction
        from ksmooth.fields import QQ
        f = HomogeneousForm(QQ, 3, 2, {(2, 0, 0): Fraction(1)})
        v = is_smooth(f)
        assert isinstance(v, Singular) and v.witness is None

    def test_smooth_over_rationals(self):
        from fractions import Fraction
        from ksmooth.fields import QQ
        f = HomogeneousForm(QQ, 3, 2, {(2, 0, 0): Fraction(1),
                                       (0, 2, 0): Fraction(1),
                                       (0, 0, 2): Fraction(1)})
        assert isinstance(is_smooth(f), Smooth)

    def test_every_singular_witness_reverifies(self):
        rng = random.Random(40)
        checked = 0
        while checked < 40:
            q = (2, 3, 4)[checked % 3]
            f = random_form(FIELDS[q], 3, 2 + checked % 2, rng)
            v = is_smooth(f)
            if isinstance(v, Singular):
                assert witness_verifies(f, v.witness)
            checked += 1


class TestCertificateStop:
    """is_smooth stops Buchberger once every variable has a pure-power
    leading monomial; the stop must never change a verdict."""

    @staticmethod
    def _forms():
        rng = random.Random(17)
        out = []
        for field in (F2, F3, F4, F5):
            for nvars, degree in ((2, 3), (3, 2), (3, 3), (4, 2)):
                out.append(random_form(field, nvars, degree, rng))
            linear = random_form(field, 3, 1, rng)
            out.append(linear ** 2 * random_form(field, 3, 1, rng))
        for nvars, degree in ((2, 3), (3, 2), (3, 3), (4, 2)):
            terms = {m: Fraction(rng.randint(-2, 2))
                     for m in monomials_of_degree(nvars, degree)}
            out.append(HomogeneousForm(QQ, nvars, degree,
                                       {m: c for m, c in terms.items() if c}))
        out.append(HomogeneousForm(QQ, 3, 2, {(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(-3)}))
        return out

    def test_verdicts_agree_with_the_full_reduced_basis(self):
        verdicts = []
        for f in self._forms():
            empty = is_projectively_empty(buchberger(jacobian_generators(f)))
            verdicts.append(isinstance(is_smooth(f), Smooth))
            assert verdicts[-1] == empty, str(f)
        assert True in verdicts and False in verdicts

    def test_certificate_lies_in_the_ideal_and_covers_every_variable(self):
        for f in self._forms():
            verdict = is_smooth(f)
            if not isinstance(verdict, Smooth):
                continue
            field = verdict.certificate.field
            if field != f.field:
                # a rational form certified by its reduction mod a prime
                assert f.field == QQ and field.e == 1, str(f)
                f = primitive_reduction(f, field.p)
            full = buchberger(jacobian_generators(f))
            covered = set()
            for terms in verdict.certificate.elements:
                assert not normal_form(dict(terms), full)
                lead = max(terms, key=monomial_key)
                if sum(1 for e in lead if e) == 1:
                    covered.add(next(i for i, e in enumerate(lead) if e))
            assert covered == set(range(f.nvars)), str(f)

    def test_reductions_on_a_fixed_hard_member(self, monkeypatch):
        # member #20 of the (3,1,3,5) system, in canonical member order; the
        # product criterion alone reduced 116 pairs, the chain criterion
        # leaves 45
        system = construct_smooth_system(3, 1, 3, 5, 3)
        member = system.member(list(enumerate_projective_points(F3, system.dim))[20])
        calls = 0
        reduce_full = groebner._reduce_full

        def counted(*args):
            nonlocal calls
            calls += 1
            return reduce_full(*args)

        monkeypatch.setattr(groebner, "_reduce_full", counted)
        assert isinstance(is_smooth(member), Smooth)
        assert calls == 45

    def test_only_pairs_are_pushed_on_a_heap(self, monkeypatch):
        # the same member: every S-pair is reduced on a list by rank, so the
        # one heap of the run is that of the queued pairs, each pushed once
        system = construct_smooth_system(3, 1, 3, 5, 3)
        member = system.member(list(enumerate_projective_points(F3, system.dim))[20])
        pushed = []
        heappush = groebner.heappush

        def counted(heap, item):
            pushed.append(item)
            heappush(heap, item)

        monkeypatch.setattr(groebner, "heappush", counted)
        assert isinstance(is_smooth(member), Smooth)
        assert pushed and all(isinstance(item, tuple) and len(item) == 3 for item in pushed)
        assert len({(i, j) for _, i, j in pushed}) == len(pushed)

    def test_member_of_the_2_1_4_4_system_is_certified(self):
        system = construct_smooth_system(2, 1, 4, 4, 4)
        member = system.member(next(iter(enumerate_projective_points(F2, system.dim))))
        verdict = is_smooth(member)
        assert isinstance(verdict, Smooth)
        assert is_projectively_empty(verdict.certificate)


class TestModularRoute:
    """Over Q, `is_smooth` certifies a form by its primitive reduction mod a
    small prime when one is smooth and runs Buchberger over Q otherwise;
    the verdict must be that of Buchberger over Q either way."""

    @staticmethod
    def _fraction_route(f):
        return is_projectively_empty(buchberger(jacobian_generators(f)))

    @staticmethod
    def _qq(nvars, degree, entries):
        return HomogeneousForm(QQ, nvars, degree,
                               {tuple(e): Fraction(c) for e, c in entries})

    def test_verdicts_equal_the_fraction_route(self):
        rng = random.Random(1414)
        forms = []
        for nvars, degree in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2)) * 3:
            terms = {m: Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
                     for m in monomials_of_degree(nvars, degree)}
            forms.append(HomogeneousForm(QQ, nvars, degree,
                                         {m: c for m, c in terms.items() if c}))
            # singular along the hyperplane L = 0
            linear = HomogeneousForm(QQ, nvars, 1, {m: Fraction(rng.randint(-3, 3))
                                                    for m in monomials_of_degree(nvars, 1)})
            if linear:
                forms.append(linear ** 2 * HomogeneousForm(
                    QQ, nvars, degree - 1,
                    {m: Fraction(rng.randint(1, 3)) for m in monomials_of_degree(nvars, degree - 1)}))
        verdicts = []
        for f in forms:
            if not f:
                continue
            verdict = is_smooth(f)
            verdicts.append(isinstance(verdict, Smooth))
            assert verdicts[-1] == self._fraction_route(f), str(f)
            if isinstance(verdict, Singular):
                assert verdict.witness is None
        assert True in verdicts and False in verdicts

    def test_singular_mod_every_prime_falls_back_to_q(self):
        # 210 = 2 * 3 * 5 * 7: x1^2 + x2^2 mod 3, 5 and 7 is a cone, and
        # every ternary quadric is singular mod 2
        f = self._qq(3, 2, [((2, 0, 0), 210), ((0, 2, 0), 1), ((0, 0, 2), 1)])
        verdict = is_smooth(f)
        assert isinstance(verdict, Smooth)
        assert verdict.certificate.field == QQ

    def test_singular_mod_2_and_3_but_smooth_mod_5(self):
        f = self._qq(3, 2, [((2, 0, 0), 6), ((0, 2, 0), 1), ((0, 0, 2), 1)])
        verdict = is_smooth(f)
        assert isinstance(verdict, Smooth)
        assert verdict.certificate.field == F5
        assert self._fraction_route(f)

    @pytest.mark.parametrize("scale", [Fraction(3), Fraction(1, 6)], ids=["3", "1/6"])
    def test_scaled_member_gets_the_same_certificate(self, scale):
        system = lift_to_char_zero(construct_smooth_system(3, 1, 2, 4, 2))
        member = system.member([Fraction(c) for c in (2, -1, 3)])
        verdict = is_smooth(member)
        assert isinstance(verdict, Smooth) and verdict.certificate.field.p in (2, 3)
        assert is_smooth(member.scale(scale)) == verdict

    def test_lifted_members_are_certified_mod_2_or_3(self):
        # the fixed (3,1,3,4) member of the lift_rational benchmark, then
        # (2,1,3,5) members that take about a minute each over Q
        members = [lift_to_char_zero(construct_smooth_system(3, 1, 3, 4, 3)).member(
            [Fraction(c) for c in (0, -2, 1, 0)])]
        system = lift_to_char_zero(construct_smooth_system(2, 1, 3, 5, 3))
        rng = random.Random(5)
        for _ in range(3):
            members.append(system.member([Fraction(rng.randint(-5, 5)) for _ in range(4)]))
        for member in members:
            verdict = is_smooth(member)
            assert isinstance(verdict, Smooth)
            assert verdict.certificate.field in (F2, F3)

    def test_square_of_a_variable_is_singular_from_the_q_run(self, monkeypatch):
        primes = []
        run = groebner._run

        def recorded(basis, arith, *args):
            primes.append(arith.field.p)
            return run(basis, arith, *args)

        monkeypatch.setattr(groebner, "_run", recorded)
        assert is_smooth(self._qq(3, 2, [((2, 0, 0), 1)])) == Singular(None)
        # a run mod 2, 3, 5 and 7, then the run over Q (p = 0)
        assert primes == [2, 3, 5, 7, 0]


# the lifted systems of the lift_rational benchmark: "f3" is the built-in example
LIFT_SPECS = ("f3", (2, 1, 2, 4), (3, 1, 2, 4), (2, 1, 3, 3), (2, 1, 4, 3), (3, 1, 3, 4))


class TestIntegerMembers:
    """Over Q `LinearSystemOfForms.member` combines integer rows and hands
    its member the primitive integer terms; any other rational form works
    them out on first read.  `is_smooth` must give the same verdict and the
    same certificate bytes either way."""

    @pytest.mark.parametrize("spec", LIFT_SPECS, ids=str)
    def test_member_and_its_json_copy_get_the_same_certificate(self, spec):
        system = (builtin_example_f3() if spec == "f3"
                  else construct_smooth_system(*spec, spec[2]))
        lifted = lift_to_char_zero(system)
        rng = random.Random(f"integer-members/{spec}")
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in lifted.generators]
        coeffs[0] += not any(coeffs)
        member = lifted.member(coeffs)
        assert member == sum((g.scale(a) for a, g in zip(coeffs, lifted.generators)),
                             HomogeneousForm.zero(QQ, member.nvars, member.degree))
        copy = form_from_json(form_to_json(member))
        assert copy == member and not hasattr(copy, "_primitive")
        verdict, copied = is_smooth(member), is_smooth(copy)
        assert isinstance(verdict, Smooth) and isinstance(copied, Smooth)
        assert (json.dumps(basis_to_json(verdict.certificate))
                == json.dumps(basis_to_json(copied.certificate)))
        # the carried terms: coprime ints, a positive multiple of the terms
        ints = member.primitive_integer_terms
        assert ints == copy.primitive_integer_terms
        assert list(ints) == list(member.terms)
        assert all(type(v) is int for v in ints.values()) and gcd(*ints.values()) == 1
        assert len({v / member.terms[m] for m, v in ints.items()}) == 1
        assert next(iter(ints.values())) / next(iter(member.terms.values())) > 0


def _hash_or_error(x):
    try:
        return hash(x)
    except TypeError as exc:
        return type(exc), str(exc)


def _fixed_members():
    """The fixed lifted (3,1,3,4) member of the lift_rational benchmark, and
    member #7 of the (3,1,4,3) system over GF(3), of the r = 2 (2,2,4,4)
    system over GF(4) and of the (3,2,2,4) system over GF(9)."""
    lifted = lift_to_char_zero(construct_smooth_system(3, 1, 3, 4, 3))
    members = {"lift3134": lifted.member([Fraction(c) for c in (0, -2, 1, 0)])}
    for name, spec in (("gf3-member-3143", (3, 1, 4, 3, 4)), ("gf4-member-2244", (2, 2, 4, 4, 2)),
                       ("gf9-member-3224", (3, 2, 2, 4, 2))):
        system = construct_smooth_system(*spec)
        points = enumerate_projective_points(system.field, system.dim)
        members[name] = system.member(next(itertools.islice(points, 7, None)))
    return members


class TestCertificateOnRead:
    """`is_smooth` takes the Jacobian forms on run coefficients and builds
    no field element until its certificate's `elements` are read; the
    certificate then reads exactly as `certificate_basis` of
    `jacobian_generators` of the form it certifies."""

    @staticmethod
    def _count_elements(monkeypatch):
        """A list whose length is the number of FieldElements built or
        looked up by index from now on."""
        calls = []
        init, from_index = FieldElement.__init__, FieldDescriptor.element_from_index

        def counting_init(self, *args):
            calls.append(args)
            init(self, *args)

        def counting_from_index(self, idx):
            calls.append(idx)
            return from_index(self, idx)

        monkeypatch.setattr(FieldElement, "__init__", counting_init)
        monkeypatch.setattr(FieldDescriptor, "element_from_index", counting_from_index)
        return calls

    @staticmethod
    def _certified_form(form, certificate):
        """The form the certificate certifies: the form, or over Q the
        primitive reduction mod the certificate's l."""
        if form.field is QQ and certificate.field is not QQ:
            return primitive_reduction(form, certificate.field.p)
        return form

    def _assert_reads_as_certificate_basis(self, form):
        eager = certificate_basis(jacobian_generators(self._certified_form(
            form, is_smooth(form).certificate)))
        # a fresh certificate for each read, as each read unpacks it
        assert is_smooth(form).certificate == eager
        assert eager == is_smooth(form).certificate
        assert _hash_or_error(is_smooth(form).certificate) == _hash_or_error(eager)
        assert repr(is_smooth(form).certificate) == repr(eager)
        assert (json.dumps(basis_to_json(is_smooth(form).certificate))
                == json.dumps(basis_to_json(eager)))
        assert is_smooth(form) == Smooth(eager)

    @pytest.mark.parametrize("name", ["lift3134", "gf3-member-3143", "gf4-member-2244",
                                      "gf9-member-3224"])
    def test_no_field_element_before_the_certificate_is_read(self, name, monkeypatch):
        form = _fixed_members()[name]
        for ell in (2, 3, 5, 7):
            get_descriptor(ell)
        built = self._count_elements(monkeypatch)
        verdict = is_smooth(form)
        assert isinstance(verdict, Smooth)
        assert verdict.certificate.field in (F2, F3, F4, get_descriptor(3, 2))
        assert built == []
        assert verdict.certificate.elements
        assert built
        monkeypatch.undo()
        self._assert_reads_as_certificate_basis(form)

    @staticmethod
    def _smooth_cubic(field, rng):
        """A smooth plane cubic among seeded random ones."""
        while not isinstance(is_smooth(form := random_form(field, 3, 3, rng)), Smooth):
            pass
        return form

    @pytest.mark.parametrize("field", [F4, get_descriptor(2, 17)], ids=str)
    def test_no_field_element_from_wire_to_verdict(self, field, monkeypatch):
        wire = form_to_json(self._smooth_cubic(field, random.Random(0)))
        built = self._count_elements(monkeypatch)
        assert isinstance(is_smooth(form_from_json(wire)), Smooth)
        assert built == []

    @pytest.mark.parametrize("field", [F4, get_descriptor(2, 17)], ids=str)
    def test_no_field_element_from_member_to_verdict(self, field, monkeypatch):
        rng = random.Random(1)
        system = LinearSystemOfForms([self._smooth_cubic(field, rng) for _ in range(2)])
        pencil = [(field.one(), field.element_from_index(i)) for i in range(1, 4)]
        coeffs = next(c for c in pencil if isinstance(is_smooth(system.member(c)), Smooth))
        built = self._count_elements(monkeypatch)
        assert isinstance(is_smooth(system.member(coeffs)), Smooth)
        assert built == []

    @pytest.mark.parametrize("field", [F4, get_descriptor(2, 17)], ids=str)
    def test_no_field_element_in_products_and_partials(self, field, monkeypatch):
        rng = random.Random(2)
        linear, rest = random_form(field, 4, 1, rng), random_form(field, 4, 2, rng)
        built = self._count_elements(monkeypatch)
        gens = jacobian_generators(linear ** 2 * rest)
        assert built == []
        monkeypatch.undo()
        # L^2 G is singular along L = 0, so its Jacobian ideal has zeros
        assert len(gens) > 1
        assert not is_projectively_empty(buchberger(gens))

    @pytest.mark.parametrize("field", [F2, F3, F5, F4, get_descriptor(3, 2)], ids=str)
    def test_seeded_forms_over_finite_fields(self, field):
        rng = random.Random(41)
        smooth = 0
        for _ in range(12):
            form = random_form(field, 3, 3, rng)
            if isinstance(is_smooth(form), Smooth):
                smooth += 1
                self._assert_reads_as_certificate_basis(form)
        assert smooth

    def test_seeded_forms_over_q(self):
        # certified by a reduction mod 2, 3, 5 or 7, or by the run over Q
        rng = random.Random(42)
        forms = [HomogeneousForm(QQ, 3, 2, {(2, 0, 0): Fraction(210), (0, 2, 0): Fraction(1),
                                            (0, 0, 2): Fraction(1)})]
        for _ in range(10):
            forms.append(HomogeneousForm(QQ, 3, 3, {
                m: c for m in monomials_of_degree(3, 3)
                if (c := Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))))}))
        fields = set()
        for form in forms:
            if isinstance(is_smooth(form), Smooth):
                fields.add(is_smooth(form).certificate.field)
                self._assert_reads_as_certificate_basis(form)
        assert QQ in fields and fields & {F2, F3, F5}

    @pytest.mark.parametrize("field", [F2, F3, F4, get_descriptor(3, 2), get_descriptor(2, 17),
                                       QQ], ids=str)
    def test_zero_form_is_an_error(self, field):
        with pytest.raises(ValueError):
            is_smooth(HomogeneousForm.zero(field, 3, 2))


class TestSearchSingularPoint:
    def test_product_of_coordinates(self):
        w = search_singular_point(form(F2, 3, 2, [((1, 1, 0), 1)]), 1)
        assert w.point == (F2.zero(), F2.zero(), F2.one())

    def test_smooth_form_has_no_witness_anywhere(self):
        assert search_singular_point(fermat(F2, 3, 3), 4) is None

    def test_quadric_with_rational_singularity(self):
        F = form(F2, 4, 2, [((2, 0, 0, 0), 1), ((0, 1, 1, 0), 1),
                            ((0, 0, 0, 2), 1)])
        w = search_singular_point(F, 1)
        assert w.point == (F2.one(), F2.zero(), F2.zero(), F2.one())

    def test_conjugate_line_pair_singular_at_rational_vertex(self):
        # x1^2 + x1x2 + x2^2 splits into conjugate lines through [1:0:0]
        F = form(F2, 3, 2, [((0, 2, 0), 1), ((0, 1, 1), 1), ((0, 0, 2), 1)])
        w = search_singular_point(F, 1)
        assert w is not None and w.field is F2
        assert w.point == (F2.one(), F2.zero(), F2.zero())

    def test_witness_found_only_in_an_extension(self):
        # (x0^2 + x0x1 + x1^2)^2: every partial vanishes identically, so the
        # singular locus is the conjugate point pair in GF(4)
        double = form(F2, 2, 4, [((4, 0), 1), ((2, 2), 1), ((0, 4), 1)])
        assert search_singular_point(double, 1) is None
        w = search_singular_point(double, 2)
        assert w is not None and w.field == F4
        u = F4.element([0, 1])
        assert w.point == (F4.one(), u)
        assert witness_verifies(double, w)


class TestWitnessVerifies:
    PRODUCT = form(F2, 3, 2, [((1, 1, 0), 1)])

    def test_point_off_the_hypersurface(self):
        point = (F2.one(), F2.one(), F2.zero())
        assert not witness_verifies(self.PRODUCT, SingularWitness(point, F2))

    def test_smooth_point_on_the_hypersurface(self):
        # x0*x1 vanishes at [1:0:0], its partial x0 does not
        point = (F2.one(), F2.zero(), F2.zero())
        assert not self.PRODUCT.evaluate(point)
        assert not witness_verifies(self.PRODUCT, SingularWitness(point, F2))
        assert witness_verifies(self.PRODUCT,
                                SingularWitness((F2.zero(), F2.zero(), F2.one()), F2))

    def test_another_forms_witness_over_an_extension(self):
        double = form(F2, 2, 4, [((4, 0), 1), ((2, 2), 1), ((0, 4), 1)])
        w = search_singular_point(double, 2)
        assert w.field == F4 and witness_verifies(double, w)
        assert not witness_verifies(fermat(F2, 2, 3), w)

    def test_rejects_zero_form(self):
        with pytest.raises(ValueError):
            witness_verifies(HomogeneousForm.zero(F2, 3, 2),
                             SingularWitness((F2.zero(), F2.zero(), F2.one()), F2))

    def test_is_smooth_checks_the_search_witness(self, monkeypatch):
        # x0*x1 is singular only at [0:0:1]; a search that returned [1:0:0],
        # a smooth point of it, must not be trusted
        point = (F2.one(), F2.zero(), F2.zero())
        monkeypatch.setattr(smoothness, "search_singular_point",
                            lambda form, cap: SingularWitness(point, F2))
        with pytest.raises(AssertionError, match="fails direct evaluation"):
            is_smooth(self.PRODUCT)
        with pytest.raises(AssertionError, match="fails direct evaluation"):
            verify_system_K_smooth(LinearSystemOfForms([self.PRODUCT]))


def point_scan(form, max_ext, skip_apex=False):
    """The search done point by point: every point of
    `enumerate_projective_points` at each level, F and its partials
    evaluated at each.  Returns (point, field) or None; `skip_apex` leaves
    out the first point, (0, ..., 0, 1)."""
    gens = [form] + [form.partial_derivative(i) for i in range(form.nvars)]
    for k in range(1, max_ext + 1):
        desc = get_descriptor(form.field.p, form.field.e * k)
        gk = gens if k == 1 else [g.embed(get_embedding(form.field, desc)) for g in gens]
        points = enumerate_projective_points(desc, form.nvars - 1)
        if skip_apex:
            next(points)
        for point in points:
            if all(not g.evaluate(point) for g in gk):
                return point, desc
    return None


def line_scan(form, max_ext):
    w = search_singular_point(form, max_ext)
    return None if w is None else (w.point, w.field)


class TestLineScanMatchesPointScan:
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_seeded_forms(self, q):
        field = {**FIELDS, 5: F5}[q]
        rng = random.Random(800 + q)
        found = 0
        for nvars in (1, 2, 3, 4):
            # every level up to the cap has at most ~1000 points
            cap = max(k for k in range(1, 4) if k == 1 or q ** (k * (nvars - 1)) <= 1024)
            for d in (2, 3, 4):
                for _ in range(3):
                    f = random_form(field, nvars, d, rng)
                    want = point_scan(f, cap)
                    assert line_scan(f, cap) == want, (str(f), cap)
                    found += want is not None
        assert found

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_squared_irreducible_quadratics(self, q):
        # Q^2 for an irreducible binary quadratic Q in random coordinates:
        # singular exactly at a conjugate pair of points over GF(q^2)
        field = {**FIELDS, 5: F5}[q]
        rng = random.Random(900 + q)
        els = field.elements()
        for _ in range(3):
            a, b = rng.choice(els), rng.choice(els)
            while any(not t * t + a * t + b for t in els):
                a, b = rng.choice(els), rng.choice(els)
            rows = [[rng.choice(els) for _ in range(2)] for _ in range(2)]
            while not invertible(field, rows):
                rows = [[rng.choice(els) for _ in range(2)] for _ in range(2)]
            quad = HomogeneousForm(field, 2, 2, {(2, 0): field.one(), (1, 1): a, (0, 2): b})
            f = quad.substitute_linear(rows) ** 2
            want = point_scan(f, 3)
            assert want is not None and want[1] == get_descriptor(field.p, 2 * field.e)
            assert line_scan(f, 3) == want

    def test_form_singular_along_a_line_through_the_apex(self):
        # x0 * x1^2 over GF(3) is singular along x1 = 0, which holds
        # (0, 0, 1) and every (1, 0, t): the apex is found first, and on
        # the prefix (1, 0) every restriction is zero, so the gcd is zero
        f = form(F3, 3, 3, [((1, 2, 0), 1)])
        assert line_scan(f, 2) == point_scan(f, 2) == ((F3.zero(), F3.zero(), F3.one()), F3)
        first = point_scan(f, 1, skip_apex=True)[0]
        assert first == (F3.one(), F3.zero(), F3.zero())
        assert _scan_lines(F3.arithmetic, _line_charts(f)) == tuple(x.idx for x in first)

    def test_gcd_without_a_root_at_level_one(self):
        # (x0^2 + x0x1 + x1^2)^2 over GF(2): on the only line the gcd is
        # 1 + t^2 + t^4, with no root in GF(2); the witness is in GF(4)
        double = form(F2, 2, 4, [((4, 0), 1), ((2, 2), 1), ((0, 4), 1)])
        assert line_scan(double, 1) is None
        want = point_scan(double, 2)
        assert want is not None and want[1] == F4
        assert line_scan(double, 2) == want

    @pytest.mark.parametrize("q,d,cap,count", [(2, 3, 3, 100), (2, 4, 3, 100), (3, 3, 3, 30),
                                               (3, 4, 2, 60), (4, 3, 2, 70)])
    def test_ternary_witness_on_a_prefix_off_the_base_field(self, q, d, cap, count):
        # seeded ternary forms, among them some whose first witness lies at
        # level >= 2 on a prefix with a coordinate outside GF(q): there the
        # scan skips the lines of conjugate prefixes and of GF(q)-prefixes
        field = FIELDS[q]
        rng = random.Random(1000 + 10 * q + d)
        off_base = 0
        for _ in range(count):
            f = random_form(field, 3, d, rng)
            want = point_scan(f, cap)
            assert line_scan(f, cap) == want, str(f)
            if want is not None and want[1] != field:
                off_base += any(x ** q != x for x in want[0][:-1])
        assert off_base

    def test_only_singular_point_is_the_apex(self):
        # x0^2 + x1^2 over GF(3): the gradient (2x0, 2x1, 0) vanishes only
        # where x0 = x1 = 0
        f = form(F3, 3, 2, [((2, 0, 0), 1), ((0, 2, 0), 1)])
        apex = ((F3.zero(), F3.zero(), F3.one()), F3)
        assert line_scan(f, 2) == point_scan(f, 2) == apex
        assert point_scan(f, 2, skip_apex=True) is None
        assert _scan_lines(F3.arithmetic, _line_charts(f)) is None


class TestSearchLevels:
    def test_binary_form_takes_its_gcds_at_level_one(self, monkeypatch):
        # the one line (1, t) of a binary form lies over GF(q), so level 1
        # decides it: a squarefree cubic ends there, and the square of an
        # irreducible quadratic keeps its gcd for the root search in GF(4)
        seen = []
        real = smoothness._restricted_gcd

        def counted(arith, groups, values):
            seen.append(arith.field)
            return real(arith, groups, values)
        monkeypatch.setattr(smoothness, "_restricted_gcd", counted)
        cubic = form(F2, 2, 3, [((3, 0), 1), ((1, 2), 1), ((0, 3), 1)])
        assert search_singular_point(cubic, 9) is None
        assert seen and set(seen) == {F2}
        del seen[:]
        double = form(F2, 2, 4, [((4, 0), 1), ((2, 2), 1), ((0, 4), 1)])
        w = search_singular_point(double, 3)
        assert w.field == F4 and w.point == (F4.one(), F4.element([0, 1]))
        assert seen and set(seen) == {F2}


class TestIndexScan:
    """The line scan on element indices against the point-by-point scan."""

    @pytest.mark.parametrize("field", [F2, F3, F4, F5, get_descriptor(3, 2)], ids=repr)
    def test_seeded_forms(self, field):
        rng = random.Random(1200 + field.order)
        found = 0
        for nvars, d, cap in [(2, 3, 3), (2, 4, 2), (3, 2, 2), (3, 3, 2), (4, 2, 1)]:
            if field.order ** (cap * (nvars - 1)) > 1024:
                cap = 1
            for _ in range(4):
                f = random_form(field, nvars, d, rng)
                want = point_scan(f, cap)
                assert line_scan(f, cap) == want, (str(f), cap)
                found += want is not None
        assert found

    @pytest.mark.parametrize("field", [F2, F3, F5, get_descriptor(3, 2)], ids=repr)
    def test_last_partial_vanishing_identically(self, field):
        # every exponent of x_n divisible by p: dF/dx_n = 0, so the
        # derivative of each restriction is zero and the gcd is decided by
        # F and the other partials
        rng = random.Random(1300 + field.order)
        p = field.p
        checked = 0
        for nvars, d in [(2, 2 * p), (3, p), (3, p + 1)]:
            for _ in range(6):
                f = random_form(field, nvars, d, rng)
                f = HomogeneousForm(field, nvars, d,
                                    {m: c for m, c in f.terms.items() if m[-1] % p == 0})
                if not f:
                    continue
                assert not f.partial_derivative(nvars - 1)
                cap = 2 if field.order ** (2 * (nvars - 1)) <= 1024 else 1
                assert line_scan(f, cap) == point_scan(f, cap), str(f)
                checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("p,e", [(65537, 1), (2, 17)])
    def test_untabled_binary_forms(self, p, e):
        # (x1 - a x0)^2 G over a field above the table limit, a of small
        # index, so the point scan stops early; and a form singular only
        # at (0, 1)
        field = get_descriptor(p, e)
        rng = random.Random(1400 + e)
        one = field.one()
        for a in (0, 1, 5, 37):
            root = field.element_from_index(a)
            line = HomogeneousForm(field, 2, 1, {(0, 1): one, (1, 0): -root})
            g = HomogeneousForm(field, 2, 2, {(2, 0): one, (1, 1): field.element_from_index(
                rng.randrange(1, 50)), (0, 2): field.element_from_index(rng.randrange(1, 50))})
            f = line ** 2 * g
            want = point_scan(f, 1)
            assert want is not None and want[0][1].idx <= a
            assert line_scan(f, 1) == want
        apex = HomogeneousForm(field, 2, 3, {(3, 0): one})
        assert line_scan(apex, 1) == point_scan(apex, 1) == ((field.zero(), one), field)

    @pytest.mark.parametrize("q,e", [(2, 4), (3, 4)])
    def test_orbit_length_against_the_orbit(self, q, e):
        # GF(q^e) over GF(q): tails over an intermediate field such as
        # GF(q^2) have orbits of length 2, neither 1 nor e
        big = get_descriptor(q, e)
        power = big.arithmetic.power
        tails = [(x,) for x in range(big.order)] + [(x, y) for x in range(0, big.order, 7)
                                                   for y in range(big.order)]
        for tail in tails:
            orbit = [tail]
            while (conj := tuple(power(x, q) for x in orbit[-1])) != tail:
                orbit.append(conj)
            want = 0 if min(orbit) < tail else len(orbit)
            assert smoothness._orbit_length(tail, power, q, e) == want, tail

    def test_unreduced_log_sum_pin(self):
        # a scan that sums logs must reduce a sum of three of them mod
        # q - 1: past 2(q - 1) the antilog list holds the zeros that absorb
        # the log of 0, and here that would clear the line of the witness
        f = form(F3, 3, 2, [((1, 1, 0), 1), ((0, 2, 0), 2), ((1, 0, 1), 1), ((0, 0, 2), 1)])
        w = search_singular_point(f, 3)
        assert w.field is F3 and w.point == (F3.one(), F3.from_int(2), F3.one())
        assert (w.point, w.field) == point_scan(f, 1)

    @pytest.mark.parametrize("entries,cap,level", [
        # the Fermat cubic: smooth, every level up to GF(2^6) scanned
        ([((3, 0, 0), 1), ((0, 3, 0), 1), ((0, 0, 3), 1)], 6, None),
        # (x0^2 + x0x1 + x1^2)^2: its level-1 gcd is lifted to GF(4)
        ([((4, 0), 1), ((2, 2), 1), ((0, 4), 1)], 3, 2),
    ], ids=["smooth", "gf4"])
    def test_scan_builds_no_element(self, monkeypatch, entries, cap, level):
        f = form(F2, len(entries[0][0]), sum(entries[0][0]), entries)
        search_singular_point(f, cap)  # builds the fields and embeddings
        built = [0]
        inside = []
        real_init, real_from_index = FieldElement.__init__, FieldDescriptor.element_from_index

        def init(self, *args):
            built[0] += 1
            real_init(self, *args)

        def from_index(self, idx):
            built[0] += 1
            return real_from_index(self, idx)

        real_scan = smoothness._scan_lines

        def scan(*args, **kwargs):
            before = built[0]
            out = real_scan(*args, **kwargs)
            inside.append(built[0] - before)
            return out

        monkeypatch.setattr(FieldElement, "__init__", init)
        monkeypatch.setattr(FieldDescriptor, "element_from_index", from_index)
        monkeypatch.setattr(smoothness, "_scan_lines", scan)
        w = search_singular_point(f, cap)
        assert inside and inside == [0] * len(inside)
        if level is None:
            assert w is None and built[0] == 0
        else:
            assert w.field.e == level and built[0] == len(w.point)


def sylvester_resultant(arith, a, b):
    """Res(a, b) of two index lists at their actual degrees as the
    determinant of their Sylvester matrix, by `IndexArithmetic.rref`; 0 when
    one of them is zero."""
    a, b = list(a), list(b)
    while a and not a[-1]:
        a.pop()
    while b and not b[-1]:
        b.pop()
    if not a or not b:
        return 0
    da, db = len(a) - 1, len(b) - 1
    if not da + db:
        return 1
    rows = [{i + j: c for j, c in enumerate(reversed(a)) if c} for i in range(db)]
    rows += [{i + j: c for j, c in enumerate(reversed(b)) if c} for i in range(da)]
    _, pivots, det = arith.rref(rows, da + db)
    return det if len(pivots) == da + db else 0


def spy_levels(monkeypatch):
    """Record, for every search, what rule 4 says of each level it asks
    about: True where R may have a root there."""
    said = []
    real = smoothness._levels_with_roots

    def levels(r, p):
        for answer in real(r, p):
            said.append(answer)
            yield answer
    monkeypatch.setattr(smoothness, "_levels_with_roots", levels)
    return said


def plane_cap(p):
    """The last level whose points a point scan of P^2 over GF(p) visits
    with at most 2,500 points in that level."""
    return max(k for k in range(1, 6) if p ** (2 * k) <= 2500)


class TestPlaneCurveFilter:
    """Rule 4: a plane curve over GF(p) skips the lines of lead 0 at each
    level whose field holds no root of R, the gcd of the resultants of F|
    with (F|)' and its partials, read off once in GF(p^(d(d-1)+1))."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_seeded_plane_curves(self, p, monkeypatch):
        said = spy_levels(monkeypatch)
        field = get_descriptor(p)
        cap = plane_cap(p)
        rng = random.Random(1500 + p)
        for d in (2, 3, 4):
            monos = monomials_of_degree(3, d)
            for i in range(6):
                if i < 3:
                    f = random_form(field, 3, d, rng)
                else:
                    f = HomogeneousForm(field, 3, d, {m: field.from_int(rng.randrange(1, p))
                                                      for m in rng.sample(monos, i)})
                assert line_scan(f, cap) == point_scan(f, cap), str(f)
        # some level was skipped
        assert False in said

    @pytest.mark.parametrize("p", [2, 3])
    def test_levels_agree_with_evaluation(self, p):
        # every monic R of degree 2 to 4 over GF(p), evaluated at every
        # element of GF(p^k), k = 2..6, in which a prime-field coefficient
        # has its own value as index
        arithmetics = [get_descriptor(p, k).arithmetic for k in range(2, 7)]

        def has_root(arith, r):
            for t in range(arith.field.order):
                v = 0
                for c in reversed(r):
                    v = arith.add(arith.mul(v, t), c)
                if not v:
                    return True
            return False

        for degree in (2, 3, 4):
            for low in itertools.product(range(p), repeat=degree):
                r = [*low, 1]
                said = list(itertools.islice(smoothness._levels_with_roots(r, p), 5))
                assert said == [has_root(arith, r) for arith in arithmetics], r

    @pytest.mark.parametrize("p,entries,level", [
        (2, [((0, 1, 2), 1), ((0, 2, 1), 1), ((1, 1, 1), 1), ((2, 0, 1), 1), ((2, 1, 0), 1),
             ((3, 0, 0), 1)], 2),
        (2, [((0, 0, 3), 1), ((0, 1, 2), 1), ((0, 3, 0), 1), ((1, 1, 1), 1), ((2, 0, 1), 1),
             ((2, 1, 0), 1), ((3, 0, 0), 1)], 3),
        (3, [((0, 1, 2), 2), ((1, 2, 0), 2), ((2, 1, 0), 2)], 2),
        (3, [((0, 0, 3), 2), ((0, 1, 2), 2), ((0, 3, 0), 1), ((1, 1, 1), 1), ((1, 2, 0), 1),
             ((2, 0, 1), 1), ((3, 0, 0), 2)], 3),
        (2, [((0, 0, 4), 1), ((0, 1, 3), 1), ((0, 2, 2), 1), ((0, 3, 1), 1), ((0, 4, 0), 1),
             ((1, 3, 0), 1), ((2, 0, 2), 1), ((3, 1, 0), 1), ((4, 0, 0), 1)], 2),
        (2, [((0, 1, 3), 1), ((0, 3, 1), 1), ((0, 4, 0), 1), ((1, 2, 1), 1), ((2, 1, 1), 1),
             ((2, 2, 0), 1), ((3, 1, 0), 1)], 3),
        (2, [((0, 1, 3), 1), ((0, 3, 1), 1), ((1, 0, 3), 1), ((2, 0, 2), 1), ((2, 1, 1), 1),
             ((2, 2, 0), 1), ((3, 1, 0), 1)], 4),
        (5, [((0, 0, 3), 2), ((0, 1, 2), 3), ((0, 2, 1), 2), ((1, 0, 2), 1), ((1, 1, 1), 1),
             ((1, 2, 0), 2), ((2, 1, 0), 3), ((3, 0, 0), 1)], 2),
    ], ids=["gf2-cubic-2", "gf2-cubic-3", "gf3-cubic-2", "gf3-cubic-3", "gf2-quartic-2",
            "gf2-quartic-3", "gf2-quartic-4", "gf5-cubic-2"])
    @pytest.mark.parametrize("limit", [None, 1 << 13], ids=["default", "gf8192"])
    def test_first_witness_past_level_one(self, monkeypatch, p, entries, level, limit):
        # forms singular at a point of GF(p^level), from the kernel of the
        # conditions there; with the limit raised the quartics over GF(2)
        # read R in GF(2^13)
        if limit is not None:
            monkeypatch.setattr(smoothness, "_ABSCISSA_FIELD_LIMIT", limit)
        f = form(get_descriptor(p), 3, sum(entries[0][0]), entries)
        cap = min(level + 1, plane_cap(p))
        want = point_scan(f, cap)
        assert want[1].e == level
        assert line_scan(f, cap) == want

    def test_reducible_form_with_zero_r_scans_every_level(self, monkeypatch):
        # x2 (x0^2 + x0x1 + x1^2 + x2^2) over GF(2): t divides F| and the
        # partials, and t^2 + 1 + s + s^2 divides F| and (F|)', so every
        # resultant vanishes; the witness lies on x2 = 0 over GF(4)
        said = spy_levels(monkeypatch)
        f = form(F2, 3, 3, [((2, 0, 1), 1), ((1, 1, 1), 1), ((0, 2, 1), 1), ((0, 0, 3), 1)])
        assert smoothness._abscissa_gcd(_line_charts(f)[0], 2, 7) == []
        want = point_scan(f, 2)
        assert want[1] == F4 and line_scan(f, 2) == want
        assert said == [True]

    def test_line_at_infinity_keeps_its_record(self, monkeypatch):
        # x0 (x1^2 + x0x2 + x1x2 + x2^2) over GF(2) is singular only where
        # x0 = 0 meets the conic, at (0, 1, t) with t^2 + t + 1 = 0: R = 1
        # skips every line of lead 0, and the level-1 record of the line
        # (0, 1, t) gives the witness in GF(4)
        said = spy_levels(monkeypatch)
        f = form(F2, 3, 3, [((1, 2, 0), 1), ((2, 0, 1), 1), ((1, 1, 1), 1), ((1, 0, 2), 1)])
        assert smoothness._abscissa_gcd(_line_charts(f)[0], 2, 7) == [1]
        want = point_scan(f, 3)
        assert want[1] == F4 and want[0][0] == F4.zero()
        assert line_scan(f, 3) == want
        assert said == [False]

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_reducible_and_non_reduced_forms(self, p):
        # L^2 M with L involving x2: every resultant has the factor L| in
        # common, so R = 0; and products of two random forms
        field = get_descriptor(p)
        rng = random.Random(1600 + p)
        cap = min(3, plane_cap(p))
        for _ in range(4):
            line = random_form(field, 3, 1, rng)
            if not line.terms.get((0, 0, 1)):
                line = line + form(field, 3, 1, [((0, 0, 1), 1)])
            f = line ** 2 * random_form(field, 3, 1, rng)
            if f:
                assert smoothness._abscissa_gcd(_line_charts(f)[0], p, 7) == []
                assert line_scan(f, cap) == point_scan(f, cap), str(f)
            g = random_form(field, 3, 1, rng) * random_form(field, 3, 2, rng)
            if g:
                assert line_scan(g, cap) == point_scan(g, cap), str(g)

    @pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (2, 4), (3, 3)])
    def test_last_partial_vanishing_identically(self, p, d):
        # every exponent of x2 divisible by p: (F|)' = 0, whose resultant
        # with F| is 0 and leaves R to the partials in x0 and x1
        field = get_descriptor(p)
        rng = random.Random(1700 + 10 * p + d)
        cap = plane_cap(p)
        checked = 0
        for _ in range(8):
            f = random_form(field, 3, d, rng)
            f = HomogeneousForm(field, 3, d, {m: c for m, c in f.terms.items() if m[2] % p == 0})
            if f:
                assert not f.partial_derivative(2)
                assert line_scan(f, cap) == point_scan(f, cap), str(f)
                checked += 1
        assert checked >= 6

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_no_term_in_x2_alone(self, p):
        # F(0, 0, 1) = 0: F| has t-degree below d, and the lead coefficient
        # in t is a polynomial in s that stays nonzero at u
        field = get_descriptor(p)
        rng = random.Random(1800 + p)
        cap = plane_cap(p)
        for d in (2, 3):
            for _ in range(4):
                f = random_form(field, 3, d, rng)
                f = HomogeneousForm(field, 3, d, {m: c for m, c in f.terms.items()
                                                  if m != (0, 0, d)})
                if f:
                    assert line_scan(f, cap) == point_scan(f, cap), str(f)

    @pytest.mark.parametrize("field", [F4, get_descriptor(3, 2)], ids=repr)
    def test_extension_base_fields_are_not_filtered(self, field, monkeypatch):
        calls = []
        real = smoothness._abscissa_gcd

        def counted(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(smoothness, "_abscissa_gcd", counted)
        rng = random.Random(1900 + field.order)
        for d in (2, 3):
            for _ in range(3):
                f = random_form(field, 3, d, rng)
                assert line_scan(f, 2) == point_scan(f, 2), str(f)
        assert not calls

    @pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 3), (3, 3)])
    def test_resultant_against_the_sylvester_determinant(self, p, e):
        field = get_descriptor(p, e)
        arith = field.arithmetic
        rng = random.Random(2000 + field.order)

        def poly():
            # small indices and zero tops: degree drops and zero inputs
            return [rng.randrange(min(field.order, 3)) if rng.randrange(3) else
                    rng.randrange(field.order) for _ in range(rng.randrange(7))]

        zero_inputs = 0
        for _ in range(400):
            a, b = poly(), poly()
            zero_inputs += not any(a) or not any(b)
            assert arith.resultant(a, b) == sylvester_resultant(arith, a, b), (a, b)
        assert zero_inputs
        # a degree drop of two in the remainder sequence
        assert arith.resultant([1, 0, 0, 1], [1, 0, 1]) == sylvester_resultant(
            arith, [1, 0, 0, 1], [1, 0, 1])

    @pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)])
    def test_degree_bound(self, p, d):
        # R has degree at most d(d - 1), so one more digit reads the same
        field = get_descriptor(p)
        rng = random.Random(2100 + 10 * p + d)
        m = d * (d - 1) + 1
        nonconstant = 0
        for _ in range(6):
            f = random_form(field, 3, d, rng)
            if all(sum(e[:2]) > 1 for e in f.terms):
                continue
            chart = _line_charts(f)[0]
            r = smoothness._abscissa_gcd(chart, p, m)
            assert r == smoothness._abscissa_gcd(chart, p, m + 1)
            assert len(r) <= m
            nonconstant += len(r) > 1
        assert nonconstant or d == 2

    def test_smooth_cubic_takes_only_its_level_one_gcds(self, monkeypatch):
        # a smooth cubic over GF(2) searched to GF(2^6): R is constant, so
        # levels 2 to 6 scan nothing and build no field
        seen = []
        real = smoothness._restricted_gcd

        def counted(arith, groups, values):
            seen.append(arith.field)
            return real(arith, groups, values)
        monkeypatch.setattr(smoothness, "_restricted_gcd", counted)
        f = form(F2, 3, 3, [((3, 0, 0), 1), ((2, 1, 0), 1), ((0, 3, 0), 1), ((2, 0, 1), 1),
                            ((1, 1, 1), 1), ((1, 0, 2), 1), ((0, 1, 2), 1), ((0, 0, 3), 1)])
        assert search_singular_point(f, 6) is None
        assert seen == [F2] * 3

    def test_gf8_witness_pin(self, monkeypatch):
        # x0^3 + x0x1^2 + x1^3 + x0^2x2 + x0x1x2 + x1x2^2 + x2^3 over GF(2):
        # R = 1 + s^2 + s^6 has no root in GF(4), so level 2 skips its lines
        # of lead 0, and level 3 scans them to the witness (1, u, u^2 + u + 1)
        said = spy_levels(monkeypatch)
        f = form(F2, 3, 3, [((3, 0, 0), 1), ((1, 2, 0), 1), ((0, 3, 0), 1), ((2, 0, 1), 1),
                            ((1, 1, 1), 1), ((0, 1, 2), 1), ((0, 0, 3), 1)])
        assert smoothness._abscissa_gcd(_line_charts(f)[0], 2, 7) == [1, 0, 1, 0, 0, 0, 1]
        w = search_singular_point(f, 6)
        f8 = get_descriptor(2, 3)
        assert w.field == f8 and [x.idx for x in w.point] == [1, 2, 7]
        assert said == [False, True]
        assert (w.point, w.field) == point_scan(f, 3)


class TestCapMissWitnesses:
    """Forms #2699 and #3210, counted from 0, of the stream
    random_form(GF(2), 4, 4, random.Random(0)): singular, with no witness
    up to GF(2^6).  The search to GF(2^8) finds them in GF(2^8) and GF(2^7)."""

    @pytest.fixture(scope="class")
    def stream(self):
        rng = random.Random(0)
        return [random_form(F2, 4, 4, rng) for _ in range(3211)]

    @pytest.mark.parametrize("position,modulus,point", [
        (2699, [1, 1, 0, 1, 1, 0, 0, 0, 1],
         [[1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 1, 0],
          [0, 0, 1, 0, 1, 1, 0, 0], [1, 1, 0, 1, 0, 1, 1, 0]]),
        (3210, [1, 1, 0, 0, 0, 0, 0, 1],
         [[1, 0, 0, 0, 0, 0, 0], [1, 0, 1, 1, 0, 0, 0],
          [0, 0, 1, 0, 0, 1, 0], [0, 0, 0, 1, 0, 1, 1]]),
    ], ids=["2699", "3210"])
    def test_witness_is_pinned(self, stream, position, modulus, point):
        f = stream[position]
        w = search_singular_point(f, 8)
        field = {"p": 2, "e": len(modulus) - 1, "modulus": modulus}
        assert witness_to_json(w) == {"point": point, "field": field, "member": None}
        assert witness_verifies(f, w)


class TestOracleAgreement:
    def test_certificate_never_contradicts_search(self):
        rng = random.Random(99)
        combos = [(q, n, d) for q in (2, 3, 4) for n in (1, 2) for d in (2, 3)]
        for i in range(48):
            q, n, d = combos[i % len(combos)]
            f = random_form(FIELDS[q], n + 1, d, rng)
            verdict = is_smooth(f)
            witness = search_singular_point(f, 4)
            assert isinstance(verdict, Singular) == (witness is not None)


class TestTruncation:
    def test_quadric_truncation(self):
        f = form(F2, 3, 2, [((2, 0, 0), 1), ((1, 1, 0), 1), ((0, 1, 1), 1)])
        assert x0_truncation(f) == form(F2, 3, 2, [((2, 0, 0), 1), ((1, 1, 0), 1)])

    def test_cube_without_x0_dies(self):
        assert not x0_truncation(form(F2, 2, 3, [((0, 3), 1)]))

    def test_cubic_filter(self):
        f = form(F3, 2, 3, [((3, 0), 1), ((2, 1), 1), ((1, 2), 1)])
        assert x0_truncation(f) == form(F3, 2, 3, [((3, 0), 1), ((2, 1), 1)])

    def test_matches_closed_form_for_quadrics(self):
        rng = random.Random(5)
        for _ in range(30):
            f = random_form(F3, 3, 2, rng)
            g = x0_truncation(f)
            # F - F(0, x1, ..., xn): subtract the x0-free part
            rest = HomogeneousForm(F3, 3, 2,
                                   {m: c for m, c in f.terms.items() if not m[0]})
            assert g == f - rest

    def test_remainder_has_low_x0_exponent(self):
        rng = random.Random(6)
        for _ in range(30):
            f = random_form(F4, 3, 3, rng)
            rest = f - x0_truncation(f)
            assert all(m[0] < f.degree - 1 for m in rest.terms)

    def test_kernel_characterization_both_directions(self):
        rng = random.Random(77)
        combos = [(q, n, d) for q in (2, 3, 4) for n in (1, 2) for d in (2, 3)]
        for q, n, d in combos:
            field = FIELDS[q]
            base = (field.one(),) + (field.zero(),) * n
            for _ in range(50):
                f = random_form(field, n + 1, d, rng)
                in_kernel = not x0_truncation(f)
                singular_at_base = (not f.evaluate(base)) and all(
                    not f.partial_derivative(i).evaluate(base)
                    for i in range(n + 1))
                assert in_kernel == singular_at_base


class TestSingularMemberAtBasePoint:
    def test_binary_quadrics(self):
        system = LinearSystemOfForms([
            form(F2, 2, 2, [((2, 0), 1)]),
            form(F2, 2, 2, [((1, 1), 1)]),
            form(F2, 2, 2, [((0, 2), 1)])])
        coeffs, member = singular_member_at_base_point(system)
        assert member == form(F2, 2, 2, [((0, 2), 1)])
        assert coeffs == (F2.zero(), F2.zero(), F2.one())

    def test_unique_kernel_direction(self):
        system = LinearSystemOfForms([
            form(F2, 3, 2, [((2, 0, 0), 1)]),
            form(F2, 3, 2, [((1, 1, 0), 1)]),
            form(F2, 3, 2, [((1, 0, 1), 1)]),
            form(F2, 3, 2, [((0, 2, 0), 1), ((0, 1, 1), 1), ((0, 0, 2), 1)])])
        coeffs, member = singular_member_at_base_point(system)
        assert member == form(F2, 3, 2, [((0, 2, 0), 1), ((0, 1, 1), 1),
                                         ((0, 0, 2), 1)])

    def test_random_overfull_systems_always_give_a_member(self):
        rng = random.Random(13)
        for t in range(50):
            d = 2 + t % 2
            system = random_system(F3, 3, d, 4, rng)   # r + 1 = n + 2 = 4
            coeffs, member = singular_member_at_base_point(system)
            base = (F3.one(), F3.zero(), F3.zero())
            assert not member.evaluate(base)
            assert all(not member.partial_derivative(i).evaluate(base)
                       for i in range(3))

    def test_trivial_kernel_raises(self):
        system = LinearSystemOfForms([form(F2, 2, 2, [((2, 0), 1)])])
        with pytest.raises(PreconditionViolated):
            singular_member_at_base_point(system)


class TestVerifySystem:
    def test_squares_of_coordinates_fail(self):
        system = LinearSystemOfForms([
            form(F2, 3, 2, [((2, 0, 0), 1)]),
            form(F2, 3, 2, [((0, 2, 0), 1)]),
            form(F2, 3, 2, [((0, 0, 2), 1)])])
        report = verify_system_K_smooth(system)
        assert report.member_count == 7
        assert not report.k_smooth
        assert report.witness is not None
        # witness belongs to the first singular member in enumeration order
        first_singular = report.verdicts.index("singular")
        coeff_list = list(enumerate_projective_points(F2, 2))
        assert report.witness.member == coeff_list[first_singular]
        member = system.member(report.witness.member)
        assert witness_verifies(member, report.witness)

    def test_report_lists_members_in_enumeration_order(self):
        system = LinearSystemOfForms([
            form(F3, 2, 2, [((2, 0), 1), ((0, 2), 1)]),
            form(F3, 2, 2, [((1, 1), 1)])])
        report = verify_system_K_smooth(system)
        assert report.member_count == 4
        assert len(report.verdicts) == 4
        coeff_list = list(enumerate_projective_points(F3, 1))
        for coeffs, verdict in zip(coeff_list, report.verdicts):
            member = system.member(coeffs)
            assert (verdict == "smooth") == isinstance(is_smooth(member), Smooth)

    def test_report_json_shape(self):
        system = LinearSystemOfForms([
            form(F2, 3, 2, [((2, 0, 0), 1)]),
            form(F2, 3, 2, [((0, 2, 0), 1)]),
            form(F2, 3, 2, [((0, 0, 2), 1)])])
        obj = verify_system_K_smooth(system).to_json()
        assert set(obj) == {"members", "verdicts", "k_smooth", "witness"}
        assert obj["members"] == 7
        assert obj["k_smooth"] is False
        assert obj["witness"]["member"] is not None


def _reference_report(system):
    """The report of `verify_system_K_smooth` from `is_smooth` on each member."""
    verdicts, first = [], None
    for coeffs in enumerate_projective_points(system.field, system.dim):
        verdict = is_smooth(system.member(coeffs))
        if isinstance(verdict, Smooth):
            verdicts.append("smooth")
        else:
            verdicts.append("singular")
            if first is None:
                first = verdict.witness.for_member(tuple(coeffs))
    return VerifyReport(verdicts=tuple(verdicts), k_smooth=first is None, witness=first)


def _assert_matches_reference(system):
    report = verify_system_K_smooth(system)
    reference = _reference_report(system)
    assert report.verdicts == reference.verdicts
    assert report.witness == reference.witness
    assert json.dumps(report.to_json()) == json.dumps(reference.to_json())
    return report


class TestPackedMembersMatchIsSmooth:
    """verify_system_K_smooth certifies each member from the generators'
    packed Jacobian forms; its report must be that of is_smooth."""

    def test_criterion_2_grid_and_f3(self):
        systems = [builtin_example_f3()]
        for p, e, n, d in itertools.product((2, 3), (1, 2), (1, 2, 3), (2, 3, 4)):
            if gcd(d, n + 1) % p and (p ** e) ** (n + 1) <= 4096:
                systems.append(construct_smooth_system(p, e, n, d, n))
        assert len(systems) == 24
        for system in systems:
            assert _assert_matches_reference(system).k_smooth, system

    # d = 2 over GF(2), d = 3 over GF(3) and d = 2 over GF(4) have p | d
    @pytest.mark.parametrize("q, nvars, degree, count", [
        (2, 3, 2, 3), (2, 4, 3, 2), (3, 3, 3, 2), (3, 3, 2, 3),
        (4, 3, 2, 2), (4, 3, 3, 2), (9, 3, 2, 2), (9, 2, 3, 2)])
    def test_seeded_random_systems(self, q, nvars, degree, count):
        field = get_descriptor(3, 2) if q == 9 else FIELDS[q]
        seen = set()
        for seed in range(4):
            system = random_system(field, nvars, degree, count, random.Random(seed))
            seen.update(_assert_matches_reference(system).verdicts)
        assert seen == {"smooth", "singular"}

    def test_members_with_zero_partials(self):
        # over GF(2) x0^2 + x1*x2 is smooth with dF/dx0 = 0, and x0^2 has no
        # nonzero partial at all
        system = LinearSystemOfForms([
            form(F2, 3, 2, [((2, 0, 0), 1), ((0, 1, 1), 1)]),
            form(F2, 3, 2, [((0, 2, 0), 1), ((1, 0, 1), 1)]),
            form(F2, 3, 2, [((2, 0, 0), 1)])])
        report = _assert_matches_reference(system)
        partials = [len(jacobian_generators(system.member(c))) - 1
                    for c in enumerate_projective_points(F2, system.dim)]
        assert report.verdicts[partials.index(2)] == "smooth"
        assert report.verdicts[partials.index(0)] == "singular"

    def test_runs_that_overflow_the_slots(self, monkeypatch):
        widths = []

        class Recording(groebner._Slots):
            def __init__(self, nvars, width):
                widths.append(width)
                super().__init__(nvars, width)

        system = random_system(F2, 4, 3, 2, random.Random(14))
        monkeypatch.setattr(groebner, "_Slots", Recording)
        verify_system_K_smooth(system)
        assert max(widths) > groebner._Slots.for_degree(4, 3).width
        _assert_matches_reference(system)


def _constructed(p, e, n, d, r=None):
    """The constructed system of projective dimension r (default n) and the
    `moore_symmetries` of its normal element."""
    system, result = construct_system_with_details(p, e, n, d, n if r is None else r)
    return system, moore_symmetries(system.field, result.moore.alpha)


def _member_count(system):
    return len(list(enumerate_projective_points(system.field, system.dim)))


class TestOrbitRoute:
    """With the symmetries of a construction, verify_system_K_smooth
    certifies one member per orbit; its report must be that of full
    enumeration, and no symmetry may be trusted into a wrong verdict."""

    @pytest.mark.parametrize("combo", [
        *((p, e, n, d) for p, e, n, d in itertools.product((2, 3), (1, 2), (1, 2, 3), (2, 3, 4))
          if gcd(d, n + 1) % p and (p ** e) ** (n + 1) <= 4096),
        (2, 1, 4, 4), (3, 1, 3, 5), (2, 1, 5, 3)])
    def test_reports_equal_full_enumeration(self, combo):
        system, symmetries = _constructed(*combo)
        assert len(symmetries) == 2
        with_symmetries = verify_system_K_smooth(system, symmetries)
        assert with_symmetries.k_smooth
        assert (json.dumps(with_symmetries.to_json())
                == json.dumps(verify_system_K_smooth(system).to_json()))

    @pytest.mark.parametrize("combo, orbits", [
        ((3, 1, 2, 2), 1), ((2, 1, 2, 3), 1), ((2, 1, 4, 4), 1), ((2, 2, 4, 4), 1),
        ((3, 1, 3, 5), 2), ((2, 1, 5, 3), 2), ((3, 1, 3, 4), 3)])
    def test_orbit_counts(self, certified_members, combo, orbits):
        system, symmetries = _constructed(*combo)
        report = verify_system_K_smooth(system, symmetries)
        assert report.k_smooth and report.member_count == _member_count(system)
        assert len(certified_members) == orbits
        assert certified_members[0] == next(enumerate_projective_points(system.field, system.dim))

    def test_singular_template_keeps_its_symmetry_and_falls_back(self, certified_members):
        # sum y_j^2 y_(j+1)^2 over GF(3), n = 2: every member is singular
        moore = normal_basis_search(3, 1, 2)
        one = moore.field.one()
        template = HomogeneousForm(moore.field, 3, 4, [
            ((2, 2, 0), one), ((0, 2, 2), one), ((2, 0, 2), one)])
        raw = compose([HomogeneousForm(moore.field, 3, 4, {m: c})
                       for m, c in template.terms.items()], moore_matrix(moore.alpha, 1, 3))
        system = LinearSystemOfForms(galois_descent(raw, moore))
        symmetries = moore_symmetries(F3, moore.alpha)
        induced = smoothness._induced_matrices(system, symmetries)
        assert induced is not None
        orbit_of = array("l")
        assert len(list(smoothness._orbit_representatives(F3, system.dim, induced,
                                                          orbit_of))) == 1
        assert list(orbit_of) == [0] * 13
        report = verify_system_K_smooth(system, symmetries)
        assert report.verdicts == ("singular",) * 13
        # the one representative, whose own search gives the witness
        assert len(certified_members) == 1
        assert (json.dumps(report.to_json())
                == json.dumps(verify_system_K_smooth(system).to_json()))

    def test_shifted_cubic_nets_certify_one_member_per_orbit(self, certified_members):
        # G_i = F(x_i, x_(i+1), x_(i+2)): the shift maps each G_i to G_(i+1),
        # so the 13 members fall into the orbit of (1, 1, 1) and four of 3
        o, z = F3.one(), F3.zero()
        shift = [[z, o, z], [z, z, o], [o, z, z]]
        smooth_counts = set()
        # seed 0 gives linearly dependent forms
        for seed in range(1, 40):
            f = random_form(F3, 3, 3, random.Random(seed))
            g = f.substitute_linear(shift)
            system = LinearSystemOfForms([f, g, g.substitute_linear(shift)])
            certified_members.clear()
            report = verify_system_K_smooth(system, [shift])
            assert len(certified_members) == 5, seed
            assert (json.dumps(report.to_json())
                    == json.dumps(verify_system_K_smooth(system).to_json())), seed
            assert not report.k_smooth, seed
            smooth_counts.add(report.verdicts.count("smooth"))
        # among the nets: no member smooth, one orbit of 3 smooth, and only
        # the orbit of (1, 1, 1) singular
        assert {0, 3, 12} <= smooth_counts

    def test_an_arbitrary_invertible_matrix_is_rejected(self, certified_members):
        system, _ = _constructed(3, 1, 2, 2)
        o, z = F3.one(), F3.zero()
        shear = [[o, o, z], [z, o, z], [z, z, o]]
        assert invertible(F3, shear)
        assert smoothness._induced_matrices(system, [shear]) is None
        report = verify_system_K_smooth(system, [shear])
        assert len(certified_members) == 13
        assert report == verify_system_K_smooth(system)

    def test_a_singular_matrix_is_rejected(self):
        # the zero matrix sends every generator to 0, which lies in the span
        system, _ = _constructed(3, 1, 2, 2)
        zero = [[F3.zero()] * 3 for _ in range(3)]
        assert smoothness._induced_matrices(system, [zero]) is None

    def test_a_matrix_of_the_wrong_size_is_an_error(self):
        system, _ = _constructed(3, 1, 2, 2)
        with pytest.raises(ValueError, match="size nvars"):
            verify_system_K_smooth(system, [[[F3.one()]]])

    def test_a_matrix_over_another_field_is_an_error(self):
        system, _ = _constructed(3, 1, 2, 2)
        f9 = get_descriptor(3, 2)
        o, z = f9.one(), f9.zero()
        with pytest.raises(DescriptorMismatch):
            verify_system_K_smooth(system, [[[z, o, z], [z, z, o], [o, z, z]]])

    def test_each_field_builds_one_arithmetic(self, monkeypatch):
        # construct, the symmetries and two verifies, with no arithmetic
        # built beforehand: one per field, the base field's shared by the
        # symmetry check and the orbit walk of both verifies
        built = []
        real = IndexArithmetic.__init__

        def counting(self, field):
            built.append(field)
            real(self, field)

        monkeypatch.setattr(IndexArithmetic, "__init__", counting)
        base, big = get_descriptor(2), get_descriptor(2, 5)
        for field in (base, big):
            monkeypatch.setattr(field, "_arith", None)
        system, symmetries = _constructed(2, 1, 4, 4)
        assert sorted(map(repr, built)) == ["GF(2)", "GF(2^5)"]
        del built[:]
        monkeypatch.setattr(base, "_arith", None)
        for _ in range(2):
            assert verify_system_K_smooth(system, symmetries).k_smooth
        assert len(built) == 1 and built[0] is base

    def test_subsystem_falls_back(self, certified_members):
        _, symmetries = _constructed(2, 1, 4, 4)
        system, _ = _constructed(2, 1, 4, 4, r=2)
        assert smoothness._induced_matrices(system, symmetries) is None
        report = verify_system_K_smooth(system, symmetries)
        assert len(certified_members) == _member_count(system) == 7
        assert report.k_smooth

    def test_random_system_falls_back(self, certified_members):
        _, symmetries = _constructed(3, 1, 2, 2)
        system = random_system(F3, 3, 2, 3, random.Random(0))
        assert smoothness._induced_matrices(system, symmetries) is None
        report = verify_system_K_smooth(system, symmetries)
        assert len(certified_members) == 13
        assert report == verify_system_K_smooth(system)


def _brute_force_orbits(field, r, matrices):
    """The first member and the orbit index of every member, as
    `_orbit_representatives` gives them, for the group the matrices (rows
    of FieldElements) generate acting by c -> c T: every member's image
    worked out with FieldElement arithmetic, normalised, and merged by
    union-find, each class keeping its first member as its root."""
    members = list(enumerate_projective_points(field, r))
    index = {c: i for i, c in enumerate(members)}
    parent = list(range(len(members)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for t in matrices:
        for i, c in enumerate(members):
            image = [field.zero()] * (r + 1)
            for a, row in zip(c, t):
                image = [x + a * y for x, y in zip(image, row)]
            a, b = sorted((find(i), find(index[normalize_projective(image)])))
            parent[b] = a
    firsts, orbit_of = [], []
    for i, c in enumerate(members):
        if find(i) == i:
            firsts.append(c)
        orbit_of.append(len(firsts) - 1 if find(i) == i else orbit_of[find(i)])
    return firsts, orbit_of


def _random_invertible(field, size, rng):
    while True:
        rows = [[field.element_from_index(rng.randrange(field.order)) for _ in range(size)]
                for _ in range(size)]
        if invertible(field, rows):
            return rows


class TestOrbitWalk:
    """The walk on member-index tables gives the representatives and
    orbits of a brute-force walk on FieldElements, on every coefficient
    path: ints mod p (above 2^16 too), log and Zech lists, and untabled
    extension fields."""

    @staticmethod
    def _check(field, r, matrices):
        orbit_of = array("l")
        induced = [[[x.idx for x in row] for row in t] for t in matrices]
        firsts = list(smoothness._orbit_representatives(field, r, induced, orbit_of))
        assert (firsts, list(orbit_of)) == _brute_force_orbits(field, r, matrices)
        return len(firsts)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_small_fields(self, q, r):
        p = 2 if q in (2, 4, 8) else q if q in (3, 5) else 3
        field = get_descriptor(p, {2: 1, 3: 1, 4: 2, 5: 1, 8: 3, 9: 2}[q])
        rng = random.Random(100 * q + r)
        for count in (1, 2):
            self._check(field, r, [_random_invertible(field, r + 1, rng) for _ in range(count)])

    def test_scalar_matrix_fixes_every_member(self):
        field = get_descriptor(3, 2)
        s = field.element_from_index(5)
        t = [[s if i == j else field.zero() for j in range(3)] for i in range(3)]
        assert self._check(field, 2, [t]) == 91

    def test_gf256(self):
        field = get_descriptor(2, 8)
        rng = random.Random(256)
        self._check(field, 1, [_random_invertible(field, 2, rng) for _ in range(2)])

    def test_prime_field_above_the_table_limit(self):
        field = get_descriptor(65537)
        assert field._exp is None
        self._check(field, 1, [_random_invertible(field, 2, random.Random(65537))])

    @pytest.mark.parametrize("p, e", [(2, 3), (3, 2)])
    def test_untabled_extension_fields(self, p, e, untabled):
        field = untabled(p, e)
        rng = random.Random(p ** e)
        for r in (1, 2):
            self._check(field, r, [_random_invertible(field, r + 1, rng) for _ in range(2)])

    def test_symmetry_check_on_an_untabled_field(self, untabled):
        # the same system and symmetries over GF(9) with and without tables
        # have the same element indices, so the same induced matrices
        system, symmetries = _constructed(3, 2, 2, 4)
        field = untabled(3, 2)

        def moved(x):
            return field.element_from_index(x.idx)

        copy = LinearSystemOfForms([HomogeneousForm(field, g.nvars, g.degree,
                                                    {m: moved(c) for m, c in g.terms.items()})
                                    for g in system.generators])
        moved_symmetries = [[list(map(moved, row)) for row in m] for m in symmetries]
        induced = smoothness._induced_matrices(system, symmetries)
        assert smoothness._induced_matrices(copy, moved_symmetries) == induced
        orbit_of = array("l")
        assert len(list(smoothness._orbit_representatives(field, 2, induced, orbit_of))) == 1
        assert verify_system_K_smooth(copy, moved_symmetries).verdicts == ("smooth",) * 91


class TestDiagonalAndCyclicFamilies:
    """Exhaustive small-grid smoothness of the two template families."""

    def test_diagonal_forms_smooth_when_char_does_not_divide_degree(self):
        for q, n, d in itertools.product((2, 3, 4), (1, 2), (2, 3)):
            field = FIELDS[q]
            if d % field.p == 0:
                continue
            units = [x for x in field.elements() if x]
            for coeffs in itertools.product(units, repeat=n + 1):
                assert isinstance(is_smooth(fermat(field, n + 1, d, coeffs)),
                                  Smooth), (q, n, d, coeffs)

    def test_cyclic_forms_smooth_when_char_divides_degree_but_not_nvars(self):
        from ksmooth.constructions import klein_form
        cases = [(F2, 2, 2), (F4, 2, 2), (F3, 1, 3)]
        for field, n, d in cases:
            units = [x for x in field.elements() if x]
            for coeffs in itertools.product(units, repeat=n + 1):
                assert isinstance(is_smooth(klein_form(coeffs, d)), Smooth), \
                    (field, n, d, coeffs)

    def test_even_dimensional_quadric_fixture_is_smooth(self):
        for k in (1, 2):
            nv = 2 * k + 1
            terms = {(2,) + (0,) * (nv - 1): F2.one()}
            for i in range(1, nv, 2):
                e = [0] * nv
                e[i] = e[i + 1] = 1
                terms[tuple(e)] = F2.one()
            assert isinstance(is_smooth(HomogeneousForm(F2, nv, 2, terms)),
                              Smooth)
