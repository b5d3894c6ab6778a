"""Sparse homogeneous form tests: arithmetic, derivatives, substitution,
Frobenius fixedness, the Euler identity, systems and JSON round trips."""

import random
import time
from fractions import Fraction
from math import comb

import pytest

from form_helpers import coefficients_fixed_by_frobenius, euler_combination
from ksmooth.errors import (
    DegreeMismatch,
    DependentGenerators,
    DescriptorMismatch,
)
from ksmooth.arithmetic import IndexArithmetic
from ksmooth.fields import QQ, get_descriptor
from ksmooth.multipoly import (
    HomogeneousForm,
    LinearSystemOfForms,
    _compose,
    _Slots,
    compose,
    form_from_json,
    form_to_json,
    monomial_key,
    monomials_of_degree,
    random_form,
    system_from_json,
    system_to_json,
)

F2 = get_descriptor(2)
F3 = get_descriptor(3)
F4 = get_descriptor(2, 2)
U = F4.element([0, 1])


def form(field, nvars, degree, entries):
    return HomogeneousForm(field, nvars, degree,
                           {tuple(e): field.from_int(c) for e, c in entries})


class TestConstruction:
    def test_rejects_inhomogeneous_terms(self):
        with pytest.raises(DegreeMismatch):
            HomogeneousForm(F2, 2, 2, {(1, 0): F2.one()})

    def test_prunes_zero_coefficients(self):
        f = HomogeneousForm(F2, 2, 2, {(2, 0): F2.zero(), (1, 1): F2.one()})
        assert set(f.terms) == {(1, 1)}

    def test_accumulates_repeated_monomials(self):
        f = HomogeneousForm(F3, 2, 2, [((1, 1), F3.one()), ((1, 1), F3.from_int(2))])
        assert not f

    def test_rejects_a_coefficient_of_another_field(self):
        with pytest.raises(DescriptorMismatch):
            HomogeneousForm(F4, 2, 2, {(1, 1): F3.from_int(2)})

    def test_rejects_an_int_over_a_finite_field(self):
        with pytest.raises(DescriptorMismatch):
            HomogeneousForm(F4, 2, 2, {(1, 1): 1})

    def test_takes_ints_over_q_as_fractions(self):
        f = HomogeneousForm(QQ, 2, 2, {(2, 0): 3, (1, 1): Fraction(1, 2)})
        assert [type(c) for c in f.terms.values()] == [Fraction, Fraction]
        assert [t["coeff"] for t in form_to_json(f)["terms"]] == ["3", "1/2"]

    def test_term_count_bounded_by_monomial_count(self):
        rng = random.Random(0)
        for n, d in [(1, 3), (2, 2), (2, 3), (3, 2)]:
            f = random_form(F3, n + 1, d, rng)
            assert len(f.terms) <= comb(n + d, d)
            assert len(monomials_of_degree(n + 1, d)) == comb(n + d, d)


class TestMonomialOrder:
    def test_degrevlex_on_plane_quadrics(self):
        monos = monomials_of_degree(3, 2)
        assert monos == [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1),
                         (0, 0, 2)]

    @pytest.mark.parametrize("nvars", [0, -2])
    def test_no_variables_rejected(self, nvars):
        with pytest.raises(ValueError, match="need at least one variable"):
            monomials_of_degree(nvars, 2)

    def test_result_is_a_fresh_list(self):
        first = monomials_of_degree(3, 2)
        expected = list(first)
        first.reverse()
        first.append((9, 9, 9))
        assert monomials_of_degree(3, 2) == expected

    def test_degree_dominates(self):
        assert monomial_key((3, 0)) > monomial_key((1, 1))


class TestArithmetic:
    def test_squaring_in_characteristic_two(self):
        f = form(F2, 2, 1, [((1, 0), 1), ((0, 1), 1)])
        assert f ** 2 == form(F2, 2, 2, [((2, 0), 1), ((0, 2), 1)])

    def test_cube_of_f4_linear_form(self):
        g = HomogeneousForm(F4, 2, 1, {(1, 0): U, (0, 1): U * U})
        expected = HomogeneousForm(F4, 2, 3, {(3, 0): F4.one(), (2, 1): U,
                                              (1, 2): U * U, (0, 3): F4.one()})
        assert g ** 3 == expected

    def test_form_minus_itself_is_zero(self):
        f = form(F3, 3, 2, [((2, 0, 0), 1), ((1, 1, 0), 2)])
        assert not f + f.scale(F3.from_int(-1))
        assert not f - f

    def test_degrees_add_under_multiplication(self):
        f = form(F3, 2, 2, [((2, 0), 1)])
        g = form(F3, 2, 3, [((1, 2), 2)])
        assert (f * g).degree == 5

    def test_degree_mismatch_on_addition(self):
        with pytest.raises(DegreeMismatch):
            form(F2, 2, 2, [((2, 0), 1)]) + form(F2, 2, 3, [((3, 0), 1)])

    def test_descriptor_mismatch(self):
        with pytest.raises(DescriptorMismatch):
            form(F2, 2, 2, [((2, 0), 1)]) + form(F3, 2, 2, [((2, 0), 1)])


class TestPartialDerivative:
    def test_power_rule_when_char_does_not_divide_degree(self):
        f = form(F3, 2, 2, [((2, 0), 1)])
        assert f.partial_derivative(0) == form(F3, 2, 1, [((1, 0), 2)])

    def test_square_dies_in_characteristic_two(self):
        f = form(F2, 2, 2, [((2, 0), 1)])
        assert not f.partial_derivative(0)

    def test_product_like_terms(self):
        f = form(F3, 3, 2, [((1, 1, 0), 1), ((0, 1, 1), 1)])
        assert f.partial_derivative(1) == form(F3, 3, 1, [((1, 0, 0), 1),
                                                          ((0, 0, 1), 1)])


class TestEvaluate:
    def test_cyclic_quadric_at_all_ones(self):
        f = form(F2, 3, 2, [((1, 1, 0), 1), ((0, 1, 1), 1), ((1, 0, 1), 1)])
        assert f.evaluate((F2.one(),) * 3) == F2.one()

    def test_positive_degree_vanishes_at_origin(self):
        f = form(F3, 3, 2, [((2, 0, 0), 1), ((1, 1, 0), 2)])
        assert not f.evaluate((F3.zero(),) * 3)

    def test_quadric_walkthrough(self):
        f = form(F2, 4, 2, [((2, 0, 0, 0), 1), ((0, 1, 1, 0), 1),
                            ((0, 0, 0, 2), 1)])
        pt = (F2.one(), F2.zero(), F2.zero(), F2.one())
        assert not f.evaluate(pt)

    def test_zero_form_evaluates_to_field_zero(self):
        for field in (F4, QQ):
            zero_form = HomogeneousForm.zero(field, 2, 3)
            assert zero_form.evaluate((field.one(), field.one())) == field.zero()


class TestSubstituteLinear:
    def test_identity_substitution(self):
        f = form(F3, 2, 3, [((2, 1), 1), ((0, 3), 2)])
        eye = [[F3.one(), F3.zero()], [F3.zero(), F3.one()]]
        assert f.substitute_linear(eye) == f

    def test_swap_of_variables(self):
        f = form(F2, 2, 3, [((2, 1), 1)])
        swap = [[F2.zero(), F2.one()], [F2.one(), F2.zero()]]
        assert f.substitute_linear(swap) == form(F2, 2, 3, [((1, 2), 1)])

    def test_f4_template_reproduces_cube(self):
        template = HomogeneousForm(F4, 2, 3, {(3, 0): F4.one()})
        mat = [[U, U * U], [U * U, U]]
        expected = HomogeneousForm(F4, 2, 3, {(3, 0): F4.one(), (2, 1): U,
                                              (1, 2): U * U, (0, 3): F4.one()})
        assert template.substitute_linear(mat) == expected

    def test_inverse_substitution_round_trip(self):
        rng = random.Random(4)
        for field in (F3, F4):
            els = field.elements()
            for _ in range(15):
                while True:
                    rows = [[els[rng.randrange(field.order)] for _ in range(3)]
                            for _ in range(3)]
                    # [M | I] reduces to [I | M^-1] exactly when M is invertible
                    reduced, pivots, _ = field.arithmetic.rref(
                        [{**{k: x.idx for k, x in enumerate(row) if x}, 3 + i: 1}
                         for i, row in enumerate(rows)], 6)
                    if pivots[:3] == [0, 1, 2]:
                        break
                inv_rows = [[field.element_from_index(row.get(3 + k, 0)) for k in range(3)]
                            for row in reduced]
                f = random_form(field, 3, 2, rng)
                g = f.substitute_linear(rows).substitute_linear(inv_rows)
                assert g == f


class TestSubstitutedTerms:
    """`compose` substitutes the rows of one matrix into several forms."""

    @staticmethod
    def _matrix(field, rng):
        els = field.elements()
        return [[els[rng.randrange(field.order)] for _ in range(3)] for _ in range(3)]

    @staticmethod
    def _substituted(f, rows):
        """f with x_i replaced by row i, term by term with form products."""
        field = f.field
        lin = [HomogeneousForm(field, 3, 1, {(1, 0, 0): r[0], (0, 1, 0): r[1],
                                             (0, 0, 1): r[2]}) for r in rows]
        total = HomogeneousForm.zero(field, 3, f.degree)
        for exps, c in f.terms.items():
            image = HomogeneousForm(field, 3, 0, {(0, 0, 0): field.one()})
            for x, e in zip(lin, exps):
                image = image * x ** e
            total = total + image.scale(c)
        return total

    @staticmethod
    def _fields(untabled):
        """GF(p) on both sides of the table limit, a tabled GF(p^e) and an
        untabled one."""
        return [F3, get_descriptor(65537), F4, get_descriptor(3, 2), untabled(3, 2)]

    def test_images_are_the_substituted_monomials(self, untabled):
        rng = random.Random(12)
        for field in self._fields(untabled):
            for _ in range(10):
                rows = self._matrix(field, rng)
                f = random_form(field, 3, 3, rng)
                # one 1-term form per term of f, and f itself, in one call
                terms = [HomogeneousForm(field, 3, 3, {m: c}) for m, c in f.terms.items()]
                *images, whole = compose(terms + [f], rows)
                for term, image in zip(terms, images):
                    assert image == self._substituted(term, rows)
                assert whole == self._substituted(f, rows) == f.substitute_linear(rows)

    def test_element_indices_give_the_same_forms(self, untabled):
        # `_compose` on indices, as the symmetry check runs it, against
        # form products, for dense, monomial, permutation and singular
        # matrices
        rng = random.Random(15)
        for field in self._fields(untabled):
            arith = IndexArithmetic(field)
            zero, one = field.zero(), field.one()
            unit = field.element_from_index(rng.randrange(1, field.order))
            matrices = [self._matrix(field, rng) for _ in range(4)] + [
                [[zero, one, zero], [zero, zero, one], [one, zero, zero]],
                [[zero, unit, zero], [zero, zero, one], [one, zero, zero]],
                [[one, zero, zero], [one, zero, zero], [zero, zero, one]],
                [[zero] * 3] * 3]
            forms = [random_form(field, 3, d, rng) for d in (3, 3, 2)]
            for rows in matrices:
                slots = _Slots.for_degree(3, 3)
                images = _compose([{m: c.idx for m, c in slots.pack(f.terms).items()}
                                   for f in forms], [[c.idx for c in row] for row in rows],
                                  slots, arith)
                assert [slots.unpack(h) for h in images] == [
                    {m: c.idx for m, c in self._substituted(f, rows).terms.items()}
                    for f in forms]

    def test_permutations_and_repeated_variables(self):
        f = form(F3, 3, 2, [((2, 0, 0), 1), ((1, 1, 0), 2), ((0, 1, 1), 1)])
        o, z = F3.one(), F3.zero()
        cycle = [[z, o, z], [z, z, o], [o, z, z]]
        assert f.substitute_linear(cycle) == form(
            F3, 3, 2, [((0, 2, 0), 1), ((0, 1, 1), 2), ((1, 0, 1), 1)])
        # x0 and x1 both become x1: x1^2 + 2 x1^2 + x1 x2 = x1 x2 over GF(3)
        repeated = [[z, o, z], [z, o, z], [z, z, o]]
        assert f.substitute_linear(repeated) == form(F3, 3, 2, [((0, 1, 1), 1)])
        assert f.substitute_linear(repeated) == self._substituted(f, repeated)

    def test_rational_forms_of_two_degrees(self):
        rng = random.Random(13)
        for _ in range(10):
            rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(3)]
                    for _ in range(3)]
            forms = [HomogeneousForm(QQ, 3, d, {m: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                                                for m in monomials_of_degree(3, d)})
                     for d in (3, 1)]
            assert compose(forms, rows) == [self._substituted(f, rows) for f in forms]

    def test_constant_form(self):
        c = HomogeneousForm(F3, 2, 0, {(0, 0): F3.from_int(2)})
        assert c.substitute_linear([[F3.one(), F3.one()], [F3.zero(), F3.one()]]) == c


class TestFrobeniusFixedness:
    def test_binary_cubic_with_prime_coefficients(self):
        f = HomogeneousForm(F4, 2, 3, {(3, 0): F4.one(), (2, 1): F4.one(),
                                       (0, 3): F4.one()})
        assert coefficients_fixed_by_frobenius(f, 1)

    def test_generator_coefficient_is_not_fixed(self):
        f = HomogeneousForm(F4, 2, 3, {(3, 0): U})
        assert not coefficients_fixed_by_frobenius(f, 1)

    def test_whole_field_is_always_fixed(self):
        f = HomogeneousForm(F4, 2, 3, {(3, 0): U, (2, 1): U * U})
        assert coefficients_fixed_by_frobenius(f, F4.e)


class TestEulerCombination:
    def test_degree_two_over_f3(self):
        f = form(F3, 3, 2, [((2, 0, 0), 1), ((0, 1, 1), 1)])
        assert euler_combination(f) == f.scale(F3.from_int(2))

    def test_degree_two_over_f2(self):
        f = form(F2, 3, 2, [((2, 0, 0), 1), ((0, 1, 1), 1)])
        assert not euler_combination(f)

    def test_degree_three_over_f2(self):
        f = form(F2, 1, 3, [((3,), 1)])
        assert euler_combination(f) == f

    def test_identity_on_random_forms(self):
        rng = random.Random(17)
        fields = [F2, F3, F4]
        count = 0
        while count < 200:
            field = fields[count % 3]
            n = 1 + count % 2
            d = 2 + count % 3
            f = random_form(field, n + 1, d, rng)
            assert euler_combination(f) == f.scale(field.from_int(d))
            count += 1


class TestLinearSystem:
    def test_rejects_dependent_generators(self):
        f = form(F2, 2, 2, [((2, 0), 1)])
        g = form(F2, 2, 2, [((0, 2), 1)])
        with pytest.raises(DependentGenerators):
            LinearSystemOfForms([f, g, f + g])

    def test_rejects_zero_generator(self):
        f = form(F2, 2, 2, [((2, 0), 1)])
        with pytest.raises(DependentGenerators):
            LinearSystemOfForms([f, HomogeneousForm.zero(F2, 2, 2)])

    def test_rank_equals_generator_count(self):
        rng = random.Random(23)
        from ksmooth.multipoly import random_system
        system = random_system(F3, 3, 2, 4, rng)
        monomials = monomials_of_degree(3, 2)
        rows = [{k: c.idx for k, m in enumerate(monomials) if (c := g.terms.get(m))}
                for g in system.generators]
        assert len(F3.arithmetic.rref(rows, len(monomials))[1]) == 4

    def test_member_combination(self):
        f = form(F3, 2, 2, [((2, 0), 1)])
        g = form(F3, 2, 2, [((0, 2), 1)])
        system = LinearSystemOfForms([f, g])
        member = system.member([F3.from_int(2), F3.one()])
        assert member == form(F3, 2, 2, [((2, 0), 2), ((0, 2), 1)])


def reference_member(system, coeffs):
    """sum_i coeffs[i] * G_i by scaling each generator and adding the forms
    in turn."""
    out = HomogeneousForm.zero(system.field, system.nvars, system.degree)
    for a, g in zip(coeffs, system.generators):
        if a:
            out = out + g.scale(a)
    return out


class TestMember:
    """`member`, one `combine` of the generators' index rows, against
    scale-then-add on the forms."""

    @staticmethod
    def _agrees(system, coeffs):
        member = system.member(coeffs)
        assert member == reference_member(system, coeffs), coeffs
        assert all(member.terms.values())
        kind = Fraction if system.field is QQ else type(system.field.one())
        assert all(type(c) is kind for c in member.terms.values())
        if kind is not Fraction:
            assert all(c.field is system.field for c in member.terms.values())
        return member

    @pytest.mark.parametrize("p, e", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 17)], ids=str)
    def test_finite_fields(self, p, e):
        from ksmooth.multipoly import random_element, random_system
        field = get_descriptor(p, e)
        # GF(2^17) is above the table limit: its arithmetic is on digits
        assert (field._exp is None) == (field.order > 2 ** 16)
        rng = random.Random(31)
        system = random_system(field, 3, 2, 3, rng)
        for _ in range(20):
            coeffs = [random_element(field, rng) for _ in range(3)]
            if any(coeffs):
                self._agrees(system, coeffs)
        # a zero coefficient and the zero member
        self._agrees(system, [field.zero(), field.one(), field.zero()])
        assert not self._agrees(system, [field.zero()] * 3)

    def test_rationals(self):
        q = Fraction
        g0 = HomogeneousForm(QQ, 3, 2, {(2, 0, 0): q(1), (0, 1, 1): q(-3, 4),
                                        (0, 0, 2): q(5, 6)})
        g1 = HomogeneousForm(QQ, 3, 2, {(2, 0, 0): q(2), (1, 1, 0): q(7, 3)})
        g2 = HomogeneousForm(QQ, 3, 2, {(0, 2, 0): q(-1, 2), (0, 0, 2): q(5, 9)})
        system = LinearSystemOfForms([g0, g1, g2])
        for coeffs in ([q(1), q(1), q(1)], [q(-2, 3), q(5, 7), q(0)], [q(0), q(-1), q(3, 2)],
                       [q(3), q(-7, 11), q(-1, 5)]):
            self._agrees(system, coeffs)
        # x0^2 cancels, and so does x2^2
        member = self._agrees(system, [q(-2), q(1), q(3)])
        assert (2, 0, 0) not in member.terms and (0, 0, 2) not in member.terms
        assert not self._agrees(system, [q(0)] * 3)

    def test_rational_members_of_seeded_integer_systems(self):
        rng = random.Random(32)
        system = LinearSystemOfForms(
            [HomogeneousForm(QQ, 3, 3, {m: Fraction(c) for m in monomials_of_degree(3, 3)
                                        if (c := rng.randint(-3, 3))}) for _ in range(3)])
        for _ in range(30):
            self._agrees(system, [Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                                  for _ in range(3)])

    @pytest.mark.parametrize("field", [F3, QQ], ids=str)
    def test_wrong_coefficient_count(self, field):
        f = HomogeneousForm(field, 2, 2, {(2, 0): field.one()})
        g = HomogeneousForm(field, 2, 2, {(0, 2): field.one()})
        system = LinearSystemOfForms([f, g])
        for coeffs in ([field.one()], [field.one()] * 3):
            with pytest.raises(ValueError):
                system.member(coeffs)


class TestJson:
    def test_form_round_trip_over_f4(self):
        f = HomogeneousForm(F4, 3, 2, {(2, 0, 0): U, (0, 1, 1): F4.one()})
        assert form_from_json(form_to_json(f)) == f

    def test_form_round_trip_over_rationals(self):
        f = HomogeneousForm(QQ, 2, 2, {(2, 0): Fraction(3, 4), (1, 1): Fraction(-2)})
        assert form_from_json(form_to_json(f)) == f

    def test_terms_serialized_in_descending_order(self):
        f = form(F2, 3, 2, [((0, 0, 2), 1), ((2, 0, 0), 1), ((1, 1, 0), 1)])
        exps = [tuple(t["exps"]) for t in form_to_json(f)["terms"]]
        assert exps == [(2, 0, 0), (1, 1, 0), (0, 0, 2)]

    def test_system_round_trip(self):
        f = form(F3, 2, 2, [((2, 0), 1)])
        g = form(F3, 2, 2, [((0, 2), 1), ((1, 1), 2)])
        system = LinearSystemOfForms([f, g])
        back = system_from_json(system_to_json(system))
        assert back.generators == system.generators

    def test_many_variables_load_fast(self):
        # the independence check looks only at the monomials in use, not at
        # all C(37, 8) ~ 3.9e7 monomials of degree 8 in 30 variables
        x0 = form(F2, 30, 8, [((8,) + (0,) * 29, 1)])
        obj = system_to_json(LinearSystemOfForms([x0]))
        start = time.perf_counter()
        assert system_from_json(obj).generators == (x0,)
        assert time.perf_counter() - start < 1

    def test_header_mismatch_rejected(self):
        f = form(F3, 2, 2, [((2, 0), 1)])
        obj = system_to_json(LinearSystemOfForms([f]))
        obj["degree"] = 3
        with pytest.raises(ValueError):
            system_from_json(obj)
