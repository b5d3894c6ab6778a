"""Construction tests: template forms, normal bases and Moore matrices,
Galois descent, the diagonal and cyclic cases of the one construction
pipeline, the rational lift, the characteristic-2 quadric machinery and the built-in
GF(3) system."""

import json
import random
from fractions import Fraction

import pytest

from ksmooth.constructions import (
    _check_equal_span,
    _construct,
    _is_normal,
    builtin_example_f3,
    char2_find_singular_member,
    char2_quadric_singular_point,
    construct_smooth_system,
    construct_system_with_details,
    construction_to_json,
    fermat_form,
    galois_descent,
    klein_form,
    lift_to_char_zero,
    moore_matrix,
    moore_symmetries,
    normal_basis_search,
)
from ksmooth.errors import (
    EvenN,
    HypothesisViolated,
    NoSolution,
    NotFrobeniusCyclic,
    NotPrimeField,
    PreconditionViolated,
    RankViolated,
    ShapeViolated,
    ZeroCoefficient,
)
from ksmooth.fields import (
    QQ,
    FieldDescriptor,
    FieldElement,
    get_descriptor,
    get_embedding,
    is_prime,
)
from form_helpers import coefficients_fixed_by_frobenius, frobenius_twist
from ksmooth import smoothness
from ksmooth.multipoly import (
    HomogeneousForm,
    LinearSystemOfForms,
    random_system,
)
from ksmooth.smoothness import (
    Smooth,
    is_smooth,
    search_singular_point,
    verify_system_K_smooth,
    witness_verifies,
)

F2 = get_descriptor(2)
F3 = get_descriptor(3)
F4 = get_descriptor(2, 2)
U = F4.element([0, 1])


def form(field, nvars, degree, entries):
    return HomogeneousForm(field, nvars, degree,
                           {tuple(e): field.from_int(c) for e, c in entries})


def _det(rows):
    """The determinant of a square matrix of elements, read off the `rref`
    of its index rows."""
    field = rows[0][0].field
    _, pivots, det = field.arithmetic.rref(
        [{k: x.idx for k, x in enumerate(row) if x} for row in rows], len(rows))
    return field.element_from_index(det) if len(pivots) == len(rows) else field.zero()


class TestTemplateForms:
    def test_fermat_cubic(self):
        ones = (F2.one(),) * 3
        assert fermat_form(ones, 3) == form(F2, 3, 3, [((3, 0, 0), 1),
                                                       ((0, 3, 0), 1),
                                                       ((0, 0, 3), 1)])

    def test_fermat_with_extension_coefficients(self):
        f = fermat_form((U, F4.one()), 2)
        assert f == HomogeneousForm(F4, 2, 2, {(2, 0): U, (0, 2): F4.one()})

    def test_fermat_rejects_zero_coefficient(self):
        with pytest.raises(ZeroCoefficient):
            fermat_form((F2.one(), F2.zero()), 2)

    def test_klein_quadric(self):
        ones = (F2.one(),) * 3
        assert klein_form(ones, 2) == form(F2, 3, 2, [((1, 1, 0), 1),
                                                      ((0, 1, 1), 1),
                                                      ((1, 0, 1), 1)])

    def test_klein_quartic_shape(self):
        ones = (F3.one(),) * 3
        assert klein_form(ones, 4) == form(F3, 3, 4, [((3, 1, 0), 1),
                                                      ((0, 3, 1), 1),
                                                      ((1, 0, 3), 1)])

    def test_klein_misses_the_all_ones_point_over_f2(self):
        f = klein_form((F2.one(),) * 3, 2)
        assert f.evaluate((F2.one(),) * 3) == F2.one()

    def test_klein_rejects_zero_coefficient(self):
        with pytest.raises(ZeroCoefficient):
            klein_form((F2.one(), F2.zero(), F2.one()), 2)


class TestNormalBasisSearch:
    def test_f4_over_f2(self):
        md = normal_basis_search(2, 1, 1)
        assert md.alpha == F4.element([0, 1])
        assert md.det == md.field.one()
        assert moore_matrix(md.alpha, 1, 2)[0] == [U, U + F4.one()]

    def test_moore_data_hashes_by_its_fields(self):
        md = normal_basis_search(3, 1, 2)
        assert hash(md) == hash(normal_basis_search(3, 1, 2))
        assert md in {md}

    def test_f8_over_f2(self):
        md = normal_basis_search(2, 1, 2)
        f8 = md.field
        assert md.alpha == f8.element([1, 1, 0])   # u + 1

    def test_f9_over_f3(self):
        md = normal_basis_search(3, 1, 1)
        f9 = md.field
        assert md.alpha == f9.element([1, 1])      # u + 1
        assert md.det == f9.element([0, 1])        # u

    @pytest.mark.parametrize("p,e,n", [(2, 1, 1), (2, 1, 2), (2, 1, 3),
                                       (2, 2, 1), (3, 1, 1), (3, 1, 2),
                                       (3, 2, 1)])
    def test_rows_are_the_frobenius_orbit(self, p, e, n):
        from ksmooth.fields import frobenius
        md = normal_basis_search(p, e, n)
        assert md.det
        rows = moore_matrix(md.alpha, e, n + 1)
        first = rows[0]
        for j in range(1, n + 1):
            assert rows[j] == [frobenius(c, e) for c in rows[j - 1]]
        assert first[0] == md.alpha


    # every (p, e, n) with q^(n+1) <= 1024
    NORMALITY_CASES = [(p, e, n) for p in range(2, 32) if is_prime(p)
                       for e in range(1, 11) for n in range(1, 10) if p ** (e * (n + 1)) <= 1024]

    @pytest.mark.parametrize("p, e, n", NORMALITY_CASES)
    def test_gcd_test_agrees_with_the_moore_determinant(self, p, e, n):
        big = get_descriptor(p, e * (n + 1))
        for x in big.elements()[1:]:
            assert _is_normal(big.arithmetic, x.idx, p ** e, n + 1) == bool(
                _det(moore_matrix(x, e, n + 1))), x

    def test_large_cases_keep_their_alpha(self):
        # the first normal element of GF(2^16) over GF(2) has index 2^11, so
        # 2,047 candidates come before it; that of GF(2^24) over GF(2^12) is u
        for (p, e, n), idx in (((2, 1, 15), 2 ** 11), ((2, 12, 1), 2)):
            md = normal_basis_search(p, e, n)
            assert md.alpha.idx == idx and md.det == _det(moore_matrix(md.alpha, e, n + 1))


class TestMooreSymmetries:
    @staticmethod
    def _product(a, b):
        return [[sum((x * y for x, y in zip(row, col)), a[0][0].field.zero())
                 for col in zip(*b)] for row in a]

    @pytest.mark.parametrize("p,e,n", [(2, 1, 1), (2, 1, 2), (2, 1, 4), (2, 2, 2),
                                       (3, 1, 2), (3, 2, 1)])
    def test_maps_act_on_the_moore_coordinates(self, p, e, n):
        md = normal_basis_search(p, e, n)
        m, shift = moore_symmetries(md.base, md.alpha)
        assert all(x.field == md.base for row in m + shift for x in row)
        assert _det(m) and _det(shift)
        up = get_embedding(md.base, md.field).up
        a = moore_matrix(md.alpha, e, n + 1)
        am = self._product(a, [[up(x) for x in row] for row in m])
        # y_j(M x) = lambda^(q^j) y_j(x) for a primitive lambda
        lam = am[0][0] / a[0][0]
        order = md.field.order - 1
        assert all(lam ** (order // r) != md.field.one()
                   for r in range(2, order + 1) if order % r == 0)
        for j in range(n + 1):
            assert am[j] == [lam ** (md.base.order ** j) * x for x in a[j]]
        # y_j(P x) = y_(j+1)(x): the Frobenius
        ap = self._product(a, [[up(x) for x in row] for row in shift])
        assert ap == a[1:] + a[:1]

    @pytest.mark.parametrize("index", [0, 1])
    def test_non_normal_alpha_gives_none(self, index):
        big = get_descriptor(2, 3)
        assert moore_symmetries(F2, big.element_from_index(index)) == ()


class TestGaloisDescent:
    def test_binary_cubic_family(self):
        res = construct_system_with_details(2, 1, 1, 3, 1)[1]
        assert res.generators[0] == form(F2, 2, 3, [((3, 0), 1), ((2, 1), 1),
                                                    ((0, 3), 1)])
        assert res.generators[1] == form(F2, 2, 3, [((3, 0), 1), ((1, 2), 1),
                                                    ((0, 3), 1)])

    def test_member_sum_is_the_fermat_member(self):
        res = construct_system_with_details(2, 1, 1, 3, 1)[1]
        member = res.generators[0] + res.generators[1]
        assert member == form(F2, 2, 3, [((2, 1), 1), ((1, 2), 1)])
        raw_sum = res.raw_generators[0] + res.raw_generators[1]
        emb = get_embedding(F2, res.moore.field)
        assert member.embed(emb) == raw_sum

    def test_raw_families_are_frobenius_cyclic(self):
        for res in (construct_system_with_details(2, 1, 2, 3, 2)[1],
                    construct_system_with_details(3, 1, 1, 3, 1)[1],
                    construct_system_with_details(2, 2, 1, 3, 1)[1]):
            raw = res.raw_generators
            nv = len(raw)
            for i in range(nv):
                assert frobenius_twist(raw[i], res.moore.base.e) == raw[(i + 1) % nv]

    def test_descended_generators_are_frobenius_fixed(self):
        res = construct_system_with_details(2, 2, 1, 3, 1)[1]
        emb = get_embedding(res.system.field, res.moore.field)
        for g in res.generators:
            assert coefficients_fixed_by_frobenius(g.embed(emb), res.moore.base.e)

    def test_substituting_moore_rows_into_template_gives_raw_family(self):
        res = construct_system_with_details(3, 1, 2, 2, 2)[1]
        big = res.moore.field
        template = fermat_form((big.one(),) * 3, 2)
        assert template.substitute_linear(moore_matrix(res.moore.alpha, 1, 3)) == \
            res.raw_generators[0] + res.raw_generators[1] + res.raw_generators[2]
        res2 = construct_system_with_details(2, 1, 2, 2, 2)[1]
        big2 = res2.moore.field
        template2 = klein_form((big2.one(),) * 3, 2)
        total = res2.raw_generators[0]
        for raw in res2.raw_generators[1:]:
            total = total + raw
        assert template2.substitute_linear(moore_matrix(res2.moore.alpha, 1, 3)) == total

    def test_equal_span_check_rejects_a_dependent_family(self):
        f = form(F2, 2, 2, [((2, 0), 1)])
        g = form(F2, 2, 2, [((1, 1), 1)])
        arith = F2.arithmetic
        f, g, h = ({m: c.idx for m, c in x.terms.items()} for x in (f, g, f + g))
        _check_equal_span(arith, [f, g], [g, h])
        with pytest.raises(AssertionError):
            _check_equal_span(arith, [f, f], [f, f])
        with pytest.raises(AssertionError):
            _check_equal_span(arith, [f, g], [f, f])

    def test_non_cyclic_family_rejected(self):
        md = normal_basis_search(2, 1, 1)
        big = md.field
        bad = [HomogeneousForm(big, 2, 2, {(2, 0): big.one()}),
               HomogeneousForm(big, 2, 2, {(0, 2): big.one()})]
        with pytest.raises(NotFrobeniusCyclic):
            galois_descent(bad, md)


class TestOnePathOnIndices:
    def test_warm_construct_does_no_form_or_element_arithmetic(self, monkeypatch):
        construct_system_with_details(2, 1, 15, 3, 15)
        calls = []
        for cls, name in ((HomogeneousForm, "__add__"), (HomogeneousForm, "scale"),
                          (FieldElement, "__add__"), (FieldElement, "__mul__"),
                          (FieldElement, "__pow__")):
            def counted(*args, _method=getattr(cls, name), _name=f"{cls.__name__}.{name}"):
                calls.append(_name)
                return _method(*args)
            monkeypatch.setattr(cls, name, counted)
        system, res = construct_system_with_details(2, 1, 15, 3, 15)
        assert calls == []
        assert len(system.generators) == 16 and res.moore.alpha.idx == 2 ** 11

    def test_two_monomial_template_where_p_divides_gcd(self):
        # y3^4 + u*y0*y2^2*y3 over GF(2) with n = 3: p = 2 divides
        # gcd(d, n+1) = 4, so neither fixed template applies, yet this one
        # descends to a K-smooth system through the one path
        with pytest.raises(HypothesisViolated):
            construct_smooth_system(2, 1, 3, 4, 3)
        moore = normal_basis_search(2, 1, 3)
        big = moore.field
        assert moore.alpha.idx == 8
        u = big.element([0, 1, 0, 0])
        raw, generators = _construct(moore, [((0, 0, 0, 4), 1), ((1, 0, 2, 1), u.idx)], 4)
        # F_0 in the Moore coordinates, by the form path
        assert raw[0] == HomogeneousForm(big, 4, 4, {(0, 0, 0, 4): big.one(),
                                                     (1, 0, 2, 1): u}).substitute_linear(
            moore_matrix(moore.alpha, 1, 4))
        assert galois_descent(raw, moore) == list(generators)
        report = verify_system_K_smooth(LinearSystemOfForms(generators))
        assert report.member_count == 15 and report.k_smooth

    def test_symmetries_are_found_and_induced_on_indices(self, monkeypatch):
        system, res = construct_system_with_details(2, 1, 15, 3, 15)
        moore_symmetries(system.field, res.moore.alpha)
        calls = []
        for cls, name in ((FieldElement, "__mul__"), (FieldElement, "__pow__")):
            def counted(*args, _method=getattr(cls, name), _name=f"{cls.__name__}.{name}"):
                calls.append(_name)
                return _method(*args)
            monkeypatch.setattr(cls, name, counted)
        symmetries = moore_symmetries(system.field, res.moore.alpha)
        induced = smoothness._induced_matrices(system, symmetries)
        # lambda is walked on indices, and each symmetry is indexed once
        assert calls == []
        assert all(type(m) is list and all(x.field == system.field for row in m for x in row)
                   for m in symmetries)
        assert len(induced) == 2 and all(len(t) == 16 for t in induced)

    @pytest.mark.parametrize("small,big", [((2, 1), (2, 4)), ((2, 2), (2, 4)), ((3, 1), (3, 2)),
                                           ((3, 2), (3, 4)), ((2, 6), (2, 18))],
                             ids=lambda pe: f"{pe[0]}^{pe[1]}")
    def test_down_index_inverts_up_index_and_rejects_the_rest(self, small, big):
        small, big = FieldDescriptor(*small), FieldDescriptor(*big)
        emb = get_embedding(small, big)
        image = [emb.up_index(i) for i in range(small.order)]
        assert [emb.down_index(y) for y in image] == list(range(small.order))
        outside = set(range(min(big.order, 4096))) - set(image)
        assert outside
        for y in outside:
            with pytest.raises(NoSolution):
                emb.down_index(y)


class TestFermatConstruction:
    def test_binary_cubics_over_f2_all_smooth(self):
        res = construct_system_with_details(2, 1, 1, 3, 1)[1]
        report = verify_system_K_smooth(res.system)
        assert report.member_count == 3
        assert report.k_smooth

    def test_f3_plane_quadrics_all_smooth(self):
        res = construct_system_with_details(3, 1, 2, 2, 2)[1]
        report = verify_system_K_smooth(res.system)
        assert report.member_count == 13
        assert report.k_smooth


class TestKleinConstruction:
    def test_plane_quadrics_over_f2(self):
        res = construct_system_with_details(2, 1, 2, 2, 2)[1]
        report = verify_system_K_smooth(res.system)
        assert report.member_count == 7
        assert report.k_smooth
        for coeffs_idx, member in enumerate(res.system.generators):
            assert search_singular_point(member, 3) is None

    def test_binary_cubics_over_f3(self):
        res = construct_system_with_details(3, 1, 1, 3, 1)[1]
        report = verify_system_K_smooth(res.system)
        assert report.member_count == 4
        assert report.k_smooth


class TestDispatcher:
    def test_hypothesis_gate(self):
        with pytest.raises(HypothesisViolated):
            construct_smooth_system(3, 1, 2, 3, 2)

    def test_char2_quadric_gate_mentions_the_obstruction(self):
        with pytest.raises(HypothesisViolated) as info:
            construct_smooth_system(2, 1, 3, 2, 1)
        assert "singular" in str(info.value)

    def test_rank_gate(self):
        with pytest.raises(RankViolated):
            construct_smooth_system(2, 1, 2, 3, 3)

    @pytest.mark.parametrize("p,e", [(0, 1), (1, 1), (4, 1), (2, 0)])
    def test_field_gate_precedes_hypothesis_gate(self, p, e):
        with pytest.raises(ValueError, match="not prime|extension degree") as info:
            construct_smooth_system(p, e, 2, 3, 2)
        assert not isinstance(info.value, HypothesisViolated)

    def test_case1_dispatch(self):
        system, res = construct_system_with_details(2, 1, 2, 3, 2)
        assert res.case == 1
        report = verify_system_K_smooth(system)
        assert report.member_count == 7 and report.k_smooth

    def test_case2_dispatch(self):
        system, res = construct_system_with_details(2, 1, 2, 2, 2)
        assert res.case == 2

    def test_truncation_keeps_prefix(self):
        pencil, res = construct_system_with_details(3, 1, 2, 2, 1)
        assert pencil.generators == res.generators[:2]
        report = verify_system_K_smooth(pencil)
        assert report.member_count == 4 and report.k_smooth

    def test_result_holds_the_returned_system(self):
        system, res = construct_system_with_details(3, 1, 2, 2, 1)
        assert res.system is system
        assert len(res.generators) == 3

    def test_construct_command_builds_one_system(self, monkeypatch, capsys):
        from ksmooth import cli, constructions
        built = []
        real = constructions.LinearSystemOfForms

        def counting(generators):
            built.append(len(generators))
            return real(generators)

        monkeypatch.setattr(constructions, "LinearSystemOfForms", counting)
        assert cli.main(["construct", "--p", "2", "--n", "2", "--d", "3",
                         "--r", "1", "--json"]) == 0
        assert built == [2]
        assert len(json.loads(capsys.readouterr().out)["generators"]) == 2

    def test_construction_json_extras(self):
        _, res = construct_system_with_details(2, 1, 1, 3, 1)
        obj = construction_to_json(res)
        assert obj["case"] == 1
        assert obj["alpha"] == [0, 1]
        assert obj["moore_det"] == [1, 0]
        assert len(obj["generators"]) == 2


class TestLift:
    def test_diagonal_quadric_lifts_to_itself(self):
        from ksmooth.multipoly import LinearSystemOfForms
        diag = LinearSystemOfForms([fermat_form((F3.one(),) * 3, 2)])
        lifted = lift_to_char_zero(diag)
        assert lifted.field == QQ
        assert lifted.generators[0] == HomogeneousForm(
            QQ, 3, 2, {(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(1),
                       (0, 0, 2): Fraction(1)})

    def test_lift_values_are_the_small_representatives(self):
        lifted = lift_to_char_zero(builtin_example_f3())
        for g, h in zip(builtin_example_f3().generators, lifted.generators):
            assert set(g.terms) == set(h.terms)
            for m, c in h.terms.items():
                assert c == Fraction(g.terms[m].coeffs[0])
                assert 0 <= c <= 2

    def test_sampled_lifted_members_stay_smooth(self):
        lifted = lift_to_char_zero(builtin_example_f3())
        rng = random.Random(0)
        for _ in range(5):
            while True:
                coeffs = tuple(Fraction(rng.randint(-5, 5)) for _ in range(3))
                if any(coeffs):
                    break
            assert isinstance(is_smooth(lifted.member(coeffs)), Smooth)

    def test_rejects_extension_fields(self):
        res = construct_system_with_details(2, 2, 1, 3, 1)[1]
        with pytest.raises(NotPrimeField):
            lift_to_char_zero(res.system)


class TestChar2QuadricSingularPoint:
    def test_hyperbolic_plus_square(self):
        F = form(F2, 4, 2, [((2, 0, 0, 0), 1), ((0, 1, 1, 0), 1),
                            ((0, 0, 0, 2), 1)])
        w = char2_quadric_singular_point(F)
        assert w.point == (F2.one(), F2.zero(), F2.zero(), F2.one())

    def test_square_root_in_f4(self):
        F = HomogeneousForm(F4, 2, 2, {(2, 0): F4.one(), (0, 2): U})
        w = char2_quadric_singular_point(F)
        # the constructed representative (u+1 : 1) normalizes to (1 : u)
        assert w.point == (F4.one(), U)
        assert witness_verifies(F, w)

    def test_bare_square(self):
        F = form(F2, 4, 2, [((2, 0, 0, 0), 1)])
        w = char2_quadric_singular_point(F)
        assert w.point == (F2.zero(), F2.one(), F2.zero(), F2.zero())

    def test_shape_violations(self):
        with pytest.raises(ShapeViolated):
            char2_quadric_singular_point(form(F2, 4, 2, [((1, 1, 0, 0), 1)]))
        with pytest.raises(ShapeViolated):
            char2_quadric_singular_point(
                form(F2, 4, 2, [((2, 0, 0, 0), 1), ((1, 1, 0, 0), 1)]))

    def test_even_n_rejected(self):
        with pytest.raises(EvenN):
            char2_quadric_singular_point(form(F2, 3, 2, [((2, 0, 0), 1),
                                                         ((0, 1, 1), 1)]))

    def test_witness_is_base_field_rational(self):
        rng = random.Random(3)
        from ksmooth.multipoly import monomials_of_degree, random_element
        for field in (F2, F4):
            for _ in range(25):
                terms = {(2, 0, 0, 0): field.one()}
                for m in monomials_of_degree(4, 2):
                    if m[0] == 0:
                        c = random_element(field, rng)
                        if c:
                            terms[m] = c
                F = HomogeneousForm(field, 4, 2, terms)
                w = char2_quadric_singular_point(F)
                assert w.field == field
                assert witness_verifies(F, w)


def squares_system():
    from ksmooth.multipoly import LinearSystemOfForms
    gens = [HomogeneousForm(F2, 4, 2,
                            {tuple(2 if j == i else 0 for j in range(4)): F2.one()})
            for i in range(4)]
    return LinearSystemOfForms(gens)


class TestChar2FindSingularMember:
    def test_kernel_branch(self):
        res = char2_find_singular_member(squares_system())
        assert res.branch == "kernel"
        assert res.member == form(F2, 4, 2, [((0, 2, 0, 0), 1)])
        assert res.witness.point == (F2.one(), F2.zero(), F2.zero(), F2.zero())

    def test_preimage_branch(self):
        from ksmooth.multipoly import LinearSystemOfForms
        system = LinearSystemOfForms([
            form(F2, 4, 2, [((2, 0, 0, 0), 1)]),
            form(F2, 4, 2, [((1, 1, 0, 0), 1)]),
            form(F2, 4, 2, [((1, 0, 1, 0), 1)]),
            form(F2, 4, 2, [((1, 0, 0, 1), 1), ((0, 1, 1, 0), 1)])])
        res = char2_find_singular_member(system)
        assert res.branch == "preimage"
        assert res.member == form(F2, 4, 2, [((2, 0, 0, 0), 1)])
        assert res.witness.point == (F2.zero(), F2.one(), F2.zero(), F2.zero())

    def test_random_systems_always_refuted(self):
        rng = random.Random(14)
        for field in (F2, F4):
            for _ in range(10):
                system = random_system(field, 4, 2, 4, rng)
                res = char2_find_singular_member(system)
                assert witness_verifies(res.member, res.witness)
                assert res.member == system.member(res.coefficients)

    def test_preconditions(self):
        rng = random.Random(2)
        with pytest.raises(PreconditionViolated):
            char2_find_singular_member(random_system(F3, 4, 2, 4, rng))
        with pytest.raises(PreconditionViolated):
            char2_find_singular_member(random_system(F2, 4, 2, 3, rng))


class TestBuiltinExample:
    def test_shape(self):
        system = builtin_example_f3()
        assert len(system.generators) == 3
        assert system.nvars == 3 and system.degree == 3
        assert system.field == F3

    def test_term_counts(self):
        counts = [len(g.terms) for g in builtin_example_f3().generators]
        assert counts == [9, 6, 8]

    def test_all_13_members_smooth(self):
        report = verify_system_K_smooth(builtin_example_f3())
        assert report.member_count == 13
        assert report.verdicts == ("smooth",) * 13
        assert report.k_smooth
