"""Buchberger engine tests: division, reduced bases, the Buchberger
criterion, determinism, budgets, the packed-monomial kernel and the projective
emptiness certificate."""

import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import comb

import pytest

from ksmooth import groebner
from ksmooth.constructions import construct_smooth_system, lift_to_char_zero
from ksmooth.errors import BudgetExceeded, NotHomogeneous
from ksmooth.fields import QQ, enumerate_projective_points, get_descriptor
from ksmooth.groebner import (
    GroebnerBasis,
    _TABLE_BOUND,
    _jacobian,
    _make_monic,
    _rank_table,
    _remainder,
    _Slots,
    basis_to_json,
    buchberger,
    certificate_basis,
    certify_combinations,
    is_projectively_empty,
    normal_form,
    s_polynomial,
)
from ksmooth.multipoly import (
    HomogeneousForm,
    monomial_key,
    monomials_of_degree,
    random_element,
    random_form,
)
from ksmooth.smoothness import Singular, Smooth, is_smooth, jacobian_generators

F2 = get_descriptor(2)
F3 = get_descriptor(3)
F4 = get_descriptor(2, 2)
F5 = get_descriptor(5)
F9 = get_descriptor(3, 2)
F65537 = get_descriptor(65537)


def poly(field, entries):
    """Term dict from {exps: int} (not necessarily homogeneous)."""
    return {tuple(e): field.from_int(c) for e, c in entries.items()}


class TestNormalForm:
    def test_drops_divisible_leading_terms(self):
        f = poly(F5, {(2, 1): 1, (0, 1): 1})      # x^2 y + y
        g = poly(F5, {(2, 0): 1})                 # x^2
        assert normal_form(f, [g], F5) == poly(F5, {(0, 1): 1})

    def test_basis_elements_reduce_to_zero(self):
        gens = [poly(F3, {(2, 0): 1, (0, 2): 2}), poly(F3, {(1, 1): 1})]
        basis = buchberger(gens, field=F3, nvars=2)
        for terms in basis.elements:
            assert not normal_form(dict(terms), basis)

    def test_pure_powers_kill_everything(self):
        gens = [poly(F2, {(1, 0, 0): 1}), poly(F2, {(0, 1, 0): 1}),
                poly(F2, {(0, 0, 1): 1})]
        f = poly(F2, {(3, 0, 0): 1})
        assert not normal_form(f, gens, F2)

    def test_difference_lies_in_ideal(self):
        rng = random.Random(1)
        gens = [random_form(F3, 3, 2, rng), random_form(F3, 3, 2, rng)]
        basis = buchberger(gens)
        f = random_form(F3, 3, 3, rng)
        r = normal_form(f, basis)
        diff = dict(f.terms)
        for m, c in r.items():
            cur = diff.get(m)
            v = -c if cur is None else cur - c
            if v:
                diff[m] = v
            elif cur is not None:
                del diff[m]
        assert not normal_form(diff, basis)


class TestBuchberger:
    def test_already_reduced_input(self):
        gens = [poly(F2, {(1, 0): 1}), poly(F2, {(0, 1): 1})]
        basis = buchberger(gens, field=F2, nvars=2)
        assert set(basis.leading_monomials) == {(1, 0), (0, 1)}
        assert len(basis.elements) == 2

    def test_sum_and_difference_over_f5(self):
        a = poly(F5, {(2, 0): 1, (0, 2): -1})
        b = poly(F5, {(2, 0): 1, (0, 2): 1})
        basis = buchberger([a, b], field=F5, nvars=2)
        assert [dict(t) for t in basis.elements] == [poly(F5, {(0, 2): 1}),
                                                     poly(F5, {(2, 0): 1})]

    def test_fermat_cubic_jacobian_has_pure_powers(self):
        F = HomogeneousForm(F2, 3, 3, {(3, 0, 0): F2.one(), (0, 3, 0): F2.one(),
                                       (0, 0, 3): F2.one()})
        gens = [F] + [F.partial_derivative(i) for i in range(3)]
        basis = buchberger(gens)
        lms = set(basis.leading_monomials)
        assert {(2, 0, 0), (0, 2, 0), (0, 0, 2)} <= lms

    def test_buchberger_criterion_on_output(self):
        # GF(65537) runs on ints above the tabled fields, GF(4) and Q on
        # their own coefficients; the GF(2) quartic's run reduces 14 pairs
        # with the chain criterion and 38 with the product criterion alone
        rng = random.Random(8)
        inputs = []
        for field in (F2, F3, F4, F65537):
            for _ in range(10):
                inputs.append((field, [random_form(field, 3, 2, rng) for _ in range(2)]))
        for _ in range(5):
            inputs.append((QQ, [_rational_form(3, 2, rng, 5) for _ in range(2)]))
        inputs.append((F2, jacobian_generators(random_form(F2, 3, 4, random.Random(3)))))
        for field, gens in inputs:
            basis = buchberger(gens)
            elems = [dict(t) for t in basis.elements]
            for j in range(len(elems)):
                for i in range(j):
                    s = s_polynomial(elems[i], elems[j], field)
                    if s:
                        assert not normal_form(s, basis)

    def test_ideal_membership_is_multiplicatively_stable(self):
        rng = random.Random(12)
        gens = [random_form(F3, 3, 2, rng) for _ in range(2)]
        basis = buchberger(gens)
        f = gens[0]
        assert not normal_form(f, basis)
        for _ in range(10):
            g = random_form(F3, 3, rng.choice([1, 2]), rng)
            assert not normal_form(f * g, basis)

    def test_output_independent_of_generator_order(self):
        rng = random.Random(3)
        for _ in range(10):
            gens = [random_form(F3, 3, 2, rng) for _ in range(3)]
            forward = buchberger(gens)
            backward = buchberger(list(reversed(gens)))
            assert set(map(frozenset, (t.items() for t in forward.elements))) == \
                set(map(frozenset, (t.items() for t in backward.elements)))

    def test_reduced_basis_invariants(self):
        rng = random.Random(21)
        gens = [random_form(F5, 3, 2, rng) for _ in range(3)]
        basis = buchberger(gens)
        lms = basis.leading_monomials
        for i, terms in enumerate(basis.elements):
            assert terms[lms[i]] == F5.one()
            for j, lm in enumerate(lms):
                if i == j:
                    continue
                assert not any(all(a <= b for a, b in zip(lm, m)) for m in terms)

    def test_step_budget(self):
        rng = random.Random(2)
        gens = [random_form(F3, 3, 3, rng) for _ in range(3)]
        with pytest.raises(BudgetExceeded):
            buchberger(gens, step_budget=1)

    def test_rejects_all_zero_input(self):
        with pytest.raises(ValueError):
            buchberger([HomogeneousForm.zero(F2, 2, 2)])


class TestRationalCoefficients:
    def test_monic_output_over_q(self):
        a = {(2, 0): Fraction(2), (0, 2): Fraction(-2)}
        b = {(2, 0): Fraction(3), (0, 2): Fraction(3)}
        basis = buchberger([a, b], field=QQ, nvars=2)
        assert [dict(t) for t in basis.elements] == [
            {(0, 2): Fraction(1)}, {(2, 0): Fraction(1)}]

    def test_fractional_input_handled_exactly(self):
        a = {(2, 0): Fraction(1, 3), (1, 1): Fraction(5, 7)}
        b = {(0, 2): Fraction(2, 9), (1, 1): Fraction(-1)}
        basis = buchberger([a, b], field=QQ, nvars=2)
        for terms in basis.elements:
            assert not normal_form(dict(terms), basis)


class TestUnitScaling:
    """Every element is made monic, so scaling an input by a unit changes
    neither a remainder nor an S-polynomial."""

    UNITS = {F5: [F5.from_int(c) for c in (2, 3, 4)],
             QQ: [Fraction(-1), Fraction(3, 7), Fraction(-5, 2)]}

    @staticmethod
    def _form(field, degree, rng):
        if field == QQ:
            return dict(_rational_form(3, degree, rng, 4).terms)
        return dict(random_form(field, 3, degree, rng).terms)

    @pytest.mark.parametrize("field", [F5, QQ], ids=["gf5", "qq"])
    def test_normal_form_ignores_divisor_scale(self, field):
        rng = random.Random(7)
        for c in self.UNITS[field]:
            f, g, h = (self._form(field, d, rng) for d in (4, 2, 3))
            expected = normal_form(f, [g, h], field)
            assert expected
            scaled = [{m: c * v for m, v in g.items()}, h]
            assert normal_form(f, scaled, field) == expected

    @pytest.mark.parametrize("field", [F5, QQ], ids=["gf5", "qq"])
    def test_s_polynomial_ignores_input_scale(self, field):
        rng = random.Random(8)
        for c in self.UNITS[field]:
            f, g = self._form(field, 3, rng), self._form(field, 2, rng)
            expected = s_polynomial(f, g, field)
            assert expected
            assert s_polynomial({m: c * v for m, v in f.items()}, g, field) == expected
            assert s_polynomial(f, {m: c * v for m, v in g.items()}, field) == expected

    @pytest.mark.parametrize("field", [F5, QQ], ids=["gf5", "qq"])
    def test_certificate_elements_are_monic(self, field):
        form = HomogeneousForm(field, 3, 3, self._form(field, 3, random.Random(9)))
        basis = certificate_basis(jacobian_generators(form))
        for terms, lm in zip(basis.elements, basis.leading_monomials):
            assert terms[lm] == field.one()


class TestProjectiveEmptiness:
    def test_coordinate_ideal_is_empty(self):
        basis = buchberger([poly(F2, {(1, 0, 0): 1}), poly(F2, {(0, 1, 0): 1}),
                            poly(F2, {(0, 0, 1): 1})], field=F2, nvars=3)
        assert is_projectively_empty(basis)

    def test_surviving_point_detected(self):
        basis = buchberger([poly(F2, {(2, 0, 0): 1}), poly(F2, {(1, 1, 0): 1}),
                            poly(F2, {(0, 2, 0): 1})], field=F2, nvars=3)
        assert not is_projectively_empty(basis)   # [0:0:1] survives

    def test_fermat_cubic_jacobian_is_empty(self):
        F = HomogeneousForm(F2, 3, 3, {(3, 0, 0): F2.one(), (0, 3, 0): F2.one(),
                                       (0, 0, 3): F2.one()})
        basis = buchberger([F] + [F.partial_derivative(i) for i in range(3)])
        assert is_projectively_empty(basis)

    def test_rejects_inhomogeneous_basis(self):
        basis = GroebnerBasis(field=F2, nvars=2,
                              elements=(poly(F2, {(2, 0): 1, (0, 1): 1}),))
        with pytest.raises(NotHomogeneous):
            is_projectively_empty(basis)

    def test_empty_iff_no_point_found_by_search(self):
        # cross-module oracle: certificate agreement with exhaustive search
        from ksmooth.smoothness import search_singular_point
        rng = random.Random(31)
        for _ in range(15):
            f = random_form(F2, 3, 2, rng)
            gens = [f] + [f.partial_derivative(i) for i in range(3)]
            gens = [g for g in gens if g]
            basis = buchberger(gens)
            witness = search_singular_point(f, 3)
            assert is_projectively_empty(basis) == (witness is None)


class TestSerialization:
    def test_basis_json_shape(self):
        basis = buchberger([poly(F2, {(1, 0): 1})], field=F2, nvars=2)
        obj = basis_to_json(basis)
        assert obj["order"] == "degrevlex"
        assert obj["elements"] == [[{"exps": [1, 0], "coeff": [1]}]]


def _rational_form(nvars, degree, rng, den):
    terms = {m: Fraction(rng.randint(-3, 3), rng.randint(1, den))
             for m in monomials_of_degree(nvars, degree)}
    return HomogeneousForm(QQ, nvars, degree, {m: c for m, c in terms.items() if c})


def _mora(field, n):
    """x^(n+1) - y z^(n-1) w, x y^(n-1) - z^n, x^n z - y^n w: inputs of
    degree n+1 whose reduced basis reaches degree n^2+1."""
    def binomial(a, b):
        return HomogeneousForm(field, 4, sum(a), {a: field.one(), b: -field.one()})
    return [binomial((n + 1, 0, 0, 0), (0, 1, n - 1, 1)),
            binomial((1, n - 1, 0, 0), (0, 0, n, 0)),
            binomial((n, 0, 1, 0), (0, n, 0, 1))]


def _pinned_inputs():
    rng = random.Random(2024)
    return [
        ("gf2-jacobian", jacobian_generators(random_form(F2, 4, 3, rng))),
        ("gf2-quadrics", [random_form(F2, 3, 2, rng) for _ in range(3)]),
        ("gf3-jacobian", jacobian_generators(random_form(F3, 4, 3, rng))),
        ("gf3-mixed", [random_form(F3, 3, 2, rng), random_form(F3, 3, 3, rng)]),
        ("gf3-singular", jacobian_generators(random_form(F3, 3, 1, rng) ** 2
                                             * random_form(F3, 3, 1, rng))),
        ("gf4-jacobian", jacobian_generators(random_form(F4, 3, 3, rng))),
        ("gf4-quadrics", [random_form(F4, 4, 2, rng) for _ in range(2)]),
        ("qq-jacobian", jacobian_generators(_rational_form(3, 3, rng, 1))),
        ("qq-fractions", [_rational_form(3, 2, rng, 5) for _ in range(2)]),
        ("gf3-mora4", _mora(F3, 4)),
        ("gf2-mora5", _mora(F2, 5)),
    ]


# sha256 of json.dumps(basis_to_json(...), sort_keys=True), recorded with
# the tuple-monomial engine that preceded the packed kernel
PINNED_BASES = {
    "gf2-jacobian": "6cb1003717c33f55434a72d14d2d82984e5668580a8a0a1278dc2f341dd2edc8",
    "gf2-quadrics": "e120d5710bd3f5e30bea1db2301c4ff636dc5c8a67809fe3acb79161a29c923d",
    "gf3-jacobian": "146dc672dfa6237e1727883059f4fccc9d960df9af72529479468e2b5200dfd2",
    "gf3-mixed": "1ac5f9c721dae7af7a02ed6099c1ae493edf966789bab3182a4a08d75ebb12d9",
    "gf3-singular": "a6b870ae55f1367a98400edb3a5f0e0aa5fe262ea4ed6cc73d455b18db787179",
    "gf4-jacobian": "2bdca2defe48fa83995c39c88c65a0a99df780a78addf42b3d7e28c349bf7442",
    "gf4-quadrics": "f0d677271d67977abb50b9f4160acbe8e2dc34def7ee356f70c84c5126b17393",
    "qq-jacobian": "13c92f5f8a3ef3162da5fd4ff34b33ea309daff706e0e3cb8099a3766dde68e2",
    "qq-fractions": "5e098a987b5b11bb310871a0c4633934f81bc394447dfb9014c365ec5afb8358",
    "gf3-mora4": "7dadacc984994d4a99db21614ac2c13af16b82bcd45f06ec96c47a8fb7e7f212",
    "gf2-mora5": "a3c7d41eef2b3531ea6a25ca3ee67d8a2acf089d3e0fd6cf2a4c7fb1c1141e8e",
}


class TestPackedKernel:
    @pytest.mark.parametrize("name", list(PINNED_BASES))
    def test_reduced_basis_bytes_are_pinned(self, name):
        basis = buchberger(dict(_pinned_inputs())[name])
        text = json.dumps(basis_to_json(basis), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_BASES[name]

    def test_degree_growth_past_the_first_slot_width(self):
        # inputs of degree 6 get slots for degree 15; the basis reaches 26
        basis = buchberger(_mora(F2, 5))
        assert max(sum(m) for terms in basis.elements for m in terms) == 26
        for terms in basis.elements:
            assert not normal_form(dict(terms), basis)

    @pytest.mark.parametrize("n", [255, 256, 1000, 70000])
    def test_single_pure_power_of_any_degree(self, n):
        x0n = poly(F3, {(n, 0, 0): 1})
        basis = buchberger([x0n, poly(F3, {(0, 1, 0): 1})], field=F3, nvars=3)
        assert [dict(t) for t in basis.elements] == [poly(F3, {(0, 1, 0): 1}), x0n]
        assert not is_projectively_empty(basis)
        assert normal_form(poly(F3, {(n, 1, 1): 2, (n - 1, 0, 3): 1}), [x0n], F3) == \
            poly(F3, {(n - 1, 0, 3): 1})

    def test_rejects_inhomogeneous_generators(self):
        with pytest.raises(NotHomogeneous):
            buchberger([poly(F2, {(2, 0): 1, (0, 1): 1})], field=F2, nvars=2)


def _divide(f, divisors):
    """Remainder of the term dict f on exponent tuples under division by
    the divisors, each with leading coefficient 1: the largest term left is
    cancelled by the first divisor in list order whose leader divides it,
    or else moved to the remainder."""
    f, rem = dict(f), {}
    leads = [max(g, key=monomial_key) for g in divisors]
    while f:
        m = max(f, key=monomial_key)
        c = f.pop(m)
        for g, lead in zip(divisors, leads):
            if all(a >= b for a, b in zip(m, lead)):
                for mg, cg in g.items():
                    mm = tuple(a + b - e for a, b, e in zip(m, mg, lead))
                    if mm != m:
                        v = f.get(mm)
                        v = -(c * cg) if v is None else v - c * cg
                        if v:
                            f[mm] = v
                        else:
                            del f[mm]
                break
        else:
            rem[m] = c
    return rem


def _sparse_form(field, degree, rng):
    """A nonzero term dict in three variables holding about half of the
    monomials of the degree, with nonzero coefficients, so that leaders
    vary."""
    while True:
        terms = {}
        for m in monomials_of_degree(3, degree):
            if rng.random() < 0.5:
                if field is QQ:
                    terms[m] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 5))
                else:
                    terms[m] = field.element_from_index(rng.randrange(1, field.order))
        if terms:
            return terms


def _monic(terms):
    inv = terms[max(terms, key=monomial_key)] ** -1
    return {m: c * inv for m, c in terms.items()}


def _few_terms(field, degree, count, rng):
    """A term dict in three variables of `count` random monomials of the
    degree, with nonzero coefficients."""
    terms = {}
    while len(terms) < count:
        a = rng.randint(0, degree)
        b = rng.randint(0, degree - a)
        if field is QQ:
            terms[(a, b, degree - a - b)] = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
        else:
            terms[(a, b, degree - a - b)] = field.element_from_index(rng.randrange(1, field.order))
    return terms


class _Kernel:
    """`_reduce_full` on exponent-tuple inputs, all with the same slots and
    one divisor map, as in a run of the Buchberger loop, on the walk that
    `_remainder` picks for their degree."""

    def __init__(self, field, nvars, degree):
        self.field, self.arith = field, field.arithmetic
        self.slots = _Slots.for_degree(nvars, degree)
        self.divisor = {}

    def key(self, exps):
        (key,) = self.slots.pack({exps: 1})
        return key

    def remainder(self, f, divisors):
        # a run reduces indices, and over Q the Fractions themselves
        index = self.arith.index
        pack = lambda t: self.slots.pack({m: index(c) for m, c in t.items()})
        gens = [_make_monic(pack(g), self.arith) for g in divisors]
        rem = _remainder(pack(f), gens, [min(g) for g in gens], self.slots, self.arith,
                         self.divisor, {})
        return {m: self.arith.element(c) for m, c in self.slots.unpack(rem).items()}


class TestReductionKernel:
    """`_reduce_full` against `_divide`: the same divisor at every step and
    exact arithmetic give the same remainder, term for term."""

    @pytest.mark.parametrize("field", [F2, F3, F5, F4, QQ], ids=str)
    def test_remainders_match_plain_division(self, field):
        rng = random.Random(17)
        for _ in range(12):
            divisors = [_monic(_sparse_form(field, rng.choice((1, 2, 2, 3)), rng))
                        for _ in range(rng.randint(1, 4))]
            f = _sparse_form(field, 5, rng)
            # a fresh divisor map per call, as in the tail reduction
            assert _Kernel(field, 3, 5).remainder(f, divisors) == _divide(f, divisors)
        # a degree with more monomials than the table bound: the heap walk
        degree = 130
        kernel = _Kernel(field, 3, degree)
        assert comb(degree + 2, 2) > _TABLE_BOUND and _rank_table(kernel.slots, degree) is None
        for _ in range(4):
            divisors = [_monic(_few_terms(field, rng.choice((1, 2, 3)), 2, rng))
                        for _ in range(rng.randint(1, 3))]
            f = _few_terms(field, degree, 6, rng)
            assert _Kernel(field, 3, degree).remainder(f, divisors) == _divide(f, divisors)

    @pytest.mark.parametrize("field", [F2, F3, F5, F4, QQ], ids=str)
    def test_one_divisor_map_while_the_divisors_grow(self, field):
        rng = random.Random(23)
        kernel = _Kernel(field, 3, 4)
        divisors = [_monic(_sparse_form(field, 2, rng))]
        resumed = 0
        for _ in range(6):
            unresolved = {key for key, k in kernel.divisor.items() if k < 0}
            for _ in range(3):
                f = _sparse_form(field, 4, rng)
                assert kernel.remainder(f, divisors) == _divide(f, divisors)
            # keys recorded as having no divisor that an appended one divides
            resumed += sum(kernel.divisor[key] >= 0 for key in unresolved)
            divisors.append(_monic(_sparse_form(field, rng.choice((2, 3)), rng)))
        assert resumed

    def test_a_key_without_a_divisor_is_reduced_once_one_is_appended(self):
        kernel = _Kernel(F3, 3, 2)
        g1 = poly(F3, {(0, 2, 0): 1, (0, 0, 2): 1})       # y^2 + z^2
        g2 = poly(F3, {(2, 0, 0): 1, (0, 1, 1): 2})       # x^2 + 2yz
        x2 = kernel.key((2, 0, 0))
        f = poly(F3, {(2, 0, 0): 1, (1, 1, 0): 1})
        assert kernel.remainder(f, [g1]) == f
        assert kernel.divisor[x2] == ~1
        f = poly(F3, {(2, 0, 0): 1, (0, 0, 2): 1})
        assert kernel.remainder(f, [g1, g2]) == poly(F3, {(0, 1, 1): 1, (0, 0, 2): 1})
        assert kernel.divisor[x2] == 1

    def test_coefficients_are_reduced_when_popped(self):
        # every step adds (p - c) times a tail, so the remainder's
        # coefficients pass p before they are taken mod p
        kernel = _Kernel(F2, 3, 6)
        x, y, z = (1, 0, 0), (0, 1, 0), (0, 0, 1)
        divisors = [poly(F2, {x: 1, y: 1, z: 1})]
        f = poly(F2, {(6, 0, 0): 1})
        rem = kernel.remainder(f, divisors)
        assert rem == _divide(f, divisors)
        # (y + z)^6 = (y^2 + z^2)^3 over GF(2)
        assert set(rem) == {(0, a, 6 - a) for a in (0, 2, 4, 6)}


class TestRankTables:
    """The keys of one degree that a dense walk indexes by rank."""

    @pytest.mark.parametrize("nvars,degree", [(1, 4), (2, 7), (3, 5), (4, 6), (5, 9), (8, 3)])
    def test_keys_ascend_over_every_monomial_of_the_degree(self, nvars, degree):
        slots = _Slots.for_degree(nvars, degree)
        # the second width is the one a run moves to when its slots overflow
        for slots in (slots, _Slots(nvars, 2 * slots.width)):
            keys, ranks = _rank_table(slots, degree)
            assert all(a < b for a, b in zip(keys, keys[1:]))
            assert len(keys) == comb(degree + nvars - 1, nvars - 1)
            assert sorted(map(slots.exponents, keys)) == sorted(monomials_of_degree(nvars, degree))
            assert ranks == {k: r for r, k in enumerate(keys)}
            assert _rank_table(slots, degree) is _rank_table(slots, degree)

    def test_no_table_above_the_bound(self):
        slots = _Slots.for_degree(3, 200)
        assert comb(127 + 2, 2) > _TABLE_BOUND >= comb(126 + 2, 2)
        assert _rank_table(slots, 127) is None
        assert len(_rank_table(slots, 126)[0]) == comb(128, 2)


def _digest(basis):
    text = json.dumps(basis_to_json(basis), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _smooth_jacobian(make, rng):
    """The Jacobian generators of the first form make(rng) whose
    certificate run stops at the pure-power test."""
    while True:
        gens = jacobian_generators(make(rng))
        if is_projectively_empty(certificate_basis(gens)):
            return gens


def _lifted_member(spec):
    """A fixed rational member of the lift of the (p, e, n, d) system."""
    p, e, n, d = spec
    lifted = lift_to_char_zero(construct_smooth_system(p, e, n, d, n))
    return lifted.member([Fraction(c) for c in (1, -2, 3, 1)[:len(lifted.generators)]])


def _certificate_inputs():
    """Name -> function building a certificate that stops before the full
    run: the elements are whatever the loop's reductions left, so their
    bytes depend on which divisor each reduction step used."""
    rng = random.Random(2026)
    inputs = {}
    for name, make in (("gf2-quartic", lambda r: random_form(F2, 3, 4, r)),
                       ("gf2-cubic-surface", lambda r: random_form(F2, 4, 3, r)),
                       ("gf3-quartic", lambda r: random_form(F3, 3, 4, r)),
                       ("gf4-cubic-surface", lambda r: random_form(F4, 4, 3, r)),
                       ("gf9-quartic", lambda r: random_form(F9, 3, 4, r)),
                       ("qq-quartic", lambda r: _rational_form(3, 4, r, 3))):
        gens = _smooth_jacobian(make, rng)
        inputs[name] = lambda gens=gens: certificate_basis(gens)

    for (p, e, n, d), index in (((3, 1, 4, 3), 7), ((3, 1, 3, 5), 20), ((2, 1, 4, 4), 0)):
        def member(p=p, e=e, n=n, d=d, index=index):
            system = construct_smooth_system(p, e, n, d, n)
            points = enumerate_projective_points(system.field, system.dim)
            return system.member(next(itertools.islice(points, index, None)))

        inputs[f"gf{p}-member-{p}{e}{n}{d}"] = lambda member=member: is_smooth(member()).certificate
    for spec in ((2, 1, 2, 4), (2, 1, 3, 3)):
        label = "".join(map(str, spec))
        # is_smooth certifies the member by a reduction mod a small prime
        inputs[f"lift{label}-modular"] = lambda spec=spec: is_smooth(_lifted_member(spec)).certificate
        inputs[f"lift{label}-qq"] = lambda spec=spec: certificate_basis(
            jacobian_generators(_lifted_member(spec)))
    return inputs


# sha256 of json.dumps(basis_to_json(...), sort_keys=True), recorded with the
# reduction loop that searched every leader for each term (min of the
# remainder at each step, mod p after each update)
PINNED_CERTIFICATES = {
    "gf2-quartic": "db432341ff626cbc1c78111dad9f30720a0389727747d65e3a2fd1d922e1cde9",
    "gf2-cubic-surface": "43e9a1c1ca1be68c9d35687eb7aacc99f347daf372572f7dd0baf8679d6ace1c",
    "gf3-quartic": "8e5a69bd841e1b19c9d49ab5ba0cf1a6a8f020293175ec297519029d215aef61",
    "gf4-cubic-surface": "1cc46a58d60cbe81fdc8a73635b99090b7bb022151d9c35b7f4b242264442174",
    "gf9-quartic": "08b10f006a9fe55ee35b53eca93fd9c322e482b960c8708e1204439f4b661f33",
    "qq-quartic": "3b17a388b393b7609dda2eb63ea1f95b2f14cb476c082365e84d0c4cfd7ec004",
    "gf3-member-3143": "f05300f7429cb8ed343b0fe7690acec31d32d55c363c4a849a997cf1ed874744",
    "gf3-member-3135": "4aaa840b5c42d81523064e05623eb83c6c6abd26b3faaf92c157b4f7c8284209",
    "gf2-member-2144": "2c999518add481772a234c0b4a3a1a1074ecbbc6fc44e467c9ae0090812485a0",
    "lift2124-modular": "99d270cc3cc8e81362c7f828913b70c1476ae667728fe18b29b461b88b21195b",
    "lift2124-qq": "94c2ffc1bfabcca8941a051b6688efe6e7244e4526d28bbfa1659b2e16be06f3",
    "lift2133-modular": "dc487ec18b56b85bc893c7342927c7c5524b2bce55776cd4e60239ddb9ebe632",
    "lift2133-qq": "0bdce4ad63a97b3add44cd3d5a7321ce1787f9e07da3316099cf1f66231950c7",
}


class TestCertificateBytes:
    """Certificates are not canonical, unlike reduced bases: these pins
    catch a reduction loop that picks another divisor or drops a term."""

    @pytest.mark.parametrize("name", list(PINNED_CERTIFICATES))
    def test_certificate_bytes_are_pinned(self, name):
        basis = _certificate_inputs()[name]()
        assert is_projectively_empty(basis)
        assert _digest(basis) == PINNED_CERTIFICATES[name]


class TestCertificateBasis:
    def test_stops_before_the_full_run(self):
        gens = jacobian_generators(random_form(F3, 3, 3, random.Random(11)))
        cert = certificate_basis(gens)
        full = buchberger(gens)
        assert is_projectively_empty(cert) and is_projectively_empty(full)
        assert cert != full
        for terms in cert.elements:
            assert not normal_form(dict(terms), full)

    def test_returns_the_reduced_basis_when_no_stop(self):
        rng = random.Random(5)
        for field in (F2, F3, F4):
            for _ in range(5):
                f = random_form(field, 3, 1, rng) ** 2 * random_form(field, 3, 1, rng)
                gens = jacobian_generators(f)
                assert certificate_basis(gens) == buchberger(gens)

    def test_step_budget_counts_popped_pairs(self):
        rng = random.Random(2)
        gens = [random_form(F3, 3, 3, rng) for _ in range(3)]
        with pytest.raises(BudgetExceeded):
            certificate_basis(gens, step_budget=1)


def _exponents_up_to(nvars, total):
    """Every exponent tuple of nvars entries and degree at most total."""
    if not nvars:
        yield ()
        return
    for e in range(total + 1):
        for rest in _exponents_up_to(nvars - 1, total - e):
            yield (e,) + rest


def _jacobian_row(form):
    """[F, dF/dx0, ..., dF/dxn], zero partials kept."""
    return [form, *(form.partial_derivative(i) for i in range(form.nvars))]


class TestCertifyCombinations:
    """A combination is decided as `certificate_basis` decides the nonzero
    forms sum_i a_i rows[i][k] built one by one."""

    def _agrees(self, field, rows, coefficient_lists):
        index = field.arithmetic.index
        slots = _Slots.for_degree(rows[0][0].nvars, max(f.degree for row in rows for f in row))
        certify = certify_combinations(
            [[slots.pack({m: index(c) for m, c in f.terms.items()}) for f in row] for row in rows],
            field, slots)
        verdicts = set()
        for coeffs in coefficient_lists:
            forms = [sum((f.scale(a) for a, f in zip(coeffs, column) if a),
                         HomogeneousForm.zero(field, column[0].nvars, column[0].degree))
                     for column in zip(*rows)]
            nonzero = [f for f in forms if f]
            # the zero ideal vanishes everywhere
            expected = bool(nonzero) and is_projectively_empty(certificate_basis(nonzero))
            assert certify(coeffs) == expected, coeffs
            verdicts.add(expected)
        return verdicts

    @pytest.mark.parametrize("field", [F2, F3, F4, F5, F9])
    def test_random_rows_over_finite_fields(self, field):
        rng = random.Random(7)
        verdicts = set()
        for _ in range(4):
            rows = [_jacobian_row(random_form(field, 3, 2, rng)) for _ in range(3)]
            rows.append(_jacobian_row(random_form(field, 3, 1, rng) ** 2))
            coefficient_lists = [c for _ in range(8)
                                 if any(c := [random_element(field, rng) for _ in rows])]
            coefficient_lists.append([field.one()] + [field.zero()] * 3)
            coefficient_lists.append([field.zero()] * 3 + [field.one()])
            verdicts |= self._agrees(field, rows, coefficient_lists)
        assert verdicts == {True, False}

    def test_rational_rows(self):
        x0_squared = HomogeneousForm(QQ, 3, 2, {(2, 0, 0): Fraction(1)})
        rest = HomogeneousForm(QQ, 3, 2, {(0, 2, 0): Fraction(3), (0, 1, 1): Fraction(-1, 2),
                                          (0, 0, 2): Fraction(5)})
        rows = [_jacobian_row(x0_squared), _jacobian_row(rest)]
        coefficient_lists = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
                             (Fraction(2), Fraction(-1, 3)), (Fraction(-1), Fraction(7))]
        assert self._agrees(QQ, rows, coefficient_lists) == {True, False}


class TestPackedPurePower:
    @pytest.mark.parametrize("nvars", range(1, 6))
    def test_agrees_with_the_exponent_test(self, nvars):
        narrow = _Slots.for_degree(nvars, 1)
        for slots in (narrow, _Slots(nvars, 2 * narrow.width)):
            for exps in _exponents_up_to(nvars, slots.cap):
                nz = [i for i, e in enumerate(exps) if e]
                # a constant covers every variable, a pure power its own
                expected = ((1 << nvars) - 1 if not nz
                            else 1 << nz[0] if len(nz) == 1 else 0)
                (key,) = slots.pack({exps: 1})
                assert slots.covered(key) == expected, (exps, slots.width)


def _plain_partials(form):
    """dF/dx_i for each i, on exponent tuples and the form's coefficients,
    each in the form's term order."""
    from_int = form.field.from_int
    partials = []
    for i in range(form.nvars):
        partial = {}
        for m, c in form.terms.items():
            if m[i] and (v := c * from_int(m[i])):
                partial[m[:i] + (m[i] - 1,) + m[i + 1:]] = v
        partials.append(partial)
    return partials


class TestPackedJacobian:
    """`_jacobian` reads each exponent from its slot of a packed key; it
    must give the partials of differentiation on exponent tuples, in the
    same term order, at the first slot width and after a doubling."""

    @pytest.mark.parametrize("field", [F2, F3, F4, F9, QQ], ids=str)
    def test_matches_plain_differentiation(self, field):
        rng = random.Random(2727)
        index, element = field.arithmetic.index, field.arithmetic.element
        # the degree-9 forms lie past the cap of the first width for degree 2
        doubled = {nvars: _Slots(nvars, 2 * _Slots.for_degree(nvars, 2).width)
                   for nvars in (2, 3, 4)}
        assert 9 > _Slots.for_degree(3, 2).cap
        cases = 0
        for nvars, degree in ((2, 3), (3, 4), (4, 3), (2, 9), (3, 9)):
            for _ in range(3):
                form = (_rational_form(nvars, degree, rng, 3) if field is QQ
                        else random_form(field, nvars, degree, rng))
                if not form:
                    continue
                slots = _Slots.for_degree(nvars, degree) if degree < 9 else doubled[nvars]
                packed = slots.pack({m: index(c) for m, c in form.terms.items()})
                got = [{slots.exponents(m): element(c) for m, c in t.items()}
                       for t in _jacobian(packed, slots, field)]
                expected = [form.terms, *_plain_partials(form)]
                assert got == expected
                assert [list(t) for t in got] == [list(t) for t in expected]
                cases += 1
        assert cases >= 12


class TestReducedBasisOnRead:
    """A run that ends without its pure-power stop builds the minimal,
    tail-reduced basis only when the basis's `elements` are first read, so
    a singular verdict and a failed prime build none."""

    @staticmethod
    def _count_remainders(monkeypatch):
        calls = []
        real = groebner._remainder

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(groebner, "_remainder", counting)
        return calls

    def test_singular_verdicts_build_no_reduced_basis(self, monkeypatch):
        rng = random.Random(5)
        singular = random_form(F3, 3, 1, rng) ** 2 * random_form(F3, 3, 1, rng)
        lifted = lift_to_char_zero(construct_smooth_system(3, 1, 2, 4, 2))
        member = lifted.member([Fraction(-1)] * 3)
        primes = []
        run = groebner._run

        def recorded(basis, arith, *args):
            primes.append(arith.field.p)
            return run(basis, arith, *args)

        monkeypatch.setattr(groebner, "_run", recorded)
        calls = self._count_remainders(monkeypatch)
        assert isinstance(is_smooth(singular), Singular)
        verdict = is_smooth(member)
        assert isinstance(verdict, Smooth) and verdict.certificate.field == F3
        # one failed run over GF(3), then mod 2 (singular) and mod 3
        assert primes == [3, 2, 3]
        assert len(verdict.certificate.elements) == 6
        assert calls == []

        gens = jacobian_generators(singular)
        cert = certificate_basis(gens)
        assert calls == []
        assert cert == buchberger(gens)
        assert calls
