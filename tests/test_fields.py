"""Field arithmetic, linear algebra, enumeration and embedding tests."""

import functools
import itertools
import operator
import random
import time
from fractions import Fraction
from math import gcd

import pytest

from ksmooth import fields
from ksmooth.errors import (
    DescriptorMismatch,
    DivisionByZero,
    NoSolution,
    WrongCharacteristic,
)
from ksmooth.arithmetic import IndexArithmetic
from ksmooth.fields import (
    QQ,
    FieldDescriptor,
    FieldEmbedding,
    _digits,
    _digitwise,
    _index,
    _mulmod,
    _prime_factors,
    element_to_json,
    enumerate_projective_points,
    field_from_json,
    field_to_json,
    find_irreducible,
    frobenius,
    get_descriptor,
    get_embedding,
    is_irreducible,
    is_prime,
    normalize_projective,
    sqrt_char2,
)

F2 = get_descriptor(2)
F3 = get_descriptor(3)
F4 = get_descriptor(2, 2)
F8 = get_descriptor(2, 3)
F9 = get_descriptor(3, 2)

SMALL_FIELDS = [F2, F3, F4, F8, F9, get_descriptor(5), get_descriptor(2, 4)]


def reference_combine(parts):
    """The terms of the sum of c times terms, zeros dropped, for the
    (c, terms) in parts: a plain loop on FieldElements or Fractions."""
    acc = {}
    for c, terms in parts:
        for k, v in terms.items():
            acc[k] = acc[k] + c * v if k in acc else c * v
    return {k: v for k, v in acc.items() if v}


def shifted_terms(rng, element):
    """Terms at keys 0..5 moved by a random shift of 0, 1 or 2, so that the
    parts of a sum overlap only in part."""
    shift = rng.randrange(3)
    return {k + shift: x for k in range(6) if (x := element())}


def leibniz_det(rows):
    """The determinant of a square matrix of FieldElements or Fractions as
    the signed sum over all permutations."""
    total = None
    for perm in itertools.permutations(range(len(rows))):
        term = rows[0][perm[0]]
        for i in range(1, len(rows)):
            term = term * rows[i][perm[i]]
        if sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm))) % 2:
            term = -term
        total = term if total is None else total + term
    return total


def count_mulmod_calls(monkeypatch):
    """A one-item list counting the `_mulmod` calls made from now on."""
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return _mulmod(*args)

    monkeypatch.setattr(fields, "_mulmod", counting)
    return calls


def brute_force_irreducibles(p, k):
    """Oracle: monic degree-k polynomials with no factorization into two
    smaller monic polynomials, found by exhaustive products."""
    def polys(deg):
        out = []
        for m in range(p ** deg):
            digits = []
            v = m
            for _ in range(deg):
                digits.append(v % p)
                v //= p
            out.append(digits + [1])
        return out

    def mul(a, b):
        prod = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        return prod

    products = set()
    for da in range(1, k):
        db = k - da
        if db < da:
            continue
        for a in polys(da):
            for b in polys(db):
                products.add(tuple(mul(a, b)))
    return [tuple(f) for f in polys(k) if tuple(f) not in products]


class TestDescriptor:
    def test_rejects_composite_characteristic(self):
        with pytest.raises(ValueError):
            FieldDescriptor(4)
        with pytest.raises(ValueError):
            FieldDescriptor(1)

    def test_rejects_reducible_modulus(self):
        with pytest.raises(ValueError):
            FieldDescriptor(2, 2, [1, 0, 1])  # (u+1)^2

    def test_rejects_nonmonic_modulus(self):
        with pytest.raises(ValueError):
            FieldDescriptor(3, 2, [1, 0, 2])

    def test_prime_field_has_no_modulus(self):
        assert F3.modulus is None
        with pytest.raises(ValueError):
            FieldDescriptor(3, 1, [1, 1])

    def test_canonical_moduli(self):
        assert F4.modulus == (1, 1, 1)
        assert F8.modulus == (1, 1, 0, 1)
        assert F9.modulus == (1, 0, 1)

    def test_json_round_trip(self):
        for field in (F2, F9, QQ):
            assert field_from_json(field_to_json(field)) == field


class TestIsPrime:
    def test_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))
        assert [n for n in range(20000) if is_prime(n)] == [
            n for n in range(20000) if trial(n)]

    def test_mersenne_61_is_prime(self):
        assert is_prime(2 ** 61 - 1)

    @pytest.mark.parametrize("n", [3215031751, 3825123056546413051])
    def test_strong_pseudoprimes_are_composite(self, n):
        assert not is_prime(n)

    def test_bound_is_rejected(self):
        with pytest.raises(ValueError, match="3317044064679887385961981"):
            is_prime(3317044064679887385961981)


class TestPrimeFactors:
    def test_matches_the_definition(self):
        primes = [r for r in range(2, 5001) if is_prime(r)]
        for n in range(1, 5001):
            assert _prime_factors(n) == [r for r in primes if n % r == 0], n

    def test_order_of_the_units_of_gf_2_24(self):
        assert _prime_factors(2 ** 24 - 1) == [3, 5, 7, 13, 17, 241]


class TestFindIrreducible:
    def test_degree_one_has_no_modulus(self):
        assert find_irreducible(3, 1) is None

    def test_unique_quadratic_over_f2(self):
        assert find_irreducible(2, 2) == [1, 1, 1]

    def test_cubic_over_f2_is_smallest_of_two(self):
        cands = brute_force_irreducibles(2, 3)
        assert sorted(cands) == [(1, 1, 0, 1), (1, 0, 1, 1)] or len(cands) == 2
        encodings = {sum(c * 2 ** i for i, c in enumerate(f)): f for f in cands}
        assert min(encodings) == 11
        assert find_irreducible(2, 3) == list(encodings[11]) == [1, 1, 0, 1]

    @pytest.mark.parametrize("p,k", [(2, 4), (3, 2), (3, 3), (5, 2), (5, 3), (7, 2)])
    def test_matches_brute_force_oracle(self, p, k):
        cands = brute_force_irreducibles(p, k)
        best = min(cands, key=lambda f: sum(c * p ** i for i, c in enumerate(f)))
        assert tuple(find_irreducible(p, k)) == best
        for f in cands:
            assert is_irreducible(list(f), p)


class TestElementOps:
    def test_char_two_addition(self):
        assert F2.one() + F2.one() == F2.zero()

    def test_f4_multiplication_forced_by_modulus(self):
        u = F4.element([0, 1])
        assert u * u == F4.element([1, 1])

    def test_f9_square_of_generator(self):
        u = F9.element([0, 1])
        assert u * u == F9.from_int(2)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            F4.one() / F4.zero()
        with pytest.raises(DivisionByZero):
            F4.zero().inv()

    def test_descriptor_mismatch(self):
        with pytest.raises(DescriptorMismatch):
            F2.one() + F3.one()

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv],
                             ids=lambda op: op.__name__)
    @pytest.mark.parametrize("tabled", [True, False], ids=["F4", "untabled"])
    def test_operands_are_checked(self, op, tabled, untabled):
        # the untabled GF(3^2) shares its key with F9, so F4 is the other field
        field, other = (F4, F9) if tabled else (untabled(3, 2), F4)
        x = field.one()
        for operand in (3, Fraction(1), None):
            with pytest.raises(TypeError):
                op(x, operand)
        with pytest.raises(DescriptorMismatch):
            op(x, other.one())

    @staticmethod
    def _check_against_coefficients(field, lefts, rights):
        """On the field's `arithmetic`, for the indices a in lefts and b in
        rights: a + b, a - b = a + neg(b), a * b and a / b = a * inv(b), and
        neg(a) and inv(a), agree with arithmetic on the coefficient digits:
        a sum digit by digit mod p, and a * b as the sum over the digits a_i
        of a of a_i * (u^i * b), with u^i * b from `_mulmod` (a * b mod p in
        a prime field).  The product is linear in the digits of a, so over
        a whole field (lefts all of it, in order) the column of b is built
        by adding the multiples of u^i * b one digit position at a time."""
        p, e, red = field.p, field.e, field._red
        arith = field.arithmetic
        add, neg, mul, inv = arith.add, arith.neg, arith.mul, arith.inv
        if p == 2:
            def plus(xs, y):
                return [x ^ y for x in xs]
        elif e == 1:
            def plus(xs, y):
                return [(x + y) % p for x in xs]
        else:
            # the digit-wise sums x + y for every x in order, y's digits
            # added one position at a time
            table = []
            for y in range(field.order):
                column = [0]
                for i, d in enumerate(_digits(y, p, e)):
                    column = [x + (s + d) % p * p ** i for s in range(p) for x in column]
                table.append(column)

            def plus(xs, y):
                return [table[y][x] for x in xs]

        idx = list(lefts)
        full = idx == list(range(field.order))
        for b in rights:
            bd = _digits(b, p, e)
            if e == 1:
                column = [a * b % p for a in idx]
            else:
                # the multiples of u^i * b, by digit position i
                ub = []
                for i in range(e):
                    v = [0, _index(_mulmod(_digits(p ** i, p, e), bd, red, p), p)]
                    while len(v) < p:
                        v += plus(v[-1:], v[1])
                    ub.append(v)
                if full:
                    column = [0]
                    for v in ub:
                        column = [z for y in v for z in plus(column, y)]
                else:
                    column = []
                    for a in idx:
                        x = [0]
                        for c, v in zip(_digits(a, p, e), ub):
                            x = plus(x, v[c])
                        column += x
            assert [mul(a, b) for a in idx] == column
            assert [add(a, b) for a in idx] == plus(idx, b)
            minus_b = _index([-d % p for d in bd], p)
            assert [add(a, neg(b)) for a in idx] == plus(idx, minus_b)
            if b and full:
                # the product column is a permutation; the quotient inverts it
                preimage = dict(zip(column, lefts))
                assert [mul(a, inv(b)) for a in idx] == list(map(preimage.__getitem__, idx))
            elif b:
                # the product is checked just above, so this pins the quotient
                assert [mul(mul(a, inv(b)), b) for a in idx] == idx
        for a in idx:
            ad = _digits(a, p, e)
            assert neg(a) == _index([-x % p for x in ad], p)
            if a:
                assert _mulmod(_digits(inv(a), p, e), ad, red, p) == _digits(1, p, e)

    def test_additive_tables_match_coefficient_arithmetic(self):
        # every pair in the 70 fields of order <= 256, then seeded pairs in
        # fields of order between 256 and the table limit, on indices
        orders = [(p, e) for p in range(2, 257) if is_prime(p)
                  for e in range(1, 9) if p ** e <= 256]
        assert len(orders) == 70
        for p, e in orders:
            field = get_descriptor(p, e)
            self._check_against_coefficients(field, range(field.order), range(field.order))
        rng = random.Random(11)
        for p, e in [(5, 4), (3, 6), (2, 12)]:
            field = get_descriptor(p, e)
            assert field._exp is not None
            els = range(field.order)
            self._check_against_coefficients(field, rng.sample(els, 40), rng.sample(els, 200))

    @pytest.mark.parametrize("field", SMALL_FIELDS, ids=repr)
    def test_field_axioms_on_random_triples(self, field):
        rng = random.Random(7)
        els = field.elements()
        for _ in range(60):
            a, b, c = (els[rng.randrange(field.order)] for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == field.zero()
            if a:
                assert a * a.inv() == field.one()
                assert (a / a) == field.one()

    @pytest.mark.parametrize("field", SMALL_FIELDS, ids=repr)
    def test_pow_matches_repeated_product(self, field):
        rng = random.Random(3)
        els = field.elements()
        for _ in range(20):
            a = els[rng.randrange(field.order)]
            acc = field.one()
            for k in range(6):
                assert a ** k == acc
                acc = acc * a


class TestPowAndGcd:
    @pytest.mark.parametrize("field", [F2, F9, get_descriptor(2, 8)], ids=repr)
    def test_pow_is_repeated_multiplication_on_every_element(self, field):
        q = field.order
        one = field.one()
        for a in field.elements():
            for n in (-3, 0, 1, 2, q - 1, q, 2 * q + 3):
                if n < 0 and not a:
                    with pytest.raises(DivisionByZero):
                        a ** n
                    continue
                base = a if n >= 0 else a.inv()
                acc = one
                for _ in range(abs(n)):
                    acc = acc * base
                assert a ** n is acc

    @pytest.mark.parametrize("field", [F4, get_descriptor(5), F9], ids=repr)
    def test_poly_gcd_is_the_monic_common_divisor(self, field):
        rng = random.Random(21)
        els = field.elements()
        zero, one = field.zero(), field.one()

        def poly_gcd(a, b):
            # `IndexArithmetic.gcd`, converted at its boundary
            return [field.element_from_index(c)
                    for c in field.arithmetic.gcd([x.idx for x in a], [x.idx for x in b])]

        def mul(a, b):
            out = [zero] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] = out[i + j] + x * y
            return out

        def divides(g, a):
            # g is monic
            r = list(a)
            for i in range(len(r) - 1, len(g) - 2, -1):
                c = r[i]
                for j, y in enumerate(g):
                    r[i - len(g) + 1 + j] = r[i - len(g) + 1 + j] - c * y
            return not any(r)

        def at(p, t):
            v = zero
            for x in reversed(p):
                v = v * t + x
            return v

        assert poly_gcd([], []) == []
        assert poly_gcd([zero, zero], [zero]) == []
        for _ in range(30):
            c = [rng.choice(els) for _ in range(rng.randint(1, 3))] + [one]
            a = mul(c, [rng.choice(els) for _ in range(3)] + [one])
            b = mul(c, [rng.choice(els) for _ in range(2)] + [one])
            g = poly_gcd(a, [x * els[-1] for x in b] + [zero])
            assert g[-1] == one and divides(g, a) and divides(g, b) and divides(c, g)
            # any common root of a and b is a root of the gcd, and no other
            for t in els:
                assert (not at(g, t)) == (not at(a, t) and not at(b, t))


class TestUntabledFields:
    """Fields above the table limit compute on the index digits."""

    @pytest.mark.parametrize("p, e", [(2, 17), (7, 6), (65537, 1), (2 ** 61 - 1, 1)])
    def test_ops_match_digit_arithmetic(self, p, e):
        field = get_descriptor(p, e)
        assert field._exp is None
        red = field._red
        one = _digits(1, p, e)
        rng = random.Random(13)
        for _ in range(300):
            a, b, c = (field.element_from_index(rng.randrange(field.order)) for _ in range(3))
            ad, bd = a.coeffs, b.coeffs
            assert (a + b).coeffs == tuple((x + y) % p for x, y in zip(ad, bd))
            assert (a - b).coeffs == tuple((x - y) % p for x, y in zip(ad, bd))
            assert (-a).coeffs == tuple(-x % p for x in ad)
            assert (a * b).coeffs == _mulmod(ad, bd, red, p)
            assert _mulmod((a / b).coeffs, bd, red, p) == ad
            assert _mulmod(b.inv().coeffs, bd, red, p) == one
            assert a * (b + c) == a * b + a * c
            assert b * b.inv() == field.one()
        with pytest.raises(DivisionByZero):
            field.one() / field.zero()
        with pytest.raises(DivisionByZero):
            field.zero().inv()

    def test_largest_tabled_field(self):
        start = time.perf_counter()
        field = FieldDescriptor(2, 16)
        assert time.perf_counter() - start < 2
        assert field._exp is not None
        rng = random.Random(17)
        for x in rng.sample(field.elements(), 300):
            digits = _digits(x.idx, 2, 16)
            assert x.coeffs == digits
            assert field.element(digits) is x
            assert element_to_json(x) == list(digits)
            powers = ["1" if i == 0 else "u" if i == 1 else f"u^{i}"
                      for i in reversed(range(16)) if digits[i]]
            assert str(x) == ("+".join(powers) or "0")

    def test_each_operator_calls_the_index_arithmetic(self, untabled):
        # one call per operator; `-` is `+ -b` and `/` is `* b.inv()`, in a
        # tabled field (a fresh GF(9), with its own arithmetic) and above
        # the table limit
        f9 = get_descriptor(3, 2)
        a9, b9 = f9.element([1, 2]), f9.element([2, 1])
        tabled = {"+": a9 + b9, "*": a9 * b9, "unary -": -a9, "-": a9 - b9, "/": a9 / b9,
                  "inv": a9.inv(), "**": a9 ** 5}
        for field in (FieldDescriptor(3, 2), untabled(3, 2)):
            arith = field.arithmetic
            calls = []
            for name in ("add", "neg", "mul", "inv", "power"):
                def counting(*args, real=getattr(arith, name), name=name):
                    calls.append(name)
                    return real(*args)
                setattr(arith, name, counting)
            a, b = field.element([1, 2]), field.element([2, 1])
            expected = {
                "+": ((lambda: a + b), ["add"]),
                "*": ((lambda: a * b), ["mul"]),
                "unary -": ((lambda: -a), ["neg"]),
                "-": ((lambda: a - b), ["neg", "add"]),
                "/": ((lambda: a / b), ["inv", "mul"]),
                "inv": (a.inv, ["inv"]),
                "**": ((lambda: a ** 5), ["power"]),
            }
            for op, (run, names) in expected.items():
                calls.clear()
                assert run().idx == tabled[op].idx, (field, op)
                assert calls == names, (field, op)


class TestTableBuild:
    """The log, antilog and Zech lists against a walk of one `_mulmod` per
    step from the first generator, found here as the first index whose
    powers reach every unit."""

    @staticmethod
    def _reference_walk(field):
        p, e, red = field.p, field.e, field._red
        n = field.order - 1
        one = _digits(1, p, e)
        for g in range(1, n + 1):
            gd, x, exp = _digits(g, p, e), one, []
            while True:
                exp.append(_index(x, p))
                x = _mulmod(gd, x, red, p)
                if x == one:
                    break
            if len(exp) == n:
                return exp
        raise AssertionError("no generator")

    @pytest.mark.parametrize("p, e", [(p, e) for p in range(2, 65) if is_prime(p)
                                      for e in range(2, 13) if p ** e <= 4096])
    def test_tables_match_the_reference_walk(self, p, e):
        field = FieldDescriptor(p, e)
        n = field.order - 1
        exp = self._reference_walk(field)
        log = [2 * n] * (n + 1)
        for k, j in enumerate(exp):
            log[j] = k
        assert field._exp == exp * 2 + [0] * (2 * n + 1)
        assert field._log == log
        # 1 + x adds 1 to the constant digit of x
        plus_one = [_index(((d[0] + 1) % p,) + d[1:], p) for d in (_digits(j, p, e) for j in exp)]
        assert field._zech == [log[j] for j in plus_one] * 2
        # -x moves the log of x by that of -1, whose one digit is p - 1
        minus_one = log[_index((p - 1,) + (0,) * (e - 1), p)]
        assert [field.arithmetic.neg(j) for j in exp] == [exp[(k + minus_one) % n]
                                                          for k in range(n)]

    @pytest.mark.parametrize("p, e", [(2, 16), (3, 10)])
    def test_largest_fields_walk_their_generator(self, p, e):
        field = get_descriptor(p, e)
        n, red = field.order - 1, field._red
        exp = field._exp[:n]
        assert sorted(exp) == list(range(1, n + 1))
        gd = _digits(exp[1], p, e)
        rng = random.Random(19)
        for k in rng.sample(range(n), 2000):
            nxt = exp[(k + 1) % n]
            assert _index(_mulmod(gd, _digits(exp[k], p, e), red, p), p) == nxt
            assert field._log[nxt] == (k + 1) % n

    @pytest.mark.parametrize("p, e", [(2, 8), (3, 5), (7, 3), (251, 1), (65521, 1)])
    def test_tables_are_built_without_the_index_arithmetic(self, p, e):
        # an operator on an element of a field without tables would build
        # and keep the field's digit arithmetic
        field = FieldDescriptor(p, e)
        assert field._exp is not None and field._arith is None

    def test_mulmod_calls(self, monkeypatch):
        # far below the 65,535 steps of the walk, so no step is a product
        calls = count_mulmod_calls(monkeypatch)
        FieldDescriptor(2, 16)
        assert 0 < calls[0] <= 2000

    def test_generator_search_shares_its_power_chain(self, monkeypatch):
        # GF(7^3): 342 = 2 * 3^2 * 19, first generator at index 22; the
        # candidates 7..22 took 328 of 404 products with one chain per
        # prime and a multiply by 1 to start each power
        calls = count_mulmod_calls(monkeypatch)
        field = FieldDescriptor(7, 3)
        assert field._exp[1] == 22
        assert calls[0] <= 304


class TestIndexArithmetic:
    """The operations on element indices agree with FieldElement arithmetic
    on every path: ints mod p, log and Zech lists, and untabled fields."""

    @staticmethod
    def _field(name, untabled):
        if name.startswith("untabled"):
            return untabled(*map(int, name.split()[1:]))
        return get_descriptor(*map(int, name.split()))

    @pytest.mark.parametrize("name", ["2 1", "3 1", "5 1", "2 2", "2 3", "3 2", "2 4", "5 2",
                                      "untabled 2 3", "untabled 3 2"])
    def test_every_pair(self, name, untabled):
        field = self._field(name, untabled)
        arith = IndexArithmetic(field)
        els = field.elements()
        for a, b in itertools.product(els, repeat=2):
            assert arith.mul(a.idx, b.idx) == (a * b).idx
            total = arith.combine([(x.idx, {0: 1}) for x in (a, b) if x])
            assert total.get(0, 0) == (a + b).idx
        for a in els[1:]:
            assert arith.inv(a.idx) == a.inv().idx

    @pytest.mark.parametrize("p, e", [(65537, 1), (2, 17), (7, 6)])
    def test_sampled_pairs_of_untabled_fields(self, p, e):
        field = get_descriptor(p, e)
        arith = IndexArithmetic(field)
        rng = random.Random(21)
        for _ in range(200):
            a, b = (field.element_from_index(rng.randrange(1, field.order)) for _ in range(2))
            assert arith.mul(a.idx, b.idx) == (a * b).idx
            assert arith.combine([(a.idx, {0: 1}), (b.idx, {0: 1})]).get(0, 0) == (a + b).idx
            assert arith.inv(a.idx) == a.inv().idx

    @pytest.mark.parametrize("name", ["2 1", "3 1", "65537 1", "2 2", "3 2", "untabled 3 2", "QQ"])
    def test_combine_and_rref(self, name, untabled):
        # element arithmetic is the reference: `reference_combine`, the
        # defining properties of the reduced echelon form and the Leibniz
        # expansion of the determinant
        field = QQ if name == "QQ" else self._field(name, untabled)
        arith = IndexArithmetic(field)
        rng = random.Random(22)
        if field is QQ:
            def index(x):
                return x

            def element(small=True):
                return Fraction(rng.randint(-2, 2), rng.randint(1, 3))

            to_element = Fraction
        else:
            def index(x):
                return x.idx

            # small indices often give zeros and repeated rows
            def element(small=True):
                return field.element_from_index(rng.randrange(min(field.order, 4) if small
                                                              else field.order))

            to_element = field.element_from_index

        def nonzero():
            while not (x := element(small=False)):
                pass
            return x

        for _ in range(30):
            parts = [(nonzero(), shifted_terms(rng, element)) for _ in range(3)]
            assert arith.combine([(index(c), {k: index(x) for k, x in terms.items()})
                                  for c, terms in parts]) == {
                k: index(x) for k, x in reference_combine(parts).items()}

        zero = field.zero()
        for size in range(1, 5):
            for _ in range(12):
                ncols = rng.randrange(1, 6) if rng.randrange(2) else size
                small = rng.randrange(2)
                rows = [[element(small) for _ in range(ncols)] for _ in range(size)]
                reduced, pivots, det = arith.rref(
                    [{k: index(x) for k, x in enumerate(row) if x} for row in rows], ncols)
                dense = [[to_element(row.get(k, 0)) for k in range(ncols)] for row in reduced]
                assert len(dense) == size and pivots == sorted(set(pivots))
                assert all(not any(row) for row in dense[len(pivots):])
                for k, pk in enumerate(pivots):
                    assert [row[pk] for row in dense] == [field.one() if j == k else zero
                                                          for j in range(size)]
                    assert not any(dense[k][:pk])
                for row in rows:
                    total = [zero] * ncols
                    for pk, r in zip(pivots, dense):
                        total = [t + row[pk] * x for t, x in zip(total, r)]
                    assert total == row
                if ncols == size:
                    expected = leibniz_det(rows)
                    assert bool(expected) == (len(pivots) == size)
                    if expected:
                        assert to_element(det) == expected

    @pytest.mark.parametrize("name", ["2 1", "3 1", "65537 1", "2 2", "3 2", "untabled 3 2", "QQ"])
    def test_combine_adds_into_a_copy_of_start(self, name, untabled):
        # the sum with `start` is the sum with start as a part times one,
        # which is how `rref` updated a row before
        field = QQ if name == "QQ" else self._field(name, untabled)
        arith = IndexArithmetic(field)
        rng = random.Random(24)
        if field is QQ:
            def element():
                return Fraction(rng.randint(-2, 2), rng.randint(1, 3))

            index = to_element = Fraction
        else:
            def element():
                return field.element_from_index(rng.randrange(min(field.order, 4)))

            index, to_element = operator.attrgetter("idx"), field.element_from_index
        for _ in range(30):
            parts = [(c, shifted_terms(rng, element))
                     for _ in range(rng.randrange(3)) if (c := element())]
            start = {k: x for k in range(6) if (x := element())}
            start_indices = {k: index(x) for k, x in start.items()}
            got = arith.combine([(index(c), {k: index(x) for k, x in terms.items()})
                                 for c, terms in parts], start_indices)
            assert {k: to_element(v) for k, v in got.items()} == reference_combine(
                [(field.one(), start), *parts])
            assert start_indices == {k: index(x) for k, x in start.items()}

    def test_rationals(self):
        # over Q an index is the Fraction itself
        arith = IndexArithmetic(QQ)
        rng = random.Random(23)

        def rational():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

        for _ in range(200):
            a, b = rational(), rational()
            assert arith.mul(a, b) == a * b
            if a:
                assert arith.inv(a) == 1 / a and type(arith.inv(a)) is Fraction
            parts = [(c, {k: x for k in range(4) if (x := rational())}) for c in (a, b) if c]
            expected = reference_combine(parts)
            assert arith.combine(parts) == expected
            assert all(type(x) is Fraction for x in arith.combine(parts).values())
        assert arith.index(3) == Fraction(3) and type(arith.element(1)) is Fraction

    def test_each_field_builds_its_arithmetic_once(self, untabled):
        # the untabled GF(3^2) has the key of the tabled GF(9) but must keep
        # its own arithmetic, which adds digit by digit
        f9, u9 = get_descriptor(3, 2), untabled(3, 2)
        arith = u9.arithmetic
        assert arith is u9.arithmetic and arith.field is u9
        assert arith is not f9.arithmetic and f9.arithmetic.field is f9
        assert QQ.arithmetic is QQ.arithmetic
        for a, b in itertools.product(range(1, 9), repeat=2):
            assert arith.combine([(a, {0: 1}), (b, {0: 1})]).get(0, 0) == _digitwise(a, b, 3, 2)
            assert arith.mul(a, b) == _index(_mulmod(_digits(a, 3, 2), _digits(b, 3, 2),
                                                     u9._red, 3), 3)

    def test_an_element_of_another_field_is_rejected(self):
        with pytest.raises(DescriptorMismatch):
            F4.arithmetic.index(F2.one())


class TestFrobenius:
    def test_f4_generator(self):
        u = F4.element([0, 1])
        assert frobenius(u, 1) == F4.element([1, 1])

    def test_f9_generator(self):
        u = F9.element([0, 1])
        assert frobenius(u, 1) == F9.element([0, 2])

    def test_fixes_one(self):
        for field in SMALL_FIELDS:
            assert frobenius(field.one(), 1) == field.one()

    @pytest.mark.parametrize("field", [F4, F8, F9, get_descriptor(2, 4)], ids=repr)
    def test_is_a_ring_homomorphism(self, field):
        rng = random.Random(11)
        els = field.elements()
        for _ in range(40):
            a = els[rng.randrange(field.order)]
            b = els[rng.randrange(field.order)]
            assert frobenius(a + b, 1) == frobenius(a, 1) + frobenius(b, 1)
            assert frobenius(a * b, 1) == frobenius(a, 1) * frobenius(b, 1)

    @pytest.mark.parametrize("field", [F4, F8, F9], ids=repr)
    def test_e_fold_composite_is_identity(self, field):
        for a in field.elements():
            assert frobenius(a, field.e) == a

    def test_fixes_prime_subfield_pointwise(self):
        for c in range(3):
            assert frobenius(F9.from_int(c), 1) == F9.from_int(c)


class TestSqrtChar2:
    def test_f4_sqrt_of_generator(self):
        u = F4.element([0, 1])
        root = sqrt_char2(u)
        assert root == F4.element([1, 1])
        assert root * root == u

    def test_trivial_values(self):
        assert sqrt_char2(F4.one()) == F4.one()
        assert sqrt_char2(F4.zero()) == F4.zero()

    @pytest.mark.parametrize("field", [F2, F4, F8, get_descriptor(2, 4)], ids=repr)
    def test_square_of_root_exhaustive(self, field):
        for x in field.elements():
            r = sqrt_char2(x)
            assert r * r == x

    def test_rejects_odd_characteristic(self):
        with pytest.raises(WrongCharacteristic):
            sqrt_char2(F3.one())


def _sparse(rows):
    """Dense rows of indices as the maps `IndexArithmetic.rref` takes."""
    return [{k: x for k, x in enumerate(row) if x} for row in rows]


def _det(field, rows):
    """The determinant of a square matrix of indices, read off `rref`."""
    _, pivots, det = field.arithmetic.rref(_sparse(rows), len(rows))
    return det if len(pivots) == len(rows) else 0


class TestMatrices:
    """The one elimination `IndexArithmetic.rref` and its `kernel`, on
    rows of element indices (over Q, of Fractions)."""

    def test_kernel_example(self):
        assert F2.arithmetic.kernel(_sparse([[0, 1, 0], [1, 0, 0], [0, 0, 0]]), 3) == [[0, 0, 1]]

    def test_det_of_swap_matrix(self):
        for field in (F2, F3, QQ):
            index = field.arithmetic.index
            zero, one = index(field.zero()), index(field.one())
            assert _det(field, [[zero, one], [one, zero]]) == index(-field.one())

    def test_det_of_identity(self):
        for field in (F3, F9):
            assert _det(field, [[int(i == j) for j in range(3)] for i in range(3)]) == 1

    def test_moore_matrix_determinant_f4(self):
        u = F4.element([0, 1])
        v = u + F4.one()
        assert _det(F4, [[u.idx, v.idx], [v.idx, u.idx]]) == 1

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(5)
        for field in (F2, F3, F4):
            arith = field.arithmetic
            for _ in range(20):
                rows = [[rng.randrange(field.order) for _ in range(4)] for _ in range(3)]
                for v in arith.kernel(_sparse(rows), 4):
                    for row in rows:
                        assert not functools.reduce(arith.add, map(arith.mul, row, v))

    @pytest.mark.parametrize("nrows", [3, 4])
    @pytest.mark.parametrize("field", [F2, F3, F4], ids=["gf2", "gf3", "gf4"])
    def test_kernel_spans_the_null_space_by_enumeration(self, field, nrows):
        arith = field.arithmetic
        add, mul = arith.add, arith.mul
        rng = random.Random(10 * field.order + nrows)
        vectors = list(itertools.product(range(field.order), repeat=4))
        ranks = set()
        for _ in range(12):
            # about half the entries zero, so that every rank turns up
            rows = [[rng.randrange(field.order) * (rng.random() < 0.5) for _ in range(4)]
                    for _ in range(nrows)]
            kernel = arith.kernel(_sparse(rows), 4)
            rank = len(arith.rref(_sparse(rows), 4)[1])
            ranks.add(rank)
            assert len(kernel) == 4 - rank
            null = {v for v in vectors
                    if not any(functools.reduce(add, map(mul, row, v)) for row in rows)}
            span = {tuple(functools.reduce(add, [mul(c, b[k]) for c, b in zip(cs, kernel)], 0)
                          for k in range(4))
                    for cs in itertools.product(range(field.order), repeat=len(kernel))}
            assert span == null
        assert len(ranks) > 1

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_odd_skew_symmetric_zero_diagonal_has_det_zero(self, m):
        # symmetric + zero diagonal = skew-symmetric in characteristic 2
        rng = random.Random(m)
        for field in (F2, F4):
            for _ in range(50):
                rows = [[0] * m for _ in range(m)]
                for i in range(m):
                    for j in range(i + 1, m):
                        c = rng.randrange(field.order)
                        rows[i][j] = c
                        rows[j][i] = c
                assert _det(field, rows) == 0

    def test_rationals_supported(self):
        arith = QQ.arithmetic
        square = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
        rows = _sparse(square)
        assert _det(QQ, square) == Fraction(-2)
        assert len(arith.rref(rows, 2)[1]) == 2
        assert arith.kernel(rows, 2) == []
        half = Fraction(1, 2)
        singular = _sparse([[half, Fraction(1), 3 * half],
                            [Fraction(1), Fraction(2), Fraction(3)]])
        assert len(arith.rref(singular, 3)[1]) == 1
        assert arith.kernel(singular, 3) == [[Fraction(-2), Fraction(1), Fraction(0)],
                                             [Fraction(-3), Fraction(0), Fraction(1)]]
        assert all(type(v) is Fraction for v in arith.kernel(singular, 3)[0])
        # over Q an index is the Fraction itself, with every pivot 1 too
        identity, swap = [[Fraction(1), 0], [0, Fraction(1)]], [[0, Fraction(1)], [Fraction(1), 0]]
        assert type(_det(QQ, identity)) is Fraction and _det(QQ, identity) == 1
        assert type(_det(QQ, swap)) is Fraction and _det(QQ, swap) == -1


class TestEnumeration:
    def test_field_order_and_count(self):
        assert [str(x) for x in F4.elements()] == ["0", "1", "u", "u+1"]
        assert [str(x) for x in F3.elements()] == ["0", "1", "2"]
        assert len(F8.elements()) == 8

    def test_projective_line_over_f2(self):
        pts = list(enumerate_projective_points(F2, 1))
        assert pts == [(F2.zero(), F2.one()), (F2.one(), F2.zero()),
                       (F2.one(), F2.one())]

    @pytest.mark.parametrize("field,r", [(F2, 1), (F2, 2), (F3, 2), (F4, 2), (F3, 3)])
    def test_point_count(self, field, r):
        q = field.order
        pts = list(enumerate_projective_points(field, r))
        assert len(pts) == (q ** (r + 1) - 1) // (q - 1)

    @pytest.mark.parametrize("field", [F2, F3, F4], ids=repr)
    @pytest.mark.parametrize("r", range(4))
    def test_order_matches_sorted_normalized_tuples(self, field, r):
        # reference: normalize every nonzero tuple, drop repeats, and sort by
        # the number of leading zeros (most first), then by coordinate indices
        points = {normalize_projective(t)
                  for t in itertools.product(field.elements(), repeat=r + 1) if any(t)}

        def key(pt):
            return -next(i for i, x in enumerate(pt) if x), [x.idx for x in pt]

        assert list(enumerate_projective_points(field, r)) == sorted(points, key=key)

    def test_p0_reads_no_field_elements(self, monkeypatch):
        def unread(field):
            raise AssertionError("elements() read for r = 0")
        monkeypatch.setattr(FieldDescriptor, "elements", unread)
        assert list(enumerate_projective_points(F4, 0)) == [(F4.one(),)]

    def test_f3_plane_has_13_points(self):
        assert len(list(enumerate_projective_points(F3, 2))) == 13

    def test_first_nonzero_coordinate_is_one(self):
        for pt in enumerate_projective_points(F9, 2):
            lead = next(c for c in pt if c)
            assert lead == F9.one()

    def test_no_two_points_proportional(self):
        pts = list(enumerate_projective_points(F4, 2))
        seen = set()
        for pt in pts:
            assert normalize_projective(pt) == pt
            assert pt not in seen
            seen.add(pt)
        # normalized and pairwise distinct => pairwise non-proportional


class TestEmbedding:
    def test_prime_into_extension_round_trip(self):
        emb = get_embedding(F2, F4)
        for x in F2.elements():
            up = emb.up(x)
            assert emb.down(up) == x

    def test_extension_tower_round_trip(self):
        big = get_descriptor(2, 4)
        emb = get_embedding(F4, big)
        for x in F4.elements():
            up = emb.up(x)
            assert emb.down(up) == x

    # tabled small fields into untabled big ones: table arithmetic against
    # the polynomial multiply
    @pytest.mark.parametrize("small,big", [((5, 1), (5, 4)), ((2, 3), (2, 9)),
                                           ((3, 2), (3, 6)), ((2, 4), (2, 12))],
                             ids=lambda pe: f"{pe[0]}^{pe[1]}")
    def test_embedding_is_a_homomorphism(self, small, big):
        small, big = get_descriptor(*small), get_descriptor(*big)
        assert big.order > 256
        emb = get_embedding(small, big)
        els = small.elements()
        for a in els:
            for b in els:
                assert emb.up(a * b) == emb.up(a) * emb.up(b)
                assert emb.up(a + b) == emb.up(a) + emb.up(b)
            if a:
                assert emb.up(a.inv()) == emb.up(a).inv()

    @pytest.mark.parametrize("small,big", [((2, 1), (2, 4)), ((2, 2), (2, 2)),
                                           ((2, 2), (2, 6)), ((2, 3), (2, 6)),
                                           ((3, 2), (3, 4)), ((5, 2), (5, 4)),
                                           ((2, 4), (2, 8)), ((3, 1), (3, 5))],
                             ids=lambda pe: f"{pe[0]}^{pe[1]}")
    def test_root_is_first_root_in_canonical_order(self, small, big):
        # reference: evaluate the small modulus at every element of the big field
        small, big = get_descriptor(*small), get_descriptor(*big)
        first = None
        for x in big.elements():
            acc = big.zero()
            for c in reversed(small.modulus or (0, 1)):
                acc = acc * x + big.from_int(c)
            if not acc:
                first = x
                break
        assert FieldEmbedding(small, big).root == first

    # root indices recorded with the scan over every element of the big field
    @pytest.mark.parametrize("small,big,idx", [((2, 2), (2, 18), 37384),
                                               ((3, 2), (3, 12), 7461),
                                               ((2, 3), (2, 18), 584)],
                             ids=["gf4-gf2^18", "gf9-gf3^12", "gf8-gf2^18"])
    def test_root_in_untabled_field_is_pinned(self, small, big, idx):
        emb = FieldEmbedding(FieldDescriptor(*small), FieldDescriptor(*big))
        assert emb.root.idx == idx

    # every pair small ⊂ big with big order <= 4096 whose big field is an
    # extension or a prime p <= 64 (a larger prime field embeds only into
    # itself), and one untabled big field
    def test_image_matches_horner_evaluation(self):
        pairs = [((p, e), (p, E)) for p in range(2, 65) if is_prime(p)
                 for E in range(1, 13) if p ** E <= 4096
                 for e in range(1, E + 1) if E % e == 0]
        assert len(pairs) == 115
        pairs = [(get_descriptor(*s), get_descriptor(*b)) for s, b in pairs]
        pairs.append((FieldDescriptor(2, 6), FieldDescriptor(2, 18)))
        for small, big in pairs:
            emb = FieldEmbedding(small, big)
            horner = []
            for x in small.elements():
                acc = big.zero()
                for c in reversed(x.coeffs):
                    acc = acc * emb.root + big.from_int(c)
                horner.append(acc)
            assert emb._image == [x.idx for x in horner], (small, big)

    def test_untabled_root_search_mulmod_calls(self, monkeypatch):
        # a Horner evaluation of the 13 coefficients at each power of h
        # scanned would take several thousand
        small, big = FieldDescriptor(2, 12), FieldDescriptor(2, 24)
        calls = count_mulmod_calls(monkeypatch)
        emb = FieldEmbedding(small, big)
        assert 0 < calls[0] <= 2500
        assert emb.root.idx == 595469

    def test_down_rejects_outside_subfield(self):
        big = get_descriptor(2, 4)
        emb = get_embedding(F4, big)
        image = {emb.up(x) for x in F4.elements()}
        outside = next(y for y in big.elements() if y not in image)
        with pytest.raises(NoSolution):
            emb.down(outside)


class TestRationalScalar:
    def test_is_reduced_with_positive_denominator(self):
        rng = random.Random(9)
        for _ in range(100):
            a = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            b = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            for v in (a + b, a - b, a * b):
                assert v.denominator > 0
                assert gcd(abs(v.numerator), v.denominator) == 1
            if b:
                v = a / b
                assert gcd(abs(v.numerator), v.denominator) == 1
