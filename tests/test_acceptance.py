"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.
"""

import itertools
import json
import random
import time
from fractions import Fraction
from math import gcd

from ksmooth.cli import main
from ksmooth.constructions import (
    builtin_example_f3,
    char2_find_singular_member,
    char2_quadric_singular_point,
    construct_system_with_details,
    lift_to_char_zero,
    moore_symmetries,
    normal_basis_search,
)
from ksmooth.fields import (
    frobenius,
    get_descriptor,
)
from ksmooth.groebner import buchberger, is_projectively_empty
from ksmooth.multipoly import (
    HomogeneousForm,
    euler_combination,
    random_element,
    random_form,
    random_system,
)
from ksmooth.smoothness import (
    Singular,
    Smooth,
    is_smooth,
    jacobian_generators,
    search_singular_point,
    singular_member_at_base_point,
    verify_system_K_smooth,
    witness_verifies,
    x0_truncation,
)

F2 = get_descriptor(2)
F3 = get_descriptor(3)
F4 = get_descriptor(2, 2)
FIELDS = {2: F2, 3: F3, 4: F4}


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def form(field, nvars, degree, entries):
    return HomogeneousForm(field, nvars, degree,
                           {tuple(e): field.from_int(c) for e, c in entries})


def test_criterion_1_builtin_example_reproduction(capsys):
    start = time.perf_counter()
    code = main(["example", "f3", "--verify", "--json"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    obj = json.loads(out)
    members = obj["report"]["members"]
    smooth = sum(1 for v in obj["report"]["verdicts"] if v == "smooth")
    with capsys.disabled():
        report(1, code == 0 and members == 13 and smooth == 13 and elapsed < 10,
               f"example f3: {smooth}/{members} members smooth in {elapsed:.2f}s")


def test_criterion_2_constructions_verified_on_the_full_grid():
    # n <= 3 by full enumeration, the oracle of the orbit route; n = 4 and
    # n = 5 through the `moore_symmetries` of the normal element
    start = time.perf_counter()
    combos = []
    for p, e, n, d in itertools.product((2, 3, 5), (1, 2), (1, 2, 3, 4, 5), (2, 3, 4)):
        if p == 5 and n <= 3:
            continue
        if gcd(d, n + 1) % p == 0 or (p ** e) ** (n + 1) > 4096:
            continue
        combos.append((p, e, n, d))
    assert sum(n >= 4 for _, _, n, _ in combos) == 16
    total_members = 0
    failures = []
    for p, e, n, d in combos:
        q = p ** e
        system, result = construct_system_with_details(p, e, n, d, n)
        symmetries = moore_symmetries(system.field, result.moore.alpha) if n >= 4 else ()
        result = verify_system_K_smooth(system, symmetries)
        expected = (q ** (n + 1) - 1) // (q - 1)
        total_members += result.member_count
        if not (result.k_smooth and result.member_count == expected):
            failures.append((p, e, n, d))
    elapsed = time.perf_counter() - start
    report(2, not failures and elapsed < 600,
           f"{len(combos)} parameter combinations, {total_members} members all "
           f"smooth in {elapsed:.1f}s" + (f"; failures: {failures}" if failures else ""))


def test_criterion_3_singular_member_extraction_for_overfull_systems():
    rng = random.Random(303)
    regimes = [(q, d) for q in (2, 3) for d in (2, 3)]
    good = 0
    total = 50
    for i in range(total):
        q, d = regimes[i % len(regimes)]
        field = FIELDS[q]
        system = random_system(field, 3, d, 4, rng)    # r + 1 = n + 2 = 4
        coeffs, member = singular_member_at_base_point(system)
        base = (field.one(), field.zero(), field.zero())
        ok = (any(coeffs) and not member.evaluate(base)
              and all(not member.partial_derivative(i).evaluate(base)
                      for i in range(3)))
        good += ok
    report(3, good == total,
           f"{good}/{total} random overfull systems yield a member singular at "
           "the base point")


def test_criterion_4_quadric_refutation_in_characteristic_2():
    rng = random.Random(404)
    good = 0
    total = 0
    for field in (F2, F4):
        for _ in range(50):
            system = random_system(field, 4, 2, 4, rng)
            res = char2_find_singular_member(system)
            ok = (res.witness.field == field
                  and res.member == system.member(res.coefficients)
                  and witness_verifies(res.member, res.witness))
            good += ok
            total += 1

    worked = []
    F = form(F2, 4, 2, [((2, 0, 0, 0), 1), ((0, 1, 1, 0), 1), ((0, 0, 0, 2), 1)])
    worked.append(char2_quadric_singular_point(F).point
                  == (F2.one(), F2.zero(), F2.zero(), F2.one()))
    u = F4.element([0, 1])
    Fb = HomogeneousForm(F4, 2, 2, {(2, 0): F4.one(), (0, 2): u})
    wb = char2_quadric_singular_point(Fb)
    worked.append(wb.point == (F4.one(), u) and witness_verifies(Fb, wb))
    Fc = form(F2, 4, 2, [((2, 0, 0, 0), 1)])
    worked.append(char2_quadric_singular_point(Fc).point
                  == (F2.zero(), F2.one(), F2.zero(), F2.zero()))
    report(4, good == total and all(worked),
           f"{good}/{total} random quadric systems refuted over GF(2) and GF(4); "
           f"{sum(worked)}/3 worked examples re-verified")


def test_criterion_5_oracle_equivalence():
    rng = random.Random(505)
    combos = [(q, n, d) for q in (2, 3, 4) for n in (1, 2) for d in (2, 3)]
    agreements = 0
    total = 200
    singular = 0
    start = time.perf_counter()
    for i in range(total):
        q, n, d = combos[i % len(combos)]
        f = random_form(FIELDS[q], n + 1, d, rng)
        verdict = is_smooth(f)
        witness = search_singular_point(f, 4)
        if isinstance(verdict, Singular):
            singular += 1
            agreements += witness is not None and witness_verifies(f, witness)
        else:
            agreements += witness is None
    elapsed = time.perf_counter() - start
    report(5, agreements == total,
           f"{agreements}/{total} certificate/search agreements "
           f"({singular} singular) in {elapsed:.1f}s")


def test_criterion_6_template_family_suites():
    checked = 0
    failures = []
    for q, n, d in itertools.product((2, 3, 4), (1, 2), (2, 3)):
        field = FIELDS[q]
        if d % field.p == 0:
            continue
        units = [x for x in field.elements() if x]
        for coeffs in itertools.product(units, repeat=n + 1):
            terms = {}
            for i, c in enumerate(coeffs):
                e = [0] * (n + 1)
                e[i] = d
                terms[tuple(e)] = c
            f = HomogeneousForm(field, n + 1, d, terms)
            checked += 1
            if not isinstance(is_smooth(f), Smooth):
                failures.append(("diagonal", q, n, d, coeffs))
    from ksmooth.constructions import klein_form
    for field, n, d in ((F2, 2, 2), (F4, 2, 2), (F3, 1, 3)):
        units = [x for x in field.elements() if x]
        for coeffs in itertools.product(units, repeat=n + 1):
            checked += 1
            if not isinstance(is_smooth(klein_form(coeffs, d)), Smooth):
                failures.append(("cyclic", field.order, n, d, coeffs))
    for k in (1, 2):
        nv = 2 * k + 1
        terms = {(2,) + (0,) * (nv - 1): F2.one()}
        for i in range(1, nv, 2):
            e = [0] * nv
            e[i] = e[i + 1] = 1
            terms[tuple(e)] = F2.one()
        checked += 1
        if not isinstance(is_smooth(HomogeneousForm(F2, nv, 2, terms)), Smooth):
            failures.append(("even-quadric", k))
    report(6, not failures,
           f"{checked} template forms exhaustively smooth"
           + (f"; failures: {failures[:3]}" if failures else ""))


def test_criterion_7_characteristic_zero_lift_spot_check():
    start = time.perf_counter()
    lifted = lift_to_char_zero(builtin_example_f3())
    rng = random.Random(707)
    good = agree = 0
    total = 20
    for _ in range(total):
        while True:
            coeffs = tuple(Fraction(rng.randint(-5, 5)) for _ in range(3))
            if any(coeffs):
                break
        member = lifted.member(coeffs)
        smooth = isinstance(is_smooth(member), Smooth)
        # the Fraction route: Buchberger over Q on the member itself
        agree += smooth == is_projectively_empty(buchberger(jacobian_generators(member)))
        good += smooth
    elapsed = time.perf_counter() - start
    report(7, good == total and agree == total and elapsed < 60,
           f"{good}/{total} random integer-coefficient members smooth over the "
           f"rationals, {agree}/{total} verdicts equal to Buchberger over Q, "
           f"in {elapsed:.1f}s")


def test_criterion_8_algebra_invariant_suites():
    rng = random.Random(808)
    checks = {}

    euler_ok = 0
    for i in range(200):
        field = (F2, F3, F4)[i % 3]
        n, d = 1 + i % 2, 2 + i % 3
        f = random_form(field, n + 1, d, rng)
        euler_ok += euler_combination(f) == f.scale(field.from_int(d))
    checks["euler 200/200"] = euler_ok == 200

    frob_ok = 0
    for field in (F4, get_descriptor(3, 2), get_descriptor(2, 3)):
        for _ in range(30):
            a = random_element(field, rng)
            b = random_element(field, rng)
            frob_ok += (frobenius(a + b, 1) == frobenius(a, 1) + frobenius(b, 1)
                        and frobenius(a * b, 1) == frobenius(a, 1) * frobenius(b, 1)
                        and frobenius(a, field.e) == a)
    checks["frobenius 90/90"] = frob_ok == 90

    skew_ok = 0
    for t in range(100):
        m = (1, 3, 5)[t % 3]
        field = (F2, F4)[t % 2]
        rows = [{} for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                c = random_element(field, rng)
                if c:
                    rows[i][j] = rows[j][i] = c.idx
        # the determinant is zero exactly when some column has no pivot
        skew_ok += len(field.arithmetic.rref(rows, m)[1]) < m
    checks["odd skew det zero 100/100"] = skew_ok == 100

    moore_ok = all(normal_basis_search(p, e, n).det
                   for p, e, n in [(2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 2, 1),
                                   (2, 2, 2), (3, 1, 1), (3, 1, 2), (3, 2, 1)])
    checks["moore nonsingular"] = moore_ok

    kernel_ok = True
    for q, n, d in [(q, n, d) for q in (2, 3, 4) for n in (1, 2) for d in (2, 3)]:
        field = FIELDS[q]
        base = (field.one(),) + (field.zero(),) * n
        for _ in range(200):
            f = random_form(field, n + 1, d, rng)
            in_kernel = not x0_truncation(f)
            singular_at_base = (not f.evaluate(base)) and all(
                not f.partial_derivative(i).evaluate(base) for i in range(n + 1))
            kernel_ok = kernel_ok and (in_kernel == singular_at_base)
    checks["truncation kernel 2400/2400"] = kernel_ok

    report(8, all(checks.values()),
           "; ".join(f"{name}: {'ok' if ok else 'FAIL'}"
                     for name, ok in checks.items()))
