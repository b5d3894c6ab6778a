"""Buchberger engine over exact coefficient fields, and the projective
emptiness certificate used to prove smoothness.

The order is fixed to degrevlex with x0 > ... > xn (shared with multipoly);
there is deliberately no order parameter.  A homogeneous ideal cuts out the
empty set in P^n exactly when every variable contributes a pure-power leading
monomial to the reduced basis, which is the cheapest correct certificate.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import BudgetExceeded, NotHomogeneous
from .fields import RationalField, element_to_json, field_to_json
from .multipoly import HomogeneousForm, monomial_key

DEFAULT_STEP_BUDGET = 1_000_000


def _terms_of(f):
    if isinstance(f, HomogeneousForm):
        return dict(f.terms)
    return dict(f)


def _lead(terms):
    return max(terms, key=monomial_key)


def _mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _mono_quot(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _make_monic(terms, field):
    lc = terms[_lead(terms)]
    if lc == field.one():
        return terms
    inv = 1 / lc if isinstance(lc, Fraction) else lc.inv()
    return {m: c * inv for m, c in terms.items()}


def _content_one(terms):
    """Rescale rational coefficients to integer content 1 with a positive
    leading coefficient (bounds coefficient growth during the run)."""
    den = 1
    for c in terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    num = 0
    for c in terms.values():
        num = gcd(num, abs(c.numerator) * (den // c.denominator))
    scale = Fraction(den, num)
    out = {m: c * scale for m, c in terms.items()}
    if out[_lead(out)] < 0:
        out = {m: -c for m, c in out.items()}
    return out


def _normalize(terms, field):
    if isinstance(field, RationalField):
        return _content_one(terms)
    return _make_monic(terms, field)


def _reduce_full(work, gens, lms, field):
    """Full remainder of multivariate division of `work` by `gens`."""
    rem = {}
    while work:
        lm = _lead(work)
        c = work.pop(lm)
        for g, glm in zip(gens, lms):
            if _mono_divides(glm, lm):
                shift = _mono_quot(lm, glm)
                factor = c / g[glm]
                for m, gc in g.items():
                    if m == glm:
                        continue
                    mm = _mono_mul(m, shift)
                    cur = work.get(mm)
                    v = -(factor * gc) if cur is None else cur - factor * gc
                    if v:
                        work[mm] = v
                    elif cur is not None:
                        del work[mm]
                break
        else:
            rem[lm] = c
    return rem


def normal_form(f, basis, field=None):
    """Remainder of f under multivariate division by the basis.

    No monomial of the result is divisible by a leading monomial of the
    basis, and f minus the result lies in the generated ideal.
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
    lms = [_lead(g) for g in gens]
    return _reduce_full(_terms_of(f), gens, lms, field)


def s_polynomial(f, g, field):
    lf, lg = _lead(f), _lead(g)
    l = _mono_lcm(lf, lg)
    cf, cg = f[lf], g[lg]
    out = {}
    shift = _mono_quot(l, lf)
    for m, c in f.items():
        out[_mono_mul(m, shift)] = c / cf
    shift = _mono_quot(l, lg)
    for m, c in g.items():
        mm = _mono_mul(m, shift)
        cur = out.get(mm)
        v = -(c / cg) if cur is None else cur - c / cg
        if v:
            out[mm] = v
        elif cur is not None:
            del out[mm]
    return out


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis: monic elements, no leading monomial dividing
    any monomial of another element, fixed degrevlex order."""

    field: object
    nvars: int
    elements: tuple
    order: str = "degrevlex"

    @property
    def leading_monomials(self):
        return tuple(_lead(t) for t in self.elements)


def buchberger(generators, field=None, nvars=None, step_budget=DEFAULT_STEP_BUDGET):
    """Reduced Groebner basis of the ideal generated by the inputs.

    Pairs are processed by normal selection (minimal lcm degree first, ties
    by index); the product criterion prunes coprime-lead pairs.  Output is
    deterministic for a given input sequence, and in fact canonical: the
    reduced basis is unique for the fixed order.
    """
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

    basis = [_normalize(g, field) for g in gens]
    lms = [_lead(g) for g in basis]
    heap = []
    for j in range(len(basis)):
        for i in range(j):
            heapq.heappush(heap, (sum(_mono_lcm(lms[i], lms[j])), i, j))

    steps = 0
    while heap:
        _, i, j = heapq.heappop(heap)
        steps += 1
        if steps > step_budget:
            raise BudgetExceeded(f"pair budget {step_budget} exhausted")
        li, lj = lms[i], lms[j]
        if _mono_lcm(li, lj) == _mono_mul(li, lj):
            continue
        s = s_polynomial(basis[i], basis[j], field)
        r = _reduce_full(s, basis, lms, field)
        if r:
            r = _normalize(r, field)
            basis.append(r)
            lm = _lead(r)
            lms.append(lm)
            k = len(basis) - 1
            for t in range(k):
                heapq.heappush(heap, (sum(_mono_lcm(lms[t], lm)), t, k))

    # minimal basis: keep elements whose leading monomial no other kept
    # element's leading monomial divides
    order_idx = sorted(range(len(basis)), key=lambda k: monomial_key(lms[k]))
    keep = []
    for k in order_idx:
        if not any(_mono_divides(lms[m], lms[k]) for m in keep):
            keep.append(k)
    kept = [dict(basis[k]) for k in keep]

    # tail reduction: leads are stable, so one pass over the current set
    # yields the unique reduced basis
    for i in range(len(kept)):
        others = kept[:i] + kept[i + 1:]
        olms = [_lead(o) for o in others]
        kept[i] = _make_monic(_reduce_full(dict(kept[i]), others, olms, field), field)
    kept.sort(key=lambda t: monomial_key(_lead(t)))
    return GroebnerBasis(field=field, nvars=nvars, elements=tuple(kept))


def is_projectively_empty(basis):
    """Whether the homogeneous ideal of the basis has empty zero set in P^n.

    True iff every variable contributes a pure-power leading monomial
    (equivalently the affine zero set is the origin alone).
    """
    covered = [False] * basis.nvars
    for terms in basis.elements:
        degrees = {sum(m) for m in terms}
        if len(degrees) > 1:
            raise NotHomogeneous("certificate requires homogeneous basis elements")
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
            "order": basis.order, "elements": elements}
