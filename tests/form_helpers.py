"""Operations on forms that the tests check identities with and that no
pipeline path needs: Frobenius fixedness and twists of coefficients, the
Euler combination, and the base-point truncation of a single form."""

from ksmooth.errors import DescriptorMismatch
from ksmooth.fields import FieldDescriptor, frobenius
from ksmooth.multipoly import HomogeneousForm


def coefficients_fixed_by_frobenius(form, k):
    """True iff every coefficient satisfies c^(p^k) = c, i.e. lies in the
    subfield GF(p^k)."""
    field = form.field
    if not isinstance(field, FieldDescriptor):
        raise DescriptorMismatch("Frobenius fixedness is a finite-field notion")
    if k < 1 or field.e % k:
        raise ValueError("k must divide the extension degree")
    return all(frobenius(c, k) == c for c in form.terms.values())


def frobenius_twist(form, k):
    """Apply x -> x^(p^k) to every coefficient."""
    return HomogeneousForm(form.field, form.nvars, form.degree,
                           {m: frobenius(c, k) for m, c in form.terms.items()})


def euler_combination(form):
    """Sum of x_i * df/dx_i, built from the derivative and product operations
    (so it exercises their interplay; equals (d mod p) * f)."""
    if form.degree == 0:
        return HomogeneousForm.zero(form.field, form.nvars, 0)
    out = HomogeneousForm.zero(form.field, form.nvars, form.degree)
    for i in range(form.nvars):
        xi = HomogeneousForm.monomial(
            form.field, form.nvars, tuple(1 if k == i else 0 for k in range(form.nvars)))
        out = out + xi * form.partial_derivative(i)
    return out


def x0_truncation(form):
    """Keep exactly the monomials with x0-exponent >= d-1.

    The result lies in x0^(d-1) times the linear forms, and the kernel of the
    map on degree-d forms is precisely the set of forms singular at the base
    point [1:0:...:0].  For d = 2 it coincides with F - F(0, x1, ..., xn).
    """
    cut = form.degree - 1
    kept = {m: c for m, c in form.terms.items() if m[0] >= cut}
    return HomogeneousForm(form.field, form.nvars, form.degree, kept)
