"""Fixtures shared by the test modules."""

import pytest

from ksmooth import fields, smoothness


@pytest.fixture
def certified_members(monkeypatch):
    """The coefficients of every member `verify_system_K_smooth` certifies
    from the moment the fixture is requested, in call order."""
    calls = []
    real = smoothness.certify_combinations

    def counting(rows, field, slots):
        certify = real(rows, field, slots)

        def run(coeffs):
            calls.append(tuple(coeffs))
            return certify(coeffs)
        return run

    monkeypatch.setattr(smoothness, "certify_combinations", counting)
    return calls


@pytest.fixture
def untabled(monkeypatch):
    """A function building GF(p^e), with its canonical modulus, above a
    lowered table limit, so that it computes on the digits of its indices
    like a field of more than 2^16 elements."""
    def build(p, e):
        with monkeypatch.context() as patch:
            patch.setattr(fields, "_TABLE_LIMIT", 1)
            field = fields.FieldDescriptor(p, e)
        assert field._exp is None
        return field
    return build
