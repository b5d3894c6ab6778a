"""Fixtures shared by the test modules."""

import pytest

from ksmooth import smoothness


@pytest.fixture
def certified_members(monkeypatch):
    """The coefficients of every member `verify_system_K_smooth` certifies
    from the moment the fixture is requested, in call order."""
    calls = []
    real = smoothness.certify_combinations

    def counting(rows, field, nvars):
        certify = real(rows, field, nvars)

        def run(coeffs):
            calls.append(tuple(coeffs))
            return certify(coeffs)
        return run

    monkeypatch.setattr(smoothness, "certify_combinations", counting)
    return calls
