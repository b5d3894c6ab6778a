"""Exception types shared across the package."""


class DescriptorMismatch(ValueError):
    """Operands belong to different coefficient fields."""


class DivisionByZero(ZeroDivisionError):
    """Division or inversion by the zero element."""


class WrongCharacteristic(ValueError):
    """Operation requires a specific field characteristic."""


class NoSolution(ValueError):
    """Linear system has no solution."""


class DegreeMismatch(ValueError):
    """Forms of different degrees where equal degrees are required."""


class DependentGenerators(ValueError):
    """Generators of a linear system are linearly dependent."""


class NotHomogeneous(ValueError):
    """Polynomial input is not homogeneous."""


class BudgetExceeded(RuntimeError):
    """Buchberger step budget exhausted."""


class WitnessNotFoundWithinCap(RuntimeError):
    """A singularity certificate exists but no witness point was located
    within the extension-degree cap."""


class PreconditionViolated(ValueError):
    """Structural precondition on the input system does not hold."""


class NotFrobeniusCyclic(ValueError):
    """Input family is not cyclically permuted by the Frobenius map."""


class HypothesisViolated(ValueError):
    """Parameters violate the requirement that the characteristic does not
    divide gcd(d, n+1)."""


class RankViolated(ValueError):
    """Requested projective dimension exceeds the attainable maximum."""


class NotPrimeField(ValueError):
    """Lifting requires a prime base field."""


class ShapeViolated(ValueError):
    """Quadric does not have the required x0^2 + G(x1, ..., xn) shape."""


class EvenN(ValueError):
    """Construction requires an odd number of trailing variables."""


class ZeroCoefficient(ValueError):
    """A coefficient that must be nonzero is zero."""
