"""Exception types raised by the library.

Everything derives from QCKitError so callers can catch broadly; the CLI maps
QCKitError to exit code 1 and argparse usage errors to exit code 2.
"""


class QCKitError(ValueError):
    pass


# field construction / arithmetic
class NonPrimeCharacteristic(QCKitError):
    pass


class OrderCapExceeded(QCKitError):
    pass


class MixedFields(QCKitError):
    pass


class DivisionByZero(QCKitError, ZeroDivisionError):
    pass


class InvalidSubfieldOrder(QCKitError):
    pass


class NotASubfield(QCKitError):
    pass


class NoEmbedding(QCKitError):
    pass


class NoRootOfThatOrder(QCKitError):
    pass


class InvalidLogTable(QCKitError):
    """The log/antilog arrays of a field could not be built consistently."""


# polynomial ring
class NotCoprime(QCKitError):
    pass


class ZeroConstantTerm(QCKitError):
    pass


class MinimalPolynomialMismatch(QCKitError):
    """The product of (x - alpha^c) over a cyclotomic coset has a coefficient
    outside the base field."""


class ReciprocalMismatch(QCKitError):
    """The factor of the negated coset is not the reciprocal of the factor
    of the coset."""


class FactorProductMismatch(QCKitError):
    """The computed factors of x^m - 1 do not multiply back to x^m - 1."""


# linear codes
class LengthMismatch(QCKitError):
    pass


class DimensionMismatch(QCKitError):
    pass


class OrderNotSquare(QCKitError):
    pass


class BudgetExceeded(QCKitError):
    """The distance engine used its codeword budget without certifying an
    exact value that the caller needs."""


class RepeatedEvaluationPoint(QCKitError):
    pass


class ZeroMultiplier(QCKitError):
    pass


# quasi-cyclic assembly
class FieldMismatch(QCKitError):
    pass


class OrderingViolated(QCKitError):
    pass


class ConstituentNotHSO(QCKitError):
    pass


class SlotSNotESO(QCKitError):
    pass


class RankMismatch(QCKitError):
    """An assembled QC code's rank differs from its constituent dimension."""


class DualMismatch(QCKitError):
    """The constituent-level dual of a QC code differs from its flat dual."""


# distance bound
class RepNotACosetMin(QCKitError):
    pass


class UnknownConstituentDistance(QCKitError):
    pass


class EmptyAssignment(QCKitError):
    pass


# quantum
class NotNested(QCKitError):
    pass


class NotDualContaining(QCKitError):
    pass


class PreconditionViolated(QCKitError):
    pass


# serialization
class NotAnInteger(QCKitError):
    """A JSON field that must be an integer holds something else."""


class NotABoolean(QCKitError):
    """A JSON field that must be a boolean holds something else."""
