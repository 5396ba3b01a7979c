"""Exception types shared across the package.

Every error raised on a contract violation derives from GarlandError so
callers can catch the package's failures with a single except clause.
"""


class GarlandError(Exception):
    pass


# -- finite fields ----------------------------------------------------------

class NonPrimeCharacteristic(GarlandError):
    pass


class InvalidDegree(GarlandError):
    pass


class DivisionByZero(GarlandError, ZeroDivisionError):
    pass


# -- simplicial complexes ---------------------------------------------------

class MixedDimensions(GarlandError):
    pass


class DuplicateSimplex(GarlandError):
    pass


class EmptyInput(GarlandError):
    pass


class SimplexNotFound(GarlandError):
    pass


class RepeatedVertex(GarlandError):
    pass


# -- subspace geometry ------------------------------------------------------

class DimensionOutOfRange(GarlandError):
    pass


class AmbientMismatch(GarlandError):
    pass


class DimensionMismatch(GarlandError):
    pass


# -- cochain calculus -------------------------------------------------------

class DegreeMismatch(GarlandError):
    pass


class DegreeOutOfRange(GarlandError):
    pass


class UnknownVertex(GarlandError):
    pass


class UnknownType(GarlandError):
    pass


# -- spectra ----------------------------------------------------------------

class CertificationFailed(GarlandError):
    pass


class NotSquarefree(GarlandError):
    pass


class NoNonzeroRoot(GarlandError):
    pass


# -- harness ----------------------------------------------------------------

class BudgetExceeded(GarlandError):
    pass


class UnknownReferenceInstance(GarlandError):
    pass
