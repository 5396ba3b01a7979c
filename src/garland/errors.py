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


class NonDenseIds(GarlandError):
    pass


class InvalidLabel(GarlandError, ValueError):
    pass


# -- subspace geometry ------------------------------------------------------

class DimensionOutOfRange(GarlandError):
    pass


# -- operators --------------------------------------------------------------

class DegreeOutOfRange(GarlandError):
    pass


# -- spectra ----------------------------------------------------------------

class CertificationFailed(GarlandError):
    pass


class NotSquarefree(GarlandError):
    pass


class NoNonzeroRoot(GarlandError):
    pass


class InvalidWidth(GarlandError):
    pass


# -- harness ----------------------------------------------------------------

class BudgetExceeded(GarlandError):
    pass


class UnknownReferenceInstance(GarlandError):
    pass
