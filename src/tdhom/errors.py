"""Shared exception types."""


class TdhomError(Exception):
    pass


class ShapeError(TdhomError):
    """Dimension or arity mismatch between structures."""


class InvalidPermutation(TdhomError):
    """Image array is not a bijection of 0..n-1."""


class ScalarError(TdhomError):
    """A scalar is not an exact rational: a float, or not a number at all."""


class MalformedInput(TdhomError):
    """Structure constants reference indices out of range."""


class AxiomError(TdhomError):
    """An eager axiom check failed on load.

    Carries the failed CheckResult in .result when available, and the
    structure's name and role from its file when raised by a file reader.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result
        self.structure_name = self.role = None


class ParseError(TdhomError):
    """Structure file does not conform to the tdhom/1 format."""


class GuardError(TdhomError):
    """Refused: the size a route will build exceeds the guard limit.

    Raised only by convolution.check_size, whose message names the size
    and the limit, for the two routes that price what they build
    (cohomology.classical_complex and lie_rinehart.blinear_defects).
    """
