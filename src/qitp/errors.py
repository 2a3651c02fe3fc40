"""Exception hierarchy for qitp.

Everything derives from QitpError so callers can catch broadly; the leaf
classes mirror the distinct failure modes of the numerical core, the
simulator, the Hamiltonian builders, and the transpiler.
"""


class QitpError(Exception):
    """Base class for all qitp errors."""


class NonHermitianInput(QitpError):
    """A matrix that must be Hermitian fails the symmetry check."""


class NoConvergence(QitpError):
    """The eigensolver did not reach the requested accuracy."""


class NonFiniteFunctionValue(QitpError):
    """A scalar function produced NaN/Inf on the operator spectrum."""


class UnitarityCheckFailed(QitpError):
    """A constructed dilation is not unitary to working precision."""


class DimensionMismatch(QitpError):
    """Operands have incompatible dimensions."""


class DimensionError(QitpError):
    """A dimension is out of the supported range."""


class PostselectionImpossible(QitpError):
    """All weight sits on the discarded ancilla branch.

    Carries the offending probability and, when raised from the repetition
    loop, the 1-based repetition index at which conditioning failed.
    """

    def __init__(self, message, probability=0.0, repetition=None):
        super().__init__(message)
        self.probability = probability
        self.repetition = repetition


class NonRealExpectation(QitpError):
    """An expectation value that must be real has a large imaginary part."""


class InvalidDistribution(QitpError):
    """A probability vector is negative, non-finite, or not normalized."""


class SingularOverlap(QitpError):
    """An overlap matrix is numerically singular."""


class ParseError(QitpError):
    """A document (Hamiltonian JSON, circuit text) does not match its schema."""


class NotUnitary(QitpError):
    """A matrix handed to the transpiler is not unitary."""


class FidelityShortfall(QitpError):
    """Internal consistency check: a synthesized circuit missed its target."""
