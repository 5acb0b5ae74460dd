"""Exception types shared across the library."""


class QTorusError(Exception):
    """Base class for library-specific failures."""


class FieldAssumptionViolated(QTorusError):
    """A custom minimal polynomial turned out to be reducible.

    Raised lazily when an inversion exposes a nontrivial factor; the
    offending factor is attached for diagnosis.
    """

    def __init__(self, message, factor=None):
        super().__init__(message)
        self.factor = factor


class SearchExhausted(QTorusError):
    """A bounded deterministic search ran out of candidates."""


class VerificationFailed(QTorusError):
    """A certificate the library computes for its own result did not hold.

    ``witness`` locates the failed identity.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotAntisymmetric(QTorusError, ValueError):
    """Input matrix fails S^T == -S."""


class CompatibilityFailure(QTorusError):
    """A Galois action is incompatible with the commutation matrix.

    Carries a witness tuple locating the first failed identity.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class OrderUndeclared(QTorusError):
    """A commutation unit has unknown or infinite multiplicative order."""


class InconsistentCharacter(QTorusError):
    """Central character values do not extend multiplicatively."""


class PreconditionFailure(QTorusError, ValueError):
    """A named precondition of a verification routine is violated."""


class ProblemFormatError(QTorusError, ValueError):
    """A problem document failed to parse; ``path`` locates the error."""

    def __init__(self, message, path="$"):
        super().__init__(f"{path}: {message}")
        self.path = path
