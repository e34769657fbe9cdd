"""Exception types shared across the workbench."""


class OilabError(Exception):
    """Base class for all workbench errors."""


class WidthError(OilabError):
    """Bit-width mismatch between an operand and the expected domain."""


class ResourceError(OilabError):
    """A brute-force cap was exceeded; the requested computation is infeasible."""


class InvalidPairError(OilabError):
    """A forward circuit is not a permutation for some hard-wired randomness."""


class MalformedSequenceError(OilabError):
    """An invertible-sequence container violates its width contracts."""


class GapViolationError(OilabError):
    """The (a, b) promise parameters do not satisfy the decision gap condition."""


class PreconditionError(OilabError):
    """A documented operation precondition was violated."""


class ParseError(OilabError):
    """A JSON artifact is missing or has an ill-typed field."""


class OracleFailureError(OilabError):
    """A probabilistic oracle call exhausted its retry budget.

    Carries the pipeline stage index and the computed per-call success
    probability so callers can diagnose whether the budget was too small
    or the query genuinely hopeless.
    """

    def __init__(self, stage: int, success_probability: float, attempts: int):
        self.stage = stage
        self.success_probability = success_probability
        self.attempts = attempts
        super().__init__(
            f"oracle call at stage {stage} failed {attempts} times "
            f"(per-call success probability {success_probability:.6g})"
        )
