"""Domain-specific error types raised across the simulation pipeline."""


class SingularGeometryError(ValueError):
    """A field point coincides with an array element, so the response diverges."""


class DegenerateChannelError(ValueError):
    """A channel vector is zero, or so weak that its energy is subnormal."""


class InfeasibleWindowError(ValueError):
    """No index window satisfies the visibility-region size constraints."""


class SingularFimError(ValueError):
    """The Fisher information matrix is singular or too ill-conditioned to invert."""


class InfeasibleBlockError(ValueError):
    """Sensing would consume the whole transmission block, leaving no charging time."""
