"""Exception types shared across the package."""

import json


class UndefinedPosterior(ArithmeticError):
    """Bayesian update attempted on interim beliefs with disjoint supports."""


class NoPieceMatches(ValueError):
    """A piecewise utility has a coverage gap at the evaluated belief."""

    @classmethod
    def at(cls, point) -> "NoPieceMatches":
        """The gap at a belief, written as its ``"p/q"`` coordinates."""
        return cls(f"no piece covers belief {json.dumps([str(p) for p in point])}")


class NotNormalized(ValueError):
    """Operation requires payoffs normalized to vanish at degenerate beliefs."""


class NotPoolable(ValueError):
    """Some sender's utility is nonzero on the sub-simplex, so no pooling
    equilibrium over it exists."""


class PreconditionFailed(ValueError):
    """Input profile does not satisfy the operation's precondition."""


class EnumerationTooLarge(RuntimeError):
    """An enumeration of grid points, product tuples or cells would exceed
    its cap."""


class InvariantViolation(ValueError):
    """A declared model invariant (zero-sum, genericity, ...) fails."""


class ScenarioError(ValueError):
    """Malformed scenario, profile, or fixture input."""
