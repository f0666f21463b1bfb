"""Exception types shared across the toolkit."""

from __future__ import annotations


class SemipoisonError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(SemipoisonError):
    """Array shapes are inconsistent with the stated problem dimensions."""


class Infeasible(SemipoisonError):
    """No point satisfies the constraints."""


class Unbounded(SemipoisonError):
    """The objective decreases without bound on the feasible set."""


class MaxIterations(SemipoisonError):
    """Iteration budget exhausted before convergence."""


class BadLabel(SemipoisonError):
    """A class label is not in {-1, +1}."""


class OutOfDomain(SemipoisonError):
    """Input lies outside the documented domain of the model."""


class RegularityFailure(SemipoisonError):
    """Active constraint gradients are linearly dependent (LICQ fails)."""


class AuxInfeasible(SemipoisonError):
    """Auxiliary problem has inconsistent equality rows."""


class AuxUnbounded(SemipoisonError):
    """Auxiliary problem is unbounded (second-order condition fails)."""


class SingularHessian(SemipoisonError):
    """Hessian block required to be invertible is singular."""


class EmptyDirectionSet(SemipoisonError):
    """No feasible perturbation direction remains for a data point."""


class Stalled(SemipoisonError):
    """No candidate direction decreases the attack objective."""

    def __init__(self, message: str, certificate: float | None = None):
        super().__init__(message)
        self.certificate = certificate


class ParseError(SemipoisonError):
    """Malformed input file."""


class DegenerateFeature(SemipoisonError):
    """A feature has (near-)zero variance and cannot be standardized."""
