"""Exception types shared across the toolkit."""

from __future__ import annotations


class SemipoisonError(Exception):
    """Base class for all toolkit errors."""


class InputError(SemipoisonError):
    """The caller's data or settings are invalid; the CLI exits 2."""


class SolverError(SemipoisonError):
    """A solve or a derivative failed on valid input; the CLI exits 3."""


class DimensionMismatch(InputError):
    """Array shapes are inconsistent with the stated problem dimensions."""


class Infeasible(SolverError):
    """No point satisfies the constraints."""


class Unbounded(SolverError):
    """The objective decreases without bound on the feasible set."""


class MaxIterations(SolverError):
    """Iteration budget exhausted before convergence."""


class BadLabel(InputError):
    """A class label is not in {-1, +1}."""


class OutOfDomain(InputError):
    """Input lies outside the documented domain of the model."""


class RegularityFailure(SolverError):
    """Active constraint gradients are linearly dependent (LICQ fails)."""


class AuxUnbounded(SolverError):
    """Auxiliary problem is unbounded (second-order condition fails)."""


class SingularHessian(SolverError):
    """Hessian block required to be invertible is singular."""


class EmptyDirectionSet(InputError):
    """No feasible perturbation direction remains for a data point."""


class Stalled(SemipoisonError):
    """No candidate direction decreases the attack objective."""

    def __init__(self, message: str, certificate: float | None = None):
        super().__init__(message)
        self.certificate = certificate


class ParseError(InputError):
    """Malformed input file."""


class DegenerateFeature(InputError):
    """A feature has (near-)zero variance and cannot be standardized."""
