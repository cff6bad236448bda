"""Exception hierarchy for the ddfv package.

Mesh construction, operator, scheme and solver failures all derive from
DDFVError so callers (and the CLI) can map them to exit codes in one place.
"""

import numpy as np


class DDFVError(Exception):
    """Base class for all package-specific errors."""


class MeshError(DDFVError):
    """Base class for mesh construction and validation failures."""


class NonManifoldEdge(MeshError):
    """An edge is shared by more than two cells."""


class NegativeArea(MeshError):
    """A cell, diamond or quarter-diamond has nonpositive area."""


class NonConvexDiamond(MeshError):
    """A primal edge and its dual edge do not cross properly."""


class DegenerateCell(MeshError):
    """A generated cell inverted or collapsed."""


class ParseError(MeshError):
    """Mesh file could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(DDFVError):
    """A structural invariant failed to hold."""


class NotSPD(DDFVError):
    """Anisotropy tensor is not symmetric positive definite."""


class BadBeta(DDFVError):
    """Penalization exponent outside the admissible range (0, 2)."""


class NonPositiveState(DDFVError):
    """A state with nonpositive entries was passed where positivity is required."""


class NegativeInitialData(DDFVError):
    """Projection of the initial data produced a significantly negative cell mean."""


class SolverError(DDFVError):
    """Base class for nonlinear/linear solver failures."""


class NoConvergence(SolverError):
    """Newton iteration exhausted max_iter without meeting the tolerance."""


class LinearSolveFailure(SolverError):
    """Inner linear solve produced an unacceptable residual."""


class SingularMatrix(SolverError):
    """Linear system matrix is singular (or numerically so)."""


class PositivityBacktrackExhausted(SolverError):
    """Backtracking could not restore positivity of the Newton iterate."""


class InvariantViolation(DDFVError):
    """A runtime conservation/dissipation assertion failed during a run."""


def raise_first(checks):
    """Raise for the first element that fails any of the checks.

    ``checks`` is a list of (mask, error class, message of element i);
    the element's checks are tried in list order, so the reported failure
    is the one an element-by-element loop would have met first.
    """
    failing = np.logical_or.reduce([mask for mask, _, _ in checks])
    if failing.any():
        i = int(np.argmax(failing))
        for mask, error, message in checks:
            if mask[i]:
                raise error(message(i))
