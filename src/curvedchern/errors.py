"""Exception types shared across the engine.

Everything raised on purpose derives from EngineError so the CLI can map
failures onto its exit codes: bad input data is InvalidInput (exit 2), a
mathematical identity failing on valid input is IdentityFailure (exit 3),
and an internal cross-check tripping is InternalCheckFailure (exit 4).
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all deliberate failures."""


class InvalidInput(EngineError):
    """Input data violates a documented precondition (exit code 2)."""


class IdentityFailure(EngineError):
    """An exact identity that should hold on valid input does not (exit 3)."""


class InternalCheckFailure(EngineError):
    """A redundant internal consistency check failed (exit 4).

    These guard implementation bugs, not user mistakes: e.g. the
    per-variable linearity residue of a curvature computation.
    """


class Inhomogeneous(InvalidInput):
    """A polynomial or matrix entry is not homogeneous where it must be."""


class NonLinearCurvature(InternalCheckFailure):
    """The double-application curvature failed its linearity residue check."""


class EmptyIdeal(InvalidInput):
    """Groebner routines were handed no nonzero generators."""


class ZeroJacobianIdeal(InvalidInput):
    """Milnor number requested for a polynomial with vanishing Jacobian ideal."""


class NotTopForm(InvalidInput):
    """Milnor reduction applied to a form that is not a top-degree form."""
