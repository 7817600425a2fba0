"""Exception hierarchy shared across the package.

Two branches matter for callers: ``ValidationError`` means the inputs or the
data themselves are unusable (bad schema, empty window, inadmissible
parameters), while ``NumericalError`` means a well-posed computation failed to
converge or hit a degenerate configuration.  The command line maps the former
to exit status 2 and the latter to exit status 3.
"""

from __future__ import annotations


class GeometryError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(GeometryError):
    """Inputs or data violate a documented precondition."""


class NumericalError(GeometryError):
    """A numerical procedure failed on otherwise valid inputs."""


class DomainError(ValidationError):
    """A scalar argument is outside the domain (z = 0, NaN, r <= 0, ...)."""


class SchemaError(ValidationError):
    """A JSON document does not match the documented schema."""


class InadmissibleWindowError(ValidationError):
    """A coefficient root lands inside the requested annulus."""

    def __init__(self, moduli):
        self.moduli = tuple(sorted(moduli))
        super().__init__(
            "window contains root moduli " + ", ".join("%.6g" % m for m in self.moduli)
        )


class EmptyWindowError(ValidationError):
    """No admissible annulus exists for the requested margin."""


class InadmissibleParametersError(ValidationError):
    """Family parameters violate their admissibility constraints."""


class EmptySlabError(ValidationError):
    """The requested slab does not intersect the attained height range."""


class MultivaluedDataError(ValidationError):
    """A horizontal or vertical log coefficient makes the map multivalued."""


class PreconditionError(ValidationError):
    """Two objects being compared do not satisfy the comparison contract."""


class ConvergenceError(NumericalError):
    """An iteration exhausted its budget without meeting its tolerance."""


class DegenerateContourError(NumericalError):
    """A root sits on (or hugs) the integration circle."""


class HeightRangeError(NumericalError):
    """A requested height is not attained along some ray of the annulus."""


class NonMonotoneRayError(NumericalError):
    """Height is not monotone along a radial ray, so levels are ambiguous."""
