"""Exception hierarchy shared across the package.

Errors are split into input problems (bad orders, malformed tables,
unsupported groups) and validation failures (a supplied degree table
violating the homomorphism laws).  The CLI maps these onto exit codes.
"""

from __future__ import annotations


class SpaceformError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SpaceformError):
    """Malformed or out-of-range input (CLI exit code 1)."""


class ValidationError(SpaceformError):
    """A supplied object fails a required law (CLI exit code 2)."""


class InvalidOrderError(InputError):
    """Requested group order is not admissible for the constructor."""


class StructureError(InputError):
    """A multiplication table is not even a Latin square."""


class NotAGroupError(InputError):
    """A Latin square that fails associativity or has no identity."""


class SizeCapError(InputError):
    """Group order exceeds the configured cap (SPACEFORM_MAX_ORDER)."""


class GroupSpecError(InputError):
    """A CLI group spec is not cyclic:m, quaternion:4k or table:path."""


class DTableFormatError(InputError):
    """A d-table is not {"n": int, "values": {"<int>": int, ...}}."""


class InvalidCapError(InputError):
    """SPACEFORM_MAX_ORDER is set but is not a positive integer."""


class DomainMismatchError(InputError):
    """Operands belong to different groups or monoid contexts."""


class NotRealizableError(InputError):
    """Degree/endomorphism pair violates the membership congruence."""


class UnsupportedGroupError(InputError):
    """No built-in degree homomorphism; a user table is required."""


class InvalidDimensionError(InputError):
    """Dimension parameter out of range for the requested monoid."""


class IncompleteTableError(ValidationError):
    """User degree table does not cover every endomorphism."""


class NotAHomomorphismError(ValidationError):
    """User degree table violates multiplicativity; carries a witness."""

    def __init__(self, message: str, witness: tuple[int, int] | None = None):
        super().__init__(message)
        self.witness = witness


class InvalidTableError(ValidationError):
    """User degree table violates the identity or unit condition."""
