"""The self-map monoid of an even-dimensional real projective space.

The monoid is Z under multiplication, quotiented so that all integers
= 0 mod 4 collapse to one class and all integers = 2 mod 4 to another,
while each odd integer stays its own class.  The structure is the same
for every even dimension 2n with n >= 1.  A class is a plain int: k
for the odd class b[k], 0 for a0 and 2 for a2.
"""

from __future__ import annotations

from .errors import DomainMismatchError, NotOddError
from .groups import as_int

A0 = 0
A2 = 2


def odd(k: int) -> int:
    """The class b[k]; NotOddError unless k is an odd int (a float or bool is not)."""
    try:
        value = as_int(k)
    except TypeError:
        value = 0  # refused below, as an even k is
    if not value & 1:
        raise NotOddError(f"odd class requires an odd integer, got {k!r}")
    return value


def canonicalize(k: int) -> int:
    """Class of the integer k: odd keeps its value, evens collapse mod 4."""
    try:  # costs nothing until it raises
        return k if k & 1 else k % 4
    except TypeError:  # a float, str or None has no & 1
        raise DomainMismatchError(f"a class of M(RP^2n) is an int, got {k!r}") from None


def multiply_even(x: int, y: int) -> int:
    """Exact on any representatives: 2 * odd = 2 and 2 * 2 = 0 mod 4.

    Takes classes built by ``odd``, ``A0``, ``A2`` or an earlier product.
    Types are not checked; operands that do not multiply to an int raise
    DomainMismatchError.
    """
    try:  # costs nothing until it raises
        return canonicalize(x * y)
    except TypeError:  # None, or a str times a str
        raise DomainMismatchError(f"classes of M(RP^2n) are ints, got {x!r}, {y!r}") from None


def identity_even() -> int:
    return 1


def class_label(x: int) -> str:
    """The name of the class of x: b[x] for odd x, else a0 or a2.

    A bool or float is refused, as a str or None is: labels are read, so
    b[True] or b[3.0] would name a class that does not exist.
    """
    try:
        x = canonicalize(as_int(x))
    except TypeError:
        raise DomainMismatchError(f"a class of M(RP^2n) is an int, got {x!r}") from None
    return f"b[{x}]" if x & 1 else f"a{x}"
