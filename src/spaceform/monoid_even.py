"""The self-map monoid of an even-dimensional real projective space.

The monoid is Z under multiplication, quotiented so that all integers
= 0 mod 4 collapse to one class and all integers = 2 mod 4 to another,
while each odd integer stays its own class.  The structure is the same
for every even dimension 2n with n >= 1.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import NotOddError

TAG_A0 = "a0"
TAG_A2 = "a2"
TAG_ODD = "odd"


class EvenElement(NamedTuple):
    """Tagged union: the classes a0, a2, or an odd integer class."""

    tag: str
    k: int  # odd payload; 0 for the two even classes

    def __str__(self) -> str:
        if self.tag == TAG_ODD:
            return f"b[{self.k}]"
        return self.tag


A0 = EvenElement(TAG_A0, 0)
A2 = EvenElement(TAG_A2, 0)


def odd(k: int) -> EvenElement:
    if k % 2 == 0:
        raise NotOddError(f"odd class requires an odd integer, got {k}")
    return EvenElement(TAG_ODD, k)


def canonicalize(k: int) -> EvenElement:
    """Class of the integer k: odd keeps its value, evens collapse mod 4."""
    if k & 1:
        return EvenElement(TAG_ODD, k)
    return A0 if k % 4 == 0 else A2


def multiply_even(x: EvenElement, y: EvenElement) -> EvenElement:
    """a_i * a_j = a0; a_i * b = b * a_i = a_i; b * b' multiplies payloads."""
    if x.tag == TAG_ODD:
        if y.tag == TAG_ODD:
            return EvenElement(TAG_ODD, x.k * y.k)
        return y
    if y.tag == TAG_ODD:
        return x
    return A0


def identity_even() -> EvenElement:
    return EvenElement(TAG_ODD, 1)
