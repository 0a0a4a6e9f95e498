"""Exact arithmetic on truth degrees.

Degrees live in the closed unit interval and are represented as
``fractions.Fraction`` values, so every comparison elsewhere in the
package is exact; no tolerance parameter exists anywhere.  Three t-norm
families are supported for combining degrees.  The transitivity-style
side conditions of the proof kernel always combine degrees with the
Lukasiewicz operations regardless of the session t-norm; the helpers
``luk_tnorm``/``luk_tconorm`` exist for that purpose.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Iterable, Union

Grade = Fraction

GradeLike = Union[Grade, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)


class TNormKind(Enum):
    """Which t-norm a reasoning session combines strong conjunctions with."""

    LUKASIEWICZ = "lukasiewicz"
    PRODUCT = "product"
    MINIMUM = "min"


def as_grade(value: GradeLike) -> Grade:
    """Coerce ``value`` to an exact degree in [0, 1].

    Accepts Fractions, ints, and strings in "p/q" or decimal form
    ("0.25" becomes exactly 1/4).  Floats are rejected: they would
    smuggle binary rounding into comparisons that promise exactness.
    """
    if isinstance(value, float):
        raise TypeError("degrees must be exact; pass a Fraction, int, or string, not float")
    try:
        grade = Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"degree {value!r} has a zero denominator") from None
    if grade < ZERO or grade > ONE:
        raise ValueError(f"degree {grade} outside [0, 1]")
    return grade


def tnorm(kind: TNormKind, c: Grade, d: Grade) -> Grade:
    if kind is TNormKind.LUKASIEWICZ:
        return luk_tnorm(c, d)
    if kind is TNormKind.PRODUCT:
        return c * d
    return min(c, d)


def tconorm(kind: TNormKind, c: Grade, d: Grade) -> Grade:
    """Dual of ``tnorm`` under degree flipping."""
    return ONE - tnorm(kind, ONE - c, ONE - d)


def negate(c: Grade) -> Grade:
    return ONE - c


def luk_tnorm(c: Grade, d: Grade) -> Grade:
    return max(c + d - ONE, ZERO)


def luk_tconorm(c: Grade, d: Grade) -> Grade:
    return min(c + d, ONE)


def mean(values: Iterable[Grade]) -> Grade:
    """Arithmetic mean of one or more degrees, exact."""
    collected = list(values)
    if not collected:
        raise ValueError("mean of an empty collection of degrees")
    return Fraction(sum(collected), len(collected))
