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

import re
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Iterable, Union

Grade = Fraction

GradeLike = Union[Grade, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)

GRADE_LITERAL = r"\d+(?:\.\d+|\s*/\s*\d+)?"
_GRADE_RE = re.compile(GRADE_LITERAL)


class TNormKind(Enum):
    """Which t-norm a reasoning session combines strong conjunctions with."""

    LUKASIEWICZ = "lukasiewicz"
    PRODUCT = "product"
    MINIMUM = "min"


def _shown(value, show=repr) -> str:
    """``show(value)``; when that fails (an int past the digit limit, a container
    of one, or one nested too deep), the int's bit length or the type's name."""
    try:
        return show(value)
    except (ValueError, RecursionError):
        return (f"<int of {value.bit_length()} bits>" if isinstance(value, int)
                else f"<{type(value).__name__}>")


def _grid_sizes(**sizes) -> None:
    """Refuse a grid size or budget whose type is not exactly ``int``."""
    for name, value in sizes.items():
        if type(value) is not int:
            raise TypeError(f"{name} must be an int, got {_shown(value)}")


def as_grade(value: GradeLike) -> Grade:
    """Coerce ``value`` to an exact degree in [0, 1].

    Accepts Fractions (returned as they are), ints, and strings matching
    ``GRADE_LITERAL``, the formula grammar's grade: "p/q" or a decimal
    ("0.25" is exactly 1/4), with no sign, exponent, underscore or bare ".5".
    Floats are rejected: they would smuggle binary rounding into comparisons;
    so are bools, which are not degrees.
    """
    grade = value
    if isinstance(value, str):
        if _GRADE_RE.fullmatch(value) is None:
            raise ValueError(f"degree {value!r} is not a grade literal such as 3/4 or 0.75")
        num, slash, den = value.partition("/")
        try:  # int() refuses more digits than sys.get_int_max_str_digits()
            grade = Fraction(int(num), int(den)) if slash else Fraction(value)
        except ValueError:
            raise ValueError("grade literal has too many digits") from None
        except ZeroDivisionError:
            raise ValueError(f"degree {value!r} has a zero denominator") from None
    elif type(value) is not Fraction:
        if isinstance(value, (float, bool)):
            raise TypeError("degrees must be exact; pass a Fraction, int, or string,"
                            f" not {type(value).__name__}")
        grade = Fraction(value)
    if not 0 <= grade.numerator <= grade.denominator:
        raise ValueError(f"degree {_shown(value, str)} outside [0, 1]")
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
    """Arithmetic mean of one or more degrees, exact: the numerators over one
    common denominator are summed as ints, and one Fraction is built."""
    collected = list(values)
    if not collected:
        raise ValueError("mean of an empty collection of degrees")
    den = lcm(*(c.denominator for c in collected))
    return Fraction(sum(c.numerator * (den // c.denominator) for c in collected),
                    den * len(collected))
