"""Exact rational scalars and their text form.

Everything in this package computes over the rationals; ``fractions.Fraction``
already provides normalised arbitrary-precision arithmetic, so it is used
directly as the scalar type.  Reports and config files carry rationals as
strings like ``"-3/4"`` or ``"8"``.

:func:`as_rational` is the package's one reader of rational inputs, and
``operator.index`` its one reader of integer inputs: neither takes a float.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

Rational = Fraction

RationalLike = Fraction | int | str


def as_rational(value: RationalLike) -> Fraction:
    """Coerce a Fraction, a non-bool int, or a ``"p/q"`` string to a Fraction;
    anything else raises ``TypeError``.

    Exponent notation (``"1e3"``) is rejected: ``Fraction`` would expand a
    large exponent into an integer of that many digits.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):  # bool is an int; reject it explicitly
        raise TypeError("boolean is not a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise ValueError(f"exponent notation is not accepted in {value!r}")
        return Fraction(value.strip())
    if isinstance(value, float):
        raise TypeError(f"float {value!r} is not an exact rational; use an int, Fraction or 'p/q'")
    raise TypeError(f"cannot interpret {value!r} as a rational")


def format_rational(value: Fraction) -> str:
    """Render a Fraction as ``"p"`` or ``"p/q"`` in lowest terms."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def is_integer_at_most(value: Fraction, bound: int) -> bool:
    """True when ``value`` is an integer less than or equal to ``bound``."""
    return value.denominator == 1 and value.numerator <= bound


def clear_denominators(values: Sequence) -> tuple[Sequence[int], int]:
    """(numerators, denominator) with values[i] = numerators[i] / denominator.

    The denominator is the lcm of the reduced denominators, so it is 1 for
    integers, and those come back as the same sequence, unconverted.  Entries
    that are neither ``int`` nor ``Fraction`` are read through
    :func:`as_rational`, so a float raises ``TypeError``.
    """
    if all(type(v) is int for v in values):
        return values, 1
    rationals = [v if isinstance(v, (int, Fraction)) else as_rational(v) for v in values]
    den = lcm(1, *(v.denominator for v in rationals))
    return [v.numerator * (den // v.denominator) for v in rationals], den
