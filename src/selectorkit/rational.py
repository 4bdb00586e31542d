"""Exact rational scalars shared by the set algebra.

Set corners are exact rationals; the algebra never rounds.  The wire
format encodes dyadic rationals as ``{"num": n, "exp2": k}`` (value
``n / 2**k``, k in 0..1074, which covers the exact value of every
finite float).  Plain JSON numbers are accepted too: ints exactly,
floats via their exact binary value (every finite float is dyadic).
Values produced internally that are not dyadic (witness budgets split
three ways, say) serialize as ``{"num": n, "den": d}``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import InputError

RationalLike = Union[int, float, str, Fraction, dict]

MAX_EXP2 = 1074  # largest wire exponent: 2**-1074 is the least subnormal float


def as_fraction(value: RationalLike) -> Fraction:
    """Convert to an exact Fraction without rounding.

    Floats convert to their exact binary value.  Strings go through
    `Fraction`: "p/q", integer and decimal literals are read exactly
    as written, so "0.3" is 3/10, not the float nearest to it.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError(f"non-finite scalar {value!r}")
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, dict):
        return rational_from_json(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def as_exact(value: RationalLike) -> float | Fraction:
    """`as_fraction`'s value, but a finite float as it is: both read their
    exact value through `as_integer_ratio`, and a float needs no gcd."""
    if type(value) is Fraction or (type(value) is float and math.isfinite(value)):
        return value
    return as_fraction(value)


def is_dyadic(q: Fraction) -> bool:
    """True when the denominator is a power of two."""
    d = q.denominator
    return d & (d - 1) == 0


def rational_to_json(q: Fraction) -> int | dict:
    if q.denominator == 1:
        return int(q)
    if is_dyadic(q):
        return {"num": q.numerator, "exp2": q.denominator.bit_length() - 1}
    return {"num": q.numerator, "den": q.denominator}


def rational_from_json(obj: object) -> Fraction:
    """Decode the wire format; InputError when obj is not a rational."""
    if isinstance(obj, dict):
        try:
            if "exp2" not in obj:
                return Fraction(int(obj["num"]), int(obj["den"]))
            num, exp2 = int(obj["num"]), int(obj["exp2"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
            raise InputError(f"malformed rational object {obj!r}") from e
        if not 0 <= exp2 <= MAX_EXP2:
            raise InputError(f"rational field 'exp2' is {exp2}, outside 0..{MAX_EXP2}")
        return Fraction(num, 2**exp2)
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        try:
            return as_fraction(obj)
        except ValueError as e:  # NaN or an infinity
            raise InputError(f"malformed rational value {obj!r}") from e
    raise InputError(f"malformed rational value {obj!r}")


def int_from_json(obj: object, field: str) -> int:
    """An integer field, read as int() reads it; InputError otherwise."""
    try:
        return int(obj)
    except (TypeError, ValueError) as e:
        raise InputError(f"field {field!r} is not an integer: {obj!r}") from e
