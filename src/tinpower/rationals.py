"""Exact-rational parsing and rendering."""

from __future__ import annotations

from decimal import Decimal, InvalidOperation
from fractions import Fraction

# Largest decimal exponent magnitude accepted: "1e400" parses, "1e1000000"
# is refused before a million-digit integer is built.
MAX_DECIMAL_EXPONENT = 1000


def parse_rational(value) -> Fraction:
    """Coerce a number or string to an exact rational.

    Floats go through their shortest decimal rendering first, so 0.1 becomes
    exactly 1/10 rather than the underlying binary value. Strings may be
    decimal ("0.25", "1e-3") or explicit "p/q". Infinities, NaNs, zero
    denominators and decimal exponents beyond ``MAX_DECIMAL_EXPONENT`` raise
    ``ValueError``.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not valid rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return _from_decimal(repr(value), value)
    if isinstance(value, str):
        text = value.strip()
        if "/" in text:
            try:
                return Fraction(text)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {value!r}") from None
        return _from_decimal(text, value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def _from_decimal(text: str, value) -> Fraction:
    try:
        dec = Decimal(text)
    except InvalidOperation:
        raise ValueError(f"not a decimal or p/q rational: {value!r}") from None
    if not dec.is_finite():
        raise ValueError(f"not a finite rational: {value!r}")
    exponent = dec.as_tuple().exponent
    if abs(exponent) > MAX_DECIMAL_EXPONENT:
        raise ValueError(
            f"decimal exponent {exponent} exceeds the limit of "
            f"{MAX_DECIMAL_EXPONENT} in magnitude")
    return Fraction(dec)


def gdof_tuple(values, K: int | None = None) -> tuple[Fraction, ...]:
    """Coerce and validate a GDoF tuple: non-negative exact rationals."""
    d = tuple(parse_rational(x) for x in values)
    if K is not None and len(d) != K:
        raise ValueError(f"expected {K} GDoF entries, got {len(d)}")
    for x in d:
        if x < 0:
            raise ValueError(f"GDoF values must be non-negative, got {x}")
    return d


def power_exponents(values, K: int | None = None) -> tuple[Fraction, ...]:
    """Coerce and validate a power exponent vector (entries <= 0)."""
    r = tuple(parse_rational(x) for x in values)
    if K is not None and len(r) != K:
        raise ValueError(f"expected {K} exponents, got {len(r)}")
    for x in r:
        if x > 0:
            raise ValueError(f"power exponents must be <= 0, got {x}")
    return r


def render_rational(value: Fraction) -> str:
    """Exact decimal string when the value terminates, else "p/q"."""
    num, den = value.numerator, value.denominator
    if den == 1:
        return str(num)
    rest = den
    twos = fives = 0
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{num}/{den}"
    shift = max(twos, fives)
    digits = str(abs(num) * 10**shift // den).rjust(shift + 1, "0")
    sign = "-" if num < 0 else ""
    return f"{sign}{digits[:-shift]}.{digits[-shift:]}"
