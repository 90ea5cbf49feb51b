"""Small shared helpers: exact parsing, integer and level checks, fractional
parts, report headers."""

from __future__ import annotations

import math
import re
from fractions import Fraction


class PreconditionError(ValueError):
    """An argument violates a documented precondition."""


class ParseError(ValueError):
    """Malformed textual input (CLI-facing)."""


_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse 'A' or 'A/B' into an exact Fraction.  Decimal literals are rejected."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ParseError(f"not a rational literal (expected A or A/B): {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ParseError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def exact_rational(x, what: str) -> Fraction:
    """x as a Fraction; PreconditionError for a float, whose binary value
    (2.2 is 2476979795053773/1125899906842624) is not the rational meant."""
    if isinstance(x, float):
        raise PreconditionError(
            f"{what} must be an int, a Fraction or a string, not a float: {x!r}")
    return Fraction(x)


def integral(values, what: str) -> tuple:
    """values as a tuple of ints; PreconditionError unless each one is
    integral, so 2.5 is rejected rather than truncated to 2."""
    values = tuple(values)
    out = tuple(int(x) for x in values)
    if out != values:
        raise PreconditionError(f"{what} must be integers: {values}")
    return out


def check_int(x, what: str) -> None:
    """PreconditionError unless x is an int; a float such as 2.0 is rejected."""
    if not isinstance(x, int):
        raise PreconditionError(f"{what} must be an integer: {x!r}")


def check_level(l, what: str = "level") -> None:
    """PreconditionError unless the level (or weight) l is a nonnegative int."""
    check_int(l, what)
    if l < 0:
        raise PreconditionError(f"{what} must be nonnegative")


def frac_part(x: Fraction) -> Fraction:
    """Fractional part in [0, 1), i.e. x - floor(x), also for negative x."""
    return x - math.floor(x)


def rat_str(x) -> str:
    """Canonical text form of a rational: '3', '-2', '16/7'."""
    return str(Fraction(x))


def report_header(p0, chain=None) -> dict:
    """The fields that open every schema-v1 JSON report: the schema tag, p0,
    and the chain's species when the report is about a chain."""
    head = {"schema": "v1", "p0": rat_str(p0)}
    if chain is not None:
        head["chain"] = [{"two_s": s, "count": n} for s, n in chain.species]
    return head
