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


def integral(values, what: str) -> tuple:
    """values as a tuple of ints; PreconditionError unless each one is
    integral, so 2.5 is rejected rather than truncated to 2."""
    values = tuple(values)
    out = tuple(int(x) for x in values)
    if out != values:
        raise PreconditionError(f"{what} must be integers: {values}")
    return out


def check_level(l) -> None:
    """PreconditionError unless the level l is a nonnegative int."""
    if not isinstance(l, int):
        raise PreconditionError(f"level must be an integer: {l!r}")
    if l < 0:
        raise PreconditionError("level must be nonnegative")


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
