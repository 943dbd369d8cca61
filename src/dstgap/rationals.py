"""Exact rational plumbing shared across the package.

All costs, flows, LP values and certified bounds are `fractions.Fraction`
values; nothing correctness-bearing ever touches a float.  Serialized form
is always "num/den".
"""

from fractions import Fraction


def parse_rational(text: str) -> Fraction:
    """Parse "num/den" (or a bare integer) into a Fraction.

    Raises ValueError on a zero denominator."""
    text = text.strip()
    if "/" in text:
        num, den = (int(x) for x in text.split("/", 1))
        if not den:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(num, den)
    return Fraction(int(text))


def render_rational(q: Fraction) -> str:
    """Canonical "num/den" form; Fraction keeps lowest terms and den > 0."""
    return f"{q.numerator}/{q.denominator}"
