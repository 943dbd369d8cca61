"""Closed-form validation of the tail-bound machinery.

Everything here works on binomial coefficients, never on materialized
graphs, so the construction's actual regime (ground sets of size 64 and up)
is checkable exactly:

* the two Chernoff-style bounds for negatively correlated indicators,
  e^(-delta^2 mu / (2+delta)) above and e^(-delta^2 mu / 2) below;
* the per-vertex J-set and residual-color bounds of the subset-colored
  family at its fixed constants rho = 1/16, theta = 1/64;
* the growth of the certified alpha across a sweep of ground-set sizes.

Transcendental values are handled as exact rational enclosures (Taylor
series with a certified remainder), so every "satisfied" verdict compares
an exact rational against a certified *under*-estimate of the bound and is
therefore sound.
"""

from __future__ import annotations

import functools
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import NamedTuple

from .families import containment_counts

RHO = Fraction(1, 16)
THETA = Fraction(1, 64)

DIGITS = 50  # the precision of every enclosure and its decimal text
# binary places of exp_bounds' sums: 2**-240 < 10**-72, so rounding each
# of a few hundred terms stays far below the DIGITS + 5 digits of its tail
_BITS = 4 * (DIGITS + 10)


# ---------------------------------------------------------------------------
# directed-rounded transcendental bounds

class DirectedBound(NamedTuple):
    """A certified rational enclosure lower <= value <= upper."""

    lower: Fraction
    upper: Fraction

    def decimal_str(self) -> str:
        with localcontext() as ctx:
            ctx.prec = DIGITS
            return str(Decimal(self.upper.numerator)
                       / Decimal(self.upper.denominator))


def exp_bounds(x: Fraction) -> DirectedBound:
    """Certified enclosure of e^x by Taylor partial sums, in integers scaled
    by 2**_BITS: each term is rounded down for the lower sum and up for the
    upper sum.

    For y >= 0 the partial sum is a lower bound and the tail is dominated
    by a geometric series once terms shrink; negative arguments go through
    e^(-y) = 1 / e^y with directed division.
    """
    if x < 0:
        inner = exp_bounds(-x)
        return DirectedBound(1 / inner.upper, 1 / inner.lower)

    p, q = x.numerator, x.denominator
    eps = 10 ** (DIGITS + 5)  # the tail may be 1/eps of the sum
    one = 1 << _BITS
    low = high = one  # the current term, rounded down and up
    total_low = total_high = one
    i = 1
    while True:
        low = low * p // (q * i)
        high = -(-high * p // (q * i))
        total_low += low
        total_high += high
        i += 1
        # once x/i <= 1/2 the remaining tail is at most 2 * next term
        if i * q > 2 * p and high * p * 2 * eps <= total_low * q * i:
            break
    tail = -(-high * p * 2 // (q * i))
    return DirectedBound(Fraction(total_low, one),
                         Fraction(total_high + tail, one))


def chernoff_upper(mu: Fraction, delta: Fraction) -> DirectedBound:
    """Upper-tail bound e^(-delta^2 mu / (2 + delta)), delta > 0."""
    if delta <= 0:
        raise ValueError("upper-tail bound needs delta > 0")
    if mu < 0:
        raise ValueError("mu must be non-negative")
    return exp_bounds(-(delta * delta * mu) / (2 + delta))


def chernoff_lower(mu: Fraction, delta: Fraction) -> DirectedBound:
    """Lower-tail bound e^(-delta^2 mu / 2), delta in (0, 1)."""
    if not 0 < delta < 1:
        raise ValueError("lower-tail bound needs delta in (0, 1)")
    if mu < 0:
        raise ValueError("mu must be non-negative")
    return exp_bounds(-(delta * delta * mu) / 2)


def frac_log(q: Fraction) -> Decimal:
    """ln(q) to 30 digits, for display; not correctness-bearing."""
    if q <= 0:
        raise ValueError("log of non-positive rational")
    with localcontext() as ctx:
        ctx.prec = 30
        return Decimal(q.numerator).ln() - Decimal(q.denominator).ln()


# ---------------------------------------------------------------------------
# the two family lemmas at the paper constants

@functools.cache  # the three reports of one m share its J-set sums
def _regime(m: int):
    """families.containment_counts at a = c = rho m and thresh theta m, for
    an m that makes both positive integers: max_j is |J_A| and max_r is
    |K_B \\ J_A| for A inside B."""
    unit = math.lcm(RHO.denominator, THETA.denominator)
    if m <= 0 or m % unit:
        raise ValueError(f"m must be a positive multiple of {unit}, got {m}")
    return containment_counts(m, int(RHO * m), int(RHO * m), int(THETA * m))


class TailReport(NamedTuple):
    m: int
    exact: Fraction            # the probability being bounded
    chernoff: DirectedBound    # the Appendix-style bound it must respect
    extras: dict               # named (exact, DirectedBound, ok) side conditions

    @property
    def satisfied(self) -> bool:
        return (self.exact <= self.chernoff.lower
                and all(ok for _, _, ok in self.extras.values()))


def verify_ja_bound(m: int) -> TailReport:
    """Exact |J_A|/d against e^(mu/(1 - 2 rho) - delta^2 mu/(2 + delta)),
    with both intermediate inequalities: the tail against chernoff_upper
    at mean mu = rho^2 m and delta = theta/rho^2 - 1 (theta m = (1 + delta)
    mu), and k/d against e^(mu/(1 - 2 rho)).  At rho = 1/16 and theta =
    1/64 these are e^(-23 mu/35), delta = 3, e^(-9 mu/5) and e^(8 mu/7)."""
    counts = _regime(m)
    mu = RHO * RHO * m
    delta = THETA / (RHO * RHO) - 1

    tail = Fraction(counts.max_j, counts.k)
    tail_bound = chernoff_upper(mu, delta)

    kd = Fraction(counts.k, counts.d)
    kd_exponent = mu / (1 - 2 * RHO)
    kd_bound = exp_bounds(kd_exponent)

    jad = Fraction(counts.max_j, counts.d)
    jad_bound = exp_bounds(kd_exponent - delta * delta * mu / (2 + delta))

    return TailReport(
        m=m,
        exact=tail,
        chernoff=tail_bound,
        extras={
            "k_over_d": (kd, kd_bound, kd <= kd_bound.lower),
            "ja_over_d": (jad, jad_bound, jad <= jad_bound.lower),
        },
    )


def verify_kb_bound(m: int) -> TailReport:
    """Exact |K_B \\ J_A| / d' against chernoff_lower at mean rho m / 2 and
    delta = 1/2, e^(-m/256)."""
    counts = _regime(m)
    exact = Fraction(counts.max_r, counts.d_prime)
    bound = chernoff_lower(RHO * m / 2, Fraction(1, 2))
    return TailReport(m=m, exact=exact, chernoff=bound, extras={})


class AlphaRow(NamedTuple):
    m: int
    alpha: Fraction
    d_over_ja: Fraction
    dp_over_kb: Fraction
    log_alpha_over_m: Decimal


def alpha_asymptotics(m_list):
    """Certified alpha per ground-set size, in closed form.

    By symmetry |J_A| is the same for every A and |K_B \\ J_A| the same for
    every incident pair, so alpha = min(d/|J_A|, d'/|K_B \\ J_A|).  Also
    reports log(alpha)/m.
    """
    rows = []
    for m in sorted(m_list):
        counts = _regime(m)
        d_over_ja = Fraction(counts.d, counts.max_j)
        dp_over_kb = Fraction(counts.d_prime, counts.max_r)
        alpha = min(d_over_ja, dp_over_kb)
        rows.append(AlphaRow(
            m=m,
            alpha=alpha,
            d_over_ja=d_over_ja,
            dp_over_kb=dp_over_kb,
            log_alpha_over_m=frac_log(alpha) / m,
        ))
    return rows

