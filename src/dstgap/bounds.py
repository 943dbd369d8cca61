"""Closed-form validation of the tail-bound machinery.

Everything here works on binomial coefficients, never on materialized
graphs, so the construction's actual regime (ground sets of size 64 and up)
is checkable exactly:

* exact hypergeometric tails with big-integer binomials;
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

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

comb = math.comb

RHO = Fraction(1, 16)
THETA = Fraction(1, 64)

DEFAULT_DIGITS = 50


# ---------------------------------------------------------------------------
# exact hypergeometric machinery

def hypergeom_count(population, successes, draws, threshold, direction):
    """Number of draw-subsets whose overlap is > / <= the threshold."""
    if not (0 <= successes <= population and 0 <= draws <= population):
        raise ValueError("need 0 <= successes, draws <= population")
    if direction == "above":
        js = range(max(threshold + 1, 0), draws + 1)
    elif direction == "at_most":
        js = range(0, min(threshold, draws) + 1)
    else:
        raise ValueError(f"direction must be 'above' or 'at_most': {direction}")
    return sum(
        comb(successes, j) * comb(population - successes, draws - j)
        for j in js
    )


# ---------------------------------------------------------------------------
# directed-rounded transcendental bounds

@dataclass(frozen=True)
class DirectedBound:
    """A certified rational enclosure lower <= value <= upper."""

    lower: Fraction
    upper: Fraction
    digits: int

    def decimal_str(self) -> str:
        with localcontext() as ctx:
            ctx.prec = self.digits
            return str(Decimal(self.upper.numerator)
                       / Decimal(self.upper.denominator))


def exp_bounds(x: Fraction, digits: int = DEFAULT_DIGITS) -> DirectedBound:
    """Certified enclosure of e^x by Taylor partial sums.

    For y >= 0 the partial sum is a lower bound and the tail is dominated
    by a geometric series once terms shrink; negative arguments go through
    e^(-y) = 1 / e^y with directed division.
    """
    if digits < 1:
        raise ValueError("digits must be positive")
    if x < 0:
        inner = exp_bounds(-x, digits)
        return DirectedBound(1 / inner.upper, 1 / inner.lower, digits)

    eps = Fraction(1, 10 ** (digits + 5))
    term = Fraction(1)
    total = Fraction(1)
    i = 1
    while True:
        term = term * x / i
        total += term
        i += 1
        # once x/i <= 1/2 the remaining tail is at most 2 * next term
        if i > 2 * x and term * x / i * 2 <= eps * total:
            break
    tail = term * x / i * 2
    return DirectedBound(total, total + tail, digits)


def chernoff_upper(mu: Fraction, delta: Fraction,
                   digits: int = DEFAULT_DIGITS) -> DirectedBound:
    """Upper-tail bound e^(-delta^2 mu / (2 + delta)), delta > 0."""
    if delta <= 0:
        raise ValueError("upper-tail bound needs delta > 0")
    if mu < 0:
        raise ValueError("mu must be non-negative")
    return exp_bounds(-(delta * delta * mu) / (2 + delta), digits)


def chernoff_lower(mu: Fraction, delta: Fraction,
                   digits: int = DEFAULT_DIGITS) -> DirectedBound:
    """Lower-tail bound e^(-delta^2 mu / 2), delta in (0, 1)."""
    if not 0 < delta < 1:
        raise ValueError("lower-tail bound needs delta in (0, 1)")
    if mu < 0:
        raise ValueError("mu must be non-negative")
    return exp_bounds(-(delta * delta * mu) / 2, digits)


def frac_log(q: Fraction, digits: int = 30) -> Decimal:
    """ln(q) for display; not correctness-bearing."""
    if q <= 0:
        raise ValueError("log of non-positive rational")
    with localcontext() as ctx:
        ctx.prec = digits
        return Decimal(q.numerator).ln() - Decimal(q.denominator).ln()


# ---------------------------------------------------------------------------
# the two family lemmas at the paper constants

def _require_regime(m: int) -> None:
    if m <= 0 or m % 64:
        raise ValueError(f"m must be a positive multiple of 64, got {m}")


def ja_count(m: int) -> int:
    """|J_A|: colors meeting a fixed rho*m-set in more than theta*m elements."""
    _require_regime(m)
    rm, tm = m // 16, m // 64
    return hypergeom_count(m, rm, rm, tm, "above")


def kb_residual_count(m: int) -> int:
    """|K_B \\ J_A| for A inside B: colors within B missing J_A."""
    _require_regime(m)
    rm, tm = m // 16, m // 64
    return hypergeom_count(2 * rm, rm, rm, tm, "at_most")


@dataclass(frozen=True)
class TailReport:
    m: int
    exact: Fraction            # the probability being bounded
    chernoff: DirectedBound    # the Appendix-style bound it must respect
    extras: dict               # named (exact, DirectedBound, ok) side conditions

    @property
    def satisfied(self) -> bool:
        return (self.exact <= self.chernoff.lower
                and all(ok for _, _, ok in self.extras.values()))


def verify_ja_bound(m: int, digits: int = DEFAULT_DIGITS) -> TailReport:
    """Exact |J_A|/d against e^(-23 rho^2 m / 35), with both intermediate
    inequalities: the tail against chernoff_upper at mean rho^2 m and
    delta = 3, e^(-9 rho^2 m / 5), and k/d against e^(8 rho^2 m / 7)."""
    _require_regime(m)
    rm = m // 16
    k = comb(m, rm)
    d = comb(m - rm, rm)
    ja = ja_count(m)

    tail = Fraction(ja, k)
    tail_bound = chernoff_upper(RHO * RHO * m, Fraction(3), digits)

    kd = Fraction(k, d)
    kd_bound = exp_bounds(Fraction(8, 7) * RHO * RHO * m, digits)

    jad = Fraction(ja, d)
    jad_bound = exp_bounds(-Fraction(23, 35) * RHO * RHO * m, digits)

    return TailReport(
        m=m,
        exact=tail,
        chernoff=tail_bound,
        extras={
            "k_over_d": (kd, kd_bound, kd <= kd_bound.lower),
            "ja_over_d": (jad, jad_bound, jad <= jad_bound.lower),
        },
    )


def verify_kb_bound(m: int, digits: int = DEFAULT_DIGITS) -> TailReport:
    """Exact |K_B \\ J_A| / d' against chernoff_lower at mean rho m / 2 and
    delta = 1/2, e^(-m/256)."""
    _require_regime(m)
    rm = m // 16
    dp = comb(2 * rm, rm)
    exact = Fraction(kb_residual_count(m), dp)
    bound = chernoff_lower(RHO * m / 2, Fraction(1, 2), digits)
    return TailReport(m=m, exact=exact, chernoff=bound, extras={})


@dataclass(frozen=True)
class AlphaRow:
    m: int
    alpha: Fraction
    d_over_ja: Fraction
    dp_over_kb: Fraction
    log_alpha_over_m: Decimal


def alpha_asymptotics(m_list, digits: int = DEFAULT_DIGITS):
    """Certified alpha per ground-set size, in closed form.

    By symmetry |J_A| is the same for every A and |K_B \\ J_A| the same for
    every incident pair, so alpha = min(d/|J_A|, d'/|K_B \\ J_A|).  Also
    reports log(alpha)/m.
    """
    rows = []
    for m in sorted(m_list):
        _require_regime(m)
        rm = m // 16
        d = comb(m - rm, rm)
        dp = comb(2 * rm, rm)
        ja = ja_count(m)
        kb = kb_residual_count(m)
        d_over_ja = Fraction(d, ja)
        dp_over_kb = Fraction(dp, kb)
        alpha = min(d_over_ja, dp_over_kb)
        rows.append(AlphaRow(
            m=m,
            alpha=alpha,
            d_over_ja=d_over_ja,
            dp_over_kb=dp_over_kb,
            log_alpha_over_m=frac_log(alpha) / m,
        ))
    return rows


def constant_identities():
    """The fixed-constant arithmetic identities behind the two lemmas."""
    mu_coeff = RHO * RHO           # E|C cap A| = rho^2 m in the first lemma
    return {
        "theta = 4 rho^2": (THETA, 4 * RHO * RHO),
        "theta = rho / 4": (THETA, RHO / 4),
        "upper exponent": (
            (THETA - mu_coeff) / (THETA + mu_coeff) * (THETA - mu_coeff),
            Fraction(9, 5) * RHO * RHO,
        ),
        "k/d exponent": (
            RHO * RHO / (1 - 2 * RHO),
            Fraction(8, 7) * RHO * RHO,
        ),
        "combined exponent": (
            Fraction(9, 5) - Fraction(8, 7),
            Fraction(23, 35),
        ),
        "lower-tail mean": (RHO / 2, 2 * THETA),
    }
