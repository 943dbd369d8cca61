from fractions import Fraction
from math import comb

import pytest

from dstgap.bounds import (
    RHO, THETA,
    DirectedBound,
    alpha_asymptotics,
    chernoff_lower,
    chernoff_upper,
    exp_bounds,
    frac_log,
    verify_ja_bound,
    verify_kb_bound,
)
from dstgap.families import containment_counts, default_j_sets, subset_objects

from _util import exp_bounds_reference, kv_sets, mask_set, overlap_count


# ---------------------------------------------------------------------------
# the counting layer against the inline oracle

def test_pmf_sums_to_one():
    # every overlap 0..c counted: all k = C(m, c) colors, and within a
    # B-set all d' = C(a+c, a) of its colors
    for m, a, c in ((64, 4, 4), (8, 4, 4), (10, 3, 7), (5, 1, 2)):
        counts = containment_counts(m, a, c, 0)
        assert overlap_count(m, a, c, 0, c) == counts.k == comb(m, c)
        assert overlap_count(a + c, a, c, 0, c) == counts.d_prime


def test_tail_closed_form_64():
    expected = 1 - Fraction(comb(60, 4), comb(64, 4)) \
        - 4 * Fraction(comb(60, 3), comb(64, 4))
    counts = containment_counts(64, 4, 4, 1)
    assert Fraction(counts.max_j, counts.k) == expected


def test_tail_17_70():
    counts = containment_counts(64, 4, 4, 1)
    assert Fraction(counts.max_r, counts.d_prime) == Fraction(17, 70)


def test_tail_above_threshold_ge_draws():
    # c > a: no color meets u in more than a elements, so at thresh >= a
    # every J_u is empty and every color of K_v is residual
    for m, a, c, thresh in ((10, 2, 3, 2), (10, 1, 3, 1), (10, 1, 3, 2)):
        counts = containment_counts(m, a, c, thresh)
        assert counts.max_j == 0
        assert counts.max_r == counts.d_prime == comb(a + c, a)


def test_j_set_sums_every_small_shape():
    # the sums' ratio recurrence against the inline binomials, on every
    # shape up to m = 12, c > a and thresh >= a among them
    for m in range(2, 13):
        for a in range(1, m):
            for c in range(1, m - a + 1):
                for thresh in range(c):
                    counts = containment_counts(m, a, c, thresh)
                    assert counts.max_j == overlap_count(m, a, c,
                                                         thresh + 1, c)
                    assert counts.max_r == overlap_count(a + c, a, c, 0,
                                                         thresh)


def test_tail_complement():
    for m, a, c in ((12, 5, 6), (8, 3, 2), (64, 4, 4)):
        for thresh in range(c):
            counts = containment_counts(m, a, c, thresh)
            assert counts.max_j + overlap_count(m, a, c, 0, thresh) \
                == counts.k
            assert counts.max_r \
                + overlap_count(a + c, a, c, thresh + 1, c) == counts.d_prime


def test_query_validation():
    # a < 1, c < 1, a + c > m, thresh < 0 and thresh >= c
    for shape in ((4, 0, 2, 0), (4, 2, 0, 0), (4, 3, 2, 0), (4, 2, 2, -1),
                  (4, 2, 2, 2), (8, 1, 3, 3)):
        with pytest.raises(ValueError, match="no containment family"):
            containment_counts(*shape)
        with pytest.raises(ValueError, match="no containment family"):
            containment_counts(*shape, cap=10)


# ---------------------------------------------------------------------------
# directed-rounded exponentials

def test_exp_bounds_enclose():
    one = exp_bounds(Fraction(0))
    assert one.lower <= 1 <= one.upper
    e1 = exp_bounds(Fraction(1))
    assert Fraction(27182, 10000) < e1.lower <= e1.upper < Fraction(27183, 10000)
    # reciprocal pairing: e^(-1) * e^(1) brackets 1
    em1 = exp_bounds(Fraction(-1))
    assert em1.lower * e1.lower <= 1 <= em1.upper * e1.upper


def test_exp_bounds_tightness():
    b = exp_bounds(Fraction(3, 7))
    assert b.upper - b.lower < Fraction(1, 10**30)
    assert b.decimal_str().startswith("1.53506")  # e^(3/7) = 1.535063...


@pytest.mark.parametrize("x", sorted({
    Fraction(0), Fraction(1), Fraction(-1), Fraction(3, 7), Fraction(230),
    *(Fraction(sign * m, 256) for m in (64, 128, 256, 512, 1024)
      for sign in (1, -1))}), ids=str)
def test_exp_bounds_meets_the_fraction_reference(x):
    # the scaled-integer enclosure and the exact Fraction sum overlap (both
    # hold e^x), and each is narrower than 10**-50 of its value
    b = exp_bounds(x)
    lower, upper = exp_bounds_reference(x)
    assert max(b.lower, lower) <= min(b.upper, upper)
    for lo, hi in ((b.lower, b.upper), (lower, upper)):
        assert 0 < lo <= hi
        assert hi - lo < lo / 10**50


def test_chernoff_plug_ins():
    lo = chernoff_lower(Fraction(4), Fraction(1, 2))
    ref = exp_bounds(Fraction(-1, 2))
    assert (lo.lower, lo.upper) == (ref.lower, ref.upper)
    # second-lemma instantiation: mu = rho*m/2, delta = 1/2 -> e^(-m/256)
    m = 64
    mu = RHO * m / 2
    lo = chernoff_lower(mu, Fraction(1, 2))
    ref = exp_bounds(-Fraction(m, 256))
    assert (lo.lower, lo.upper) == (ref.lower, ref.upper)


def test_chernoff_monotone_in_mu():
    delta = Fraction(1)
    assert chernoff_upper(Fraction(4), delta).upper \
        < chernoff_upper(Fraction(1), delta).lower


def test_chernoff_domains():
    with pytest.raises(ValueError):
        chernoff_upper(Fraction(1), Fraction(0))
    with pytest.raises(ValueError):
        chernoff_lower(Fraction(1), Fraction(1))
    with pytest.raises(ValueError):
        chernoff_lower(Fraction(1), Fraction(0))
    with pytest.raises(ValueError):
        chernoff_upper(Fraction(-1), Fraction(1))


def test_frac_log():
    assert frac_log(Fraction(1)) == 0
    with pytest.raises(ValueError):
        frac_log(Fraction(0))


# ---------------------------------------------------------------------------
# the two lemmas at paper constants

def test_counts_m64():
    counts = containment_counts(64, 4, 4, 1)
    assert (counts.max_j, counts.max_r) == (10861, 17)
    assert overlap_count(64, 4, 4, 2, 4) == 10861
    assert overlap_count(8, 4, 4, 0, 1) == 17


def test_regime_guard():
    for m in (65, 0, -64, 32):
        with pytest.raises(ValueError):
            verify_ja_bound(m)
        with pytest.raises(ValueError):
            verify_kb_bound(m)


def test_ja_bound_m64():
    rep = verify_ja_bound(64)
    assert rep.exact == Fraction(10861, comb(64, 4))
    assert rep.satisfied
    kd, _, ok = rep.extras["k_over_d"]
    assert ok and kd == Fraction(comb(64, 4), comb(60, 4))
    jad, _, ok = rep.extras["ja_over_d"]
    assert ok and jad == Fraction(10861, comb(60, 4))
    # the exponents derived from rho and theta, at the paper constants:
    # delta = 3, so the tail bound is e^(-9/5 mu) at mu = rho^2 m = 1/4,
    # k/d <= e^(8/7 mu) and |J_A|/d <= e^((8/7 - 9/5) mu) = e^(-23/35 mu)
    assert THETA == 4 * RHO * RHO == RHO / 4
    for bound, exponent in ((rep.chernoff, Fraction(-9, 20)),
                            (rep.extras["k_over_d"][1], Fraction(2, 7)),
                            (rep.extras["ja_over_d"][1], Fraction(-23, 140))):
        ref = exp_bounds(exponent)
        assert (bound.lower, bound.upper) == (ref.lower, ref.upper)


def test_kb_bound_m64():
    rep = verify_kb_bound(64)
    assert rep.exact == Fraction(17, 70)
    assert rep.satisfied


def test_sweep_small():
    for m in (64, 128):
        assert verify_ja_bound(m).satisfied
        assert verify_kb_bound(m).satisfied


def test_alpha_m64():
    (row,) = alpha_asymptotics([64])
    assert row.alpha == Fraction(70, 17)
    assert row.dp_over_kb == Fraction(70, 17)
    assert row.d_over_ja == Fraction(comb(60, 4), 10861)
    assert row.alpha == min(row.d_over_ja, row.dp_over_kb)
    assert row.log_alpha_over_m > 0


# ---------------------------------------------------------------------------
# symmetry cross-check against the materialized family

@pytest.mark.parametrize("m,a,thresh", [(6, 2, 0), (6, 2, 1), (8, 2, 1)])
def test_j_set_sizes_match_hypergeometric_counts(m, a, thresh):
    obj = subset_objects(m, a, thresh)
    j = tuple(map(mask_set, default_j_sets(obj)))
    counts = containment_counts(m, a, a, thresh)
    expected_j = overlap_count(m, a, a, thresh + 1, a)
    assert counts.max_j == expected_j
    assert all(len(js) == expected_j for js in j)
    kv = kv_sets(obj)
    expected_res = overlap_count(2 * a, a, a, 0, thresh)
    assert counts.max_r == expected_res
    assert all(len(kv[b] - j[u]) == expected_res
               for u, b, _ in obj.edges)
