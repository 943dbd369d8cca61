"""Acceptance suite: one printed pass/fail line per criterion.

Every comparison on the exact side is rational equality / inequality with
zero tolerance; transcendental bounds enter only through certified rational
enclosures, compared against their lower endpoints.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt

from dstgap.bounds import (
    alpha_asymptotics,
    chernoff_lower,
    chernoff_upper,
    hypergeom_count,
    verify_ja_bound,
    verify_kb_bound,
)
from dstgap.families import SubsetFamilyParams, default_j_sets, subset_objects, zk_objects
from dstgap.flows import canonical_solution, solution_cost, verify_feasibility
from dstgap.integral import brute_force_opt, certify_gap, solve_structured
from dstgap.lp import solve_lp_exact
from dstgap.model import build_instance, validate_objects

SWEEP = (64, 128, 256, 512, 1024)


def _report(num, name, checks, elapsed=None, limit=None):
    bad = [label for label, ok in checks if not ok]
    if limit is not None and not elapsed < limit:
        bad.append(f"runtime {elapsed:.2f}s exceeds {limit:.0f}s limit")
    status = "PASS" if not bad else "FAIL"
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"[acceptance] criterion {num} ({name}): {status}{timing}")
    assert not bad, f"criterion {num} failed: {bad}"


@lru_cache(maxsize=None)
def _subset_instance(m):
    return build_instance(subset_objects(SubsetFamilyParams(m, 2, 0)))


@lru_cache(maxsize=None)
def _brute_value(key):
    if key == "zk4":
        inst = build_instance(zk_objects(4))
    else:
        inst = _subset_instance(key)
    res = brute_force_opt(inst)
    assert res.feasible
    return res.value


def test_criterion_1_zk_family_reproduction():
    start = time.perf_counter()
    checks = []
    for k in (4, 9, 16):
        rk = isqrt(k)
        obj = zk_objects(k)
        checks.append((f"k={k} validation", validate_objects(obj) is None))
        checks.append((f"k={k} degrees",
                       obj.d == k - rk and obj.d_prime == rk + 1))
        inst = build_instance(obj)
        sol = canonical_solution(inst)
        rep = verify_feasibility(inst, sol)
        checks.append((f"k={k} all max-flows exactly 1",
                       rep.feasible and all(e.value == 1 for e in rep.entries)))
        checks.append((f"k={k} LP cost 2|B|/s",
                       solution_cost(inst, sol) == Fraction(2 * obj.num_b, obj.s)))
        cert = certify_gap(obj, default_j_sets(obj))
        checks.append((f"k={k} alpha = sqrt(k)-1", cert.alpha == rk - 1))
    _report(1, "ZK family reproduction", checks,
            elapsed=time.perf_counter() - start, limit=10.0)


def test_criterion_2_exact_optimum_cross_check():
    start = time.perf_counter()
    checks = []

    zk4 = build_instance(zk_objects(4))
    st = solve_structured(zk4)
    bf = brute_force_opt(zk4)
    checks.append(("zk4 solvers agree at 8/3",
                   st.optimal and bf.feasible
                   and st.value == bf.value == Fraction(8, 3)))
    cert = certify_gap(zk4.provenance, default_j_sets(zk4.provenance))
    checks.append(("zk4 8/3 >= alpha|B|/s = 4/3",
                   cert.opt_lower_bound == Fraction(4, 3)
                   and bf.value >= cert.opt_lower_bound))

    for m in (4, 5, 6):
        inst = _subset_instance(m)
        st = solve_structured(inst)
        checks.append((f"subset m={m} agreement",
                       st.optimal and st.value == _brute_value(m)))
    _report(2, "exact optimum cross-check", checks,
            elapsed=time.perf_counter() - start, limit=60.0)


def test_criterion_3_certificate_soundness_suite():
    rng = random.Random(20260823)
    checks = []

    obj = zk_objects(4)
    cert = certify_gap(obj, default_j_sets(obj))
    checks.append(("zk4 default J-sets",
                   _brute_value("zk4") >= cert.opt_lower_bound))

    while len(checks) < 20:
        m = rng.choice((4, 5, 6))
        thresh = rng.randrange(2)  # a = 2 throughout, so thresh < 2
        inst = _subset_instance(m)
        cert = certify_gap(inst.provenance,
                           default_j_sets(inst.provenance, thresh=thresh))
        checks.append((f"subset m={m} thresh={thresh}",
                       _brute_value(m) >= cert.opt_lower_bound))

    assert len(checks) >= 20
    _report(3, "certificate soundness over 20 instances", checks)


def test_criterion_4_lp_sandwich():
    from _util import toy_instance

    checks = []
    cases = [
        ("toy", toy_instance(), Fraction(2)),
        ("subset m=4", _subset_instance(4), _brute_value(4)),
        ("zk4", build_instance(zk_objects(4)), _brute_value("zk4")),
    ]
    for name, inst, opt in cases:
        res = solve_lp_exact(inst)
        obj = inst.provenance
        checks.append((f"{name} duality certificate", res.certified))
        checks.append((f"{name} lp <= integral opt", res.optimal_value <= opt))
        checks.append((f"{name} lp <= 2|B|/s",
                       res.optimal_value <= Fraction(2 * obj.num_b, obj.s)))
    _report(4, "LP sandwich with duality certificates", checks)


def test_criterion_5_lemma_inequalities_at_paper_constants():
    start = time.perf_counter()
    checks = []
    for m in SWEEP:
        ja = verify_ja_bound(m)
        kb = verify_kb_bound(m)
        checks.append((f"m={m} tail <= exp(-9rho^2 m/5)",
                       ja.exact <= ja.chernoff.lower))
        checks.append((f"m={m} k/d <= exp(8rho^2 m/7)",
                       ja.extras["k_over_d"][2]))
        checks.append((f"m={m} |J_A|/d <= exp(-23rho^2 m/35)",
                       ja.extras["ja_over_d"][2]))
        checks.append((f"m={m} |K_B\\J_A|/d' <= exp(-m/256)",
                       kb.exact <= kb.chernoff.lower))
    kb64 = verify_kb_bound(64)
    ja64 = verify_ja_bound(64)
    checks.append(("m=64 |K_B\\J_A|/d' = 17/70 exactly",
                   kb64.exact == Fraction(17, 70)))
    checks.append(("m=64 k/d = C(64,4)/C(60,4) exactly",
                   ja64.extras["k_over_d"][0]
                   == Fraction(comb(64, 4), comb(60, 4))))
    _report(5, "section-3 lemma inequalities at paper constants", checks,
            elapsed=time.perf_counter() - start, limit=10.0)


def test_criterion_6_alpha_growth():
    rows = alpha_asymptotics(SWEEP)
    checks = [("alpha(64) > 1", rows[0].alpha > 1)]
    for prev, cur in zip(rows, rows[1:]):
        checks.append((f"alpha({cur.m}) > alpha({prev.m})",
                       cur.alpha > prev.alpha))
    _report(6, "certified alpha growth", checks)


def test_criterion_7_density_identity():
    checks = []
    for k in (4, 9, 16):
        rk = isqrt(k)
        d, dp, alpha = k - rk, rk + 1, Fraction(rk - 1)
        ok = all(
            (Fraction(d) / alpha + Fraction(dp) / alpha * j)
            / (Fraction(d, dp) + j) == Fraction(dp) / alpha
            for j in range(d + 1)
        )
        checks.append((f"k={k} identity for all j in 0..d", ok))
    _report(7, "density identity", checks)


def test_criterion_8_hypergeometric_oracle():
    checks = []
    for m in SWEEP:
        rm, tm = m // 16, m // 64
        # the pmf sums to 1: every overlap 0..rho m counts all draw-subsets
        checks.append((f"m={m} pmf(m, rho m, rho m) sums to 1",
                       hypergeom_count(m, rm, rm, rm, "at_most")
                       == comb(m, rm)))
        checks.append((f"m={m} pmf(2rho m, rho m, rho m) sums to 1",
                       hypergeom_count(2 * rm, rm, rm, rm, "at_most")
                       == comb(2 * rm, rm)))
        # first-lemma Chernoff instantiation: mu = rho^2 m, delta = 3
        mu = Fraction(rm * rm, m)
        upper = chernoff_upper(mu, Fraction(3))
        tail = Fraction(hypergeom_count(m, rm, rm, tm, "above"),
                        comb(m, rm))
        checks.append((f"m={m} upper tail <= Chernoff", tail <= upper.lower))
        # second-lemma instantiation: mu = rho m / 2, delta = 1/2
        lower = chernoff_lower(Fraction(rm, 2), Fraction(1, 2))
        tail = Fraction(hypergeom_count(2 * rm, rm, rm, tm, "at_most"),
                        comb(2 * rm, rm))
        checks.append((f"m={m} lower tail <= Chernoff", tail <= lower.lower))
    _report(8, "hypergeometric oracle vs Chernoff bounds", checks)
