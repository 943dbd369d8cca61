"""Independent checks on dstgap outputs.

Every expected value here is computed by the benchmark itself, from
binomial coefficients and from the instance files as written, never by
calling dstgap and never by comparing with saved program output.  Each
check raises `CheckFailed` with a one-line reason.

Closed forms used (r = sqrt(k) for zk; a, m for subset):

* zk:     |A| = C(k, r), |B| = C(k, r+1), d = k - r, d' = r + 1
* subset: |A| = k = C(m, a), |B| = C(m, 2a), d = s = C(m-a, a), d' = C(2a, a)
* s = d|A|/k, and the canonical flow to every terminal is exactly 1
* LP = |B|/|A| + |B|/s, certificate alpha = min(d/|J|, d'/|R|)
"""

from __future__ import annotations

import ast
import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction

comb = math.comb


class CheckFailed(Exception):
    """An output disagrees with its independently computed value."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# family closed forms

def family_sizes(family: str, params: dict) -> dict:
    """|A|, |B|, k, d, d', s of a family instance, from binomials."""
    if family == "zk":
        k = params["k"]
        r = math.isqrt(k)
        num_a, num_b, d, dp = comb(k, r), comb(k, r + 1), k - r, r + 1
    elif family == "subset":
        m, a = params["m"], params["a"]
        k = num_a = comb(m, a)
        num_b, d, dp = comb(m, 2 * a), comb(m - a, a), comb(2 * a, a)
    else:
        raise ValueError(f"unknown family {family!r}")
    s, rem = divmod(d * num_a, k)
    if rem:
        raise ValueError("family parameters break sk = d|A|")
    return {"num_a": num_a, "num_b": num_b, "k": k, "d": d,
            "d_prime": dp, "s": s}


def certificate_counts(family: str, params: dict, thresh=None):
    """(|J_u|, |K_v minus J_u|) of the default J-sets, the same for every
    incident pair u in v by symmetry."""
    if family == "zk":
        # J_u = the elements of u; K_v \ J_u = v \ u, one element
        return math.isqrt(params["k"]), 1
    m, a = params["m"], params["a"]
    t = params["thresh"] if thresh is None else thresh
    # colors C (a-subsets of [m]) meeting u in i elements: C(a,i) C(m-a,a-i);
    # colors inside v = u + (a other elements) meeting u in i: C(a,i) C(a,a-i)
    j = sum(comb(a, i) * comb(m - a, a - i) for i in range(t + 1, a + 1))
    res = sum(comb(a, i) * comb(a, a - i) for i in range(t + 1))
    return j, res


def certificate_alpha(sizes: dict, j: int, res: int) -> Fraction:
    """Largest alpha with j <= d/alpha and res <= d'/alpha; zero counts
    impose no constraint."""
    terms = []
    if j:
        terms.append(Fraction(sizes["d"], j))
    if res:
        terms.append(Fraction(sizes["d_prime"], res))
    return min(terms)


def lp_value(sizes: dict) -> Fraction:
    """The flow LP optimum |B|/|A| + |B|/s of a family instance."""
    return (Fraction(sizes["num_b"], sizes["num_a"])
            + Fraction(sizes["num_b"], sizes["s"]))


# ---------------------------------------------------------------------------
# instance files

@dataclass(frozen=True)
class InstanceFacts:
    """What the benchmark derives from one instance file."""

    sha256: str
    family: str
    params: dict
    sizes: dict
    terminals: frozenset
    root_cost: dict      # A label -> cost of r -> u
    copy_cost: dict      # B label -> cost of v -> v'
    h_in: dict           # B label -> set of A labels with an edge u -> v
    colors_at: dict      # B label -> set of terminals reached from v'
    flows: dict          # terminal -> max-flow under x = 1/s


def check_instance(data: dict, raw: bytes, family: str,
                   params: dict) -> InstanceFacts:
    """Check a parsed instance file against the family's closed forms and
    derive every terminal's canonical flow.

    The flow to t is pinned from both sides: the colour-t matching edges
    give edge-disjoint paths r -> u -> v -> v' -> t of capacity 1/s each
    (lower bound), and the in-edges of t form a cut (upper bound).
    """
    sz = family_sizes(family, params)
    na, nb, k, s = sz["num_a"], sz["num_b"], sz["k"], sz["s"]
    meta = data["meta"]
    require(meta["family"] == family and meta["params"] == params,
            f"meta names {meta['family']} {meta['params']}, "
            f"expected {family} {params}")
    for key in ("d", "d_prime", "s", "k"):
        require(meta[key] == sz[key],
                f"meta {key} = {meta[key]}, expected {sz[key]}")

    levels = data["levels"]
    require([len(lv) for lv in levels] == [1, na, nb, nb, k],
            f"level sizes {[len(lv) for lv in levels]}, "
            f"expected {[1, na, nb, nb, k]}")
    require(levels[0] == ["r"], "level 0 is not the root 'r'")
    require(levels[3] == [v + "'" for v in levels[2]],
            "level 3 is not the primed copy of level 2")
    a_set, b_set, terms = set(levels[1]), set(levels[2]), set(levels[4])
    require(len(a_set) == na and len(b_set) == nb and len(terms) == k,
            "duplicate vertex labels")

    root_cost, copy_cost = {}, {}
    h_in = {v: set() for v in b_set}
    colors_at = {v: set() for v in b_set}
    by_color = {t: [] for t in terms}
    h_pairs = set()
    zero_cost = []
    for e in data["edges"]:
        tail, head, cost = e["tail"], e["head"], Fraction(e["cost"])
        if tail == "r":
            require(head in a_set and head not in root_cost,
                    f"bad root edge to {head}")
            root_cost[head] = cost
        elif head.endswith("'"):
            require(tail in b_set and head == tail + "'"
                    and tail not in copy_cost, f"bad copy edge {tail}->{head}")
            copy_cost[tail] = cost
        elif tail.endswith("'"):
            v = tail[:-1]
            require(v in b_set and head in terms and head not in colors_at[v],
                    f"bad terminal edge {tail}->{head}")
            colors_at[v].add(head)
            zero_cost.append(cost)
        else:
            color = e.get("color")
            require(tail in a_set and head in b_set and color in terms
                    and (tail, head) not in h_pairs, f"bad H edge {tail}->{head}")
            h_pairs.add((tail, head))
            h_in[head].add(tail)
            by_color[color].append((tail, head))
            zero_cost.append(cost)

    e4 = sum(len(x) for x in colors_at.values())
    counts = [len(root_cost), len(h_pairs), len(copy_cost), e4]
    expected = [na, na * sz["d"], nb, nb * sz["d_prime"]]
    require(counts == expected,
            f"edge class counts {counts}, expected {expected}")
    require(all(c == Fraction(nb, na) for c in root_cost.values()),
            f"a root edge does not cost |B|/|A| = {Fraction(nb, na)}")
    require(all(c == 1 for c in copy_cost.values()), "a copy edge does not cost 1")
    require(all(c == 0 for c in zero_cost), "an H or terminal edge has a cost")

    indeg = {t: 0 for t in terms}
    for ts in colors_at.values():
        for t in ts:
            indeg[t] += 1
    flows = {}
    for t, pairs in by_color.items():
        us = {u for u, _ in pairs}
        vs = {v for _, v in pairs}
        require(len(us) == len(vs) == len(pairs),
                f"colour {t} is not a matching")
        paths = sum(1 for u, v in pairs if u in root_cost
                    and v in copy_cost and t in colors_at[v])
        require(paths == indeg[t],
                f"flow to {t} not pinned: {paths} disjoint paths, "
                f"in-degree {indeg[t]}")
        flows[t] = Fraction(paths, s)
    return InstanceFacts(sha256_bytes(raw), family, dict(params), sz,
                         frozenset(terms), root_cost, copy_cost, h_in,
                         colors_at, flows)


def parse_gen_stdout(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition("  ")
        out[key.strip()] = value.strip()
    return out


def check_gen(stdout: str, facts: InstanceFacts) -> None:
    """The `gen` summary table against the closed forms and the file."""
    sz = facts.sizes
    na, nb, k = sz["num_a"], sz["num_b"], sz["k"]
    table = parse_gen_stdout(stdout)
    require(table.get("sha256") == facts.sha256,
            f"printed sha256 {table.get('sha256')} is not the file's "
            f"{facts.sha256}")
    require(int(table["n"]) == 1 + na + 2 * nb + k, f"n = {table['n']}")
    require(ast.literal_eval(table["levels"]) == [1, na, nb, nb, k],
            f"levels = {table['levels']}")
    require(ast.literal_eval(table["edges"])
            == {1: na, 2: na * sz["d"], 3: nb, 4: nb * sz["d_prime"]},
            f"edges = {table['edges']}")
    params = table["d, d', s, k"]
    require(params.split() == [str(sz[x]) for x in ("d", "d_prime", "s", "k")],
            f"d, d', s, k = {params}")
    require(Fraction(table["total cost"]) == 2 * nb,
            f"total cost {table['total cost']}, expected {2 * nb}")
    require(all(f == 1 for f in facts.flows.values()),
            "some terminal's canonical flow is not exactly 1")


# ---------------------------------------------------------------------------
# verify and certify reports

def check_header(report: dict, facts: InstanceFacts) -> None:
    got = report["header"].get("instance_sha256")
    require(got == facts.sha256,
            f"report hashes instance as {got}, file is {facts.sha256}")


def check_verify(report: dict, stdout: str, facts: InstanceFacts) -> None:
    check_header(report, facts)
    rows = report["terminals"]
    labels = [r["terminal"] for r in rows]
    require(len(labels) == len(facts.terminals)
            and set(labels) == facts.terminals,
            "verify report does not list every terminal once")
    for r in rows:
        flow = Fraction(r["flow"])
        require(flow == facts.flows[r["terminal"]] == 1 and r["ok"],
                f"terminal {r['terminal']}: flow {r['flow']}, expected 1")
    require(report["feasible"] and report["all_flows_unit"]
            and report["path_witnesses_ok"] and not report["failing_cuts"],
            "verify report is not a clean pass")
    require(stdout.rstrip().endswith("verified: feasible, all flows exactly 1"),
            "verify did not print its success line")


def expected_certificate(facts: InstanceFacts, sweep: bool):
    """(alpha, thresh, |J|, |R|) the certify command must report."""
    fam, params, sz = facts.family, facts.params, facts.sizes
    if not sweep:
        j, res = certificate_counts(fam, params)
        return certificate_alpha(sz, j, res), params.get("thresh"), j, res
    best = None
    for t in range(params["a"]):
        j, res = certificate_counts(fam, params, t)
        alpha = certificate_alpha(sz, j, res)
        if best is None or alpha > best[0]:
            best = (alpha, t, j, res)
    return best


def check_certificate(cert: dict, facts: InstanceFacts, sweep: bool) -> None:
    """`solve` embeds the certificate without its thresh; `certify` has it."""
    alpha, thresh, j, res = expected_certificate(facts, sweep)
    sz = facts.sizes
    require(Fraction(cert["alpha"]) == alpha,
            f"alpha {cert['alpha']}, expected {alpha}")
    require(cert.get("thresh", thresh) == thresh,
            f"thresh {cert.get('thresh')}, expected {thresh}")
    bound = alpha * sz["num_b"] / sz["s"]
    require(Fraction(cert["opt_lower_bound"]) == bound,
            f"OPT lower bound {cert['opt_lower_bound']}, expected {bound}")
    require(Fraction(cert["gap_lower_bound"]) == alpha / 2,
            f"gap lower bound {cert['gap_lower_bound']}, expected {alpha / 2}")
    per_u = cert["per_u"]
    require(len(per_u) == sz["num_a"]
            and all(p["j_size"] == j and p["max_residual"] == res
                    for p in per_u),
            f"per-u rows differ from |J| = {j}, |R| = {res}")


def check_certify(report: dict, facts: InstanceFacts, sweep: bool) -> None:
    check_header(report, facts)
    if facts.family == "subset":
        require("thresh" in report, "subset certificate names no thresh")
    check_certificate(report, facts, sweep)


# ---------------------------------------------------------------------------
# solve and bounds

def solution_cost(facts: InstanceFacts, opened_a, opened_b) -> Fraction:
    """Cost of a structured solution from the file's edge costs, after
    checking that it reaches every terminal."""
    a_open, b_open = set(opened_a), set(opened_b)
    require(len(a_open) == len(opened_a) and len(b_open) == len(opened_b),
            "a vertex is opened twice")
    require(a_open <= set(facts.root_cost) and b_open <= set(facts.copy_cost),
            "an opened vertex is not in the instance")
    for v in b_open:
        require(facts.h_in[v] & a_open, f"opened {v} has no opened A-parent")
    covered = set().union(*(facts.colors_at[v] for v in b_open))
    require(covered == facts.terminals,
            f"{len(facts.terminals - covered)} terminals are not reached")
    return (sum((facts.root_cost[u] for u in a_open), Fraction(0))
            + sum((facts.copy_cost[v] for v in b_open), Fraction(0)))


def check_solve(report: dict, facts: InstanceFacts, methods, opt: Fraction) -> None:
    """`opt` is the hand-derived optimum written down in README.md."""
    check_header(report, facts)
    for method in methods:
        res = report[method]
        value = Fraction(res["value"])
        require(value == opt, f"{method} OPT {res['value']}, expected {opt}")
        if method == "structured":
            require(res["optimal"] and Fraction(res["lower_bound"]) == opt,
                    "structured OPT is not proven optimal")
        else:
            require(res["feasible"], "brute force reports infeasible")
        cost = solution_cost(facts, res["opened_a"], res["opened_b"])
        require(cost == value,
                f"{method} solution costs {cost}, reported {res['value']}")
    if "lp" in report:
        lp = Fraction(report["lp"]["value"])
        expected = lp_value(facts.sizes)
        require(lp == expected, f"LP {lp}, expected {expected}")
        require(report["lp"]["duality_certified"], "LP duality not certified")
        require(lp <= opt, f"LP {lp} above OPT {opt}")
    check_certificate(report["certificate"], facts, sweep=False)
    require(Fraction(report["certificate"]["opt_lower_bound"]) <= opt,
            "certified OPT lower bound exceeds OPT")


def tail_counts(m: int):
    """(|J_A|, C(m, m/16), |K_B minus J_A|, C(2m/16, m/16), d) at rho = 1/16,
    theta = 1/64."""
    rm, tm = m // 16, m // 64
    ja = sum(comb(rm, j) * comb(m - rm, rm - j) for j in range(tm + 1, rm + 1))
    kb = sum(comb(rm, j) * comb(rm, rm - j) for j in range(tm + 1))
    return ja, comb(m, rm), kb, comb(2 * rm, rm), comb(m - rm, rm)


def check_bounds(report: dict, m_list) -> None:
    rows = report["rows"]
    require([r["m"] for r in rows] == sorted(m_list),
            f"bounds rows for m = {[r['m'] for r in rows]}")
    for r in rows:
        m = r["m"]
        ja, k, kb, dp, d = tail_counts(m)
        require(r["satisfied"], f"bounds row m={m} not satisfied")
        require(Fraction(r["exact_tail_ja"]) == Fraction(ja, k),
                f"m={m}: exact |J_A| tail {r['exact_tail_ja']}")
        require(Fraction(r["exact_tail_kb"]) == Fraction(kb, dp),
                f"m={m}: exact |K_B \\ J_A| tail {r['exact_tail_kb']}")
        require(Fraction(r["alpha"]) == min(Fraction(d, ja), Fraction(dp, kb)),
                f"m={m}: alpha {r['alpha']}")
        # the lemmas' exponential bounds, with rho^2 m = m/256; the closest
        # (k/d at m = 64) is 2% below its bound, far beyond float rounding
        mu = m / 256
        require(ja / k <= math.exp(-9 / 5 * mu)
                and ja / d <= math.exp(-23 / 35 * mu)
                and k / d <= math.exp(8 / 7 * mu)
                and kb / dp <= math.exp(-mu),
                f"m={m}: a tail exceeds its exponential bound")
