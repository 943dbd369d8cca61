"""Each checker accepts dstgap's real output and rejects a deliberately
wrong one.  Run from the repository root:

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from dstgap import cli  # noqa: E402

ZK4 = workloads.ZK4
M4 = workloads.M4
M10A3 = workloads.M10A3


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Run every command the checks need once; return a Context and the
    captured stdout of each command."""
    workdir = tmp_path_factory.mktemp("out")
    ctx = workloads.Context(workdir)
    commands = [ZK4, M4, M10A3, workloads.Verify(ZK4.out),
                workloads.Certify(M10A3.out, sweep=True),
                workloads.Solve(ZK4.out, "all", Fraction(8, 3)),
                workloads.Bounds((64, 128))]
    stdout = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for cmd in commands:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert cli.main(list(cmd.argv)) == 0
            stdout[cmd.argv[0] + ":" + cmd.argv[1]] = buf.getvalue()
            cmd.check(ctx, buf.getvalue())  # the real output passes
    finally:
        os.chdir(cwd)
    return ctx, stdout


def load(ctx, name):
    return json.loads((ctx.workdir / name).read_text())


def test_closed_forms():
    zk16 = checks.family_sizes("zk", {"k": 16})
    assert (zk16["num_a"], zk16["num_b"], zk16["s"]) == (1820, 4368, 1365)
    j, res = checks.certificate_counts("zk", {"k": 16})
    alpha = checks.certificate_alpha(zk16, j, res)
    assert alpha == 3
    assert alpha * zk16["num_b"] / zk16["s"] == Fraction(48, 5)

    m10 = {"a": 3, "m": 10, "thresh": 1}
    facts = checks.InstanceFacts("", "subset", m10,
                                 checks.family_sizes("subset", m10),
                                 frozenset(), {}, {}, {}, {}, {})
    alpha, thresh, j, res = checks.expected_certificate(facts, sweep=True)
    assert (alpha, thresh, j, res) == (Fraction(35, 22), 1, 22, 10)

    assert checks.lp_value(checks.family_sizes("zk", {"k": 4})) == 2
    assert checks.lp_value(checks.family_sizes("subset", M4.params)) == \
        Fraction(7, 6)
    ja, k, kb, dp, _ = checks.tail_counts(64)
    assert Fraction(kb, dp) == Fraction(17, 70)


def test_instance_with_deleted_e3_edge(outputs):
    ctx, _ = outputs
    data = load(ctx, ZK4.out)
    e3 = next(i for i, e in enumerate(data["edges"]) if e["head"].endswith("'"))
    del data["edges"][e3]
    raw = json.dumps(data).encode()
    with pytest.raises(CheckFailed, match="edge class counts"):
        checks.check_instance(data, raw, "zk", ZK4.params)


def test_instance_with_costed_h_edge(outputs):
    ctx, _ = outputs
    data = load(ctx, M4.out)
    next(e for e in data["edges"] if "color" in e)["cost"] = "1/7"
    with pytest.raises(CheckFailed, match="has a cost"):
        checks.check_instance(data, b"", "subset", M4.params)


def test_instance_with_wrong_meta(outputs):
    ctx, _ = outputs
    data = load(ctx, ZK4.out)
    data["meta"]["s"] = 2
    with pytest.raises(CheckFailed, match="meta s"):
        checks.check_instance(data, b"", "zk", ZK4.params)


def test_gen_with_wrong_sha(outputs):
    ctx, stdout = outputs
    text = stdout["gen:--family=zk"].replace("sha256           ",
                                             "sha256           0")
    with pytest.raises(CheckFailed, match="sha256"):
        checks.check_gen(text, ctx.instance(ZK4.out))


def test_verify_with_one_low_flow(outputs):
    ctx, stdout = outputs
    report = load(ctx, ZK4.out + ".verify")
    report["terminals"][2]["flow"] = "2/3"
    with pytest.raises(CheckFailed, match="terminal 3: flow 2/3"):
        checks.check_verify(report, stdout["verify:" + ZK4.out],
                            ctx.instance(ZK4.out))


def test_verify_missing_terminal(outputs):
    ctx, stdout = outputs
    report = load(ctx, ZK4.out + ".verify")
    del report["terminals"][0]
    with pytest.raises(CheckFailed, match="every terminal"):
        checks.check_verify(report, stdout["verify:" + ZK4.out],
                            ctx.instance(ZK4.out))


def test_certify_with_wrong_alpha(outputs):
    ctx, _ = outputs
    report = load(ctx, M10A3.out + ".certify")
    report["alpha"] = "20/19"  # the thresh = 2 value, not the best
    with pytest.raises(CheckFailed, match="alpha"):
        checks.check_certify(report, ctx.instance(M10A3.out), sweep=True)


def test_report_for_another_instance(outputs):
    ctx, _ = outputs
    report = load(ctx, M10A3.out + ".certify")
    report["header"]["instance_sha256"] = ctx.instance(ZK4.out).sha256
    with pytest.raises(CheckFailed, match="hashes instance"):
        checks.check_certify(report, ctx.instance(M10A3.out), sweep=True)


def test_solve_with_opt_off_by_a_fifth(outputs):
    ctx, _ = outputs
    good = load(ctx, ZK4.out + ".solve")
    bad = copy.deepcopy(good)
    bad["structured"]["value"] = str(Fraction(8, 3) - Fraction(1, 5))
    with pytest.raises(CheckFailed, match="structured OPT"):
        checks.check_solve(bad, ctx.instance(ZK4.out), ["structured"],
                           Fraction(8, 3))


def test_solve_with_infeasible_solution(outputs):
    ctx, _ = outputs
    bad = load(ctx, ZK4.out + ".solve")
    bad["brute"]["opened_b"] = bad["brute"]["opened_b"][:1]
    with pytest.raises(CheckFailed, match="terminals are not reached"):
        checks.check_solve(bad, ctx.instance(ZK4.out), ["brute"],
                           Fraction(8, 3))


def test_solve_with_wrong_lp(outputs):
    ctx, _ = outputs
    bad = load(ctx, ZK4.out + ".solve")
    bad["lp"]["value"] = "8/3"  # the canonical cost, not the LP optimum
    with pytest.raises(CheckFailed, match="LP 8/3, expected 2"):
        checks.check_solve(bad, ctx.instance(ZK4.out), [], Fraction(8, 3))


def test_bounds_with_wrong_tail(outputs):
    ctx, _ = outputs
    report = load(ctx, "bounds.json")
    report["rows"][0]["exact_tail_kb"] = "18/70"
    with pytest.raises(CheckFailed, match="m=64"):
        checks.check_bounds(report, (64, 128))


def test_bounds_with_unsatisfied_row(outputs):
    ctx, _ = outputs
    report = load(ctx, "bounds.json")
    report["rows"][1]["satisfied"] = False
    with pytest.raises(CheckFailed, match="not satisfied"):
        checks.check_bounds(report, (64, 128))
