"""Command-line front end.

Subcommands: gen, verify, certify, solve, bounds.  Exit codes: 0 success /
verified, 1 verified-false, 2 bad parameters, 3 bad input file, 4 resource
cap exceeded.  Output files are written atomically and every JSON report
carries a header with the tool version, the command line, and the SHA-256
of the instance file's bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from fractions import Fraction

from . import __version__, bounds, families, flows, integral, lp, model
from .model import SizeCapError
from .rationals import render_rational

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_BAD_PARAMS = 2
EXIT_BAD_INPUT = 3
EXIT_CAP = 4


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def read_config(path: str) -> dict:
    """key=value lines; '#' starts a comment.  Flags win over the file."""
    out = {}
    try:
        with open(path) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise CliError(f"bad config line: {line!r}", EXIT_BAD_PARAMS)
                key, value = line.split("=", 1)
                out[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise CliError(f"cannot read config: {exc}", EXIT_BAD_INPUT)
    return out


def apply_config(args: argparse.Namespace) -> None:
    if not getattr(args, "config", None):
        return
    cfg = read_config(args.config)
    for key, value in cfg.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def report_header(args_line, instance_sha256=None) -> dict:
    header = {"tool": "dstgap", "version": __version__, "command": args_line}
    if instance_sha256 is not None:
        header["instance_sha256"] = instance_sha256
    return header


def load_instance(path: str) -> tuple[model.DstInstance, str]:
    """The instance in `path` and the SHA-256 of the file's bytes."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        return model.instance_from_json(data), hashlib.sha256(data).hexdigest()
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CliError(f"cannot load instance {path}: {exc}", EXIT_BAD_INPUT)


def make_objects(args) -> model.GapObjects:
    cap = int(args.max_edges) if args.max_edges is not None \
        else families.DEFAULT_EDGE_CAP
    try:
        if args.family == "zk":
            if args.k is None:
                raise ValueError("--k is required for the zk family")
            return families.zk_objects(int(args.k), max_edges=cap)
        if args.family == "subset":
            if args.m is None or args.a is None:
                raise ValueError("--m and --a are required for the subset family")
            params = families.SubsetFamilyParams(
                int(args.m), int(args.a), int(args.thresh or 0))
            return families.subset_objects(params, max_edges=cap)
        raise ValueError(f"unknown family {args.family!r}")
    except SizeCapError as exc:
        raise CliError(str(exc), EXIT_CAP)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_BAD_PARAMS)


def cmd_generate(args, argline) -> int:
    objects = make_objects(args)
    inst = model.build_instance(objects)
    stats = model.instance_stats(inst)
    text = model.instance_to_json(inst)
    if args.out:
        atomic_write(args.out, text)
    if args.dot:
        try:
            atomic_write(args.dot, model.instance_to_dot(inst))
        except SizeCapError as exc:
            raise CliError(str(exc), EXIT_CAP)
    print(f"family           {objects.family} {objects.params}")
    print(f"n                {stats.n}")
    print(f"levels           {list(stats.level_sizes)}")
    print(f"edges            {stats.edge_class_counts}")
    print(f"d, d', s, k      {stats.d} {stats.d_prime} {stats.s} {stats.k}")
    print(f"total cost       {render_rational(stats.total_cost)}")
    print(f"canonical LP     {render_rational(stats.canonical_lp_cost)}")
    print(f"sha256           {hashlib.sha256(text.encode()).hexdigest()}")
    return EXIT_OK


def cmd_verify(args, argline) -> int:
    inst, sha256 = load_instance(args.instance)
    sol = flows.canonical_solution(inst)
    report = flows.verify_feasibility(inst, sol)
    witnesses_ok = True
    if inst.provenance.edges:
        for t in inst.terminals:
            try:
                w = flows.path_witness(inst, t)
                if not flows.check_path_witness(inst, w, sol):
                    witnesses_ok = False
            except (KeyError, ValueError):
                # corrupted instance: path edges missing, or not s of them
                witnesses_ok = False

    print(f"{'terminal':>12} {'flow':>8} status")
    for e in report.entries:
        status = "ok" if e.ok else "LOW"
        print(f"{e.label:>12} {render_rational(e.value):>8} {status}")
    all_unit = all(e.value == 1 for e in report.entries)
    if args.json_out:
        payload = {
            "header": report_header(argline, sha256),
            "feasible": report.feasible,
            "all_flows_unit": all_unit,
            "path_witnesses_ok": witnesses_ok,
            "terminals": [
                {"terminal": e.label, "flow": render_rational(e.value),
                 "ok": e.ok}
                for e in report.entries
            ],
            "failing_cuts": [
                {"terminal": e.label,
                 "cut_capacity": render_rational(e.cut.cut_capacity)}
                for e in report.failing()
            ],
        }
        atomic_write(args.json_out, json.dumps(payload, indent=1) + "\n")
    if report.feasible and all_unit and witnesses_ok:
        print("verified: feasible, all flows exactly 1")
        return EXIT_OK
    for e in report.failing():
        print(f"FAIL terminal {e.label}: flow {render_rational(e.value)} < 1, "
              f"cut capacity {render_rational(e.cut.cut_capacity)}")
    if not witnesses_ok:
        print("FAIL path witness invalid")
    return EXIT_FALSE


def certificate_payload(cert, thresh=None):
    data = {
        "alpha": render_rational(cert.alpha),
        "opt_lower_bound": render_rational(cert.opt_lower_bound),
        "gap_lower_bound": render_rational(cert.gap_lower_bound),
        "per_u": [
            {"u": lbl, "j_size": js, "max_residual": res}
            for lbl, js, res in cert.per_u
        ],
    }
    if thresh is not None:
        data["thresh"] = thresh
    return data


def cmd_certify(args, argline) -> int:
    inst, sha256 = load_instance(args.instance)
    objects = inst.provenance
    try:
        if args.sweep:
            if objects.family != "subset":
                raise CliError("--sweep only applies to the subset family",
                               EXIT_BAD_PARAMS)
            a = objects.params["a"]
            best = None
            for thresh in range(a):
                j = families.default_j_sets(objects, thresh=thresh)
                cert = integral.certify_gap(objects, j)
                if best is None or cert.alpha > best[0].alpha:
                    best = (cert, thresh)
            cert, thresh = best
        else:
            thresh = int(args.thresh) if args.thresh is not None else None
            j = families.default_j_sets(objects, thresh=thresh)
            cert = integral.certify_gap(objects, j)
            thresh = thresh if thresh is not None \
                else objects.params.get("thresh")
    except ValueError as exc:
        raise CliError(str(exc), EXIT_BAD_PARAMS)
    payload = {"header": report_header(argline, sha256)}
    payload.update(certificate_payload(cert, thresh))
    if args.out:
        atomic_write(args.out, json.dumps(payload, indent=1) + "\n")
    print(f"alpha            {render_rational(cert.alpha)}")
    if thresh is not None:
        print(f"thresh           {thresh}")
    print(f"OPT lower bound  {render_rational(cert.opt_lower_bound)}")
    print(f"gap lower bound  {render_rational(cert.gap_lower_bound)}")
    return EXIT_OK


def cmd_solve(args, argline) -> int:
    inst, sha256 = load_instance(args.instance)
    methods = (["structured", "brute", "lp"] if args.method == "all"
               else [args.method])
    payload = {"header": report_header(argline, sha256)}
    stats = model.instance_stats(inst)
    capped = False
    opt_values = {}

    for method in methods:
        try:
            if method == "structured":
                res = integral.solve_structured(inst)
                payload["structured"] = {
                    "value": render_rational(res.value),
                    "optimal": res.optimal,
                    "lower_bound": render_rational(res.lower_bound),
                    "opened_a": list(res.solution.opened_a),
                    "opened_b": list(res.solution.opened_b),
                }
                print(f"structured OPT   {render_rational(res.value)}"
                      f"{'' if res.optimal else ' (not proven optimal)'}")
                opt_values[method] = res.value
            elif method == "brute":
                cap = int(args.brute_cap) if args.brute_cap is not None \
                    else integral.DEFAULT_BRUTE_CAP
                res = integral.brute_force_opt(inst, cap=cap)
                if not res.feasible:
                    payload["brute"] = {"feasible": False,
                                        "unreachable": list(res.unreachable)}
                    print(f"brute: INFEASIBLE, unreachable {res.unreachable}")
                else:
                    payload["brute"] = {
                        "feasible": True,
                        "value": render_rational(res.value),
                        "opened_a": list(res.opened_a),
                        "opened_b": list(res.opened_b),
                    }
                    print(f"brute OPT        {render_rational(res.value)}")
                    opt_values[method] = res.value
            elif method == "lp":
                cap = int(args.lp_cap) if args.lp_cap is not None \
                    else lp.DEFAULT_VAR_CAP
                res = lp.solve_lp_exact(inst, var_cap=cap)
                payload["lp"] = {
                    "value": render_rational(res.optimal_value),
                    "duality_certified": res.certified,
                }
                print(f"LP value         {render_rational(res.optimal_value)}"
                      f" (duality {'certified' if res.certified else 'FAILED'})")
                opt_values[method] = res.optimal_value
        except SizeCapError as exc:
            capped = True
            payload[method] = {"capped": str(exc)}
            print(f"{method}: {exc}")

    try:
        j = families.default_j_sets(inst.provenance)
        cert = integral.certify_gap(inst.provenance, j)
        payload["certificate"] = certificate_payload(cert)
        print(f"certified alpha  {render_rational(cert.alpha)}, "
              f"OPT >= {render_rational(cert.opt_lower_bound)}")
    except ValueError:
        cert = None
    print(f"canonical LP     {render_rational(stats.canonical_lp_cost)}")
    if "lp" in opt_values:
        for key in ("structured", "brute"):
            if key in opt_values:
                ratio = opt_values[key] / opt_values["lp"]
                print(f"observed OPT/LP  {render_rational(ratio)} ({key})")

    if args.out:
        atomic_write(args.out, json.dumps(payload, indent=1) + "\n")
    return EXIT_CAP if capped else EXIT_OK


def cmd_bounds(args, argline) -> int:
    digits = int(args.digits) if args.digits is not None else bounds.DEFAULT_DIGITS
    if digits < 20:
        raise CliError("precision must be at least 20 digits", EXIT_BAD_PARAMS)
    try:
        m_list = sorted(int(x) for x in args.m_list.split(","))
        reports = [(m, bounds.verify_ja_bound(m, digits),
                    bounds.verify_kb_bound(m, digits)) for m in m_list]
        alphas = bounds.alpha_asymptotics(m_list, digits)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_BAD_PARAMS)

    def dec(q: Fraction) -> str:
        return str(float(Fraction(q.numerator, q.denominator)))

    lines = ["m,exact_tail_JA,bound_JA,exact_tail_KB,bound_KB,"
             "k_over_d,bound_k_over_d,alpha,log_alpha_over_m"]
    all_ok = True
    for (m, ja, kb), row in zip(reports, alphas):
        kd, kd_bound, kd_ok = ja.extras["k_over_d"]
        ok = ja.satisfied and kb.satisfied
        all_ok = all_ok and ok
        lines.append(",".join([
            str(m),
            dec(ja.exact), ja.chernoff.decimal_str()[:24],
            dec(kb.exact), kb.chernoff.decimal_str()[:24],
            dec(kd), kd_bound.decimal_str()[:24],
            dec(row.alpha) if row.alpha < 10**300 else "inf-like",
            str(row.log_alpha_over_m)[:24],
        ]))
        status = "ok" if ok else "VIOLATED"
        print(f"m={m:>5}  |J_A|/d {dec(Fraction(ja.extras['ja_over_d'][0]))} "
              f" |K_B\\J_A|/d' {dec(kb.exact)}  alpha {dec(row.alpha)}  {status}")
    csv_text = "\n".join(lines) + "\n"
    if args.csv:
        atomic_write(args.csv, csv_text)
    if args.json_out:
        payload = {
            "header": report_header(argline),
            "rows": [
                {
                    "m": m,
                    "exact_tail_ja": render_rational(ja.exact),
                    "exact_tail_kb": render_rational(kb.exact),
                    "alpha": render_rational(row.alpha),
                    "satisfied": ja.satisfied and kb.satisfied,
                }
                for (m, ja, kb), row in zip(reports, alphas)
            ],
        }
        atomic_write(args.json_out, json.dumps(payload, indent=1) + "\n")
    return EXIT_OK if all_ok else EXIT_FALSE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dstgap",
        description="Directed Steiner Tree flow-LP integrality-gap toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen", help="generate a family instance")
    p.add_argument("--family", choices=["zk", "subset"], required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--thresh", type=int)
    p.add_argument("--max-edges", dest="max_edges")
    p.add_argument("--out")
    p.add_argument("--dot")
    p.add_argument("--config")

    p = sub.add_parser("verify", help="check the canonical LP solution")
    p.add_argument("instance")
    p.add_argument("--json-out", dest="json_out")
    p.add_argument("--config")

    p = sub.add_parser("certify", help="emit a density-lemma gap certificate")
    p.add_argument("instance")
    p.add_argument("--thresh", type=int)
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--out")
    p.add_argument("--config")

    p = sub.add_parser("solve", help="compute exact optima and bounds")
    p.add_argument("instance")
    p.add_argument("--method", choices=["structured", "brute", "lp", "all"],
                   default="all")
    p.add_argument("--brute-cap", dest="brute_cap")
    p.add_argument("--lp-cap", dest="lp_cap")
    p.add_argument("--out")
    p.add_argument("--config")

    p = sub.add_parser("bounds", help="closed-form lemma sweep")
    p.add_argument("--m-list", dest="m_list", required=True)
    p.add_argument("--digits")
    p.add_argument("--csv")
    p.add_argument("--json-out", dest="json_out")
    p.add_argument("--config")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_PARAMS if exc.code not in (0, None) else 0
    argline = "dstgap " + " ".join(argv)
    handlers = {
        "gen": cmd_generate,
        "verify": cmd_verify,
        "certify": cmd_certify,
        "solve": cmd_solve,
        "bounds": cmd_bounds,
    }
    try:
        apply_config(args)
        return handlers[args.cmd](args, argline)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
