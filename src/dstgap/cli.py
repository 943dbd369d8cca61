"""Command-line front end.

Subcommands: gen, verify, certify, solve, bounds.  Exit codes: 0 success /
verified, 1 verified-false, 2 bad parameters, 3 bad input file, 4 resource
cap exceeded, 5 internal error.  Options are spelled in full (no parser
takes an abbreviation).  Output files are written atomically and every
JSON report carries a header with the tool version, the command line, and
the SHA-256 of the instance file's bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import hashlib
import json
import os
import sys
from fractions import Fraction

from . import __version__, bounds, families, flows, integral, lp, model
from .model import InfeasibleError, SizeCapError
from .rationals import render_rational

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_BAD_PARAMS = 2
EXIT_BAD_INPUT = 3
EXIT_CAP = 4
EXIT_INTERNAL = 5


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def atomic_write(*paths_and_texts: str) -> None:
    """Write each text to its path (the arguments alternate path, text)
    through path + ".tmp", and replace the paths only once every .tmp file
    is written: no path is half written, and a path that cannot be written
    leaves every path as it was.  That is a bad parameter: CliError, exit
    2, and no .tmp file is left behind.  Of two texts for one path, the
    last is written."""
    files = dict(zip(paths_and_texts[::2], paths_and_texts[1::2]))
    started = []
    try:
        for path, text in files.items():
            # os.replace onto a directory fails: find that before any replace
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR,
                                        os.strerror(errno.EISDIR))
            started.append(path)
            with open(path + ".tmp", "w") as fh:
                fh.write(text)
        for path in files:
            os.replace(path + ".tmp", path)
    except OSError as exc:
        for done in started:
            with contextlib.suppress(OSError):
                os.remove(done + ".tmp")
        raise CliError(f"cannot write {path}: {exc.strerror or exc}",
                       EXIT_BAD_PARAMS)


def read_config(path: str) -> list:
    """'key = value' lines as '--key=value' tokens; '#' starts a comment.
    A key is a long option name, with '-' or '_' between words."""
    tokens = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise CliError(f"bad config line: {line!r}", EXIT_BAD_PARAMS)
                key, value = line.split("=", 1)
                tokens.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    except OSError as exc:
        raise CliError(f"cannot read config: {exc}", EXIT_BAD_INPUT)
    return tokens


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
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CliError(f"cannot load instance {path}: {exc}", EXIT_BAD_INPUT)


def make_objects(args) -> model.GapObjects:
    other = ("m", "a", "thresh") if args.family == "zk" else ("k",)
    for name in other:
        if getattr(args, name) is not None:
            raise CliError(f"--{name} does not apply to the {args.family} "
                           "family", EXIT_BAD_PARAMS)
    try:
        if args.family == "zk":
            if args.k is None:
                raise ValueError("--k is required for the zk family")
            return families.zk_objects(args.k, max_edges=args.max_edges)
        if args.m is None or args.a is None:
            raise ValueError("--m and --a are required for the subset family")
        thresh = 0 if args.thresh is None else args.thresh
        params = families.SubsetFamilyParams(args.m, args.a, thresh)
        return families.subset_objects(params, max_edges=args.max_edges)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_BAD_PARAMS)


def cmd_generate(args, argline) -> int:
    objects = make_objects(args)
    inst = model.build_instance(objects)
    stats = model.instance_stats(inst)
    text = model.instance_to_json(inst)
    # the DOT text can exceed its cap, so it is rendered before any write
    files = [args.out, text] if args.out else []
    if args.dot:
        files += [args.dot, model.instance_to_dot(inst)]
    atomic_write(*files)
    print(f"family           {objects.family} {objects.params}")
    print(f"n                {stats.n}")
    print(f"levels           {list(stats.level_sizes)}")
    print(f"edges            {stats.edge_class_counts}")
    print(f"d, d', s, k      {stats.d} {stats.d_prime} {stats.s} {stats.k}")
    print(f"total cost       {render_rational(stats.total_cost)}")
    print(f"canonical cost   {render_rational(stats.canonical_cost)}")
    print(f"sha256           {hashlib.sha256(text.encode()).hexdigest()}")
    return EXIT_OK


def cmd_verify(args, argline) -> int:
    inst, sha256 = load_instance(args.instance)
    sol = flows.canonical_solution(inst)
    report = flows.verify_feasibility(inst, sol)
    # an automorphism that keeps x maps a representative's witness onto a
    # witness for each terminal of its orbit
    witnesses_ok = True
    for t in report.representatives:
        try:
            w = flows.path_witness(inst, t)
            if not flows.check_path_witness(inst, w, sol):
                witnesses_ok = False
        except KeyError:  # corrupted instance: a path edge is missing
            witnesses_ok = False

    print(f"{'terminal':>12} {'flow':>8} status")
    labels = inst.labels
    for e in report.entries:
        status = "ok" if e.ok else "LOW"
        print(f"{labels[e.terminal]!s:>12} {render_rational(e.value):>8} "
              f"{status}")
    all_unit = all(e.value == 1 for e in report.entries)
    if args.json_out:
        payload = {
            "header": report_header(argline, sha256),
            "feasible": report.feasible,
            "all_flows_unit": all_unit,
            "path_witnesses_ok": witnesses_ok,
            "terminals": [
                {"terminal": labels[e.terminal],
                 "flow": render_rational(e.value), "ok": e.ok}
                for e in report.entries
            ],
            # a min cut's capacity is its terminal's max-flow value
            "failing_cuts": [
                {"terminal": labels[e.terminal],
                 "cut_capacity": render_rational(e.value)}
                for e in report.failing()
            ],
            "automorphisms": [
                "(" + " ".join(map(str, g.cycle)) + ")"
                for g in report.automorphisms
            ],
            "orbit_representatives": [
                labels[t] for t in report.representatives
            ],
        }
        atomic_write(args.json_out, json.dumps(payload, indent=1) + "\n")
    if report.feasible and all_unit and witnesses_ok:
        print("verified: feasible, all flows exactly 1")
        return EXIT_OK
    for e in report.failing():
        value = render_rational(e.value)
        print(f"FAIL terminal {labels[e.terminal]}: flow {value} < 1, "
              f"cut capacity {value}")
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
    if objects.family not in ("zk", "subset"):
        raise CliError(f"instance {args.instance} has family "
                       f"{objects.family!r}: certify needs the J-sets of "
                       "the zk or subset family", EXIT_BAD_INPUT)
    if objects.family != "subset" and (args.sweep or args.thresh is not None):
        flag = "--sweep" if args.sweep else "--thresh"
        raise CliError(f"{flag} only applies to the subset family",
                       EXIT_BAD_PARAMS)
    if args.sweep:
        thresholds = range(objects.params["a"])
    else:
        thresholds = [objects.params.get("thresh") if args.thresh is None
                      else args.thresh]
    best = None
    try:
        for thresh in thresholds:
            j = families.default_j_sets(objects, thresh=thresh)
            cert = integral.certify_gap(objects, j)
            if best is None or cert.alpha > best[0].alpha:
                best = (cert, thresh)
    except ValueError as exc:
        # the loader checked the file's thresh, so the error is --thresh's
        # or the file's (a label that names no set)
        bad_flag = (args.thresh is not None
                    and not 0 <= args.thresh < objects.params["a"])
        raise CliError(f"cannot certify {args.instance}: {exc}",
                       EXIT_BAD_PARAMS if bad_flag else EXIT_BAD_INPUT)
    cert, thresh = best
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
    try:  # it bounds OPT on every file of the objects
        cert = integral.certify_gap(
            inst.provenance, families.default_j_sets(inst.provenance))
    except ValueError:  # no J-sets, or a label that names no set
        cert = None

    for method in methods:
        try:
            if method == "structured":
                res = integral.solve_structured(inst)
                bound = res.lower_bound if cert is None else max(
                    res.lower_bound, cert.opt_lower_bound)
                payload["structured"] = {
                    "value": render_rational(res.value),
                    "optimal": res.optimal,
                    "lower_bound": render_rational(bound),
                    "opened_a": list(res.solution.opened_a),
                    "opened_b": list(res.solution.opened_b),
                }
                print(f"structured OPT   {render_rational(res.value)}"
                      f"{'' if res.optimal else ' (not proven optimal)'}")
                opt_values[method] = res.value
            elif method == "brute":
                res = integral.brute_force_opt(inst, cap=args.brute_cap)
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
                res = lp.solve_lp_exact(inst, var_cap=args.lp_cap)
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
        except InfeasibleError:
            payload[method] = {"feasible": False}
            print(f"{method}: INFEASIBLE")

    if cert is not None:
        payload["certificate"] = certificate_payload(cert)
        print(f"certified alpha  {render_rational(cert.alpha)}, "
              f"OPT >= {render_rational(cert.opt_lower_bound)}")
    print(f"canonical cost   {render_rational(stats.canonical_cost)}")
    if "lp" in opt_values:
        for key in ("structured", "brute"):
            if key in opt_values:
                ratio = opt_values[key] / opt_values["lp"]
                print(f"observed OPT/LP  {render_rational(ratio)} ({key})")

    if args.out:
        atomic_write(args.out, json.dumps(payload, indent=1) + "\n")
    return EXIT_CAP if capped else EXIT_OK


def cmd_bounds(args, argline) -> int:
    if args.digits < 20:
        raise CliError("precision must be at least 20 digits", EXIT_BAD_PARAMS)
    m_list = sorted(args.m_list)
    try:
        reports = [(m, bounds.verify_ja_bound(m, args.digits),
                    bounds.verify_kb_bound(m, args.digits)) for m in m_list]
        alphas = bounds.alpha_asymptotics(m_list, args.digits)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_BAD_PARAMS)

    def dec(q: Fraction) -> str:
        return str(float(q))

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
        print(f"m={m:>5}  |J_A|/d {dec(ja.extras['ja_over_d'][0])} "
              f" |K_B\\J_A|/d' {dec(kb.exact)}  alpha {dec(row.alpha)}  {status}")
    files = [args.csv, "\n".join(lines) + "\n"] if args.csv else []
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
        files += [args.json_out, json.dumps(payload, indent=1) + "\n"]
    atomic_write(*files)
    return EXIT_OK if all_ok else EXIT_FALSE


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"negative: {value}")
    return value


def int_list(text: str) -> list:
    """'64,128' -> [64, 128]."""
    return [int(x) for x in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dstgap", allow_abbrev=False,
        description="Directed Steiner Tree flow-LP integrality-gap toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    command = functools.partial(sub.add_parser, allow_abbrev=False)

    p = command("gen", help="generate a family instance")
    p.add_argument("--family", choices=["zk", "subset"], required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--thresh", type=int)
    p.add_argument("--max-edges", type=non_negative_int,
                   default=families.DEFAULT_EDGE_CAP)
    p.add_argument("--out")
    p.add_argument("--dot")
    p.add_argument("--config")

    p = command("verify", help="check the canonical LP solution")
    p.add_argument("instance")
    p.add_argument("--json-out")
    p.add_argument("--config")

    p = command("certify", help="emit a density-lemma gap certificate")
    p.add_argument("instance")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--thresh", type=int)
    group.add_argument("--sweep", action="store_true")
    p.add_argument("--out")
    p.add_argument("--config")

    p = command("solve", help="compute exact optima and bounds")
    p.add_argument("instance")
    p.add_argument("--method", choices=["structured", "brute", "lp", "all"],
                   default="all")
    p.add_argument("--brute-cap", type=non_negative_int,
                   default=integral.DEFAULT_BRUTE_CAP)
    p.add_argument("--lp-cap", type=non_negative_int,
                   default=lp.DEFAULT_VAR_CAP)
    p.add_argument("--out")
    p.add_argument("--config")

    p = command("bounds", help="closed-form lemma sweep")
    p.add_argument("--m-list", type=int_list, required=True)
    p.add_argument("--digits", type=int, default=bounds.DEFAULT_DIGITS)
    p.add_argument("--csv")
    p.add_argument("--json-out")
    p.add_argument("--config")
    return parser


def parse_args(argv: list) -> argparse.Namespace:
    """Flags win over --config lines, which win over the defaults: the
    config tokens go in front of the flags and argparse parses them all
    once, so a config file may supply required options too."""
    find = argparse.ArgumentParser(prog="dstgap", add_help=False,
                                   allow_abbrev=False)
    find.add_argument("--config")
    config = find.parse_known_args(argv[1:])[0].config
    if config:
        argv = argv[:1] + read_config(config) + argv[1:]
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    argline = "dstgap " + " ".join(argv)
    handlers = {
        "gen": cmd_generate,
        "verify": cmd_verify,
        "certify": cmd_certify,
        "solve": cmd_solve,
        "bounds": cmd_bounds,
    }
    try:
        args = parse_args(argv)
        code = handlers[args.cmd](args, argline)
        sys.stdout.flush()  # so that a closed stdout shows up here
        return code
    except BrokenPipeError:
        # the reader closed stdout (as `| head -1` does), which ends the
        # command normally; stdout goes to the null device so that the
        # interpreter's final flush does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except SystemExit as exc:  # argparse: --help, --version or a usage error
        return EXIT_BAD_PARAMS if exc.code not in (0, None) else EXIT_OK
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
