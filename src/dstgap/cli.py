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
import functools
import gc
import os
import sys
from fractions import Fraction

from . import __version__, families, model
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
    through a .tmp file beside it, and replace the paths only once every
    .tmp file is written: no path is half written, and a path that cannot
    be written leaves every path as it was.  A symbolic link is followed,
    so its target is written, and any other path that exists but is no
    regular file, such as a directory or a FIFO, is not written.  Either
    is a bad parameter: CliError, exit 2, and no .tmp file is left behind.
    Of two texts for one file, the last is written."""
    files = {}  # the file written -> (the path given, its text)
    for path, text in zip(paths_and_texts[::2], paths_and_texts[1::2]):
        files[os.path.realpath(path)] = (path, text)
    started = []
    try:
        for real, (path, text) in files.items():
            # os.replace would replace the directory entry, whatever it is
            if os.path.exists(real) and not os.path.isfile(real):
                raise OSError("not a regular file")
            started.append(real)
            with open(real + ".tmp", "w") as fh:
                fh.write(text)
        for real, (path, _) in files.items():
            os.replace(real + ".tmp", real)
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


def report_json(argline, instance_sha256, body: dict) -> str:
    """Every JSON report: its header, then the members of body, as
    json.dumps(report, indent=1) + "\n" writes it, byte for byte.  Each
    per_u list is written from a template (zk16 has 1,820 entries)."""
    header = {"tool": "dstgap", "version": __version__, "command": argline}
    if instance_sha256 is not None:
        header["instance_sha256"] = instance_sha256
    return model.json_nested({"header": header, **body}, 0,
                             {"per_u": _per_u_json}) + "\n"


def _per_u_json(entries: list, depth: int) -> str:
    """A per_u list `depth` levels deep, each entry from a template."""
    pad = " " * (depth + 2)  # the entries' members
    return model.json_block("[]", [
        f'{{\n{pad}"u": {model.json_nested(e["u"], depth + 2)},\n{pad}'
        f'"j_size": {e["j_size"]},\n{pad}"max_residual": '
        f'{e["max_residual"]}\n{pad[1:]}}}' for e in entries], depth)


def _load(path: str, loader):
    """loader(the file's bytes) and the SHA-256 of the bytes; a file that
    cannot be read or loaded is a CliError, exit 3."""
    import hashlib  # here, so that a command that hashes nothing skips it

    try:
        with open(path, "rb") as fh:
            data = fh.read()
        return loader(data), hashlib.sha256(data).hexdigest()
    except RecursionError:  # JSON nested deeper than the parser recurses
        raise CliError(f"cannot load instance {path}: nested too deeply "
                       "to parse", EXIT_BAD_INPUT) from None
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CliError(f"cannot load instance {path}: {exc}", EXIT_BAD_INPUT)


def load_instance(path: str) -> tuple[model.DstInstance, str]:
    """The instance in `path` and the SHA-256 of the file's bytes."""
    return _load(path, model.instance_from_json)


def load_objects(path: str) -> tuple[model.GapObjects, str]:
    """The objects in `path`, with the same checks as load_instance, and
    the SHA-256 of the file's bytes.  A family file as `gen` writes it
    builds no instance."""
    return _load(path, model.objects_from_json)


def make_objects(args) -> model.GapObjects:
    defaults = families.FAMILY_PARAMS[args.family]
    for name in ("k", "m", "a", "thresh"):
        if name not in defaults and getattr(args, name) is not None:
            raise CliError(f"--{name} does not apply to the {args.family} "
                           "family", EXIT_BAD_PARAMS)
    params = {name: default if getattr(args, name) is None
              else getattr(args, name) for name, default in defaults.items()}
    if None in params.values():
        required = [f"--{name}" for name, v in defaults.items() if v is None]
        raise CliError(f"{' and '.join(required)} "
                       f"{'is' if len(required) == 1 else 'are'} required "
                       f"for the {args.family} family", EXIT_BAD_PARAMS)
    try:
        return families.family_objects(args.family, params, args.max_edges)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_BAD_PARAMS)


def print_canonical_cost(objects: model.GapObjects) -> None:
    """Print the cost 2|B|/s of the canonical solution x = 1/s."""
    cost = Fraction(2 * objects.num_b, objects.s)
    print(f"canonical cost   {render_rational(cost)}")


def cmd_generate(args, argline) -> int:
    import hashlib

    objects = make_objects(args)
    inst = model.build_instance(objects)
    counts = model.edge_class_counts(inst)
    total = sum((inst.class_costs[c] * n for c, n in counts.items()),
                Fraction(0))
    text = model.instance_to_json(inst)
    # the DOT text can exceed its cap, so it is rendered before any write
    files = [args.out, text] if args.out else []
    if args.dot:
        files += [args.dot, model.instance_to_dot(inst)]
    atomic_write(*files)
    print(f"family           {objects.family} {objects.params}")
    print(f"n                {inst.n}")
    print(f"levels           {list(inst.level_sizes)}")
    print(f"edges            {counts}")
    print(f"d, d', s, k      {objects.d} {objects.d_prime} {objects.s} "
          f"{objects.k}")
    print(f"total cost       {render_rational(total)}")
    print_canonical_cost(objects)
    print(f"sha256           {hashlib.sha256(text.encode()).hexdigest()}")
    return EXIT_OK


def cmd_verify(args, argline) -> int:
    from . import flows

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
        body = {
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
        atomic_write(args.json_out, report_json(argline, sha256, body))
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
    from . import integral

    objects, sha256 = load_objects(args.instance)
    # the loader checked the params, so they raise no ValueError here
    shape = families.containment_params(objects.family, objects.params)
    if shape is None:
        raise CliError(f"instance {args.instance} has family "
                       f"{objects.family!r}: certify needs the J-sets of "
                       "the zk or subset family", EXIT_BAD_INPUT)
    # a family whose params have no thresh has one J-set rule
    file_thresh = objects.params.get("thresh")
    if file_thresh is None and (args.sweep or args.thresh is not None):
        flag = "--sweep" if args.sweep else "--thresh"
        raise CliError(f"{flag} only applies to the subset family",
                       EXIT_BAD_PARAMS)
    size = shape[2]  # the color size
    if args.thresh is not None and not 0 <= args.thresh < size:
        raise CliError(f"cannot certify {args.instance}: need 0 <= thresh < "
                       f"{size} (the color size), got {args.thresh}",
                       EXIT_BAD_PARAMS)
    thresholds = range(size) if args.sweep else [
        file_thresh if args.thresh is None else args.thresh]
    try:
        certs = [(integral.certify_gap(
            objects, families.default_j_sets(objects, t)), t)
            for t in thresholds]
    except ValueError as exc:  # a label that names no set
        raise CliError(f"cannot certify {args.instance}: {exc}",
                       EXIT_BAD_INPUT)
    # the first thresh of the largest alpha
    cert, thresh = max(certs, key=lambda pair: pair[0].alpha)
    if args.out:
        atomic_write(args.out, report_json(argline, sha256,
                                           certificate_payload(cert, thresh)))
    print(f"alpha            {render_rational(cert.alpha)}")
    if thresh is not None:
        print(f"thresh           {thresh}")
    print(f"OPT lower bound  {render_rational(cert.opt_lower_bound)}")
    print(f"gap lower bound  {render_rational(cert.gap_lower_bound)}")
    return EXIT_OK


def cmd_solve(args, argline) -> int:
    from . import integral, lp

    brute_cap = (integral.DEFAULT_BRUTE_CAP if args.brute_cap is None
                 else args.brute_cap)
    lp_cap = lp.DEFAULT_VAR_CAP if args.lp_cap is None else args.lp_cap
    inst, sha256 = load_instance(args.instance)
    methods = (["structured", "brute", "lp"] if args.method == "all"
               else [args.method])
    body = {}
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
                body["structured"] = {
                    "value": render_rational(res.value),
                    "optimal": res.optimal,
                    "lower_bound": render_rational(bound),
                    "opened_a": list(res.opened_a),
                    "opened_b": list(res.opened_b),
                }
                print(f"structured OPT   {render_rational(res.value)}"
                      f"{'' if res.optimal else ' (not proven optimal)'}")
                opt_values[method] = res.value
            elif method == "brute":
                res = integral.brute_force_opt(inst, cap=brute_cap)
                if not res.feasible:
                    body["brute"] = {"feasible": False,
                                        "unreachable": list(res.unreachable)}
                    print(f"brute: INFEASIBLE, unreachable {res.unreachable}")
                else:
                    body["brute"] = {
                        "feasible": True,
                        "value": render_rational(res.value),
                        "opened_a": list(res.opened_a),
                        "opened_b": list(res.opened_b),
                    }
                    print(f"brute OPT        {render_rational(res.value)}")
                    opt_values[method] = res.value
            elif method == "lp":
                res = lp.closed_form_lp(inst)
                certificate = "cut-packing"
                if res is None:
                    res = lp.solve_lp_exact(inst, var_cap=lp_cap)
                    certificate = "simplex"
                body["lp"] = {
                    "value": render_rational(res.optimal_value),
                    "duality_certified": res.certified,
                    "certificate": certificate,
                }
                print(f"LP value         {render_rational(res.optimal_value)}"
                      f" (duality {'certified' if res.certified else 'FAILED'})")
                opt_values[method] = res.optimal_value
        except SizeCapError as exc:
            capped = True
            body[method] = {"capped": str(exc)}
            print(f"{method}: {exc}")
        except InfeasibleError:
            body[method] = {"feasible": False}
            if method == "lp":  # raised only with a checked Farkas vector
                body[method]["farkas_certified"] = True
            print(f"{method}: INFEASIBLE")

    if cert is not None:
        body["certificate"] = certificate_payload(cert)
        print(f"certified alpha  {render_rational(cert.alpha)}, "
              f"OPT >= {render_rational(cert.opt_lower_bound)}")
    print_canonical_cost(inst.provenance)
    if "lp" in opt_values:
        for key in ("structured", "brute"):
            if key in opt_values:
                ratio = opt_values[key] / opt_values["lp"]
                print(f"observed OPT/LP  {render_rational(ratio)} ({key})")

    if args.out:
        atomic_write(args.out, report_json(argline, sha256, body))
    return EXIT_CAP if capped else EXIT_OK


def cmd_bounds(args, argline) -> int:
    from . import bounds

    m_list = sorted(args.m_list)
    try:
        reports = [(m, bounds.verify_ja_bound(m), bounds.verify_kb_bound(m))
                   for m in m_list]
        alphas = bounds.alpha_asymptotics(m_list)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_BAD_PARAMS)

    def dec(q: Fraction) -> str:  # past 10**300, float(q) may overflow
        return str(float(q)) if q < 10**300 else "inf-like"

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
            dec(row.alpha),
            str(row.log_alpha_over_m)[:24],
        ]))
        status = "ok" if ok else "VIOLATED"
        print(f"m={m:>5}  |J_A|/d {dec(ja.extras['ja_over_d'][0])} "
              f" |K_B\\J_A|/d' {dec(kb.exact)}  alpha {dec(row.alpha)}  {status}")
    files = [args.csv, "\n".join(lines) + "\n"] if args.csv else []
    if args.json_out:
        body = {
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
        files += [args.json_out, report_json(argline, None, body)]
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
    p.add_argument("--family", choices=list(families.FAMILY_PARAMS),
                   required=True)
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
    # None: the cap its module sets, read when the command runs, so that
    # the parser imports no solver
    p.add_argument("--brute-cap", type=non_negative_int)
    p.add_argument("--lp-cap", type=non_negative_int)
    p.add_argument("--out")
    p.add_argument("--config")

    p = command("bounds", help="closed-form lemma sweep")
    p.add_argument("--m-list", type=int_list, required=True)
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
    """Run one command; its exit code.  The cyclic garbage collector is off
    while it runs: dstgap's data makes no reference cycles, so a collection
    would only walk the instance's millions of objects to free nothing.
    The collector's state is restored on return, for a caller that runs
    main in-process."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv) -> int:
    if sys.stdout is None:  # started with descriptor 1 closed
        return _internal_error("no standard output")
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
        return _internal_error(f"{type(exc).__name__}: {exc}")


def _internal_error(message: str) -> int:
    print(f"error: internal error: {message}", file=sys.stderr)
    return EXIT_INTERNAL


def console_entry() -> None:
    """The `dstgap` command, and `python -m dstgap.cli`: run main and end
    the process with its code as soon as stdout and stderr are flushed, so
    the interpreter skips its module teardown and final collection.  A
    flush that fails still ends it non-zero: with main's code, or, if that
    is 0, with exit 5 and one line.  Under a profiler or tracer the process
    exits normally, so that its report is written at exit."""
    code = main()
    if sys.getprofile() is not None or sys.gettrace() is not None:
        sys.exit(code)
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None: started without that descriptor
                stream.flush()
    except (OSError, ValueError) as exc:  # ValueError: a closed file
        if code == EXIT_OK:  # main reported no failure
            code = EXIT_INTERNAL
            with contextlib.suppress(OSError, ValueError):
                _internal_error(f"{type(exc).__name__}: {exc}")
    os._exit(code)


if __name__ == "__main__":
    console_entry()
