import collections
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import stat
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dstgap
from dstgap import bounds, cli, families, flows, integral, model, simplex
from dstgap.cli import (
    EXIT_BAD_INPUT,
    EXIT_BAD_PARAMS,
    EXIT_CAP,
    EXIT_FALSE,
    EXIT_INTERNAL,
    EXIT_OK,
    main,
)

from _util import two_copies


@pytest.fixture()
def zk4_file(tmp_path, zk4_instance):
    path = tmp_path / "zk4.json"
    path.write_text(model.instance_to_json(zk4_instance))
    return path


@pytest.fixture()
def m6_file(tmp_path, subset_m6_instance):
    path = tmp_path / "m6.json"
    path.write_text(model.instance_to_json(subset_m6_instance))
    return path


# ---------------------------------------------------------------------------
# gen

def test_gen_zk9(tmp_path, capsys):
    out = tmp_path / "zk9.json"
    rc = main(["gen", "--family", "zk", "--k", "9", "--out", str(out)])
    text = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "346" in text
    # round trip: generate -> load -> re-serialize is byte-identical
    data = out.read_bytes()
    assert model.instance_to_json(model.instance_from_json(data)).encode() \
        == data


def test_gen_subset_m8(capsys):
    rc = main(["gen", "--family", "subset", "--m", "8", "--a", "2",
               "--thresh", "1"])
    assert rc == EXIT_OK
    assert "197" in capsys.readouterr().out


def test_gen_dot(tmp_path):
    dot = tmp_path / "zk4.dot"
    rc = main(["gen", "--family", "zk", "--k", "4", "--dot", str(dot)])
    assert rc == EXIT_OK
    assert dot.read_text().startswith("digraph dst {")


def test_gen_bad_params(capsys):
    assert main(["gen", "--family", "zk", "--k", "5"]) == EXIT_BAD_PARAMS
    assert "perfect square" in capsys.readouterr().err
    assert main(["gen", "--family", "zk"]) == EXIT_BAD_PARAMS
    assert main(["gen", "--family", "subset", "--m", "3", "--a", "2"]) \
        == EXIT_BAD_PARAMS


def test_gen_edge_cap():
    rc = main(["gen", "--family", "subset", "--m", "8", "--a", "2",
               "--max-edges", "100"])
    assert rc == EXIT_CAP


def test_gen_zk_edge_cap_before_generating(monkeypatch, capsys):
    # zk10000 has C(10000, 101) * 101 edges; the cap must be checked from
    # that closed form, without enumerating a single subset
    def refuse(*args):
        raise AssertionError("zk10000 was enumerated")
    monkeypatch.setattr(families, "colex_subsets", refuse)
    assert main(["gen", "--family=zk", "--k=10000"]) == EXIT_CAP
    assert "edges > cap" in capsys.readouterr().err


def test_gen_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 9  # ground-set size\n")
    rc = main(["gen", "--family", "zk", "--config", str(cfg)])
    assert rc == EXIT_OK
    assert "346" in capsys.readouterr().out
    # flags win over the config file
    rc = main(["gen", "--family", "zk", "--k", "4", "--config", str(cfg)])
    assert rc == EXIT_OK
    assert "19" in capsys.readouterr().out


def test_gen_required_options_from_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = zk\nk = 4\n")
    out = tmp_path / "zk4.json"
    rc = main(["gen", "--config", str(cfg), "--out", str(out)])
    assert rc == EXIT_OK
    assert "family           zk {'k': 4}" in capsys.readouterr().out
    assert out.exists()


# ---------------------------------------------------------------------------
# verify

def test_verify_ok(zk4_file, tmp_path, capsys):
    report = tmp_path / "verify.json"
    rc = main(["verify", str(zk4_file), "--json-out", str(report)])
    assert rc == EXIT_OK
    assert "all flows exactly 1" in capsys.readouterr().out
    payload = json.loads(report.read_text())
    assert payload["feasible"] and payload["all_flows_unit"]
    assert payload["path_witnesses_ok"]
    assert payload["header"]["tool"] == "dstgap"
    assert len(payload["header"]["instance_sha256"]) == 64
    # S_4 is transitive on the terminals: one max-flow and one witness
    assert payload["automorphisms"] == ["(1 2 3 4)", "(1 2)"]
    assert payload["orbit_representatives"] == ["1"]


def test_verify_corrupted_instance(tmp_path, zk4_instance, capsys):
    data = model.instance_to_dict(zk4_instance)
    # delete one E3 (copy) edge: cost 1, head is a primed label
    idx = next(i for i, e in enumerate(data["edges"])
               if e["cost"] == "1/1" and e["head"].endswith("'"))
    del data["edges"][idx]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    report = tmp_path / "verify.json"
    rc = main(["verify", str(path), "--json-out", str(report)])
    out = capsys.readouterr().out
    assert rc == EXIT_FALSE
    assert "FAIL terminal" in out
    assert "2/3" in out
    # the copy edge of B-vertex {1,2,3} is gone: only (1 2) still maps
    # every edge to an edge, and it swaps terminals 1 and 2
    payload = json.loads(report.read_text())
    assert payload["automorphisms"] == ["(1 2)"]
    assert payload["orbit_representatives"] == ["1", "3", "4"]


# Reads a JSON list of argument lists on stdin, calls cli.main once per list
# and writes a JSON list of [exit code, stdout, stderr], one per call.
_BATCH = """
import contextlib, io, json, sys
from dstgap.cli import main
runs = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
json.dump(runs, sys.stdout)
"""

Run = collections.namedtuple("Run", "returncode stdout stderr")


def _run_cli(flags, *argvs):
    """The Run of each argument list, in order, all from one
    `python [flags]` child that calls cli.main once per list."""
    src = os.path.dirname(os.path.dirname(dstgap.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _BATCH], input=json.dumps(argvs),
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    runs = [Run(*run) for run in json.loads(proc.stdout)]
    assert len(runs) == len(argvs)
    return runs


def test_cli_imports_no_dataclasses_or_inspect():
    # dataclasses, and the inspect it imports, cost a command about 20 ms
    # of start-up; no module of the package may pull them in
    src = os.path.dirname(os.path.dirname(dstgap.__file__))
    names = sorted(name[:-3] for name in os.listdir(dstgap.__path__[0])
                   if name.endswith(".py") and name != "__init__.py")
    child = ("import importlib, sys\n"
             "import dstgap.cli\n"
             "for name in sys.argv[1:]:\n"
             "    importlib.import_module('dstgap.' + name)\n"
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-c", child, *names],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, ""), flags
        assert proc.stdout == "[]\n", flags


def test_gen_imports_no_solver(tmp_path):
    # the package and cli import a solver's module only in the command that
    # runs it, so gen, which writes a file, runs none of their bodies
    src = os.path.dirname(os.path.dirname(dstgap.__file__))
    child = ("import json, sys\n"
             "from dstgap.cli import main\n"
             "code = main(['gen', '--family=zk', '--k=4', '--out', "
             "sys.argv[1]])\n"
             "print(json.dumps([code, sorted(sys.modules)]))")
    proc = subprocess.run([sys.executable, "-c", child,
                           str(tmp_path / "zk4.json")],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == EXIT_OK
    loaded = set(modules)
    assert not loaded & {"dstgap.flows", "dstgap.simplex", "dstgap.lp",
                         "dstgap.integral", "dstgap.bounds"}, loaded
    assert "dstgap.families" in loaded


def test_verify_wrong_s_is_invalid_witness(tmp_path, zk4_instance):
    # meta.s = 2 against 3 matching edges per color: the loader rejects the
    # file (exit 3, one error line), the same with or without python -O
    data = model.instance_to_dict(zk4_instance)
    data["meta"]["s"] = 2
    path = tmp_path / "s2.json"
    path.write_text(json.dumps(data))
    stdouts = []
    for flags in ([], ["-O"]):
        (proc,) = _run_cli(flags, ["verify", str(path)])
        assert proc.returncode == EXIT_BAD_INPUT, flags
        assert "Traceback" not in proc.stderr, flags
        assert "color-classes-are-matchings-of-size-s" in proc.stderr, flags
        stdouts.append(proc.stdout)
    assert stdouts[0] == stdouts[1]


def _set_e1_costs(text):
    def mutate(data):
        for entry in data["edges"]:
            if entry["tail"] == "r":
                entry["cost"] = text
    return mutate


def _set_first_cost(text):
    def mutate(data):
        data["edges"][0]["cost"] = text
    return mutate


def _set_meta(key, value):
    def mutate(data):
        data["meta"][key] = value
    return mutate


def _set_param(key, value):
    def mutate(data):
        data["meta"]["params"][key] = value
    return mutate


def _del_param(key):
    def mutate(data):
        del data["meta"]["params"][key]
    return mutate


def _repeat_first_edge(data):
    data["edges"].insert(1, dict(data["edges"][0]))


def _missing_e4_edges(data):
    """Every edge pi(v) -> t, cost 0, for a color t that is not at v."""
    listed = {(e["tail"], e["head"]) for e in data["edges"]}
    return [{"tail": vp, "head": t, "cost": "0/1"}
            for vp in data["levels"][3] for t in data["levels"][4]
            if (vp, t) not in listed]


def _add_e4_edge(data):
    data["edges"].append(_missing_e4_edges(data)[0])


def _check_tampered(runs, code):
    for (command, flags), proc in runs:
        assert proc.returncode == code, (command, flags, proc.stderr)
        assert "Traceback" not in proc.stderr, (command, flags)
        if code == EXIT_BAD_INPUT:
            assert proc.stderr.startswith("error: cannot load instance")
            assert len(proc.stderr.splitlines()) == 1, proc.stderr


# case id -> (mutation of the file's dict tree, the exit code of verify and
# certify on the mutated file)
ZK4_TAMPERED = {
    "e1-cost-5": (_set_e1_costs("5/1"), EXIT_BAD_INPUT),  # would give OPT < LP
    "cost-negative": (_set_first_cost("-2/3"), EXIT_BAD_INPUT),
    "cost-zero-den": (_set_first_cost("1/0"), EXIT_BAD_INPUT),
    "s-2": (_set_meta("s", 2), EXIT_BAD_INPUT),
    "s-0": (_set_meta("s", 0), EXIT_BAD_INPUT),
    "k-5": (_set_meta("k", 5), EXIT_BAD_INPUT),
    "d-prime-0": (_set_meta("d_prime", 0), EXIT_BAD_INPUT),
    "repeated-e1-edge": (_repeat_first_edge, EXIT_BAD_INPUT),
    # no a, m, thresh
    "family-subset": (_set_meta("family", "subset"), EXIT_BAD_INPUT),
    # passes the counting identity
    "s-float": (_set_meta("s", 3.0), EXIT_BAD_INPUT),
    "params-k-9": (_set_param("k", 9), EXIT_BAD_INPUT),
    "params-k-float": (_set_param("k", 4.0), EXIT_BAD_INPUT),
    # not an edge of the objects' instance
    "extra-e4-edge": (_add_e4_edge, EXIT_BAD_INPUT),
    # the class cost 2/3, spelled otherwise
    "e1-cost-4/6": (_set_e1_costs("4/6"), EXIT_OK),
}

# case id -> (mutation of zk4's dict tree, in place or returning a new
# tree, and the text of the one error line that verify and certify print,
# exit 3)
ZK4_MALFORMED = {
    "level-2-label-null": (
        lambda data: data["levels"][2].__setitem__(0, None),
        "level-2 label None is not a string"),
    "cost-number": (_set_first_cost(0), "edge 'r' -> '{1,2}' has cost 0,"),
    "color-on-e1-edge": (
        lambda data: data["edges"][0].__setitem__("color", "1"),
        "edge 'r' -> '{1,2}' has color '1', but a color"),
    "params-list": (_set_meta("params", [["k", 4]]),
                    "meta.params is [['k', 4]], not an object"),
    "family-list": (_set_meta("family", []), "meta.family is [], not a string"),
    "top-level-list": (lambda data: [data], "the file is [{"),
    "meta-list": (lambda data: data.__setitem__("meta", ["zk"]),
                  "meta is ['zk'], not an object"),
    "no-meta-d": (lambda data: data["meta"].__delitem__("d"),
                  "meta has no 'd'"),
    "level-2-number": (lambda data: data["levels"].__setitem__(2, 5),
                       "levels[2] is 5, not a list"),
    "level-1-list-label": (
        lambda data: data["levels"][1].__setitem__(0, ["1", "2"]),
        "level-1 label ['1', '2'] is a list or an object"),
    "pi-list": (lambda data: data.__setitem__("pi", []),
                "pi is [], not an object"),
    "edge-number": (lambda data: data["edges"].__setitem__(0, 7),
                    "edge entry 7 is not an object"),
    "no-edge-cost": (lambda data: data["edges"][0].__delitem__("cost"),
                     "edge entry {'head': '{1,2}', 'tail': 'r'} has no 'cost'"),
    "no-edge-tail": (lambda data: data["edges"][0].__delitem__("tail"),
                     "edge entry {'cost': '2/3', 'head': '{1,2}'} has no 'tail'"),
    "no-color-edge-tail": (
        lambda data: next(e for e in data["edges"]
                          if "color" in e).__delitem__("tail"),
        "edge entry {'color': '3', 'cost': '0/1', 'head': '{1,2,3}'} has no "
        "'tail'"),
    "edge-list-tail": (lambda data: data["edges"][0].__setitem__("tail", ["r"]),
                       "edge entry {'cost': '2/3', 'head': '{1,2}', "
                       "'tail': ['r']} has a list or an object as a label"),
    "edge-object-color": (
        lambda data: next(e for e in data["edges"]
                          if "color" in e).__setitem__("color", {}),
        "edge entry {'color': {}, 'cost': '0/1', 'head': '{1,2,3}', "
        "'tail': '{1,2}'} has a list or an object as a label"),
    # the file's text in place of its tree: deeper than json.loads recurses
    "deeply-nested": (lambda data: "[" * 200_000, "nested too deeply"),
    "deeply-nested-meta": (lambda data: '{\n "meta": ' + "[" * 200_000,
                           "nested too deeply"),
}

M6_TAMPERED = {
    "no-thresh": (_del_param("thresh"), EXIT_BAD_INPUT),
    "thresh-str": (_set_param("thresh", "1"), EXIT_BAD_INPUT),
    "thresh-null": (_set_param("thresh", None), EXIT_BAD_INPUT),
    "thresh-2": (_set_param("thresh", 2), EXIT_BAD_INPUT),  # need thresh < a
    "no-a": (_del_param("a"), EXIT_BAD_INPUT),
    "m-7": (_set_param("m", 7), EXIT_BAD_INPUT),  # C(7, 2) != k
    "family-zk": (_set_meta("family", "zk"), EXIT_BAD_INPUT),
    "thresh-0": (_set_param("thresh", 0), EXIT_OK),
}


def _in_gen_layout(edit):
    """The edit, then the tree's text as gen lays it out, so that the
    loader generates the family that the edited meta names first."""
    def mutate(data):
        edit(data)
        return json.dumps(data, indent=1) + "\n"
    return mutate


# case id -> (the family file, its edit); verify and certify exit 3 with
# one error line that names the family-params check
FAMILY_PARAMS_MISFITS = {
    # C(4,000,000, 2,000,000) has about 1.2 million digits
    "m6-huge-params": ("m6", _in_gen_layout(
        lambda data: data["meta"]["params"].update(m=4_000_000, a=2_000_000))),
    # d = 3 and d' = 2 where zk4 has 2 and 3
    "m4a1-as-zk4": ("m4a1", _in_gen_layout(
        lambda data: data["meta"].update(family="zk", params={"k": 4}))),
    # two copies of zk4 sharing its colors: zk4's k, d and d', but |A| = 12,
    # |B| = 8 and s = 6 where zk4 has 6, 4 and 3
    "zk4-twice-as-zk4": ("zk4-twice", _in_gen_layout(
        lambda data: data["meta"].update(family="zk", params={"k": 4}))),
}


@pytest.fixture(scope="module")
def tampered_runs(tmp_path_factory, zk4_instance, subset_m6_instance):
    """(instance name, case id) -> ((command, flags), Run) for verify and
    certify on that tampered file, under python and python -O.  One child
    per interpreter runs every case."""
    tmp = tmp_path_factory.mktemp("tampered")
    instances = {"zk4": zk4_instance, "m6": subset_m6_instance,
                 "m4a1": model.build_instance(families.subset_objects(4, 1)),
                 "zk4-twice": model.build_instance(
                     two_copies(families.zk_objects(4), 4))}
    cases = [(name, case, mutate)
             for name, table in (("zk4", ZK4_TAMPERED), ("zk4", ZK4_MALFORMED),
                                 ("m6", M6_TAMPERED))
             for case, (mutate, _) in table.items()]
    cases += [(name, case, mutate)
              for case, (name, mutate) in FAMILY_PARAMS_MISFITS.items()]
    keys, argvs = [], []
    for name, case, mutate in cases:
        data = model.instance_to_dict(instances[name])
        replaced = mutate(data)
        path = tmp / f"tampered{len(argvs)}.json"
        path.write_text(replaced if type(replaced) is str else
                        json.dumps(data if replaced is None else replaced))
        for command in ("verify", "certify"):
            keys.append((name, case, command))
            argvs.append([command, str(path)])
    runs = collections.defaultdict(list)
    for flags in ([], ["-O"]):
        for (name, case, command), run in zip(keys, _run_cli(flags, *argvs)):
            runs[name, case].append(((command, flags), run))
    return runs


@pytest.mark.parametrize("case", list(ZK4_TAMPERED))
def test_tampered_zk4_files(tampered_runs, case):
    _check_tampered(tampered_runs["zk4", case], ZK4_TAMPERED[case][1])


@pytest.mark.parametrize("case", list(M6_TAMPERED))
def test_tampered_m6_files(tampered_runs, case):
    _check_tampered(tampered_runs["m6", case], M6_TAMPERED[case][1])


@pytest.mark.parametrize("case", list(ZK4_MALFORMED))
def test_malformed_zk4_files_name_the_fault(tampered_runs, case):
    runs = tampered_runs["zk4", case]
    _check_tampered(runs, EXIT_BAD_INPUT)
    for (command, flags), proc in runs:
        assert ZK4_MALFORMED[case][1] in proc.stderr, (command, flags)


@pytest.mark.parametrize("case", list(FAMILY_PARAMS_MISFITS))
def test_family_params_misfits_exit_3(tampered_runs, case):
    runs = tampered_runs[FAMILY_PARAMS_MISFITS[case][0], case]
    _check_tampered(runs, EXIT_BAD_INPUT)
    for (command, flags), proc in runs:
        assert "family-params" in proc.stderr, (command, flags)


def _drop_e3_edge(data):
    data["edges"].remove(next(e for e in data["edges"] if e["cost"] == "1/1"))


# case id -> (instance, edit of its file's dict tree, the exit codes of
# verify and certify on the edited file)
EDITED_FAMILY_FILES = {
    "zk4-edge-dropped": ("zk4", _drop_e3_edge, EXIT_FALSE, EXIT_OK),
    "zk4-cost-4/6": ("zk4", _set_first_cost("4/6"), EXIT_OK, EXIT_OK),
    "zk4-cost-5/1": ("zk4", _set_first_cost("5/1"), EXIT_BAD_INPUT,
                     EXIT_BAD_INPUT),
    "zk4-meta-s-2": ("zk4", _set_meta("s", 2), EXIT_BAD_INPUT, EXIT_BAD_INPUT),
    "m6-thresh-0": ("m6", _set_param("thresh", 0), EXIT_OK, EXIT_OK),
    "m6-meta-d-prime-7": ("m6", _set_meta("d_prime", 7), EXIT_BAD_INPUT,
                          EXIT_BAD_INPUT),
}


@pytest.mark.parametrize("case", list(EDITED_FAMILY_FILES))
def test_edited_family_files_keep_their_exit_codes(request, tmp_path, capsys,
                                                   case):
    # written as gen writes them, so the loader renders the family first
    name, edit, *codes = EDITED_FAMILY_FILES[case]
    data = json.loads(request.getfixturevalue(f"{name}_file").read_text())
    edit(data)
    text = json.dumps(data, indent=1) + "\n"
    path = tmp_path / "edited.json"
    path.write_text(text)

    def outcome(load):  # the instance, or the ValueError's message
        try:
            return load(text.encode())
        except ValueError as exc:
            return str(exc)

    assert outcome(model.instance_from_json) == outcome(
        lambda data: model.instance_from_dict(json.loads(data)))
    for command, code in zip(("verify", "certify"), codes):
        assert main([command, str(path)]) == code, command
        err = capsys.readouterr().err
        if code == EXIT_BAD_INPUT:
            assert err.startswith("error: cannot load instance"), command
        else:
            assert err == "", command


def test_edges_outside_objects_exit_3(tmp_path, subset_m6_instance):
    # m6 with every missing pi(v) -> t edge; loaded as listed, it would give
    # certify --sweep OPT >= 3, brute force OPT 2 and the structured solver 5
    data = model.instance_to_dict(subset_m6_instance)
    data["edges"] += _missing_e4_edges(data)
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(data))
    argvs = [[argv[0], str(path), *argv[1:]]
             for argv in (["verify"], ["certify", "--sweep"],
                          ["solve", "--method", "brute"],
                          ["solve", "--method", "structured"])]
    for flags in ([], ["-O"]):
        for argv, proc in zip(argvs, _run_cli(flags, *argvs)):
            assert proc.returncode == EXIT_BAD_INPUT, (argv, flags)
            assert proc.stderr.startswith("error: cannot load instance")
            assert len(proc.stderr.splitlines()) == 1, proc.stderr
            assert proc.stdout == ""


def _relabel(data, level, old, new):
    """The file with vertex `old` of `level` renamed `new`."""
    levels = data["levels"][level]
    levels[levels.index(old)] = new
    for entry in data["edges"]:
        for key in ("tail", "head", "color"):
            if entry.get(key) == old:
                entry[key] = new


def test_invalid_objects_exit_3_naming_invariants(tmp_path, zk4_instance):
    # one level-2 edge left out: the error is one line that names each
    # failing invariant with its witness, also for a label holding "\n"
    argvs, witnesses = [], []
    for label in ("{1,2}", "{1,\n2}"):
        data = model.instance_to_dict(zk4_instance)
        _relabel(data, 1, data["levels"][1][0], label)
        edge = next(e for e in data["edges"] if e["tail"] == label)
        data["edges"].remove(edge)
        path = tmp_path / f"invalid{len(argvs)}.json"
        path.write_text(json.dumps(data))
        argvs.append(["verify", str(path)])
        witnesses.append((label, edge["head"]))
    for flags in ([], ["-O"]):
        for (a, b), proc in zip(witnesses, _run_cli(flags, *argvs)):
            assert proc.returncode == EXIT_BAD_INPUT, (flags, proc.stderr)
            assert proc.stderr.count("\n") == 1, proc.stderr
            assert proc.stderr.startswith("error: cannot load instance")
            assert f"a-regular (A-vertices with degree != d=2: {[a]})" \
                in proc.stderr
            assert f"b-regular (B-vertices with degree != d'=3: {[b]})" \
                in proc.stderr


def test_loader_messages_quote_labels(tmp_path, zk4_instance, capsys):
    # a file edge the objects do not define, to a label holding "\n"
    data = model.instance_to_dict(zk4_instance)
    data["edges"].append({"tail": "r", "head": "{1,\n9}", "cost": "2/3"})
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    assert "edge 'r' -> '{1,\\n9}' is not an edge" in err


def test_integer_labels_run_as_zk4(tmp_path, zk4_instance, zk4_file):
    # a file's labels need not be strings: with integer terminals zk4
    # verifies, certifies and solves as its file of string labels does
    data = model.instance_to_dict(zk4_instance)
    for t in list(data["levels"][4]):
        _relabel(data, 4, t, int(t))
    numbered = tmp_path / "numbered.json"
    numbered.write_text(json.dumps(data))
    commands = (["verify"], ["certify"], ["solve"])
    argvs = [[c[0], str(path)] for path in (zk4_file, numbered)
             for c in commands]
    for flags in ([], ["-O"]):
        runs = _run_cli(flags, *argvs)
        assert all(run.returncode == EXIT_OK for run in runs), runs
        assert runs[:3] == runs[3:], flags
        assert "alpha            1/1" in runs[1].stdout
        assert "structured OPT   8/3" in runs[2].stdout


@pytest.mark.parametrize("level, label", [(1, "x0"), (1, 1.5), (1, True),
                                          (1, "{1,\n2"), (4, None)])
def test_label_naming_no_set(tmp_path, zk4_instance, level, label):
    # a label that names no set: verify and solve run without label
    # automorphisms, and certify, which needs J-sets, exits 3 naming it
    data = model.instance_to_dict(zk4_instance)
    _relabel(data, level, data["levels"][level][0], label)
    path = tmp_path / "labelled.json"
    path.write_text(json.dumps(data))
    argvs = [["verify", str(path)], ["solve", str(path)],
             ["certify", str(path)]]
    for flags in ([], ["-O"]):
        verify, solve, certify = _run_cli(flags, *argvs)
        assert verify.returncode == solve.returncode == EXIT_OK, flags
        assert "verified: feasible" in verify.stdout
        assert "structured OPT   8/3" in solve.stdout
        assert "certified alpha" not in solve.stdout
        assert certify.returncode == EXIT_BAD_INPUT, (flags, certify)
        assert certify.stderr.count("\n") == 1, certify.stderr
        assert f"label {label!r} names no set" in certify.stderr
        assert certify.stdout == ""


def test_certify_thresh_out_of_range_exits_2(m6_file, capsys):
    assert main(["certify", str(m6_file), "--thresh", "2"]) == EXIT_BAD_PARAMS
    assert "need 0 <= thresh < 2" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["zk9_instance", "subset_m6_instance"])
def test_shuffled_edges_give_same_outputs(request, tmp_path, capsys, name):
    # the loaded columns follow build order, so file order changes nothing
    data = model.instance_to_dict(request.getfixturevalue(name))
    original = tmp_path / "original.json"
    original.write_text(json.dumps(data))
    random.Random(1).shuffle(data["edges"])
    shuffled = tmp_path / "shuffled.json"
    shuffled.write_text(json.dumps(data))
    sweep = ["--sweep"] if name.startswith("subset") else []
    commands = (["verify", "--json-out"], ["certify", *sweep, "--out"],
                ["solve", "--method", "structured", "--out"])
    outputs = []
    for path in (original, shuffled):
        runs = []
        for argv in commands:
            report = tmp_path / "report.json"
            assert main([argv[0], str(path), *argv[1:], str(report)]) \
                == EXIT_OK
            payload = json.loads(report.read_text())
            del payload["header"]
            runs.append((capsys.readouterr().out, payload))
        outputs.append(runs)
    assert outputs[0] == outputs[1]


def test_verify_bad_file(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert main(["verify", str(empty)]) == EXIT_BAD_INPUT
    assert main(["verify", str(tmp_path / "missing.json")]) == EXIT_BAD_INPUT


# ---------------------------------------------------------------------------
# instance hashes: SHA-256 of the instance file's bytes

def _file_sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_gen_prints_file_sha256(tmp_path, capsys, zk4_instance):
    out = tmp_path / "zk4.json"
    assert main(["gen", "--family", "zk", "--k", "4", "--out", str(out)]) \
        == EXIT_OK
    line = next(ln for ln in capsys.readouterr().out.splitlines()
                if ln.startswith("sha256"))
    assert line.split()[1] == _file_sha256(out)
    assert line.split()[1] == model.instance_sha256(zk4_instance)


@pytest.mark.parametrize("compact", [False, True])
def test_report_headers_hash_file_bytes(tmp_path, zk4_instance, compact):
    path = tmp_path / "zk4.json"
    if compact:  # no indent: differs from the file gen writes
        path.write_text(json.dumps(model.instance_to_dict(zk4_instance)))
    else:
        path.write_text(model.instance_to_json(zk4_instance))
    expected = _file_sha256(path)
    assert (expected == model.instance_sha256(zk4_instance)) != compact
    commands = (["verify", str(path), "--json-out"],
                ["certify", str(path), "--out"],
                ["solve", str(path), "--method", "structured", "--out"])
    for i, argv in enumerate(commands):
        report = tmp_path / f"report{i}.json"
        assert main(argv + [str(report)]) == EXIT_OK
        header = json.loads(report.read_text())["header"]
        assert header["instance_sha256"] == expected, argv[0]


@pytest.mark.parametrize("edit, code", [
    # a newline between two edge entries made a space: the same instance
    (lambda text: text.replace("},\n  {", "},   {", 1), EXIT_OK),
    # zk4's root edges cost 4/6, so a root edge at 2/5 is a bad file
    (lambda text: text.replace('"cost": "2/3"', '"cost": "2/5"', 1),
     EXIT_BAD_INPUT),
], ids=["layout", "cost"])
def test_one_edited_byte_builds_once(tmp_path, zk4_file, monkeypatch, capsys,
                                     edit, code):
    # a family file with one byte changed fails the re-render compare,
    # which builds nothing; the full loader then builds the instance once
    text = zk4_file.read_text()
    edited = tmp_path / "edited.json"
    edited.write_text(edit(text))
    assert len(edited.read_bytes()) == len(text)
    assert sum(x != y for x, y in zip(edited.read_text(), text)) == 1
    callers = []
    build = model.build_instance

    def spy(objects):
        callers.append(sys._getframe(1).f_code.co_name)
        return build(objects)

    monkeypatch.setattr(model, "build_instance", spy)
    for argv in (["verify"], ["certify"], ["solve", "--method=structured"]):
        assert main(argv[:1] + [str(zk4_file)] + argv[1:]) == EXIT_OK
        # the file as gen writes it is built by verify and solve alone
        assert callers == ([] if argv[0] == "certify"
                           else ["instance_from_json"])
        stdout = capsys.readouterr().out
        callers.clear()
        assert main(argv[:1] + [str(edited)] + argv[1:]) == code, argv
        assert callers == ["instance_from_dict"], argv
        if code == EXIT_OK:
            assert capsys.readouterr().out == stdout
        callers.clear()


# ---------------------------------------------------------------------------
# certify

def test_certify_zk4(zk4_file, tmp_path, capsys):
    out = tmp_path / "cert.json"
    rc = main(["certify", str(zk4_file), "--out", str(out)])
    assert rc == EXIT_OK
    assert "alpha            1/1" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["alpha"] == "1/1"
    assert payload["opt_lower_bound"] == "4/3"
    assert payload["gap_lower_bound"] == "1/2"


def test_certify_sweep(m6_file, capsys):
    rc = main(["certify", str(m6_file), "--sweep"])
    text = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "alpha            6/5" in text
    assert "thresh           1" in text


def test_certify_family_less_file_exits_3(tmp_path, zk4_instance, capsys):
    # without meta.family the file loads as "generic", which has no default
    # J-sets: the file is at fault, whatever the flags
    data = model.instance_to_dict(zk4_instance)
    del data["meta"]["family"]
    path = tmp_path / "nofamily.json"
    path.write_text(json.dumps(data))
    for flags in ([], ["--sweep"], ["--thresh", "0"]):
        assert main(["certify", str(path), *flags]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'generic'" in err, flags


def test_certify_sweep_rejected_for_zk(zk4_file):
    assert main(["certify", str(zk4_file), "--sweep"]) == EXIT_BAD_PARAMS


def test_certify_thresh_rejected_for_zk(zk4_file, tmp_path, capsys):
    out = tmp_path / "cert.json"
    rc = main(["certify", str(zk4_file), "--thresh", "3", "--out", str(out)])
    assert rc == EXIT_BAD_PARAMS
    captured = capsys.readouterr()
    assert "--thresh only applies to the subset family" in captured.err
    assert "thresh" not in captured.out
    assert not out.exists()


# ---------------------------------------------------------------------------
# solve

def test_solve_zk4_all(zk4_file, tmp_path, capsys):
    out = tmp_path / "solve.json"
    rc = main(["solve", str(zk4_file), "--method", "all", "--out", str(out)])
    text = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "structured OPT   8/3" in text
    assert "brute OPT        8/3" in text
    assert "LP value         2/1 (duality certified)" in text
    assert "certified alpha  1/1" in text
    assert "canonical cost   8/3" in text
    assert "observed OPT/LP  4/3" in text
    payload = json.loads(out.read_text())
    assert payload["structured"]["value"] == "8/3"
    assert payload["brute"]["value"] == "8/3"
    assert payload["lp"]["duality_certified"]
    assert payload["certificate"]["alpha"] == "1/1"


def test_solve_terminal_cut_off_exits_0(tmp_path, zk4_instance):
    # zk4 with every edge into terminal 1 left out: all three methods report
    # the instance infeasible, exit 0, under python and python -O; the LP's
    # report says that its Farkas vector passed the exact check
    data = model.instance_to_dict(zk4_instance)
    data["edges"] = [e for e in data["edges"] if e["head"] != "1"]
    path = tmp_path / "cut-off.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "solve.json"
    for flags in ([], ["-O"]):
        (proc,) = _run_cli(flags, ["solve", str(path), "--out", str(out)])
        assert proc.returncode == EXIT_OK, (flags, proc.stderr)
        assert proc.stderr == "", flags
        assert proc.stdout.splitlines()[:3] == [
            "structured: INFEASIBLE",
            "brute: INFEASIBLE, unreachable ('1',)",
            "lp: INFEASIBLE"], flags
        payload = json.loads(out.read_text())
        assert payload["structured"] == {"feasible": False}
        assert payload["lp"] == {"feasible": False, "farkas_certified": True}
        assert payload["brute"] == {"feasible": False, "unreachable": ["1"]}


def test_solve_budget_stop_reports_certified_bound(tmp_path, zk9_instance,
                                                  monkeypatch, capsys):
    # stopped after one candidate, the search's own bound is the root's
    # 15/4; the certificate of the same run proves OPT >= 9/2
    path = tmp_path / "zk9.json"
    path.write_text(model.instance_to_json(zk9_instance))
    solve = integral.solve_structured
    assert solve(zk9_instance, budget=1).lower_bound == Fraction(15, 4)
    monkeypatch.setattr(integral, "solve_structured",
                        lambda inst: solve(inst, budget=1))
    out = tmp_path / "solve.json"
    assert main(["solve", str(path), "--method", "structured",
                 "--out", str(out)]) == EXIT_OK
    assert "OPT >= 9/2" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["structured"]["optimal"] is False
    assert payload["structured"]["lower_bound"] == "9/2"


def test_solve_brute_cap(tmp_path, zk9_instance):
    path = tmp_path / "zk9.json"
    path.write_text(model.instance_to_json(zk9_instance))
    assert main(["solve", str(path), "--method", "brute"]) == EXIT_CAP


def test_solve_lp_certifies_without_the_simplex(zk4_file, tmp_path,
                                                monkeypatch, capsys):
    def simplex_ran(*lp_data):
        raise RuntimeError("the simplex ran")

    monkeypatch.setattr(simplex, "solve_lp", simplex_ran)
    out = tmp_path / "solve.json"
    assert main(["solve", str(zk4_file), "--method", "lp",
                 "--out", str(out)]) == EXIT_OK
    assert "LP value         2/1 (duality certified)\n" \
        in capsys.readouterr().out
    assert json.loads(out.read_text())["lp"] == {
        "value": "2/1", "duality_certified": True,
        "certificate": "cut-packing"}


def test_solve_lp_less_one_edge_falls_back_to_the_simplex(
        tmp_path, zk4_instance, capsys):
    # zk4 less its first E1, E3 or E4 edge: the LP point is infeasible,
    # and solve reports the simplex's optimum
    data = model.instance_to_dict(zk4_instance)
    path, out = tmp_path / "less.json", tmp_path / "solve.json"
    for klass, value in ((model.E1, "2/1"), (model.E3, "13/6"),
                         (model.E4, "13/6")):
        drop = zk4_instance.classes.index(klass)
        path.write_text(json.dumps(dict(
            data, edges=data["edges"][:drop] + data["edges"][drop + 1:])))
        assert main(["solve", str(path), "--method", "lp",
                     "--out", str(out)]) == EXIT_OK
        assert f"LP value         {value} (duality certified)\n" \
            in capsys.readouterr().out
        assert json.loads(out.read_text())["lp"] == {
            "value": value, "duality_certified": True,
            "certificate": "simplex"}


def test_solve_lp_past_the_simplex_cap(tmp_path, zk9_instance, capsys):
    # zk9 and m7a3 have more LP variables than --lp-cap's default allows the
    # simplex, and their LP point certifies; zk9 less one copy edge falls
    # back to the simplex, which the cap stops
    m7a3 = model.build_instance(families.subset_objects(7, 3, 1))
    path = tmp_path / "inst.json"
    for inst, value in ((zk9_instance, "15/4"), (m7a3, "39/20")):
        path.write_text(model.instance_to_json(inst))
        assert main(["solve", str(path), "--method", "lp"]) == EXIT_OK
        assert f"LP value         {value} (duality certified)\n" \
            in capsys.readouterr().out
    data = model.instance_to_dict(zk9_instance)
    drop = zk9_instance.classes.index(model.E3)
    path.write_text(json.dumps(dict(
        data, edges=data["edges"][:drop] + data["edges"][drop + 1:])))
    assert main(["solve", str(path), "--method", "lp",
                 "--lp-cap", "10"]) == EXIT_CAP
    assert "> cap 10\n" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# bounds

def test_bounds_sweep(tmp_path, capsys):
    csv = tmp_path / "bounds.csv"
    js = tmp_path / "bounds.json"
    rc = main(["bounds", "--m-list", "64,128", "--csv", str(csv),
               "--json-out", str(js)])
    assert rc == EXIT_OK
    lines = csv.read_text().splitlines()
    assert lines[0] == ("m,exact_tail_JA,bound_JA,exact_tail_KB,bound_KB,"
                        "k_over_d,bound_k_over_d,alpha,log_alpha_over_m")
    assert len(lines) == 3 and lines[1].startswith("64,")
    payload = json.loads(js.read_text())
    assert all(row["satisfied"] for row in payload["rows"])
    assert payload["rows"][0]["exact_tail_kb"] == "17/70"
    assert "ok" in capsys.readouterr().out


def test_bounds_m_list_from_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m_list = 64,128\n")
    assert main(["bounds", "--config", str(cfg)]) == EXIT_OK
    text = capsys.readouterr().out
    assert text.startswith("m=   64 ") and "m=  128 " in text


def test_bounds_alpha_past_float_range(tmp_path, capsys, monkeypatch):
    # float() of a value past float range raises OverflowError, as alpha
    # does from m = 86016 on; stdout and the CSV print it as inf-like
    real = bounds.alpha_asymptotics
    monkeypatch.setattr(bounds, "alpha_asymptotics", lambda m_list: [
        row._replace(alpha=Fraction(10**400)) for row in real(m_list)])
    csv = tmp_path / "bounds.csv"
    assert main(["bounds", "--m-list", "64", "--csv", str(csv)]) == EXIT_OK
    assert capsys.readouterr().out.endswith("  alpha inf-like  ok\n")
    assert csv.read_text().splitlines()[1].split(",")[7] == "inf-like"


def test_bounds_bad_params():
    assert main(["bounds", "--m-list", "65"]) == EXIT_BAD_PARAMS


# ---------------------------------------------------------------------------
# plumbing

def test_unknown_subcommand():
    assert main(["frobnicate"]) == EXIT_BAD_PARAMS


def test_abbreviated_options_exit_2(tmp_path, capsys):
    # no parser takes an abbreviation, so "--c" is not read as "--config"
    # (bounds has --csv too) and "--conf" is not "--config" either
    cfg = tmp_path / "c.cfg"
    cfg.write_text("k = 4\n")
    out = tmp_path / "out.csv"
    assert main(["bounds", "--m-list", "64", "--c", str(out)]) \
        == EXIT_BAD_PARAMS
    assert main(["gen", "--family", "zk", "--conf", str(cfg)]) \
        == EXIT_BAD_PARAMS
    assert "unrecognized arguments: --c " in capsys.readouterr().err
    assert not out.exists()


def test_internal_error_exits_5(zk4_file, monkeypatch, capsys):
    def fail(*args):
        raise RuntimeError("flow layer failed")

    monkeypatch.setattr(flows, "verify_feasibility", fail)
    assert main(["verify", str(zk4_file)]) == EXIT_INTERNAL
    assert capsys.readouterr().err == \
        "error: internal error: RuntimeError: flow layer failed\n"


@pytest.mark.parametrize("buffered", [False, True],
                         ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_closed_stdout_is_a_normal_end(zk4_file, flags, buffered):
    # the reader closes the pipe before dstgap writes, as `| head -0` does:
    # no error line and exit 0, whether the write that fails is a print
    # (unbuffered) or the final flush (buffered)
    src = os.path.dirname(os.path.dirname(dstgap.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, *flags, "-m", "dstgap.cli", "verify", str(zk4_file)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == EXIT_OK
    assert err == ""


def test_atomic_write(tmp_path):
    target = tmp_path / "out.txt"
    cli.atomic_write(str(target), "hello\n")
    assert target.read_text() == "hello\n"
    assert not (tmp_path / "out.txt.tmp").exists()


def test_output_through_symlink_writes_its_target(tmp_path, zk4_file):
    target = tmp_path / "target.json"
    target.write_text("old\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    argv = ["gen", "--family", "zk", "--k", "4", "--out", str(link)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == EXIT_OK
    assert link.is_symlink() and link.resolve() == target
    assert target.read_text() == zk4_file.read_text()
    assert sorted(os.listdir(tmp_path)) == ["link.json", "target.json",
                                            "zk4.json"]


def test_output_to_fifo_exits_2(tmp_path, zk4_file, capsys):
    fifo = tmp_path / "pipe.json"
    os.mkfifo(fifo)
    rc = main(["verify", str(zk4_file), "--json-out", str(fifo)])
    assert rc == EXIT_BAD_PARAMS
    err = capsys.readouterr().err
    assert err == f"error: cannot write {fifo}: not a regular file\n"
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert sorted(os.listdir(tmp_path)) == ["pipe.json", "zk4.json"]


def test_unwritable_output_exits_2(tmp_path, zk4_file):
    # every output flag, to a missing directory or over a directory: one
    # error line, exit 2 and no .tmp file left, under python and python -O
    missing = tmp_path / "missing"
    taken = tmp_path / "taken"
    taken.mkdir()
    argvs = [
        ["gen", "--family", "zk", "--k", "4", "--out", f"{missing}/f.json"],
        ["gen", "--family", "zk", "--k", "4", "--out", str(taken)],
        ["gen", "--family", "zk", "--k", "4", "--dot", f"{missing}/g.dot"],
        # neither file is written, so f.json does not appear
        ["gen", "--family", "zk", "--k", "4", "--out", f"{tmp_path}/f.json",
         "--dot", f"{missing}/g.dot"],
        ["gen", "--family", "zk", "--k", "4", "--out", f"{tmp_path}/f.json",
         "--dot", str(taken)],
        ["verify", str(zk4_file), "--json-out", f"{missing}/r.json"],
        ["certify", str(zk4_file), "--out", f"{missing}/c.json"],
        ["solve", str(zk4_file), "--method", "structured",
         "--out", f"{missing}/s.json"],
        ["bounds", "--m-list", "64", "--csv", f"{missing}/b.csv"],
        ["bounds", "--m-list", "64", "--json-out", str(taken)],
        ["bounds", "--m-list", "64", "--csv", f"{tmp_path}/b.csv",
         "--json-out", str(taken)],
    ]
    for flags in ([], ["-O"]):
        for argv, proc in zip(argvs, _run_cli(flags, *argvs)):
            assert proc.returncode == EXIT_BAD_PARAMS, (argv, flags)
            assert proc.stderr.startswith(f"error: cannot write {argv[-1]}: ")
            assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert sorted(os.listdir(tmp_path)) == ["taken", "zk4.json"]
    assert not any(taken.iterdir())


def test_gen_writes_nothing_when_dot_is_capped(tmp_path, monkeypatch,
                                               capsys):
    # the DOT cap is hit after the instance is built: neither file appears
    to_dot = model.instance_to_dot
    monkeypatch.setattr(model, "instance_to_dot",
                        lambda inst: to_dot(inst, max_vertices=10))
    out, dot = tmp_path / "f.json", tmp_path / "g.dot"
    assert main(["gen", "--family", "zk", "--k", "4", "--out", str(out),
                 "--dot", str(dot)]) == EXIT_CAP
    assert "DOT export capped at 10" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == []


# Each value is bad for its option; given as a flag or as a config line,
# argparse rejects it with exit 2 and a usage message.
BAD_VALUES = [
    (["gen", "--family", "zk", "--k", "4"], "max-edges", "abc"),
    (["solve", "{zk4}"], "brute-cap", "abc"),
    (["solve", "{zk4}"], "lp-cap", "abc"),
    (["bounds"], "m-list", "6x4"),
    (["gen", "--family", "zk"], "k", "x"),
    (["solve", "{zk4}"], "method", "fastest"),
    (["gen", "--family", "zk", "--k", "4"], "max-edges", "-1"),
    (["solve", "{zk4}"], "brute-cap", "-1"),
    (["solve", "{zk4}"], "lp-cap", "-5"),
]


@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("argv, key, value", BAD_VALUES,
                         ids=[f"{a[0]}-{k}-{v}" for a, k, v in BAD_VALUES])
def test_bad_values_exit_2(tmp_path, zk4_file, capsys, argv, key, value,
                           via_config):
    argv = [arg.format(zk4=zk4_file) for arg in argv]
    if via_config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key.replace('-', '_')} = {value}\n")
        argv += ["--config", str(cfg)]
    else:
        argv += [f"--{key}", value]
    assert main(argv) == EXIT_BAD_PARAMS
    err = capsys.readouterr().err
    assert f"argument --{key}: invalid" in err
    assert "Traceback" not in err


# Each option does not apply to the rest of its command line; given as a
# flag or as a config line, it exits 2 with one error line, with or without
# python -O, and writes nothing.
INAPPLICABLE = [
    (["certify", "{m6}", "--sweep"], "thresh", "0"),
    (["gen", "--family", "zk", "--k", "4"], "m", "9"),
    (["gen", "--family", "zk", "--k", "4"], "a", "2"),
    (["gen", "--family", "zk", "--k", "4"], "thresh", "3"),
    (["gen", "--family", "subset", "--m", "6", "--a", "2"], "k", "4"),
]


@pytest.fixture(scope="module")
def inapplicable_runs(tmp_path_factory, subset_m6_instance):
    """(case index, via_config) -> (out path, [Run under python, Run under
    python -O]), and ("gen", k) -> (None, the same Runs) for a valid
    `gen --family zk --k k`.  One child per interpreter runs every case."""
    tmp = tmp_path_factory.mktemp("inapplicable")
    m6_file = tmp / "m6.json"
    m6_file.write_text(model.instance_to_json(subset_m6_instance))
    cases, argvs = [], []
    for i, (argv, key, value) in enumerate(INAPPLICABLE):
        for via_config in (False, True):
            out = tmp / f"out{len(argvs)}.json"
            argv_i = [arg.format(m6=m6_file) for arg in argv] \
                + ["--out", str(out)]
            if via_config:
                cfg = tmp / f"run{len(argvs)}.cfg"
                cfg.write_text(f"{key} = {value}\n")
                argv_i += ["--config", str(cfg)]
            else:
                argv_i += [f"--{key}", value]
            cases.append(((i, via_config), out))
            argvs.append(argv_i)
    for k in (4, 9):
        cases.append((("gen", k), None))
        argvs.append(["gen", "--family", "zk", "--k", str(k)])
    children = [_run_cli(flags, *argvs) for flags in ([], ["-O"])]
    return {key: (out, [runs[j] for runs in children])
            for j, (key, out) in enumerate(cases)}


@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("case", range(len(INAPPLICABLE)),
                         ids=[f"{a[0]}-{k}" for a, k, _ in INAPPLICABLE])
def test_inapplicable_options_exit_2(inapplicable_runs, case, via_config):
    key = INAPPLICABLE[case][1]
    out, runs = inapplicable_runs[case, via_config]
    for flags, proc in zip(([], ["-O"]), runs):
        assert proc.returncode == EXIT_BAD_PARAMS, (flags, proc.stderr)
        assert "Traceback" not in proc.stderr
        errors = [ln for ln in proc.stderr.splitlines() if "error:" in ln]
        assert len(errors) == 1 and f"--{key}" in errors[0], proc.stderr
        assert proc.stdout == "" and not out.exists()


def test_gen_stdout(inapplicable_runs):
    # zk4: 6 root edges at 2/3 and 4 unit copy edges; canonical cost 2|B|/s
    expected = {4: ["n                19", "total cost       8/1",
                    "canonical cost   8/3"],
                9: ["n                346", "canonical cost   9/2"]}
    for k, lines in expected.items():
        _, runs = inapplicable_runs["gen", k]
        assert runs[0] == runs[1], k  # python and python -O
        assert runs[0].returncode == EXIT_OK and runs[0].stderr == ""
        out = runs[0].stdout.splitlines()
        assert all(line in out for line in lines), (k, out)


@pytest.mark.parametrize("line", ["bogus = 1", "sweep = 1", "instance = x"])
def test_config_unknown_or_on_off_key_exits_2(tmp_path, m6_file, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert main(["certify", str(m6_file), "--config", str(cfg)]) \
        == EXIT_BAD_PARAMS


def test_config_bad_value_exits_2_under_O(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m_list = 6x4\n")
    for flags in ([], ["-O"]):
        (proc,) = _run_cli(flags, ["bounds", "--config", str(cfg)])
        assert proc.returncode == EXIT_BAD_PARAMS, flags
        assert "Traceback" not in proc.stderr, flags
        assert "argument --m-list: invalid int_list value: '6x4'" \
            in proc.stderr


def test_config_beats_defaults(tmp_path, zk4_file, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("method = structured\n")
    out = tmp_path / "solve.json"
    rc = main(["solve", str(zk4_file), "--config", str(cfg), "--out", str(out)])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert "structured OPT   8/3" in text
    assert "brute" not in text and "LP value" not in text
    payload = json.loads(out.read_text())
    assert "structured" in payload
    assert "brute" not in payload and "lp" not in payload
    # the report header keeps the command line as typed
    assert payload["header"]["command"] == (
        f"dstgap solve {zk4_file} --config {cfg} --out {out}")


def test_read_config_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("no equals sign here\n")
    with pytest.raises(cli.CliError):
        cli.read_config(str(bad))
    with pytest.raises(cli.CliError):
        cli.read_config(str(tmp_path / "missing.cfg"))


# ---------------------------------------------------------------------------
# mutation test: one mutation of a valid file never crashes the CLI

MUTATION_POOL = [0, -1, 5, "3", "x", None, [], {}, 1.5, "1/0"]
MUTATED_COMMANDS = [["verify"], ["certify"],
                    ["solve", "--method", "structured"]]


@st.composite
def mutations(draw, files):
    """A valid file with one key (or list item) deleted or one value
    replaced from MUTATION_POOL, at a node picked by a random descent."""
    data = json.loads(files[draw(st.sampled_from(sorted(files)))])
    node = data
    while True:
        key = draw(st.sampled_from(
            sorted(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if not (isinstance(child, (dict, list)) and child) \
                or draw(st.booleans()):
            break
        node = child
    if draw(st.booleans()):
        del node[key]
    else:
        node[key] = draw(st.sampled_from(MUTATION_POOL))
    return data


@pytest.fixture(scope="module")
def valid_files(zk4_instance, subset_m6_instance):
    return {"zk4": model.instance_to_json(zk4_instance),
            "m6": model.instance_to_json(subset_m6_instance)}


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(data=st.data())
def test_mutated_files_never_crash(tmp_path_factory, valid_files, data):
    mutated = data.draw(mutations(valid_files))
    command = data.draw(st.sampled_from(MUTATED_COMMANDS))
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(mutated))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = main(command[:1] + [str(path)] + command[1:])
    assert type(rc) is int and 0 <= rc <= 4
    # a file that loads writes back as its dict tree's json.dumps
    try:
        inst = model.instance_from_json(path.read_bytes())
    except (ValueError, KeyError, TypeError, AttributeError):
        return
    assert model.instance_to_json(inst) == json.dumps(
        model.instance_to_dict(inst), indent=1) + "\n"


# ---------------------------------------------------------------------------
# the cyclic garbage collector

@pytest.mark.parametrize("enabled", [True, False])
def test_main_runs_without_the_cyclic_collector(monkeypatch, zk4_file,
                                                enabled):
    seen = []
    verify = cli.cmd_verify

    def spy(*args):
        seen.append(gc.isenabled())
        return verify(*args)

    monkeypatch.setattr(cli, "cmd_verify", spy)
    (gc.enable if enabled else gc.disable)()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify", str(zk4_file)]) == EXIT_OK
        assert seen == [False]
        assert gc.isenabled() == enabled
    finally:
        gc.enable()


def _cyclic_garbage(argv):
    """The count of unreachable objects that gc.collect() finds after
    main(argv) ran with the collector off."""
    gc.collect()
    gc.disable()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            main(argv)
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("argv", [
    ["gen", "--family", "zk", "--k", "{k}", "--out", "{out}"],
    ["verify", "{file}", "--json-out", "{out}"],
    ["certify", "{file}", "--out", "{out}"],
    ["solve", "{file}", "--out", "{out}"],
    ["bounds", "--m-list", "{m_list}", "--json-out", "{out}"],
], ids=lambda argv: argv[0])
def test_cyclic_garbage_does_not_grow_with_the_instance(tmp_path, argv):
    # a command run with the collector off leaves cyclic garbage, such as
    # argparse's, that does not depend on the instance; a cycle made per
    # node, edge or flow would grow with it
    counts = []
    for k, m_list in ((4, "64"), (9, "64,128,256")):
        path = tmp_path / f"zk{k}.json"
        path.write_text(model.instance_to_json(
            model.build_instance(families.zk_objects(k))))
        counts.append(_cyclic_garbage([
            arg.format(k=k, file=path, out=tmp_path / "out", m_list=m_list)
            for arg in argv]))
    assert counts[0] == counts[1]
