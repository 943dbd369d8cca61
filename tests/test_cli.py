import hashlib
import json
import os
import subprocess
import sys

import pytest

import dstgap
from dstgap import cli, families, model
from dstgap.cli import (
    EXIT_BAD_INPUT,
    EXIT_BAD_PARAMS,
    EXIT_CAP,
    EXIT_FALSE,
    EXIT_OK,
    main,
)


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
    data = out.read_text()
    assert model.instance_to_json(model.instance_from_json(data)) == data


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


def test_verify_corrupted_instance(tmp_path, zk4_instance, capsys):
    data = model.instance_to_dict(zk4_instance)
    # delete one E3 (copy) edge: cost 1, head is a primed label
    idx = next(i for i, e in enumerate(data["edges"])
               if e["cost"] == "1/1" and e["head"].endswith("'"))
    del data["edges"][idx]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    rc = main(["verify", str(path)])
    out = capsys.readouterr().out
    assert rc == EXIT_FALSE
    assert "FAIL terminal" in out
    assert "2/3" in out


def test_verify_wrong_s_is_invalid_witness(tmp_path, zk4_instance):
    # meta.s = 2 against 3 matching edges per color: the path witness is
    # invalid (exit 1, one FAIL line), the same with or without python -O
    data = model.instance_to_dict(zk4_instance)
    data["meta"]["s"] = 2
    path = tmp_path / "s2.json"
    path.write_text(json.dumps(data))
    src = os.path.dirname(os.path.dirname(dstgap.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    stdouts = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "dstgap.cli", "verify", str(path)],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_FALSE, flags
        assert "Traceback" not in proc.stderr, flags
        stdouts.append(proc.stdout)
    assert stdouts[0] == stdouts[1]
    assert stdouts[0].splitlines()[-1] == "FAIL path witness invalid"
    assert "3/2" in stdouts[0]  # x = 1/s = 1/2 on three paths


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


def test_certify_sweep_rejected_for_zk(zk4_file):
    assert main(["certify", str(zk4_file), "--sweep"]) == EXIT_BAD_PARAMS


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
    assert "canonical LP     8/3" in text
    assert "observed OPT/LP  4/3" in text
    payload = json.loads(out.read_text())
    assert payload["structured"]["value"] == "8/3"
    assert payload["brute"]["value"] == "8/3"
    assert payload["lp"]["duality_certified"]
    assert payload["certificate"]["alpha"] == "1/1"


def test_solve_brute_cap(tmp_path, zk9_instance):
    path = tmp_path / "zk9.json"
    path.write_text(model.instance_to_json(zk9_instance))
    assert main(["solve", str(path), "--method", "brute"]) == EXIT_CAP


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


def test_bounds_bad_params():
    assert main(["bounds", "--m-list", "65"]) == EXIT_BAD_PARAMS
    assert main(["bounds", "--m-list", "64", "--digits", "10"]) \
        == EXIT_BAD_PARAMS


# ---------------------------------------------------------------------------
# plumbing

def test_unknown_subcommand():
    assert main(["frobnicate"]) == EXIT_BAD_PARAMS


def test_atomic_write(tmp_path):
    target = tmp_path / "out.txt"
    cli.atomic_write(str(target), "hello\n")
    assert target.read_text() == "hello\n"
    assert not (tmp_path / "out.txt.tmp").exists()


def test_read_config_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("no equals sign here\n")
    with pytest.raises(cli.CliError):
        cli.read_config(str(bad))
    with pytest.raises(cli.CliError):
        cli.read_config(str(tmp_path / "missing.cfg"))
