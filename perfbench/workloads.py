"""The benchmark's workloads: fixed `dstgap` command lines and their checks.

A workload is a set-up list of `gen` commands, which write its instance
files, and a pass list, which runs after set-up and is what `pass_s`
times.  The inputs are fixed family instances, so no seed enters them.
Every command knows how to check its own output in the working directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import checks


@dataclass
class Context:
    """Per-run state shared by a workload's checks: the working directory
    and the facts derived from each instance file, keyed by file name."""

    workdir: Path
    facts: dict = field(default_factory=dict)

    def read_json(self, name: str) -> dict:
        return json.loads((self.workdir / name).read_text())

    def instance(self, name: str) -> checks.InstanceFacts:
        facts = self.facts.get(name)
        if facts is None:
            raise checks.CheckFailed(f"{name} was not generated and checked")
        return facts


@dataclass(frozen=True)
class Gen:
    out: str
    family: str
    params: dict

    @property
    def argv(self):
        flags = [f"--{key}={value}" for key, value in sorted(self.params.items())]
        return ["gen", f"--family={self.family}", *flags, f"--out={self.out}"]

    def check(self, ctx: Context, stdout: str) -> None:
        raw = (ctx.workdir / self.out).read_bytes()
        known = ctx.facts.get(self.out)
        if known is None or known.sha256 != checks.sha256_bytes(raw):
            known = checks.check_instance(json.loads(raw), raw, self.family,
                                          self.params)
            ctx.facts[self.out] = known
        checks.check_gen(stdout, known)


@dataclass(frozen=True)
class Verify:
    instance: str

    @property
    def argv(self):
        return ["verify", self.instance, f"--json-out={self.instance}.verify"]

    def check(self, ctx: Context, stdout: str) -> None:
        report = ctx.read_json(f"{self.instance}.verify")
        checks.check_verify(report, stdout, ctx.instance(self.instance))


@dataclass(frozen=True)
class Certify:
    instance: str
    sweep: bool = False

    @property
    def argv(self):
        sweep = ["--sweep"] if self.sweep else []
        return ["certify", self.instance, *sweep,
                f"--out={self.instance}.certify"]

    def check(self, ctx: Context, stdout: str) -> None:
        report = ctx.read_json(f"{self.instance}.certify")
        checks.check_certify(report, ctx.instance(self.instance), self.sweep)


@dataclass(frozen=True)
class Solve:
    instance: str
    method: str
    opt: Fraction  # hand-derived in README.md

    @property
    def argv(self):
        return ["solve", self.instance, f"--method={self.method}",
                f"--out={self.instance}.solve"]

    def check(self, ctx: Context, stdout: str) -> None:
        report = ctx.read_json(f"{self.instance}.solve")
        methods = (["structured", "brute"] if self.method == "all"
                   else [self.method])
        checks.check_solve(report, ctx.instance(self.instance), methods,
                           self.opt)


@dataclass(frozen=True)
class Bounds:
    m_list: tuple

    @property
    def argv(self):
        return ["bounds", "--m-list=" + ",".join(map(str, self.m_list)),
                "--json-out=bounds.json"]

    def check(self, ctx: Context, stdout: str) -> None:
        checks.check_bounds(ctx.read_json("bounds.json"), self.m_list)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: tuple
    passes: tuple


ZK16 = Gen("zk16.json", "zk", {"k": 16})
M10A3 = Gen("m10a3.json", "subset", {"a": 3, "m": 10, "thresh": 1})
ZK4 = Gen("zk4.json", "zk", {"k": 4})
M4 = Gen("m4.json", "subset", {"a": 2, "m": 4, "thresh": 0})
M7A3 = Gen("m7a3.json", "subset", {"a": 3, "m": 7, "thresh": 1})

WORKLOADS = {
    w.name: w for w in (
        # zk16 is augmentation-bound (1365 unit paths per terminal);
        # m10a3 is construction-bound (120 small flows)
        Workload("verify", (ZK16, M10A3),
                 (Verify(ZK16.out), Certify(ZK16.out),
                  Verify(M10A3.out), Certify(M10A3.out, sweep=True))),
        Workload("solve-exact", (ZK4, M4, M7A3),
                 (Solve(ZK4.out, "all", Fraction(8, 3)),
                  Solve(M4.out, "all", Fraction(7, 6)),
                  Solve(M7A3.out, "structured", Fraction(21, 5)),
                  Bounds((64, 128, 256, 512, 1024)))),
    )
}
