#!/usr/bin/env python3
"""dstgap benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 50 --trace 0

Run from the repository root; the program is taken from ./src.  Untraced
(--trace 0), each round runs the workload's `gen` set-up and then its pass,
every command as a `python -m dstgap.cli` child, one at a time, on the one
CPU this process is pinned to.  While a child runs, this process wakes
every PROBE_INTERVAL_S and times a fixed piece of work on that CPU, so
each command's wall time can be rescaled to a fixed CPU speed, the one at
which that work takes REFERENCE_PROBE_S.  Rounds repeat for --seconds
(at least MIN_ROUNDS).  Reported: setup_s and pass_s, the medians over
rounds of the rescaled set-up and pass times; and peak_rss_mb, the
largest child ru_maxrss.  Traced
(--trace 1), the same rounds run in-process through `dstgap.cli.main`,
alternating untraced and traced, and the per-layer self times of the
traced rounds are reported.  Every command's output is checked by
`checks.py`; a command fails if it exits non-zero or a check fails.

The inputs are fixed family instances: --seed is recorded, but nothing
depends on it.  The last line of stdout is the result; working files go
to perfbench/out/<workload>/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_ROUNDS = 3
STARTUP_REPS = 7
PROBE_INTERVAL_S = 0.02
# probe_unit() at full speed on the 2-vCPU Xeon VM the benchmark was built on
REFERENCE_PROBE_S = 200e-6

CHECK_ERRORS = (checks.CheckFailed, KeyError, ValueError, TypeError,
                AttributeError, OSError)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0          # commands that exited 0 but failed a check
    messages: list = field(default_factory=list)

    def record(self, argv, code, stderr, check) -> None:
        """Count one command; run its output check if it exited 0."""
        self.attempted += 1
        problem = None
        if code != 0:
            problem = f"exit {code}: {stderr.strip()[-300:]}"
        else:
            try:
                check()
            except CHECK_ERRORS as exc:
                self.wrong += 1
                problem = f"check failed: {type(exc).__name__}: {exc}"
        if problem is not None:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"dstgap {' '.join(argv)}: {problem}")


@dataclass(frozen=True)
class Child:
    seconds: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str
    probes: tuple = ()  # CPU seconds of each probe_unit() while it ran

    def rescaled(self) -> float:
        """Wall time at the reference speed: each probe stands for an equal
        slice of the wall time, run at speed REFERENCE_PROBE_S / probe."""
        return self.seconds * statistics.fmean(REFERENCE_PROBE_S / p
                                               for p in self.probes)


def probe_unit() -> float:
    """CPU seconds this thread takes for a fixed piece of `Fraction` work,
    about 0.2 ms at full speed.  Contention from outside this process
    slows it as it slows dstgap, which is mostly `Fraction` work too."""
    start = time.thread_time()
    total = Fraction(0)
    for i in range(1, 80):
        total += Fraction(1, i)
    return time.thread_time() - start


def child_env() -> dict:
    """The caller's environment, with dstgap taken from ./src and bytecode
    caching on, so start-up cost does not depend on the caller's settings."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv, workdir: Path) -> Child:
    """Run `python -m dstgap.cli argv` in workdir; wall time, peak RSS and
    the probes timed on this process's CPU while the child ran there."""
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    probes = []
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "dstgap.cli", *argv],
                                cwd=workdir, stdout=out, stderr=err,
                                env=child_env())
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                exited = select.poll()
                exited.register(pidfd, select.POLLIN)
                while not exited.poll(PROBE_INTERVAL_S * 1000):
                    probes.append(probe_unit())
            finally:
                os.close(pidfd)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    if not probes:  # the child ended within one interval
        probes.append(probe_unit())
    return Child(seconds, usage.ru_maxrss / 1024, proc.returncode,
                 out_path.read_text(), err_path.read_text(), tuple(probes))


def run_in_process(cli, argv) -> Child:
    """Run `dstgap.cli.main(argv)` in this process, in the current directory."""
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return Child(time.perf_counter() - start, 0.0, code, buf.getvalue(), "")


def run_round(wl, runner, ctx, tally) -> tuple:
    """One set-up and one pass; returns the set-up's and the pass's
    Child results, in command order."""
    phases = ([], [])
    for phase, results in zip((wl.setup, wl.passes), phases):
        for cmd in phase:
            res = runner(cmd.argv)
            tally.record(cmd.argv, res.code, res.stderr,
                         lambda: cmd.check(ctx, res.stdout))
            results.append(res)
    return phases


def wall(results) -> float:
    return sum(res.seconds for res in results)


def keep_going(rounds: list, started: float, seconds: float,
               minimum: int = MIN_ROUNDS) -> bool:
    """Start another round while one more still fits in the time."""
    if len(rounds) < minimum:
        return True
    typical = statistics.median(rounds)
    return time.perf_counter() - started + typical <= seconds


def run_untraced(wl, seconds, ctx, tally) -> tuple:
    runner = lambda argv: run_child(argv, ctx.workdir)  # noqa: E731
    runner(["--version"])  # writes the bytecode caches before any timing
    rounds, totals = [], []
    started = time.perf_counter()
    while keep_going(totals, started, seconds):
        setup, passes = run_round(wl, runner, ctx, tally)
        rounds.append((setup, passes))
        totals.append(wall(setup) + wall(passes))
    # Neighbours on this kind of host slow the CPU by up to 1.8 times, in
    # stretches of seconds; the probes timed while each command ran say by
    # how much.
    setups = [sum(res.rescaled() for res in setup) for setup, _ in rounds]
    passes = [[res.rescaled() for res in passes] for _, passes in rounds]
    probes = [p for res in all_results(rounds) for p in res.probes]
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(sum(cmds) for cmds in passes),
        "peak_rss_mb": max(res.rss_mb for res in all_results(rounds)),
    }
    detail = {
        "rounds": len(rounds),
        "probe_s_quartiles": statistics.quantiles(probes, n=4),
        "probe_s_min": min(probes),
        "setup_s_all": setups,
        "pass_commands_s": passes,
        "setup_wall_s_all": [wall(setup) for setup, _ in rounds],
        "pass_commands_wall_s": [[res.seconds for res in passes]
                                 for _, passes in rounds],
    }
    return metrics, detail


def all_results(rounds):
    for setup, passes in rounds:
        yield from setup
        yield from passes


def import_program():
    sys.path.insert(0, str(SRC))
    import dstgap.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "dstgap":
        raise RuntimeError(f"dstgap imported from {cli.__file__}, not {SRC}")
    return cli


def run_traced(wl, seconds, ctx, tally, names) -> tuple:
    unknown = set(names) - tracing.metric_names() - {"cli.startup_s",
                                                     "trace.overhead_s"}
    if unknown:
        raise ValueError(f"no layer produces {sorted(unknown)}")
    startup = []
    for _ in range(STARTUP_REPS):
        res = run_child(["--version"], ctx.workdir)
        tally.record(["--version"], res.code, res.stderr,
                     lambda: checks.require(res.stdout.strip() != "",
                                            "--version printed nothing"))
        startup.append(res.rescaled())

    cli = import_program()
    runner = lambda argv: run_in_process(cli, argv)  # noqa: E731
    tracer = tracing.Tracer()
    plain, traced = [], []
    cwd = os.getcwd()
    os.chdir(ctx.workdir)
    try:
        started = time.perf_counter()
        while keep_going([p + t for p, t in zip(plain, traced)], started,
                         seconds, minimum=1):
            setup, passes = run_round(wl, runner, ctx, tally)
            plain.append(wall(setup) + wall(passes))
            tracer.round = len(traced)
            tracer.install()
            try:
                setup, passes = run_round(wl, runner, ctx, tally)
            finally:
                tracer.uninstall()
            traced.append(wall(setup) + wall(passes))
    finally:
        os.chdir(cwd)

    with open(ctx.workdir / "spans.json", "w") as fh:
        json.dump(tracer.span_records(), fh)
    per_round = [tracer.round_totals(r) for r in range(len(traced))]
    extra = {
        "cli.startup_s": statistics.median(startup),
        "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
    }
    metrics = {}
    for name in names:
        if name in extra:
            metrics[name] = extra[name]
        else:
            metrics[name] = statistics.median(t.get(name, 0) for t in per_round)
    detail = {"rounds": len(traced), "untraced_round_s": plain,
              "traced_round_s": traced, "startup_s_all": startup}
    return metrics, detail


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a termination request unwinds through run_child, which stops the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # children inherit the CPU, so the probes run where the command runs
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    if not (SRC / "dstgap" / "cli.py").is_file():
        print(f"error: no dstgap source at {SRC}", file=sys.stderr)
        return 2
    declared = load_declared()[args.trace]

    wl = workloads.WORKLOADS[args.workload]
    workdir = OUT / wl.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ctx = workloads.Context(workdir)
    tally = Tally()

    if args.trace:
        metrics, detail = run_traced(wl, args.seconds, ctx, tally, declared)
    else:
        metrics, detail = run_untraced(wl, args.seconds, ctx, tally)

    info = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": os.getloadavg(),
        "check_failures": tally.wrong,
        "messages": tally.messages,
        **detail,
    }
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    with open(workdir / f"result-trace{args.trace}.json", "w") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    for message in tally.messages:
        print(message, file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
