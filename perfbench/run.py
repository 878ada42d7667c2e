#!/usr/bin/env python3
"""derivkit benchmark: three workloads through the real command line.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout. Every workload is a closed loop
with one client: each CLI call runs in a fresh interpreter and the next
call starts when the previous one has exited. Every verdict is checked
against a known answer (see workloads.py and gate.py).

--trace 0 reports the end-to-end metrics, measured with no tracing.
--trace 1 runs the same inputs in-process, alternating untraced and
traced calls, and reports the per-layer metrics (see tracing.py).
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A copy of the run, with the
Python version, CPU count and source revision, goes to
.perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
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
from dataclasses import dataclass
from typing import Dict, List, Optional

import gate
from workloads import KNOWN_DEFECTS, WORKLOADS, Call

CHILD = "import sys; from derivkit.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP_FIRST = 3
SETUP_SAMPLES = 45
# A hang is a failure, not a stall: a call gets at most CALL_TIMEOUT_S, and
# never more than the run has left before RUN_LIMIT_S, so that a run ends
# within three minutes however its calls behave.
CALL_TIMEOUT_S = 60.0
RUN_LIMIT_S = 160.0
OUT_DIR = ".perfbench"
START = time.perf_counter()


class SetupError(Exception):
    pass


@dataclass
class CliRun:
    wall_s: float
    code: Optional[int]
    stdout: str
    stderr: str
    rss_mb: float
    timed_out: bool


def child_env(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("DERIVKIT_THEORY_DIR", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def call_timeout(calls_left: int = 1) -> float:
    """Seconds the next call may take, leaving room for `calls_left` - 1 more."""
    left = RUN_LIMIT_S - (time.perf_counter() - START)
    return max(0.001, min(CALL_TIMEOUT_S, left / calls_left))


def run_cli(args: List[str], env: Dict[str, str], workdir: str) -> CliRun:
    """One `derivkit` call in a fresh interpreter, timed from spawn to exit.

    The child is waited for through a pidfd, so a hung call is killed at
    the timeout, and reaped with wait4 for its own peak RSS.
    """
    out_path = os.path.join(workdir, "stdout.txt")
    err_path = os.path.join(workdir, "stderr.txt")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", CHILD] + args, env=env,
                                stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        fd = os.pidfd_open(proc.pid)
        try:
            poller = select.poll()
            poller.register(fd, select.POLLIN)
            timed_out = not poller.poll(call_timeout() * 1000)
            t1 = time.perf_counter()
            if timed_out:
                os.kill(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(fd)
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return CliRun(t1 - t0, None if timed_out else proc.returncode, stdout,
                  stderr, usage.ru_maxrss / 1024.0, timed_out)


def write_inputs(call: Call) -> None:
    for path, text in call.files.items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


class Tally:
    """Verdicts over a run, per input of the workload's pass.

    Every input is checked at least once, so `attempted`, the number of
    inputs, depends on the seed alone. An input fails if any of its calls
    does; the failures are kept by input name, reason and count.
    """

    def __init__(self, calls: List[Call]):
        self.attempted = len({e.input for c in calls for e in c.expect})
        self.failures: Dict[str, Dict[str, int]] = {}
        self.with_verdict = 0

    def add(self, call: Call, code, stdout, stderr, timed_out) -> None:
        verdicts, n = gate.check_call(call, code, stdout, stderr, timed_out)
        self.with_verdict += n
        for name, reason in verdicts:
            if reason is not None:
                by_reason = self.failures.setdefault(name, {})
                by_reason[reason] = by_reason.get(reason, 0) + 1

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return all((name, reason) in KNOWN_DEFECTS
                   for name, reasons in self.failures.items() for reason in reasons)

    def summary(self) -> List[str]:
        lines = [f"fail_ratio {self.failed}/{self.attempted} inputs"]
        for name, reasons in sorted(self.failures.items()):
            for reason, n in sorted(reasons.items()):
                note = " (known defect)" if (name, reason) in KNOWN_DEFECTS else ""
                lines.append(f"  failed {n}x {name}{note}: {reason}")
        return lines


def _setup_sample(env: Dict[str, str], workdir: str) -> float:
    r = run_cli(["list"], env, workdir)
    if r.code != 0 or "Traceback" in r.stderr:
        raise SetupError(f"`derivkit list` exited {r.code}: {r.stderr.strip()}")
    return r.wall_s


def measure(workload: str, seed: int, seconds: float, root: str,
            workdir: str) -> dict:
    """Untraced run: set-up samples and CLI calls until `seconds` are used
    and every input of the pass has been checked once.

    Set-up time is sampled SETUP_FIRST times before the first call and
    then between calls, SETUP_SAMPLES times in all, so that its median
    spans the same stretch of machine time as the calls. Both count
    toward `seconds`.
    """
    env = child_env(root)
    _setup_sample(env, workdir)  # warm-up: fills the bytecode cache
    setup = [_setup_sample(env, workdir) for _ in range(SETUP_FIRST)]

    calls = WORKLOADS[workload](seed, workdir)
    tally = Tally(calls)
    walls: List[float] = []
    rss: List[float] = []
    for i in itertools.count():
        call = calls[i % len(calls)]
        write_inputs(call)
        r = run_cli(call.args, env, workdir)
        tally.add(call, r.code, r.stdout, r.stderr, r.timed_out)
        walls.append(r.wall_s)
        rss.append(r.rss_mb)
        share = min(1.0, (sum(walls) + sum(setup)) / seconds)
        while len(setup) < SETUP_FIRST + (SETUP_SAMPLES - SETUP_FIRST) * share:
            setup.append(_setup_sample(env, workdir))
        if i + 1 < len(calls):
            continue
        setup_left = (SETUP_SAMPLES - len(setup)) * statistics.median(setup)
        if sum(walls) + sum(setup) + setup_left + statistics.median(walls) > seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(_setup_sample(env, workdir))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "call_p50_s": (statistics.median(walls), "s"),
        "theories_per_s": (tally.with_verdict / sum(walls), "1/s"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    return {"tally": tally, "metrics": metrics,
            "detail": {"setup_walls_s": setup, "call_walls_s": walls,
                       "call_rss_mb": rss, "calls": len(walls),
                       "theories_with_verdict": tally.with_verdict}}


def environment(root: str) -> dict:
    commit = None  # an exported checkout is not a git repository
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "derivkit")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "git_commit": commit, "src_sha256": digest.hexdigest()}


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "derivkit", "cli.py")):
        print("error: run from the root of a derivkit checkout "
              "(src/derivkit/cli.py not found)", file=sys.stderr)
        return 2
    results = os.path.join(root, OUT_DIR, "results")
    workdir = os.path.join(root, OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(results, exist_ok=True)
    os.makedirs(workdir)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            import tracing
            run = tracing.traced_run(args.workload, args.seed, args.seconds,
                                     root, workdir,
                                     os.path.join(results, tag + ".spans.json.gz"))
        else:
            run = measure(args.workload, args.seed, args.seconds, root, workdir)
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally: Tally = run["tally"]
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()}
    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  failures=tally.failures, environment=environment(root),
                  **run["detail"])
    with open(os.path.join(results, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for line in tally.summary():
        print(line)
    for k, m in metrics.items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
