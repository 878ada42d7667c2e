#!/usr/bin/env python3
"""Discharge and numeric-oracle cost, before and after a change.

    python3 scripts/bench_discharge.py --parent-rev REV [--pairs 10] \
        [--seconds 30] [--seed 1] --out BENCH.json

Run from the root of a git checkout; stdlib only. For this checkout's
working tree and for a `git archive` of REV, the script

- probes each tree `PROBES` times, alternating which tree goes first,
  each probe a fresh interpreter that checks `build_pool(0)` and then
  runs the numeric oracle. `build_pool` gives each side's median and
  quartiles of the pool's wall time (`build_pool_s`) and of the summed
  discharge time (`discharge_s`); one probe of each is noise. The first
  probe gives the rows: for every obligation the kernel hands to
  `discharge`, its theory, its printed form, the trace (or `null` when
  refused), the wall time and the number of raw judgement calls
  (`_Discharger._sign_raw` and `_ne0_raw`, counted by wrapping them, so
  the parent needs no counter of its own). `traces_identical` holds when
  every probe of both sides gives the same traces;
- in the same probes, runs the numeric oracle (`numcheck.run_suite`,
  seed 0, 100 samples) on every builtin and records, from the first
  probe, its wall time, its label and its candidate draws per kept
  sample: the calls of `_draw`, which `sample_envs` makes once per
  candidate, over the samples reported, or `null` for a suite that
  draws no environments. A tree without `_draw` counts the
  equation solver (`_solve`, or `_solve_equations` before it), which
  ran once per candidate there;
- runs the CLI calls of the three workloads of `perfbench/workloads.py`
  at `--seed` (`builtin --all --json`, one `check --json` per edit_check
  input and one over the 68 single-hyp deletions of the builtins), and
  `builtin --all --seed` in text, the one output that prints the
  divergence table. Each call's input files are written just before it
  runs, since the edit_check calls share one path. It records, as
  `json_identical`, whether exit codes and standard output agree once
  every `"ms"` value and `[N ms]` is blanked, and per call where they
  differ: `exit`, then each JSON path of standard output whose value
  differs (a list item that names a theory shows the name), or each
  differing line of output that is not JSON. `json_differing_fields`
  gathers the last part of every path, so a difference in residuals
  alone reads `["worst_residual"]` and a verdict change shows;
- runs `perfbench/run.py` on all three workloads in `--pairs` pairs of
  parent and change, alternating which side runs first, and keeps the
  metrics of every run, each side's median and quartiles and how many
  pairs the change won.

The result is one JSON file. `--skip-perfbench` leaves the second part
out, for a quick look at the per-obligation numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("corpus", "edit_check", "mutants")
PROBES = 7
CHILD = "import sys; from derivkit.cli import main; sys.exit(main(sys.argv[1:]))"

# Runs in a child interpreter with the tree's src/ first on sys.path.
_PROBE = r"""
import json, time
import derivkit.discharge as D
import derivkit.kernel as K
import derivkit.theories as T
from derivkit.parser import print_formula

raw = [0]
def counted(fn):
    def inner(*a, **k):
        raw[0] += 1
        return fn(*a, **k)
    return inner
D._Discharger._sign_raw = counted(D._Discharger._sign_raw)
D._Discharger._ne0_raw = counted(D._Discharger._ne0_raw)

rows, theory = [], [None]
check_theory = T.check_theory
def named(th, *a, **k):
    theory[0] = th.name
    return check_theory(th, *a, **k)
T.check_theory = named

discharge = K.discharge
def timed(facts, ob, *rest):
    raw[0] = 0
    t0 = time.perf_counter()
    trace = None
    try:
        trace = discharge(facts, ob, *rest)
        return trace
    finally:
        rows.append({"theory": theory[0], "obligation": print_formula(ob),
                     "trace": trace, "s": round(time.perf_counter() - t0, 6),
                     "raw_calls": raw[0]})
K.discharge = timed

t0 = time.perf_counter()
T.build_pool(0)
pool_s = round(time.perf_counter() - t0, 3)

import derivkit.numcheck as N
# one call per candidate: `_draw` where the tree has it, else the solver
# that the parent ran once per candidate
counted = next(f for f in ("_draw", "_solve", "_solve_equations") if hasattr(N, f))
draws = [0]
real = getattr(N, counted)
def counted_draw(*a, **k):
    draws[0] += 1
    return real(*a, **k)
setattr(N, counted, counted_draw)
suites = []
for entry in T.registry():
    th = T.load_theory(entry.name)
    draws[0] = 0
    t0 = time.perf_counter()
    rep = N.run_suite(th, N.SamplePlan(seed=0, count=100))
    s = round(time.perf_counter() - t0, 6)
    suites.append({"theory": entry.name, "label": rep.label, "passed": rep.passed,
                   "samples": rep.samples, "s": s,
                   "draws_per_sample": round(draws[0] / rep.samples, 3)
                   if draws[0] else None})
print(json.dumps({"build_pool_s": pool_s, "obligations": rows, "suites": suites}))
"""


def probe(tree: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    out = subprocess.run([sys.executable, "-c", _PROBE], cwd=tree, env=env,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def workload_calls(seed: int, workdir: str) -> list:
    """(label, argument list, input files) of each CLI call of the three
    workloads, after `builtin --all` in text; the files are under workdir."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads
    calls = [c for w in WORKLOADS for c in workloads.WORKLOADS[w](seed, workdir)]
    out = [("builtin --all (text)", ["builtin", "--all", "--seed", str(seed)], {})]
    for call in calls:
        n = len(call.files)
        inputs = f" <{call.expect[0].input}>" if n == 1 else f" <{n} files>" if n else ""
        out.append((" ".join(call.args[:len(call.args) - n]) + inputs, call.args, call.files))
    return out


def cli_output(tree: str, args: list, files: dict) -> tuple:
    """Exit code and standard output of one CLI call, its input files
    written first, every `"ms"` and `[N ms]` blanked."""
    for path, text in files.items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, "-c", CHILD] + args, cwd=tree, env=env,
                          capture_output=True, text=True)
    out = re.sub(r'"ms": \d+', '"ms": null', proc.stdout)
    return proc.returncode, re.sub(r"\[\d+ ms\]", "[N ms]", out)


def json_paths(a, b, path: str = "$") -> list:
    """The paths at which two JSON values differ."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return [q for k in a for q in json_paths(a[k], b[k], f"{path}.{k}")]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        out = []
        for i, (x, y) in enumerate(zip(a, b)):
            name = f" {x['theory']}" if isinstance(x, dict) and "theory" in x else ""
            out += json_paths(x, y, f"{path}[{i}{name}]")
        return out
    return [] if a == b else [path]


def differences(parent: tuple, change: tuple) -> list:
    """Where two blanked CLI outputs differ: `exit`, then the JSON paths
    of standard output, or its differing line numbers when it is not
    JSON."""
    out = ["exit"] if parent[0] != change[0] else []
    try:
        return out + json_paths(json.loads(parent[1]), json.loads(change[1]))
    except ValueError:
        a, b = parent[1].splitlines(), change[1].splitlines()
        return out + [f"line {i + 1}" for i in range(max(len(a), len(b)))
                      if a[i:i + 1] != b[i:i + 1]]


def perfbench(tree: str, workload: str, seed: int, seconds: float) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds)],
                         cwd=tree, env=env, check=True, capture_output=True,
                         text=True).stdout
    res = json.loads(out.splitlines()[-1])
    res["metrics"] = {k: m["value"] for k, m in res["metrics"].items()}
    return res


def quartiles(vals: list) -> dict:
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
    return {"median": statistics.median(vals), "q1": q1, "q3": q3}


def compare(runs: dict) -> dict:
    """Per end-to-end metric: each side's median and quartiles, and the
    pairs the change won (ties count for neither side)."""
    out = {}
    for metric, better in (("setup_s", min), ("call_p50_s", min),
                           ("theories_per_s", max), ("peak_rss_mb", min)):
        row = {side: quartiles([r["metrics"][metric] for r in runs[side]])
               for side in ("parent", "change")}
        row["change_wins"] = sum(
            p != c and better(p, c) == c
            for p, c in zip(*([r["metrics"][metric] for r in runs[s]]
                              for s in ("parent", "change"))))
        out[metric] = row
    return out


def summary(runs: list) -> dict:
    """One side's probes: the spread of the two times, and the counts of
    the first probe."""
    obs = runs[0]["obligations"]
    return {"build_pool_s": quartiles([p["build_pool_s"] for p in runs]),
            "discharge_s": quartiles([round(sum(o["s"] for o in p["obligations"]), 3)
                                      for p in runs]),
            "raw_calls": sum(o["raw_calls"] for o in obs),
            "obligations": len(obs),
            "refused": sum(o["trace"] is None for o in obs)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent-rev", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", required=True)
    ap.add_argument("--skip-perfbench", action="store_true")
    args = ap.parse_args()

    rev = subprocess.run(["git", "rev-parse", args.parent_rev], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryDirectory() as parent:
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", parent], input=archive, check=True)
        trees = {"parent": parent, "change": ROOT}
        all_probes = {name: [] for name in trees}
        for k in range(PROBES):
            for name in sorted(all_probes, reverse=k % 2 == 1):
                all_probes[name].append(probe(trees[name]))
        probes = {name: r[0] for name, r in all_probes.items()}
        traces = [[(o["obligation"], o["trace"]) for o in p["obligations"]]
                  for r in all_probes.values() for p in r]
        with tempfile.TemporaryDirectory() as inputs:
            outputs = [{"args": label, **{name: cli_output(tree, a, files)
                                          for name, tree in trees.items()}}
                       for label, a, files in workload_calls(args.seed, inputs)]
        json_calls = [{"args": o["args"], "exit": [o["parent"][0], o["change"][0]],
                       "identical": o["parent"] == o["change"],
                       "differs": differences(o["parent"], o["change"])} for o in outputs]
        bench = {}
        if not args.skip_perfbench:
            for w in WORKLOADS:
                runs = {"parent": [], "change": []}
                for k in range(args.pairs):
                    for side in sorted(runs, reverse=k % 2 == 1):
                        runs[side].append(perfbench(trees[side], w, args.seed,
                                                    args.seconds))
                    print(w, k, {s: r[-1]["metrics"]["call_p50_s"] for s, r in runs.items()},
                          file=sys.stderr)
                bench[w] = {"summary": compare(runs), "runs": runs}

    record = {
        "what": "discharge cost per build_pool(0) obligation, numeric suite "
                "time and draws per builtin, and perfbench run.py metrics, "
                "parent against change",
        "parent_rev": rev,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "date": time.strftime("%Y-%m-%d"),
        "perfbench": {"seed": args.seed, "seconds": args.seconds,
                      "pairs": args.pairs, "workloads": bench},
        "build_pool": {name: summary(r) for name, r in all_probes.items()},
        "traces_identical": all(t == traces[0] for t in traces),
        "json_identical": all(c["identical"] for c in json_calls),
        "json_differing_fields": sorted({p.rsplit(".", 1)[-1] for c in json_calls
                                         for p in c["differs"]}),
        "json_calls": json_calls,
        "suites": [
            {"theory": c["theory"], "parent_label": p["label"], "change_label": c["label"],
             "passed": [p["passed"], c["passed"]],
             "parent_s": p["s"], "change_s": c["s"],
             "parent_draws_per_sample": p["draws_per_sample"],
             "change_draws_per_sample": c["draws_per_sample"]}
            for p, c in zip(probes["parent"]["suites"], probes["change"]["suites"])],
        "suites_s": {side: round(sum(r["s"] for r in probes[side]["suites"]), 3)
                     for side in ("parent", "change")},
        "obligations": [
            {"theory": c["theory"], "obligation": c["obligation"], "trace": c["trace"],
             "parent_s": p["s"], "change_s": c["s"],
             "parent_raw_calls": p["raw_calls"], "change_raw_calls": c["raw_calls"]}
            for p, c in zip(probes["parent"]["obligations"],
                            probes["change"]["obligations"])],
    }
    with open(os.path.join(ROOT, args.out), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(json.dumps({"build_pool": record["build_pool"], "suites_s": record["suites_s"],
                      "traces_identical": record["traces_identical"],
                      "json_identical": record["json_identical"],
                      "json_differing_fields": record["json_differing_fields"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
