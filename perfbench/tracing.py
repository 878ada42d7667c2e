"""In-process traced run: per-layer time and counts.

The tracer wraps derivkit's public entry points from outside, by
patching the names the callers look up, and records one span per call:
name, start, end, parent span and CLI call id. No module under src/ is
changed. The only private boundary wrapped is the kernel's step
dispatcher `_run_step`, for time per step kind.

Each call of the workload's pass runs twice in this process, once
untraced and once traced, and the pass repeats until the run's time is
used, so traced / untraced wall time is the tracing overhead. Spans are kept
in memory and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import traceback
from typing import Callable, Dict, List, Optional, Tuple

from workloads import WORKLOADS

IMPORT_PROBES = 5
SLOW_OBLIGATION_S = 0.1

# step class -> the keyword that writes it in a script
STEP_KINDS = {
    "RewriteWith": "rw", "Unfold": "unfold", "FieldNormalize": "field_normalize",
    "RingClose": "ring", "Intro": "intro", "Specialize": "specialize",
    "ExistsIntro": "use", "ApplyLemma": "apply", "SeriesGeom": "series_geom",
    "SeriesGeomWeighted": "series_geom_weighted", "IndexShift": "index_shift",
    "DerivRule": "deriv_rule", "AntiderivConst": "antideriv_const",
    "Antideriv": "antideriv", "LimitDivergenceWitness": "limit_witness",
}
# Kinds reported as metrics: those the builtin corpus runs, so that no
# metric reads 0 on every workload. Spans of other kinds are still kept.
KIND_NAMES = sorted(set(STEP_KINDS.values()) - {"deriv_rule"})
# numeric report label -> metric name part
LABELS = {"identity": "identity", "divergence_witness": "divergence_witness",
          "finite-state model": "finite_state_model", "kinematics": "kinematics"}
LABEL_NAMES = sorted(LABELS.values())
NORMALIZER_METHODS = ("norm", "norm_raw", "key", "atom_key", "atom_poly", "to_expr")

# a span: [name, start, end, parent index, call id, info]
Span = list


class _CallTimeout(BaseException):
    """Raised in the main thread when an in-process call runs too long."""


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.call_id = 0

    def wrap(self, name, fn: Callable, info: Optional[Callable] = None) -> Callable:
        """`fn` recording a span; `name` may be a function of the arguments."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name(args) if callable(name) else name, 0.0, 0.0,
                    stack[-1] if stack else -1, self.call_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span[2] = clock()
                stack.pop()
                span[5] = "raised " + type(e).__name__
                raise
            span[2] = clock()
            stack.pop()
            if info is not None:
                span[5] = info(args, result)
            return result

        return traced

    def patches(self) -> List[Tuple[object, str, Callable]]:
        """(owner, attribute, wrapper) for every traced boundary."""
        from derivkit import cli, kernel, numcheck, parser, ringnorm, theories

        def step_name(args):
            return "kernel.step." + STEP_KINDS.get(type(args[1]).__name__, "other")

        def suite_info(args, rep):
            return (args[0].name, None if rep is None else rep.label,
                    0 if rep is None else rep.samples)

        w = self.wrap
        parse_many = w("parser.parse_theories", parser.parse_theories,
                       lambda a, r: len(r))
        parse_one = w("parser.parse_theory", parser.parse_theory, lambda a, r: 1)
        check = w("kernel.check_theory", kernel.check_theory, lambda a, r: a[0].name)
        out = [
            (cli, "parse_theories", parse_many), (parser, "parse_theories", parse_many),
            (parser, "parse_theory", parse_one), (theories, "parse_theory", parse_one),
            (cli, "build_pool", w("theories.build_pool", cli.build_pool)),
            (cli, "check_theory", check), (theories, "check_theory", check),
            (kernel, "check_theory", check),
            (kernel, "_run_step", w(step_name, kernel._run_step)),
            (kernel, "discharge", w("discharge", kernel.discharge)),
            (ringnorm, "poly_gcd", w("poly.gcd", ringnorm.poly_gcd)),
            (cli, "run_suite", w("numcheck.run_suite", cli.run_suite, suite_info)),
            (numcheck, "sample_envs", w("numcheck.sample_envs", numcheck.sample_envs)),
        ]
        for m in NORMALIZER_METHODS:
            out.append((ringnorm.Normalizer, m,
                        w("ringnorm." + m, getattr(ringnorm.Normalizer, m))))
        return out


@contextlib.contextmanager
def patched(patches):
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, fn in patches:
            setattr(owner, attr, fn)
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def _on_alarm(signum, frame):
    raise _CallTimeout()


def call_in_process(main: Callable, args: List[str], timeout: float):
    """(wall s, exit code or None on timeout, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code: Optional[int] = None
    old = signal.signal(signal.SIGALRM, _on_alarm)
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(args)
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 2
            except Exception:
                err.write(traceback.format_exc())
                code = 1
    except _CallTimeout:
        code = None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    return time.perf_counter() - t0, code, out.getvalue(), err.getvalue()


def import_time(env: Dict[str, str]) -> float:
    """Median time to import derivkit.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import derivkit.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_PROBES):
        r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=60, check=True)
        times.append(float(r.stdout))
    return statistics.median(times)


def in_pool_flags(spans: List[Span], first: int = 0) -> List[bool]:
    """For each span from `first` on, whether it lies under `build_pool`."""
    flags: List[bool] = []
    for name, _, _, parent, _, _ in spans[first:]:
        flags.append(name == "theories.build_pool"
                     or (parent >= first and flags[parent - first]))
    return flags


def _reported_coverage(tracer: Tracer, first: int, stdout: str):
    """(sum of the JSON `ms` fields, kernel + oracle seconds of the same theories)."""
    try:
        reports = json.loads(stdout)
    except ValueError:
        return 0.0, 0.0
    pool_check: Dict[str, float] = {}
    own_checks: Dict[str, List[float]] = {}
    suites: Dict[str, List[float]] = {}
    spans = tracer.spans[first:]
    for (name, t0, t1, _, _, info), pooled in zip(spans, in_pool_flags(tracer.spans, first)):
        if name == "kernel.check_theory":
            if pooled:
                pool_check[info] = t1 - t0
            else:
                own_checks.setdefault(info, []).append(t1 - t0)
        elif name == "numcheck.run_suite":
            suites.setdefault(info[0], []).append(t1 - t0)
    ms = work = 0.0
    for rep in reports:
        name = rep.get("theory")
        ms += rep.get("ms", 0) / 1000.0
        own = own_checks.get(name)
        work += own.pop(0) if own else pool_check.get(name, 0.0)
        suite = suites.get(name)
        work += suite.pop(0) if suite else 0.0
    return ms, work


def layer_metrics(spans: List[Span], calls: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from the spans of `calls` traced CLI calls, per call."""
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    in_pool = in_pool_flags(spans)

    def layer(i: int) -> str:
        return spans[i][0].split(".", 1)[0]

    top: Dict[str, float] = {}
    own: Dict[str, float] = {}
    total: Dict[str, float] = {}
    count: Dict[str, int] = {}
    parsed = pool_checks = failed = slow = samples = 0
    max_ob = 0.0
    by_label = {k: 0.0 for k in LABEL_NAMES}
    for i, (name, t0, t1, parent, _, info) in enumerate(spans):
        d = t1 - t0
        lay = layer(i)
        total[name] = total.get(name, 0.0) + d
        count[name] = count.get(name, 0) + 1
        own[lay] = own.get(lay, 0.0) + d - child[i]
        if parent < 0 or layer(parent) != lay:
            top[lay] = top.get(lay, 0.0) + d
            if lay == "parser" and isinstance(info, int):
                parsed += info
        if name == "kernel.check_theory" and in_pool[i]:
            pool_checks += 1
        elif name == "discharge":
            failed += info is not None
            slow += d > SLOW_OBLIGATION_S
            max_ob = max(max_ob, d)
        elif name == "numcheck.run_suite" and isinstance(info, tuple):
            samples += info[2]
            label = LABELS.get(info[1])
            if label is not None:
                by_label[label] += d

    obligations = count.get("discharge", 0)
    m: Dict[str, Tuple[float, str]] = {
        "theories.build_pool.s": (total.get("theories.build_pool", 0.0) / calls, "s"),
        "theories.pool_checks": (pool_checks / calls, "count"),
        "parser.s": (top.get("parser", 0.0) / calls, "s"),
        "parser.theories": (parsed / calls, "count"),
        "kernel.s": (top.get("kernel", 0.0) / calls, "s"),
        "kernel.self_s": (own.get("kernel", 0.0) / calls, "s"),
    }
    for kind in KIND_NAMES:
        key = "kernel.step." + kind
        m[key + ".s"] = (total.get(key, 0.0) / calls, "s")
        m[key + ".n"] = (count.get(key, 0) / calls, "count")
    m.update({
        "discharge.obligations": (obligations / calls, "count"),
        "discharge.failed": (failed / calls, "count"),
        "discharge.ok_ratio": ((obligations - failed) / obligations if obligations
                               else 1.0, "ratio"),
        "discharge.s": (top.get("discharge", 0.0) / calls, "s"),
        "discharge.max_s": (max_ob, "s"),
        "discharge.slow_obligations": (slow / calls, "count"),
        "ringnorm.calls": (sum(c for k, c in count.items()
                               if k.startswith("ringnorm.")) / calls, "count"),
        "ringnorm.s": (top.get("ringnorm", 0.0) / calls, "s"),
        "poly.gcd_calls": (count.get("poly.gcd", 0) / calls, "count"),
        "poly.gcd_s": (total.get("poly.gcd", 0.0) / calls, "s"),
        "numcheck.s": (top.get("numcheck", 0.0) / calls, "s"),
        "numcheck.samples": (samples / calls, "count"),
        "numcheck.sample_envs.s": (total.get("numcheck.sample_envs", 0.0) / calls, "s"),
    })
    for label in LABEL_NAMES:
        m[f"numcheck.by_label.{label}.s"] = (by_label[label] / calls, "s")
    return m


def traced_run(workload: str, seed: int, seconds: float, root: str,
               workdir: str, spans_path: str) -> dict:
    from run import Tally, call_timeout, child_env, write_inputs

    import_s = import_time(child_env(root))
    # the same theory directory as the untraced calls and the snapshot
    os.environ.pop("DERIVKIT_THEORY_DIR", None)
    sys.path.insert(0, os.path.join(root, "src"))
    from derivkit import cli

    tracer = Tracer()
    patches = tracer.patches()
    calls = WORKLOADS[workload](seed, workdir)
    tally = Tally(calls)
    plain: List[float] = []
    traced: List[float] = []
    ms_sum = work_sum = 0.0
    start = time.perf_counter()
    for i in itertools.count():
        call = calls[i % len(calls)]
        write_inputs(call)
        wall, code, out, err = call_in_process(cli.main, call.args, call_timeout(2))
        tally.add(call, code, out, err, code is None)
        plain.append(wall)

        tracer.call_id += 1
        first = len(tracer.spans)
        with patched(patches):
            main = tracer.wrap("cli.main", cli.main)
            wall, code, out, err = call_in_process(main, call.args, call_timeout())
        tally.add(call, code, out, err, code is None)
        traced.append(wall)
        ms, work = _reported_coverage(tracer, first, out)
        ms_sum += ms
        work_sum += work
        pair = plain[-1] + traced[-1]
        if i + 1 >= len(calls) and time.perf_counter() - start + pair > seconds:
            break

    metrics = {
        "cli.import_s": (import_s, "s"),
        "cli.reported_ms_coverage": (ms_sum / work_sum if work_sum else 0.0, "ratio"),
    }
    metrics.update(layer_metrics(tracer.spans, len(traced)))
    metrics["trace.overhead_ratio"] = (sum(traced) / sum(plain), "ratio")
    with gzip.open(spans_path, "wt", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "call", "info"],
                   "spans": tracer.spans}, fh, separators=(",", ":"))
    return {"tally": tally, "metrics": metrics,
            "detail": {"untraced_walls_s": plain, "traced_walls_s": traced,
                       "calls": len(traced), "spans": len(tracer.spans)}}
