"""Command line front end.

Exit codes: 0 when every checked theory is accepted, 1 when any theory
fails its symbolic or numeric check, 2 for usage and input errors,
including input nested too deeply to check, and for an internal error,
which prints one line and no traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import List, Optional, Tuple

from .errors import DerivkitError, DerivSyntaxError
from .formula import ApplyLemma, Theory
from .kernel import (CheckResult, LemmaEntry, LemmaPool, NUMERIC_CERTIFIED,
                     check_theory)
from .numcheck import NumericReport, SamplePlan, run_suite
from .parser import parse_theories
from .theories import build_pool, load_theory, registry

Outcome = Tuple[Theory, CheckResult, Optional[NumericReport], int]


def _plan(args) -> SamplePlan:
    return SamplePlan(seed=args.seed, count=args.samples)


def _run_numeric(theory: Theory, plan: SamplePlan) -> Optional[NumericReport]:
    try:
        return run_suite(theory, plan)
    except (DerivkitError, ArithmeticError) as e:
        # fails closed: a claim the oracle cannot evaluate is not passed
        return NumericReport(plan.seed, 0, float("inf"), False,
                             f"{type(e).__name__}: {e}")


def _outcome(theory: Theory, pool: LemmaPool, plan: SamplePlan) -> Outcome:
    t0 = time.perf_counter()
    res = check_theory(theory, pool, seed=plan.seed)
    numeric = _run_numeric(theory, plan) if res.accepted else None
    ms = int((time.perf_counter() - t0) * 1000)
    return theory, res, numeric, ms


def _verdict(res: CheckResult, numeric: Optional[NumericReport]) -> bool:
    return res.accepted and (numeric is None or numeric.passed)


def _to_json(out: Outcome) -> dict:
    theory, res, numeric, ms = out
    d = {
        "theory": theory.name,
        "verdict": "accepted" if _verdict(res, numeric) else "failed",
        "soundness": res.soundness,
    }
    if res.failure is not None:
        step, reason = res.failure
        d["failure"] = {"step": step if step is not None else -1, "reason": reason}
    elif numeric is not None and not numeric.passed:
        d["failure"] = {"step": -1, "reason": f"numeric: {numeric.label}"}
    d["steps"] = [{"step": r.step, "goal_after": r.goal_after,
                   "obligations": list(r.obligations)} for r in res.steps]
    if numeric is not None:
        # JSON has no inf or nan: a residual that is not finite is null
        worst = numeric.worst_residual
        d["numeric"] = {"seed": numeric.seed, "samples": numeric.samples,
                        "worst_residual": worst if math.isfinite(worst) else None}
    d["ms"] = ms
    return d


def _print_human(out: Outcome) -> None:
    theory, res, numeric, ms = out
    if _verdict(res, numeric):
        kind = "NumericCertified" if res.soundness == NUMERIC_CERTIFIED else "Symbolic"
        print(f"{theory.name}: Accepted ({kind})  [{ms} ms]")
        if numeric is not None:
            for j, v in enumerate(numeric.table, start=1):
                print(f"  j={j}: {v:.6e}")
    elif res.failure is not None:
        step, reason = res.failure
        where = f" at step {step}" if step is not None else ""
        print(f"{theory.name}: Failed ({reason}{where})  [{ms} ms]")
    else:
        print(f"{theory.name}: Failed (numeric: {numeric.label}, "
              f"worst residual {numeric.worst_residual:.3e})  [{ms} ms]")


def _emit(outcomes: List[Outcome], args) -> int:
    try:
        if args.json:
            print(json.dumps([_to_json(o) for o in outcomes], indent=2,
                             allow_nan=False))
        else:
            for o in outcomes:
                _print_human(o)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early; the verdicts stand, and the flush at
        # exit must not hit the closed pipe again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if all(_verdict(r, n) for _, r, n, _ in outcomes) else 1


def _load_file(path: str) -> List[Theory]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_theories(fh.read())


def _check_batch(theories: List[Theory], base_pool: LemmaPool,
                 plan: SamplePlan) -> List[Outcome]:
    # theories within one file see their predecessors as lemmas
    pool = dict(base_pool)
    out = []
    for th in theories:
        oc = _outcome(th, pool, plan)
        pool[th.name] = LemmaEntry(th, oc[1].accepted)
        out.append(oc)
    return out


def cmd_check(args) -> int:
    plan = _plan(args)
    batches = []
    try:
        for path in args.paths:
            batches.append(_load_file(path))
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as e:
        print(f"error: {path}: {e}", file=sys.stderr)
        return 2
    except DerivSyntaxError as e:
        print(f"syntax error: {e}", file=sys.stderr)
        return 2
    except DerivkitError as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return 2
    # a name a file also defines still counts: an `apply` before that
    # definition resolves to the builtin
    base_pool, _ = build_pool(args.seed, {
        s.name for b in batches for th in b for s in th.steps
        if isinstance(s, ApplyLemma)})
    return _emit([o for b in batches
                  for o in _check_batch(b, base_pool, plan)], args)


def cmd_builtin(args) -> int:
    plan = _plan(args)
    deps = {e.name: e.depends_on for e in registry()}
    if not args.all and args.name not in deps:
        print(f"error: no builtin theory named {args.name!r}", file=sys.stderr)
        return 2
    if args.all:
        # in registry order, each theory sees those before it as lemmas
        names, pool = list(deps), {}
    else:
        names, (pool, _) = [args.name], build_pool(args.seed, deps[args.name])
    theories = [load_theory(n) for n in names]
    return _emit(_check_batch(theories, pool, plan), args)


def cmd_list(args) -> int:
    for e in registry():
        parts = [e.name]
        if e.depends_on:
            parts.append("depends: " + ", ".join(e.depends_on))
        if e.reconstructed:
            parts.append("[reconstructed]")
        parts.append(e.citation)
        print("  ".join(parts))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="derivkit",
                                description="check derivation scripts")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true",
                        help="emit a JSON report instead of text")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--samples", type=int, default=100)

    pc = sub.add_parser("check", help="check theory script files")
    pc.add_argument("paths", nargs="+", metavar="PATH")
    common(pc)
    pc.set_defaults(fn=cmd_check)

    pb = sub.add_parser("builtin", help="check builtin theories")
    group = pb.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true")
    group.add_argument("name", nargs="?")
    common(pb)
    pb.set_defaults(fn=cmd_builtin)

    pl = sub.add_parser("list", help="list builtin theories")
    pl.set_defaults(fn=cmd_list)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "samples", 1) < 1:
        parser.error("--samples must be at least 1")
    try:
        return args.fn(args)
    except RecursionError:
        print("error: input nested too deeply to check", file=sys.stderr)
        return 2
    except Exception as e:
        msg = " ".join(str(e).split())
        print(f"error: internal error: {type(e).__name__}: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
