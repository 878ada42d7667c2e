"""Verdict gate: compare one CLI call's output with its known answer."""

from __future__ import annotations

import json
from typing import List, Optional, Tuple

from workloads import Call

Verdicts = List[Tuple[str, Optional[str]]]  # (input name, failure reason or None)


def obligation_steps(report: dict) -> list:
    """Each proof step of a --json report with the obligations it raised."""
    return [{"step": s.get("step"), "obligations": s.get("obligations")}
            for s in report.get("steps", [])]


def _theory_failure(exp, report: Optional[dict]) -> Optional[str]:
    if report is None:
        return "no report"
    if report.get("theory") != exp.theory:
        return f"reported theory {report.get('theory')!r}"
    if report.get("verdict") != exp.verdict:
        return f"verdict {report.get('verdict')}, expected {exp.verdict}"
    if exp.soundness is not None and report.get("soundness") != exp.soundness:
        return f"soundness {report.get('soundness')}, expected {exp.soundness}"
    if exp.steps is not None and obligation_steps(report) != exp.steps:
        return "obligation list differs from the snapshot"
    return None


def check_call(call: Call, code: Optional[int], stdout: str, stderr: str,
               timed_out: bool) -> Tuple[Verdicts, int]:
    """Per-theory verdicts of one call, and how many theories got a verdict.

    A theory fails on a timeout, a traceback, a wrong exit code, a wrong
    verdict or soundness label, or (corpus) a changed obligation list.
    """
    call_failure = None
    if timed_out:
        call_failure = "timeout"
    elif "Traceback" in stderr:
        call_failure = "traceback"
    elif code != call.exit_code:
        call_failure = f"exit {code}, expected {call.exit_code}"
        message = stderr.strip().splitlines()
        if message:
            call_failure += ": " + message[-1][:200]
    try:
        reports = json.loads(stdout) if stdout.strip() else []
    except ValueError:
        reports, call_failure = [], call_failure or "output is not JSON"
    if not isinstance(reports, list):
        reports, call_failure = [], call_failure or "output is not a report list"
    verdicts = []
    for i, exp in enumerate(call.expect):
        report = reports[i] if i < len(reports) else None
        verdicts.append((exp.input, call_failure or _theory_failure(exp, report)))
    with_verdict = sum(1 for r in reports
                       if isinstance(r, dict) and r.get("verdict") in ("accepted", "failed"))
    return verdicts, with_verdict
