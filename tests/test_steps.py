"""The step table: every reader of `formula.STEPS` agrees with it."""

import importlib
import re
from pathlib import Path

import pytest

from derivkit import kernel
from derivkit.expr import Add, Const, Neg, Var
from derivkit.formula import (STEPS, Antideriv, AntiderivConst, ApplyLemma,
                              ExistsIntro, FieldNormalize, IndexShift, Intro,
                              LimitDivergenceWitness, RewriteWith, RingClose,
                              SeriesGeom, SeriesGeomWeighted, Specialize,
                              Unfold)
from derivkit.parser import parse_theory, print_step
from derivkit.theories import load_theory, registry

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

_A, _B = Var("a"), Add(Var("b"), Const(2))
ONE_OF_EACH_STEP = [
    RewriteWith("h"), RewriteWith("h", reverse=True), Unfold("w"),
    FieldNormalize(), RingClose(), Intro(("h", "t")), Specialize("h", (_A, _B)),
    ExistsIntro(_B), ApplyLemma("lem"), SeriesGeom(), SeriesGeomWeighted(),
    IndexShift(), AntiderivConst(), Antideriv(),
    LimitDivergenceWitness(8),
    # unshielded, the terms would reparse as the one term a - a
    Specialize("h", (_A, Neg(_A))),
]


def test_samples_cover_every_step():
    assert {type(s) for s in ONE_OF_EACH_STEP} == set(STEPS.values())


def test_kernel_has_a_handler_for_every_step():
    assert set(kernel._STEPS) == set(STEPS.values())


def test_readme_step_table_lists_every_keyword_once():
    # a row's first cell names one or more steps, such as `rw h` /
    # `rw h <-`; a step's keyword is its first word
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    table = readme.split("Proof steps:\n\n")[1].split("\n\n")[0]
    keywords = []
    for line in table.splitlines()[2:]:
        cell = line.split(" | ")[0]
        keywords += dict.fromkeys(s.split()[0] for s in re.findall(r"`([^`]+)`", cell))
    assert sorted(keywords) == sorted(STEPS)


def test_every_step_is_used_by_a_builtin_script():
    # a step no derivation uses is trusted code that only tests reach
    used = {type(s) for e in registry() for s in load_theory(e.name).steps}
    assert [kw for kw, cls in STEPS.items() if cls not in used] == []


@pytest.mark.parametrize("step", ONE_OF_EACH_STEP, ids=lambda s: type(s).__name__)
def test_step_prints_its_keyword_first_and_reparses(step):
    text = print_step(step)
    assert STEPS[text.split()[0]] is type(step)
    script = ("theory t\n  vars a b : Real\n  goal a = a\n"
              f"  proof\n    {text}\n  qed\n")
    assert parse_theory(script).steps == (step,)


def test_tracer_step_kinds_follow_the_step_table(monkeypatch):
    # the benchmark's per-step metrics key on class names, and its
    # tracer wraps kernel names; building the patches applies none
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    # the tracer still lists the deleted deriv_rule step; its spans
    # never occur and it reports no metric for the kind
    gone = {"DerivRule": "deriv_rule"}
    assert tracing.STEP_KINDS == {cls.__name__: kw for kw, cls in STEPS.items()} | gone
    assert (kernel, "_run_step") in {(o, a) for o, a, _ in tracing.Tracer().patches()}
