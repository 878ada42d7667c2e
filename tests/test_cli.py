"""Command line behavior: exit codes, output formats, ordering."""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

import derivkit
from derivkit import cli, theories
from derivkit.cli import main
from derivkit.formula import ApplyLemma
from derivkit.numcheck import NumericReport
from derivkit.parser import parse_theory
from derivkit.theories import registry

OK_SCRIPT = """\
theory square_expand
  vars x y : Real
  goal (x + y)^2 = x^2 + 2 * x * y + y^2
  proof
    ring
  qed
"""

FAIL_SCRIPT = """\
theory will_fail
  vars P K : Real
  hyp hK : 0 < K
  let theta := K * P / (1 + K * P)
  goal theta * (1 + K * P) = K * P
  proof
    unfold theta
    field_normalize
    ring
  qed
"""

# applies const_accel', which itself applies const_accel
POSITION_SCRIPT = """\
theory position_law
  fns position velocity acceleration : State->Real
  const A : Real
  hyp hacc : forall u, deriv(velocity)(u) = acceleration(u)
  hyp haccconst : forall u, acceleration(u) = A
  hyp hvel : forall u, deriv(position)(u) = velocity(u)
  goal forall t, position(t) = t^2 / 2 * A + t * velocity(0) + position(0)
  proof
    apply const_accel'
    intro t
    specialize const_accel' t
    rw const_accel'_1
    ring
  qed
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# -- list -----------------------------------------------------------------


def test_list_covers_registry(capsys):
    code, out, err = run_cli(["list"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 19
    assert lines[0].startswith("langmuir_kinetic_fig1  ")
    assert "Langmuir 1918" in lines[0]
    brunauer = next(l for l in lines if l.startswith("brunauer_28_from_seq"))
    assert "depends: brunauer_26_from_seq  " in brunauer
    assert "premise P_0 = 1/C_L" in brunauer
    charles = next(l for l in lines if l.startswith("charles_from_ideal_gas"))
    assert "[reconstructed]" in charles


def test_console_entry_point(cli_env):
    # Run the [project.scripts] target the way the installed `derivkit`
    # wrapper does, without needing the wrapper on PATH.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["derivkit"]
    module, _, attr = target.partition(":")
    script = f"import sys; from {module} import {attr} as entry; sys.exit(entry())"
    r = subprocess.run([sys.executable, "-c", script, "list"],
                       capture_output=True, text=True, env=cli_env)
    assert r.returncode == 0
    assert len(r.stdout.strip().splitlines()) == 19


# -- check ----------------------------------------------------------------


def test_check_mixed_files_reports_each(tmp_path, capsys):
    a = write(tmp_path, "ok.deriv", OK_SCRIPT)
    b = write(tmp_path, "bad.deriv", FAIL_SCRIPT)
    code, out, _ = run_cli(["check", a, b, "--samples", "5"], capsys)
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[0].startswith("square_expand: Accepted (Symbolic)")
    assert lines[1].startswith(
        "will_fail: Failed (ObligationFailed: 1 + K * P != 0 at step 2)")
    assert out.count("at step") == 1


IMPLICIT_STATE = """theory implicit_s1
  fns f : State -> Real
  hyp h : f(s1) = 2
  goal f(s1) * f(s1) = 4
  proof
    rw h
    ring
  qed
"""


def test_check_json_reports_the_oracle_at_an_implicit_state(tmp_path, capsys):
    code, out, _ = run_cli(["check", "--json", write(tmp_path, "s1.deriv", IMPLICIT_STATE)],
                           capsys)
    assert code == 0
    [rec] = json.loads(out)
    assert rec["verdict"] == "accepted"
    assert rec["numeric"] == {"seed": 0, "samples": 100, "worst_residual": 0.0}


NESTED_SERIES = """\
theory nested
  vars x y : Real
  hyp hx0 : 0 < x
  hyp hx1 : x < 1
  hyp hy0 : 0 < y
  hyp hy1 : y < 1
  goal sum[i>=1](x^i * sum[j>=1](i * y^j)) = sum[i>=1](sum[j>=1](i * y^j) * x^i)
  proof
    ring
  qed
"""


def test_check_accepts_a_true_claim_with_a_nested_series(tmp_path, capsys):
    # the oracle evaluates the inner series only inside the outer body,
    # where the outer index is bound
    p = write(tmp_path, "nested.deriv", NESTED_SERIES)
    code, out, err = run_cli(["check", p, "--samples", "5"], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("nested: Accepted (Symbolic)")


SHADOW = """\
theory shadow
  vars x y : Real
  fns f : State->Real
  hyp hy : 0 < y
  hyp hy1 : y < 1
  goal sum[x>=0](f(x) * y^x) = f(0) + sum[x>=1](f(x) * y^x)
  proof
    index_shift
    ring
  qed
"""


def test_check_gives_a_series_index_one_verdict_under_either_name(tmp_path, capsys):
    # f(x) in the series is f at the index, not at the declared x, so
    # renaming the index to i changes nothing
    renamed = SHADOW.replace("[x>=", "[i>=").replace("(x) * y^x", "(i) * y^i")
    files = [write(tmp_path, "shadow.deriv", SHADOW),
             write(tmp_path, "renamed.deriv", renamed)]
    code, out, err = run_cli(["check"] + files, capsys)
    assert (code, err) == (0, "")
    assert [line.split("  [")[0] for line in out.splitlines()] \
        == ["shadow: Accepted (Symbolic)"] * 2


def test_readme_example_checks(tmp_path, capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text("utf-8").split("```text\ntheory scaled_series\n")[1]
    src = "theory scaled_series\n" + block.split("```")[0]
    code, out, err = run_cli(["check", write(tmp_path, "example.deriv", src)], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("scaled_series: Accepted (Symbolic)")


def test_check_json_shape(tmp_path, capsys):
    a = write(tmp_path, "ok.deriv", OK_SCRIPT)
    b = write(tmp_path, "bad.deriv", FAIL_SCRIPT)
    code, out, _ = run_cli(["check", a, b, "--json", "--samples", "5"], capsys)
    assert code == 1
    report = json.loads(out)
    assert [r["theory"] for r in report] == ["square_expand", "will_fail"]

    ok = report[0]
    assert ok["verdict"] == "accepted"
    assert ok["soundness"] == "symbolic"
    assert "failure" not in ok
    assert ok["steps"][0]["step"] == "ring"
    assert ok["numeric"]["samples"] == 5
    assert ok["numeric"]["worst_residual"] <= 1e-9
    assert isinstance(ok["ms"], int)

    bad = report[1]
    assert bad["verdict"] == "failed"
    assert bad["failure"] == {"step": 2,
                              "reason": "ObligationFailed: 1 + K * P != 0"}
    assert "numeric" not in bad
    # the steps recorded are those that succeeded before the failure
    assert [s["step"] for s in bad["steps"]] == ["unfold theta"]


OVERFLOW_SCRIPT = """\
theory t
  vars x : Real
  goal x^1000 = x^1000
  proof
    ring
  qed
"""


def strict_json(text):
    """text parsed as RFC 8259 JSON, which has no Infinity or NaN."""
    def reject(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=reject)


def test_json_writes_a_residual_that_is_not_finite_as_null(tmp_path, capsys):
    # x^1000 overflows a float at every sample, so the oracle fails
    # closed with an infinite residual
    code, out, _ = run_cli(["check", "--json", write(tmp_path, "big.deriv", OVERFLOW_SCRIPT)],
                           capsys)
    assert code == 1
    [rec] = strict_json(out)
    assert rec["verdict"] == "failed"
    assert rec["failure"]["step"] == -1
    assert rec["failure"]["reason"].startswith("numeric: OverflowError")
    assert rec["numeric"] == {"seed": 0, "samples": 0, "worst_residual": None}


def test_json_writes_a_nan_residual_as_null(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_suite", lambda theory, plan: NumericReport(
        plan.seed, plan.count, math.nan, False, "identity"))
    code, out, _ = run_cli(["check", "--json", write(tmp_path, "ok.deriv", OK_SCRIPT)], capsys)
    assert code == 1
    [rec] = strict_json(out)
    assert rec["failure"] == {"step": -1, "reason": "numeric: identity"}
    assert rec["numeric"]["worst_residual"] is None


def test_check_keeps_input_order(tmp_path, capsys):
    paths = []
    for i in (2, 0, 1):
        src = OK_SCRIPT.replace("square_expand", f"square_{i}")
        paths.append(write(tmp_path, f"s{i}.deriv", src))
    code, out, _ = run_cli(["check", *paths, "--samples", "5"], capsys)
    assert code == 0
    names = [l.split(":")[0] for l in out.strip().splitlines()]
    assert names == ["square_2", "square_0", "square_1"]


def test_check_theories_in_one_file_can_chain(tmp_path, capsys):
    chained = OK_SCRIPT + """\
theory uses_square
  vars x y : Real
  goal (x + y)^2 - (x^2 + 2 * x * y + y^2) = 0
  proof
    ring
  qed
"""
    p = write(tmp_path, "chain.deriv", chained)
    code, out, _ = run_cli(["check", p, "--samples", "5"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_check_missing_file(tmp_path, capsys):
    code, _, err = run_cli(["check", str(tmp_path / "absent.deriv")], capsys)
    assert code == 2
    assert "error:" in err


def test_check_file_that_is_not_utf8(tmp_path, capsys):
    p = tmp_path / "bad.deriv"
    p.write_bytes(b"theory t\xff\n")
    code, _, err = run_cli(["check", str(p)], capsys)
    assert code == 2
    assert err.startswith(f"error: {p}: ")
    assert len(err.splitlines()) == 1


def test_internal_error_is_one_line_and_exit_2(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("name")

    monkeypatch.setattr(cli, "check_theory", broken)
    code, _, err = run_cli(["check", write(tmp_path, "ok.deriv", OK_SCRIPT)], capsys)
    assert code == 2
    assert err == "error: internal error: KeyError: 'name'\n"
    assert "Traceback" not in err


def test_check_syntax_error(tmp_path, capsys):
    p = write(tmp_path, "broken.deriv", "theory ???\n")
    code, _, err = run_cli(["check", p], capsys)
    assert code == 2
    assert "syntax error:" in err


def test_check_semantic_error(tmp_path, capsys):
    p = write(tmp_path, "dup.deriv", OK_SCRIPT.replace(
        "vars x y : Real", "vars x x y : Real"))
    code, _, err = run_cli(["check", p], capsys)
    assert code == 2
    assert "invalid input:" in err


DERIV_OF_LET = """theory derivlet
  vars x : Real
  let w := x * x
  goal exists k, k = deriv(w)(x)
  proof
    use deriv(WITNESS)(x)
    ring
  qed
"""


def test_use_takes_the_derivative_of_a_let(tmp_path, capsys):
    # the kernel's scope check agrees with the parser: deriv applies to
    # a let binding, and an undeclared name is still unbound
    p = write(tmp_path, "let.deriv", DERIV_OF_LET.replace("WITNESS", "w"))
    code, out, err = run_cli(["check", p], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("derivlet: Accepted (Symbolic)")
    p = write(tmp_path, "undeclared.deriv", DERIV_OF_LET.replace("WITNESS", "g"))
    code, out, _ = run_cli(["check", p], capsys)
    assert code == 1
    assert out.startswith("derivlet: Failed (UnboundSymbol: unbound symbol: g at step 1)")


USES_27 = """theory uses27
  vars P : Real
  const C_L : Real
  const C_1 : Real
  const P_0 : Real
  hyp hCL : 0 < C_L
  hyp hC1 : 0 < C_1
  hyp h27 : P_0 = 1 / C_L
  goal 0 < C_L
  proof
    apply brunauer_27
  qed
"""


def test_applied_lemma_goal_must_name_a_let_in_scope(tmp_path, capsys):
    # brunauer_27 concludes diverges_left(b26, P_0); this theory has no
    # let b26, so that conclusion cannot enter its hypotheses
    code, out, err = run_cli(["check", write(tmp_path, "u.deriv", USES_27)], capsys)
    assert (code, err) == (1, "")
    assert out.startswith("uses27: Failed (UnboundSymbol: unbound symbol: b26 at step 1)")
    assert "Traceback" not in out


# -- builtin ----------------------------------------------------------------


def test_builtin_single_name(capsys):
    code, out, _ = run_cli(["builtin", "const_accel", "--samples", "5"], capsys)
    assert code == 0
    assert out.startswith("const_accel: Accepted (Symbolic)")


def test_builtin_divergence_table_shown(capsys):
    code, out, _ = run_cli(["builtin", "brunauer_27", "--samples", "5"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("brunauer_27: Accepted (NumericCertified)")
    assert lines[1].strip().startswith("j=1:")
    assert len(lines) == 9


def test_builtin_unknown_name(capsys):
    code, _, err = run_cli(["builtin", "nope"], capsys)
    assert code == 2
    assert "no builtin theory named" in err


def test_builtin_requires_target(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["builtin"])
    assert ei.value.code == 2


def test_flag_validation(capsys):
    # the oracle's tolerance and series cutoff are fixed, not flags
    for argv in (["builtin", "--all", "--samples", "0"],
                 ["builtin", "--all", "--tol", "1e9"],
                 ["builtin", "--all", "--series-cutoff", "2000"]):
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 2


# -- what a run checks ------------------------------------------------------


@pytest.fixture
def checked(monkeypatch, results):
    """Names of the theories the kernel checks, in order.

    A builtin gets the session's corpus result instead of a second check,
    so these tests count checks without paying for them.
    """
    names = []
    real = cli.check_theory

    def record(theory, *args, **kwargs):
        names.append(theory.name)
        return results.get(theory.name) or real(theory, *args, **kwargs)

    monkeypatch.setattr(cli, "check_theory", record)
    monkeypatch.setattr(theories, "check_theory", record)
    return names


def test_lemma_free_check_checks_only_its_theory(tmp_path, capsys, checked):
    p = write(tmp_path, "ok.deriv", OK_SCRIPT)
    code, _, _ = run_cli(["check", p, "--samples", "5"], capsys)
    assert code == 0
    assert checked == ["square_expand"]


def test_check_checks_the_closure_of_applied_lemmas(tmp_path, capsys, checked):
    p = write(tmp_path, "pos.deriv", POSITION_SCRIPT)
    code, out, _ = run_cli(["check", p, "--samples", "5"], capsys)
    assert code == 0, out
    assert checked == ["const_accel", "const_accel'", "position_law"]


def test_builtin_name_checks_only_its_closure(capsys, checked):
    code, _, _ = run_cli(["builtin", "torricelli_scalar", "--samples", "5"],
                         capsys)
    assert code == 0
    assert sorted(checked) == ["const_accel", "const_accel'", "torricelli_scalar"]


def test_builtin_all_checks_each_theory_once(capsys, checked):
    code, _, _ = run_cli(["builtin", "--all", "--samples", "5"], capsys)
    assert code == 0
    assert sorted(checked) == sorted(e.name for e in registry())


def test_builtin_ms_covers_the_kernel(monkeypatch, capsys):
    real = cli.check_theory

    def slow(*args, **kwargs):
        time.sleep(0.2)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "check_theory", slow)
    code, out, _ = run_cli(["builtin", "boyles_law_relation", "--json"], capsys)
    assert code == 0
    assert json.loads(out)[0]["ms"] >= 200


def test_depends_on_lists_every_applied_lemma():
    # build_pool checks only a builtin's depends_on closure, so every
    # lemma its script applies must be listed there, and nothing else,
    # or a check of it checks a lemma it never uses
    for e in registry():
        applied = {s.name for s in parse_theory(e.script).steps
                   if isinstance(s, ApplyLemma)}
        assert applied == set(e.depends_on), e.name


# -- closed output pipe -----------------------------------------------------


@pytest.mark.parametrize("argv, code", [
    (["builtin", "torricelli_scalar", "--json"], 0),
    (["check", "{fail}"], 1),
])
def test_closed_pipe_keeps_the_verdict(tmp_path, cli_env, argv, code):
    # the read end is closed before the child writes anything, so its
    # first write meets a broken pipe
    fail = write(tmp_path, "bad.deriv", FAIL_SCRIPT)
    argv = [a.format(fail=fail) for a in argv]
    proc = subprocess.Popen([sys.executable, "-m", "derivkit", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=cli_env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == code
    assert "Traceback" not in err
    assert err == ""


# -- which numeric suite a theory gets --------------------------------------


# a divergence goal under a name the oracle has never seen; `q` is
# declared first but is not the variable that approaches the point, and
# is not drawn
BLOWUP_SCRIPT = """\
theory my_blowup
  vars q P : Real
  const C_L : Real
  hyp hCL : 0 < C_L
  let b := 1 / (1 - C_L * P)
  goal diverges_left(b, 1 / C_L)
  proof
    limit_witness 8
  qed
"""

# a builtin's name on a goal of a different shape
RENAMED_SCRIPT = """\
theory brunauer_27
  vars x : Real
  goal x * 0 = 0
  proof
    ring
  qed
"""


@pytest.fixture
def suite_labels(monkeypatch):
    labels = []
    real = cli.run_suite

    def record(theory, plan):
        rep = real(theory, plan)
        labels.append(None if rep is None else rep.label)
        return rep

    monkeypatch.setattr(cli, "run_suite", record)
    return labels


def test_divergence_goal_gets_the_table_under_any_name(tmp_path, capsys,
                                                       suite_labels):
    p = write(tmp_path, "blowup.deriv", BLOWUP_SCRIPT)
    code, out, _ = run_cli(["check", p, "--json", "--samples", "5"], capsys)
    assert code == 0, out
    [report] = json.loads(out)
    assert report["soundness"] == "numeric_certified"
    assert report["numeric"]["samples"] == 5
    assert suite_labels == ["divergence_witness"]


def test_builtin_name_on_another_goal_gets_its_own_suite(tmp_path, capsys,
                                                         suite_labels):
    p = write(tmp_path, "renamed.deriv", RENAMED_SCRIPT)
    code, out, err = run_cli(["check", p, "--json", "--samples", "5"], capsys)
    assert code == 0, err
    [report] = json.loads(out)
    assert report["verdict"] == "accepted"
    assert report["numeric"]["samples"] == 5
    assert suite_labels == ["identity"]


def _brunauer_27_with(hyp):
    text = theories.load_script("brunauer_27").replace("theory brunauer_27", "theory b27p")
    return text.replace("  goal ", f"  {hyp}\n  goal ", 1)


# a true hypothesis on the approach variable P, directly or through the
# let x := C_L * P; the divergence claim is sampled over the constants
@pytest.mark.parametrize("hyp", ["hyp hP : 0 < P", "hyp hx1 : x < 1"],
                         ids=["on-P", "on-let"])
def test_a_true_hypothesis_on_the_approach_variable_keeps_the_claim(
        tmp_path, capsys, hyp):
    p = write(tmp_path, "b27p.deriv", _brunauer_27_with(hyp))
    code, out, _ = run_cli(["check", p], capsys)
    assert code == 0, out
    assert out.startswith("b27p: Accepted (NumericCertified)")
    code, out, _ = run_cli(["check", p, "--json"], capsys)
    assert code == 0, out
    [report] = json.loads(out)
    assert report["soundness"] == "numeric_certified"
    assert report["numeric"]["samples"] == 10


CONGRUENCE_SCRIPTS = {
    "shifted_argument": """\
theory shifted_argument
  fns f : State->Real
  vars x : Real
  goal f(x + 1) = f(1 + x)
  proof
    ring
  qed
""",
    "rewritten_argument": """\
theory rewritten_argument
  fns f : State->Real
  vars x y : Real
  hyp h : x = y
  goal f(x) = f(y)
  proof
    rw h
    ring
  qed
""",
}


@pytest.mark.parametrize("name", sorted(CONGRUENCE_SCRIPTS))
def test_applications_at_equal_arguments_are_accepted(tmp_path, capsys, name):
    # the kernel closes these by congruence; the oracle, which names
    # each application apart, must not fail them
    p = write(tmp_path, "cong.deriv", CONGRUENCE_SCRIPTS[name])
    code, out, err = run_cli(["check", p, "--json"], capsys)
    assert code == 0, out
    [report] = json.loads(out)
    assert report["verdict"] == "accepted"
    assert "numeric" not in report


# -- input too deep or too large to evaluate ----------------------------------


def _deep_script(goal):
    return f"theory deep\n  vars x : Real\n  goal {goal}\n  proof\n    ring\n  qed\n"


@pytest.mark.parametrize("goal, code", [
    ("(" * 250 + "x" + ")" * 250 + " = x", 2),
    ("+".join(["x"] * 1500) + " = 1500 * x", 2),
    ("(x + 1)^400 * 10^400 = 10^400 * (x + 1)^400", 1),
], ids=["nested-parens", "long-sum", "float-overflow"])
def test_deep_or_overflowing_input_has_no_traceback(tmp_path, cli_env, goal, code):
    path = write(tmp_path, "deep.deriv", _deep_script(goal))
    r = subprocess.run([sys.executable, "-m", "derivkit", "check", path],
                       capture_output=True, text=True, env=cli_env, timeout=120)
    assert r.returncode == code
    assert "Traceback" not in r.stderr
    if code == 2:
        assert r.stderr == "error: input nested too deeply to check\n"
    else:
        # the oracle could not evaluate the claim, so it is not passed
        assert r.stderr == ""
        assert "Failed (numeric: OverflowError" in r.stdout


def _witness_script(hyps, body, point):
    return (f"theory ov\n  vars P : Real\n  const C : Real\n{hyps}"
            f"  let w := {body}\n  goal diverges_left(w, {point})\n"
            "  proof\n    limit_witness 8\n  qed\n")


OVERFLOWING_WITNESS = {
    # the table is evaluated at a point near 10^400
    "table": ("hyp hC : 0 < C", "1 / (C^400 - P)", "C^400",
              "the divergence check cannot be evaluated (OverflowError)"),
    # the fact overflows at the corners C = -10 and 10, which are left
    # out, but it allows a negative C, where the table goes negative
    "fact": ("hyp hbig : 0 < C^400", "C / (1 - P)", "1",
             "divergence table goes negative at offset 1e-1"),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING_WITNESS))
def test_limit_witness_overflow_fails_the_step(tmp_path, cli_env, name):
    hyp, body, point, reason = OVERFLOWING_WITNESS[name]
    path = write(tmp_path, "ov.deriv", _witness_script(f"  {hyp}\n", body, point))
    r = subprocess.run([sys.executable, "-m", "derivkit", "check", path],
                       capture_output=True, text=True, env=cli_env, timeout=120)
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    assert f"StepFailed: {reason} at step 1" in r.stdout


def test_limit_witness_leaves_out_a_corner_that_overflows(tmp_path, cli_env):
    # 0 < C^400 cannot be evaluated at the corner C = 10; the other
    # corners and the draws certify the divergence
    hyps = "  hyp hbig : 0 < C^400\n  hyp hC : 0 < C\n"
    path = write(tmp_path, "ov.deriv", _witness_script(hyps, "C / (1 - P)", "1"))
    r = subprocess.run([sys.executable, "-m", "derivkit", "check", path],
                       capture_output=True, text=True, env=cli_env, timeout=120)
    assert r.returncode == 0, r.stdout + r.stderr
    assert "ov: Accepted (NumericCertified)" in r.stdout


def test_hypothesis_that_overflows_at_a_sample_is_a_rejected_sample(tmp_path, cli_env):
    # 0 < C^400 overflows for |C| above about 5.9; those draws are
    # rejected, so the true claim passes the oracle
    path = write(tmp_path, "big.deriv", "theory big_hyp\n  vars x : Real\n"
                 "  const C : Real\n  hyp hbig : 0 < C^400\n"
                 "  goal x * C = C * x\n  proof\n    ring\nqed\n")
    r = subprocess.run([sys.executable, "-m", "derivkit", "check", path],
                       capture_output=True, text=True, env=cli_env, timeout=120)
    assert r.returncode == 0, r.stdout + r.stderr
    assert "big_hyp: Accepted (Symbolic)" in r.stdout


def test_cli_import_loads_no_dataclasses_inspect_or_resources(cli_env):
    code = ("import derivkit.cli, sys; print(' '.join(m for m in "
            "('dataclasses', 'inspect', 'importlib.resources', '_hashlib') "
            "if m in sys.modules))")
    r = subprocess.run([sys.executable, "-S", "-c", code],
                       capture_output=True, text=True, env=cli_env, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == ""
    package = Path(derivkit.__file__).parent
    mentions = [str(p) for p in package.rglob("*") if p.is_file()
                and "__pycache__" not in p.parts and b"dataclass" in p.read_bytes()]
    assert mentions == []


# -- what each command loads ------------------------------------------------

# runs the CLI and prints, even when argparse exits, the modules loaded
LOADED = ("import sys\nfrom derivkit.cli import main\ntry:\n"
          "    sys.exit(main(sys.argv[1:]))\nfinally:\n"
          "    print('loaded:', *sorted(sys.modules), file=sys.stderr)\n")
CHECKER = {"derivkit." + m
           for m in ("kernel", "discharge", "ringnorm", "poly", "numcheck")}
PARSER = {"derivkit.parser", "derivkit.formula", "derivkit.expr"}


@pytest.mark.parametrize("argv, code, absent", [
    (["list"], 0, CHECKER | PARSER),
    (["--help"], 0, CHECKER | PARSER),
    ([], 2, CHECKER | PARSER),
    (["builtin", "--all", "--samples", "0"], 2, CHECKER | PARSER),
    (["builtin", "nosuch"], 2, CHECKER | PARSER),
    (["check", "missing.deriv"], 2, CHECKER | PARSER),
    (["check", "broken.deriv"], 2, CHECKER),
    (["check", "ok.deriv"], 0, set()),
], ids=["list", "help", "no-command", "no-samples", "unknown-builtin",
        "missing-file", "syntax-error", "valid-file"])
def test_a_command_loads_only_what_it_runs(tmp_path, cli_env, argv, code, absent):
    write(tmp_path, "broken.deriv", "theory ???\n")
    write(tmp_path, "ok.deriv", OK_SCRIPT)
    r = subprocess.run([sys.executable, "-c", LOADED] + argv, cwd=tmp_path,
                       capture_output=True, text=True, env=cli_env, timeout=120)
    assert r.returncode == code, r.stderr
    last = r.stderr.splitlines()[-1].split()
    assert last[0] == "loaded:"
    loaded = set(last[1:])
    assert loaded & absent == set()
    if code == 0 and argv[0] == "check":
        assert CHECKER | PARSER <= loaded


def test_import_derivkit_loads_a_submodule_on_first_use(cli_env):
    code = ("import sys, derivkit\n"
            "before = [m for m in sys.modules if m.startswith('derivkit.')]\n"
            "from derivkit import *\n"
            "from derivkit.kernel import check_theory as k\n"
            "print(before, derivkit.check_theory is k, hasattr(derivkit, 'nosuch'))\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=cli_env, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["[]", "True", "False"]


def test_the_tracer_boundaries_are_called_through(tmp_path, capsys, monkeypatch):
    # perfbench/tracing.py times each layer by replacing these attributes,
    # so loading the checker must call through them and keep each stand-in
    calls = {}

    def count(owner, attr):
        real, key = getattr(owner, attr), f"{owner.__name__}.{attr}"
        calls[key] = 0

        def counted(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    for attr in ("parse_theories", "build_pool", "check_theory", "run_suite"):
        count(cli, attr)
    for attr in ("parse_theory", "check_theory"):
        count(theories, attr)
    code, _, _ = run_cli(["builtin", "--all"], capsys)
    assert code == 0
    assert calls["derivkit.cli.check_theory"] == 19
    assert calls["derivkit.cli.run_suite"] == 19
    assert calls["derivkit.theories.parse_theory"] == 19

    calls.update(dict.fromkeys(calls, 0))
    code, _, _ = run_cli(["check", write(tmp_path, "pos.deriv", POSITION_SCRIPT)],
                         capsys)
    assert code == 0
    assert calls["derivkit.cli.parse_theories"] == 1
    assert calls["derivkit.cli.build_pool"] == 1
    # the pool checks the closure of the applied lemma
    assert calls["derivkit.theories.check_theory"] == 2
    assert calls["derivkit.cli.check_theory"] == 1


# 400 terms that the grounder rebuilds because of the application, 400
# that a let makes every unfolding substitute into, and 600 in an
# equation the sampler reads as linear in x
LONG_SUMS = {
    "application": "theory deep\n  fns f : State->Real\n  vars x : Real\n"
                   "  goal f(x) + " + " + ".join(["x"] * 400) + " = f(x) + 400 * x\n"
                   "  proof\n    ring\n  qed\n",
    "let": "theory deep\n  vars x : Real\n  let w := x\n"
           "  goal " + " + ".join(["x"] * 400) + " = 400 * x\n"
           "  proof\n    ring\n  qed\n",
    "equation": "theory deep\n  vars x y : Real\n  hyp h : y * 2 = " + " + ".join(["x"] * 600) + "\n"
                "  goal y * 2 + 1 = 1 + y * 2\n  proof\n    ring\n  qed\n",
}


@pytest.mark.parametrize("name", sorted(LONG_SUMS))
def test_long_sum_through_the_grounder_is_checked(tmp_path, cli_env, name):
    path = write(tmp_path, "long.deriv", LONG_SUMS[name])
    r = subprocess.run([sys.executable, "-m", "derivkit", "check", "--samples", "5", path],
                       capture_output=True, text=True, env=cli_env, timeout=120)
    assert r.returncode == 0, r.stderr
    assert "deep: Accepted (Symbolic)" in r.stdout


def test_long_flat_sum_is_checked_by_kernel_and_oracle(tmp_path, cli_env):
    # the oracle walks the goal with an explicit stack, so a flat sum
    # the kernel can normalize does not overflow it
    path = write(tmp_path, "long.deriv", _deep_script("+".join(["x"] * 600) + " = 600 * x"))
    r = subprocess.run([sys.executable, "-m", "derivkit", "check", path],
                       capture_output=True, text=True, env=cli_env, timeout=120)
    assert r.returncode == 0, r.stderr
    assert "Traceback" not in r.stderr
    assert "deep: Accepted (Symbolic)" in r.stdout
