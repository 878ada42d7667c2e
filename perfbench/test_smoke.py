"""Quick self-check of the benchmark at a reduced size.

    python3 -m pytest perfbench -q

Run from the checkout root. The end-to-end cases make one short run of
each mode on `edit_check`; each checks all six inputs once (about two
minutes in all).
"""

import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gate  # noqa: E402
import workloads  # noqa: E402
from workloads import Call, Expect  # noqa: E402


def test_inputs_follow_the_seed(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    a = workloads.edit_calls(7, str(tmp_path))
    b = workloads.edit_calls(7, str(tmp_path))
    c = workloads.edit_calls(8, str(tmp_path))
    assert [x.files for x in a] == [x.files for x in b]
    assert [x.files for x in a] != [x.files for x in c]
    names = [x.expect[0].input for x in a]
    assert len(names) == 6 and "paper_example" in names
    builtin_names = set(workloads.BUILTINS)
    assert not any(x.expect[0].theory in builtin_names for x in a)


def test_attempted_depends_on_the_seed_alone(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    import run
    sizes = {"corpus": len(workloads.BUILTINS), "edit_check": 6,
             "mutants": workloads.MUTANT_COUNT}
    for name, make in workloads.WORKLOADS.items():
        for seed in (1, 2):
            assert run.Tally(make(seed, str(tmp_path))).attempted == sizes[name]


def test_paper_example_is_verbatim():
    with open(os.path.join(ROOT, "PAPER.md"), encoding="utf-8") as fh:
        paper = fh.read()
    assert workloads.paper_example() in paper


def test_mutants_delete_one_hyp_line_each(monkeypatch):
    monkeypatch.chdir(ROOT)
    muts = workloads.mutant_texts()
    assert len(muts) == workloads.MUTANT_COUNT
    assert len({name for name, _, _ in muts}) == len(muts)
    for name, theory, text in muts:
        original = workloads.read_builtin(theory)
        assert len(original.splitlines()) - len(text.splitlines()) == 1


def test_generated_identities_hold_by_construction():
    rng = random.Random(3)
    points = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)]
              for _ in range(5)]
    for k in range(20):
        _, (p1, p2, rhs) = workloads.ring_identity(rng, f"r{k}", False)
        for x in points:
            lhs = workloads.poly_eval(p1, x) * workloads.poly_eval(p2, x)
            assert lhs == workloads.poly_eval(rhs, x)
        _, (p1, p2, bad) = workloads.ring_identity(rng, f"r{k}", True)
        assert any(workloads.poly_eval(p1, x) * workloads.poly_eval(p2, x)
                   != workloads.poly_eval(bad, x) for x in points)
        _, (p1, p2, num) = workloads.field_identity(rng, f"f{k}", False)
        for a, b, u, v in points:
            if u and v:
                x = [a, b, u, v]
                lhs = workloads.poly_eval(p1, x) / u + workloads.poly_eval(p2, x) / v
                assert lhs == workloads.poly_eval(num, x) / (u * v)


def test_gate_counts_each_failure_kind():
    call = Call(["check"], 0, [Expect("in", "t", "accepted", "symbolic")])
    good = json.dumps([{"theory": "t", "verdict": "accepted", "soundness": "symbolic"}])
    assert gate.check_call(call, 0, good, "", False) == ([("in", None)], 1)
    wrong = good.replace("accepted", "failed")
    assert gate.check_call(call, 0, wrong, "", False)[0][0][1].startswith("verdict")
    assert gate.check_call(call, 1, good, "", False)[0][0][1].startswith("exit")
    assert gate.check_call(call, 0, good, "Traceback (most", False)[0][0][1] == "traceback"
    assert gate.check_call(call, None, "", "", True)[0][0][1] == "timeout"
    snap = Call(["builtin"], 0, [Expect("in", "t", "accepted", "symbolic",
                                        [{"step": "ring", "obligations": []}])])
    moved = json.dumps([{"theory": "t", "verdict": "accepted", "soundness": "symbolic",
                         "steps": [{"step": "ring", "obligations": ["x != 0"]}]}])
    assert "obligation" in gate.check_call(snap, 0, moved, "", False)[0][0][1]


def test_known_defect_is_excused_only_for_its_own_reason(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    import run
    call = next(c for c in workloads.edit_calls(1, str(tmp_path))
                if c.expect[0].input == "paper_example")
    run.write_inputs(call)
    r = run.run_cli(call.args, run.child_env(ROOT), str(tmp_path))
    tally = run.Tally([call])
    tally.add(call, r.code, r.stdout, r.stderr, r.timed_out)
    tally.add(call, r.code, r.stdout, r.stderr, r.timed_out)
    assert (tally.attempted, tally.failed, tally.correct) == (1, 1, True)
    wrong = json.dumps([{"theory": "scaled_series", "verdict": "failed"}])
    tally.add(call, 1, wrong, "", False)  # the parser fixed, `ring` not yet
    assert tally.failed == 1 and not tally.correct


def _run(cwd, trace):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", "edit_check",
                           "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def test_runs_report_every_declared_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        r = _run(ROOT, trace)
        assert r.returncode == 0, r.stderr
        result = json.loads(r.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in bench[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    r = _run(tmp_path, 0)
    assert r.returncode != 0
    assert '"metrics"' not in r.stdout
