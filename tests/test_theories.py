"""The shipped theory corpus: registry shape, ordering, full check."""

from importlib import resources

import pytest

from derivkit.formula import ApplyLemma
from derivkit.kernel import NUMERIC_CERTIFIED, SYMBOLIC, check_theory
from derivkit.parser import parse_theory
from derivkit.theories import build_pool, load_script, load_theory, registry


def test_registry_has_nineteen_entries():
    entries = registry()
    assert len(entries) == 19
    assert len({e.name for e in entries}) == 19


def test_registry_metadata():
    entries = registry()
    names = {e.name for e in entries}
    for e in entries:
        assert e.citation.strip(), e.name
        assert e.script.strip(), e.name
        for dep in e.depends_on:
            assert dep in names, (e.name, dep)


def test_load_script_reads_the_packaged_text():
    for e in registry():
        packaged = resources.files("derivkit.theories") / (e.name + ".deriv")
        assert load_script(e.name) == packaged.read_text("utf-8")


def test_registry_scripts_parse_to_matching_names():
    for e in registry():
        assert parse_theory(e.script).name == e.name


def test_reconstructed_flags():
    rec = {e.name for e in registry() if e.reconstructed}
    assert rec == {"charles_from_ideal_gas", "avogadro_from_ideal_gas"}


def test_registry_order_is_a_dependency_order():
    # every entry names, and applies, only entries listed before it
    seen = set()
    for e in registry():
        assert set(e.depends_on) <= seen, e.name
        applied = {s.name for s in parse_theory(e.script).steps
                   if isinstance(s, ApplyLemma)}
        assert applied <= seen, e.name
        seen.add(e.name)


def test_dependency_order_from_roots_is_their_closure():
    _, results = build_pool(0, {"torricelli_scalar", "nope"})
    assert list(results) == [
        "const_accel", "const_accel'", "torricelli_scalar"]


def test_load_theory_roundtrip():
    t = load_theory("const_accel")
    assert t.name == "const_accel"
    assert load_script("const_accel").startswith("--")


def test_whole_corpus_accepted(pool_and_results):
    _, results = pool_and_results
    assert len(results) == 19
    bad = {n: r.failure for n, r in results.items() if not r.accepted}
    assert bad == {}


def test_soundness_split(pool_and_results):
    _, results = pool_and_results
    for name, res in results.items():
        want = NUMERIC_CERTIFIED if name == "brunauer_27" else SYMBOLIC
        assert res.soundness == want, name


def test_pool_entries_reusable(pool_and_results):
    pool, _ = pool_and_results
    src = "\n".join([
        "theory scaled",
        "  vars P K V : Real",
        "  hyp hK : 0 < K",
        "  hyp hP : 0 < P",
        "  let theta := K * P / (1 + K * P)",
        "  goal 3 * theta * (1 + K * P) = 3 * (K * P)",
        "  proof",
        "    unfold theta",
        "    field_normalize",
        "    ring",
        "  qed",
    ]) + "\n"
    assert check_theory(parse_theory(src), pool).accepted


@pytest.mark.parametrize("name,hyp", [
    ("langmuir_model_derivation", "hyp hreaction"),
    ("bet_sequence_math", "hyp hx1"),
    ("boyles_from_ideal_gas", "hyp hig"),
])
def test_dropping_a_hypothesis_breaks_the_proof(pool_and_results, name, hyp):
    pool, _ = pool_and_results
    out, dropped = [], False
    for ln in load_script(name).splitlines():
        if not dropped and ln.strip().startswith(hyp + " "):
            dropped = True
            continue
        out.append(ln)
    assert dropped, f"no line starting with {hyp!r} in {name}"
    mutant = parse_theory("\n".join(out) + "\n")
    assert not check_theory(mutant, pool).accepted
