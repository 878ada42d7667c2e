"""Seeded inputs for the three benchmark workloads, each with a known answer.

Each workload is one pass: a fixed list of calls drawn from the seed,
which the runner repeats until the run's time is used. So the inputs a
run checks, and its `attempted` count, depend on the seed alone, never
on how many calls fit in the time.

Nothing here imports derivkit. Known answers come from construction
(generated identities, deleted hypotheses) or from the labels the
README documents for the builtin corpus, never from running the checker.
The one exception is the corpus obligation snapshot, which records what
the checker emitted when the benchmark was defined, so that a later
speed-up that changes an obligation list is caught.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
THEORY_DIR = os.path.join("src", "derivkit", "theories")

# The builtin corpus and its documented soundness labels: eighteen
# theories check symbolically, brunauer_27 by numeric witness.
BUILTINS: List[str] = [
    "langmuir_kinetic_fig1", "langmuir_kinetic_let",
    "langmuir_model_derivation", "langmuir_zero_pressure",
    "bet_sequence_math", "brunauer_26_from_seq", "brunauer_27",
    "brunauer_28_from_seq", "boyles_law_relation", "boyles_law_relation'",
    "boyles_from_ideal_gas", "charles_from_ideal_gas",
    "avogadro_from_ideal_gas", "const_accel", "const_accel'",
    "const_accel''_minus", "const_accel''_plus", "torricelli_scalar",
    "antideriv_const_demo",
]
NUMERIC_CERTIFIED = {"brunauer_27"}
# README label -> the `soundness` string of the --json schema
JSON_LABEL = {"Symbolic": "symbolic", "NumericCertified": "numeric_certified"}

# Lemma-free builtins whose obligations are cheap; edit_check copies them
# under a fresh theory name.
EDIT_SOURCES: List[str] = [
    "langmuir_kinetic_let", "langmuir_model_derivation",
    "langmuir_zero_pressure", "boyles_law_relation", "boyles_law_relation'",
    "boyles_from_ideal_gas", "charles_from_ideal_gas",
    "avogadro_from_ideal_gas", "const_accel", "antideriv_const_demo",
    "brunauer_27",
]
MUTANT_COUNT = 68

# Failures that a documented defect of the program causes today, keyed by
# input name and the exact reason the gate gives. They are counted and
# reported by name, and do not make the run incorrect. Any other reason on
# the same input does.
KNOWN_DEFECTS = {
    ("paper_example",
     "exit 2, expected 0: syntax error: expected ':', found '\\n' at line 2, col 7"):
        "the parser rejects `vars x` without a sort. Behind it is a second "
        "defect: with `vars x : Real` the proof fails at step 3, because "
        "`ring` does not equate `2 * (x/(1-x))` with `2*x/(1-x)`. Fixing only "
        "the parser turns this into a wrong verdict (exit 1), which counts "
        "as incorrect until both are fixed.",
}


def builtin_label(name: str) -> str:
    return JSON_LABEL["NumericCertified" if name in NUMERIC_CERTIFIED
                      else "Symbolic"]


@dataclass(frozen=True)
class Expect:
    """The known answer for one theory of a call."""
    input: str            # stable input name, used in failure reports
    theory: str
    verdict: str          # "accepted" or "failed"
    soundness: Optional[str] = None
    steps: Optional[list] = None   # obligation snapshot, corpus only


@dataclass
class Call:
    """One CLI invocation with its known answer."""
    args: List[str]
    exit_code: int
    expect: List[Expect]
    files: Dict[str, str] = field(default_factory=dict)  # path -> text


def read_builtin(name: str) -> str:
    with open(os.path.join(THEORY_DIR, name + ".deriv"), encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------- corpus

def load_snapshot() -> Dict[str, list]:
    with open(os.path.join(HERE, "corpus_obligations.json"), encoding="utf-8") as fh:
        return json.load(fh)


def corpus_calls(seed: int, workdir: str) -> List[Call]:
    snap = load_snapshot()
    expect = [Expect(n, n, "accepted", builtin_label(n), snap[n])
              for n in BUILTINS]
    return [Call(["builtin", "--all", "--json", "--seed", str(seed)], 0, expect)]


# ---------------------------------------------------------------- mutants

def mutant_texts() -> List[Tuple[str, str, str]]:
    """(input name, theory name, text) for every single `hyp` line deletion."""
    out = []
    for name in BUILTINS:
        lines = read_builtin(name).split("\n")
        for i, line in enumerate(lines):
            if line.strip().startswith("hyp "):
                hyp = line.split()[1]
                text = "\n".join(lines[:i] + lines[i + 1:])
                out.append((f"{name}-{hyp}", name, text))
    return out


def mutant_calls(seed: int, workdir: str) -> List[Call]:
    muts = mutant_texts()
    if len(muts) != MUTANT_COUNT:
        raise RuntimeError(f"expected {MUTANT_COUNT} mutants, found {len(muts)}")
    random.Random(seed).shuffle(muts)
    files, expect = {}, []
    for k, (inp, theory, text) in enumerate(muts):
        files[os.path.join(workdir, f"mutant{k:02d}.deriv")] = text
        expect.append(Expect(inp, theory, "failed"))
    return [Call(["check", "--json", "--seed", str(seed)] + list(files), 1,
                 expect, files)]


# ------------------------------------------------------------ edit_check

Mono = Tuple[int, ...]


def _poly_mul(p: Dict[Mono, int], q: Dict[Mono, int]) -> Dict[Mono, int]:
    out: Dict[Mono, int] = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _poly_add(p: Dict[Mono, int], q: Dict[Mono, int]) -> Dict[Mono, int]:
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _poly_text(p: Dict[Mono, int], names: List[str]) -> str:
    parts = []
    for m in sorted(p, reverse=True):
        c = p[m]
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e]
        body = "*".join(factors)
        mag = abs(c)
        term = body if mag == 1 and body else (f"{mag}*{body}" if body else str(mag))
        if not parts:
            parts.append(term if c > 0 else "-" + term)
        else:
            parts.append(("+ " if c > 0 else "- ") + term)
    return " ".join(parts) if parts else "0"


def _rand_poly(rng: random.Random, nvars: int, terms: int) -> Dict[Mono, int]:
    p: Dict[Mono, int] = {}
    while len(p) < terms:
        m = tuple(rng.randint(0, 2) for _ in range(nvars))
        if sum(m) <= 3:
            p[m] = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
    return p


def _perturb(rng: random.Random, p: Dict[Mono, int]) -> Dict[Mono, int]:
    m = rng.choice(sorted(p))
    out = dict(p)
    out[m] += rng.choice([-1, 1])
    return {k: c for k, c in out.items() if c}


def poly_eval(p: Dict[Mono, int], point: List[Fraction]) -> Fraction:
    total = Fraction(0)
    for m, c in p.items():
        t = Fraction(c)
        for x, e in zip(point, m):
            t *= x ** e
        total += t
    return total


def ring_identity(rng: random.Random, name: str, perturbed: bool):
    """`p1 * p2 = expand(p1 * p2)`, closed by `ring`; perturbed: false."""
    names = ["a", "b", "c"]
    p1, p2 = _rand_poly(rng, 3, rng.randint(2, 3)), _rand_poly(rng, 3, rng.randint(2, 3))
    rhs = _poly_mul(p1, p2)
    if perturbed:
        rhs = _perturb(rng, rhs)
    text = (f"theory {name}\nvars a b c : Real\n"
            f"goal ({_poly_text(p1, names)}) * ({_poly_text(p2, names)}) = "
            f"{_poly_text(rhs, names)}\nproof\n  ring\nqed\n")
    return text, (p1, p2, rhs)


def field_identity(rng: random.Random, name: str, perturbed: bool):
    """`p1/u + p2/v = expand(p1*v + p2*u)/(u*v)` with `0 < u`, `0 < v`."""
    names = ["a", "b", "u", "v"]
    p1 = _rand_poly(rng, 2, rng.randint(2, 3))
    p2 = _rand_poly(rng, 2, rng.randint(2, 3))
    p1, p2 = ({m + (0, 0): c for m, c in p.items()} for p in (p1, p2))
    u, v = {(0, 0, 1, 0): 1}, {(0, 0, 0, 1): 1}
    num = _poly_add(_poly_mul(p1, v), _poly_mul(p2, u))
    if perturbed:
        num = _perturb(rng, num)
    text = (f"theory {name}\nvars a b u v : Real\n"
            f"hyp hu : 0 < u\nhyp hv : 0 < v\n"
            f"goal ({_poly_text(p1, names)}) / u + ({_poly_text(p2, names)}) / v = "
            f"({_poly_text(num, names)}) / (u * v)\n"
            f"proof\n  field_normalize\n  ring\nqed\n")
    return text, (p1, p2, num)


def paper_example() -> str:
    with open(os.path.join(HERE, "paper_example.deriv"), encoding="utf-8") as fh:
        return fh.read()


def rename_theory(text: str, old: str, new: str) -> str:
    head = f"theory {old}\n"
    if head not in text:
        raise RuntimeError(f"no `theory {old}` line to rename")
    return text.replace(head, f"theory {new}\n", 1)


def edit_inputs(rng: random.Random) -> List[Tuple[str, str, str, str, Optional[str]]]:
    """Six inputs in shuffled order:
    (input name, theory name, text, expected verdict, expected label)."""
    items = [("paper_example", "scaled_series", paper_example(), "accepted",
              JSON_LABEL["Symbolic"])]
    for src in rng.sample(EDIT_SOURCES, 2):
        new = f"{src.replace(chr(39), 'p')}_copy"
        items.append((f"copy:{src}", new,
                      rename_theory(read_builtin(src), src, new),
                      "accepted", builtin_label(src)))
    items.append(("ring", "ring_id", ring_identity(rng, "ring_id", False)[0],
                  "accepted", JSON_LABEL["Symbolic"]))
    items.append(("field", "field_id", field_identity(rng, "field_id", False)[0],
                  "accepted", JSON_LABEL["Symbolic"]))
    gen = rng.choice([ring_identity, field_identity])
    items.append(("perturbed", "perturbed_id",
                  gen(rng, "perturbed_id", True)[0], "failed", None))
    rng.shuffle(items)
    return items


def edit_calls(seed: int, workdir: str) -> List[Call]:
    path = os.path.join(workdir, "edit.deriv")
    return [Call(["check", "--json", "--seed", str(seed), path],
                 0 if verdict == "accepted" else 1,
                 [Expect(inp, theory, verdict, label)], {path: text})
            for inp, theory, text, verdict, label in edit_inputs(random.Random(seed))]


WORKLOADS = {
    "corpus": corpus_calls,
    "edit_check": edit_calls,
    "mutants": mutant_calls,
}
