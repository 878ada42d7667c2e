"""The builtin theory corpus.

Each entry names a .deriv script shipped next to this module, the
lemmas it applies or presupposes, and a citation into the historical
literature the derivation formalizes. Every entry comes after the
entries it depends on, so the registry order is a dependency order.
Checking the registry in order is the package's own regression suite:
every entry must come out accepted, eighteen symbolically and
brunauer_27 by numeric witness.
"""

from __future__ import annotations

import os
from typing import Collection, Dict, List, Optional, Tuple

from ..expr import Node
from ..formula import Theory
from ..kernel import CheckResult, LemmaEntry, LemmaPool, check_theory
from ..parser import parse_theory


class TheoryEntry(Node):
    __slots__ = ("name", "script", "depends_on", "citation", "reconstructed")
    _defaults = {"reconstructed": False}
    name: str
    script: str
    depends_on: Tuple[str, ...]
    citation: str
    reconstructed: bool


_SPECS: List[Tuple[str, Tuple[str, ...], str, bool]] = [
    ("langmuir_kinetic_fig1", (),
     "Langmuir 1918, adsorption rate balance on plane surfaces", False),
    ("langmuir_kinetic_let", (),
     "Langmuir 1918, single-site adsorption equilibrium", False),
    ("langmuir_model_derivation", (),
     "Langmuir 1918, fractional surface coverage model", False),
    ("langmuir_zero_pressure", (),
     "Langmuir 1918, zero coverage at zero pressure", False),
    ("bet_sequence_math", (),
     "Brunauer, Emmett and Teller 1938, multilayer sequence identity", False),
    ("brunauer_26_from_seq", ("bet_sequence_math",),
     "Brunauer, Emmett and Teller 1938, equation 26", False),
    ("brunauer_27", (),
     "Brunauer, Emmett and Teller 1938, equation 27, saturation divergence", False),
    ("brunauer_28_from_seq", ("brunauer_26_from_seq", "brunauer_27"),
     "Brunauer, Emmett and Teller 1938, equation 28", False),
    ("boyles_law_relation", (),
     "Boyle 1662, pressure-volume reciprocity", False),
    ("boyles_law_relation'", (),
     "Boyle 1662, pressure-volume reciprocity, converse form", False),
    ("boyles_from_ideal_gas", (),
     "Clapeyron 1834, ideal gas law in an isothermal closed system", False),
    ("charles_from_ideal_gas", (),
     "Gay-Lussac 1802, expansion of gases by heat", True),
    ("avogadro_from_ideal_gas", (),
     "Avogadro 1811, equal volumes contain equal numbers", True),
    ("const_accel", (),
     "Galilei 1638, uniformly accelerated motion, velocity law", False),
    ("const_accel'", ("const_accel",),
     "Galilei 1638, uniformly accelerated motion, position law", False),
    ("const_accel''_minus", ("const_accel", "const_accel'"),
     "Heytesbury c. 1335, mean speed theorem, difference form", False),
    ("const_accel''_plus", ("const_accel", "const_accel'"),
     "Heytesbury c. 1335, mean speed theorem, sum form", False),
    ("torricelli_scalar", ("const_accel", "const_accel'"),
     "Torricelli 1644, De motu gravium", False),
    ("antideriv_const_demo", (),
     "Cauchy 1823, antiderivative of a constant", False),
]


def load_script(name: str) -> str:
    path = os.path.join(os.path.dirname(__file__), name + ".deriv")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def registry() -> List[TheoryEntry]:
    return [TheoryEntry(name, load_script(name), deps, cite, rec)
            for name, deps, cite, rec in _SPECS]


def load_theory(name: str) -> Theory:
    return parse_theory(load_script(name))


def build_pool(seed: int = 0, names: Optional[Collection[str]] = None
               ) -> Tuple[LemmaPool, Dict[str, CheckResult]]:
    """Check registry entries in registry order, which lists every entry
    after the entries it depends on.

    By default the whole registry; with `names`, only those entries and
    their dependencies. Returns the lemma pool (for checking user
    scripts against) and the per-theory results.
    """
    entries = registry()
    if names is not None:
        # one backward pass collects the closure: a dependent comes
        # after its dependencies, so it is seen first
        want = set(names)
        for e in reversed(entries):
            if e.name in want:
                want.update(e.depends_on)
        entries = [e for e in entries if e.name in want]
    pool: LemmaPool = {}
    results: Dict[str, CheckResult] = {}
    for entry in entries:
        theory = parse_theory(entry.script)
        res = check_theory(theory, pool, seed)
        pool[theory.name] = LemmaEntry(theory, res.accepted)
        results[entry.name] = res
    return pool, results
