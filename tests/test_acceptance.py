"""End-to-end acceptance checks for the packaged corpus and oracles.

Each test prints exactly one summary line with capture disabled so the
criterion verdicts survive into piped logs, then asserts the same facts
so a regression fails loudly.
"""

import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import pytest

from derivkit.expr import (
    SERIES_CUTOFF,
    Add,
    Const,
    Div,
    Mul,
    Neg,
    Pow,
    SeriesSum,
    Sub,
    Var,
    eval_expr,
    free_vars,
)
from derivkit.kernel import NUMERIC_CERTIFIED, SYMBOLIC, check_theory
from derivkit.parser import parse_theory, print_theory
from derivkit.ringnorm import Normalizer
from derivkit.theories import load_theory, registry


@pytest.fixture
def report(capfd):
    def _report(n: int, ok: bool, detail: str) -> None:
        status = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"criterion {n}: {status} ({detail})", flush=True)

    return _report


def _let_values(theory, base: dict) -> dict:
    """Evaluate the theory's let chain; later lets see earlier values."""
    vals = {}
    for name, body in theory.lets:
        vals[name] = eval_expr(body, {**base, **vals})
    return vals


# -- 1: the whole builtin corpus through the command line --------------


def test_criterion_1_corpus_acceptance(report, cli_env):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "derivkit", "builtin", "--all", "--seed", "42"],
        capture_output=True,
        text=True,
        env=cli_env,
    )
    wall = time.perf_counter() - t0
    verdicts = {}
    for line in proc.stdout.splitlines():
        if ": Accepted (" in line:
            name, rest = line.split(": Accepted (", 1)
            verdicts[name] = rest.split(")", 1)[0]
    expected = {e.name for e in registry()}
    symbolic = sum(1 for v in verdicts.values() if v == "Symbolic")
    numeric = sum(1 for v in verdicts.values() if v == "NumericCertified")
    ok = (
        proc.returncode == 0
        and set(verdicts) == expected
        and symbolic == 18
        and numeric == 1
        and verdicts.get("brunauer_27") == "NumericCertified"
        and wall < 10.0
    )
    report(1, ok, f"{len(verdicts)} accepted, {symbolic} symbolic, {numeric} numeric, {wall:.1f}s")
    assert proc.returncode == 0, proc.stderr
    assert set(verdicts) == expected
    assert symbolic == 18
    assert numeric == 1
    assert verdicts["brunauer_27"] == "NumericCertified"
    assert wall < 10.0, f"corpus run took {wall:.1f}s"


# -- 2: dropping any single hypothesis must flip the verdict -----------


def test_criterion_2_mutation_resistance(pool, report):
    total = 0
    survivors = []
    for entry in registry()[:11]:
        th = parse_theory(entry.script)
        for k in range(len(th.hyps)):
            mutant = th.replace(hyps=th.hyps[:k] + th.hyps[k + 1:])
            total += 1
            res = check_theory(mutant, pool=dict(pool), seed=42)
            if res.accepted:
                survivors.append(f"{th.name} without {th.hyps[k][0]}")
    killed = total - len(survivors)
    ok = total >= 30 and not survivors
    report(2, ok, f"{killed}/{total} single-hypothesis deletions rejected")
    assert total >= 30, f"only {total} mutants generated"
    assert not survivors, f"mutants accepted: {survivors}"


# -- 3: single-site isotherm arithmetic --------------------------------


def test_criterion_3_langmuir_numeric(report):
    th = load_theory("langmuir_model_derivation")
    base = {"P": 3.0, "k_ad": 2.0, "k_d": 1.0, "S": 1.0}
    # the rate balance k_ad*P*S = k_d*A pins the adsorbed amount
    base["A"] = base["k_ad"] * base["P"] * base["S"] / base["k_d"]
    vals = _let_values(th, base)
    target = 6.0 / 7.0
    kinetic = vals["theta"]
    model = vals["model"]

    zero = load_theory("langmuir_zero_pressure")
    at_zero = _let_values(zero, {"K": 2.0})["model_at_zero"]

    ok = (
        abs(kinetic - target) <= 1e-12
        and abs(model - target) <= 1e-12
        and at_zero == 0.0
    )
    report(3, ok, f"kinetic={kinetic:.15f}, model={model:.15f}, at zero={at_zero!r}")
    assert vals["r_ad"] == vals["r_d"]
    assert abs(kinetic - target) <= 1e-12
    assert abs(model - target) <= 1e-12
    assert at_zero == 0.0


# -- 4: multilayer isotherm, truncated series against closed form ------


def test_criterion_4_bet_truncated_series(report):
    th = load_theory("brunauer_26_from_seq")
    base = {"P": 0.5, "V_0": 1.0, "C_L": 1.0, "C_1": 10.0, "s_0": 1.0}
    vals = _let_values(th, base)
    ratio = vals["Vads"] / vals["A"]
    closed = vals["b26"]
    oracle = 20.0 / 11.0
    ok = abs(ratio - closed) <= 1e-9 and abs(closed - oracle) <= 1e-12
    report(4, ok, f"truncated={ratio:.10f}, closed={closed:.10f}")
    assert abs(closed - oracle) <= 1e-12
    assert abs(ratio - closed) <= 1e-9


# -- 5: geometric-series truncation error tables -----------------------


class NonConvergent(Exception):
    """A truncated series failed to settle within the cutoff."""


def _partial_sum(s: SeriesSum, env: Dict[str, float], n: int) -> float:
    """s summed to its term n: eval_expr's own sum at SERIES_CUTOFF, a
    loop over the terms below it."""
    if n == SERIES_CUTOFF:
        return eval_expr(s, env)
    total = 0.0
    for i in range(s.start, n + 1):
        total += eval_expr(s.body, {**env, s.index: i})
    return total


def series_truncation_check(s: SeriesSum, closed, env: Dict[str, float],
                            cutoffs: Sequence[int] = (10, 50, 100, 500, 1000, 2000)
                            ) -> List[float]:
    """Truncation-error table |partial(N) - closed| over the cutoffs.

    Raises NonConvergent if the table increases beyond rounding slack.
    """
    cval = eval_expr(closed, env)
    errors = [abs(_partial_sum(s, env, n) - cval) for n in cutoffs]
    slack = 4e-16 * max(1.0, abs(cval))
    for a, b in zip(errors, errors[1:]):
        if b > a + slack:
            raise NonConvergent(f"truncation error grew from {a!r} to {b!r}")
    return errors


def test_criterion_5_series_oracles(report):
    x = Var("x")
    plain = SeriesSum("i", 1, Pow(x, "i"))
    weighted = SeriesSum("i", 1, Mul(Var("i"), Pow(x, "i")))
    plain_closed = Div(x, Sub(Const(1), x))
    weighted_closed = Div(x, Pow(Sub(Const(1), x), 2))
    worst = 0.0
    for value in (0.1, 0.5, 0.9):
        for series, closed in ((plain, plain_closed), (weighted, weighted_closed)):
            errors = series_truncation_check(series, closed, {"x": value})
            assert all(b <= a for a, b in zip(errors, errors[1:])), (value, errors)
            assert errors[-1] <= 1e-9, (value, errors)
            worst = max(worst, errors[-1])
    report(5, True, f"worst error at N=2000 is {worst:.3e}")


# -- 6: blow-up of the multilayer closed form at saturation ------------


def test_criterion_6_divergence_witness(report):
    th = load_theory("brunauer_27")
    base = {"C_L": 2.0, "C_1": 20.0}

    def closed_form(p: float) -> float:
        return _let_values(th, {**base, "P": p})["b26"]

    left = [closed_form(0.5 - 10.0 ** -j) for j in range(1, 7)]
    right = [closed_form(0.5 + 10.0 ** -j) for j in range(1, 7)]
    increasing = all(b > a for a, b in zip(left, left[1:]))
    right_negative = all(v < 0.0 for v in right)
    # 1 - x = C_L*delta, so b26 * C_L*delta = C*x / (C_L*delta + C*x) -> 1:
    # the closed form blows up at the rate 1/(C_L*delta).
    scaled = left[-1] * base["C_L"] * 1e-6
    rate_ok = abs(scaled - 1.0) < 1e-4
    ok = increasing and right_negative and rate_ok
    report(
        6,
        ok,
        f"increasing={increasing}, right negative={right_negative}, "
        f"final={left[-1]:.6e}, final*C_L*delta={scaled:.7f}",
    )
    assert increasing, left
    assert right_negative, right
    assert rate_ok, f"value at j=6 times C_L*delta is {scaled:.7f}, not 1"


# -- 7: kinematics entries plus vector and derivative spot checks ------


Vec3 = Tuple[float, float, float]


def dot(u: Vec3, v: Vec3) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


@dataclass(frozen=True)
class VecFn3:
    """Three polynomial component functions of time; coefficient
    tuples are constant term first, so differentiation is exact."""
    coeffs: Tuple[Tuple[float, ...], Tuple[float, ...], Tuple[float, ...]]

    def eval(self, t: float) -> Vec3:
        out = []
        for axis in self.coeffs:
            acc = 0.0
            for c in reversed(axis):
                acc = acc * t + c
            out.append(acc)
        return (out[0], out[1], out[2])

    def deriv(self) -> "VecFn3":
        return VecFn3(tuple(tuple(k * axis[k] for k in range(1, len(axis)))
                            or (0.0,) for axis in self.coeffs))

    @staticmethod
    def from_constant_acceleration(a: Vec3, v0: Vec3, x0: Vec3) -> "VecFn3":
        return VecFn3(tuple((x0[i], v0[i], a[i] / 2.0) for i in range(3)))


def test_criterion_7_kinematics(results, report):
    names = (
        "const_accel",
        "const_accel'",
        "const_accel''_minus",
        "const_accel''_plus",
        "torricelli_scalar",
    )
    for name in names:
        assert results[name].accepted, name
        assert results[name].soundness == SYMBOLIC, name

    rng = random.Random(20260815)
    worst_sq = 0.0
    worst_fd = 0.0
    h = 1e-5
    for _ in range(100):
        a = tuple(rng.uniform(-5.0, 5.0) for _ in range(3))
        v0 = tuple(rng.uniform(-5.0, 5.0) for _ in range(3))
        x0 = tuple(rng.uniform(-5.0, 5.0) for _ in range(3))
        t = rng.uniform(-5.0, 5.0)
        pos = VecFn3.from_constant_acceleration(a, v0, x0)
        vel = pos.deriv()
        xt = pos.eval(t)
        vt = vel.eval(t)
        lhs = dot(vt, vt)
        disp = tuple(xt[i] - x0[i] for i in range(3))
        rhs = dot(v0, v0) + 2.0 * dot(a, disp)
        worst_sq = max(worst_sq, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
        xp = pos.eval(t + h)
        xm = pos.eval(t - h)
        for i in range(3):
            fd = (xp[i] - xm[i]) / (2.0 * h)
            worst_fd = max(worst_fd, abs(fd - vt[i]) / max(1.0, abs(fd), abs(vt[i])))
    ok = worst_sq <= 1e-9 and worst_fd <= 1e-5
    report(7, ok, f"speed-squared residual {worst_sq:.2e}, derivative residual {worst_fd:.2e}")
    assert worst_sq <= 1e-9
    assert worst_fd <= 1e-5


# -- 8: canonical forms against random evaluation ----------------------


def _denom(rng: random.Random):
    # x^2 + c with c >= 1 never vanishes on the reals
    v = rng.choice((Var("x"), Var("y")))
    return Add(Mul(v, v), Const(rng.randint(1, 3)))


def _rand_expr(rng: random.Random, depth: int):
    if depth == 0:
        return rng.choice((Var("x"), Var("y"), Const(rng.randint(-4, 4))))
    op = rng.randrange(6)
    if op == 0:
        return Add(_rand_expr(rng, depth - 1), _rand_expr(rng, depth - 1))
    if op == 1:
        return Sub(_rand_expr(rng, depth - 1), _rand_expr(rng, depth - 1))
    if op == 2:
        return Mul(_rand_expr(rng, depth - 1), _rand_expr(rng, depth - 1))
    if op == 3:
        return Neg(_rand_expr(rng, depth - 1))
    if op == 4:
        return Pow(_rand_expr(rng, depth - 1), rng.choice((0, 1, 2)))
    return Div(_rand_expr(rng, depth - 1), _denom(rng))


def _equal_variant(rng: random.Random, e):
    choice = rng.randrange(4)
    if choice == 0:
        d = _denom(rng)
        return Div(Mul(e, d), d)
    if choice == 1:
        g = _rand_expr(rng, 1)
        return Add(e, Sub(g, g))
    if choice == 2:
        g = _rand_expr(rng, 1)
        return Sub(Add(e, g), g)
    half = Const(Fraction(1, 2))
    return Add(Mul(half, e), Mul(half, e))


def test_criterion_8_normalizer_vs_sampling(report):
    rng = random.Random(8128)
    tol = 1e-6
    false_equalities = 0
    unresolved = 0
    for k in range(200):
        e1 = _rand_expr(rng, rng.choice((2, 3)))
        truly_equal = rng.random() < 0.5
        if truly_equal:
            e2 = _equal_variant(rng, e1)
        else:
            e2 = Add(e1, Const(Fraction(rng.choice((-1, 1)), 997)))
        nf = Normalizer()
        nf_equal = nf.key(e1) == nf.key(e2)
        names = sorted(free_vars(e1) | free_vars(e2))
        residual = 0.0
        for _ in range(50):
            env = {n: rng.uniform(-3.0, 3.0) for n in names}
            l = eval_expr(e1, env)
            r = eval_expr(e2, env)
            residual = max(residual, abs(l - r) / max(1.0, abs(l), abs(r)))
        sample_equal = residual <= tol
        assert nf_equal == truly_equal, f"pair {k}: normal forms disagree with construction"
        if nf_equal and not sample_equal:
            false_equalities += 1
        if truly_equal:
            assert residual <= 1e-9, f"pair {k}: equal pair has residual {residual:.3e}"
        elif sample_equal:
            # a below-tolerance difference sampling cannot resolve
            unresolved += 1
    report(8, false_equalities == 0, f"200 pairs, {unresolved} below sampling tolerance")
    assert false_equalities == 0


# -- 9: printing then reparsing is the identity ------------------------


def test_criterion_9_parser_round_trip(report):
    from test_parser import _gen_theory

    builtin = 0
    for entry in registry():
        th = parse_theory(entry.script)
        assert parse_theory(print_theory(th)) == th, th.name
        builtin += 1
    rng = random.Random(20260815)
    for k in range(100):
        th = _gen_theory(rng, k)
        assert parse_theory(print_theory(th)) == th, f"fuzz case {k}"
    report(9, True, f"{builtin} builtin and 100 generated scripts")
