"""Independent numeric falsification of accepted claims.

Everything here works on raw parsed expressions and plain float
evaluation; none of the checker's normalization machinery is imported,
so agreement between the two routes is evidence, not circularity.

Environments are drawn by rejection sampling against the hypotheses.
Equational hypotheses are satisfied by solving for one variable at a
time (linear probing with replay, which handles definitional chains),
sign hypotheses by rejection, and disequalities by rejection with a
safety margin so sampled identities stay well conditioned.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import DerivkitError, NonConvergent, RejectionStarvation
from .expr import (App, Const, Env, Expr, SeriesSum, Var, children, eval_expr,
                   free_vars, subst_vars, unfold_lets)
from .formula import (DivergesLeftAt, EqF, Formula, Lt, Ne0, REAL, Theory,
                      map_formula)

_NE0_MARGIN = 1e-3
_DRAW_LIMIT = 100_000


@dataclass
class SamplePlan:
    seed: int = 0
    count: int = 100
    default_range: Tuple[float, float] = (-10.0, 10.0)
    positive_range: Tuple[float, float] = (1e-3, 10.0)
    series_cutoff: int = 2000
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("sample count must be at least 1")
        if not (self.default_range[0] < self.default_range[1]
                and self.positive_range[0] < self.positive_range[1]):
            raise ValueError("ranges must be nonempty")


@dataclass
class NumericReport:
    seed: int
    samples: int
    worst_residual: float
    passed: bool
    label: str = ""


def _rng(seed: int, name: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _ev(e: Expr, env: Dict[str, float], cutoff: int,
        fns: Optional[dict] = None, derivs: Optional[dict] = None) -> float:
    return eval_expr(e, Env(vars=dict(env), fns=fns or {}, derivs=derivs or {}),
                     series_cutoff=cutoff)


# ---------------------------------------------------------------------------
# hypothesis-respecting environment sampling


def _positive_names(hyps: Sequence[Formula]) -> set:
    out = set()
    for f in hyps:
        if isinstance(f, Lt) and isinstance(f.left, Const) and f.left.value == 0 \
                and isinstance(f.right, Var):
            out.add(f.right.name)
    return out


def _solve_equations(env: Dict[str, float], eqs: Sequence[EqF],
                     names: Sequence[str], cutoff: int) -> bool:
    """Adjust variables so every equational hypothesis holds.

    Each equation claims one variable (latest declared first). Claimed
    variables are re-solved in claim order whenever the base draw moves
    under them; a claim's residual can depend on its own variable only
    through earlier claims, so each linear probe re-solves that prefix.
    This settles definitional chains feeding a balance equation.
    """
    assignments: List[Tuple[str, EqF, frozenset]] = []

    def eq_free(eq: EqF) -> frozenset:
        return frozenset(free_vars(eq.left) | free_vars(eq.right))

    def diff_at(target: Dict[str, float], eq: EqF) -> float:
        try:
            return _ev(eq.left, target, cutoff) - _ev(eq.right, target, cutoff)
        except DerivkitError:
            return float("nan")

    def solve_entry(target: Dict[str, float], k: int) -> bool:
        v, eq, _ = assignments[k]

        def res(c: float) -> float:
            t2 = dict(target)
            t2[v] = c
            if not settle(t2, {v}, upto=k):
                return float("nan")
            return diff_at(t2, eq)

        y0, y1 = res(0.0), res(1.0)
        slope = y1 - y0
        if not (math.isfinite(y0) and math.isfinite(slope)) or abs(slope) < 1e-12:
            return False
        target[v] = -y0 / slope
        return True

    def settle(target: Dict[str, float], dirty: set,
               upto: Optional[int] = None) -> bool:
        """Re-solve claims whose equations touch a dirty variable."""
        d = set(dirty)
        end = len(assignments) if upto is None else upto
        for k in range(end):
            v, _, fv = assignments[k]
            if fv & d:
                if not solve_entry(target, k):
                    return False
                d.add(v)
        return True

    order = list(reversed(names))
    claimed: set = set()
    for _round in range(2):
        for eq in eqs:
            if not settle(env, set(names)):
                return False
            cur = diff_at(env, eq)
            if not math.isfinite(cur):
                return False
            try:
                l = _ev(eq.left, env, cutoff)
                r = _ev(eq.right, env, cutoff)
            except DerivkitError:
                return False
            if abs(cur) <= 1e-9 * max(1.0, abs(l), abs(r)):
                continue
            reach = eq_free(eq).union(*(fv for _, _, fv in assignments)) \
                if assignments else eq_free(eq)
            fixed = False
            for v in order:
                if v in claimed or v not in reach:
                    continue

                def probe(c: float, v=v) -> float:
                    t2 = dict(env)
                    t2[v] = c
                    if not settle(t2, {v}):
                        return float("nan")
                    return diff_at(t2, eq)

                y0, y1, y2 = probe(0.0), probe(1.0), probe(2.0)
                if not all(math.isfinite(y) for y in (y0, y1, y2)):
                    continue
                scale = max(1.0, abs(y0), abs(y1), abs(y2))
                if abs((y2 - y1) - (y1 - y0)) > 1e-6 * scale:
                    continue
                slope = y1 - y0
                if abs(slope) < 1e-9:
                    continue
                env[v] = -y0 / slope
                assignments.append((v, eq, frozenset(reach | {v})))
                claimed.add(v)
                if not settle(env, {v}):
                    return False
                fixed = True
                break
            if not fixed:
                return False
    return settle(env, set(names))


def _verify_hyps(env: Dict[str, float], hyps: Sequence[Formula],
                 cutoff: int) -> bool:
    for f in hyps:
        try:
            if isinstance(f, EqF):
                l = _ev(f.left, env, cutoff)
                r = _ev(f.right, env, cutoff)
                if not math.isfinite(l) or abs(l - r) > 1e-9 * max(1.0, abs(l), abs(r)):
                    return False
            elif isinstance(f, Lt):
                if not _ev(f.left, env, cutoff) < _ev(f.right, env, cutoff):
                    return False
            elif isinstance(f, Ne0):
                if abs(_ev(f.arg, env, cutoff)) <= _NE0_MARGIN:
                    return False
        except DerivkitError:
            return False
    return True


def sample_envs(names: Sequence[str], hyps: Sequence[Formula],
                plan: SamplePlan, check_name: str,
                extra_reject: Optional[Callable[[Dict[str, float]], bool]] = None
                ) -> List[Dict[str, float]]:
    """Environments over `names` satisfying every hypothesis."""
    rng = _rng(plan.seed, check_name)
    positive = _positive_names(hyps)
    eqs = [f for f in hyps if isinstance(f, EqF)]
    envs: List[Dict[str, float]] = []
    draws = 0
    while len(envs) < plan.count:
        draws += 1
        if draws > _DRAW_LIMIT:
            raise RejectionStarvation(
                f"{check_name}: {len(envs)} of {plan.count} samples in {_DRAW_LIMIT} draws")
        env = {}
        for n in names:
            lo, hi = plan.positive_range if n in positive else plan.default_range
            env[n] = rng.uniform(lo, hi)
        if not _solve_equations(env, eqs, names, plan.series_cutoff):
            continue
        if not _verify_hyps(env, hyps, plan.series_cutoff):
            continue
        if extra_reject is not None and extra_reject(env):
            continue
        envs.append(env)
    return envs


# ---------------------------------------------------------------------------
# checks


@dataclass
class IdentityReport:
    passed: bool
    worst_residual: float
    samples: int


def identity_check(lhs: Expr, rhs: Expr, names: Sequence[str],
                   hyps: Sequence[Formula], plan: SamplePlan,
                   check_name: str = "identity",
                   extra_reject=None) -> IdentityReport:
    envs = sample_envs(names, hyps, plan, check_name, extra_reject)
    worst = 0.0
    ok = True
    for env in envs:
        l = _ev(lhs, env, plan.series_cutoff)
        r = _ev(rhs, env, plan.series_cutoff)
        diff = abs(l - r)
        if diff > max(plan.abs_tol, plan.rel_tol * max(abs(l), abs(r))):
            ok = False
        worst = max(worst, diff / max(1.0, abs(l), abs(r)))
    return IdentityReport(ok, worst, len(envs))


def series_truncation_check(s: SeriesSum, closed: Expr, env: Dict[str, float],
                            cutoffs: Sequence[int] = (10, 50, 100, 500, 1000, 2000)
                            ) -> List[float]:
    """Truncation-error table |partial(N) - closed| over the cutoffs.

    Raises NonConvergent if the table increases beyond rounding slack.
    """
    cval = _ev(closed, env, max(cutoffs))
    errors = [abs(_ev(s, env, n) - cval) for n in cutoffs]
    slack = 4e-16 * max(1.0, abs(cval))
    for a, b in zip(errors, errors[1:]):
        if b > a + slack:
            raise NonConvergent(f"truncation error grew from {a!r} to {b!r}")
    return errors


Vec3 = Tuple[float, float, float]


def dot(u: Vec3, v: Vec3) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _vadd(u: Vec3, v: Vec3) -> Vec3:
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2])


def _vsub(u: Vec3, v: Vec3) -> Vec3:
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2])


def _vscale(a: float, u: Vec3) -> Vec3:
    return (a * u[0], a * u[1], a * u[2])


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


def vector_kinematics_check(a: Vec3, v0: Vec3, x0: Vec3,
                            plan: SamplePlan,
                            check_name: str = "vector_kinematics") -> NumericReport:
    position = VecFn3.from_constant_acceleration(a, v0, x0)
    velocity = position.deriv()
    rng = _rng(plan.seed, check_name)
    worst = 0.0
    for _ in range(plan.count):
        t = rng.uniform(-5.0, 5.0)
        v = velocity.eval(t)
        x = position.eval(t)
        lhs = dot(v, v)
        rhs = dot(v0, v0) + 2.0 * dot(a, _vsub(x, x0))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
        s1 = rng.uniform(-3.0, 3.0)
        s2 = rng.uniform(-3.0, 3.0)
        u = tuple(rng.uniform(-3.0, 3.0) for _ in range(3))
        w = tuple(rng.uniform(-3.0, 3.0) for _ in range(3))
        z = tuple(rng.uniform(-3.0, 3.0) for _ in range(3))
        left = dot(_vadd(_vscale(s1, u), _vscale(s2, w)), z)
        right = s1 * dot(u, z) + s2 * dot(w, z)
        worst = max(worst, abs(left - right) / max(1.0, abs(left), abs(right)))
    return NumericReport(plan.seed, plan.count, worst, worst <= plan.rel_tol,
                         check_name)


@dataclass
class DivergenceReport:
    values: List[float]
    verdict: bool


def divergence_witness(fn_expr: Expr, var: str, point: float, m: int,
                       env: Dict[str, float], cutoff: int = 2000) -> DivergenceReport:
    """Left-approach table at point - 10^-j for j = 1..m.

    The verdict passes iff the table strictly increases and the final
    value exceeds 1e6.
    """
    values = []
    for j in range(1, m + 1):
        e2 = dict(env)
        e2[var] = point - 10.0 ** (-j)
        values.append(_ev(fn_expr, e2, cutoff))
    increasing = all(b > a for a, b in zip(values, values[1:]))
    verdict = increasing and len(values) > 0 and values[-1] > 1e6
    return DivergenceReport(values, verdict)


# ---------------------------------------------------------------------------
# per-theory suites


def _theory_names(theory: Theory) -> List[str]:
    names = [n for n, s in theory.var_decls if s == REAL]
    names += [n for n in theory.const_decls]
    return names


def _unfolded_hyps(theory: Theory) -> List[Formula]:
    lets = unfold_lets(theory.lets)
    return [map_formula(f, lambda e: subst_vars(e, lets)) for _, f in theory.hyps]


def _nodes(e: Expr):
    """Every node of e, parents before children, walked with an
    explicit stack so that a long flat sum needs no deep recursion."""
    stack = [e]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(reversed(children(n)))


def _no_states(e: Expr) -> bool:
    return not any(isinstance(n, App) for n in _nodes(e))


def _collect_series(e: Expr, out: List[SeriesSum]) -> None:
    out.extend(n for n in _nodes(e) if isinstance(n, SeriesSum))


def _truncation_guard(series: Sequence[SeriesSum], plan: SamplePlan):
    """Reject samples where a series has not converged by the cutoff.

    At such a point the partial sum cannot distinguish truncation
    error from a genuine mismatch, so the sample decides nothing."""

    def guard(env: Dict[str, float]) -> bool:
        for s in series:
            inner = dict(env)
            inner[s.index] = plan.series_cutoff
            try:
                last = abs(_ev(s.body, inner, plan.series_cutoff))
            except OverflowError:
                return True
            if last > plan.abs_tol:
                return True
        return False

    return guard


_GAS_MODELS = {"boyles_law_relation", "boyles_law_relation'",
               "boyles_from_ideal_gas", "charles_from_ideal_gas",
               "avogadro_from_ideal_gas"}

_KINEMATICS = {"const_accel", "const_accel'", "const_accel''_minus",
               "const_accel''_plus", "torricelli_scalar",
               "antideriv_const_demo"}


def run_suite(theory: Theory, plan: SamplePlan) -> Optional[NumericReport]:
    """The numeric check bound to a theory, or None when the goal
    has no finite evaluation strategy here."""
    name = theory.name
    goal = theory.goal
    if isinstance(goal, DivergesLeftAt):
        return _suite_divergence(theory, plan)
    if name in _GAS_MODELS:
        return _suite_gas(theory, plan)
    if name in _KINEMATICS:
        return _suite_kinematics(theory, plan)
    if isinstance(goal, EqF):
        lets = unfold_lets(theory.lets)
        lhs = subst_vars(goal.left, lets)
        rhs = subst_vars(goal.right, lets)
        if _no_states(lhs) and _no_states(rhs):
            series: List[SeriesSum] = []
            _collect_series(lhs, series)
            _collect_series(rhs, series)
            guard = _truncation_guard(series, plan) if series else None
            rep = identity_check(lhs, rhs, _theory_names(theory),
                                 _unfolded_hyps(theory), plan, name, guard)
            return NumericReport(plan.seed, rep.samples, rep.worst_residual,
                                 rep.passed, "identity")
    return None


def _divergence_parts(theory: Theory):
    """The unfolded expression, its approach variable (the one Real
    variable free in it), the other names to sample, and the point."""
    lets = unfold_lets(theory.lets)
    body = subst_vars(Var(theory.goal.fn_name), lets)
    fv = free_vars(body)
    approach = [n for n, s in theory.var_decls if s == REAL and n in fv]
    if len(approach) != 1:
        raise DerivkitError(
            "the diverging expression needs exactly one free Real variable")
    var = approach[0]
    names = [n for n in _theory_names(theory) if n != var]
    return body, var, names, subst_vars(theory.goal.point, lets)


def _suite_divergence(theory: Theory, plan: SamplePlan) -> NumericReport:
    body, var, names, point_e = _divergence_parts(theory)
    # the witness runs on ten environments at most; sample_envs is
    # prefix-stable, so drawing only those keeps the same ten
    few = replace(plan, count=min(plan.count, 10))
    envs = sample_envs(names, _unfolded_hyps(theory), few, theory.name)
    ok = True
    for env in envs:
        point = _ev(point_e, env, plan.series_cutoff)
        rep = divergence_witness(body, var, point, 8, env, plan.series_cutoff)
        if not rep.verdict:
            ok = False
    return NumericReport(plan.seed, len(envs), 0.0, ok, "divergence_witness")


def divergence_table(theory: Theory, plan: SamplePlan, m: int = 8) -> List[float]:
    """Representative left-approach table for a divergence goal."""
    body, var, names, point_e = _divergence_parts(theory)
    one = replace(plan, count=1)
    env = sample_envs(names, _unfolded_hyps(theory), one, theory.name)[0]
    point = _ev(point_e, env, plan.series_cutoff)
    return divergence_witness(body, var, point, m, env, plan.series_cutoff).values


def _suite_gas(theory: Theory, plan: SamplePlan) -> NumericReport:
    """Finite-state models built to satisfy the hypotheses; the goal's
    constancy claim is then checked across the states."""
    name = theory.name
    rng = _rng(plan.seed, name)
    worst = 0.0
    for _ in range(plan.count):
        R = rng.uniform(0.5, 10.0)
        products = []
        if name == "boyles_law_relation":
            k = rng.uniform(0.5, 10.0)
            for _j in range(4):
                p = rng.uniform(0.5, 10.0)
                products.append(p * (k / p))
        elif name == "boyles_law_relation'":
            c = rng.uniform(0.5, 10.0)
            for _j in range(4):
                p = rng.uniform(0.5, 10.0)
                products.append(p * (c / p))
        elif name == "boyles_from_ideal_gas":
            n0 = rng.uniform(0.5, 10.0)
            t0 = rng.uniform(0.5, 10.0)
            for _j in range(4):
                p = rng.uniform(0.5, 10.0)
                v = n0 * R * t0 / p
                products.append(p * v)
        elif name == "charles_from_ideal_gas":
            n0 = rng.uniform(0.5, 10.0)
            p0 = rng.uniform(0.5, 10.0)
            for _j in range(4):
                t = rng.uniform(0.5, 10.0)
                v = n0 * R * t / p0
                products.append(v / t)
        else:
            t0 = rng.uniform(0.5, 10.0)
            p0 = rng.uniform(0.5, 10.0)
            for _j in range(4):
                n = rng.uniform(0.5, 10.0)
                v = n * R * t0 / p0
                products.append(v / n)
        base = products[0]
        for p in products[1:]:
            worst = max(worst, abs(p - base) / max(1.0, abs(p), abs(base)))
    return NumericReport(plan.seed, plan.count, worst,
                         worst <= plan.rel_tol, "finite-state model")


def _suite_kinematics(theory: Theory, plan: SamplePlan) -> NumericReport:
    name = theory.name
    rng = _rng(plan.seed, name)
    worst = 0.0
    fd_worst = 0.0
    for _ in range(plan.count):
        a = rng.uniform(-5.0, 5.0)
        v0 = rng.uniform(-5.0, 5.0)
        x0 = rng.uniform(-5.0, 5.0)
        t = rng.uniform(-5.0, 5.0)

        def position(s: float) -> float:
            return x0 + v0 * s + a * s * s / 2.0

        def velocity(s: float) -> float:
            return v0 + a * s

        h = 1e-5
        fd = (position(t + h) - position(t - h)) / (2.0 * h)
        fd_worst = max(fd_worst, abs(fd - velocity(t)) / max(1.0, abs(fd)))
        if name == "const_accel":
            l, r = velocity(t), t * a + velocity(0.0)
        elif name == "const_accel'":
            l, r = position(t), t * t / 2.0 * a + t * velocity(0.0) + position(0.0)
        elif name == "const_accel''_minus":
            l, r = position(t), t / 2.0 * (velocity(t) - velocity(0.0)) \
                + t * velocity(0.0) + position(0.0)
        elif name == "const_accel''_plus":
            l, r = position(t), (velocity(t) + velocity(0.0)) / 2.0 * t + position(0.0)
        elif name == "torricelli_scalar":
            l = velocity(t) ** 2
            r = velocity(0.0) ** 2 + 2.0 * a * (position(t) - position(0.0))
        else:
            k, f0 = a, x0
            l, r = k * t + f0, t * k + f0
        worst = max(worst, abs(l - r) / max(1.0, abs(l), abs(r)))
    passed = worst <= plan.rel_tol and fd_worst <= 1e-5
    if name == "torricelli_scalar":
        rep = vector_kinematics_check(
            (2.0, 0.0, 0.0), (3.0, 0.0, 0.0), (1.0, 0.0, 0.0), plan)
        vec = vector_kinematics_check(
            tuple(_rng(plan.seed, "vecA").uniform(-5, 5) for _ in range(3)),
            tuple(_rng(plan.seed, "vecV").uniform(-5, 5) for _ in range(3)),
            tuple(_rng(plan.seed, "vecX").uniform(-5, 5) for _ in range(3)), plan)
        passed = passed and rep.passed and vec.passed
        worst = max(worst, rep.worst_residual, vec.worst_residual)
    return NumericReport(plan.seed, plan.count, max(worst, fd_worst),
                         passed, "kinematics")
