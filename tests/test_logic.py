"""Formula layer: free variables, substitution, instantiation, walking."""

from derivkit.expr import Add, App, Const, Deriv, Mul, SeriesSum, Var
from derivkit.formula import (And, EqF, Exists, Forall, Implies, Lt, Ne0, REAL,
                              formula_free_vars, instantiate_forall,
                              pointwise, subst, walk)

x, y, z = Var("x"), Var("y"), Var("z")


def test_free_vars_through_connectives():
    f = Implies(Lt(Const(0), x), EqF(Mul(x, y), z))
    assert formula_free_vars(f) == {"x", "y", "z"}


def test_free_vars_respect_binders():
    f = Forall((("x", REAL),), EqF(x, y))
    assert formula_free_vars(f) == {"y"}
    g = Exists(("y", REAL), Lt(x, y))
    assert formula_free_vars(g) == {"x"}


def test_subst_avoids_bound_names():
    f = Forall((("x", REAL),), EqF(x, y))
    out = subst(f, {"x": Const(5)})
    assert out == f
    out = subst(f, {"y": Const(5)})
    assert out == Forall((("x", REAL),), EqF(x, Const(5)))


def test_subst_capture_avoidance():
    f = Forall((("x", REAL),), EqF(x, y))
    out = subst(f, {"y": x})
    binder = out.binders[0][0]
    assert binder != "x"
    assert out.body == EqF(Var(binder), x)


def test_subst_renames_an_exists_binder_it_would_capture():
    # exists y, y = x with x := y + 1 is exists y', y' = y + 1
    f = Exists(("y", REAL), EqF(y, x))
    out = subst(f, {"x": Add(y, Const(1))})
    assert out == Exists(("y'", REAL), EqF(Var("y'"), Add(y, Const(1))))


def test_instantiate_forall_positional():
    f = Forall((("a", REAL), ("b", REAL)), EqF(Add(Var("a"), Var("b")), z))
    out = instantiate_forall(f, [Const(1), Mul(x, y)])
    assert out == EqF(Add(Const(1), Mul(x, y)), z)


def test_instantiate_partial():
    f = Forall((("a", REAL), ("b", REAL)), EqF(Var("a"), Var("b")))
    out = instantiate_forall(f, [Const(1)])
    assert out == Forall((("b", REAL),), EqF(Const(1), Var("b")))


def test_subst_inside_app():
    f = EqF(App("f", x), y)
    assert subst(f, {"x": Const(2)}) == EqF(App("f", Const(2)), y)


def test_pointwise_definitions_of_a_function_or_its_derivative():
    t = Var("t")
    rhs = Mul(Const(2), t)
    assert pointwise(Forall((("t", REAL),), EqF(App("g", t), rhs))) == ("g", "t", rhs)
    assert pointwise(Forall((("t", REAL),), EqF(App(Deriv("g"), t), rhs))) \
        == (Deriv("g"), "t", rhs)
    # not at the bound variable, not one binder, not an equation
    assert pointwise(Forall((("t", REAL),), EqF(App("g", Add(t, Const(1))), rhs))) is None
    assert pointwise(Forall((("t", REAL), ("u", REAL)), EqF(App("g", t), rhs))) is None
    assert pointwise(Forall((("t", REAL),), Lt(App("g", t), rhs))) is None
    assert pointwise(EqF(App("g", x), rhs)) is None


def test_walk_visits_each_node_once_in_preorder_left_to_right():
    a, b = App("f", x), Mul(y, z)
    f = Implies(Lt(Const(0), x), EqF(a, b))
    assert [n for n, _ in walk(f)] == [f, f.ante, Const(0), x, f.cons, a, x, b, y, z]
    assert [n for n, _ in walk(x)] == [x]


def test_walk_bound_sets():
    i, u = Var("i"), Var("u")
    s = SeriesSum("i", 0, Mul(i, x))
    inner = Exists(("x", REAL), EqF(x, u))
    f = Forall((("u", REAL), ("x", REAL)), And(EqF(s, i), inner))
    bound = {}
    for n, b in walk(f):
        bound.setdefault(n, []).append(b)
    ux = frozenset({"u", "x"})
    # a node's own binders are not in its own set
    assert bound[f] == [frozenset()]
    assert bound[s] == [ux]
    # an index is bound inside its series body only
    assert bound[Mul(i, x)] == [ux | {"i"}]
    assert bound[i] == [ux | {"i"}, ux]
    # binders inside their quantifier's body; an inner binder shadows
    # an outer one of the same name
    assert bound[inner] == [ux]
    assert bound[EqF(x, u)] == [ux]
    assert bound[u] == [ux]


def test_walk_takes_a_long_flat_sum_without_deep_recursion():
    e = x
    for k in range(5000):
        e = Add(e, Const(k))
    assert sum(1 for _ in walk(EqF(e, y))) == 1 + 5000 * 2 + 1 + 1
