"""Property-based checks of the compiled evaluator, numeric kinematics, row routing and the QP."""

import functools
import math
import operator

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

import taskopt as to
from taskopt import expr
from taskopt.expr import CompiledFunction, Expression, Node
from taskopt.solvers import solve_qp

_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)

_LAYOUTS = (("variable", {"x": (0, 3, 1)}), ("parameter", {"p": (0, 2, 1)}))
_UNARY = (expr._NEG, expr._SIN, expr._COS, expr._TAN, expr._SQRT, expr._EXP, expr._LOG)
_BINARY = (expr._ADD, expr._SUB, expr._MUL, expr._DIV, expr._ATAN2)
# 0 ** -1, overflow and a negative base to a fractional power all fault
_EXPONENTS = (2.0, 3.0, -1.0, -2.0, 0.5, 1.5, -0.5)

# repeated small values make differences of leaves exactly zero, so
# divisions, negative powers and logs hit their fault and domain rules
_values = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.0, 2.0)),
    st.floats(-3.0, 3.0, allow_nan=False),
)


def _raw_const(v: float) -> Node:
    # built directly: the folding constructors canonicalize -0.0 to +0.0
    return Node(expr._CONST, val=v)


def _grow(draw, pool, max_ops=15):
    """Append 1 to ``max_ops`` random nodes over ``pool`` to it, covering all 13 opcodes."""
    for _ in range(draw(st.integers(1, max_ops))):
        kind = draw(st.sampled_from(("unary", "binary", "pow")))
        a = draw(st.sampled_from(pool))
        if kind == "unary":
            node = expr._MAKE[draw(st.sampled_from(_UNARY))](a)
        elif kind == "binary":
            node = expr._MAKE[draw(st.sampled_from(_BINARY))](a, draw(st.sampled_from(pool)))
        else:
            node = expr._pow(a, expr._const(draw(st.sampled_from(_EXPONENTS))))
        pool.append(node)
    return pool


@st.composite
def dags(draw):
    """A matrix expression over x (3) and p (2) with many constant outputs."""
    x = to.variable("x", 3)
    p = to.parameter("p", 2)
    pool = [x._n[i, 0] for i in range(3)] + [p._n[j, 0] for j in range(2)]
    pool += [_raw_const(v) for v in draw(st.lists(_values, min_size=1, max_size=3))]
    _grow(draw, pool)
    zeros = [_raw_const(0.0), _raw_const(-0.0), _raw_const(2.5)]
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    out = st.one_of(st.sampled_from(pool), st.sampled_from(zeros))
    nodes = np.array([draw(out) for _ in range(rows * cols)], dtype=object)
    return Expression(nodes.reshape(rows, cols))


def _reference_sqrt(a):
    if a < 0.0:
        # tolerate -0-ish roundoff from e.g. det(J J^T)
        return 0.0 if a > -1e-12 else math.nan
    return math.sqrt(a)


_REFERENCE_OPS = {
    expr._NEG: operator.neg,
    expr._SIN: math.sin,
    expr._COS: math.cos,
    expr._TAN: math.tan,
    expr._SQRT: _reference_sqrt,
    expr._EXP: math.exp,
    expr._LOG: lambda a: math.log(a) if a > 0.0 else math.nan,
    expr._ADD: operator.add,
    expr._SUB: operator.sub,
    expr._MUL: operator.mul,
    expr._DIV: operator.truediv,
    expr._POW: math.pow,
    # a -0.0 argument reads as +0.0, as every folded constant is
    expr._ATAN2: lambda a, b: math.atan2(a + 0.0, b + 0.0),
}


def _reference_evaluate(e, bindings):
    """Recursive per-node walk, independent of the compiled tape.

    Unlike the tape, a fault (a raising op) makes only the entries that
    depend on it NaN.
    """
    vals = {}

    def value(n):
        if id(n) not in vals:
            if n.op == expr._CONST:
                v = n.val
            elif n.op == expr._LEAF:
                block = n.block
                arr = np.asarray(bindings[block.name], dtype=float)
                v = float(arr.reshape(block.rows, block.cols)[n.row, n.col])
            else:
                args = (value(n.a),) if n.b is None else (value(n.a), value(n.b))
                try:
                    v = _REFERENCE_OPS[n.op](*args)
                except (ArithmeticError, ValueError):
                    v = math.nan
            vals[id(n)] = v
        return vals[id(n)]

    return np.array([[value(n) for n in row] for row in e._n], dtype=float)


class TestCompiledFunction:
    @_PROPERTY
    @given(
        e=dags(),
        xv=st.lists(_values, min_size=3, max_size=3),
        pv=st.lists(_values, min_size=2, max_size=2),
    )
    def test_matches_evaluate_bit_for_bit(self, e, xv, pv):
        xv, pv = np.array(xv), np.array(pv)
        ref = _reference_evaluate(e, {"x": xv, "p": pv})
        out = CompiledFunction(e, _LAYOUTS)(xv, pv)
        assert out.shape == ref.shape and out.dtype == ref.dtype
        evaluated = to.evaluate(e, {"x": xv, "p": pv})
        assert evaluated.shape == out.shape and evaluated.dtype == out.dtype
        assert evaluated.tobytes() == out.tobytes()
        if out.tobytes() != ref.tobytes():
            # the one permitted difference is the fault rule: a raising op
            # makes the compiled output all NaN, while the reference only
            # puts NaN at the entries that depend on it
            event("fault")
            assert np.isnan(out).all() and np.isnan(ref).any()

    def test_fault_nan_and_signed_zero_constant(self):
        x = to.variable("x", 3)
        rows = [(x[0, 0] + 1.0)._n[0, 0], (1.0 / (x[0, 0] - x[1, 0]))._n[0, 0], _raw_const(-0.0)]
        e = Expression(np.array(rows, dtype=object))
        fn = CompiledFunction(e, _LAYOUTS)
        p = np.zeros(2)

        ok = fn(np.array([2.0, 1.0, 0.0]), p)
        assert ok.ravel()[:2].tolist() == [3.0, 1.0]
        assert ok[2, 0] == 0.0 and np.signbit(ok[2, 0])

        assert np.isnan(fn(np.array([1.0, 1.0, 0.0]), p)).all()
        ref = _reference_evaluate(e, {"x": [1.0, 1.0, 0.0]})
        assert ref[0, 0] == 2.0 and np.isnan(ref[1, 0])
        assert np.isnan(to.evaluate(e, {"x": [1.0, 1.0, 0.0]})).all()

    def test_fractional_power_of_negative_base_faults(self):
        x = to.variable("x", 3)
        d = x[0, 0] - x[1, 0]
        rows = [(x[2, 0] + 1.0)._n[0, 0], (d**0.5)._n[0, 0], (d**-1.5)._n[0, 0]]
        e = Expression(np.array(rows, dtype=object))
        fn = CompiledFunction(e, _LAYOUTS)
        p = np.zeros(2)

        assert fn(np.array([5.0, 1.0, 0.0]), p).ravel().tolist() == [1.0, 2.0, 0.125]
        assert np.isnan(fn(np.array([1.0, 5.0, 0.0]), p)).all()
        ref = _reference_evaluate(e, {"x": [1.0, 5.0, 0.0]})
        assert ref[0, 0] == 1.0 and np.isnan(ref[1:, 0]).all()
        assert np.isnan(to.evaluate(e, {"x": [1.0, 5.0, 0.0]})).all()
        # an all-constant power folds to a NaN-producing node, not a complex constant
        folded = to.evaluate(Expression(np.array([[expr._pow(_raw_const(-4.0), expr._const(0.5))]])))
        assert np.isnan(folded).all()

    def test_atan2_reads_negative_zero_as_positive(self):
        x = to.variable("x", 3)
        e = to.vertcat(to.atan2(x[0, 0], x[1, 0]), to.atan2(x[1, 0], x[2, 0]))
        out = CompiledFunction(e, _LAYOUTS)(np.array([-0.0, -1.0, -0.0]), np.zeros(2))
        # IEEE atan2 gives -pi and -pi / 2 here; folded constants give these
        assert out.ravel().tolist() == [math.pi, -math.pi / 2]
        zero = to.constant(-0.0)
        folded = to.evaluate(to.vertcat(to.atan2(zero, -1.0), to.atan2(-1.0, zero)))
        assert folded.tobytes() == out.tobytes()


_QUERIES = (
    "global_link_transform",
    "global_link_position",
    "global_link_rotation",
    "global_link_quaternion",
    "global_link_rpy",
    "geometric_jacobian",
    "analytical_jacobian",
)
_MANIPULABILITY_ROWS = ((0, 1, 2), (0, 1), (3, 4, 5), (2, 4), (5,))
# exact zeros and quarter turns make entries of the rotations exactly 0 or +-1
_joint_values = st.one_of(
    st.sampled_from((0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi)),
    st.floats(-4.0, 4.0, allow_nan=False),
)


@functools.lru_cache(maxsize=None)
def _robot(fixture):
    return to.RobotModel(to.fixture_path(fixture), tip="ee")


@functools.lru_cache(maxsize=None)
def _symbolic_queries(fixture, link):
    """``(name, rows, expression)`` for every query on ``link``, over ``__robot_q``."""
    robot = _robot(fixture)
    qs = to.variable("__robot_q", robot.ndof)
    out = [(name, None, expr.as_expression(getattr(robot, name)(link, qs))) for name in _QUERIES]
    for rows in _MANIPULABILITY_ROWS:
        out.append(("manipulability", rows, robot.manipulability(link, qs, rows)))
    return out


class TestKinematics:
    @_PROPERTY
    @given(
        q2=st.lists(_joint_values, min_size=2, max_size=2),
        q6=st.lists(_joint_values, min_size=6, max_size=6),
    )
    def test_numeric_queries_match_substituted_symbolic(self, q2, q6):
        for fixture, q in (("planar2r", np.array(q2)), ("arm6", np.array(q6))):
            robot = _robot(fixture)
            for link in robot.urdf.links:
                for name, rows, sym in _symbolic_queries(fixture, link):
                    want = to.evaluate(to.substitute(sym, {"__robot_q": to.constant(q)}))
                    if rows is None:
                        got = getattr(robot, name)(link, q)
                    else:
                        got = robot.manipulability(link, q, rows)
                    got = np.asarray(got, dtype=float)
                    assert got.dtype == want.dtype and got.size == want.size
                    assert got.tobytes() == want.tobytes(), (fixture, link, name, rows)


@st.composite
def routed_tasks(draw):
    """A TaskBuilder with one constraint per random DAG row over its own x (3) and p (2).

    Returns the builder, the decision block and ``(name, row)`` pairs.  One
    row always depends on parameters only.
    """
    b = to.TaskBuilder(T=1)
    x = b.add_decision_variables("x", 3)
    p = b.add_parameter("p", 2)
    p_leaves = [p._n[j, 0] for j in range(2)]
    pool = [x._n[i, 0] for i in range(3)] + p_leaves
    pool += [expr._const(v) for v in draw(st.lists(_values, min_size=1, max_size=3))]
    _grow(draw, pool, max_ops=8)
    candidates = [n for n in pool if expr._deps(n)]
    nodes = draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=6))
    nodes.append(draw(st.sampled_from(_grow(draw, list(p_leaves), max_ops=3))))
    rows = []
    for i, node in enumerate(nodes):
        row, name = Expression(np.array([[node]], dtype=object)), f"r{i}"
        if draw(st.booleans()):
            b.add_equality_constraint(name, row)
        else:
            b.add_leq_inequality_constraint(name, 0.0, row)
        rows.append((name, row))
    return b, x, rows


class TestRouting:
    @_PROPERTY
    @given(
        task=routed_tasks(),
        xv=st.lists(_values, min_size=3, max_size=3),
        pv=st.lists(_values, min_size=2, max_size=2),
    )
    def test_rows_route_by_classify_and_linear_rows_are_affine(self, task, xv, pv):
        b, x, rows = task
        prob = b.build()
        X, P = np.array(xv), np.array(pv)
        affine = {"k": prob.lin_ineq(P), "a": prob.lin_eq(P)}
        for name, row in rows:
            (part,) = [k for k, names in prob.labels.items() if name in names]
            cls = to.classify(row, x)
            event(f"{cls.value} row")
            assert (part in affine) == (cls <= to.StructureClass.LINEAR)
            if part not in affine:
                continue
            M, c = affine[part]
            want = to.evaluate(row, {"x": X, "p": P})[0, 0]
            if np.isnan(M).all() or np.isnan(c).all() or not np.isfinite(want):
                # a fault in any row of a partition makes its M or c all NaN
                event("fault")
                continue
            i = prob.labels[part].index(name)
            got = M[i] @ X + c[i]
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def _mixed_qp(rng, n, m_in, m_eq):
    """A strictly convex QP with inequality and equality rows and a known feasible point."""
    G = rng.normal(size=(n, n))
    H = G @ G.T + 0.1 * np.eye(n)
    q = 3.0 * rng.normal(size=n)
    C = rng.normal(size=(m_in + m_eq, n))
    Cx = C @ (0.5 * rng.normal(size=n))
    width = np.concatenate([rng.uniform(0.0, 1.0, m_in), np.zeros(m_eq)])
    lo, hi = Cx - width, Cx + width
    hi[:m_in][rng.uniform(size=m_in) < 0.3] = np.inf
    return H, q, C, lo, hi


@st.composite
def mixed_qps(draw):
    """``_mixed_qp`` with up to 2n + 2 rows, the last a copy of another row."""
    n = draw(st.integers(2, 8))
    m_eq = draw(st.integers(0, n - 1))
    m_in = draw(st.integers(1, 2 * n + 1 - m_eq))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    H, q, C, lo, hi = _mixed_qp(rng, n, m_in, m_eq)
    i = draw(st.integers(0, m_in + m_eq - 1))
    return H, q, np.vstack([C, C[i]]), np.append(lo, lo[i]), np.append(hi, hi[i])


class TestSolveQP:
    @_PROPERTY
    @given(qp=mixed_qps())
    def test_kkt_conditions(self, qp):
        H, q, C, lo, hi = qp
        res = solve_qp(H, q, C, lo, hi)
        assert res.converged
        assert np.abs(H @ res.x + q + C.T @ res.y).max() <= 1e-5
        Cx = C @ res.x
        assert np.maximum(np.maximum(lo - Cx, Cx - hi), 0.0).max() <= 1e-5
        slack = np.minimum(Cx - lo, hi - Cx)
        assert np.abs(res.y * slack).max() <= 1e-5

    def test_more_rows_than_variables(self):
        # n = 2 with 3 inequality rows and 1 equality row; the optimum is a
        # vertex with one inequality and the equality active
        H, q, C, lo, hi = _mixed_qp(np.random.default_rng(122), 2, 3, 1)
        res = solve_qp(H, q, C, lo, hi)
        assert res.converged
