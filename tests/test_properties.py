"""Property-based checks of the compiled evaluator, numeric kinematics, row routing and the QP."""

import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import taskopt as to
from taskopt import expr
from taskopt.expr import CompiledFunction, Expression, Node
from taskopt.problem import _hessian_blocks
from taskopt.solvers import solve_qp
from taskopt.solvers.qp import _NullSpace
from taskopt.solvers.sqp import _MIN_EIGENVALUE, _RELATIVE_FLOOR, _block_positions, _psd_projection

from conftest import brute_force_qp

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


def _each_tier(fn, *vectors):
    """Call ``fn`` through its tape and its generated code; every call gives the first one's bytes."""
    first = fn(*vectors)
    for _ in range(expr._GENERATE_ON_CALL):
        again = fn(*vectors)
        assert again.shape == first.shape and again.tobytes() == first.tobytes()
    return first


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


class TestPostorder:
    @_PROPERTY
    @given(e=dags())
    def test_every_reachable_node_once_after_its_operands(self, e):
        roots = list(e._n.flat)
        reachable, stack = {}, list(roots)
        while stack:
            n = stack.pop()
            if id(n) not in reachable:
                reachable[id(n)] = n
                stack.extend(c for c in (n.a, n.b) if c is not None)
        walk = expr._postorder(roots)
        assert all(key == id(n) for key, n in walk.items())
        assert walk.keys() == reachable.keys()
        position = {key: k for k, key in enumerate(walk)}
        for key, n in walk.items():
            for c in (n.a, n.b):
                if c is not None:
                    assert position[id(c)] < position[key]


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
        out = _each_tier(CompiledFunction(e, _LAYOUTS), xv, pv)
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
        p = np.zeros(2)

        ok = _each_tier(CompiledFunction(e, _LAYOUTS), np.array([2.0, 1.0, 0.0]), p)
        assert ok.ravel()[:2].tolist() == [3.0, 1.0]
        assert ok[2, 0] == 0.0 and np.signbit(ok[2, 0])

        assert np.isnan(_each_tier(CompiledFunction(e, _LAYOUTS), np.array([1.0, 1.0, 0.0]), p)).all()
        ref = _reference_evaluate(e, {"x": [1.0, 1.0, 0.0]})
        assert ref[0, 0] == 2.0 and np.isnan(ref[1, 0])
        assert np.isnan(to.evaluate(e, {"x": [1.0, 1.0, 0.0]})).all()

    def test_fractional_power_of_negative_base_faults(self):
        x = to.variable("x", 3)
        d = x[0, 0] - x[1, 0]
        rows = [(x[2, 0] + 1.0)._n[0, 0], (d**0.5)._n[0, 0], (d**-1.5)._n[0, 0]]
        e = Expression(np.array(rows, dtype=object))
        p = np.zeros(2)

        ok = _each_tier(CompiledFunction(e, _LAYOUTS), np.array([5.0, 1.0, 0.0]), p)
        assert ok.ravel().tolist() == [1.0, 2.0, 0.125]
        assert np.isnan(_each_tier(CompiledFunction(e, _LAYOUTS), np.array([1.0, 5.0, 0.0]), p)).all()
        ref = _reference_evaluate(e, {"x": [1.0, 5.0, 0.0]})
        assert ref[0, 0] == 1.0 and np.isnan(ref[1:, 0]).all()
        assert np.isnan(to.evaluate(e, {"x": [1.0, 5.0, 0.0]})).all()
        # an all-constant power folds to a NaN-producing node, not a complex constant
        folded = to.evaluate(Expression(np.array([[expr._pow(_raw_const(-4.0), expr._const(0.5))]])))
        assert np.isnan(folded).all()

    def test_atan2_reads_negative_zero_as_positive(self):
        x = to.variable("x", 3)
        e = to.vertcat(to.atan2(x[0, 0], x[1, 0]), to.atan2(x[1, 0], x[2, 0]))
        out = _each_tier(CompiledFunction(e, _LAYOUTS), np.array([-0.0, -1.0, -0.0]), np.zeros(2))
        # IEEE atan2 gives -pi and -pi / 2 here; folded constants give these
        assert out.ravel().tolist() == [math.pi, -math.pi / 2]
        zero = to.constant(-0.0)
        folded = to.evaluate(to.vertcat(to.atan2(zero, -1.0), to.atan2(-1.0, zero)))
        assert folded.tobytes() == out.tobytes()



class TestGeneratedCode:
    """Inputs the source generator must spell or split right; each gives the tape's bytes."""

    def test_non_finite_constants(self):
        x0, x1 = (to.variable("x", 3)._n[i, 0] for i in range(2))
        inf, ninf, nan, neg_nan = (_raw_const(v) for v in (math.inf, -math.inf, math.nan, -math.nan))
        rows = [
            Node(expr._ADD, x0, inf),
            Node(expr._MUL, x1, ninf),
            Node(expr._DIV, x0, inf),
            Node(expr._SUB, nan, x0),
            Node(expr._ADD, neg_nan, x1),
            Node(expr._ATAN2, x0, ninf),
            Node(expr._NEG, Node(expr._ADD, inf, ninf)),
        ]
        e = Expression(np.array(rows, dtype=object))
        xv = np.array([1.0, -2.0, 0.0])
        out = _each_tier(CompiledFunction(e, _LAYOUTS), xv, np.zeros(2))
        assert out.ravel()[[0, 1, 2, 5]].tolist() == [math.inf, math.inf, 0.0, math.pi]
        assert np.isnan(out.ravel()[[3, 4, 6]]).all()
        # the NaNs keep the sign bits of their constants
        assert out.tobytes() == _reference_evaluate(e, {"x": xv}).tobytes()

    @pytest.mark.parametrize("op", ["sin", "sum"])
    def test_long_single_use_chain(self, op):
        x = to.variable("x", 3)
        leaves = [x._n[i, 0] for i in range(3)]
        xv = np.array([0.3, -1.25, 2.5])
        node, value = leaves[0], xv[0].item()
        for i in range(2500):
            if op == "sin":
                node, value = expr._sin(node), math.sin(value)
            else:
                node, value = expr._add(node, leaves[i % 3]), value + xv[i % 3].item()
        out = _each_tier(CompiledFunction(Expression(np.array([[node]])), _LAYOUTS), xv, np.zeros(2))
        assert out[0, 0] == value

    def test_fault_in_last_chunk_gives_all_nan(self):
        x = to.variable("x", 3)
        # the tape lists the first output's nodes last, so its statement ends the code
        rows = [1.0 / (x[0, 0] - x[2, 0])]
        rows += [x[0, 0] * float(k + 2) + x[1, 0] for k in range(expr._CHUNK_CHARS // 8)]
        e = to.vertcat(*rows)
        fn = CompiledFunction(e, _LAYOUTS)
        p = np.zeros(2)
        assert np.isfinite(_each_tier(fn, np.array([1.0, 2.0, 3.0]), p)).all()

        fault = np.array([1.0, 2.0, 1.0])
        vectors = [fault.tolist(), p.tolist()]
        vals = [0.0] * fn._n_slots
        assert len(fn._chunks) > 1
        for chunk in fn._chunks[:-1]:
            chunk(vals, vectors)
        with pytest.raises(ZeroDivisionError):
            fn._chunks[-1](vals, vectors)

        assert np.isnan(fn(fault, p)).all()
        assert np.isnan(_each_tier(CompiledFunction(e, _LAYOUTS), fault, p)).all()

    def test_domain_rules_give_nan_at_the_entry_only(self):
        x = to.variable("x", 3)
        e = to.vertcat(to.log(x[0, 0]), to.sqrt(x[1, 0]), to.sqrt(x[2, 0]), x[0, 0] + 1.0)
        out = _each_tier(CompiledFunction(e, _LAYOUTS), np.array([0.0, -1e-13, -1.0]), np.zeros(2))
        assert np.isnan(out[[0, 2], 0]).all() and out[[1, 3], 0].tolist() == [0.0, 1.0]

    def test_all_constant_expression(self):
        nodes = np.array([[_raw_const(1.5), _raw_const(-0.0)], [_raw_const(0.0), _raw_const(-2.0)]])
        out = _each_tier(CompiledFunction(Expression(nodes), _LAYOUTS), np.zeros(3), np.zeros(2))
        assert out.tolist() == [[1.5, 0.0], [0.0, -2.0]] and np.signbit(out[0, 1])

    def test_single_output(self):
        x = to.variable("x", 3)
        xv, p = np.array([0.5, 2.0, 0.0]), np.zeros(2)
        out = _each_tier(CompiledFunction(to.sin(x[0, 0]) * x[1, 0], _LAYOUTS), xv, p)
        assert out.shape == (1, 1) and out[0, 0] == math.sin(0.5) * 2.0
        leaf = _each_tier(CompiledFunction(x[1, 0], _LAYOUTS), xv, p)
        assert leaf.tolist() == [[2.0]]

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

        # each partition, bit for bit, is the public functions over its rows in label order
        by_name = dict(rows)
        bindings = {"x": X, "p": P}
        jacobians = {"g": prob.nonlin_ineq_jacobian, "h": prob.nonlin_eq_jacobian}
        for lin, nonlin in (("k", "g"), ("a", "h")):
            if prob.labels[lin]:
                stacked = to.vertcat(*(by_name[name] for name in prob.labels[lin]))
                M, c = (to.evaluate(e, bindings) for e in to.extract_affine(stacked, x))
                got_M, got_c = affine[lin]
                assert got_M.tobytes() == M.tobytes() and got_c.tobytes() == c.ravel().tobytes()
            if prob.labels[nonlin]:
                stacked = to.vertcat(*(by_name[name] for name in prob.labels[nonlin]))
                want = to.evaluate(to.jacobian(stacked, x), bindings)
                assert jacobians[nonlin](X, P).tobytes() == want.tobytes()


@st.composite
def dag_costs(draw):
    """A TaskBuilder whose one cost term is a random DAG node over its own x (3) and p (2)."""
    b = to.TaskBuilder(T=1)
    x = b.add_decision_variables("x", 3)
    p = b.add_parameter("p", 2)
    pool = [x._n[i, 0] for i in range(3)] + [p._n[j, 0] for j in range(2)]
    pool += [_raw_const(v) for v in draw(st.lists(_values, min_size=1, max_size=3))]
    grown = _grow(draw, list(pool))[len(pool):]
    f = Expression(np.array([[draw(st.sampled_from(grown))]], dtype=object))
    b.add_cost_term("f", f)
    return b, x, f


class TestSparseDerivatives:
    @_PROPERTY
    @given(
        task=dag_costs(),
        xv=st.lists(_values, min_size=3, max_size=3),
        pv=st.lists(_values, min_size=2, max_size=2),
    )
    def test_problem_derivatives_match_dense_ones(self, task, xv, pv):
        b, x, f = task
        prob = b.build()
        X, P = np.array(xv), np.array(pv)
        bindings = {"x": X, "p": P}
        for got, sym in ((prob.gradient(X, P), to.gradient(f, x)), (prob.hessian(X, P), to.hessian(f, x))):
            want = to.evaluate(sym, bindings)
            if want.size and np.isnan(want).all():
                # a fault in any entry makes the whole output NaN
                event("fault")
            assert got.dtype == want.dtype and got.size == want.size
            assert got.tobytes() == want.tobytes()

        # apart from the shared core: the upper triangle is the Jacobian of the
        # gradient, and the lower one mirrors it
        H = prob.hessian(X, P)
        assert H.tobytes() == H.T.copy().tobytes()
        full = to.evaluate(to.jacobian(to.gradient(f, x), x), bindings)
        if not np.isnan(full).all():
            upper = np.triu_indices(3)
            assert H[upper].tobytes() == full[upper].tobytes()


@st.composite
def weighted_sums(draw):
    """A TaskBuilder whose one cost term nests weighted squares of random DAG nodes in sums.

    Beside the squares it holds the terms the least-squares split leaves
    in the rest: constants, products that are not squares, and squares
    weighted by a parameter or by a negative constant.
    """
    b = to.TaskBuilder(T=1)
    x = b.add_decision_variables("x", 3)
    p = b.add_parameter("p", 2)
    pool = [x._n[i, 0] for i in range(3)] + [p._n[j, 0] for j in range(2)]
    pool += [_raw_const(v) for v in draw(st.lists(_values, min_size=1, max_size=3))]
    grown = _grow(draw, list(pool), max_ops=6)
    leaves = frozenset(pool[:3])
    nodes = st.sampled_from([n for n in grown if expr._deps(n) & leaves])

    def term(depth):
        # half the kinds add residuals, directly or below a weight or a sum
        kinds = ("square", "weighted", "sum", "square", "constant", "product", "parameter", "negative")
        kind = draw(st.sampled_from(kinds if depth < 3 else ("square", "constant", "product")))
        if kind == "square":
            r = draw(nodes)
            return expr._mul(r, r)
        if kind == "weighted":
            return expr._mul(expr._const(draw(st.sampled_from((1e-3, 0.5, 2.0)))), term(depth + 1))
        if kind == "sum":
            return expr._add(term(depth + 1), term(depth + 1))
        if kind == "constant":
            return expr._const(draw(_values))
        if kind == "product":
            return expr._mul(draw(nodes), expr._sin(draw(nodes)))
        r = draw(nodes)
        weight = p._n[0, 0] if kind == "parameter" else expr._const(-0.5)
        return expr._mul(weight, expr._mul(r, r))

    total = expr._ZERO
    for _ in range(draw(st.integers(1, 4))):
        total = expr._add(total, term(0))
    f = Expression(np.array([[total]], dtype=object))
    b.add_cost_term("f", f)
    return b, x, f


class TestLeastSquaresSplit:
    @_PROPERTY
    @given(
        task=weighted_sums(),
        xv=st.lists(_values, min_size=3, max_size=3),
        pv=st.lists(_values, min_size=2, max_size=2),
    )
    def test_objective_and_gradient_match_the_whole_cost(self, task, xv, pv):
        b, x, f = task
        prob = b.build()
        X, P = np.array(xv), np.array(pv)
        bindings = {"x": X, "p": P}
        want_f = to.evaluate(f, bindings)[0, 0]
        want_g = to.evaluate(to.gradient(f, x), bindings).ravel()
        got_f, got_g = prob.objective(X, P), prob.gradient(X, P)
        event(f"{prob._weights.size} residuals, rest {prob._f_rest is not None}")

        # roundoff is relative to the two parts, which may cancel in the sum
        rest_f = float(prob._f_rest(X, P)[0, 0]) if prob._f_rest is not None else 0.0
        rest_g = prob._grad_rest(X, P).ravel() if prob._grad_rest is not None else np.zeros(3)
        if np.isfinite(want_f):
            scale = max(1.0, abs(got_f - rest_f) + abs(rest_f))
            assert abs(got_f - want_f) <= 1e-12 * scale
        else:
            assert np.array_equal([got_f], [want_f], equal_nan=True)
        if np.isfinite(want_g).all():
            scale = max(1.0, np.abs(got_g - rest_g).max() + np.abs(rest_g).max())
            assert np.abs(got_g - want_g).max() <= 1e-12 * scale
        elif np.isnan(want_g).all():
            # an arithmetic fault in any entry makes the whole output NaN
            event("fault")
            assert np.isnan(got_g).all()


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


_BOUND_KINDS = ("free", "lower", "upper", "both", "fixed")


def _bounded_qp(rng, n, m_in, m_eq, kinds):
    """A strictly convex QP with rows and simple bounds of the given kinds per variable.

    Every row and bound holds at one drawn point; ``fixed`` makes ``lb ==
    ub`` there, and ``free`` leaves both sides infinite.
    """
    x_f = 0.5 * rng.normal(size=n)
    G = rng.normal(size=(n, n))
    H = G @ G.T + 0.1 * np.eye(n)
    q = 3.0 * rng.normal(size=n)
    C = rng.normal(size=(m_in + m_eq, n))
    Cx = C @ x_f
    width = np.concatenate([rng.uniform(0.0, 1.0, m_in), np.zeros(m_eq)])
    lo, hi = Cx - width, Cx + width
    hi[:m_in][rng.uniform(size=m_in) < 0.3] = np.inf
    kinds = np.array(kinds)
    lb = np.where(np.isin(kinds, ("lower", "both")), x_f - rng.uniform(0.0, 1.0, n), -np.inf)
    ub = np.where(np.isin(kinds, ("upper", "both")), x_f + rng.uniform(0.0, 1.0, n), np.inf)
    lb[kinds == "fixed"] = ub[kinds == "fixed"] = x_f[kinds == "fixed"]
    return H, q, C, lo, hi, lb, ub


@st.composite
def bounded_qps(draw, max_n=6):
    """``_bounded_qp`` with at most n equalities among its rows and fixed bounds."""
    n = draw(st.integers(2, max_n))
    kinds = draw(st.lists(st.sampled_from(_BOUND_KINDS), min_size=n, max_size=n))
    m_eq = draw(st.integers(0, n - kinds.count("fixed")))
    m_in = draw(st.integers(0, n + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _bounded_qp(rng, n, m_in, m_eq, kinds)


def _as_rows(C, lo, hi, lb, ub):
    """The simple bounds as identity rows after the rows of C."""
    n = C.shape[1]
    return np.vstack([C, np.eye(n)]), np.concatenate([lo, lb]), np.concatenate([hi, ub])


class TestSimpleBounds:
    @_PROPERTY
    @given(qp=bounded_qps())
    def test_bounds_match_identity_rows(self, qp):
        H, q, C, lo, hi, lb, ub = qp
        m = C.shape[0]
        res = solve_qp(H, q, C, lo, hi, lb=lb, ub=ub)
        rows = solve_qp(H, q, *_as_rows(C, lo, hi, lb, ub))
        assert res.converged and rows.converged
        event(f"active bounds: {int(np.count_nonzero(res.z))}")
        scale = max(1.0, float(np.abs(rows.x).max()), float(np.abs(rows.y).max()))
        assert np.abs(res.x - rows.x).max() <= 1e-9 * scale
        f_res, f_rows = (0.5 * x @ H @ x + q @ x for x in (res.x, rows.x))
        assert f_res == pytest.approx(f_rows, rel=1e-12, abs=1e-12)
        assert np.abs(res.y - rows.y[:m]).max(initial=0.0) <= 1e-9 * scale
        assert np.abs(res.z - rows.y[m:]).max() <= 1e-9 * scale
        # stationarity in the documented sign convention
        assert np.abs(H @ res.x + q + C.T @ res.y + res.z).max() <= 1e-8 * scale
        assert (res.x >= lb - 1e-9).all() and (res.x <= ub + 1e-9).all()

    @_PROPERTY
    @given(qp=bounded_qps(), data=st.data())
    def test_crossed_bounds_are_infeasible(self, qp, data):
        H, q, C, lo, hi, lb, ub = qp
        j = data.draw(st.integers(0, H.shape[0] - 1))
        mid = lb[j] if np.isfinite(lb[j]) else (ub[j] if np.isfinite(ub[j]) else 0.0)
        lb, ub = lb.copy(), ub.copy()
        lb[j], ub[j] = mid + 0.5, mid - 0.5
        assert solve_qp(H, q, C, lo, hi, lb=lb, ub=ub).termination == "infeasible"
        assert solve_qp(H, q, *_as_rows(C, lo, hi, lb, ub)).termination == "infeasible"

    @_PROPERTY
    @given(
        n=st.integers(2, 4),
        m_in=st.integers(0, 3),
        kinds=st.lists(st.sampled_from(("free", "lower", "upper", "both")), min_size=4, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bounds_agree_with_brute_force_oracle(self, n, m_in, kinds, seed):
        # criterion 5's oracle takes C x >= b: each finite side of a row or
        # bound is one such row
        H, q, C, lo, hi, lb, ub = _bounded_qp(np.random.default_rng(seed), n, m_in, 0, kinds[:n])
        G = np.vstack([C, -C, np.eye(n), -np.eye(n)])
        b = np.concatenate([lo, -hi, lb, -ub])
        keep = np.isfinite(b)
        x_star, _, obj_star = brute_force_qp(H, q, G[keep], b[keep])
        res = solve_qp(H, q, C, lo, hi, lb=lb, ub=ub)
        assert res.converged
        assert np.abs(res.x - x_star).max() <= 1e-7 * max(1.0, float(np.abs(x_star).max()))
        assert 0.5 * res.x @ H @ res.x + q @ res.x == pytest.approx(obj_star, rel=1e-9, abs=1e-9)


@st.composite
def null_space_qps(draw, max_n=6):
    """``_bounded_qp`` with its equality rows, maybe one duplicated, between its inequality rows.

    Returns the QP and the :class:`_NullSpace` of the equality rows.
    """
    n = draw(st.integers(2, max_n))
    kinds = draw(st.lists(st.sampled_from(_BOUND_KINDS), min_size=n, max_size=n))
    m_eq = draw(st.integers(1, max(1, n - kinds.count("fixed"))))
    m_in = draw(st.integers(0, n + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    H, q, C, lo, hi, lb, ub = _bounded_qp(rng, n, m_in, m_eq, kinds)
    eq = np.arange(m_in, m_in + m_eq)
    if draw(st.booleans()):
        eq = np.append(eq, m_in + draw(st.integers(0, m_eq - 1)))
    split = draw(st.integers(0, m_in))
    order = np.concatenate([np.arange(split), eq, np.arange(split, m_in)])
    return (H, q, C[order], lo[order], hi[order], lb, ub), _NullSpace(C[eq], split)


class TestNullSpace:
    @_PROPERTY
    @given(case=null_space_qps())
    def test_matches_the_unreduced_qp(self, case):
        (H, q, C, lo, hi, lb, ub), ns = case
        full = solve_qp(H, q, C, lo, hi, lb=lb, ub=ub)
        red = solve_qp(H, q, C, lo, hi, lb=lb, ub=ub, _null_space=ns)
        event(f"null space dimension: {ns.Z.shape[1]}")
        assert red.termination == full.termination == "kkt-tolerance"
        scale = max(1.0, float(np.abs(full.x).max()), float(np.abs(full.y).max(initial=0.0)))
        assert np.abs(red.x - full.x).max() <= 1e-9 * scale
        f_red, f_full = (0.5 * x @ H @ x + q @ x for x in (red.x, full.x))
        assert f_red == pytest.approx(f_full, rel=1e-9, abs=1e-9)
        # a duplicated row may split its multiplier differently
        assert np.abs(C.T @ red.y + red.z - (C.T @ full.y + full.z)).max() <= 1e-9 * scale

    @_PROPERTY
    @given(
        n=st.integers(2, 4),
        m_in=st.integers(0, 3),
        data=st.data(),
        kinds=st.lists(st.sampled_from(("free", "lower", "upper", "both")), min_size=4, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_agrees_with_brute_force_oracle(self, n, m_in, data, kinds, seed):
        m_eq = data.draw(st.integers(1, n))
        H, q, C, lo, hi, lb, ub = _bounded_qp(np.random.default_rng(seed), n, m_in, m_eq, kinds[:n])
        C_in, E = C[:m_in], C[m_in:]
        G = np.vstack([C_in, -C_in, np.eye(n), -np.eye(n)])
        b = np.concatenate([lo[:m_in], -hi[:m_in], lb, -ub])
        keep = np.isfinite(b)
        x_star, _, obj_star = brute_force_qp(H, q, G[keep], b[keep], E, lo[m_in:])
        res = solve_qp(H, q, C, lo, hi, lb=lb, ub=ub, _null_space=_NullSpace(E, m_in))
        assert res.converged
        assert np.abs(res.x - x_star).max() <= 1e-7 * max(1.0, float(np.abs(x_star).max()))
        assert 0.5 * res.x @ H @ res.x + q @ res.x == pytest.approx(obj_star, rel=1e-9, abs=1e-9)

    def test_rows_that_fix_bounded_variables(self):
        # the rows fix x0, x1 and x3, so Z is e_2 up to roundoff, and H is
        # positive definite only on that null space.  x2 is free: a bound
        # or row on the fixed variables taken as a roundoff direction
        # would send it far off.
        A = np.array([[1.0, 2.0, 0.0, 0.3], [1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        e = A @ np.array([0.5, 0.2, 0.0, 0.1])
        H, q = np.diag([0.0, 0.0, 2.0, 0.0]), np.array([1.0, -1.0, 1.0, 2.0])
        lb = np.array([-1.0, -1.0, -np.inf, -1.0])
        ns = _NullSpace(A, 0)
        x0_cap = np.array([0.4, np.inf, np.inf, np.inf])
        # x0 - x1 <= 0.2, where the rows fix x0 - x1 = 0.3
        C, lo, hi = np.vstack([A, [1.0, -1.0, 0.0, 0.0]]), np.append(e, -np.inf), np.append(e, 0.2)
        cases = (
            ((A, e, e), None, "kkt-tolerance"),
            ((A, e, e), x0_cap, "infeasible"),
            ((C, lo, hi), None, "infeasible"),
        )
        for rows, ub, termination in cases:
            full = solve_qp(H, q, *rows, lb=lb, ub=ub)
            red = solve_qp(H, q, *rows, lb=lb, ub=ub, _null_space=ns)
            assert full.termination == red.termination == termination
        x = solve_qp(H, q, A, e, e, lb=lb, _null_space=ns).x
        assert x == pytest.approx([0.5, 0.2, -0.5, 0.1], abs=1e-12)

    @_PROPERTY
    @given(case=null_space_qps(), data=st.data())
    def test_inconsistent_rows_are_infeasible(self, case, data):
        (H, q, C, lo, hi, lb, ub), ns = case
        # a copy of one equality row, with its side moved by 1, joins the rows
        i = data.draw(st.integers(0, ns.A.shape[0] - 1))
        a = ns.rows
        C = np.vstack([C[: a.stop], ns.A[i], C[a.stop :]])
        side = lo[a.start + i] + 1.0
        lo, hi = (np.concatenate([s[: a.stop], [side], s[a.stop :]]) for s in (lo, hi))
        ns = _NullSpace(C[a.start : a.stop + 1], a.start)
        assert solve_qp(H, q, C, lo, hi, lb=lb, ub=ub).termination == "infeasible"
        assert solve_qp(H, q, C, lo, hi, lb=lb, ub=ub, _null_space=ns).termination == "infeasible"


def _dense_projection(H):
    """The spectral clip of the whole matrix: symmetrise, one eigh, floor from the top eigenvalue."""
    w, V = np.linalg.eigh(0.5 * (H + H.T))
    floor = max(_MIN_EIGENVALUE, _RELATIVE_FLOOR * float(w.max(initial=0.0)))
    return (V * np.clip(w, floor, None)) @ V.T, floor


@st.composite
def block_diagonal(draw):
    """A symmetric matrix whose randomly permuted columns split into blocks of 1-6, and those blocks.

    A block is indefinite, positive semidefinite or all zero.
    """
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    n = sum(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = rng.permutation(n)
    H = np.zeros((n, n))
    blocks, start = [], 0
    for size in sizes:
        cols = np.sort(columns[start : start + size])
        start += size
        G = rng.normal(scale=10.0, size=(size, size))
        kind = draw(st.sampled_from(("indefinite", "semidefinite", "zero")))
        event(f"{kind} {size}x{size}" if size == 1 else kind)
        H[np.ix_(cols, cols)] = {"indefinite": G + G.T, "semidefinite": G @ G.T, "zero": 0.0 * G}[kind]
        blocks.append(cols)
    return H, blocks


def _structure(parts, n):
    """The blocks as Problem derives them from the structure: every entry of each block's square."""
    return _hessian_blocks([r * n + c for cols in parts for r in cols for c in cols], n)


class TestBlockProjection:
    @_PROPERTY
    @given(case=block_diagonal())
    def test_matches_the_dense_projection(self, case):
        H, parts = case
        n = H.shape[0]
        blocks = _structure(parts, n)
        assert sorted(map(tuple, (row for group in blocks for row in group))) == sorted(
            map(tuple, parts)
        )
        B = _psd_projection(H, _block_positions(blocks, n))
        want, floor = _dense_projection(H)
        scale = max(np.abs(H).max(), _MIN_EIGENVALUE)
        assert np.abs(B - want).max() <= 1e-12 * scale
        inside = np.zeros((n, n), dtype=bool)
        for cols in parts:
            inside[np.ix_(cols, cols)] = True
        assert not B[~inside].any()
        # V w V' is the formula of the dense projection; it is symmetric to roundoff
        assert np.abs(B - B.T).max() <= 1e-15 * np.abs(B).max()
        assert np.linalg.eigvalsh(B).min() >= floor - 1e-12 * scale

    @_PROPERTY
    @given(case=block_diagonal())
    def test_one_block_is_the_dense_projection(self, case):
        H = case[0]
        n = H.shape[0]
        one = _block_positions((np.arange(n)[None, :],), n)
        want, _ = _dense_projection(H)
        assert _psd_projection(H, one).tobytes() == want.tobytes()

    @_PROPERTY
    @given(case=block_diagonal(), bad=st.sampled_from((np.nan, np.inf, -np.inf)), data=st.data())
    def test_non_finite_gives_identity(self, case, bad, data):
        H, parts = case
        n = H.shape[0]
        cols = data.draw(st.sampled_from(parts))
        i, j = data.draw(st.sampled_from(cols)), data.draw(st.sampled_from(cols))
        H[i, j] = bad
        blocks = _block_positions(_structure(parts, n), n)
        assert np.array_equal(_psd_projection(H, blocks), np.eye(n))
