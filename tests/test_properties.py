"""Property-based checks of the compiled evaluator and the splitting QP solver."""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import taskopt as to
from taskopt import expr
from taskopt.expr import CompiledFunction, Expression, Node
from taskopt.solvers import SolverOptions
from taskopt.solvers.admm import solve_qp

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


@st.composite
def dags(draw):
    """A matrix expression over x (3) and p (2) with many constant outputs."""
    x = to.variable("x", 3)
    p = to.parameter("p", 2)
    pool = [x._n[i, 0] for i in range(3)] + [p._n[j, 0] for j in range(2)]
    pool += [_raw_const(v) for v in draw(st.lists(_values, min_size=1, max_size=3))]
    for _ in range(draw(st.integers(1, 15))):
        kind = draw(st.sampled_from(("unary", "binary", "pow")))
        a = draw(st.sampled_from(pool))
        if kind == "unary":
            node = expr._MAKE[draw(st.sampled_from(_UNARY))](a)
        elif kind == "binary":
            node = expr._MAKE[draw(st.sampled_from(_BINARY))](a, draw(st.sampled_from(pool)))
        else:
            node = expr._pow(a, expr._const(draw(st.sampled_from(_EXPONENTS))))
        pool.append(node)
    zeros = [_raw_const(0.0), _raw_const(-0.0), _raw_const(2.5)]
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    out = st.one_of(st.sampled_from(pool), st.sampled_from(zeros))
    nodes = np.array([draw(out) for _ in range(rows * cols)], dtype=object)
    return Expression(nodes.reshape(rows, cols))


class TestCompiledFunction:
    @_PROPERTY
    @given(
        e=dags(),
        xv=st.lists(_values, min_size=3, max_size=3),
        pv=st.lists(_values, min_size=2, max_size=2),
    )
    def test_matches_evaluate_bit_for_bit(self, e, xv, pv):
        xv, pv = np.array(xv), np.array(pv)
        ref = to.evaluate(e, {"x": xv, "p": pv})
        out = CompiledFunction(e, _LAYOUTS)(xv, pv)
        assert out.shape == ref.shape and out.dtype == ref.dtype
        if out.tobytes() != ref.tobytes():
            # the one permitted difference is the fault rule: a raising op
            # makes the compiled output all NaN, while evaluate only puts
            # NaN at the entries that depend on it
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
        ref = to.evaluate(e, {"x": [1.0, 1.0, 0.0]})
        assert ref[0, 0] == 2.0 and np.isnan(ref[1, 0])

    def test_fractional_power_of_negative_base_faults(self):
        x = to.variable("x", 3)
        d = x[0, 0] - x[1, 0]
        rows = [(x[2, 0] + 1.0)._n[0, 0], (d**0.5)._n[0, 0], (d**-1.5)._n[0, 0]]
        e = Expression(np.array(rows, dtype=object))
        fn = CompiledFunction(e, _LAYOUTS)
        p = np.zeros(2)

        assert fn(np.array([5.0, 1.0, 0.0]), p).ravel().tolist() == [1.0, 2.0, 0.125]
        assert np.isnan(fn(np.array([1.0, 5.0, 0.0]), p)).all()
        ref = to.evaluate(e, {"x": [1.0, 5.0, 0.0]})
        assert ref[0, 0] == 1.0 and np.isnan(ref[1:, 0]).all()
        # an all-constant power folds to a NaN-producing node, not a complex constant
        folded = to.evaluate(Expression(np.array([[expr._pow(_raw_const(-4.0), expr._const(0.5))]])))
        assert np.isnan(folded).all()


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
    """``_mixed_qp`` with at most n rows, so the active rows stay linearly independent."""
    n = draw(st.integers(2, 8))
    m_eq = draw(st.integers(0, n - 1))
    m_in = draw(st.integers(1, n - m_eq))
    return _mixed_qp(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, m_in, m_eq)


class TestSolveQP:
    @_PROPERTY
    @given(qp=mixed_qps())
    def test_kkt_conditions(self, qp):
        H, q, C, lo, hi = qp
        # a penalty 1e3 below the default makes nearly every draw run past
        # the first adaptation point (iteration 50) and refactor
        res = solve_qp(H, q, C, lo, hi, options=SolverOptions(qp_penalty=1e-4))
        if res.iterations > 50:
            event("penalty adapted")
        assert res.converged
        assert np.abs(H @ res.x + q + C.T @ res.y).max() <= 1e-5
        Cx = C @ res.x
        assert np.maximum(np.maximum(lo - Cx, Cx - hi), 0.0).max() <= 1e-5
        slack = np.minimum(Cx - lo, hi - Cx)
        assert np.abs(res.y * slack).max() <= 1e-5

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: solve_qp stalls at its iteration cap on some QPs with more rows than variables",
    )
    def test_more_rows_than_variables(self):
        # n = 2 with 3 inequality rows and 1 equality row; the optimum is a
        # vertex with one inequality and the equality active, yet the
        # iteration stalls about 1e-2 away from it at the default penalty
        H, q, C, lo, hi = _mixed_qp(np.random.default_rng(122), 2, 3, 1)
        res = solve_qp(H, q, C, lo, hi)
        assert res.converged
