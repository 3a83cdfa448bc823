import sys

import numpy as np
import pytest

import taskopt as to
from taskopt import expr
from taskopt.expr import CompiledFunction

from conftest import central_difference, relative_error


class TestEvaluate:
    def test_square(self):
        x = to.variable("x")
        e = x * x
        assert to.evaluate(e, {"x": 3.0})[0, 0] == 9.0

    def test_sumsqr(self):
        x = to.variable("x", 2)
        assert to.evaluate(to.sumsqr(x), {"x": [1.0, 2.0]})[0, 0] == 5.0

    def test_missing_binding(self):
        x = to.variable("x")
        with pytest.raises(KeyError):
            to.evaluate(x * x, {})

    def test_shape_mismatch(self):
        x = to.variable("x", 2)
        with pytest.raises(ValueError):
            to.evaluate(to.sumsqr(x), {"x": [1.0, 2.0, 3.0]})

    def test_matmul_and_transpose(self):
        A = to.constant([[1.0, 2.0], [3.0, 4.0]])
        x = to.variable("x", 2)
        y = A @ x
        out = to.evaluate(y, {"x": [1.0, 1.0]})
        assert np.allclose(out.ravel(), [3.0, 7.0])
        out_t = to.evaluate((A @ x).T, {"x": [1.0, 1.0]})
        assert out_t.shape == (1, 2)

    def test_constant_folding_matches_unfolded(self):
        # an all-constant graph folds at construction; values must agree
        a = to.constant(2.0)
        b = to.constant([1.0, -3.0])
        folded = to.sumsqr(a * b + 1.0)
        assert folded.is_constant()
        assert folded.to_array()[0, 0] == pytest.approx((2 + 1) ** 2 + (-6 + 1) ** 2, abs=0)

    def test_elementwise_broadcast(self):
        x = to.variable("x", 2, 3)
        col = to.constant([[1.0], [2.0]])
        e = x * col
        vals = to.evaluate(e, {"x": np.ones((2, 3))})
        assert np.allclose(vals, [[1, 1, 1], [2, 2, 2]])


class TestRegistry:
    def test_variable_shape(self):
        reg = to.LeafRegistry()
        q = reg.variable("q", 2, 1)
        assert q.shape == (2, 1)

    def test_duplicate_name(self):
        reg = to.LeafRegistry()
        reg.variable("q", 2, 1)
        with pytest.raises(ValueError):
            reg.variable("q", 2, 1)

    def test_scalar_variable(self):
        reg = to.LeafRegistry()
        dt = reg.variable("dt")
        assert dt.shape == (1, 1)

    def test_variable_and_parameter_share_name(self):
        reg = to.LeafRegistry()
        reg.variable("x")
        reg.parameter("x")  # distinct kind, allowed


class TestJacobian:
    def test_square_derivative(self):
        x = to.variable("x")
        J = to.jacobian(x * x, x)
        assert to.evaluate(J, {"x": 3.0})[0, 0] == pytest.approx(6.0)

    def test_linear_map_jacobian_is_constant(self):
        A = np.array([[1.0, -2.0], [0.5, 4.0]])
        x = to.variable("x", 2)
        b = to.constant([1.0, 1.0])
        J = to.jacobian(to.constant(A) @ x + b, x)
        assert J.is_constant()
        assert np.allclose(J.to_array(), A)

    def test_planar_fk_vs_finite_differences(self):
        q = to.variable("q", 2)
        p = to.vertcat(
            to.cos(q[0, 0]) + to.cos(q[0, 0] + q[1, 0]),
            to.sin(q[0, 0]) + to.sin(q[0, 0] + q[1, 0]),
        )
        J = to.jacobian(p, q)
        rng = np.random.default_rng(7)
        for _ in range(20):
            qv = rng.uniform(-np.pi, np.pi, size=2)
            sym = to.evaluate(J, {"q": qv})
            num = central_difference(lambda v: to.evaluate(p, {"q": v}), qv)
            assert relative_error(sym, num) <= 1e-6

    def test_higher_order(self):
        x = to.variable("x")
        d1 = to.jacobian(x * x * x, x)
        d2 = to.jacobian(d1.T, x)
        assert to.evaluate(d2, {"x": 2.0})[0, 0] == pytest.approx(12.0)

    def test_requires_column(self):
        x = to.variable("x", 2, 2)
        with pytest.raises(ValueError):
            to.jacobian(x, x.vec())

    def test_hessian_symmetric(self):
        x = to.variable("x", 3)
        e = to.sumsqr(x) + x[0, 0] * x[1, 0] * x[2, 0]
        H = to.evaluate(to.hessian(e, x), {"x": [1.0, 2.0, 3.0]})
        assert np.abs(H - H.T).max() <= 1e-12


class TestClassify:
    def test_affine(self):
        q = to.variable("q", 2)
        e = q[0, 0] + 2.0 * q[1, 0] - 3.0
        assert to.classify(e, q) is to.StructureClass.LINEAR

    def test_bilinear(self):
        q = to.variable("q", 2)
        assert to.classify(q[0, 0] * q[1, 0], q) is to.StructureClass.QUADRATIC

    def test_fk_cost_nonlinear(self, planar2r):
        q = to.variable("q", 2)
        p = planar2r.global_link_position("ee", q)
        e = to.sumsqr(p - to.constant([1.0, 1.0, 0.0]))
        assert to.classify(e, q) is to.StructureClass.NONLINEAR

    def test_constant(self):
        q = to.variable("q", 2)
        p = to.parameter("p")
        assert to.classify(p * 2.0 + 1.0, q) is to.StructureClass.CONSTANT

    def test_division_by_variable_is_nonlinear(self):
        q = to.variable("q", 2)
        # structurally nonlinear even though the value is constant
        assert to.classify(q[0, 0] / q[0, 0], q) is to.StructureClass.NONLINEAR

    def test_atan2_is_nonlinear(self):
        q = to.variable("q", 2)
        assert to.classify(to.atan2(q[0, 0], q[1, 0]), q) is to.StructureClass.NONLINEAR

    def test_parameter_coefficients_stay_linear(self):
        q = to.variable("q", 2)
        p = to.parameter("p")
        assert to.classify(p * q[0, 0] + q[1, 0], q) is to.StructureClass.LINEAR

    def test_stable_under_simplification(self):
        q = to.variable("q", 3)
        p = to.parameter("p", 3)
        fixtures = [
            to.sumsqr(q),
            q[0, 0] + 0.0 * q[1, 0],
            to.dot(p, q),
            to.sin(q[0, 0]) + q[1, 0],
            (q[0, 0] + q[1, 0]) * (q[0, 0] - q[1, 0]),
        ]
        for e in fixtures:
            assert to.classify(e, q) is to.classify(to.simplify(e), q)

    def test_numeric_probe_cross_check(self):
        # randomized second-derivative probe agrees with the structural rule
        rng = np.random.default_rng(3)
        q = to.variable("q", 2)
        cases = [
            (q[0, 0] * 2.0 - q[1, 0], to.StructureClass.LINEAR),
            (q[0, 0] * q[1, 0] + q[0, 0], to.StructureClass.QUADRATIC),
            (to.sin(q[0, 0]), to.StructureClass.NONLINEAR),
        ]
        for e, expected in cases:
            assert to.classify(e, q) is expected
            H = to.hessian(e, q)
            hess_values = [
                to.evaluate(H, {"q": rng.uniform(-1, 1, 2)}) for _ in range(5)
            ]
            spread = max(np.abs(h - hess_values[0]).max() for h in hess_values)
            if expected is to.StructureClass.LINEAR:
                assert all(np.abs(h).max() <= 1e-9 for h in hess_values)
            elif expected is to.StructureClass.QUADRATIC:
                assert spread <= 1e-9
            else:
                assert spread > 1e-9


class TestExtractAffine:
    def test_coefficients(self):
        q = to.variable("q", 2)
        p = to.parameter("p")
        M, c = to.extract_affine(2.0 * q[0, 0] - q[1, 0] + p, q)
        assert np.allclose(to.evaluate(M, {"p": 0.3}), [[2.0, -1.0]])
        assert to.evaluate(c, {"p": 0.3})[0, 0] == pytest.approx(0.3)

    def test_constant_case(self):
        q = to.variable("q", 2)
        M, c = to.extract_affine(to.constant(5.0), q)
        assert np.allclose(to.evaluate(M), [[0.0, 0.0]])
        assert c.to_array()[0, 0] == 5.0

    def test_rejects_nonlinear(self):
        q = to.variable("q", 2)
        with pytest.raises(ValueError):
            to.extract_affine(to.sin(q[0, 0]), q)

    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        q = to.variable("q", 3)
        p = to.parameter("p", 2)
        e = to.vertcat(
            2.0 * q[0, 0] - q[2, 0] + p[0, 0],
            q[1, 0] * 0.5 + p[1, 0] * p[0, 0],
            to.constant(1.5),
        )
        M, c = to.extract_affine(e, q)
        for _ in range(10):
            qv = rng.normal(size=3)
            pv = rng.normal(size=2)
            direct = to.evaluate(e, {"q": qv, "p": pv}).ravel()
            rebuilt = to.evaluate(M, {"p": pv}) @ qv + to.evaluate(c, {"p": pv}).ravel()
            assert np.abs(direct - rebuilt).max() <= 1e-12


class TestSubstituteAndCompile:
    def test_substitute_numeric(self):
        x = to.variable("x", 2)
        e = to.sumsqr(x)
        fixed = to.substitute(e, {"x": [3.0, 4.0]})
        assert fixed.is_constant()
        assert fixed.to_array()[0, 0] == 25.0

    def test_substitute_expression(self):
        x = to.variable("x", 2)
        y = to.variable("y", 2)
        e = to.sumsqr(x)
        swapped = to.substitute(e, {"x": y * 2.0})
        assert to.evaluate(swapped, {"y": [1.0, 1.0]})[0, 0] == pytest.approx(8.0)

    def test_compiled_function_matches_evaluate(self):
        rng = np.random.default_rng(5)
        x = to.variable("x", 3)
        p = to.parameter("p", 2)
        e = to.vertcat(
            to.sumsqr(x) * p[0, 0],
            to.sin(x[0, 0]) + p[1, 0],
            to.atan2(x[1, 0], x[2, 0] + 2.0),
        )
        fn = CompiledFunction(
            e,
            (
                ("variable", {"x": (0, 3, 1)}),
                ("parameter", {"p": (0, 2, 1)}),
            ),
        )
        for _ in range(20):
            xv = rng.normal(size=3)
            pv = rng.normal(size=2)
            assert np.allclose(
                fn(xv, pv), to.evaluate(e, {"x": xv, "p": pv}), rtol=0, atol=1e-14
            )

    def test_simplify_deep_chain(self):
        # the walk is iterative: a chain far deeper than the recursion limit
        depth = 20_000
        assert sys.getrecursionlimit() < depth
        x = to.variable("x")
        e = x
        for _ in range(depth):
            e = to.sin(e)
        simple = to.simplify(e)
        assert to.evaluate(simple, {"x": 0.5}).tobytes() == to.evaluate(e, {"x": 0.5}).tobytes()

    def test_compiled_function_nan_on_domain_error(self):
        x = to.variable("x")
        fn = CompiledFunction(to.log(x), (("variable", {"x": (0, 1, 1)}),))
        assert np.isnan(fn(np.array([-1.0]))[0, 0])


class TestCompiledEntries:
    """A CompiledFunction given ``(shape, flat positions, nodes)`` in place of an expression."""

    LAYOUT = (("variable", {"x": (0, 2, 1)}),)

    @staticmethod
    def _tiers(fn, *vectors):
        """One output per call, across the tape and the generated code."""
        return [fn(*vectors) for _ in range(1 + expr._GENERATE_ON_CALL)]

    def test_no_entries_gives_zeros(self):
        fn = CompiledFunction(((3, 4), [], []), self.LAYOUT)
        for out in self._tiers(fn, np.array([1.0, 2.0])):
            assert out.shape == (3, 4) and not out.any() and not np.signbit(out).any()

    def test_raw_negative_zero_keeps_its_sign(self):
        x = to.variable("x", 2)
        entries = ((2, 2), [1, 2], [expr.Node(expr._CONST, val=-0.0), x._n[0, 0]])
        for out in self._tiers(CompiledFunction(entries, self.LAYOUT), np.array([5.0, 6.0])):
            assert out.tolist() == [[0.0, 0.0], [5.0, 0.0]]
            assert np.signbit(out).tolist() == [[False, True], [False, False]]

    def test_node_at_two_positions_is_computed_once(self):
        # a mirrored Hessian entry: (0, 1) and (1, 0) are one node
        x = to.variable("x", 2)
        x0, x1 = x._n[0, 0], x._n[1, 0]
        cross = x0 * x1
        fn = CompiledFunction(((2, 2), [0, 1, 2], [x0 * x0, cross, cross]), self.LAYOUT)
        assert len(fn._tape) == 4  # the two leaves, x0 * x0 and x0 * x1
        for out in self._tiers(fn, np.array([3.0, 5.0])):
            assert out.tolist() == [[9.0, 15.0], [15.0, 0.0]]
        assert fn._n_slots == 2

    def test_fault_gives_all_nan_on_both_tiers(self):
        x = to.variable("x", 2)
        x0, x1 = x._n[0, 0], x._n[1, 0]
        entries = ((2, 3), [0, 4], [x0 + 1.0, 1.0 / (x0 - x1)])
        fn = CompiledFunction(entries, self.LAYOUT)
        for out in self._tiers(fn, np.array([2.0, 1.0])):
            assert out.tolist() == [[3.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        assert fn._chunks is not None
        fault = CompiledFunction(entries, self.LAYOUT)
        for out in self._tiers(fault, np.array([1.0, 1.0])):
            assert out.shape == (2, 3) and np.isnan(out).all()
        assert fault._chunks is not None
