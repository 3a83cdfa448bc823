"""Assemble a time-horizon optimization task and transcribe it to a Problem.

The builder owns the decision and parameter containers, registers model
state blocks (named ``"<model>/<order>"``) and collects cost terms and
constraints in user syntax.  :meth:`TaskBuilder.build` sums the cost terms,
checks the rows that hold no leaves, and hands the remaining inequality and
equality rows, one label each, to :class:`~taskopt.problem.Problem`, which
routes them into the canonical partitions and builds every derivative.

Canonical internal forms: equalities are stored as ``expr == 0`` and
inequalities as ``expr >= 0``; the user-facing methods convert on entry.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import expr as ex
from .containers import VariableContainer
from .expr import Expression, Node, as_expression
from .kinematics import RobotModel
from .problem import Problem

__all__ = ["TaskBuilder", "BuildError", "MIN_TIME_STEP"]

# Lower bound on optimized time increments, to keep dt away from zero.
MIN_TIME_STEP = 1e-4


class BuildError(ValueError):
    """Raised when a task cannot be transcribed."""


class TaskBuilder:
    """Incrementally describe an optimization task over ``T`` time steps.

    Parameters
    ----------
    T:
        Number of time steps; ``T == 1`` describes an end-pose problem.
    robots, tasks:
        Models whose state trajectories become decision blocks.  For each
        model and derivative order ``d``, a block ``"<name>/<d>"`` of shape
        ``ndof x T`` (``derivs_align``) or ``ndof x (T - d)`` is registered.
    derivs_align:
        Whether derivative trajectories are index-aligned with states.
    optimize_time:
        When set, the ``T - 1`` time increments become decision variables
        (block ``"dt"``), bounded below by :data:`MIN_TIME_STEP` once
        integration constraints are added.
    """

    def __init__(self, T: int, robots=(), tasks=(), derivs_align: bool = False,
                 optimize_time: bool = False):
        T = int(T)
        if T < 1:
            raise ValueError("T must be at least 1")
        self.T = T
        self.derivs_align = bool(derivs_align)
        self.optimize_time = bool(optimize_time)

        self._models: dict[str, object] = {}
        self.decision = VariableContainer("variable")
        self.parameters = VariableContainer("parameter")
        self._costs: dict[str, Expression] = {}
        self._equalities: dict[str, Expression] = {}
        self._inequalities: dict[str, Expression] = {}
        self._dt_bounded = False

        for model in list(robots) + list(tasks):
            name = model.get_name()
            if name in self._models:
                raise ValueError(f"duplicate model name {name!r}")
            self._models[name] = model
            for d in model.time_derivs:
                cols = T if self.derivs_align else T - d
                if cols < 1:
                    raise ValueError(
                        f"model {name!r} requests derivative order {d} but T={T} "
                        "leaves no columns (derivs_align=False)"
                    )
                self.add_decision_variables(f"{name}/{d}", model.ndof, cols)

        if self.optimize_time:
            if T < 2:
                raise ValueError("optimize_time requires T >= 2")
            # the optimized time increments, exposed for use in costs/constraints
            self.dt = self.add_decision_variables("dt", 1, T - 1)
        else:
            self.dt = None

    # variable management ---------------------------------------------------
    def add_decision_variables(self, name: str, rows: int = 1, cols: int = 1) -> Expression:
        """Register an extra named decision block and return it."""
        block = ex.variable(name, rows, cols)
        self.decision.register(name, block)
        return block

    def add_parameter(self, name: str, rows: int = 1, cols: int = 1) -> Expression:
        """Register a named parameter block and return it."""
        block = ex.parameter(name, rows, cols)
        self.parameters.register(name, block)
        return block

    def get_model_state(self, name: str, t: int, time_deriv: int = 0) -> Expression:
        """State column of a model at time index ``t`` (negative counts from the end)."""
        if name not in self._models:
            raise KeyError(f"unknown model {name!r}")
        model = self._models[name]
        if time_deriv not in model.time_derivs:
            raise KeyError(f"model {name!r} does not register derivative order {time_deriv}")
        block = self.decision.block(f"{name}/{time_deriv}")
        cols = block.cols
        if t < 0:
            t += cols
        if not 0 <= t < cols:
            raise IndexError(f"time index out of range for block with {cols} columns")
        return block[:, t]

    def model_block(self, name: str, time_deriv: int = 0) -> Expression:
        """Whole trajectory block of a model at one derivative order."""
        if name not in self._models:
            raise KeyError(f"unknown model {name!r}")
        return self.decision.block(f"{name}/{time_deriv}")

    # cost and constraints ----------------------------------------------------
    def add_cost_term(self, name: str, term) -> None:
        term = as_expression(term)
        if not term.is_scalar():
            raise ValueError(f"cost term {name!r} must be scalar, got shape {term.shape}")
        if name in self._costs:
            raise ValueError(f"duplicate cost term {name!r}")
        self._costs[name] = term

    @staticmethod
    def _canonical(lhs, rhs) -> Expression:
        diff = as_expression(lhs) - as_expression(rhs)
        return diff if diff.is_column() else diff.vec()

    def add_equality_constraint(self, name: str, lhs, rhs=0.0) -> None:
        """Add ``lhs == rhs`` (stored as ``lhs - rhs == 0``)."""
        if name in self._equalities:
            raise ValueError(f"duplicate equality constraint {name!r}")
        self._equalities[name] = self._canonical(lhs, rhs)

    def add_leq_inequality_constraint(self, name: str, lhs, rhs=0.0) -> None:
        """Add ``lhs <= rhs`` (stored as ``rhs - lhs >= 0``)."""
        if name in self._inequalities:
            raise ValueError(f"duplicate inequality constraint {name!r}")
        self._inequalities[name] = self._canonical(rhs, lhs)

    # convenience constraints ---------------------------------------------------
    def enforce_model_limits(self, name: str) -> None:
        """Bound every registered robot state block by the URDF limits.

        Position bounds apply to order 0, velocity bounds to order 1; rows
        with infinite bounds (continuous joints, missing velocity tags)
        are skipped.
        """
        if name not in self._models:
            raise KeyError(f"unknown model {name!r}")
        model = self._models[name]
        if not isinstance(model, RobotModel):
            raise TypeError(f"model {name!r} is not a robot")
        for d in model.time_derivs:
            if d == 0:
                lo, hi = model.lower_limits, model.upper_limits
            elif d == 1:
                hi = model.velocity_limits
                lo = -hi
            else:
                continue
            block = self.decision.block(f"{name}/{d}")
            lo_mask = np.isfinite(lo)
            hi_mask = np.isfinite(hi)
            if lo_mask.any():
                rows = Expression(block._n[np.flatnonzero(lo_mask), :])
                bound = ex.constant(lo[lo_mask])
                self.add_leq_inequality_constraint(f"{name}/{d}/lower", bound, rows)
            if hi_mask.any():
                rows = Expression(block._n[np.flatnonzero(hi_mask), :])
                bound = ex.constant(hi[hi_mask])
                self.add_leq_inequality_constraint(f"{name}/{d}/upper", rows, bound)

    def integrate_model_states(self, name: str, time_deriv: int, dt=None) -> None:
        """Couple consecutive states by explicit Euler integration.

        Adds ``s[d-1]_{t+1} == s[d-1]_t + dt_t * s[d]_t`` for every
        bracketing pair of columns.  With ``optimize_time`` the increments
        are the ``dt`` decision block and a positivity bound is added.
        """
        if name not in self._models:
            raise KeyError(f"unknown model {name!r}")
        model = self._models[name]
        d = int(time_deriv)
        if d < 1 or d not in model.time_derivs or (d - 1) not in model.time_derivs:
            raise KeyError(
                f"integration of order {d} needs orders {d} and {d - 1} registered "
                f"for model {name!r}"
            )
        state = self.decision.block(f"{name}/{d - 1}")
        deriv = self.decision.block(f"{name}/{d}")
        steps = state.cols - 1
        if steps < 1:
            raise ValueError(f"model {name!r} has a single state column; nothing to integrate")

        if self.optimize_time:
            if dt is not None:
                raise ValueError("time steps are decision variables; do not pass dt")
            dt_row = Expression(self.dt._n[:, :steps])
            if not self._dt_bounded:
                self.add_leq_inequality_constraint("dt/minimum", MIN_TIME_STEP, self.dt)
                self._dt_bounded = True
        else:
            if dt is None:
                raise ValueError("dt is required unless optimize_time is set")
            dt_e = as_expression(dt)
            if not dt_e.is_scalar():
                raise ValueError("dt must be scalar")
            dt_row = ex.horzcat(*([dt_e] * steps))

        nxt = Expression(state._n[:, 1:])
        cur = Expression(state._n[:, :-1])
        rate = Expression(deriv._n[:, :steps])
        residual = nxt - cur - rate * dt_row
        self.add_equality_constraint(f"{name}/integration/{d}", residual)

    # transcription ------------------------------------------------------------
    def build(self) -> Problem:
        """Sum the cost terms, check the constant rows and compile a :class:`Problem`.

        A row with no leaves raises :class:`BuildError` when violated and
        is dropped with a warning when satisfied.  Every other row goes to
        :class:`Problem`, which routes it into its canonical partition and
        builds the derivatives.
        """
        if not self._costs and not self._equalities and not self._inequalities:
            raise BuildError("empty problem: add at least one cost term or constraint")

        f = ex.constant(0.0)
        for term in self._costs.values():
            f = f + term

        def rows(constraints: dict[str, Expression], is_eq: bool) -> list[tuple[str, Node]]:
            kept = []
            for name, e in constraints.items():
                for i in range(e.rows):
                    node = e._n[i, 0]
                    if ex._deps(node):
                        kept.append((name, node))
                        continue
                    val = node.val
                    if (abs(val) > 1e-12) if is_eq else (val < -1e-12):
                        raise BuildError(
                            f"constraint {name!r} row {i} is constant and violated "
                            f"(value {val!r})"
                        )
                    warnings.warn(
                        f"constraint {name!r} row {i} is constant and satisfied; dropped",
                        stacklevel=3,
                    )
            return kept

        return Problem(
            self.decision,
            self.parameters,
            f,
            inequalities=rows(self._inequalities, is_eq=False),
            equalities=rows(self._equalities, is_eq=True),
        )
