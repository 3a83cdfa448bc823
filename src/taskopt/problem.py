"""Canonical constrained problem: numeric evaluation of objective, constraints,
and their derivatives given the stacked decision vector X and parameter vector P.

Transcription happens here: :class:`Problem` builds every symbolic
derivative of the build from one shared memo, so none is built twice,
and routes each constraint row into one of the four canonical partitions
on its own Jacobian row: linear when no entry of it depends on X.  The
build differentiates the cost only as far as a Gauss–Newton solve reads
it; ∇²f is built on demand (see below).

* ``k(X; P) = M(P) X + c(P) >= 0``   linear inequalities
* ``a(X; P) = A(P) X + b(P) = 0``    linear equalities
* ``g(X; P) >= 0``                   nonlinear inequalities
* ``h(X; P) = 0``                    nonlinear equalities

M, c, A, b hold no decision leaves by construction: M and A are the
Jacobian rows of structurally linear rows, and c and b are those rows with
every decision leaf set to 0.  They are compiled over P alone, which
rejects any decision leaf that slips in.

The cost is split at build into weighted residuals and a rest,
``f = sum c r**2 + f_rest`` (:func:`_least_squares`): every summand of the
top-level sum of the form ``c * (r * r)``, with c a product of constants
>= 0 and r depending on X, adds a residual.  The residuals r and their Jacobian J are compiled
in place of f and ∇f, and f_rest with its gradient only when the cost
has a rest.  :meth:`Problem.objective` is ``sum c r**2 + f_rest`` and
:meth:`Problem.gradient` is ``2 J'(c r) + ∇f_rest``, with r and J from
one call.  A solver's curvature comes from the same J: the private
:meth:`Problem._gauss_newton` forms ``2 J'CJ`` block by block from the
values the last gradient left.  :meth:`Problem.hessian` stays the exact
∇²f, the only second derivative compiled, and it is built and compiled on
its first call, one template at a time (:func:`_hessian_templates`): the
curvature blocks whose parts of f are one graph up to renamed leaves,
such as a horizon's stages, share one derivative and one compiled
function, run once per block.  Whether f is quadratic follows
from the split: no entry of J depends on X and f_rest classifies as at
most quadratic.

Derivatives are built and compiled from their structural nonzeros: each
row (and each gradient entry, for the Hessian) is differentiated only by
the decision leaves it depends on, so a horizon problem's derivatives grow
with its nonzeros, not with rows x columns.  Every public evaluator still
returns a dense numpy array; the entries outside the structure are +0.0.
The connected components of the cost's curvature structure are kept as
:attr:`Problem.hessian_blocks`: a stage-wise cost has a block-diagonal
Hessian, and a solver can then work on each block alone.  They are taken
from structure, without ∇²f: each residual couples the columns of its J
row, and each entry j of ∇f_rest couples j with the X leaves it depends
on.  That pattern contains both ∇²f's and ``J'CJ``'s.

A k row whose M row has exactly one structural nonzero, a finite nonzero
constant, bounds one variable: ``coef * X[col] + c >= 0``.  These rows are
marked at build as a read-only triple of rows, columns and coefficients
(``Problem._bounds``), so a solver can take them as bounds on X rather
than as rows of a dense M.  :meth:`Problem.lin_ineq` still returns all of M.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import expr
from .containers import VariableContainer
from .expr import CompiledFunction, Expression, Node

__all__ = ["Problem", "ProblemClass", "ConstraintValues", "FeasibilityReport"]


class ProblemClass(enum.Enum):
    """The six problem types solvers use to accept or reject a problem."""

    UNCONSTRAINED_QUADRATIC = "unconstrained-quadratic"
    LINEAR_CONSTRAINED_QUADRATIC = "linear-constrained-quadratic"
    NONLINEAR_CONSTRAINED_QUADRATIC = "nonlinear-constrained-quadratic"
    UNCONSTRAINED_NONLINEAR = "unconstrained-nonlinear"
    LINEAR_CONSTRAINED_NONLINEAR = "linear-constrained-nonlinear"
    NONLINEAR_COST_AND_CONSTRAINTS = "nonlinear-cost-and-constraints"


class ConstraintValues(NamedTuple):
    k: np.ndarray
    a: np.ndarray
    g: np.ndarray
    h: np.ndarray


@dataclass
class FeasibilityReport:
    """Constraint residuals of a candidate point; every value is >= 0.

    A non-finite row (NaN or infinite) counts as violated by ``inf``, so a
    point whose rows fail to evaluate is never reported feasible.
    """

    equality_residual: float
    inequality_violation: float
    worst_constraint: str | None
    residuals: dict[str, float] = field(default_factory=dict)

    @property
    def max_violation(self) -> float:
        return max(self.equality_residual, self.inequality_violation)

    def ok(self, tol: float) -> bool:
        return self.max_violation <= tol


# the pieces compiled over P alone
_PARAMETER_ONLY = ("M", "c", "A", "b")
# Per row stack: its linear partition and that partition's (M, c), then its
# nonlinear partition and that partition's Jacobian.
_SPLITS = (("k", "M", "c", "g", "Jg"), ("a", "A", "b", "h", "Jh"))
# numpy arithmetic on evaluated values follows Python floats, as the
# compiled tapes do: an overflow gives inf and inf - inf NaN, with no warning
_float_rules = np.errstate(over="ignore", invalid="ignore")


def _least_squares(f: Node, x_set: frozenset) -> tuple[list, list, list]:
    """``(residuals, weights, rest)`` of a scalar cost, ``f = sum w r**2 + sum c n``.

    The summands of f's top-level sum are found through nested ``_ADD``
    nodes.  A summand ``c * (r * r)``, an ``_MUL`` of one node with itself
    reached through ``_MUL`` s by finite constants >= 0 (their product is
    c) and ``_ADD`` s, adds the residual r with weight c when r depends on
    a leaf of ``x_set``.  Every other summand, constants included, goes to
    ``rest`` as a ``(node, c)`` pair.  Residuals come in the order of the
    sum, left to right.
    """
    residuals, weights, rest = [], [], []

    def scaled(c: float, k: Node) -> float | None:
        if k.op != expr._CONST or not k.val >= 0.0:
            return None
        w = c * k.val
        return w if math.isfinite(w) else None

    stack = [(f, 1.0)]
    while stack:
        node, c = stack.pop()
        if node.op == expr._ADD:
            stack += [(node.b, c), (node.a, c)]
        elif node.op != expr._MUL:
            rest.append((node, c))
        elif node.a is node.b and expr._deps(node.a) & x_set:
            residuals.append(node.a)
            weights.append(c)
        elif (w := scaled(c, node.a)) is not None:
            stack.append((node.b, w))
        elif (w := scaled(c, node.b)) is not None:
            stack.append((node.a, w))
        else:
            rest.append((node, c))
    return residuals, weights, rest


def _transcribe(f: Node, inequalities, equalities, x_leaves):
    """Symbolic pieces of the canonical program, row labels and whether f is quadratic.

    Every derivative comes from one ``_diff`` memo: the residual Jacobian,
    the gradient of the rest of the cost, the rest's structure test and
    the row Jacobians share each (node, leaf) derivative, so none is built
    twice.  A row is linear when no entry of its Jacobian row depends on
    X.  The memo is released on return, before anything is compiled.
    Each derivative piece holds only its structural nonzeros, as the
    entries :class:`~taskopt.expr.CompiledFunction` takes.  Nothing here
    differentiates the whole cost: ∇²f is left to :meth:`Problem.hessian`.

    The cost is split by :func:`_least_squares`.  ``res`` holds the
    residuals and ``res_jac`` the residuals followed by their Jacobian's
    nonzeros, row by row, so one call gives both; ``f_rest`` and
    ``grad_rest`` are the rest of the cost and its gradient.  A cost with
    no residual is all rest.  The residual Jacobian's pattern and the
    weights are returned as ``(rows, cols, weights)`` arrays.  f is
    quadratic when no entry of that Jacobian depends on X and the rest
    classifies as at most quadratic.  ``rest_couplings`` holds the flat
    position ``j * n + col`` for each X leaf col that entry j of the
    rest's gradient depends on, a pattern that contains ∇²f_rest's.
    """
    memo: dict = {}
    n = len(x_leaves)
    x_set = frozenset(x_leaves)
    pieces = {}
    residuals, weights, rest = _least_squares(f, x_set)
    jac = expr._jacobian(residuals, x_leaves, memo)
    quad_cost = not any(expr._deps(node) & x_set for row in jac for _, node in row)
    m = len(residuals)
    if m:
        nodes = residuals + [node for row in jac for _, node in row]
        pieces["res"] = ((m, 1), list(range(m)), residuals)
        pieces["res_jac"] = ((1, len(nodes)), list(range(len(nodes))), nodes)
    rest_couplings = []
    if rest:
        if m:
            f_rest = expr._ZERO
            for node, c in rest:
                f_rest = expr._add(f_rest, expr._mul(expr._const(c), node))
        else:  # the whole cost is rest
            f_rest = f
        (grad_rest,) = expr._jacobian([f_rest], x_leaves, memo)
        quad_cost = quad_cost and (
            expr._classify([f_rest], x_set, memo) <= expr.StructureClass.QUADRATIC
        )
        cols = expr._columns(x_leaves)
        rest_couplings = [
            j * n + col
            for j, node in grad_rest
            for leaf in expr._deps(node) & x_set
            for col in cols[leaf]
        ]
        pieces["f_rest"] = ((1, 1), [0], [f_rest])
        pieces["grad_rest"] = expr._sparse_entries([grad_rest], n)
    pattern = (
        np.array([i for i, row in enumerate(jac) for _ in row], dtype=np.intp),
        np.array([j for row in jac for j, _ in row], dtype=np.intp),
        np.array(weights, dtype=float),
    )

    labels: dict[str, list[str]] = {"k": [], "a": [], "g": [], "h": []}
    for (k, M, c, g, Jg), rows in zip(_SPLITS, (inequalities, equalities)):
        stack = np.array([node for _, node in rows], dtype=object)
        J = expr._jacobian(stack, x_leaves, memo)
        linear = [not any(expr._deps(d) & x_set for _, d in row) for row in J]
        for (name, _), lin in zip(rows, linear):
            labels[k if lin else g].append(name)
        lin_rows = [i for i, lin in enumerate(linear) if lin]
        nonlin_rows = [i for i, lin in enumerate(linear) if not lin]
        if lin_rows:
            pieces[M] = expr._sparse_entries([J[i] for i in lin_rows], n)
            pieces[c] = expr._at_zero(Expression(stack[lin_rows]), x_leaves)
        if nonlin_rows:
            pieces[g] = Expression(stack[nonlin_rows])
            pieces[Jg] = expr._sparse_entries([J[i] for i in nonlin_rows], n)
    return pieces, labels, quad_cost, pattern, rest_couplings


def _bound_rows(entries, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, coefs)`` of the rows of M's entries that bound one variable.

    A row is a bound when its pattern has exactly one structural nonzero
    and that entry is a finite, nonzero constant.  The arrays are read-only,
    with the rows ascending.
    """
    (m, _), positions, nodes = entries
    pos = np.asarray(positions, dtype=np.intp)
    single = np.bincount(pos // n, minlength=m) == 1
    rows, cols, coefs = [], [], []
    for p, node in zip(pos.tolist(), nodes):
        i, j = divmod(p, n)
        if single[i] and node.op == expr._CONST and np.isfinite(node.val) and node.val != 0.0:
            rows.append(i)
            cols.append(j)
            coefs.append(node.val)
    triple = (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp), np.array(coefs))
    for a in triple:
        a.flags.writeable = False
    return triple


def _hessian_blocks(positions, n: int) -> tuple[np.ndarray, ...]:
    """The connected components of the sparsity graph of an n x n matrix, grouped by size.

    ``positions`` are the flat positions of the structural nonzeros.  One
    read-only int array per block size, smallest size first; each row holds
    one block's columns in ascending order, and the rows are ordered by
    their first column.  A column with no nonzero is a block of its own.
    """
    first = list(range(n))  # union-find; a root is its block's first column

    def find(i: int) -> int:
        while first[i] != i:
            first[i] = i = first[first[i]]
        return i

    for p in positions:
        i, j = find(p // n), find(p % n)
        first[max(i, j)] = min(i, j)
    blocks: dict[int, list] = {}
    for col in range(n):
        blocks.setdefault(find(col), []).append(col)
    by_size: dict[int, list] = {}
    for cols in blocks.values():
        by_size.setdefault(len(cols), []).append(cols)
    groups = []
    for size in sorted(by_size):
        group = np.array(by_size[size], dtype=np.intp)
        group.flags.writeable = False
        groups.append(group)
    return tuple(groups)


def _gauss_newton_pairs(pattern, blocks, n: int):
    """How to sum ``2 J'CJ`` of a residual Jacobian into the blocks' values.

    ``pattern`` is ``(rows, cols, weights)`` of the Jacobian's nonzeros,
    row-major, and ``blocks`` is laid out as :attr:`Problem.hessian_blocks`,
    with every row's columns inside one block.  Each pair of nonzeros of a
    row adds ``2 c J[r, a] J[r, b]`` at entry (a, b) of that row's block.
    Returns ``(first, second, scale, target, groups)``: the pairs' Jacobian
    positions, ``2 c`` per pair, and each pair's flat position in the
    block groups laid end to end, where a group of k blocks of size b
    takes ``k * b * b`` values as ``(block, row, col)``; ``groups`` holds
    the ``(start, stop, (k, b, b))`` of each group in that layout.
    """
    rows, cols, weights = pattern
    start = np.empty(n, dtype=np.intp)  # flat position of each column's block row 0
    slot = np.empty(n, dtype=np.intp)  # the column's place in its block
    width = np.empty(n, dtype=np.intp)
    groups, total = [], 0
    for group in blocks:
        k, b = group.shape
        start[group] = total + b * b * np.arange(k)[:, None]
        slot[group] = np.arange(b)
        width[group] = b
        groups.append((total, total + k * b * b, (k, b, b)))
        total += k * b * b
    per_row = np.split(np.arange(rows.size), np.flatnonzero(np.diff(rows)) + 1)
    first = np.concatenate([np.repeat(at, at.size) for at in per_row])
    second = np.concatenate([np.tile(at, at.size) for at in per_row])
    a, b = cols[first], cols[second]
    target = start[a] + slot[a] * width[a] + slot[b]
    return first, second, 2.0 * weights[rows[first]], target, tuple(groups)


def _block_costs(f: Node, block_of: dict) -> dict[int, Node]:
    """The part of the cost f that each curvature block sees, keyed by the block's number.

    ``block_of`` maps each X leaf to the number of its block.  The spine
    of f is the nodes ``_diff`` passes through on the way to a summand:
    ``_ADD``, ``_SUB``, ``_NEG``, and ``_MUL`` with one side free of X.
    Every other node reached through the spine is a term, and a term
    touches the blocks of the X leaves it depends on.  A block's sub-cost
    is f with every side that touches none of the block's columns dropped,
    folded as ``_diff`` folds that side's zero derivative: a sum left with
    one side is that side, and ``a - b`` left with b is ``-b``.  So the
    derivative of f by a leaf of the block is, node for node, that of the
    block's sub-cost, up to constants folded to the same value.  A block
    that no term touches has no sub-cost.

    One pass marks X-dependence over f's DAG.  The sub-costs are then
    built bottom-up over the spine, rebuilt through the smart
    constructors, and each sum merges the smaller of its sides' dicts into
    the larger, so a long sum chain costs about its length.
    """
    walk = expr._postorder((f,))
    x_dep: dict[int, bool] = {}
    for key, n in walk.items():
        if n.op == expr._LEAF:
            x_dep[key] = n in block_of
        elif n.op == expr._CONST:
            x_dep[key] = False
        else:
            x_dep[key] = x_dep[id(n.a)] or (n.b is not None and x_dep[id(n.b)])

    def operands(n: Node) -> tuple | None:
        """The X-dependent operands of a spine node, or None for a term."""
        if n.op in (expr._ADD, expr._SUB, expr._NEG):
            return tuple(c for c in (n.a, n.b) if c is not None and x_dep[id(c)])
        if n.op == expr._MUL and not (x_dep[id(n.a)] and x_dep[id(n.b)]):
            return (n.b,) if x_dep[id(n.b)] else (n.a,)
        return None

    # consumers come before operands in reverse: count each node's uses on the spine
    uses: dict[int, int] = {id(f): 1} if x_dep[id(f)] else {}
    for key in reversed(walk):
        if key in uses:
            for c in operands(walk[key]) or ():
                uses[id(c)] = uses.get(id(c), 0) + 1

    costs: dict[int, dict] = {}

    def take(c: Node) -> dict:
        """An operand's sub-costs, as a dict the caller may change."""
        uses[id(c)] -= 1
        return dict(costs[id(c)]) if uses[id(c)] else costs.pop(id(c))

    for key, n in walk.items():
        if key not in uses:
            continue
        ops = operands(n)
        if ops is None:
            costs[key] = {block_of[leaf]: n for leaf in expr._deps(n) if leaf in block_of}
        elif len(ops) == 1:
            d = take(ops[0])
            if n.op == expr._MUL:
                a, b = n.a, n.b
                costs[key] = {
                    k: expr._mul(s, b) if a is ops[0] else expr._mul(a, s) for k, s in d.items()
                }
            elif n.op == expr._NEG or (n.op == expr._SUB and n.a is not ops[0]):
                costs[key] = {k: expr._neg(s) for k, s in d.items()}
            else:  # a sum with one side left
                costs[key] = d
        else:
            da, db = take(n.a), take(n.b)
            if n.op == expr._ADD and len(db) > len(da):
                for k, s in da.items():
                    t = db.get(k)
                    db[k] = s if t is None else expr._add(s, t)
                costs[key] = db
            else:
                make = expr._add if n.op == expr._ADD else expr._sub
                for k, s in db.items():
                    t = da.get(k)
                    if t is not None:
                        da[k] = make(t, s)
                    else:
                        da[k] = s if n.op == expr._ADD else expr._neg(s)
                costs[key] = da
    return costs.get(id(f), {})


class _Template(NamedTuple):
    """The ∇²f entries of the cost blocks whose sub-costs are one graph up to renamed leaves.

    ``fn`` maps one instance's slot values to the template's entries
    (i, j >= i), in order.  Row r of ``inputs`` holds the places in
    ``[X; P]`` of instance r's slots; ``upper`` holds the flat positions in
    H of every instance's entries, instance by instance, and ``lower``
    those of their mirrors.  The templates whose entries are all constants
    are one template with no ``fn`` and no ``inputs``: ``values`` holds
    their entries, evaluated once, in ``upper``'s order.
    """

    fn: CompiledFunction | None
    inputs: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    values: np.ndarray | None = None


def _hessian_templates(f: Node, x_leaves, blocks, layouts) -> tuple[_Template, ...]:
    """∇²f as templates of the cost blocks, with one compiled function each.

    Each block's sub-cost (:func:`_block_costs`) is keyed by its graph
    with leaves renamed in order of first use (:func:`expr._shape_key`),
    each slot's kind (X or P), and the slots of the X leaves in column
    order with whether each is a column of the block.  That order matters:
    entry (i, j >= i) is the derivative of ∂f/∂x_i by x_j, not the other
    way round.  Blocks with equal keys are instances of one template.  The
    first instance's sub-cost is rebuilt over fresh slot leaves and
    differentiated by its block's slots, and every template's gradient
    rows go through one ``expr._hessian`` call on one memo.
    """
    n = len(x_leaves)
    block_of = {}
    for k, cols in enumerate(row for group in blocks for row in group):
        for col in cols.tolist():
            block_of[x_leaves[col]] = k
    col_of = {leaf: j for j, leaf in enumerate(x_leaves)}
    costs = _block_costs(f, block_of)

    def place(leaf: Node) -> int:
        """A leaf's place in ``[X; P]``."""
        vector, at = CompiledFunction._locate(leaf, layouts)
        return vector * n + at

    # key -> (the first instance's sub-cost, every instance's (leaves, columns))
    templates: dict[tuple, tuple[Node, list]] = {}
    for k in sorted(costs):
        shape, leaves = expr._shape_key(costs[k])
        cols = [col_of.get(leaf, -1) for leaf in leaves]
        x_slots = sorted((s for s, col in enumerate(cols) if col >= 0), key=cols.__getitem__)
        own = tuple(block_of[leaves[s]] == k for s in x_slots)
        key = (shape, tuple(col >= 0 for col in cols), tuple(x_slots), own)
        templates.setdefault(key, (costs[k], []))[1].append((leaves, cols))
    del costs

    cache: dict = {}
    slot_leaves: list[Node] = []  # every template's X slots, each template's in column order
    grad, built = [], []
    for (_, _, x_slots, own), (cost, instances) in templates.items():
        leaves = instances[0][0]
        slots = expr.variable("slots", len(leaves)).entries()
        (cost,) = expr._rebuild([cost], {id(leaf): slots[s] for s, leaf in enumerate(leaves)})
        offset = len(slot_leaves)
        slot_leaves += [slots[s] for s in x_slots]
        own_cols = {slots[s]: [offset + i] for i, s in enumerate(x_slots) if own[i]}
        grad += expr._row_derivatives(cost, slot_leaves, own_cols, cache)
        built.append((offset, x_slots, len(leaves), instances))
    rows = expr._hessian(grad, slot_leaves, cache)
    del cache, grad

    out, constant = [], []
    for offset, x_slots, width, instances in built:
        entries = [
            (i - offset, j - offset, d)
            for i in range(offset, offset + len(x_slots))
            for j, d in rows[i]
            if j >= i
        ]
        if not entries:
            continue
        nodes = [d for _, _, d in entries]
        x_cols = np.array([[cols[s] for s in x_slots] for _, cols in instances], dtype=np.intp)
        a = [i for i, _, _ in entries]
        b = [j for _, j, _ in entries]
        ci, cj = x_cols[:, a], x_cols[:, b]
        upper, lower = (ci * n + cj).ravel(), (cj * n + ci).ravel()
        if all(d.op == expr._CONST for d in nodes):
            values = np.tile(np.array([d.val for d in nodes]), len(instances))
            constant.append((upper, lower, values))
            continue
        fn = CompiledFunction(
            ((1, len(nodes)), range(len(nodes)), nodes), (("variable", {"slots": (0, width, 1)}),)
        )
        inputs = np.array(
            [[place(leaf) for leaf in leaves] for leaves, _ in instances], dtype=np.intp
        )
        out.append(_Template(fn, inputs, upper, lower))
    if constant:
        upper, lower, values = (np.concatenate(parts) for parts in zip(*constant))
        out.append(_Template(None, np.zeros((0, 0), dtype=np.intp), upper, lower, values))
    return tuple(out)


class Problem:
    """Compiled canonical problem over flat vectors X (decision) and P (parameter).

    ``inequalities`` and ``equalities`` hold one ``(label, row)`` pair per
    scalar row, read as ``row >= 0`` and ``row == 0``.  A row goes to its
    linear partition (k or a) when no entry of its Jacobian row depends on
    X, as ``classify(row, X) <= LINEAR`` says, and to its nonlinear one (g
    or h) otherwise; ``labels`` lists each partition's row labels in row
    order.  ``hessian_blocks`` partitions the columns of X into the
    connected components of the cost's curvature structure (see
    :func:`_hessian_blocks`): no entry of ∇²f or of ``J'CJ`` couples two
    blocks.  The blocks come from the residuals' couplings and the
    dependencies of ∇f_rest's entries, so the build makes no ∇²f; the
    first :meth:`hessian` call builds and compiles it.  The private
    ``_bounds`` holds the k rows that bound one variable (see
    :func:`_bound_rows`), and ``_rest_curved`` whether the rest of the
    cost has second derivatives, both fixed at build.
    """

    def __init__(
        self,
        decision: VariableContainer,
        parameters: VariableContainer,
        objective_expr: Expression,
        inequalities: Sequence[tuple[str, Node]] = (),
        equalities: Sequence[tuple[str, Node]] = (),
    ):
        self.decision = decision
        self.parameters = parameters
        self.n_x = decision.total_length
        self.n_p = parameters.total_length
        if not objective_expr.is_scalar():
            raise ValueError("objective must be scalar")

        # the cost and X's leaves, kept for ∇²f, which the first hessian call builds
        self._f, self._x_leaves = objective_expr.entries()[0], decision.leaves()
        self._hess = None
        symbolic, self.labels, quad_cost, pattern, rest_couplings = _transcribe(
            self._f, inequalities, equalities, self._x_leaves
        )
        self._rest_curved = bool(rest_couplings)
        # the columns each residual couples, joined with the rest's
        # couplings: a pattern that contains both ∇²f's and 2 J'CJ's
        rows, cols, _ = pattern
        ends = np.searchsorted(rows, rows, side="left")  # each row's first nonzero
        couplings = (cols[ends] * self.n_x + cols).tolist()
        self._hessian_blocks = _hessian_blocks(rest_couplings + couplings, self.n_x)
        self._weights = pattern[2]
        self._jac_pattern = rows, cols
        self._pairs = _gauss_newton_pairs(pattern, self._hessian_blocks, self.n_x)
        self._bounds = _bound_rows(symbolic.get("M", ((0, self.n_x), [], [])), self.n_x)
        p_layout = ("parameter", parameters.layout())
        self._xp = (("variable", decision.layout()), p_layout)
        fns = {}
        for name in list(symbolic):  # each derivative graph is released once compiled
            layouts = (p_layout,) if name in _PARAMETER_ONLY else self._xp
            fns[name] = CompiledFunction(symbolic.pop(name), layouts)
        self._res, self._res_jac = fns.get("res"), fns.get("res_jac")
        self._f_rest, self._grad_rest = fns.get("f_rest"), fns.get("grad_rest")
        # (bytes of X and P, residuals and Jacobian values) of the last gradient
        self._last_res_jac = (None, None)
        self._M, self._c, self._A, self._b = (fns.get(k) for k in _PARAMETER_ONLY)
        self._g, self._Jg, self._h, self._Jh = (fns.get(k) for k in ("g", "Jg", "h", "Jh"))
        self.n_k, self.n_a, self.n_g, self.n_h = (len(self.labels[k]) for k in "kagh")
        general = np.ones(self.n_k, dtype=bool)
        general[self._bounds[0]] = False
        self._general_k = np.flatnonzero(general)
        self._classification = self._classify(quad_cost)
        # one constraint-name slot per row, in the report's row order [a; h; k; g]
        names = [name for part in "ahkg" for name in self.labels[part]]
        self._names = list(dict.fromkeys(names))
        slot = {name: i for i, name in enumerate(self._names)}
        self._slots = np.array([slot[name] for name in names], dtype=np.intp)

    def _classify(self, quad_cost: bool) -> ProblemClass:
        if self.n_g + self.n_h > 0:
            return (
                ProblemClass.NONLINEAR_CONSTRAINED_QUADRATIC
                if quad_cost
                else ProblemClass.NONLINEAR_COST_AND_CONSTRAINTS
            )
        if self.n_k + self.n_a > 0:
            return (
                ProblemClass.LINEAR_CONSTRAINED_QUADRATIC
                if quad_cost
                else ProblemClass.LINEAR_CONSTRAINED_NONLINEAR
            )
        return (
            ProblemClass.UNCONSTRAINED_QUADRATIC
            if quad_cost
            else ProblemClass.UNCONSTRAINED_NONLINEAR
        )

    @property
    def classification(self) -> ProblemClass:
        return self._classification

    @property
    def hessian_blocks(self) -> tuple[np.ndarray, ...]:
        return self._hessian_blocks

    # evaluation -----------------------------------------------------------
    def _check(self, X, P) -> tuple[np.ndarray, np.ndarray]:
        X = np.asarray(X, dtype=float).ravel()
        if X.size != self.n_x:
            raise ValueError(f"X has length {X.size}, expected {self.n_x}")
        return X, self._check_p(P)

    def _check_p(self, P) -> np.ndarray:
        P = np.asarray(P, dtype=float).ravel()
        if P.size != self.n_p:
            raise ValueError(f"P has length {P.size}, expected {self.n_p}")
        return P

    @_float_rules
    def objective(self, X, P=()) -> float:
        """``sum(w r**2) + f_rest``: the residuals alone are evaluated, not their Jacobian."""
        X, P = self._check(X, P)
        f = float(self._f_rest(X, P)[0, 0]) if self._f_rest is not None else 0.0
        if self._res is not None:
            r = self._res(X, P).ravel()
            f += float(self._weights @ (r * r))
        return f

    @_float_rules
    def gradient(self, X, P=()) -> np.ndarray:
        """``2 J'(w r) + ∇f_rest``, with the residuals and J from one call.

        The residual and Jacobian values are kept for :meth:`_gauss_newton`
        at the same point.  An arithmetic fault makes all of them NaN, and
        then the whole gradient is NaN, as the fault rule asks.
        """
        X, P = self._check(X, P)
        if self._res_jac is None:
            return self._grad_rest(X, P).ravel()
        values = self._res_jac(X, P).ravel()
        self._last_res_jac = (X.tobytes() + P.tobytes(), values)
        rows, cols = self._jac_pattern
        m = self._weights.size
        wr = (self._weights * values[:m])[rows]
        g = 2.0 * np.bincount(cols, values[m:] * wr, minlength=self.n_x)
        if self._grad_rest is not None:
            g += self._grad_rest(X, P).ravel()
        if math.isnan(values[0]) and np.isnan(values).all():
            g[:] = np.nan
        return g

    def hessian(self, X, P=()) -> np.ndarray:
        """The exact ∇²f, built and compiled on the first call, one template at a time.

        Each template (:func:`_hessian_templates`) gives its entries for
        each instance from that instance's slots of ``[X; P]``; they are
        put at (i, j >= i) and mirrored.  Entries that are constants in
        every instance of their template were evaluated when it was built
        and are only written.  An arithmetic fault in any instance makes
        all of H NaN.
        """
        X, P = self._check(X, P)
        if self._hess is None:
            self._hess = _hessian_templates(self._f, self._x_leaves, self._hessian_blocks, self._xp)
        H = np.zeros((self.n_x, self.n_x))
        XP = np.concatenate([X, P])
        try:
            for fn, inputs, upper, lower, values in self._hess:
                if fn is not None:
                    values = np.array([fn._entries([row]) for row in XP[inputs].tolist()]).ravel()
                H.flat[upper] = values
                H.flat[lower] = values
        except (ArithmeticError, ValueError):
            return np.full((self.n_x, self.n_x), np.nan)
        return H

    def _gauss_newton(self, X, P) -> tuple[np.ndarray, ...]:
        """``2 J'CJ`` of the residuals, one ``(k, b, b)`` array per group of :attr:`hessian_blocks`.

        Reads the Jacobian kept by the last :meth:`gradient` when that was
        at (X, P), and evaluates it otherwise.
        """
        X, P = self._check(X, P)
        first, second, scale, target, groups = self._pairs
        J = np.zeros(0)
        if self._res_jac is not None:
            key, values = self._last_res_jac
            if key != X.tobytes() + P.tobytes():
                values = self._res_jac(X, P).ravel()
            J = values[self._weights.size :]
        size = groups[-1][1] if groups else 0
        flat = np.bincount(target, scale * (J[first] * J[second]), minlength=size)
        return tuple(flat[start:stop].reshape(shape) for start, stop, shape in groups)

    def lin_ineq(self, P=()) -> tuple[np.ndarray, np.ndarray]:
        """(M, c) with k = M X + c >= 0."""
        P = self._check_p(P)
        if self._M is None:
            return np.zeros((0, self.n_x)), np.zeros(0)
        return self._M(P), self._c(P).ravel()

    def _lin_ineq_general(self, P) -> tuple[np.ndarray, np.ndarray]:
        """(M of the k rows that are not bounds, c of every k row).

        With ``_bounds`` this is all of ``lin_ineq``; M is evaluated only
        when some k row is not a bound.
        """
        P = self._check_p(P)
        if self._M is None:
            return np.zeros((0, self.n_x)), np.zeros(0)
        c = self._c(P).ravel()
        if self._general_k.size == 0:
            return np.zeros((0, self.n_x)), c
        return self._M(P)[self._general_k], c

    def lin_eq(self, P=()) -> tuple[np.ndarray, np.ndarray]:
        """(A, b) with a = A X + b = 0."""
        P = self._check_p(P)
        if self._A is None:
            return np.zeros((0, self.n_x)), np.zeros(0)
        return self._A(P), self._b(P).ravel()

    def nonlin_ineq(self, X, P=()) -> np.ndarray:
        X, P = self._check(X, P)
        return self._g(X, P).ravel() if self._g is not None else np.zeros(0)

    def nonlin_ineq_jacobian(self, X, P=()) -> np.ndarray:
        X, P = self._check(X, P)
        return self._Jg(X, P) if self._Jg is not None else np.zeros((0, self.n_x))

    def nonlin_eq(self, X, P=()) -> np.ndarray:
        X, P = self._check(X, P)
        return self._h(X, P).ravel() if self._h is not None else np.zeros(0)

    def nonlin_eq_jacobian(self, X, P=()) -> np.ndarray:
        X, P = self._check(X, P)
        return self._Jh(X, P) if self._Jh is not None else np.zeros((0, self.n_x))

    def _k(self, X, M, c) -> np.ndarray:
        """The k rows at X from the ``(M, c)`` of :meth:`_lin_ineq_general`.

        The k rows that bound one variable are gathered from ``_bounds``,
        so a non-finite entry of X makes only the rows on that variable
        non-finite.
        """
        rows, cols, coefs = self._bounds
        if self._general_k.size == 0:  # then rows is 0..n_k-1
            return coefs * X[cols] + c
        k = np.empty(self.n_k)
        k[rows] = coefs * X[cols] + c[rows]
        k[self._general_k] = M @ X + c[self._general_k]
        return k

    def constraints(self, X, P=()) -> ConstraintValues:
        """Values of all four partitions at (X, P)."""
        X, P = self._check(X, P)
        A, b = self.lin_eq(P)
        return ConstraintValues(
            k=self._k(X, *self._lin_ineq_general(P)),
            a=A @ X + b if self.n_a else np.zeros(0),
            g=self.nonlin_ineq(X, P),
            h=self.nonlin_eq(X, P),
        )

    def feasibility(self, X, P=(), *, rows=None) -> FeasibilityReport:
        """Residual report; callers judge it with :meth:`FeasibilityReport.ok`.

        A row's residual is ``|r|`` for an equality and ``max(-r, 0)`` for an
        inequality; a non-finite row counts as violated by ``inf``.  A
        caller that already holds the rows at (X, P), stacked as
        ``[a; h; k; g]``, passes them as ``rows`` and they are judged as
        given, without evaluating them again.
        """
        if rows is None:
            vals = self.constraints(X, P)
            v = np.concatenate([vals.a, vals.h, vals.k, vals.g])
        else:
            v = np.asarray(rows, dtype=float).ravel()
            if v.size != self.n_a + self.n_h + self.n_k + self.n_g:
                raise ValueError(f"rows has length {v.size}, expected one value per row")
        m_eq = self.n_a + self.n_h
        r = np.concatenate([np.abs(v[:m_eq]), np.maximum(-v[m_eq:], 0.0)])
        r[~np.isfinite(v)] = np.inf
        per_name = np.zeros(len(self._names))
        np.maximum.at(per_name, self._slots, r)
        return FeasibilityReport(
            equality_residual=float(r[:m_eq].max(initial=0.0)),
            inequality_violation=float(r[m_eq:].max(initial=0.0)),
            worst_constraint=self._names[self._slots[r.argmax()]] if r.size else None,
            residuals=dict(zip(self._names, per_name.tolist())),
        )
