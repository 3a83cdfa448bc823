"""Symbolic matrix expressions with evaluation, differentiation, and structure analysis.

Expressions are immutable DAGs of scalar operations.  A matrix-valued
expression is stored as a 2-D object array of scalar nodes, so matrix
operations (products, concatenation, indexing) expand into scalar graphs at
construction time.  Constant subtrees fold immediately, which keeps graphs
built from numeric data collapsed to plain constants.

Differentiation is forward-mode and symbolic: ``jacobian`` returns a new
expression that can be evaluated repeatedly or differentiated again for
higher orders.

Numeric evaluation has one engine, the tape of :class:`CompiledFunction`,
which :func:`evaluate` also runs.  Any arithmetic fault (division by zero,
overflow, a domain error such as a negative base to a fractional power)
gives an all-NaN output rather than raising.  Two domain rules give NaN
without a fault, at the affected entries only: ``log`` of a value <= 0, and
``sqrt`` of a value below -1e-12; ``sqrt`` of a value in (-1e-12, 0) gives 0.
Folded constants are never -0.0, and ``atan2`` reads a -0.0 argument as
+0.0, so for finite inputs the tape gives the values that substituting
constants and folding would, apart from the sign of zero outputs.
"""

from __future__ import annotations

import enum
import math
import numbers
import operator
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "Expression",
    "LeafRegistry",
    "StructureClass",
    "CompiledFunction",
    "variable",
    "parameter",
    "constant",
    "as_expression",
    "evaluate",
    "jacobian",
    "gradient",
    "hessian",
    "classify",
    "extract_affine",
    "simplify",
    "substitute",
    "sin",
    "cos",
    "tan",
    "atan2",
    "sqrt",
    "exp",
    "log",
    "sumsqr",
    "dot",
    "norm",
    "vertcat",
    "horzcat",
    "det",
]

# Scalar node opcodes.
_CONST = 0
_LEAF = 1
_NEG = 2
_SIN = 3
_COS = 4
_TAN = 5
_SQRT = 6
_EXP = 7
_LOG = 8
_ADD = 9
_SUB = 10
_MUL = 11
_DIV = 12
_POW = 13
_ATAN2 = 14

_UNARY_OPS = frozenset((_NEG, _SIN, _COS, _TAN, _SQRT, _EXP, _LOG))
_BINARY_OPS = frozenset((_ADD, _SUB, _MUL, _DIV, _POW, _ATAN2))


class LeafBlock:
    """Identity of a named matrix of variable or parameter leaves."""

    __slots__ = ("name", "kind", "rows", "cols")

    def __init__(self, name: str, kind: str, rows: int, cols: int):
        self.name = name
        self.kind = kind
        self.rows = rows
        self.cols = cols

    def __repr__(self):
        return f"LeafBlock({self.name!r}, {self.kind}, {self.rows}x{self.cols})"


class Node:
    """One scalar node of the expression DAG.  Immutable after construction."""

    __slots__ = ("op", "a", "b", "val", "block", "row", "col", "_deps")

    def __init__(self, op, a=None, b=None, val=0.0, block=None, row=0, col=0):
        self.op = op
        self.a = a
        self.b = b
        self.val = val
        self.block = block
        self.row = row
        self.col = col
        self._deps = None

    # Arithmetic overloads let numpy object arrays broadcast element ops.
    def __add__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else _add(self, o)

    def __radd__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else _add(o, self)

    def __sub__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else _sub(self, o)

    def __rsub__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else _sub(o, self)

    def __mul__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else _mul(self, o)

    def __rmul__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else _mul(o, self)

    def __truediv__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else _div(self, o)

    def __rtruediv__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else _div(o, self)

    def __pow__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else _pow(self, o)

    def __rpow__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else _pow(o, self)

    def __neg__(self):
        return _neg(self)

    def __repr__(self):
        if self.op == _CONST:
            return f"Node(const {self.val})"
        if self.op == _LEAF:
            return f"Node({self.block.kind} {self.block.name}[{self.row},{self.col}])"
        return f"Node(op={self.op})"


_ZERO = Node(_CONST, val=0.0)
_ONE = Node(_CONST, val=1.0)
_EMPTY_DEPS = frozenset()
_ZERO._deps = _EMPTY_DEPS
_ONE._deps = _EMPTY_DEPS


def _const(v) -> Node:
    v = float(v)
    if v == 0.0:
        return _ZERO
    if v == 1.0:
        return _ONE
    n = Node(_CONST, val=v)
    n._deps = _EMPTY_DEPS
    return n


def _coerce(x):
    if isinstance(x, Node):
        return x
    if isinstance(x, numbers.Real):
        return _const(x)
    return None


def _is_const(n: Node) -> bool:
    return n.op == _CONST


# -- smart constructors with local simplification ---------------------------
#
# Rewrite rules kept deliberately small: 0+x, x+0, x-0, 0-x, 0*x, 1*x,
# x/1, x**1, x**0, double negation, and folding of all-constant operands.
# Each rule is value-exact, so folded and unfolded graphs evaluate equally.


def _add(a: Node, b: Node) -> Node:
    if _is_const(a) and _is_const(b):
        return _const(a.val + b.val)
    if _is_const(a) and a.val == 0.0:
        return b
    if _is_const(b) and b.val == 0.0:
        return a
    return Node(_ADD, a, b)


def _sub(a: Node, b: Node) -> Node:
    if _is_const(a) and _is_const(b):
        return _const(a.val - b.val)
    if _is_const(b) and b.val == 0.0:
        return a
    if _is_const(a) and a.val == 0.0:
        return _neg(b)
    return Node(_SUB, a, b)


def _mul(a: Node, b: Node) -> Node:
    if _is_const(a) and _is_const(b):
        return _const(a.val * b.val)
    if _is_const(a):
        if a.val == 0.0:
            return _ZERO
        if a.val == 1.0:
            return b
    if _is_const(b):
        if b.val == 0.0:
            return _ZERO
        if b.val == 1.0:
            return a
    return Node(_MUL, a, b)


def _div(a: Node, b: Node) -> Node:
    if _is_const(a) and _is_const(b) and b.val != 0.0:
        return _const(a.val / b.val)
    if _is_const(b) and b.val == 1.0:
        return a
    return Node(_DIV, a, b)


def _neg(a: Node) -> Node:
    if _is_const(a):
        return _const(-a.val)
    if a.op == _NEG:
        return a.a
    return Node(_NEG, a)


def _pow(a: Node, b: Node) -> Node:
    if _is_const(a) and _is_const(b):
        try:
            return _const(math.pow(a.val, b.val))
        except (ArithmeticError, ValueError):
            return Node(_POW, a, b)
    if _is_const(b):
        if b.val == 1.0:
            return a
        if b.val == 0.0:
            return _ONE
    return Node(_POW, a, b)


def _unary_fold(op, fn, a: Node) -> Node:
    if _is_const(a):
        try:
            return _const(fn(a.val))
        except (ArithmeticError, ValueError):
            return Node(op, a)
    return Node(op, a)


def _sin(a):
    return _unary_fold(_SIN, math.sin, a)


def _cos(a):
    return _unary_fold(_COS, math.cos, a)


def _tan(a):
    return _unary_fold(_TAN, math.tan, a)


def _sqrt(a):
    return _unary_fold(_SQRT, math.sqrt, a)


def _exp(a):
    return _unary_fold(_EXP, math.exp, a)


def _log(a):
    return _unary_fold(_LOG, math.log, a)


def _atan2(a: Node, b: Node) -> Node:
    if _is_const(a) and _is_const(b):
        return _const(math.atan2(a.val, b.val))
    return Node(_ATAN2, a, b)


_MAKE = {
    _ADD: _add,
    _SUB: _sub,
    _MUL: _mul,
    _DIV: _div,
    _POW: _pow,
    _ATAN2: _atan2,
    _NEG: _neg,
    _SIN: _sin,
    _COS: _cos,
    _TAN: _tan,
    _SQRT: _sqrt,
    _EXP: _exp,
    _LOG: _log,
}


def _deps(n: Node) -> frozenset:
    """Set of leaf nodes a node transitively depends on (memoized)."""
    if n._deps is not None:
        return n._deps
    stack = [n]
    while stack:
        m = stack[-1]
        if m._deps is not None:
            stack.pop()
            continue
        if m.op == _CONST:
            m._deps = _EMPTY_DEPS
            stack.pop()
        elif m.op == _LEAF:
            m._deps = frozenset((m,))
            stack.pop()
        else:
            pending = [c for c in (m.a, m.b) if c is not None and c._deps is None]
            if pending:
                stack.extend(pending)
            else:
                s = m.a._deps
                if m.b is not None:
                    s = s | m.b._deps
                m._deps = s
                stack.pop()
    return n._deps


# -- differentiation ---------------------------------------------------------


def _diff(n: Node, leaf: Node, cache: dict) -> Node:
    if n is leaf:
        return _ONE
    if leaf not in _deps(n):
        return _ZERO
    key = (id(n), id(leaf))
    hit = cache.get(key)
    if hit is not None:
        return hit

    op = n.op
    if op in _BINARY_OPS:
        da = _diff(n.a, leaf, cache)
        db = _diff(n.b, leaf, cache)
        if op == _ADD:
            d = _add(da, db)
        elif op == _SUB:
            d = _sub(da, db)
        elif op == _MUL:
            d = _add(_mul(da, n.b), _mul(n.a, db))
        elif op == _DIV:
            d = _sub(_div(da, n.b), _div(_mul(n.a, db), _mul(n.b, n.b)))
        elif op == _POW:
            if _is_const(n.b):
                d = _mul(_mul(n.b, _pow(n.a, _const(n.b.val - 1.0))), da)
            else:
                term1 = _mul(_mul(n.b, _pow(n.a, _sub(n.b, _ONE))), da)
                term2 = _mul(_mul(n, _log(n.a)), db)
                d = _add(term1, term2)
        else:  # _ATAN2, arguments (y, x)
            denom = _add(_mul(n.a, n.a), _mul(n.b, n.b))
            d = _div(_sub(_mul(n.b, da), _mul(n.a, db)), denom)
    else:
        da = _diff(n.a, leaf, cache)
        if op == _NEG:
            d = _neg(da)
        elif op == _SIN:
            d = _mul(_cos(n.a), da)
        elif op == _COS:
            d = _neg(_mul(_sin(n.a), da))
        elif op == _TAN:
            d = _mul(_add(_ONE, _mul(n, n)), da)
        elif op == _SQRT:
            d = _div(da, _mul(_const(2.0), n))
        elif op == _EXP:
            d = _mul(n, da)
        elif op == _LOG:
            d = _div(da, n.a)
        else:
            raise AssertionError(f"cannot differentiate opcode {op}")

    cache[key] = d
    return d


# -- matrix expression -------------------------------------------------------


class Expression:
    """Immutable matrix of scalar nodes with numpy-style operators."""

    __slots__ = ("_n",)
    __array_ufunc__ = None  # keep numpy from consuming us in mixed arithmetic

    def __init__(self, nodes: np.ndarray):
        arr = np.asarray(nodes, dtype=object)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        elif arr.ndim != 2:
            raise ValueError("expressions are at most 2-D")
        self._n = arr

    # shape ------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self._n.shape

    @property
    def rows(self) -> int:
        return self._n.shape[0]

    @property
    def cols(self) -> int:
        return self._n.shape[1]

    @property
    def T(self) -> "Expression":
        return Expression(self._n.T)

    def is_scalar(self) -> bool:
        return self._n.shape == (1, 1)

    def is_column(self) -> bool:
        return self._n.shape[1] == 1

    # arithmetic ---------------------------------------------------------
    def _binary(self, other, flip=False):
        o = as_expression(other)
        return (o._n, self._n) if flip else (self._n, o._n)

    def __add__(self, other):
        a, b = self._binary(other)
        return Expression(a + b)

    def __radd__(self, other):
        a, b = self._binary(other, flip=True)
        return Expression(a + b)

    def __sub__(self, other):
        a, b = self._binary(other)
        return Expression(a - b)

    def __rsub__(self, other):
        a, b = self._binary(other, flip=True)
        return Expression(a - b)

    def __mul__(self, other):
        a, b = self._binary(other)
        return Expression(a * b)

    def __rmul__(self, other):
        a, b = self._binary(other, flip=True)
        return Expression(a * b)

    def __truediv__(self, other):
        a, b = self._binary(other)
        return Expression(a / b)

    def __rtruediv__(self, other):
        a, b = self._binary(other, flip=True)
        return Expression(a / b)

    def __pow__(self, other):
        o = as_expression(other)
        if not o.is_scalar():
            raise ValueError("exponent must be scalar")
        return Expression(self._n ** o._n[0, 0])

    def __neg__(self):
        return Expression(np.array([[-n for n in row] for row in self._n], dtype=object))

    def __matmul__(self, other):
        o = as_expression(other)
        if self.cols != o.rows:
            raise ValueError(f"matmul shape mismatch: {self.shape} @ {o.shape}")
        return Expression(np.dot(self._n, o._n))

    def __rmatmul__(self, other):
        return as_expression(other).__matmul__(self)

    # structure ----------------------------------------------------------
    def __getitem__(self, key) -> "Expression":
        sub = self._n[key]
        if isinstance(sub, Node):
            return Expression(np.array([[sub]], dtype=object))
        sub = np.asarray(sub, dtype=object)
        if sub.ndim == 1:
            # preserve orientation: a row index yields a row, otherwise a column
            row_index = (
                isinstance(key, tuple) and isinstance(key[0], (int, np.integer))
            ) or (isinstance(key, (int, np.integer)) and self.cols > 1)
            sub = sub.reshape(1, -1) if row_index else sub.reshape(-1, 1)
        return Expression(sub)

    def vec(self) -> "Expression":
        """Column-major flattening into a column vector."""
        return Expression(self._n.ravel(order="F").reshape(-1, 1))

    def entries(self):
        """Scalar nodes in column-major order."""
        return list(self._n.ravel(order="F"))

    def is_constant(self) -> bool:
        return all(n.op == _CONST for n in self._n.flat)

    def to_array(self) -> np.ndarray:
        """Numeric value of a constant expression."""
        if not self.is_constant():
            raise ValueError("expression is not constant")
        return np.array([[n.val for n in row] for row in self._n], dtype=float)

    def leaf_blocks(self) -> list[LeafBlock]:
        seen: dict[int, LeafBlock] = {}
        for n in self._n.flat:
            for leaf in _deps(n):
                seen.setdefault(id(leaf.block), leaf.block)
        return list(seen.values())

    def __repr__(self):
        return f"Expression({self.rows}x{self.cols})"


def as_expression(x) -> Expression:
    if isinstance(x, Expression):
        return x
    if isinstance(x, Node):
        return Expression(np.array([[x]], dtype=object))
    return constant(x)


def constant(value) -> Expression:
    """Wrap a number or numeric array as a constant expression."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    elif arr.ndim != 2:
        raise ValueError("constants are at most 2-D")
    nodes = np.empty(arr.shape, dtype=object)
    for i in range(arr.shape[0]):
        for j in range(arr.shape[1]):
            nodes[i, j] = _const(arr[i, j])
    return Expression(nodes)


def _leaf_block(name: str, kind: str, rows: int, cols: int) -> Expression:
    if rows < 1 or cols < 1:
        raise ValueError(f"block {name!r} must have positive shape")
    block = LeafBlock(name, kind, int(rows), int(cols))
    nodes = np.empty((rows, cols), dtype=object)
    for j in range(cols):
        for i in range(rows):
            nodes[i, j] = Node(_LEAF, block=block, row=i, col=j)
    return Expression(nodes)


def variable(name: str, rows: int = 1, cols: int = 1) -> Expression:
    """Fresh matrix of decision-variable leaves."""
    return _leaf_block(name, "variable", rows, cols)


def parameter(name: str, rows: int = 1, cols: int = 1) -> Expression:
    """Fresh matrix of parameter leaves."""
    return _leaf_block(name, "parameter", rows, cols)


class LeafRegistry:
    """Tracks leaf blocks by (kind, name); rejects duplicate names per kind."""

    def __init__(self):
        self._blocks: dict[tuple[str, str], Expression] = {}

    def variable(self, name: str, rows: int = 1, cols: int = 1) -> Expression:
        return self._make(name, "variable", rows, cols)

    def parameter(self, name: str, rows: int = 1, cols: int = 1) -> Expression:
        return self._make(name, "parameter", rows, cols)

    def _make(self, name, kind, rows, cols):
        key = (kind, name)
        if key in self._blocks:
            raise ValueError(f"{kind} {name!r} already exists")
        e = _leaf_block(name, kind, rows, cols)
        self._blocks[key] = e
        return e

    def lookup(self, name: str, kind: str) -> Expression:
        return self._blocks[(kind, name)]

    def __contains__(self, key):
        return key in self._blocks

    def __len__(self):
        return len(self._blocks)


# -- elementwise math --------------------------------------------------------


def _map_unary(node_fn, num_fn, x):
    if isinstance(x, Expression) or isinstance(x, Node):
        e = as_expression(x)
        out = np.empty(e.shape, dtype=object)
        for i in range(e.rows):
            for j in range(e.cols):
                out[i, j] = node_fn(e._n[i, j])
        return Expression(out)
    return num_fn(x)


def sin(x):
    return _map_unary(_sin, np.sin, x)


def cos(x):
    return _map_unary(_cos, np.cos, x)


def tan(x):
    return _map_unary(_tan, np.tan, x)


def sqrt(x):
    return _map_unary(_sqrt, np.sqrt, x)


def exp(x):
    return _map_unary(_exp, np.exp, x)


def log(x):
    return _map_unary(_log, np.log, x)


def atan2(y, x):
    if isinstance(y, (Expression, Node)) or isinstance(x, (Expression, Node)):
        ye, xe = as_expression(y), as_expression(x)
        yn, xn = np.broadcast_arrays(ye._n, xe._n)
        out = np.empty(yn.shape, dtype=object)
        for i in range(yn.shape[0]):
            for j in range(yn.shape[1]):
                out[i, j] = _atan2(yn[i, j], xn[i, j])
        return Expression(out)
    return np.arctan2(y, x)


def sumsqr(x) -> Expression:
    """Sum of squared entries, as a scalar expression."""
    e = as_expression(x)
    total = _ZERO
    for n in e.entries():
        total = _add(total, _mul(n, n))
    return Expression(np.array([[total]], dtype=object))


def dot(a, b) -> Expression:
    ea, eb = as_expression(a), as_expression(b)
    na, nb = ea.entries(), eb.entries()
    if len(na) != len(nb) or min(ea.shape) != 1 or min(eb.shape) != 1:
        raise ValueError(f"dot needs equal-length vectors, got {ea.shape} and {eb.shape}")
    total = _ZERO
    for x, y in zip(na, nb):
        total = _add(total, _mul(x, y))
    return Expression(np.array([[total]], dtype=object))


def norm(x) -> Expression:
    """Euclidean (Frobenius) norm."""
    return sqrt(sumsqr(x))


def vertcat(*parts) -> Expression:
    arrs = [as_expression(p)._n for p in parts]
    return Expression(np.concatenate(arrs, axis=0))


def horzcat(*parts) -> Expression:
    arrs = [as_expression(p)._n for p in parts]
    return Expression(np.concatenate(arrs, axis=1))


def det(x) -> Expression:
    """Determinant via closed form, supported up to 3x3."""
    e = as_expression(x)
    if e.rows != e.cols:
        raise ValueError("determinant needs a square matrix")
    m = e._n
    if e.rows == 1:
        d = m[0, 0]
    elif e.rows == 2:
        d = _sub(_mul(m[0, 0], m[1, 1]), _mul(m[0, 1], m[1, 0]))
    elif e.rows == 3:
        d = _add(
            _sub(
                _mul(m[0, 0], _sub(_mul(m[1, 1], m[2, 2]), _mul(m[1, 2], m[2, 1]))),
                _mul(m[0, 1], _sub(_mul(m[1, 0], m[2, 2]), _mul(m[1, 2], m[2, 0]))),
            ),
            _mul(m[0, 2], _sub(_mul(m[1, 0], m[2, 1]), _mul(m[1, 1], m[2, 0]))),
        )
    else:
        raise ValueError("determinant supported up to 3x3 only")
    return Expression(np.array([[d]], dtype=object))


# -- evaluation ---------------------------------------------------------------


def _normalize_binding(name, value, rows, cols):
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.shape != (rows, cols):
        raise ValueError(
            f"binding for {name!r} has shape {np.shape(value)}, expected ({rows}, {cols})"
        )
    return arr


def evaluate(e: Expression, bindings: Mapping[str, object] | None = None) -> np.ndarray:
    """Numerically evaluate an expression.

    ``bindings`` maps leaf-block names to arrays matching the block shape
    (1-D accepted for column blocks).  Every leaf block appearing in the
    expression must be bound.  Evaluation runs :class:`CompiledFunction`,
    so any arithmetic fault gives an all-NaN output.
    """
    e = as_expression(e)
    raw = bindings or {}
    layouts, vectors = [], []
    for block in e.leaf_blocks():
        if block.name not in raw:
            raise KeyError(f"no binding for {block.kind} {block.name!r}")
        arr = _normalize_binding(block.name, raw[block.name], block.rows, block.cols)
        layouts.append((block.kind, {block.name: (0, block.rows, block.cols)}))
        vectors.append(arr.ravel(order="F"))
    return CompiledFunction(e, layouts)(*vectors)


# -- leaf handling for differentiation ----------------------------------------


def _leaf_list(wrt) -> list[Node]:
    """Flatten expressions into scalar leaf nodes, column-major per block."""
    if isinstance(wrt, Expression):
        exprs = [wrt]
    elif isinstance(wrt, (list, tuple)):
        exprs = [as_expression(w) for w in wrt]
    else:
        exprs = [as_expression(wrt)]
    leaves: list[Node] = []
    for e in exprs:
        for n in e.entries():
            if n.op != _LEAF:
                raise ValueError("wrt must contain only variable/parameter leaves")
            leaves.append(n)
    return leaves


def jacobian(e, wrt) -> Expression:
    """Jacobian of a column-vector expression with respect to scalar leaves.

    Returns an m-by-n expression for an m-by-1 input and n leaves.  The
    result is itself symbolic, so repeated application yields higher-order
    derivatives.
    """
    e = as_expression(e)
    if not e.is_column():
        raise ValueError(f"jacobian requires a column vector, got shape {e.shape}")
    leaves = _leaf_list(wrt)
    cache: dict = {}
    out = np.empty((e.rows, len(leaves)), dtype=object)
    for i in range(e.rows):
        node = e._n[i, 0]
        node_deps = _deps(node)
        for j, leaf in enumerate(leaves):
            out[i, j] = _diff(node, leaf, cache) if leaf in node_deps else _ZERO
    return Expression(out)


def gradient(e, wrt) -> Expression:
    """Gradient column vector of a scalar expression."""
    e = as_expression(e)
    if not e.is_scalar():
        raise ValueError("gradient requires a scalar expression")
    return jacobian(e, wrt).T


def hessian(e, wrt) -> Expression:
    """Symmetric Hessian of a scalar expression (upper triangle mirrored)."""
    e = as_expression(e)
    if not e.is_scalar():
        raise ValueError("hessian requires a scalar expression")
    leaves = _leaf_list(wrt)
    g = gradient(e, leaves)
    cache: dict = {}
    n = len(leaves)
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        gi = g._n[i, 0]
        gi_deps = _deps(gi)
        for j in range(i, n):
            leaf = leaves[j]
            d = _diff(gi, leaf, cache) if leaf in gi_deps else _ZERO
            out[i, j] = d
            out[j, i] = d
    return Expression(out)


# -- structure classification --------------------------------------------------


class StructureClass(enum.Enum):
    """Tightest structural class of an expression over a leaf set."""

    CONSTANT = "constant"
    LINEAR = "linear"
    QUADRATIC = "quadratic"
    NONLINEAR = "nonlinear"

    @property
    def rank(self) -> int:
        return _CLASS_RANK[self]

    def __le__(self, other):
        return self.rank <= other.rank


_CLASS_RANK = {
    StructureClass.CONSTANT: 0,
    StructureClass.LINEAR: 1,
    StructureClass.QUADRATIC: 2,
    StructureClass.NONLINEAR: 3,
}


def _has_hard_nonlinearity(nodes: Iterable[Node], wrt: frozenset) -> bool:
    # division by a wrt-dependent denominator and atan2 of wrt-dependent
    # arguments are nonlinear regardless of what derivatives simplify to
    seen: set[int] = set()
    stack = list(nodes)
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        if n.op == _DIV and (_deps(n.b) & wrt):
            return True
        if n.op == _ATAN2 and ((_deps(n.a) | _deps(n.b)) & wrt):
            return True
        if n.a is not None:
            stack.append(n.a)
        if n.b is not None:
            stack.append(n.b)
    return False


def classify(e, wrt) -> StructureClass:
    """Structural class of ``e`` with respect to the given leaves.

    Linear means the first derivative contains no wrt leaf after local
    simplification; quadratic likewise for the second derivative.  The
    check is structural, not value-based, so expressions that only cancel
    algebraically stay in the wider class.
    """
    return _classify(as_expression(e).entries(), frozenset(_leaf_list(wrt)))


def _classify(entries: Sequence[Node], wrtset: frozenset) -> StructureClass:
    """:func:`classify` over scalar nodes and a prepared leaf set."""
    if not any(_deps(n) & wrtset for n in entries):
        return StructureClass.CONSTANT
    if _has_hard_nonlinearity(entries, wrtset):
        return StructureClass.NONLINEAR

    cache: dict = {}
    firsts: list[Node] = []
    for n in entries:
        for leaf in _deps(n) & wrtset:
            firsts.append(_diff(n, leaf, cache))
    if not any(_deps(d) & wrtset for d in firsts):
        return StructureClass.LINEAR

    for d in firsts:
        for leaf in _deps(d) & wrtset:
            dd = _diff(d, leaf, cache)
            if _deps(dd) & wrtset:
                return StructureClass.NONLINEAR
    return StructureClass.QUADRATIC


def extract_affine(e, wrt) -> tuple[Expression, Expression]:
    """Decompose an affine expression as ``M @ vec(wrt) + c``.

    Both outputs contain only parameter leaves and constants.  Raises if
    the expression is not structurally linear or constant in ``wrt``.
    """
    e = as_expression(e)
    if not e.is_column():
        e = e.vec()
    leaves = _leaf_list(wrt)
    cls = _classify(e.entries(), frozenset(leaves))
    if not cls <= StructureClass.LINEAR:
        raise ValueError(f"extract_affine on a {cls.value} expression")
    M = jacobian(e, leaves)
    c = _replace_leaves(e, {id(l): _ZERO for l in leaves})
    return M, c


# -- graph rewriting -----------------------------------------------------------


def _rebuild(roots: Sequence[Node], leaf_map: Mapping[int, Node]) -> list[Node]:
    """Bottom-up reconstruction through the smart constructors."""
    out: dict[int, Node] = {}
    stack = list(roots)
    while stack:
        n = stack[-1]
        if id(n) in out:
            stack.pop()
            continue
        if n.op == _CONST:
            out[id(n)] = n
            stack.pop()
        elif n.op == _LEAF:
            out[id(n)] = leaf_map.get(id(n), n)
            stack.pop()
        else:
            pending = [c for c in (n.a, n.b) if c is not None and id(c) not in out]
            if pending:
                stack.extend(pending)
                continue
            a = out[id(n.a)]
            b = out[id(n.b)] if n.b is not None else None
            fn = _MAKE[n.op]
            out[id(n)] = fn(a, b) if b is not None else fn(a)
            stack.pop()
    return [out[id(r)] for r in roots]


def _replace_leaves(e: Expression, leaf_map: Mapping[int, Node]) -> Expression:
    entries = list(e._n.ravel(order="C"))
    rebuilt = _rebuild(entries, leaf_map)
    arr = np.array(rebuilt, dtype=object).reshape(e.shape)
    return Expression(arr)


def simplify(e) -> Expression:
    """Re-run local rewrite rules over the whole graph."""
    e = as_expression(e)
    return _replace_leaves(e, {})


def substitute(e, replacements: Mapping[str, object]) -> Expression:
    """Replace whole leaf blocks by name with expressions or numeric values.

    Replacement shapes must match the block shapes.
    """
    e = as_expression(e)
    by_name = {name: as_expression(val) for name, val in replacements.items()}
    leaf_map: dict[int, Node] = {}
    for n in e._n.flat:
        for leaf in _deps(n):
            rep = by_name.get(leaf.block.name)
            if rep is None:
                continue
            if rep.shape != (leaf.block.rows, leaf.block.cols):
                raise ValueError(
                    f"substitution for {leaf.block.name!r} has shape {rep.shape}, "
                    f"expected ({leaf.block.rows}, {leaf.block.cols})"
                )
            leaf_map[id(leaf)] = rep._n[leaf.row, leaf.col]
    return _replace_leaves(e, leaf_map)


# -- compiled evaluation --------------------------------------------------------


class CompiledFunction:
    """Tape-compiled evaluator of an expression over flat input vectors.

    ``layouts`` is a sequence of ``(kind, {name: (offset, rows, cols)})``
    pairs, one per positional input vector.  Leaves are bound to
    ``vec[offset + col * rows + row]`` (column-major within each block).
    Any arithmetic fault during evaluation yields an all-NaN result rather
    than raising, so solvers can detect and report bad iterates.
    """

    def __init__(self, e: Expression, layouts: Sequence[tuple[str, Mapping[str, tuple[int, int, int]]]]):
        e = as_expression(e)
        self.shape = e.shape

        order: list[Node] = []
        index: dict[int, int] = {}
        stack = [n for n in e._n.flat]
        while stack:
            n = stack[-1]
            if id(n) in index:
                stack.pop()
                continue
            pending = [c for c in (n.a, n.b) if c is not None and id(c) not in index]
            if pending:
                stack.extend(pending)
                continue
            index[id(n)] = len(order)
            order.append(n)
            stack.pop()

        tape = []
        init = [0.0] * len(order)
        for pos, n in enumerate(order):
            if n.op == _CONST:
                init[pos] = n.val
            elif n.op == _LEAF:
                slot = self._locate(n, layouts)
                tape.append((pos, _LEAF, slot[0], slot[1]))
            else:
                ia = index[id(n.a)]
                ib = index[id(n.b)] if n.b is not None else 0
                tape.append((pos, n.op, ia, ib))
        self._tape = tape
        self._init = init

        # Output entries, row-major as ``out.flat`` indexes them: computed
        # entries read their tape value, constants other than +0.0 (a -0.0
        # keeps its sign) are written once, and the rest stay zero.
        var_idx, var_pos, const_idx, const_val = [], [], [], []
        for k, n in enumerate(e._n.flat):
            if n.op != _CONST:
                var_idx.append(k)
                var_pos.append(index[id(n)])
            elif n.val != 0.0 or math.copysign(1.0, n.val) < 0.0:
                const_idx.append(k)
                const_val.append(n.val)
        self._var_idx = np.array(var_idx, dtype=np.intp)
        self._var_get = operator.itemgetter(*var_pos) if var_pos else None
        self._const_idx = np.array(const_idx, dtype=np.intp)
        self._const_val = np.array(const_val, dtype=float)

    @staticmethod
    def _locate(leaf: Node, layouts):
        for input_idx, (kind, mapping) in enumerate(layouts):
            if leaf.block.kind != kind:
                continue
            entry = mapping.get(leaf.block.name)
            if entry is not None:
                offset, rows, _ = entry
                return input_idx, offset + leaf.col * rows + leaf.row
        raise ValueError(
            f"expression references unknown {leaf.block.kind} block {leaf.block.name!r}"
        )

    def __call__(self, *vectors) -> np.ndarray:
        # Python floats, not numpy scalars, so x / 0 and a negative base to
        # a fractional power raise (a fault) instead of giving inf or NaN.
        vectors = [np.asarray(v, dtype=float).tolist() for v in vectors]
        vals = self._init.copy()
        try:
            for pos, op, ia, ib in self._tape:
                if op == _LEAF:
                    vals[pos] = vectors[ia][ib]
                elif op == _ADD:
                    vals[pos] = vals[ia] + vals[ib]
                elif op == _SUB:
                    vals[pos] = vals[ia] - vals[ib]
                elif op == _MUL:
                    vals[pos] = vals[ia] * vals[ib]
                elif op == _DIV:
                    vals[pos] = vals[ia] / vals[ib]
                elif op == _NEG:
                    vals[pos] = -vals[ia]
                elif op == _SIN:
                    vals[pos] = math.sin(vals[ia])
                elif op == _COS:
                    vals[pos] = math.cos(vals[ia])
                elif op == _TAN:
                    vals[pos] = math.tan(vals[ia])
                elif op == _SQRT:
                    v = vals[ia]
                    if v < 0.0:
                        v = 0.0 if v > -1e-12 else math.nan
                    else:
                        v = math.sqrt(v)
                    vals[pos] = v
                elif op == _EXP:
                    vals[pos] = math.exp(vals[ia])
                elif op == _LOG:
                    v = vals[ia]
                    vals[pos] = math.log(v) if v > 0.0 else math.nan
                elif op == _POW:
                    vals[pos] = math.pow(vals[ia], vals[ib])
                else:  # _ATAN2, reading -0.0 as +0.0 as folded constants do
                    vals[pos] = math.atan2(vals[ia] + 0.0, vals[ib] + 0.0)
        except (ArithmeticError, ValueError, OverflowError):
            return np.full(self.shape, np.nan)
        out = np.zeros(self.shape, dtype=float)
        out.flat[self._const_idx] = self._const_val
        if self._var_get is not None:
            out.flat[self._var_idx] = self._var_get(vals)
        return out
