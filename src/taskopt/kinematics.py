"""Robot kinematic model over a URDF chain.

Builds symbolic forward kinematics, geometric and analytical Jacobians,
and manipulability measures.  Joint states may be supplied symbolically
(expressions, typically builder state columns) or numerically; numeric
input yields numeric output.

Each query is built once per (query, link, rows) as a template: its
expression over the model's placeholder joint variable ``__robot_q``,
with the post-order of its entries.  A symbolic call instantiates the
template in one pass over that post-order through the smart
constructors, with the placeholders replaced by the caller's joint
entries; the instance is the graph building the query on those entries
gives, up to which equal constants are one node.  A numeric call runs a
:class:`~taskopt.expr.CompiledFunction` of the template, compiled on the
first numeric call and cached per (query, link, rows) (its tape, then its
generated code).  Registering a base offset or tip frame clears both
caches.  For finite joint states the result is
bit-identical to substituting the numbers into the symbolic expression
(outputs never carry a -0.0).  Non-finite joint states follow the
compiled function's rules, not constant folding's: the graph was simplified symbolically, so
an entry whose expression lost its dependence on a joint (``0 * q``) stays
finite where that joint is NaN or infinite, and any fault gives all-NaN.
"""

from __future__ import annotations

import math
import os
from typing import NamedTuple

import numpy as np

from . import expr, spatial
from .expr import Expression, Node, as_expression
from .urdf import (
    UrdfError,
    UrdfJoint,
    UrdfModel,
    extract_chain,
    load_urdf,
    parse_urdf,
)

__all__ = ["RobotModel"]


def _coerce_urdf(source) -> UrdfModel:
    if isinstance(source, UrdfModel):
        return source
    if isinstance(source, str):
        if source.lstrip().startswith("<"):
            return parse_urdf(source)
        return load_urdf(source)
    if isinstance(source, os.PathLike):
        return load_urdf(source)
    raise TypeError(f"cannot build a robot from {type(source).__name__}")


class _Template(NamedTuple):
    """A query's expression over the placeholder joints, its entries and their post-order."""

    e: Expression
    roots: list[Node]
    walk: dict[int, Node]


class RobotModel:
    """Kinematics of one robot, with optional extra base/tip frames.

    Parameters
    ----------
    urdf:
        A parsed model, a path to a URDF file, or URDF XML text.
    base:
        Base link; defaults to the URDF root.
    tip:
        Optional tip link.  When given, the actuated joints are those on
        the base-to-tip chain; otherwise every actuated joint reachable
        from the base counts.
    time_derivs:
        Derivative orders the trajectory optimizer should expose for this
        robot (0 = positions, 1 = velocities, ...).
    name:
        Model name used in the builder; defaults to the URDF robot name.

    Every query is a template, built on its first call per (query, link,
    rows) over placeholder joints: a symbolic call instantiates it at the
    given joint entries, so a horizon's stages build the forward
    kinematics once, and a numeric call runs its compiled function.
    """

    def __init__(self, urdf, base=None, tip=None, time_derivs=(0,), name=None):
        self.urdf = _coerce_urdf(urdf)
        self.base_link = base if base is not None else self.urdf.root
        if self.base_link not in self.urdf.links:
            raise UrdfError(f"unknown base link {self.base_link!r}")
        self.tip_link = tip
        if tip is not None and tip not in self.urdf.links:
            raise UrdfError(f"unknown tip link {tip!r}")

        orders = tuple(int(d) for d in time_derivs)
        if len(set(orders)) != len(orders) or any(d < 0 for d in orders):
            raise ValueError("time_derivs must be distinct non-negative orders")
        self.time_derivs = orders

        self.name = name if name is not None else self.urdf.name

        if tip is not None:
            joints = [j for j in extract_chain(self.urdf, self.base_link, tip) if j.actuated]
        else:
            joints = self._actuated_under_base()
        self._joints: list[UrdfJoint] = joints
        self._joint_index = {j.name: i for i, j in enumerate(joints)}

        self._base_offset: Expression | None = None
        self._extra_tips: dict[str, tuple[str, Expression]] = {}
        # the placeholder joints every template is built over; a robot
        # without actuated joints has none
        self._q = expr.variable("__robot_q", len(joints)) if joints else expr.constant(np.zeros(0))
        self._templates: dict[tuple, _Template] = {}
        self._compiled: dict[tuple, expr.CompiledFunction] = {}
        self._origins: dict[str, tuple[np.ndarray, Expression]] = {}

    def _actuated_under_base(self) -> list[UrdfJoint]:
        by_parent = self.urdf.joints_by_parent()
        out: list[UrdfJoint] = []
        frontier = [self.base_link]
        while frontier:
            link = frontier.pop(0)
            for j in by_parent.get(link, ()):
                if j.actuated:
                    out.append(j)
                frontier.append(j.child)
        return out

    # metadata -----------------------------------------------------------
    def get_name(self) -> str:
        return self.name

    @property
    def ndof(self) -> int:
        return len(self._joints)

    @property
    def joint_names(self) -> list[str]:
        return [j.name for j in self._joints]

    @property
    def lower_limits(self) -> np.ndarray:
        return np.array([j.lower for j in self._joints])

    @property
    def upper_limits(self) -> np.ndarray:
        return np.array([j.upper for j in self._joints])

    @property
    def velocity_limits(self) -> np.ndarray:
        return np.array([j.velocity for j in self._joints])

    def random_joint_positions(self, rng=None, margin: float = 0.0) -> np.ndarray:
        """Uniform sample inside the limits (continuous joints use +-pi)."""
        rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
        lo = np.clip(self.lower_limits, -math.pi, None)
        hi = np.clip(self.upper_limits, None, math.pi)
        span = hi - lo
        return lo + margin * span + rng.uniform(size=self.ndof) * span * (1.0 - 2.0 * margin)

    # frame registration ---------------------------------------------------
    def register_base_offset(self, transform) -> "RobotModel":
        """Compose a fixed world-to-base transform in front of all kinematics."""
        T = as_expression(transform)
        if T.shape != (4, 4):
            raise ValueError("base offset must be a 4x4 transform")
        self._base_offset = T
        self._templates.clear()
        self._compiled.clear()
        return self

    def register_tip(self, link_name: str, parent_link: str, transform) -> "RobotModel":
        """Attach a named virtual frame to ``parent_link`` by a fixed transform."""
        self._resolve_parent(parent_link)
        T = as_expression(transform)
        if T.shape != (4, 4):
            raise ValueError("tip transform must be 4x4")
        if link_name in self.urdf.links or link_name in self._extra_tips:
            raise ValueError(f"link name {link_name!r} already in use")
        self._extra_tips[link_name] = (parent_link, T)
        self._templates.clear()
        self._compiled.clear()
        return self

    def _resolve_parent(self, link: str) -> None:
        if link not in self.urdf.links:
            raise UrdfError(f"unknown link {link!r}")

    # templates -----------------------------------------------------------
    def _check_ndof(self, rows: int) -> None:
        if rows != self.ndof:
            raise ValueError(f"joint state must have {self.ndof} entries, got {rows}")

    def _normalize_q(self, q: Expression) -> Expression:
        qe = q.vec()
        self._check_ndof(qe.rows)
        return qe

    def _template(self, build, link: str, args: tuple) -> _Template:
        """``build(link, q, *args)`` over the placeholder joints, built on the first call.

        Cached per (query, link, args) until a frame is registered.
        """
        key = (build.__name__, link, args)
        t = self._templates.get(key)
        if t is None:
            e = as_expression(build(link, self._q, *args))
            roots = list(e._n.flat)
            t = self._templates[key] = _Template(e, roots, expr._postorder(roots))
        return t

    def _instance(self, build, link: str, q: Expression, *args) -> Expression:
        """The template of ``build`` with its placeholder joints replaced by ``q``.

        One pass over the template's post-order through the smart
        constructors.  They fold on constants and on negation, never on
        which leaf a node is, so the instance is the graph ``build(link,
        q, *args)`` makes, up to which equal constants are one node
        (:func:`~taskopt.expr._shape_key`).
        """
        qe = self._normalize_q(q)
        t = self._template(build, link, args)
        joints = {id(p): n for p, n in zip(self._q._n.flat, qe._n.flat)}
        nodes = expr._rebuild(t.roots, joints, t.walk)
        return Expression(np.array(nodes, dtype=object).reshape(t.e.shape))

    def _numeric(self, build, link: str, q, *args) -> np.ndarray:
        """The template of ``build`` at numeric ``q``.

        Runs a compiled function of the template, made on the first call
        and cached per (query, link, args).
        """
        v = np.asarray(q, dtype=float)
        if v.ndim > 2:
            raise ValueError("constants are at most 2-D")
        v = v.ravel(order="F")
        self._check_ndof(v.size)
        key = (build.__name__, link, args)
        fn = self._compiled.get(key)
        if fn is None:
            e = self._template(build, link, args).e
            joints = self._q.leaf_blocks()
            for block in e.leaf_blocks():
                if block not in joints:
                    raise KeyError(f"no binding for {block.kind} {block.name!r}")
            fn = expr.CompiledFunction(e, [("variable", {"__robot_q": (0, self.ndof, 1)})])
            self._compiled[key] = fn
        # constant folding never makes a -0.0; + 0.0 turns the compiled one's into +0.0
        return fn(v) + 0.0

    # forward kinematics ----------------------------------------------------
    def _chain_to(self, link: str) -> tuple[list[UrdfJoint], Expression | None]:
        tip_T = None
        if link in self._extra_tips:
            parent, tip_T = self._extra_tips[link]
            link = parent
        chain = extract_chain(self.urdf, self.base_link, link)
        return chain, tip_T

    def _origin(self, joint: UrdfJoint) -> tuple[np.ndarray, Expression]:
        """The joint's constant origin rotation and transform, built once per model."""
        origin = self._origins.get(joint.name)
        if origin is None:
            R = spatial.rpy_to_matrix(np.array(joint.origin_rpy))
            origin = R, as_expression(spatial.transform_from(R, np.array(joint.origin_xyz)))
            self._origins[joint.name] = origin
        return origin

    def _fk(self, link: str, qe: Expression, want_jacobian_data: bool = False):
        chain, tip_T = self._chain_to(link)
        T = self._base_offset if self._base_offset is not None else expr.constant(np.eye(4))
        axes = []  # (joint, z_i in world, p_i in world) for chain joints
        for joint in chain:
            T = T @ self._origin(joint)[1]
            if joint.actuated:
                z = T[0:3, 0:3] @ expr.constant(np.array(joint.axis)).vec()
                p = T[0:3, 3]
                axes.append((joint, z, p))
                qi = qe[self._joint_index[joint.name], 0]
                if joint.type in ("revolute", "continuous"):
                    R = spatial.rotation_about_axis(np.array(joint.axis), qi)
                    T = T @ as_expression(spatial.transform_from(R, None))
                else:  # prismatic
                    t = expr.constant(np.array(joint.axis)).vec() * qi
                    T = T @ as_expression(spatial.transform_from(None, t))
        if tip_T is not None:
            T = T @ tip_T
        if want_jacobian_data:
            return T, axes
        return T

    # Each public query below is a template builder ``_<query>(link, qe,
    # *args)``, run on the placeholder joints, and a method that answers a
    # numeric q by the template's compiled function and a symbolic q by an
    # instance of the template.

    def _global_link_transform(self, link: str, qe: Expression) -> Expression:
        return self._fk(link, qe)

    def global_link_transform(self, link: str, q):
        """4x4 pose of ``link`` in the world frame."""
        if not isinstance(q, Expression):
            return self._numeric(self._global_link_transform, link, q)
        return self._instance(self._global_link_transform, link, q)

    def _global_link_position(self, link: str, qe: Expression) -> Expression:
        return self._fk(link, qe)[0:3, 3]

    def global_link_position(self, link: str, q):
        if not isinstance(q, Expression):
            return self._numeric(self._global_link_position, link, q).ravel()
        return self._instance(self._global_link_position, link, q)

    def _global_link_rotation(self, link: str, qe: Expression) -> Expression:
        return self._fk(link, qe)[0:3, 0:3]

    def global_link_rotation(self, link: str, q):
        if not isinstance(q, Expression):
            return self._numeric(self._global_link_rotation, link, q)
        return self._instance(self._global_link_rotation, link, q)

    def _global_link_quaternion(self, link: str, qe: Expression) -> Expression:
        chain, tip_T = self._chain_to(link)
        quat = None

        def compose(acc, nxt):
            return nxt if acc is None else spatial.quaternion_product(acc, nxt)

        if self._base_offset is not None:
            quat = compose(quat, spatial.matrix_to_quaternion(self._base_offset[0:3, 0:3]))
        for joint in chain:
            if any(v != 0.0 for v in joint.origin_rpy):
                R = self._origin(joint)[0]
                quat = compose(quat, expr.constant(spatial.matrix_to_quaternion(R)))
            if joint.actuated and joint.type in ("revolute", "continuous"):
                qi = qe[self._joint_index[joint.name], 0]
                half = 0.5 * qi
                s = expr.sin(half)
                axis = joint.axis
                jq = expr.vertcat(axis[0] * s, axis[1] * s, axis[2] * s, expr.cos(half))
                quat = compose(quat, jq)
        if tip_T is not None:
            quat = compose(quat, spatial.matrix_to_quaternion(tip_T[0:3, 0:3]))
        if quat is None:
            quat = expr.constant(np.array([0.0, 0.0, 0.0, 1.0]))
        return as_expression(quat)

    def global_link_quaternion(self, link: str, q):
        """Unit quaternion (x, y, z, w) of the link orientation.

        Built by chaining per-joint axis-angle quaternions, so it stays
        smooth in the joint state (no matrix branch selection involved).
        """
        if not isinstance(q, Expression):
            return self._numeric(self._global_link_quaternion, link, q).ravel()
        return self._instance(self._global_link_quaternion, link, q)

    def _global_link_rpy(self, link: str, qe: Expression) -> Expression:
        return spatial.matrix_to_rpy(self._fk(link, qe)[0:3, 0:3])

    def global_link_rpy(self, link: str, q):
        if not isinstance(q, Expression):
            return self._numeric(self._global_link_rpy, link, q).ravel()
        return self._instance(self._global_link_rpy, link, q)

    # jacobians ---------------------------------------------------------------
    def _geometric_jacobian(self, link: str, qe: Expression) -> Expression:
        T, axes = self._fk(link, qe, want_jacobian_data=True)
        p_e = T[0:3, 3]
        zero3 = expr.constant(np.zeros(3))
        cols = []
        by_name = {joint.name: (z, p) for joint, z, p in axes}
        for joint in self._joints:
            if joint.name not in by_name:
                cols.append(expr.constant(np.zeros(6)))
                continue
            z, p = by_name[joint.name]
            if joint.type == "prismatic":
                cols.append(expr.vertcat(z, zero3))
            else:
                lin = as_expression(spatial.cross(z, p_e - p))
                cols.append(expr.vertcat(lin, z))
        return expr.horzcat(*cols) if cols else expr.constant(np.zeros((6, 0)))

    def geometric_jacobian(self, link: str, q):
        """6 x ndof Jacobian, rows (linear velocity; angular velocity)."""
        if not isinstance(q, Expression):
            return self._numeric(self._geometric_jacobian, link, q)
        return self._instance(self._geometric_jacobian, link, q)

    def _analytical_jacobian(self, link: str, qe: Expression) -> Expression:
        """Differentiates by the entries of ``qe``, which must be distinct leaves."""
        T = self._fk(link, qe)
        stacked = expr.vertcat(T[0:3, 3], spatial.matrix_to_rpy(T[0:3, 0:3]))
        return expr.jacobian(stacked, qe)

    def analytical_jacobian(self, link: str, q):
        """Jacobian of (position, rpy) by automatic differentiation.

        The derivative is taken once per link, by the placeholder joints,
        and instantiated at ``q``.  Evaluation near the rpy pitch
        singularity (+-pi/2) produces large values; that representation
        limit is not trapped here.
        """
        if not isinstance(q, Expression):
            return self._numeric(self._analytical_jacobian, link, q)
        return self._instance(self._analytical_jacobian, link, q)

    def _manipulability(self, link: str, qe: Expression, rows: tuple) -> Expression:
        J = self._geometric_jacobian(link, qe)
        J_sel = Expression(J._n[list(rows), :])
        return expr.sqrt(expr.det(J_sel @ J_sel.T))

    def manipulability(self, link: str, q, rows=(0, 1, 2)):
        """sqrt(det(J_sel J_sel^T)) over the selected Jacobian rows (max 3)."""
        rows = tuple(rows)
        if not rows or len(rows) > 3 or any(r < 0 or r > 5 for r in rows):
            raise ValueError("rows must select between 1 and 3 of the 6 Jacobian rows")
        if not isinstance(q, Expression):
            return float(self._numeric(self._manipulability, link, q, rows)[0, 0])
        return self._instance(self._manipulability, link, q, rows)
