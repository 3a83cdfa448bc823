import numpy as np
import pytest

import taskopt as to
from taskopt import spatial

from conftest import central_difference, fd_close, planar_fk, planar_jacobian

PRISMATIC_XZ = """
<robot name="gantry">
  <link name="base"/><link name="cart"/><link name="rod"/>
  <joint name="slide_x" type="prismatic">
    <parent link="base"/><child link="cart"/>
    <axis xyz="1 0 0"/>
    <limit lower="-1.0" upper="1.0" velocity="1.0"/>
  </joint>
  <joint name="slide_z" type="prismatic">
    <parent link="cart"/><child link="rod"/>
    <axis xyz="0 0 1"/>
    <limit lower="0.0" upper="0.5" velocity="1.0"/>
  </joint>
</robot>
"""


class TestMetadata:
    def test_ndof_and_names(self, planar2r):
        assert planar2r.ndof == 2
        assert planar2r.joint_names == ["joint1", "joint2"]

    def test_limits(self, planar2r):
        assert np.allclose(planar2r.lower_limits, [-np.pi, -np.pi])
        assert np.allclose(planar2r.upper_limits, [np.pi, np.pi])
        assert np.all(planar2r.lower_limits <= planar2r.upper_limits)

    def test_fixed_joints_excluded(self, planar2r):
        # the ee_joint is fixed and must not count toward ndof
        assert "ee_joint" not in planar2r.joint_names

    def test_unknown_base(self):
        with pytest.raises(to.UrdfError):
            to.RobotModel(to.fixture_path("planar2r"), base="ghost")


class TestForwardKinematics:
    @pytest.mark.parametrize(
        "q,expected",
        [
            ((0.0, 0.0), (2.0, 0.0, 0.0)),
            ((np.pi / 2, 0.0), (0.0, 2.0, 0.0)),
            ((0.0, np.pi / 2), (1.0, 1.0, 0.0)),
        ],
    )
    def test_planar_closed_form(self, planar2r, q, expected):
        p = planar2r.global_link_position("ee", list(q))
        assert np.abs(p - np.array(expected)).max() <= 1e-12

    def test_symbolic_matches_numeric(self, planar2r):
        rng = np.random.default_rng(0)
        q = to.variable("q", 2)
        p_sym = planar2r.global_link_position("ee", q)
        for _ in range(10):
            qv = rng.uniform(-np.pi, np.pi, 2)
            assert np.allclose(
                to.evaluate(p_sym, {"q": qv}).ravel(),
                planar2r.global_link_position("ee", qv),
            )

    def test_transform_structure(self, planar2r):
        T = planar2r.global_link_transform("ee", [0.3, -0.5])
        assert np.allclose(T[3], [0, 0, 0, 1])
        R = T[:3, :3]
        assert np.abs(R.T @ R - np.eye(3)).max() <= 1e-9

    def test_orthonormal_at_random_q(self, arm6):
        rng = np.random.default_rng(3)
        for _ in range(20):
            qv = arm6.random_joint_positions(rng)
            R = arm6.global_link_transform("ee", qv)[:3, :3]
            assert np.abs(R.T @ R - np.eye(3)).max() <= 1e-9

    def test_chain_composition(self, planar2r):
        q = [0.4, 0.9]
        T_l1 = planar2r.global_link_transform("link1", q)
        T_l2 = planar2r.global_link_transform("link2", q)
        # link2 = link1 * origin(1,0,0) * Rz(q2)
        J2 = spatial.transform_from(spatial.rotation_z(q[1]), None)
        step = spatial.transform_from(None, [1.0, 0.0, 0.0]) @ J2
        assert np.abs(T_l2 - T_l1 @ step).max() <= 1e-12

    def test_unknown_link(self, planar2r):
        with pytest.raises(to.UrdfError):
            planar2r.global_link_position("ghost", [0.0, 0.0])


class TestRotationRepresentations:
    def test_identity_quaternion(self, planar2r):
        q = planar2r.global_link_quaternion("ee", [0.0, 0.0])
        assert np.allclose(q, [0, 0, 0, 1])

    def test_z_quarter_turn_quaternion(self, planar2r):
        q = planar2r.global_link_quaternion("ee", [np.pi / 2, 0.0])
        assert np.abs(q - np.array([0, 0, np.sqrt(2) / 2, np.sqrt(2) / 2])).max() <= 1e-12

    def test_quaternion_consistent_with_rotation(self, arm6):
        rng = np.random.default_rng(5)
        for _ in range(20):
            qv = arm6.random_joint_positions(rng)
            quat = arm6.global_link_quaternion("ee", qv)
            R = arm6.global_link_rotation("ee", qv)
            assert np.abs(spatial.quaternion_to_matrix(quat) - R).max() <= 1e-9

    def test_rpy_round_trip(self, arm6):
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 50:
            qv = arm6.random_joint_positions(rng)
            R = arm6.global_link_rotation("ee", qv)
            rpy = spatial.matrix_to_rpy(R)
            if abs(abs(rpy[1]) - np.pi / 2) < 0.1:
                continue  # skip configurations near the pitch singularity
            assert np.abs(spatial.rpy_to_matrix(rpy) - R).max() <= 1e-9
            checked += 1


class TestJacobians:
    def test_planar_linear_rows_at_zero(self, planar2r):
        J = planar2r.geometric_jacobian("ee", [0.0, 0.0])
        assert np.allclose(J[:2], [[0.0, 0.0], [2.0, 1.0]])

    def test_geometric_matches_ad_on_position(self, planar2r):
        rng = np.random.default_rng(1)
        q = to.variable("q", 2)
        p = planar2r.global_link_position("ee", q)
        J_ad = to.jacobian(p, q)
        for _ in range(20):
            qv = rng.uniform(-np.pi, np.pi, 2)
            J_geo = planar2r.geometric_jacobian("ee", qv)
            assert np.abs(J_geo[:3] - to.evaluate(J_ad, {"q": qv})).max() <= 1e-9

    def test_geometric_matches_ad_arm6(self, arm6):
        rng = np.random.default_rng(2)
        q = to.variable("q", 6)
        p = arm6.global_link_position("ee", q)
        J_ad = to.jacobian(p, q)
        for _ in range(10):
            qv = arm6.random_joint_positions(rng)
            J_geo = arm6.geometric_jacobian("ee", qv)
            assert np.abs(J_geo[:3] - to.evaluate(J_ad, {"q": qv})).max() <= 1e-9

    def test_prismatic_angular_rows_zero(self):
        r = to.RobotModel(PRISMATIC_XZ, tip="rod")
        J = r.geometric_jacobian("rod", [0.2, 0.1])
        assert np.allclose(J[3:], 0.0)
        assert np.allclose(J[:3], [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])

    def test_analytical_planar_yaw_row(self, planar2r):
        qv = [0.3, -0.7]
        Ja = planar2r.analytical_jacobian("ee", qv)
        Jg = planar2r.geometric_jacobian("ee", qv)
        assert np.abs(Ja[5] - Jg[5]).max() <= 1e-9

    def test_analytical_matches_finite_differences(self, arm6):
        rng = np.random.default_rng(4)

        def pose(qv):
            p = arm6.global_link_position("ee", qv)
            rpy = spatial.matrix_to_rpy(arm6.global_link_rotation("ee", qv))
            return np.concatenate([p, rpy])

        checked = 0
        while checked < 10:
            qv = arm6.random_joint_positions(rng)
            rpy = spatial.matrix_to_rpy(arm6.global_link_rotation("ee", qv))
            # stay away from the pitch singularity and the atan2 branch cuts,
            # where finite differences of the angles are meaningless
            if abs(abs(rpy[1]) - np.pi / 2) < 0.2 or np.any(np.abs(rpy) > 2.9):
                continue
            Ja = arm6.analytical_jacobian("ee", qv)
            J_fd = central_difference(pose, qv)
            assert fd_close(Ja, J_fd, rel=1e-6, abs_=1e-7)
            checked += 1


class TestManipulability:
    def test_planar_values(self, planar2r):
        assert planar2r.manipulability("ee", [0.0, np.pi / 2], rows=(0, 1)) == pytest.approx(1.0)
        assert planar2r.manipulability("ee", [0.0, 0.0], rows=(0, 1)) == pytest.approx(0.0, abs=1e-9)

    def test_invariant_under_base_yaw(self):
        rng = np.random.default_rng(7)
        plain = to.RobotModel(to.fixture_path("planar2r"), tip="ee")
        rotated = to.RobotModel(to.fixture_path("planar2r"), tip="ee")
        rotated.register_base_offset(
            spatial.transform_from(spatial.rotation_z(1.1), [0.2, -0.4, 0.0])
        )
        for _ in range(10):
            qv = rng.uniform(-np.pi, np.pi, 2)
            m1 = plain.manipulability("ee", qv, rows=(0, 1))
            m2 = rotated.manipulability("ee", qv, rows=(0, 1, 2))
            # same mechanism: full positional manipulability is frame-invariant
            assert abs(plain.manipulability("ee", qv, rows=(0, 1, 2)) - m2) <= 1e-9

    def test_row_count_limit(self, arm6):
        with pytest.raises(ValueError):
            arm6.manipulability("ee", np.zeros(6), rows=(0, 1, 2, 3))


class TestFrameRegistration:
    def test_base_offset_shifts_positions(self, planar2r):
        r = to.RobotModel(to.fixture_path("planar2r"), tip="ee")
        r.register_base_offset(spatial.transform_from(None, [1.0, 0.0, 0.0]))
        rng = np.random.default_rng(8)
        for _ in range(5):
            qv = rng.uniform(-np.pi, np.pi, 2)
            assert np.allclose(
                r.global_link_position("ee", qv),
                planar2r.global_link_position("ee", qv) + np.array([1.0, 0.0, 0.0]),
            )

    def test_identity_registration_noop(self, planar2r):
        r = to.RobotModel(to.fixture_path("planar2r"), tip="ee")
        r.register_base_offset(np.eye(4))
        qv = [0.2, 0.3]
        assert np.allclose(
            r.global_link_position("ee", qv), planar2r.global_link_position("ee", qv)
        )

    def test_register_tip(self, planar2r):
        r = to.RobotModel(to.fixture_path("planar2r"), tip="ee")
        r.register_tip("tool", "ee", spatial.transform_from(None, [0.0, 0.1, 0.0]))
        p_tool = r.global_link_position("tool", [0.0, 0.0])
        assert np.allclose(p_tool, [2.0, 0.1, 0.0])
        assert r.ndof == 2

    def test_register_tip_unknown_parent(self):
        r = to.RobotModel(to.fixture_path("planar2r"), tip="ee")
        with pytest.raises(to.UrdfError):
            r.register_tip("tool", "ghost", np.eye(4))

    def test_dual_arm_independent_fk(self):
        left = to.RobotModel(to.fixture_path("planar2r"), tip="ee", name="left")
        right = to.RobotModel(to.fixture_path("planar2r"), tip="ee", name="right")
        left.register_base_offset(spatial.transform_from(None, [0.0, 1.0, 0.0]))
        right.register_base_offset(spatial.transform_from(None, [0.0, -1.0, 0.0]))
        qv = [0.1, 0.2]
        pl = left.global_link_position("ee", qv)
        pr = right.global_link_position("ee", qv)
        assert np.allclose(pl - pr, [0.0, 2.0, 0.0])


class TestOracleAgreement:
    def test_fk_against_closed_form(self, planar2r):
        rng = np.random.default_rng(9)
        for _ in range(100):
            qv = rng.uniform(-np.pi, np.pi, 2)
            assert np.abs(planar2r.global_link_position("ee", qv) - planar_fk(qv)).max() <= 1e-12

    def test_jacobian_against_closed_form(self, planar2r):
        rng = np.random.default_rng(10)
        for _ in range(20):
            qv = rng.uniform(-np.pi, np.pi, 2)
            J = planar2r.geometric_jacobian("ee", qv)
            assert np.abs(J[:2] - planar_jacobian(qv)).max() <= 1e-12


_QUERIES = (
    "global_link_transform",
    "global_link_position",
    "global_link_rotation",
    "global_link_quaternion",
    "global_link_rpy",
    "geometric_jacobian",
    "analytical_jacobian",
    "manipulability",
)


class TestCompiledQueries:
    def test_base_offset_after_a_query_moves_the_pose(self):
        r = to.RobotModel(to.fixture_path("planar2r"), tip="ee")
        qv = [0.2, 0.3]
        p0 = r.global_link_position("ee", qv)
        T0 = r.global_link_transform("ee", qv)
        r.register_base_offset(spatial.transform_from(None, [1.0, 0.0, 0.0]))
        assert np.allclose(r.global_link_position("ee", qv), p0 + [1.0, 0.0, 0.0])
        assert np.allclose(r.global_link_transform("ee", qv)[:3, 3], T0[:3, 3] + [1.0, 0.0, 0.0])
        r.register_base_offset(spatial.transform_from(spatial.rotation_z(np.pi / 2), None))
        assert np.allclose(r.global_link_position("ee", qv), [-p0[1], p0[0], 0.0])

    def test_register_tip_after_a_query(self):
        r = to.RobotModel(to.fixture_path("planar2r"), tip="ee")
        p_ee = r.global_link_position("ee", [0.0, 0.0])
        with pytest.raises(to.UrdfError):
            r.global_link_position("tool", [0.0, 0.0])
        r.register_tip("tool", "ee", spatial.transform_from(None, [0.0, 0.1, 0.0]))
        assert np.allclose(r.global_link_position("tool", [0.0, 0.0]), [2.0, 0.1, 0.0])
        assert r.global_link_position("ee", [0.0, 0.0]).tobytes() == p_ee.tobytes()

    def test_symbolic_query_before_a_frame_moves_after_it(self):
        r = to.RobotModel(to.fixture_path("planar2r"), tip="ee")
        q, qv = to.variable("q", 2), np.array([0.2, 0.3])

        def position(link):
            return to.evaluate(r.global_link_position(link, q), {"q": qv}).ravel()

        p0 = position("ee")
        r.register_base_offset(spatial.transform_from(None, [1.0, 0.0, 0.0]))
        assert position("ee").tolist() == (p0 + [1.0, 0.0, 0.0]).tolist()
        r.register_base_offset(spatial.transform_from(spatial.rotation_z(np.pi / 2), None))
        assert np.allclose(position("ee"), [-p0[1], p0[0], 0.0])
        p_ee = position("ee")
        r.register_tip("tool", "ee", spatial.transform_from(None, [0.0, 0.1, 0.0]))
        assert not r._templates
        assert position("ee").tobytes() == p_ee.tobytes()
        assert position("tool").tobytes() == r.global_link_position("tool", qv).tobytes()

    def test_parameter_base_offset_stays_in_the_instance(self):
        r = to.RobotModel(to.fixture_path("planar2r"), tip="ee")
        q, qv, base = to.variable("q", 2), np.array([0.2, 0.3]), np.array([1.0, -2.0, 0.5])
        p_ee = r.global_link_position("ee", qv)
        r.register_base_offset(spatial.transform_from(None, to.parameter("base", 3)))
        for _ in range(2):  # the first call builds the template, the second reuses it
            sym = r.global_link_position("ee", q)
            assert sorted(block.name for block in sym.leaf_blocks()) == ["base", "q"]
            got = to.evaluate(sym, {"q": qv, "base": base}).ravel()
            assert got.tolist() == (p_ee + base).tolist()
        with pytest.raises(KeyError, match="base"):
            r.global_link_position("ee", qv)

    def test_repeated_query_reuses_one_compiled_function(self, arm6):
        r = to.RobotModel(to.fixture_path("arm6"), tip="ee")
        rng = np.random.default_rng(11)
        for _ in range(3):
            qv = rng.uniform(-np.pi, np.pi, 6)
            r.global_link_position("ee", qv)
            r.manipulability("ee", qv, rows=(0, 1))
            r.manipulability("ee", qv)
            p = r.global_link_position("ee", qv)
            assert p.tobytes() == arm6.global_link_position("ee", qv).tobytes()
        assert len(r._compiled) == 3

    def test_unbound_tip_parameter_keeps_key_error(self):
        r = to.RobotModel(to.fixture_path("planar2r"), tip="ee")
        r.register_tip("tool", "ee", to.parameter("T", 4, 4))
        queries = [(getattr(r, name), {}) for name in _QUERIES[:-1]]
        # rows (0, 1, 2) of a planar arm fold to a constant 0, T or not
        queries.append((r.manipulability, {"rows": (0, 1)}))
        for query, kwargs in queries:
            with pytest.raises(KeyError) as err:
                query("tool", [0.1, 0.2], **kwargs)
            assert err.value.args == ("no binding for parameter 'T'",)
        assert not r._compiled

    def test_robot_without_actuated_joints(self):
        r = to.RobotModel(
            '<robot name="mount"><link name="a"/><link name="b"/>'
            '<joint name="j" type="fixed"><parent link="a"/><child link="b"/>'
            '<origin xyz="1 0 0"/></joint></robot>'
        )
        assert r.ndof == 0
        sym = r.global_link_position("b", to.constant(np.zeros(0)))
        assert sym.is_constant() and sym.to_array().ravel().tolist() == [1.0, 0.0, 0.0]
        assert r.global_link_position("b", np.zeros(0)).tolist() == [1.0, 0.0, 0.0]

    def test_wrong_length_q_keeps_value_error(self, planar2r):
        for q in ([0.1, 0.2, 0.3], np.zeros((1, 1, 2)), to.variable("q", 3)):
            for name in _QUERIES:
                with pytest.raises(ValueError):
                    getattr(planar2r, name)("ee", q)
        with pytest.raises(ValueError, match="joint state must have 2 entries, got 3"):
            planar2r.global_link_position("ee", [0.1, 0.2, 0.3])

    def test_unknown_link_keeps_urdf_error(self):
        r = to.RobotModel(to.fixture_path("planar2r"), tip="ee")
        for name in _QUERIES:
            for q in ([0.1, 0.2], to.variable("q", 2)):
                with pytest.raises(to.UrdfError):
                    getattr(r, name)("ghost", q)
        assert not r._compiled

    def test_bad_rows_keep_value_error(self):
        r = to.RobotModel(to.fixture_path("arm6"), tip="ee")
        for rows in ((), (0, 1, 2, 3), (6,), (-1, 0)):
            for q in (np.zeros(6), to.variable("q", 6)):
                with pytest.raises(ValueError, match="rows must select"):
                    r.manipulability("ee", q, rows=rows)
        assert not r._compiled

    def test_non_finite_joint_state(self, arm6):
        """The compiled graph, not constant folding, decides which entries a NaN reaches."""
        shapes = {
            "global_link_transform": (4, 4),
            "global_link_position": (3,),
            "global_link_rotation": (3, 3),
            "global_link_quaternion": (4,),
            "global_link_rpy": (3,),
            "geometric_jacobian": (6, 6),
            "analytical_jacobian": (6, 6),
        }
        for bad in (np.nan, np.inf, -np.inf):
            qv = np.array([bad, 0.3, -0.4, 0.5, 0.6, -0.7])
            for name, shape in shapes.items():
                assert getattr(arm6, name)("ee", qv).shape == shape
            assert isinstance(arm6.manipulability("ee", qv), float)
        # joint 0 turns about the vertical axis, so the height does not depend on it
        qv = np.array([np.nan, 0.3, -0.4, 0.5, 0.6, -0.7])
        p = arm6.global_link_position("ee", qv)
        assert np.isnan(p[:2]).all()
        assert p[2] == arm6.global_link_position("ee", np.r_[0.0, qv[1:]])[2]
