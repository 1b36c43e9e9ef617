"""Physics: steppers, kinematics, wrapping, geometry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canrl.attributes import Nominal, build_task, step_task
from canrl.dynamics import (
    ArticulatedRobotState,
    PointRobotState,
    SimConfig,
    WorldState,
    arm_integrate,
    arm_jacobian,
    arm_points,
    clamp01,
    end_effector,
    link_points,
    point_integrate,
    point_segment_distance,
    robot_speed,
    segments_within,
    wrap_angle,
)
from canrl.errors import DimensionError, SimulationFault

BIG = SimConfig(workspace=50.0)  # walls far away
ZEROS = (0.0,) * 4


def step_robot(robot, action, cfg):
    """One `step_task` on a bare reaching task; returns the robot state."""
    kind = "point" if isinstance(robot, PointRobotState) else "arm"
    task = build_task(kind, cfg, Nominal(np.zeros(2)), [])
    world = WorldState(robot, np.array([40.0, 40.0]))  # target out of reach
    return step_task(task, world, action)[0].robot


def drive_point(dt, forces, v0, damping=0.8):
    cfg = SimConfig(dt=dt, damping=damping, workspace=50.0)
    s = PointRobotState(0.0, 0.0, *map(float, v0))
    for f in forces:
        s = point_integrate(s, f, cfg)
    return s


def drive_arm(dt, actions, damping=0.8):
    cfg = SimConfig(dt=dt, damping=damping)
    s = ArticulatedRobotState(0.0, 0.0, ZEROS, ZEROS)
    for a in actions:
        s = arm_integrate(s, a, cfg)
    return s


class TestPointStep:
    def test_coasting_without_damping(self):
        cfg = SimConfig(dt=0.05, damping=0.0, workspace=50.0)
        s = PointRobotState(0.0, 0.0, 1.0, 0.0)
        s2 = point_integrate(s, np.zeros(2), cfg)
        assert np.allclose(s2.position, [0.05, 0.0], atol=1e-15)
        assert np.allclose(s2.velocity, [1.0, 0.0], atol=1e-15)

    def test_matches_ten_times_finer_integration(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            forces = rng.uniform(-1, 1, size=(100, 2))
            v0 = rng.uniform(-0.5, 0.5, size=2)
            coarse = drive_point(0.01, forces, v0)
            fine = drive_point(0.001, np.repeat(forces, 10, axis=0), v0)
            assert np.max(np.abs(coarse.position - fine.position)) < 1e-2

    def test_force_is_clamped_to_limit(self):
        cfg = SimConfig(dt=0.05, damping=0.0, force_limit=1.0, workspace=50.0)
        s = PointRobotState(0.0, 0.0, 0.0, 0.0)
        a = step_robot(s, np.array([10.0, 0.0]), cfg)
        b = step_robot(s, np.array([1.0, 0.0]), cfg)
        assert np.array_equal(a.position, b.position)
        assert np.array_equal(a.velocity, b.velocity)

    def test_wall_clamp_zeroes_normal_velocity(self):
        cfg = SimConfig(dt=0.1, damping=0.0, workspace=1.0)
        s = PointRobotState(0.99, 0.0, 1.0, 0.3)
        s2 = point_integrate(s, np.zeros(2), cfg)
        assert s2.position[0] == 1.0
        assert s2.velocity[0] == 0.0
        assert s2.velocity[1] == pytest.approx(0.3)

    def test_nonfinite_force_faults(self):
        s = PointRobotState(0.0, 0.0, 0.0, 0.0)
        with pytest.raises(SimulationFault):
            step_robot(s, np.array([np.nan, 0.0]), BIG)
        with pytest.raises(SimulationFault):
            step_robot(s, np.array([np.inf, 0.0]), BIG)

    def test_wrong_shape_raises(self):
        s = PointRobotState(0.0, 0.0, 0.0, 0.0)
        with pytest.raises(DimensionError):
            step_robot(s, np.zeros(3), BIG)

    @given(
        st.floats(-1, 1), st.floats(-1, 1),
        st.floats(0.1, 0.9),
    )
    @settings(max_examples=60, deadline=None)
    def test_unforced_speed_never_grows(self, vx, vy, damping):
        cfg = SimConfig(dt=0.05, damping=damping, workspace=50.0)
        s = PointRobotState(0.0, 0.0, vx, vy)
        speed = np.linalg.norm(s.velocity)
        for _ in range(40):
            s = point_integrate(s, np.zeros(2), cfg)
            now = np.linalg.norm(s.velocity)
            assert now <= speed + 1e-12
            speed = now

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_stays_inside_workspace(self, seed):
        rng = np.random.default_rng(seed)
        cfg = SimConfig(dt=0.05, damping=0.2, workspace=1.0)
        s = PointRobotState(*rng.uniform(-1, 1, 2).tolist(), *rng.uniform(-1, 1, 2).tolist())
        for _ in range(50):
            s = point_integrate(s, rng.uniform(-1, 1, 2), cfg)
            assert np.all(np.abs(s.position) <= 1.0 + 1e-12)


class TestArmStep:
    def test_single_joint_torque_kick(self):
        cfg = SimConfig(dt=0.01, damping=0.0, joint_inertia=1.0)
        s = ArticulatedRobotState(0.0, 0.0, ZEROS, ZEROS)
        s2 = arm_integrate(s, np.array([1.0, 0, 0, 0, 0]), cfg)
        assert s2.joint_velocities[0] == pytest.approx(0.01, abs=1e-15)
        assert s2.joint_angles[0] == pytest.approx(1e-4, abs=1e-15)
        assert np.all(s2.joint_angles[1:] == 0)
        assert s2.base_x == 0.0

    def test_matches_ten_times_finer_integration(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            acts = rng.uniform(-1, 1, size=(100, 5))
            coarse = drive_arm(0.01, acts)
            fine = drive_arm(0.001, np.repeat(acts, 10, axis=0))
            assert np.max(np.abs(coarse.joint_angles - fine.joint_angles)) < 1e-2
            assert abs(coarse.base_x - fine.base_x) < 1e-2

    def test_angles_wrap_into_half_open_interval(self):
        cfg = SimConfig(dt=0.05, damping=0.0)
        s = ArticulatedRobotState(0.0, 0.0, (math.pi - 0.01, 0.0, 0.0, 0.0), (2.0, 0.0, 0.0, 0.0))
        s2 = arm_integrate(s, np.zeros(5), cfg)
        assert -math.pi < s2.joint_angles[0] <= math.pi
        assert s2.joint_angles[0] < 0  # passed the seam

    def test_base_clamped_at_rail_end(self):
        cfg = SimConfig(dt=0.1, damping=0.0, workspace=1.0)
        s = ArticulatedRobotState(0.99, 1.0, ZEROS, ZEROS)
        s2 = arm_integrate(s, np.zeros(5), cfg)
        assert s2.base_x == 1.0
        assert s2.base_speed == 0.0

    def test_nonfinite_action_faults(self):
        s = ArticulatedRobotState(0.0, 0.0, ZEROS, ZEROS)
        with pytest.raises(SimulationFault):
            step_robot(s, np.array([np.nan, 0, 0, 0, 0]), BIG)
        with pytest.raises(SimulationFault):
            step_robot(s, np.array([np.inf, 0, 0, 0, 0]), BIG)
        with pytest.raises(SimulationFault):
            arm_integrate(s, np.array([np.inf, 0, 0, 0, 0]), BIG)


def bits(points) -> bytes:
    return np.array(points, dtype=np.float64).tobytes()


def fk_oracle(base_x, angles, lengths):
    x, y = base_x, 0.0
    heading = 0.0
    for a, l in zip(angles, lengths):
        heading += a
        x += l * math.sin(heading)
        y += l * math.cos(heading)
    return np.array([x, y])


class TestKinematics:
    def test_straight_up_at_zero_angles(self):
        cfg = SimConfig(link_lengths=(0.1, 0.1, 0.1, 0.1))
        s = ArticulatedRobotState(0.0, 0.0, ZEROS, ZEROS)
        assert np.allclose(end_effector(s, cfg), [0.0, 0.4], atol=1e-15)

    def test_first_joint_quarter_turn_lays_arm_flat(self):
        cfg = SimConfig(link_lengths=(0.1, 0.1, 0.1, 0.1))
        s = ArticulatedRobotState(0.0, 0.0, (math.pi / 2, 0.0, 0.0, 0.0), ZEROS)
        assert np.allclose(end_effector(s, cfg), [0.4, 0.0], atol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        cfg = SimConfig(link_lengths=(0.3, 0.25, 0.2, 0.15))
        for _ in range(20):
            base_x = float(rng.uniform(-1, 1))
            angles = tuple(rng.uniform(-math.pi, math.pi, 4).tolist())
            s = ArticulatedRobotState(base_x, 0.0, angles, ZEROS)
            want = fk_oracle(s.base_x, s.joint_angles, cfg.link_lengths)
            assert np.allclose(end_effector(s, cfg), want, atol=1e-12)

    @given(
        st.floats(-1, 1),
        st.lists(st.floats(-math.pi, math.pi), min_size=4, max_size=4),
    )
    @settings(max_examples=80, deadline=None)
    def test_effector_within_reach(self, base_x, angles):
        cfg = SimConfig()
        s = ArticulatedRobotState(base_x, 0.0, tuple(angles), ZEROS)
        p = np.array(end_effector(s, cfg))
        reach = sum(cfg.link_lengths)
        assert np.linalg.norm(p - [base_x, 0.0]) <= reach + 1e-9

    def test_points_chain_is_consistent(self):
        cfg = SimConfig()
        s = ArticulatedRobotState(0.2, 0.0, (0.3, -0.4, 1.0, 0.2), ZEROS)
        pts = np.array(arm_points(s, cfg))
        assert pts.shape == (5, 2)
        for i in range(4):
            assert np.linalg.norm(pts[i + 1] - pts[i]) == pytest.approx(
                cfg.link_lengths[i], abs=1e-12
            )
        assert np.allclose(pts[-1], end_effector(s, cfg))

    def test_jacobian_matches_finite_difference(self):
        cfg = SimConfig()
        rng = np.random.default_rng(3)
        s = ArticulatedRobotState(0.1, 0.0, tuple(rng.uniform(-1, 1, 4).tolist()), ZEROS)
        jac = arm_jacobian(s, cfg)
        h = 1e-7
        fd = np.zeros((2, 5))
        for j in range(5):
            def shifted(eps):
                if j == 0:
                    return s._replace(base_x=s.base_x + eps)
                ang = list(s.angles)
                ang[j - 1] += eps
                return s._replace(angles=tuple(ang))

            ends = [np.array(end_effector(shifted(e), cfg)) for e in (h, -h)]
            fd[:, j] = (ends[0] - ends[1]) / (2 * h)
        assert np.max(np.abs(jac - fd)) < 1e-6


class TestLinkPoints:
    @given(
        base_x=st.floats(-1, 1),
        angles=st.lists(st.floats(-4, 4), min_size=4, max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_memo_equals_arm_points_and_is_read_only(self, base_x, angles):
        cfg = SimConfig()
        s = ArticulatedRobotState(base_x, 0.0, tuple(angles), ZEROS)
        pts = link_points(s, cfg)
        assert bits(pts) == bits(arm_points(s, cfg))
        assert link_points(s, cfg) is pts
        assert end_effector(s, cfg) is pts[-1]
        with pytest.raises(TypeError):
            pts[0] = (9.0, 9.0)
        # another config gets its own points
        long = SimConfig(link_lengths=(0.5, 0.25, 0.25, 0.5))
        assert bits(link_points(s, long)) == bits(arm_points(s, long))

    def test_memo_is_not_part_of_the_state(self):
        s = ArticulatedRobotState(0.1, 0.0, ZEROS, ZEROS)
        t = ArticulatedRobotState(0.1, 0.0, ZEROS, ZEROS)
        link_points(s, SimConfig())
        assert "_points" not in repr(s)
        assert (s.base_x, s.base_speed) == (t.base_x, t.base_speed)
        assert np.array_equal(s.joint_angles, t.joint_angles)
        assert np.array_equal(s.joint_velocities, t.joint_velocities)


class TestWrap:
    def test_seam_values(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)

    @given(st.floats(-50, 50))
    @settings(max_examples=100, deadline=None)
    def test_range_and_equivalence(self, a):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi + 1e-12
        assert math.cos(w) == pytest.approx(math.cos(a), abs=1e-9)
        assert math.sin(w) == pytest.approx(math.sin(a), abs=1e-9)


class TestGeometry:
    def test_point_segment_basic(self):
        a, b = np.array([0.0, -1.0]), np.array([0.0, 1.0])
        assert point_segment_distance(np.array([0.5, 0.0]), a, b) == pytest.approx(0.5)
        assert point_segment_distance(np.array([0.0, 2.0]), a, b) == pytest.approx(1.0)
        assert point_segment_distance(np.array([0.0, 0.3]), a, b) == pytest.approx(0.0)

    def test_degenerate_segment(self):
        a = np.array([1.0, 1.0])
        assert point_segment_distance(np.array([1.0, 2.0]), a, a) == pytest.approx(1.0)

    @pytest.mark.parametrize("x", [
        -0.0, 0.0, 1.0, 0.25, -1e-300, 5e-324, 1.0 + 2**-52, 2.0, -3.0,
        math.inf, -math.inf, math.nan, -math.nan,
    ])
    def test_clamp_has_np_clip_bits(self, x):
        for v in (x, np.float64(x)):
            want = np.float64(np.clip(v, 0.0, 1.0))
            assert np.float64(clamp01(v)).tobytes() == want.tobytes()

    @given(
        pts=st.lists(st.floats(-2, 2), min_size=6, max_size=6),
        degenerate=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_point_segment_distance_has_clip_form_bits(self, pts, degenerate):
        p, a, b = np.array(pts).reshape(3, 2)
        if degenerate:
            b = a.copy()
        ab = b - a
        denom = float(ab @ ab)
        if denom == 0.0:
            want = np.linalg.norm(p - a)
        else:
            t = float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
            want = np.linalg.norm(p - (a + t * ab))
        got = point_segment_distance(p, a, b)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_crossing_segments_have_zero_distance(self):
        cross = ([-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0])
        assert segments_within(*cross, 0.0)
        assert not segments_within(*cross, -1e-300)

    def test_parallel_segments(self):
        # 0.5 apart: within 0.5 exactly, not within one ulp less
        pair = ([0.0, 0.0], [1.0, 0.0], [0.0, 0.5], [1.0, 0.5])
        assert segments_within(*pair, 0.5)
        assert not segments_within(*pair, np.nextafter(0.5, 0.0))
        assert not segments_within(*pair, 0.49)


class TestSpeed:
    def test_point_speed_is_euclidean(self):
        w = WorldState(
            PointRobotState(0.0, 0.0, 3.0, 4.0), np.zeros(2)
        )
        assert robot_speed(w) == pytest.approx(5.0)

    def test_arm_speed_is_max_component(self):
        s = ArticulatedRobotState(0.0, -0.7, ZEROS, (0.2, -0.5, 0.1, 0.0))
        assert robot_speed(WorldState(s, np.zeros(2))) == pytest.approx(0.7)
