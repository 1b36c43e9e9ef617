"""The float kernels of the step path against reference twins.

The twins below are the numpy array code the step path ran before it
moved to Python floats: integrators, wall and rail clamps, obstacle
drift, arm kinematics, contact predicates, the per-world attribute views
and the whole `step_task`.  Every test checks the kernel against its twin
bit for bit.
The filtered contact predicates are checked against the exact comparison
they stand for, with radii placed within a few ulps of the distance.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canrl.attributes import (
    DOOR_PENALTY,
    OBSTACLE_PENALTY,
    ObstacleParams,
    _get_obstacle,
    advance_obstacle,
    checked_actions,
    full_view,
    make_attribute,
    obstacle_clearance,
    reset,
    robot_touches_disc,
    robot_columns,
    robot_touches_segment,
    step_task,
    target_reached,
)
from canrl import dynamics
from canrl.dynamics import (
    ArticulatedRobotState,
    PointRobotState,
    SimConfig,
    WorldState,
    action_limits,
    arm_integrate,
    arm_jacobian,
    arm_points,
    clamp01,
    link_points,
    planar_norm,
    planar_within,
    point_integrate,
    point_segment_distance,
    robot_speed,
    segment_within,
    segments_within,
    wrap_angle,
)
from canrl.errors import SimulationFault, TaskConfigError
from canrl.taskio import load_stock_task

# ---------------------------------------------------------------------------
# states from array-likes


def point(pos, vel):
    return PointRobotState(*map(float, pos), *map(float, vel))


def arm(base_x, base_speed, angles, jv):
    return ArticulatedRobotState(
        float(base_x), float(base_speed), tuple(map(float, angles)), tuple(map(float, jv))
    )


def disc(center, radius, vel):
    return ObstacleParams(*map(float, center), float(radius), *map(float, vel))


# ---------------------------------------------------------------------------
# reference twins: the array code


def ref_vector_norm(d):
    return math.sqrt(d.dot(d))


def ref_wrap_angles(a):
    return a - 2.0 * math.pi * np.ceil((a - math.pi) / (2.0 * math.pi))


def ref_clamp_to_walls(pos, vel, half):
    pos = pos.copy()
    vel = vel.copy()
    for i in range(pos.shape[0]):
        if pos[i] < -half:
            pos[i] = -half
            vel[i] = 0.0
        elif pos[i] > half:
            pos[i] = half
            vel[i] = 0.0
    return pos, vel


def ref_point_integrate(state, total_force, cfg):
    if not np.isfinite(total_force).all():
        raise SimulationFault("non-finite force")
    v = (1.0 - cfg.damping * cfg.dt) * state.velocity + (total_force / cfg.mass) * cfg.dt
    x = state.position + v * cfg.dt
    x, v = ref_clamp_to_walls(x, v, cfg.workspace)
    if not (np.isfinite(x).all() and np.isfinite(v).all()):
        raise SimulationFault("point state diverged")
    return point(x, v)


def ref_arm_integrate(state, generalized, cfg):
    if not np.isfinite(generalized).all():
        raise SimulationFault("non-finite action")
    torques, base_force = generalized[:4], generalized[4]
    decay = 1.0 - cfg.damping * cfg.dt
    jv = decay * state.joint_velocities + (torques / cfg.joint_inertia) * cfg.dt
    angles = ref_wrap_angles(state.joint_angles + jv * cfg.dt)
    bs = decay * state.base_speed + (base_force / cfg.mass) * cfg.dt
    bx = state.base_x + bs * cfg.dt
    if bx < -cfg.workspace:
        bx, bs = -cfg.workspace, 0.0
    elif bx > cfg.workspace:
        bx, bs = cfg.workspace, 0.0
    if not (np.isfinite(angles).all() and np.isfinite(jv).all()):
        raise SimulationFault("arm state diverged")
    return arm(bx, bs, angles, jv)


def ref_advance_obstacle(obs, dt, half):
    c = obs.center + obs.velocity * dt
    v = obs.velocity.copy()
    lo, hi = -(half - obs.radius), (half - obs.radius)
    c = c.copy()
    for i in range(2):
        if c[i] < lo:
            c[i] = lo + (lo - c[i])
            v[i] = -v[i]
        elif c[i] > hi:
            c[i] = hi - (c[i] - hi)
            v[i] = -v[i]
    return disc(c, obs.radius, v)


def ref_arm_points(state, cfg):
    """Base anchor plus the far end of each link, shape (n_links+1, 2)."""
    lengths = np.asarray(cfg.link_lengths, dtype=np.float64)
    cum = np.cumsum(state.joint_angles)
    pts = np.empty((len(cfg.link_lengths) + 1, 2))
    pts[0] = (state.base_x, 0.0)
    pts[1:, 0] = state.base_x + np.cumsum(lengths * np.sin(cum))
    pts[1:, 1] = 0.0 + np.cumsum(lengths * np.cos(cum))
    return pts


def ref_reference_point(world, cfg):
    if world.robot.robot_kind == "point":
        return world.robot.position
    return ref_arm_points(world.robot, cfg)[-1]


def ref_point_segment_distance(p, a, b):
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return ref_vector_norm(p - a)
    t = clamp01((p - a) @ ab / denom)
    return ref_vector_norm(p - (a + t * ab))


def _orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def ref_segment_segment_distance(p0, p1, q0, q1):
    d1, d2 = _orient(q0, q1, p0), _orient(q0, q1, p1)
    d3, d4 = _orient(p0, p1, q0), _orient(p0, p1, q1)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return 0.0
    return min(
        ref_point_segment_distance(p0, q0, q1),
        ref_point_segment_distance(p1, q0, q1),
        ref_point_segment_distance(q0, p0, p1),
        ref_point_segment_distance(q1, p0, p1),
    )


def ref_touches_disc(world, cfg, obs):
    if world.robot.robot_kind == "point":
        gap = ref_vector_norm(world.robot.position - obs.center)
        return gap <= obs.radius + cfg.robot_radius
    pts = ref_arm_points(world.robot, cfg)
    reach = obs.radius + cfg.link_radius
    return any(
        ref_point_segment_distance(obs.center, pts[i], pts[i + 1]) <= reach
        for i in range(len(pts) - 1)
    )


def ref_touches_segment(world, cfg, seg):
    if world.robot.robot_kind == "point":
        pos = world.robot.position
        prev = pos - world.robot.velocity * cfg.dt
        return bool(ref_segment_segment_distance(prev, pos, seg[0], seg[1]) <= cfg.robot_radius)
    pts = ref_arm_points(world.robot, cfg)
    return any(
        ref_segment_segment_distance(pts[i], pts[i + 1], seg[0], seg[1]) <= cfg.link_radius
        for i in range(len(pts) - 1)
    )


def ref_obstacle_clearance(world, cfg, obs):
    if world.robot.robot_kind == "point":
        gap = ref_vector_norm(world.robot.position - obs.center)
        return gap - obs.radius - cfg.robot_radius
    pts = ref_arm_points(world.robot, cfg)
    gap = min(
        ref_point_segment_distance(obs.center, pts[i], pts[i + 1])
        for i in range(len(pts) - 1)
    )
    return gap - obs.radius - cfg.link_radius


def ref_target_reached(world, cfg):
    return ref_vector_norm(ref_reference_point(world, cfg) - world.target_position) <= cfg.target_radius


def ref_robot_speed(world):
    if world.robot.robot_kind == "point":
        return ref_vector_norm(world.robot.velocity)
    r = world.robot
    return float(max(np.max(np.abs(r.joint_velocities)), abs(r.base_speed)))


def ref_robot_vector(world):
    r = world.robot
    if world.robot.robot_kind == "point":
        return np.concatenate([r.position, r.velocity])
    return np.concatenate([[r.base_x, r.base_speed], r.joint_angles, r.joint_velocities])


def ref_extract(kind, world, cfg, entity_index=0):
    """One world's view, as the per-world `extract` built it."""
    ref = ref_reference_point(world, cfg)
    robot = ref_robot_vector(world)
    if kind == "reach":
        return np.concatenate([robot, world.target_position - ref])
    if kind == "obstacle":
        obs = _get_obstacle(world, entity_index)
        return np.concatenate([robot, obs.center - ref, obs.velocity, [obs.radius]])
    if kind == "door":
        seg = world.door.segment
        wait = world.door.time_to_next_open(world.time)
        return np.concatenate([robot, seg[0] - ref, seg[1] - ref, [wait]])
    if kind == "speed":
        return np.concatenate([robot, [world.speed_profile.limit(world.time)]])
    return np.concatenate([robot, world.disturbance.force])


def ref_step(task, world, action):
    """`step_task` as the array code ran it."""
    cfg = task.cfg
    action = np.asarray(action, dtype=np.float64)
    if not np.isfinite(action).all():
        raise SimulationFault("non-finite action")
    limits = action_limits(task.robot, cfg)
    commanded = np.clip(action, -limits, limits)
    effective = commanded
    if world.disturbance is not None:
        push = world.disturbance.force
        if task.robot == "point":
            effective = effective + push
        else:
            effective = effective + arm_jacobian(world.robot, cfg).T @ push
    if task.robot == "point":
        robot = ref_point_integrate(world.robot, effective, cfg)
    else:
        robot = ref_arm_integrate(world.robot, effective, cfg)
    nxt = WorldState(
        robot, world.target_position, world.time + cfg.dt, world.step_index + 1,
        [ref_advance_obstacle(o, cfg.dt, cfg.workspace) for o in world.obstacles],
        world.door, world.speed_profile, world.disturbance,
    )
    rewards = [1.0 if ref_target_reached(nxt, cfg) else 0.0]
    events = ["reached_target"] if rewards[0] == 1.0 else []
    for spec in task.addons:
        if spec.kind == "obstacle":
            touch = ref_touches_disc(nxt, cfg, nxt.obstacles[spec.entity_index])
            r = OBSTACLE_PENALTY if touch else 0.0
            event = f"touched_obstacle_{spec.entity_index}"
        elif spec.kind == "door":
            closed = not nxt.door.is_open(nxt.time)
            touch = closed and ref_touches_segment(nxt, cfg, nxt.door.segment)
            r = DOOR_PENALTY if touch else 0.0
            event = "touched_door"
        elif spec.kind == "speed":
            prof = nxt.speed_profile
            excess = ref_robot_speed(nxt) - prof.limit(nxt.time)
            r = -prof.penalty_coeff * max(excess, 0.0)
            event = "speed_violation"
        else:
            r, event = 0.0, None
        rewards.append(r)
        if event is not None and r < 0.0:
            events.append(event)
    done = rewards[0] == 1.0 or nxt.step_index >= cfg.horizon
    return nxt, rewards, done, events


# ---------------------------------------------------------------------------
# helpers


def bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def same_robot(a, b) -> bool:
    if isinstance(a, PointRobotState):
        return bits(a.position) == bits(b.position) and bits(a.velocity) == bits(b.velocity)
    return (
        bits(a.base_x) == bits(b.base_x)
        and bits(a.base_speed) == bits(b.base_speed)
        and bits(a.joint_angles) == bits(b.joint_angles)
        and bits(a.joint_velocities) == bits(b.joint_velocities)
    )


def same_world(a, b) -> bool:
    return (
        same_robot(a.robot, b.robot)
        and bits(a.time) == bits(b.time)
        and a.step_index == b.step_index
        and len(a.obstacles) == len(b.obstacles)
        and all(
            bits(o.center) == bits(p.center) and bits(o.velocity) == bits(p.velocity)
            and o.radius == p.radius
            for o, p in zip(a.obstacles, b.obstacles)
        )
    )


def coord(limit: float):
    """A float in [-limit, limit], often exactly on a wall or a seam."""
    return st.one_of(
        st.floats(-limit, limit),
        st.sampled_from([-limit, limit, 0.0, -0.0, 1.0, -1.0, 0.9, -0.9, 0.97, -0.97]),
    )


def vec(n, limit):
    return st.lists(coord(limit), min_size=n, max_size=n).map(np.array)


def point_state():
    return st.builds(point, vec(2, 1.2), vec(2, 3.0))


def arm_state():
    return st.builds(arm, coord(1.2), coord(2.0), vec(4, 4.0), vec(4, 3.0))


CONFIGS = st.sampled_from([
    SimConfig(),
    SimConfig(dt=0.1, damping=0.0, mass=2.0, workspace=0.5, joint_inertia=0.3),
    SimConfig(dt=0.01, damping=1.3, mass=0.7, link_lengths=(0.5, 0.1, 0.3, 0.2)),
])

POINT_TASKS = ["point_reach", "point_obstacle", "point_two_obstacles", "point_door",
               "point_speed", "point_force"]
ARM_TASKS = ["arm_reach", "arm_obstacle", "arm_door", "arm_speed", "arm_force"]
TASKS = {name: load_stock_task(name).task for name in POINT_TASKS + ARM_TASKS}


# ---------------------------------------------------------------------------
# integrators, clamps and drift


class TestIntegrators:
    @given(pos=vec(2, 1.5), vel=vec(2, 3.0), force=vec(2, 40.0), cfg=CONFIGS)
    @settings(max_examples=400, deadline=None)
    def test_point_integrate(self, pos, vel, force, cfg):
        state = point(pos, vel)
        want = ref_point_integrate(state, force, cfg)
        assert same_robot(point_integrate(state, force, cfg), want)
        assert same_robot(point_integrate(state, force.tolist(), cfg), want)

    @given(
        base=coord(1.5), speed=coord(3.0), angles=vec(4, 10.0), jv=vec(4, 5.0),
        action=vec(5, 40.0), cfg=CONFIGS,
    )
    @settings(max_examples=400, deadline=None)
    def test_arm_integrate(self, base, speed, angles, jv, action, cfg):
        state = arm(base, speed, angles, jv)
        want = ref_arm_integrate(state, action, cfg)
        assert same_robot(arm_integrate(state, action, cfg), want)
        assert same_robot(arm_integrate(state, action.tolist(), cfg), want)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_input_faults_like_the_twin(self, bad):
        cfg = SimConfig()
        still = point(np.zeros(2), np.zeros(2))
        folded = arm(0.0, 0.0, np.zeros(4), np.zeros(4))
        for run in (point_integrate, ref_point_integrate):
            with pytest.raises(SimulationFault):
                run(still, np.array([bad, 0.0]), cfg)
        for run in (arm_integrate, ref_arm_integrate):
            with pytest.raises(SimulationFault):
                run(folded, np.array([0.0, 0.0, bad, 0.0, 0.0]), cfg)
        # a state that overflows on the step faults in both too
        huge = arm(0.0, 0.0, np.zeros(4), np.full(4, 1.7e308))
        for run in (arm_integrate, ref_arm_integrate):
            with pytest.raises(SimulationFault), np.errstate(over="ignore", invalid="ignore"):
                run(huge, np.full(5, 1.0), SimConfig(damping=-10.0))

    @given(st.one_of(
        st.floats(-1e6, 1e6),
        st.sampled_from([0.0, -0.0, math.pi, -math.pi, 3 * math.pi, -3 * math.pi,
                         2 * math.pi, -2 * math.pi, 1e-300, -1e-300, 5e-324]),
    ))
    @settings(max_examples=400, deadline=None)
    def test_wrap_angle(self, a):
        assert bits(wrap_angle(a)) == bits(ref_wrap_angles(np.array([a]))[0])

    @given(center=vec(2, 1.2), vel=vec(2, 2.0), radius=st.sampled_from([0.05, 0.1, 0.3]),
           dt=st.sampled_from([0.05, 0.1, 0.5]), half=st.sampled_from([1.0, 0.5]))
    @settings(max_examples=400, deadline=None)
    def test_advance_obstacle(self, center, vel, radius, dt, half):
        obs = disc(center, radius, vel)
        got = advance_obstacle(obs, dt, half)
        want = ref_advance_obstacle(obs, dt, half)
        assert bits(got.center) == bits(want.center)
        assert bits(got.velocity) == bits(want.velocity)
        assert got.radius == want.radius


# ---------------------------------------------------------------------------
# arm kinematics and the states themselves


ANGLE = st.one_of(
    st.floats(-10.0, 10.0),
    st.floats(-1e9, 1e9),
    st.sampled_from([0.0, -0.0, math.pi, -math.pi, 1e15, -1e15, 5e-324]),
)


class TestArmPoints:
    @given(
        cfg=CONFIGS, wall=st.sampled_from([None, 1.0, -1.0]), base=coord(1.2),
        angles=st.lists(ANGLE, min_size=4, max_size=4),
    )
    @settings(max_examples=1000, deadline=None)
    def test_float_points_are_the_array_twin(self, cfg, wall, base, angles):
        # base at a wall (+-workspace), large angles and -0.0 included
        base_x = base if wall is None else wall * cfg.workspace
        s = arm(base_x, 0.0, angles, np.zeros(4))
        want = ref_arm_points(s, cfg).tobytes()
        assert bits(arm_points(s, cfg)) == want
        assert bits(link_points(s, cfg)) == want

    def test_signed_zeros(self):
        # cumsum keeps a leading -0.0, and base_x + (-0.0) keeps -0.0 only
        # when base_x is -0.0 itself
        for base_x in (0.0, -0.0):
            for angles in ([-0.0] * 4, [0.0, -0.0, 0.0, -0.0], [math.pi, -0.0, 0.0, -math.pi]):
                s = arm(base_x, 0.0, angles, np.zeros(4))
                assert bits(arm_points(s, SimConfig())) == ref_arm_points(s, SimConfig()).tobytes()


class TestStates:
    @given(robot=st.one_of(point_state(), arm_state()), center=vec(2, 1.0), vel=vec(2, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_array_properties_are_fresh_float64_arrays(self, robot, center, vel):
        obs = disc(center, 0.1, vel)
        views = [("center", (obs.cx, obs.cy), obs), ("velocity", (obs.vx, obs.vy), obs)]
        if isinstance(robot, PointRobotState):
            views += [("position", (robot.x, robot.y), robot),
                      ("velocity", (robot.vx, robot.vy), robot)]
        else:
            views += [("joint_angles", robot.angles, robot),
                      ("joint_velocities", robot.rates, robot)]
        for name, fields, state in views:
            arr = getattr(state, name)
            assert arr.dtype == np.float64 and arr.shape == (len(fields),)
            assert arr.tobytes() == bits(fields)
            arr[0] = 99.0  # a fresh copy: writing it leaves the state alone
            assert getattr(state, name) is not arr
            assert getattr(state, name).tobytes() == bits(fields)

    def test_fields_cannot_be_assigned(self):
        p = point([0.1, 0.2], [0.3, 0.4])
        a = arm(0.1, 0.2, np.zeros(4), np.ones(4))
        o = disc([0.1, 0.2], 0.1, [0.3, 0.4])
        for state, name in [
            (p, "x"), (p, "vy"), (p, "position"), (p, "velocity"),
            (a, "base_x"), (a, "base_speed"), (a, "angles"), (a, "rates"),
            (a, "joint_angles"), (a, "joint_velocities"),
            (o, "cx"), (o, "radius"), (o, "vy"), (o, "center"), (o, "velocity"),
        ]:
            with pytest.raises(AttributeError):
                setattr(state, name, 0.0)
        assert p == (0.1, 0.2, 0.3, 0.4) and o == (0.1, 0.2, 0.1, 0.3, 0.4)
        assert a == (0.1, 0.2, (0.0,) * 4, (1.0,) * 4)

    def test_robot_kind_is_a_class_attribute(self):
        assert (PointRobotState.robot_kind, ArticulatedRobotState.robot_kind) == ("point", "arm")
        assert "robot_kind" not in PointRobotState._fields + ArticulatedRobotState._fields


# ---------------------------------------------------------------------------
# contact predicates and views


class TestPredicates:
    @given(
        p=vec(2, 1.0), a=vec(2, 1.0), b=vec(2, 1.0), degenerate=st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_point_segment_distance(self, p, a, b, degenerate):
        if degenerate:
            b = a.copy()
        want = ref_point_segment_distance(p, a, b)
        assert bits(point_segment_distance(p, a, b)) == bits(want)
        assert bits(point_segment_distance(p.tolist(), a.tolist(), b.tolist())) == bits(want)

    @given(
        robot=st.one_of(point_state(), arm_state()),
        target=vec(2, 1.0),
        center=vec(2, 1.0),
        radius=st.sampled_from([0.0, 0.1, 0.25]),
        seg=vec(4, 1.0).map(lambda v: v.reshape(2, 2)),
        degenerate=st.booleans(),
        cfg=CONFIGS,
    )
    @settings(max_examples=400, deadline=None)
    def test_contacts(self, robot, target, center, radius, seg, degenerate, cfg):
        if degenerate:
            seg = np.array([seg[0], seg[0]])
        world = WorldState(robot, target)
        obs = disc(center, radius, np.zeros(2))
        assert robot_touches_disc(world, cfg, obs) == ref_touches_disc(world, cfg, obs)
        assert robot_touches_segment(world, cfg, seg) == ref_touches_segment(world, cfg, seg)
        assert target_reached(world, cfg) == ref_target_reached(world, cfg)
        assert bits(obstacle_clearance(world, cfg, obs)) == bits(
            ref_obstacle_clearance(world, cfg, obs)
        )
        assert bits(robot_speed(world)) == bits(ref_robot_speed(world))

    def test_contacts_at_the_threshold(self):
        # a gap of exactly the contact range touches, one ulp more does not
        cfg = SimConfig()
        reach = 0.1 + cfg.robot_radius
        for gap in (reach, np.nextafter(reach, 1.0), np.nextafter(reach, 0.0)):
            world = WorldState(point([gap, 0.0], np.zeros(2)), np.ones(2))
            obs = disc(np.zeros(2), 0.1, np.zeros(2))
            assert robot_touches_disc(world, cfg, obs) == ref_touches_disc(world, cfg, obs)

    def test_door_contact_at_the_threshold(self):
        # a point robot and an arm standing parallel to a door, at the
        # contact range, an ulp either side and 1e-9 either side
        cfg = SimConfig()
        door = np.array([[0.0, -0.5], [0.0, 0.5]])
        for robot_kind, contact in (("point", cfg.robot_radius), ("arm", cfg.link_radius)):
            seen = []
            for gap in near_radii(contact):
                if robot_kind == "point":
                    robot = point([gap, 0.0], np.zeros(2))
                else:
                    robot = arm(-gap, 0.0, np.zeros(4), np.zeros(4))
                world = WorldState(robot, np.ones(2))
                got = robot_touches_segment(world, cfg, door)
                assert got == ref_touches_segment(world, cfg, door)
                seen.append(got)
            assert seen[-2:] == [False, True]  # 1e-9 past the range, 1e-9 inside
        # a fast point robot that crossed the door within the step touches it
        world = WorldState(point([0.05, 0.0], [2.0, 0.0]), np.ones(2))
        assert robot_touches_segment(world, cfg, door) and ref_touches_segment(world, cfg, door)

    def test_arm_contact_at_the_threshold(self):
        # an upright arm's third link beside a disc, at the contact range,
        # an ulp either side and 1e-9 either side
        cfg = SimConfig()
        world = WorldState(arm(0.0, 0.0, np.zeros(4), np.zeros(4)), np.ones(2))
        seen = []
        for gap in near_radii(0.1 + cfg.link_radius):
            obs = disc([gap, 0.6], 0.1, np.zeros(2))
            got = robot_touches_disc(world, cfg, obs)
            assert got == ref_touches_disc(world, cfg, obs)
            seen.append(got)
        assert seen[-2:] == [False, True]


def near_radii(r):
    """r, an ulp either side, then 1e-9 past and 1e-9 inside."""
    return [r, np.nextafter(r, 1.0), np.nextafter(r, 0.0), r + 1e-9, r - 1e-9]


# ---------------------------------------------------------------------------
# filtered predicates against their exact forms


def nudge(g, k):
    """g moved k ulps up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        g = np.nextafter(g, math.inf if k > 0 else -math.inf)
    return float(g)


def radius_near(g):
    """A radius a few ulps or up to 1e-9 from the distance g, or anywhere."""
    return st.one_of(
        st.integers(-4, 4).map(lambda k: nudge(g, k)),
        st.floats(-1e-9, 1e-9).map(lambda d: g + d),
        st.floats(0.0, 30.0),
    )


COORD = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0, 1e-170, -3e-200, 10.0]))


def short_segment(a, data):
    """b: a itself, a point up to 1e-15..1 away, or anywhere."""
    how = data.draw(st.sampled_from(["same", "short", "free"]))
    if how == "same":
        return list(a)
    if how == "short":
        scale = 10.0 ** -data.draw(st.integers(0, 15))
        return [v + scale * data.draw(st.floats(-1.0, 1.0)) for v in a]
    return [data.draw(COORD), data.draw(COORD)]


class TestFilteredPredicates:
    @given(x=COORD, y=COORD, data=st.data())
    @settings(max_examples=1500, deadline=None)
    def test_planar_within_is_the_exact_comparison(self, x, y, data):
        r = data.draw(radius_near(planar_norm(x, y)))
        assert planar_within(x, y, r) == (planar_norm(x, y) <= r)

    @given(p=st.tuples(COORD, COORD), a=st.tuples(COORD, COORD), data=st.data())
    @settings(max_examples=1500, deadline=None)
    def test_segment_within_is_the_exact_comparison(self, p, a, data):
        b = short_segment(a, data)
        r = data.draw(radius_near(point_segment_distance(p, a, b)))
        assert segment_within(p, a, b, r) == (point_segment_distance(p, a, b) <= r)

    @given(pts=st.lists(st.tuples(COORD, COORD), min_size=4, max_size=4), data=st.data())
    @settings(max_examples=800, deadline=None)
    def test_segments_within_is_the_exact_comparison(self, pts, data):
        p0, p1, q0, q1 = (np.array(v) for v in pts)
        d = ref_segment_segment_distance(p0, p1, q0, q1)
        r = data.draw(st.one_of(radius_near(d), st.sampled_from([0.0, -0.0, -1e-300])))
        assert segments_within(*pts, r) == (d <= r)

    @pytest.mark.parametrize("case", [
        (1e160, 1e160, 1.5e160), (1e-170, 2e-170, 2.2e-170), (math.inf, 0.0, 1.0),
        (math.nan, 0.0, 1.0), (3.0, 4.0, math.inf), (3.0, 4.0, -0.0),
        # x*x + y*y is finite here, the fused dot overflows
        (6.5289339677169235e153, 1.1710778570676833e154, 2e154),
    ])
    def test_predicates_at_the_range_edges(self, case):
        x, y, r = case
        with np.errstate(over="ignore", invalid="ignore"):
            assert planar_within(x, y, r) == (planar_norm(x, y) <= r)
            # the nearest point of the segment is its end at the origin
            seg = ([x, y], [0.0, 0.0], [-1.0, 0.0])
            assert segment_within(*seg, r) == (point_segment_distance(*seg) <= r)

    def test_exact_form_decides_inside_the_band(self, monkeypatch):
        # radii a few ulps from the distance always take the exact form,
        # and the float distance alone would have answered some wrongly
        rng = np.random.default_rng(0)
        planar = [rng.uniform(-10.0, 10.0, 2).tolist() for _ in range(2000)]
        planar = [(x, y, nudge(planar_norm(x, y), int(rng.integers(-2, 3)))) for x, y in planar]
        segs = [rng.uniform(-10.0, 10.0, (3, 2)).tolist() for _ in range(2000)]
        segs = [(p, a, b, nudge(point_segment_distance(p, a, b), int(rng.integers(-2, 3))))
                for p, a, b in segs]
        want = [planar_norm(x, y) <= r for x, y, r in planar]
        want_seg = [point_segment_distance(p, a, b) <= r for p, a, b, r in segs]
        wrong = sum((math.sqrt(x * x + y * y) <= r) != w for (x, y, r), w in zip(planar, want))
        calls = count_exact_calls(monkeypatch)
        assert [planar_within(*c) for c in planar] == want
        assert len(calls) == len(planar) and wrong > 0
        calls.clear()
        assert [segment_within(*c) for c in segs] == want_seg
        # each fallback runs the exact distance, which runs one norm
        assert len(calls) == 2 * len(segs)

    def test_float_form_decides_outside_the_band(self, monkeypatch):
        rng = np.random.default_rng(1)
        cases = []
        for _ in range(500):
            x, y, d = rng.uniform(-10.0, 10.0, 3).tolist()
            p, a, b = rng.uniform(-10.0, 10.0, (3, 2)).tolist()
            off = math.copysign(1e-6, d)
            cases.append((x, y, planar_norm(x, y) + off, p, a, b,
                          point_segment_distance(p, a, b) + off, d > 0))
        calls = count_exact_calls(monkeypatch)
        for x, y, r, p, a, b, r_seg, inside in cases:
            assert planar_within(x, y, r) == inside
            assert segment_within(p, a, b, r_seg) == inside
        assert not calls


def count_exact_calls(monkeypatch) -> list:
    """Record every call of the exact forms the filtered predicates fall
    back to."""
    calls = []
    for name in ("planar_norm", "point_segment_distance"):
        exact = getattr(dynamics, name)
        monkeypatch.setattr(dynamics, name, lambda *v, f=exact: calls.append(1) or f(*v))
    return calls


def task_worlds(name, seeds, level):
    task = TASKS[name]
    return task, [reset(task, level, np.random.default_rng(s)) for s in seeds]


class TestViews:
    @pytest.mark.parametrize("name", POINT_TASKS + ARM_TASKS)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 9), level=st.floats(0.0, 1.0))
    @settings(max_examples=15, deadline=None)
    def test_every_kind_matches_per_world_views(self, name, seed, n, level):
        task, worlds = task_worlds(name, range(seed, seed + n), level)
        # move the worlds on a little, so time, doors and obstacles vary
        rng = np.random.default_rng(seed)
        worlds = [
            step_task(task, w, rng.uniform(-2, 2, task.action_dim))[0] for w in worlds
        ]
        for spec in task.specs:
            want = np.array([
                ref_extract(spec.kind, w, task.cfg, spec.entity_index) for w in worlds
            ])
            got = spec.extract(worlds)
            assert got.shape == (n, spec.state_dim)
            assert got.tobytes() == want.tobytes()

    # batch sizes for the gathers: one world, a few, and more than an arm
    # tick ever holds
    BATCHES = (1, 5, 64)

    @pytest.mark.parametrize("robot", ["point", "arm"])
    @pytest.mark.parametrize("kind", ["reach", "obstacle", "door", "speed", "force"])
    def test_each_kind_is_one_row_per_world(self, robot, kind):
        spec = make_attribute(kind, robot, SimConfig())
        task = TASKS[f"{robot}_{kind}"]
        assert task.specs[-1].kind == kind
        for n in self.BATCHES:
            _, worlds = task_worlds(f"{robot}_{kind}", range(n), 1.0)
            rows = spec.extract(worlds)
            assert rows.shape == (n, spec.state_dim)
            for i, w in enumerate(worlds):
                assert rows[i].tobytes() == spec.extract([w])[0].tobytes()

    @pytest.mark.parametrize("name", POINT_TASKS + ARM_TASKS)
    def test_shared_columns_match_each_views_own(self, name):
        for n in self.BATCHES:
            task, worlds = task_worlds(name, range(n), 1.0)
            columns = robot_columns(worlds, task.robot, task.cfg)
            for spec in task.specs:
                assert spec.extract(worlds, columns).tobytes() == spec.extract(worlds).tobytes()
            want = np.concatenate([spec.extract(worlds) for spec in task.specs], axis=1)
            assert full_view(task, worlds).tobytes() == want.tobytes()
        assert task.specs is task.specs

    @pytest.mark.parametrize("robot", ["point", "arm"])
    def test_world_missing_its_obstacle_fails_the_batched_view(self, robot):
        spec = make_attribute("obstacle", robot, SimConfig(), entity_index=1)
        _, worlds = task_worlds(f"{robot}_obstacle", range(3), 1.0)  # one obstacle each
        with pytest.raises(TaskConfigError, match="view needs obstacle 1, world has 1"):
            spec.extract(worlds)
        with pytest.raises(TaskConfigError, match="view needs obstacle 1, world has 1"):
            spec.reward(worlds[0], [0.0] * 2)


# ---------------------------------------------------------------------------
# the whole step


def action_for(n):
    """Actions inside and well beyond the actuator limits, with -0.0."""
    return st.lists(
        st.one_of(st.floats(-3.0, 3.0), st.sampled_from([-0.0, 0.0, 1.0, -1.0, 50.0])),
        min_size=n, max_size=n,
    ).map(np.array)


class TestStepTask:
    @pytest.mark.parametrize("name", POINT_TASKS + ARM_TASKS)
    @given(seed=st.integers(0, 10_000), level=st.floats(0.0, 1.0), data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_episode_matches_twin(self, name, seed, level, data):
        task = TASKS[name]
        world = reset(task, level, np.random.default_rng(seed))
        twin = world
        checked = world
        limits = action_limits(task.robot, task.cfg)
        for _ in range(40):
            action = data.draw(action_for(task.action_dim))
            # the row run_episodes hands step_task: floats with np.clip's bits
            (row,) = checked_actions(task, action[None])
            assert bits(row) == bits(np.clip(action, -limits, limits))
            world, rewards, done, events = step_task(task, world, action)
            checked, checked_r, checked_done, checked_events = step_task(task, checked, row)
            twin, want_r, want_done, want_events = ref_step(task, twin, action)
            assert same_world(world, twin) and same_world(checked, twin)
            assert bits(rewards) == bits(want_r) == bits(checked_r)
            assert (done, events) == (want_done, want_events) == (checked_done, checked_events)
            if done:
                break

    @pytest.mark.parametrize("name", ["point_two_obstacles", "point_door", "arm_obstacle"])
    @given(seed=st.integers(0, 10_000), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_states_at_and_past_the_walls(self, name, seed, data):
        task = TASKS[name]
        world = reset(task, 1.0, np.random.default_rng(seed))
        half = task.cfg.workspace
        if task.robot == "point":
            world.robot = point(data.draw(vec(2, half + 0.2)), data.draw(vec(2, 3.0)))
        else:
            world.robot = arm(
                data.draw(coord(half + 0.2)), data.draw(coord(3.0)),
                data.draw(vec(4, 4.0)), data.draw(vec(4, 3.0)),
            )
        obstacles = []
        for o in world.obstacles:
            lim = half - o.radius + 0.05
            center = data.draw(vec(2, lim))
            obstacles.append(disc(center, o.radius, data.draw(vec(2, 2.0))))
        world.obstacles = obstacles
        action = data.draw(action_for(task.action_dim))
        got = step_task(task, world, action)
        want = ref_step(task, world, action)
        assert same_world(got[0], want[0])
        assert bits(got[1]) == bits(want[1])
        assert got[2:] == want[2:]
