"""Attribute rewards, views, reset sampling, and the environment step."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canrl.attributes import (
    DOOR_PENALTY,
    OBSTACLE_PENALTY,
    AddonSetup,
    DisturbanceForce,
    DoorSchedule,
    Nominal,
    ObstacleParams,
    SpeedLimitProfile,
    advance_obstacle,
    build_task,
    door_reward,
    full_view,
    full_view_dim,
    make_attribute,
    obstacle_reward,
    periodic_door_schedule,
    reaching_reward,
    reset,
    run_episodes,
    speed_reward,
    step_task,
    view_dim,
)
from canrl.dynamics import (
    ArticulatedRobotState,
    PointRobotState,
    SimConfig,
    WorldState,
    arm_jacobian,
    end_effector,
)
from canrl.errors import DimensionError, InfeasibleTaskError, SimulationFault, TaskConfigError
from canrl.taskio import (
    STOCK_TASK_NAMES,
    TASKS_DIR,
    load_stock_task,
    load_task,
    point_sim_config,
)

CFG = point_sim_config()


def point_world(pos, vel=(0.0, 0.0), target=(0.5, 0.0), t=0.0, **extras):
    return WorldState(
        PointRobotState(*map(float, pos), *map(float, vel)),
        np.asarray(target, float),
        time=t,
        **extras,
    )


def view(spec, world):
    """One world's row of a batched view."""
    return spec.extract([world])[0]


class TestRewardTable:
    def test_reaching_inside_and_outside(self):
        assert reaching_reward(point_world([0.5, 0.0]), CFG) == 1.0
        assert reaching_reward(point_world([0.5, CFG.target_radius]), CFG) == 1.0
        assert reaching_reward(point_world([0.0, 0.0]), CFG) == 0.0

    def test_obstacle_touch_penalty(self):
        obs = ObstacleParams(0.0, 0.0, 0.1, 0.0, 0.0)
        touching = point_world([0.1 + CFG.robot_radius - 1e-6, 0.0])
        clear = point_world([0.5, 0.5])
        assert obstacle_reward(touching, CFG, obs) == OBSTACLE_PENALTY
        assert obstacle_reward(clear, CFG, obs) == 0.0

    def test_door_penalty_only_while_closed(self):
        seg = np.array([[0.0, -0.5], [0.0, 0.5]])
        door = DoorSchedule(seg, [(1.0, 2.0)])
        at_door = point_world([0.01, 0.0], t=0.5)
        assert door_reward(at_door, CFG, door) == DOOR_PENALTY
        open_now = point_world([0.01, 0.0], t=1.5)
        assert door_reward(open_now, CFG, door) == 0.0
        away = point_world([0.7, 0.0], t=0.5)
        assert door_reward(away, CFG, door) == 0.0

    def test_speed_penalty_is_linear_in_excess(self):
        prof = SpeedLimitProfile(np.array([0.0, 10.0]), np.array([1.5, 1.5]))
        fast = point_world([0.0, 0.0], vel=[2.0, 0.0])
        slow = point_world([0.0, 0.0], vel=[1.0, 0.0])
        assert speed_reward(fast, prof) == pytest.approx(-0.3 * 0.5, abs=1e-12)
        assert speed_reward(slow, prof) == 0.0

    def test_force_attribute_reward_is_zero(self):
        spec = make_attribute("force", "point", CFG)
        w = point_world([0.0, 0.0], disturbance=DisturbanceForce(np.array([5.0, 5.0])))
        assert spec.reward(w, np.zeros(2)) == 0.0

    def test_arm_obstacle_uses_link_geometry(self):
        cfg = SimConfig(link_lengths=(0.25,) * 4, link_radius=0.03)
        arm = ArticulatedRobotState(0.0, 0.0, (0.0,) * 4, (0.0,) * 4)
        w = WorldState(arm, np.array([0.5, 0.5]))
        near_link = ObstacleParams(0.1, 0.5, 0.08, 0.0, 0.0)
        far = ObstacleParams(0.6, 0.5, 0.08, 0.0, 0.0)
        assert obstacle_reward(w, cfg, near_link) == OBSTACLE_PENALTY
        assert obstacle_reward(w, cfg, far) == 0.0


class TestViews:
    def test_view_dims(self):
        assert view_dim("reach", "point") == 6
        assert view_dim("obstacle", "point") == 9
        assert view_dim("door", "point") == 9
        assert view_dim("speed", "point") == 5
        assert view_dim("force", "point") == 6
        assert view_dim("reach", "arm") == 12
        assert view_dim("obstacle", "arm") == 15

    def test_base_view_uses_relative_target(self):
        spec = make_attribute("reach", "point", CFG)
        a = view(spec, point_world([0.0, 0.0], target=[0.5, 0.0]))
        b = view(spec, point_world([0.2, 0.2], target=[0.7, 0.2]))
        assert np.allclose(a[4:], b[4:])
        assert np.allclose(a[4:], [0.5, 0.0])

    def test_obstacle_view_ignores_target_and_other_obstacles(self):
        spec = make_attribute("obstacle", "point", CFG, entity_index=0)
        obs0 = ObstacleParams(0.1, 0.2, 0.1, 0.0, 0.25)
        obs1 = ObstacleParams(-0.4, 0.0, 0.1, 0.1, 0.0)
        obs1_moved = ObstacleParams(0.8, -0.8, 0.1, -0.1, 0.0)
        a = view(spec, point_world([0.0, 0.0], target=[0.5, 0.0], obstacles=[obs0, obs1]))
        b = view(spec, point_world([0.0, 0.0], target=[-0.5, 0.9], obstacles=[obs0, obs1_moved]))
        assert np.array_equal(a, b)

    def test_second_obstacle_binding(self):
        spec = make_attribute("obstacle", "point", CFG, entity_index=1)
        obs0 = ObstacleParams(0.1, 0.2, 0.1, 0.0, 0.0)
        obs1 = ObstacleParams(-0.4, 0.3, 0.15, 0.1, 0.0)
        v = view(spec, point_world([0.0, 0.0], obstacles=[obs0, obs1]))
        assert np.allclose(v[4:6], [-0.4, 0.3])
        assert v[8] == 0.15

    def test_door_view_has_wait_time(self):
        spec = make_attribute("door", "point", CFG)
        seg = np.array([[0.0, -0.5], [0.0, 0.5]])
        door = DoorSchedule(seg, [(1.0, 2.0)])
        v = view(spec, point_world([-0.2, 0.0], t=0.25, door=door))
        assert v.shape == (9,)
        assert v[-1] == pytest.approx(0.75)
        v_open = view(spec, point_world([-0.2, 0.0], t=1.5, door=door))
        assert v_open[-1] == 0.0

    def test_speed_view_tracks_profile(self):
        spec = make_attribute("speed", "point", CFG)
        prof = SpeedLimitProfile(np.array([0.0, 2.0]), np.array([1.0, 2.0]))
        v = view(spec, point_world([0, 0], t=1.0, speed_profile=prof))
        assert v[-1] == pytest.approx(1.5)

    def test_missing_entity_is_config_error(self):
        for kind in ("obstacle", "door", "speed", "force"):
            spec = make_attribute(kind, "point", CFG)
            with pytest.raises(TaskConfigError):
                view(spec, point_world([0, 0]))

    def test_full_view_is_concatenation(self):
        loaded = load_stock_task("point_obstacle")
        rng = np.random.default_rng(0)
        worlds = [reset(loaded.task, 0.5, rng) for _ in range(3)]
        v = full_view(loaded.task, worlds)
        assert v.shape == (3, full_view_dim(loaded.task))
        assert np.array_equal(v[:, :6], loaded.task.base.extract(worlds))
        assert np.array_equal(v[:, 6:], loaded.task.addons[0].extract(worlds))


class TestDoorSchedule:
    def test_periodic_intervals(self):
        seg = np.array([[0.0, -0.6], [0.0, 0.6]])
        door = periodic_door_schedule(seg, 2.5, 0.5, 0.0, 10.0)
        assert not door.is_open(0.0)
        assert not door.is_open(1.2)
        assert door.is_open(1.25)
        assert door.is_open(2.0)
        assert not door.is_open(2.5)
        assert door.is_open(3.8)
        assert door.time_to_next_open(0.0) == pytest.approx(1.25)
        assert door.time_to_next_open(2.6) == pytest.approx(1.15)
        assert door.time_to_next_open(1.3) == 0.0

    def test_phase_shifts_cycle(self):
        seg = np.array([[0.0, -0.6], [0.0, 0.6]])
        door = periodic_door_schedule(seg, 2.5, 0.5, 1.25, 10.0)
        assert door.is_open(0.0)  # phase puts us inside the open window
        assert not door.is_open(1.3)

    @given(st.floats(0.0, 2.5), st.floats(0.0, 9.0))
    @settings(max_examples=60, deadline=None)
    def test_phase_equivalence(self, phase, t):
        seg = np.array([[0.0, -0.6], [0.0, 0.6]])
        base = periodic_door_schedule(seg, 2.5, 0.5, 0.0, 20.0)
        shifted = periodic_door_schedule(seg, 2.5, 0.5, phase, 20.0)
        assert shifted.is_open(t) == base.is_open(t + phase)


class TestObstacleMotion:
    def test_straight_drift(self):
        o = ObstacleParams(0.0, 0.0, 0.1, 0.25, 0.0)
        o2 = advance_obstacle(o, 0.05, 1.0)
        assert np.allclose(o2.center, [0.0125, 0.0])

    def test_bounce_reverses_velocity(self):
        o = ObstacleParams(0.88, 0.0, 0.1, 1.0, 0.0)
        o2 = advance_obstacle(o, 0.05, 1.0)
        assert o2.velocity[0] == -1.0
        assert abs(o2.center[0]) <= 0.9

    @given(st.integers(0, 5000))
    @settings(max_examples=40, deadline=None)
    def test_stays_inside_arena(self, seed):
        rng = np.random.default_rng(seed)
        cx, cy = rng.uniform(-0.85, 0.85, 2).tolist()
        vx, vy = rng.uniform(-0.5, 0.5, 2).tolist()
        o = ObstacleParams(cx, cy, 0.1, vx, vy)
        for _ in range(200):
            o = advance_obstacle(o, 0.05, 1.0)
            assert np.all(np.abs(o.center) <= 0.9 + 1e-9)


class TestReset:
    def test_level_zero_is_nominal_and_deterministic(self):
        loaded = load_stock_task("point_obstacle")
        a = reset(loaded.task, 0.0, np.random.default_rng(1))
        b = reset(loaded.task, 0.0, np.random.default_rng(999))
        assert np.array_equal(a.robot.position, [-0.8, -0.55])
        assert np.array_equal(a.robot.velocity, [0.0, 0.0])
        assert np.array_equal(a.target_position, [0.8, 0.55])
        assert np.array_equal(a.robot.position, b.robot.position)
        assert np.array_equal(a.obstacles[0].center, b.obstacles[0].center)
        assert np.array_equal(a.obstacles[0].center, [0.0, 0.0])

    def test_rcl_level_zero_starts_on_target(self):
        loaded = load_stock_task("point_reach")
        w = reset(loaded.task, 0.0, np.random.default_rng(0), mode="rcl")
        assert np.array_equal(w.robot.position, w.target_position)

    def test_modes_agree_at_level_one(self):
        loaded = load_stock_task("point_obstacle")
        a = reset(loaded.task, 1.0, np.random.default_rng(7), mode="cl")
        b = reset(loaded.task, 1.0, np.random.default_rng(7), mode="rcl")
        assert np.array_equal(a.robot.position, b.robot.position)
        assert np.array_equal(a.robot.velocity, b.robot.velocity)
        assert np.array_equal(a.target_position, b.target_position)
        assert np.array_equal(a.obstacles[0].center, b.obstacles[0].center)
        assert np.array_equal(a.obstacles[0].velocity, b.obstacles[0].velocity)

    def test_arm_modes_agree_at_level_one(self):
        loaded = load_stock_task("arm_reach")
        a = reset(loaded.task, 1.0, np.random.default_rng(11), mode="cl")
        b = reset(loaded.task, 1.0, np.random.default_rng(11), mode="rcl")
        assert a.robot.base_x == b.robot.base_x
        assert np.array_equal(a.robot.joint_angles, b.robot.joint_angles)
        assert np.array_equal(a.target_position, b.target_position)

    def test_arm_rcl_level_zero_effector_on_target(self):
        loaded = load_stock_task("arm_reach")
        for seed in range(5):
            w = reset(loaded.task, 0.0, np.random.default_rng(seed), mode="rcl")
            ee = end_effector(w.robot, loaded.task.cfg)
            assert np.linalg.norm(ee - w.target_position) < 1e-12

    def test_arm_rcl_low_level_starts_near_target(self):
        loaded = load_stock_task("arm_reach")
        for seed in range(10):
            w = reset(loaded.task, 0.01, np.random.default_rng(seed), mode="rcl")
            ee = end_effector(w.robot, loaded.task.cfg)
            assert np.linalg.norm(ee - w.target_position) < loaded.task.cfg.target_radius

    def test_same_seed_same_world(self):
        loaded = load_stock_task("point_door")
        a = reset(loaded.task, 0.6, np.random.default_rng(5))
        b = reset(loaded.task, 0.6, np.random.default_rng(5))
        assert np.array_equal(a.robot.position, b.robot.position)
        assert a.door.open_intervals == b.door.open_intervals

    def test_level_one_covers_workspace(self):
        loaded = load_stock_task("point_reach")
        rng = np.random.default_rng(3)
        targets = np.array(
            [reset(loaded.task, 1.0, rng).target_position for _ in range(2000)]
        )
        for axis in range(2):
            assert targets[:, axis].min() < -0.9
            assert targets[:, axis].max() > 0.9

    def test_spread_grows_with_level(self):
        loaded = load_stock_task("point_reach")
        def spread(level, seed):
            rng = np.random.default_rng(seed)
            pts = np.array(
                [reset(loaded.task, level, rng).robot.position for _ in range(400)]
            )
            return pts.std(axis=0).sum()
        assert spread(0.05, 0) < spread(0.3, 1) < spread(1.0, 2)

    def test_never_spawns_touching_obstacle(self):
        loaded = load_stock_task("point_obstacle")
        rng = np.random.default_rng(11)
        for _ in range(300):
            w = reset(loaded.task, 1.0, rng)
            gap = np.linalg.norm(w.robot.position - w.obstacles[0].center)
            assert gap > w.obstacles[0].radius + CFG.robot_radius

    def test_never_spawns_target_on_door(self):
        loaded = load_stock_task("point_door")
        rng = np.random.default_rng(13)
        for _ in range(300):
            w = reset(loaded.task, 1.0, rng)
            assert abs(w.target_position[0]) > 1e-12 or not (
                -0.6 <= w.target_position[1] <= 0.6
            )

    def test_impossible_spawn_raises(self):
        d = load_stock_task("point_obstacle").raw
        d["addons"][0]["params"]["center"] = [-0.8, -0.55]  # on the nominal start
        from canrl.taskio import parse_task
        loaded = parse_task(d)
        with pytest.raises(InfeasibleTaskError):
            reset(loaded.task, 0.0, np.random.default_rng(0))

    def test_bad_level_rejected(self):
        loaded = load_stock_task("point_reach")
        with pytest.raises(ValueError):
            reset(loaded.task, 1.5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            reset(loaded.task, -0.1, np.random.default_rng(0))

    def test_arm_reset_level_zero(self):
        loaded = load_stock_task("arm_reach")
        w = reset(loaded.task, 0.0, np.random.default_rng(0))
        assert w.robot.base_x == -0.4
        assert np.array_equal(w.robot.joint_angles, np.zeros(4))
        assert np.array_equal(w.target_position, [0.45, 0.5])


class TestStepTask:
    def test_rewards_listed_per_attribute(self):
        loaded = load_stock_task("point_obstacle")
        w = reset(loaded.task, 0.0, np.random.default_rng(0))
        w2, rewards, done, events = step_task(loaded.task, w, np.array([1.0, 0.0]))
        assert len(rewards) == 2
        assert rewards[0] == 0.0 and rewards[1] == 0.0
        assert not done and events == []

    def test_reach_ends_episode_with_unit_reward(self):
        loaded = load_stock_task("point_reach")
        w = reset(loaded.task, 0.0, np.random.default_rng(0))
        w.robot = PointRobotState(0.5 - CFG.target_radius - 0.001, 0.0, 0.5, 0.0)
        w2, rewards, done, events = step_task(loaded.task, w, np.array([1.0, 0.0]))
        assert rewards[0] == 1.0
        assert done
        assert "reached_target" in events

    def test_obstacle_contact_scores_both_channels(self):
        d = load_stock_task("point_obstacle").raw
        d["addons"][0]["params"]["speed"] = 0.0
        from canrl.taskio import parse_task
        task = parse_task(d).task
        w = reset(task, 0.0, np.random.default_rng(0))
        w.robot = PointRobotState(-0.14, 0.0, 0.3, 0.0)
        w2, rewards, done, events = step_task(task, w, np.array([1.0, 0.0]))
        assert rewards[1] == OBSTACLE_PENALTY
        assert events == ["touched_obstacle_0"]
        assert rewards[0] + rewards[1] == pytest.approx(OBSTACLE_PENALTY)

    def test_horizon_truncates(self):
        loaded = load_stock_task("point_reach")
        w = reset(loaded.task, 0.0, np.random.default_rng(0))
        done = False
        for _ in range(loaded.task.cfg.horizon):
            w, _, done, _ = step_task(loaded.task, w, np.array([0.0, -1.0]))
        assert done
        assert w.step_index == loaded.task.cfg.horizon

    def test_action_clamped_like_limit(self):
        loaded = load_stock_task("point_reach")
        w0 = reset(loaded.task, 0.0, np.random.default_rng(0))
        a, _, _, _ = step_task(loaded.task, w0, np.array([10.0, 0.0]))
        w0b = reset(loaded.task, 0.0, np.random.default_rng(0))
        b, _, _, _ = step_task(loaded.task, w0b, np.array([1.0, 0.0]))
        assert np.array_equal(a.robot.position, b.robot.position)

    def test_wrong_action_shape_raises(self):
        loaded = load_stock_task("point_reach")
        w = reset(loaded.task, 0.0, np.random.default_rng(0))
        with pytest.raises(DimensionError):
            step_task(loaded.task, w, np.zeros(5))

    @pytest.mark.parametrize("action, error, message", [
        (np.zeros(5), DimensionError, "expected action (2,), got (5,)"),
        (np.zeros((1, 2)), DimensionError, "expected action (2,), got (1, 2)"),
        (np.float64(0.5), DimensionError, "expected action (2,), got ()"),
        (np.array([np.nan, 0.0]), SimulationFault, "non-finite action array([nan,  0.])"),
        (np.array([0.5, -np.inf]), SimulationFault, "non-finite action array([ 0.5, -inf])"),
        ([np.inf, 0.0], SimulationFault, "non-finite action array([inf,  0.])"),
    ], ids=["wide", "two_d", "scalar", "nan", "minus_inf", "list_inf"])
    def test_bad_action_messages(self, action, error, message):
        task = load_stock_task("point_reach").task
        w = reset(task, 0.0, np.random.default_rng(0))
        with pytest.raises(error) as got:
            step_task(task, w, action)
        assert str(got.value) == message

    def test_disturbance_bends_trajectory(self):
        loaded = load_stock_task("point_force")
        w = reset(loaded.task, 0.0, np.random.default_rng(0))
        pushed = w
        for _ in range(10):
            pushed, _, _, _ = step_task(loaded.task, pushed, np.zeros(2))
        plain_task = load_stock_task("point_reach").task
        free = reset(plain_task, 0.0, np.random.default_rng(0))
        for _ in range(10):
            free, _, _, _ = step_task(plain_task, free, np.zeros(2))
        assert np.linalg.norm(pushed.robot.position - free.robot.position) > 1e-3

    def test_arm_disturbance_maps_through_jacobian(self):
        loaded = load_stock_task("arm_force")
        task = loaded.task
        w = reset(task, 0.0, np.random.default_rng(0))
        w2, _, _, _ = step_task(task, w, np.zeros(5))
        jac = arm_jacobian(w.robot, task.cfg)
        gen = jac.T @ w.disturbance.force
        dt, damping = task.cfg.dt, task.cfg.damping
        want_jv = (1 - damping * dt) * w.robot.joint_velocities + gen[:4] * dt
        assert np.allclose(w2.robot.joint_velocities, want_jv, atol=1e-12)

    def test_speed_channel_fires_on_fast_motion(self):
        loaded = load_stock_task("point_speed")
        w = reset(loaded.task, 0.0, np.random.default_rng(0))
        w.robot = w.robot._replace(vx=3.0, vy=0.0)
        w.time = 4.0  # inside the slow window
        w2, rewards, _, events = step_task(loaded.task, w, np.zeros(2))
        assert rewards[1] < 0.0
        assert "speed_violation" in events


class TestTaskValidation:
    def test_duplicate_door_rejected(self):
        with pytest.raises(TaskConfigError):
            build_task(
                "point",
                CFG,
                Nominal(np.array([0.5, 0.0]), np.array([-0.5, 0.0])),
                [
                    AddonSetup("door", dict(x=0, y_lo=-1, y_hi=1, period=2, open_fraction=0.5)),
                    AddonSetup("door", dict(x=0.5, y_lo=-1, y_hi=1, period=2, open_fraction=0.5)),
                ],
            )

    def test_stock_task_files_are_canonical(self):
        # tasks/ is the only definition of the stock tasks; each file loads,
        # is named for its stem and is kept in the canonical JSON form
        paths = sorted(TASKS_DIR.glob("*.json"))
        assert STOCK_TASK_NAMES == tuple(p.stem for p in paths)
        assert len(paths) == 11
        for path in paths:
            raw = load_task(path).raw
            assert raw["name"] == path.stem
            assert path.read_bytes() == (json.dumps(raw, indent=2, sort_keys=True) + "\n").encode()

    def test_two_obstacles_allowed(self):
        loaded = load_stock_task("point_two_obstacles")
        assert [a.entity_index for a in loaded.task.addons] == [0, 1]
        w = reset(loaded.task, 0.5, np.random.default_rng(0))
        assert len(w.obstacles) == 2


def noisy_servo(worlds, rngs):
    """Servo at the target plus noise from each episode's own rng."""
    actions = np.array([
        np.clip(
            2.5 * (w.target_position - w.robot.position) - 1.2 * w.robot.velocity
            + 0.5 * rng.standard_normal(2),
            -1.0,
            1.0,
        )
        for w, rng in zip(worlds, rngs)
    ])
    return actions, [None] * len(worlds)


class TestRunEpisodes:
    TASK = load_stock_task("point_reach").task
    N = 4

    def rngs(self):
        return [np.random.default_rng([5, k]) for k in range(self.N)]

    def trajectory(self, steps, k):
        return [
            (s.action.tobytes(), s.next_world.robot.position.tobytes(), s.rewards, s.done)
            for s in steps
            if s.episode == k
        ]

    def alone(self, k):
        rng = np.random.default_rng([5, k])
        return self.trajectory(run_episodes(self.TASK, noisy_servo, 0.7, [rng]), 0)

    def run(self, rngs, admit=None):
        batches = []

        def act(worlds, rngs):
            batches.append(len(worlds))
            return noisy_servo(worlds, rngs)

        return list(run_episodes(self.TASK, act, 0.7, rngs, admit=admit)), batches

    def test_admit_one_runs_episodes_one_after_another(self):
        pulled = []

        def lazy():
            for k, rng in enumerate(self.rngs()):
                pulled.append(k)
                yield rng

        gen = run_episodes(self.TASK, noisy_servo, 0.7, lazy(), admit=lambda n: n < 1)
        first = next(gen)
        assert first.episode == 0 and pulled == [0]  # the rngs are read lazily
        steps, batches = self.run(self.rngs(), admit=lambda n: n < 1)
        order = [s.episode for s in steps]
        assert order == sorted(order) and set(order) == set(range(self.N))
        assert set(batches) == {1}
        for k in range(self.N):
            assert self.trajectory(steps, k) == self.alone(k)

    def test_no_admit_starts_every_episode_at_once(self):
        steps, batches = self.run(iter(self.rngs()))
        assert batches[0] == self.N
        assert [s.episode for s in steps[: self.N]] == list(range(self.N))
        lengths = [len(self.trajectory(steps, k)) for k in range(self.N)]
        assert len(set(lengths)) > 1  # episodes end on different ticks
        for k in range(self.N):
            assert self.trajectory(steps, k) == self.alone(k)

    @pytest.mark.parametrize("bad", ["nan", "inf", "wide", "flat"])
    def test_bad_action_block_fails_as_step_task_does(self, bad):
        # the tick's block is checked once; a bad row fails with the
        # exception and message step_task gives for that row alone
        ticks = []

        def act(worlds, rngs):
            actions, records = noisy_servo(worlds, rngs)
            if len(ticks) == 3:
                if bad == "nan":
                    actions[2, 1] = np.nan
                elif bad == "inf":
                    actions[2, 0] = -np.inf
                elif bad == "wide":
                    actions = np.zeros((len(worlds), 3))
                else:
                    actions = actions[:, 0]
            ticks.append((worlds, actions))
            return actions, records

        with pytest.raises((DimensionError, SimulationFault)) as got:
            for _ in run_episodes(self.TASK, act, 0.7, self.rngs()):
                pass
        assert len(ticks) == 4
        worlds, actions = ticks[-1]
        with pytest.raises(got.type) as want:
            step_task(self.TASK, worlds[2], actions[2])
        assert str(got.value) == str(want.value)

    def test_action_rows_must_match_the_live_worlds(self):
        def act(worlds, rngs):
            actions, records = noisy_servo(worlds, rngs)
            return actions[1:], records

        with pytest.raises(DimensionError, match="expected 4 action rows, got 3"):
            next(run_episodes(self.TASK, act, 0.7, self.rngs()))

    def test_every_step_calls_the_module_step_task(self, monkeypatch):
        # the benchmark counts env steps by wrapping `attributes.step_task`
        # where run_episodes looks it up, and checks that count against
        # the report; each world-step must go through it exactly once
        from canrl import attributes
        from canrl.harness import evaluate_policy

        calls = []
        step = attributes.step_task

        def counted(*args):
            calls.append(1)
            return step(*args)

        monkeypatch.setattr(attributes, "step_task", counted)
        steps, _ = self.run(self.rngs())
        assert len(calls) == len(steps) > self.N
        calls.clear()
        report = evaluate_policy(noisy_servo, self.TASK, 7, seed=3, level=0.7)
        assert len(calls) == round(report["mean_episode_length"] * report["episodes"])
