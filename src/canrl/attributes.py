"""Task attributes: each one owns a reward channel, a minimal view of the
world, and (for the disturbance) a hook into the dynamics.

The base attribute is target reaching; add-ons are obstacle avoidance, a
door with an opening schedule, a time-varying speed limit, and a constant
push.  Total task reward is the plain sum of the per-attribute rewards.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Any, Callable, Iterator, NamedTuple

import numpy as np

from .dynamics import (
    ARM_STATE_DIM,
    POINT_STATE_DIM,
    ArticulatedRobotState,
    PointRobotState,
    SimConfig,
    WorldState,
    action_dim,
    action_limits,
    arm_integrate,
    arm_jacobian,
    link_points,
    planar_norm,
    planar_within,
    point_integrate,
    point_segment_distance,
    reference_point,
    robot_speed,
    segment_within,
    segments_within,
    wrap_angle,
)
from .errors import DimensionError, InfeasibleTaskError, SimulationFault, TaskConfigError

OBSTACLE_PENALTY = -0.3
DOOR_PENALTY = -0.01
SPEED_PENALTY_COEFF = 0.3

ATTRIBUTE_KINDS = ("reach", "obstacle", "door", "speed", "force")

# how hard the initial joint/linear velocities can be shaken at level 1
INIT_SPEED_RANGE = 0.3
ARM_TARGET_Y = (0.15, 0.85)
MAX_RESET_TRIES = 1000
OBSTACLE_SPAWN_MARGIN = 0.1
SPAWN_MARGIN = 0.02
# the door view reports waits up to this long, and this when none is left
DOOR_WAIT_CAP = 10.0


class ObstacleParams(NamedTuple):
    """A drifting disc, never written after it is made."""

    cx: float
    cy: float
    radius: float
    vx: float
    vy: float

    @property
    def center(self) -> np.ndarray:
        return np.array((self.cx, self.cy), dtype=np.float64)

    @property
    def velocity(self) -> np.ndarray:
        return np.array((self.vx, self.vy), dtype=np.float64)


@dataclass
class DoorSchedule:
    """A wall segment that blocks (penalizes) passage outside open windows."""

    segment: np.ndarray  # (2, 2): endpoints
    open_intervals: list[tuple[float, float]]

    def is_open(self, t: float) -> bool:
        return any(s <= t < e for s, e in self.open_intervals)

    def time_to_next_open(self, t: float) -> float:
        if self.is_open(t):
            return 0.0
        waits = [s - t for s, _ in self.open_intervals if s > t]
        return min(min(waits), DOOR_WAIT_CAP) if waits else DOOR_WAIT_CAP


def periodic_door_schedule(
    segment: np.ndarray,
    period: float,
    open_fraction: float,
    phase: float,
    t_end: float,
) -> DoorSchedule:
    """Door open during the last `open_fraction` of each period, shifted by
    `phase`, with explicit intervals covering [0, t_end]."""
    closed_len = period * (1.0 - open_fraction)
    intervals = []
    k = int(math.floor((0.0 + phase) / period)) - 1
    while True:
        start = k * period - phase + closed_len
        end = k * period - phase + period
        k += 1
        if end <= 0.0:
            continue
        if start > t_end:
            break
        intervals.append((max(start, 0.0), end))
    return DoorSchedule(np.asarray(segment, dtype=float), intervals)


@dataclass
class SpeedLimitProfile:
    times: np.ndarray
    limits: np.ndarray
    penalty_coeff: float = SPEED_PENALTY_COEFF

    def limit(self, t: float) -> float:
        return float(np.interp(t, self.times, self.limits))


@dataclass
class DisturbanceForce:
    force: np.ndarray  # planar, applied to the body / at the end effector


def advance_obstacle(obs: ObstacleParams, dt: float, half: float) -> ObstacleParams:
    """Constant-velocity drift with elastic bounces off the arena walls."""
    cx, cy, radius, vx, vy = obs
    hi = half - radius
    lo = -hi
    cx += vx * dt
    if cx < lo:
        cx, vx = lo + (lo - cx), -vx
    elif cx > hi:
        cx, vx = hi - (cx - hi), -vx
    cy += vy * dt
    if cy < lo:
        cy, vy = lo + (lo - cy), -vy
    elif cy > hi:
        cy, vy = hi - (cy - hi), -vy
    return ObstacleParams(cx, cy, radius, vx, vy)


# ---------------------------------------------------------------------------
# contact predicates, filtered (see `canrl.dynamics`); clearance is exact

def robot_touches_disc(world: WorldState, cfg: SimConfig, obs: ObstacleParams) -> bool:
    robot = world.robot
    if robot.robot_kind == "point":
        return planar_within(robot.x - obs.cx, robot.y - obs.cy, obs.radius + cfg.robot_radius)
    pts = link_points(robot, cfg)
    center = (obs.cx, obs.cy)
    reach = obs.radius + cfg.link_radius
    return any(segment_within(center, a, b, reach) for a, b in zip(pts, pts[1:]))


def robot_touches_segment(world: WorldState, cfg: SimConfig, seg: np.ndarray) -> bool:
    q0, q1 = seg.tolist()
    robot = world.robot
    if robot.robot_kind == "point":
        # swept test: the previous position is exactly pos - v*dt under
        # semi-implicit Euler, so fast crossings cannot tunnel through
        px, py, vx, vy = robot
        prev = (px - vx * cfg.dt, py - vy * cfg.dt)
        return segments_within(prev, (px, py), q0, q1, cfg.robot_radius)
    pts = link_points(robot, cfg)
    return any(segments_within(a, b, q0, q1, cfg.link_radius) for a, b in zip(pts, pts[1:]))


def obstacle_clearance(world: WorldState, cfg: SimConfig, obs: ObstacleParams) -> float:
    """Surface-to-surface distance; negative while touching."""
    robot = world.robot
    if robot.robot_kind == "point":
        gap = planar_norm(robot.x - obs.cx, robot.y - obs.cy)
        return gap - obs.radius - cfg.robot_radius
    pts = link_points(robot, cfg)
    center = (obs.cx, obs.cy)
    gap = min(point_segment_distance(center, a, b) for a, b in zip(pts, pts[1:]))
    return gap - obs.radius - cfg.link_radius


def target_reached(world: WorldState, cfg: SimConfig) -> bool:
    rx, ry = reference_point(world, cfg)
    tx, ty = world.target_position.tolist()
    return planar_within(rx - tx, ry - ty, cfg.target_radius)


# ---------------------------------------------------------------------------
# reward channels

def reaching_reward(world: WorldState, cfg: SimConfig) -> float:
    return 1.0 if target_reached(world, cfg) else 0.0


def obstacle_reward(world: WorldState, cfg: SimConfig, obs: ObstacleParams) -> float:
    return OBSTACLE_PENALTY if robot_touches_disc(world, cfg, obs) else 0.0


def door_reward(world: WorldState, cfg: SimConfig, door: DoorSchedule) -> float:
    if door.is_open(world.time):
        return 0.0
    return DOOR_PENALTY if robot_touches_segment(world, cfg, door.segment) else 0.0


def speed_reward(world: WorldState, profile: SpeedLimitProfile) -> float:
    excess = robot_speed(world) - profile.limit(world.time)
    return -profile.penalty_coeff * max(excess, 0.0)


# ---------------------------------------------------------------------------
# attribute specs

@dataclass
class AttributeSpec:
    """One attribute: minimal state view, reward, and an optional
    action-space dynamics hook.

    `extract(worlds, columns=None)` returns the (E, state_dim) views of a
    batch of worlds, one row per world, from their `robot_columns` if
    given.  `reward(world, action)` scores one world after a step and
    `dynamics_effect(world, action)` maps one world's command (a list of
    floats) to the list the dynamics integrate.
    """

    kind: str
    state_dim: int
    extract: Callable[..., np.ndarray]
    reward: Callable[[WorldState, Sequence[float]], float]
    dynamics_effect: Callable[[WorldState, list[float]], list[float]] | None = None
    entity_index: int = 0


def view_dim(kind: str, robot: str) -> int:
    base = POINT_STATE_DIM if robot == "point" else ARM_STATE_DIM
    return base + {"reach": 2, "obstacle": 5, "door": 5, "speed": 1, "force": 2}[kind]


def robot_columns(
    worlds: Sequence[WorldState], robot: str, cfg: SimConfig
) -> tuple[list[np.ndarray], np.ndarray]:
    """Column blocks that side by side hold each world's robot state
    vector, and each world's reference point, (E, 2): the point robot
    itself or the arm's end effector."""
    robots = [w.robot for w in worlds]
    if robot == "point":
        state = _flat_rows(robots, POINT_STATE_DIM)
        return [state], state[:, :2]
    rows = [(r.base_x, r.base_speed, *r.angles, *r.rates) for r in robots]
    return [_flat_rows(rows, ARM_STATE_DIM)], _flat_rows([link_points(r, cfg)[-1] for r in robots], 2)


def _flat_rows(rows: list, width: int) -> np.ndarray:
    """(len(rows), width) float array of rows that each hold `width` floats,
    read from one flat run of them (no arithmetic, so the bits are the
    rows' own)."""
    return np.fromiter(chain.from_iterable(rows), float, len(rows) * width).reshape(-1, width)


def _get_obstacle(world: WorldState, index: int) -> ObstacleParams:
    if index >= len(world.obstacles):
        raise TaskConfigError(
            f"view needs obstacle {index}, world has {len(world.obstacles)}"
        )
    return world.obstacles[index]


def _require(worlds: Sequence[WorldState], entity: str, what: str) -> None:
    if any(getattr(w, entity) is None for w in worlds):
        raise TaskConfigError(f"view needs {what}, world has none")


def make_attribute(kind: str, robot: str, cfg: SimConfig, entity_index: int = 0) -> AttributeSpec:
    """Build the AttributeSpec for one attribute bound to one world entity."""
    if kind not in ATTRIBUTE_KINDS:
        raise TaskConfigError(f"unknown attribute kind {kind!r}")
    dim = view_dim(kind, robot)

    if kind == "reach":
        def extract(worlds: Sequence[WorldState], columns=None) -> np.ndarray:
            state, ref = columns or robot_columns(worlds, robot, cfg)
            target = np.concatenate([w.target_position for w in worlds]).reshape(-1, 2)
            return np.concatenate([*state, target - ref], axis=1)

        def reward(world: WorldState, action: Sequence[float]) -> float:
            return reaching_reward(world, cfg)

        return AttributeSpec(kind, dim, extract, reward)

    if kind == "obstacle":
        def extract(worlds: Sequence[WorldState], columns=None) -> np.ndarray:
            # rows of (cx, cy, radius, vx, vy)
            obs = _flat_rows([_get_obstacle(w, entity_index) for w in worlds], 5)
            state, ref = columns or robot_columns(worlds, robot, cfg)
            return np.concatenate(
                [*state, obs[:, :2] - ref, obs[:, 3:], obs[:, 2:3]], axis=1
            )

        def reward(world: WorldState, action: Sequence[float]) -> float:
            return obstacle_reward(world, cfg, _get_obstacle(world, entity_index))

        return AttributeSpec(kind, dim, extract, reward, entity_index=entity_index)

    if kind == "door":
        def extract(worlds: Sequence[WorldState], columns=None) -> np.ndarray:
            _require(worlds, "door", "a door")
            state, ref = columns or robot_columns(worlds, robot, cfg)
            seg = np.array([w.door.segment for w in worlds])
            wait = np.array([w.door.time_to_next_open(w.time) for w in worlds], dtype=float)[:, None]
            return np.concatenate([*state, seg[:, 0] - ref, seg[:, 1] - ref, wait], axis=1)

        def reward(world: WorldState, action: Sequence[float]) -> float:
            if world.door is None:
                raise TaskConfigError("reward needs a door, world has none")
            return door_reward(world, cfg, world.door)

        return AttributeSpec(kind, dim, extract, reward)

    if kind == "speed":
        def extract(worlds: Sequence[WorldState], columns=None) -> np.ndarray:
            _require(worlds, "speed_profile", "a speed profile")
            state, _ = columns or robot_columns(worlds, robot, cfg)
            lim = np.array([w.speed_profile.limit(w.time) for w in worlds], dtype=float)[:, None]
            return np.concatenate([*state, lim], axis=1)

        def reward(world: WorldState, action: Sequence[float]) -> float:
            if world.speed_profile is None:
                raise TaskConfigError("reward needs a speed profile, world has none")
            return speed_reward(world, world.speed_profile)

        return AttributeSpec(kind, dim, extract, reward)

    # force
    def extract(worlds: Sequence[WorldState], columns=None) -> np.ndarray:
        _require(worlds, "disturbance", "a disturbance")
        state, _ = columns or robot_columns(worlds, robot, cfg)
        push = np.array([w.disturbance.force for w in worlds])
        return np.concatenate([*state, push], axis=1)

    def reward(world: WorldState, action: Sequence[float]) -> float:
        return 0.0

    def effect(world: WorldState, action: list[float]) -> list[float]:
        if world.disturbance is None:
            raise TaskConfigError("dynamics effect needs a disturbance")
        push = world.disturbance.force
        if robot == "arm":
            # the push acts at the end effector; map it to generalized forces
            push = arm_jacobian(world.robot, cfg).T @ push
        return [a + p for a, p in zip(action, push.tolist())]

    return AttributeSpec(kind, dim, extract, reward, dynamics_effect=effect)


# ---------------------------------------------------------------------------
# task definition

@dataclass
class AddonSetup:
    """Nominal parameters for one add-on entity, as read from the task file."""

    kind: str
    params: dict


@dataclass
class Nominal:
    target: np.ndarray
    position: np.ndarray | None = None  # point robot
    base_x: float = 0.0  # arm
    joint_angles: np.ndarray | None = None


@dataclass
class Task:
    robot: str
    cfg: SimConfig
    nominal: Nominal
    base: AttributeSpec
    addons: list[AttributeSpec]
    addon_setups: list[AddonSetup]

    @cached_property
    def specs(self) -> list[AttributeSpec]:
        return [self.base, *self.addons]

    @property
    def action_dim(self) -> int:
        return action_dim(self.robot)

    @cached_property
    def limits(self) -> np.ndarray:
        """Actuator limits, computed once per task and never written."""
        lim = action_limits(self.robot, self.cfg)
        lim.flags.writeable = False
        return lim

    @cached_property
    def effects(self) -> tuple[Callable, ...]:
        """The dynamics effects of the specs, in cascade order."""
        return tuple(s.dynamics_effect for s in self.specs if s.dynamics_effect is not None)

    @cached_property
    def penalty_events(self) -> tuple[tuple[int, str], ...]:
        """(reward index, event name) of each add-on whose negative reward
        is an event; a push has none."""
        names = {"door": "touched_door", "speed": "speed_violation"}
        return tuple(
            (i, f"touched_obstacle_{s.entity_index}" if s.kind == "obstacle" else names[s.kind])
            for i, s in enumerate(self.addons, 1)
            if s.kind != "force"
        )


def build_task(robot: str, cfg: SimConfig, nominal: Nominal, addons: list[AddonSetup]) -> Task:
    if robot not in ("point", "arm"):
        raise TaskConfigError(f"unknown robot {robot!r}")
    base = make_attribute("reach", robot, cfg)
    specs = []
    n_obstacles = 0
    for setup in addons:
        if setup.kind == "reach":
            raise TaskConfigError("reach is the base attribute, not an add-on")
        idx = n_obstacles if setup.kind == "obstacle" else 0
        specs.append(make_attribute(setup.kind, robot, cfg, entity_index=idx))
        if setup.kind == "obstacle":
            n_obstacles += 1
        elif sum(1 for s in addons if s.kind == setup.kind) > 1:
            raise TaskConfigError(f"at most one {setup.kind!r} add-on per task")
    return Task(robot, cfg, nominal, base, specs, list(addons))


def full_view(task: Task, worlds: Sequence[WorldState]) -> np.ndarray:
    """Every attribute view side by side, (E, full_view_dim); the
    flat-baseline observation."""
    columns = robot_columns(worlds, task.robot, task.cfg)
    return np.concatenate([spec.extract(worlds, columns) for spec in task.specs], axis=1)


def full_view_dim(task: Task) -> int:
    return sum(spec.state_dim for spec in task.specs)


# ---------------------------------------------------------------------------
# reset sampling

def _lerp_box(center: float, lo_full: float, hi_full: float, level: float, u: float) -> float:
    lo = center + level * (lo_full - center)
    hi = center + level * (hi_full - center)
    return lo + u * (hi - lo)


def _sample_entities(task: Task, level: float, rng: np.random.Generator, world: WorldState) -> None:
    cfg = task.cfg
    t_end = cfg.horizon * cfg.dt
    for setup in task.addon_setups:
        p = setup.params
        if setup.kind == "obstacle":
            u = rng.uniform(size=3)
            half = cfg.workspace - p["radius"]
            cx = _lerp_box(p["center"][0], -half, half, level, u[0])
            cy = _lerp_box(p["center"][1], -half, half, level, u[1])
            heading = p["heading"] + level * (2.0 * u[2] - 1.0) * math.pi
            world.obstacles.append(ObstacleParams(
                float(cx), float(cy), float(p["radius"]),
                p["speed"] * math.cos(heading), p["speed"] * math.sin(heading),
            ))
        elif setup.kind == "door":
            phase = level * rng.uniform() * p["period"]
            seg = np.array(
                [[p["x"], p["y_lo"]], [p["x"], p["y_hi"]]], dtype=float
            )
            world.door = periodic_door_schedule(
                seg, p["period"], p["open_fraction"], phase, t_end
            )
        elif setup.kind == "speed":
            world.speed_profile = SpeedLimitProfile(
                np.asarray(p["times"], dtype=float),
                np.asarray(p["limits"], dtype=float),
                p.get("coeff", SPEED_PENALTY_COEFF),
            )
        elif setup.kind == "force":
            u = rng.uniform()
            heading = p["heading"] + level * (2.0 * u - 1.0) * math.pi
            world.disturbance = DisturbanceForce(
                p["magnitude"] * np.array([math.cos(heading), math.sin(heading)])
            )


def _sample_world(task: Task, level: float, rng: np.random.Generator, mode: str) -> WorldState:
    cfg = task.cfg
    nom = task.nominal
    w = cfg.workspace

    ut = rng.uniform(size=2)
    y_lo, y_hi = (-w, w) if task.robot == "point" else ARM_TARGET_Y
    if task.robot == "arm":  # within reach of the rail, as taskio checks the nominal target
        y_hi = min(y_hi, sum(cfg.link_lengths) + cfg.target_radius)
        y_lo = min(y_lo, y_hi)
    target = np.array(
        [_lerp_box(nom.target[0], -w, w, level, ut[0]), _lerp_box(nom.target[1], y_lo, y_hi, level, ut[1])]
    )
    if task.robot == "point":
        center = target if mode == "rcl" else nom.position
        ur = rng.uniform(size=2)
        px = _lerp_box(center[0], -w, w, level, ur[0])
        py = _lerp_box(center[1], -w, w, level, ur[1])
        vx, vy = (level * INIT_SPEED_RANGE * rng.uniform(-1.0, 1.0, size=2)).tolist()
        robot = PointRobotState(float(px), float(py), vx, vy)
    else:
        if mode == "rcl":
            # fold pose with the end effector exactly on the target:
            # joints (a, 0, -2a, 0) cancel horizontally and stand cos(a)
            # of the full reach tall, so a = acos(ty / reach)
            base_center = float(np.clip(target[0], -w, w))
            reach = float(sum(cfg.link_lengths))
            fold = math.acos(float(np.clip(target[1] / reach, -1.0, 1.0)))
            angle_center = np.array([fold, 0.0, -2.0 * fold, 0.0])
        else:
            base_center = nom.base_x
            angle_center = np.asarray(nom.joint_angles, dtype=float)
        ub = rng.uniform()
        base_x = _lerp_box(base_center, -w, w, level, ub)
        ua = rng.uniform(size=4)
        angles = tuple([
            float(wrap_angle(_lerp_box(angle_center[i], -math.pi, math.pi, level, ua[i])))
            for i in range(4)
        ])
        jv = (level * INIT_SPEED_RANGE * rng.uniform(-1.0, 1.0, size=4)).tolist()
        bs = level * INIT_SPEED_RANGE * float(rng.uniform(-1.0, 1.0))
        robot = ArticulatedRobotState(float(base_x), bs, angles, tuple(jv))

    world = WorldState(robot, target)
    _sample_entities(task, level, rng, world)
    return world


def _spawn_valid(task: Task, world: WorldState) -> bool:
    cfg = task.cfg
    for obs in world.obstacles:
        if obstacle_clearance(world, cfg, obs) <= OBSTACLE_SPAWN_MARGIN:
            return False
    if world.door is not None:
        gap = point_segment_distance(
            world.target_position, world.door.segment[0], world.door.segment[1]
        )
        if gap <= cfg.target_radius + cfg.robot_radius + SPAWN_MARGIN:
            return False
    return True


def reset(
    task: Task, random_level: float, rng: np.random.Generator, mode: str = "cl"
) -> WorldState:
    """Sample an initial world.  At level 0 this is exactly the nominal
    configuration; at level 1 the whole workspace, identically for both
    curriculum modes.  Never spawns the robot touching an obstacle or the
    target on the door."""
    if not 0.0 <= random_level <= 1.0:
        raise ValueError(f"random_level must be in [0, 1], got {random_level}")
    if mode not in ("cl", "rcl"):
        raise ValueError(f"unknown curriculum mode {mode!r}")
    for _ in range(MAX_RESET_TRIES):
        world = _sample_world(task, random_level, rng, mode)
        if _spawn_valid(task, world):
            return world
    raise InfeasibleTaskError(
        f"no valid spawn after {MAX_RESET_TRIES} tries at level {random_level}"
    )


# ---------------------------------------------------------------------------
# environment step

class CheckedAction(list):
    """An action row of floats that `checked_actions` found finite and clipped."""


def checked_actions(task: Task, actions: np.ndarray) -> list[CheckedAction]:
    """Each row of an (E, action_dim) action block, checked and clipped to
    the actuator limits, as floats.  A bad row fails with the exception and
    message `step_task` gives for it.  The checks run on the whole block:
    a few µs dearer than per-row floats on a one-world tick, several times
    cheaper on the hundreds of worlds of an eval tick."""
    block = np.asarray(actions, dtype=np.float64)
    if block.ndim != 2 or block.shape[1] != task.action_dim:
        raise DimensionError(f"expected action ({task.action_dim},), got {block.shape[1:]}")
    if not np.isfinite(block).all():
        bad = block[~np.isfinite(block).all(axis=1)][0]
        raise SimulationFault(f"non-finite action {bad!r}")
    lim = task.limits
    return list(map(CheckedAction, np.clip(block, -lim, lim).tolist()))


def step_task(
    task: Task, world: WorldState, action: np.ndarray
) -> tuple[WorldState, list[float], bool, list[str]]:
    """Advance one control step.

    Returns (next world, per-attribute rewards in cascade order, done, events).
    Rewards are evaluated on the post-step world, so "touching" refers to
    the configuration the action produced.  A row from `checked_actions`
    is used as it is; any other action is checked and clipped first.
    """
    cfg = task.cfg
    if type(action) is not CheckedAction:
        (action,) = checked_actions(task, np.asarray(action, dtype=np.float64)[None])
    commanded = effective = action
    for effect in task.effects:
        effective = effect(world, effective)

    if task.robot == "point":
        robot = point_integrate(world.robot, effective, cfg)
    else:
        robot = arm_integrate(world.robot, effective, cfg)

    nxt = WorldState(
        robot,
        world.target_position,
        world.time + cfg.dt,
        world.step_index + 1,
        [advance_obstacle(o, cfg.dt, cfg.workspace) for o in world.obstacles],
        world.door,
        world.speed_profile,
        world.disturbance,
    )

    rewards = [spec.reward(nxt, commanded) for spec in task.specs]

    events = ["reached_target"] if rewards[0] == 1.0 else []
    for i, event in task.penalty_events:
        if rewards[i] < 0.0:
            events.append(event)

    done = rewards[0] == 1.0 or nxt.step_index >= cfg.horizon
    return nxt, rewards, done, events


class EpisodeStep(NamedTuple):
    episode: int  # index of the episode's rng in the `rngs` it ran with
    world: WorldState  # the world the action was chosen in
    action: np.ndarray
    records: Any  # whatever the actor returned for the whole tick beside the actions
    row: int  # this world's row in `records`
    next_world: WorldState
    rewards: list[float]
    done: bool
    events: list[str]


def run_episodes(
    task: Task,
    act: Callable,
    level: float,
    rngs: Iterable[np.random.Generator],
    mode: str = "cl",
    admit: Callable[[int], bool] | None = None,
) -> Iterator[EpisodeStep]:
    """Step episodes in lockstep, one per rng, yielding every step.

    Before each tick, the next episodes in rng order are reset while
    `admit(n_live)` holds (with no `admit`, all of them at once); `rngs`
    is read lazily, one rng per admitted episode.  Each tick calls
    `act(worlds, rngs) -> (actions, records)` once on the live worlds, in
    episode order, checks the action block once (`checked_actions`), then
    steps the worlds in that order, each through one `step_task` call;
    row j of `actions` and of `records` belongs to the j-th live world,
    and each step carries the tick's `records` and its row.  Episode k
    draws all its randomness, reset and actor alike, from the k-th rng, so
    its steps do not depend on which episodes run beside it.
    """
    pending = iter(rngs)
    # slot k holds episode k's rng and world, None once it is done
    streams: list[np.random.Generator | None] = []
    worlds: list[WorldState | None] = []
    live: list[int] = []
    while True:
        while admit is None or admit(len(live)):
            rng = next(pending, None)
            if rng is None:
                break
            live.append(len(worlds))
            streams.append(rng)
            worlds.append(reset(task, level, rng, mode))
        if not live:
            return
        actions, records = act([worlds[k] for k in live], [streams[k] for k in live])
        rows = checked_actions(task, actions)
        if len(rows) != len(live):
            raise DimensionError(f"expected {len(live)} action rows, got {len(rows)}")
        still = []
        for j, k in enumerate(live):
            nxt, rewards, done, events = step_task(task, worlds[k], rows[j])
            yield EpisodeStep(k, worlds[k], actions[j], records, j, nxt, rewards, done, events)
            if done:
                streams[k] = worlds[k] = None
            else:
                worlds[k] = nxt
                still.append(k)
        live = still
