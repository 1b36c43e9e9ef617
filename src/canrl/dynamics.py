"""Planar physics: a force-driven point robot and a torque-driven arm on
a sliding base, both integrated with semi-implicit Euler.

Steppers are pure state-in/state-out and never write their inputs, so
rollouts and evaluation can keep many worlds alive and step them in
lockstep, one after another on each tick.  A robot state is never
written after it is made, so an arm state computes its link points once
(`link_points`) and every view, contact test and reward of that state
reads the same read-only array.

The per-step kernels read each small vector once with `.tolist()` and do
their arithmetic on Python floats, which is several times cheaper than
numpy calls on 2- and 4-vectors and gives numpy's bits:
- `+ - * /`, `math.sqrt` and comparisons round exactly as numpy's
  elementwise ufuncs do;
- `min(max(x, -l), l)` (or the same two comparisons written out) has the
  bits of `np.clip` for finite x;
- `np.ceil` keeps the sign of a zero result, which `math.ceil` drops, so
  `wrap_angle` restores it;
- 2-vector norms and projections whose value is read stay on
  `ndarray.dot`: BLAS may fuse the multiply-add (`fma(y, y, x*x)`), and
  `x*x + y*y` can then differ in the last bit (`planar_norm`,
  `point_segment_distance`);
- `sin`, `cos`, `cumsum` and `tanh` stay in numpy.

Contact and target predicates only compare a distance g with a radius,
so `planar_within` and `segment_within` filter them (Shewchuk 1997):
they decide on Python floats when g lies outside a proven band around
the radius, else on the exact `ndarray.dot` form.  With u = 2**-53, a
2-vector norm, fused or not, is within 2u of the real one (u for the sum
of squares, halved by the root, u for the root), so the forms differ by
4u * g.  A point-segment distance whose coordinates' magnitudes sum to S
is within 14u * S per form (the projection 3u|ab| + 2u|p - a|, the
rebuilt gap u(|p| + 2|a| + 3|ab|), the norm 2u * g), so the forms differ
by 30u * S.  Underflow adds a few 1e-162, which the `1.0 +` in the band
covers; nothing overflows below `FILTER_RANGE`, and inf and NaN take the
exact form.  `FILTER = 1e-12` is 2000x the norm bound and 300x the
segment bound.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import SimulationFault

if TYPE_CHECKING:
    from .attributes import DisturbanceForce, DoorSchedule, ObstacleParams, SpeedLimitProfile

POINT_STATE_DIM = 4
ARM_STATE_DIM = 10
POINT_ACTION_DIM = 2
ARM_ACTION_DIM = 5

TWO_PI = 2.0 * math.pi
FILTER = 1e-12
FILTER_RANGE = 1e150


@dataclass(frozen=True)
class SimConfig:
    dt: float = 0.05
    horizon: int = 200
    mass: float = 1.0
    damping: float = 0.8
    force_limit: float = 1.0
    torque_limit: float = 1.0
    joint_inertia: float = 1.0
    link_lengths: tuple[float, ...] = (0.25, 0.25, 0.25, 0.25)
    target_radius: float = 0.08
    workspace: float = 1.0  # half-width of the square arena
    robot_radius: float = 0.03
    link_radius: float = 0.03

    @cached_property
    def link_array(self) -> np.ndarray:
        """`link_lengths` as a read-only float array, built once."""
        lengths = np.asarray(self.link_lengths, dtype=np.float64)
        lengths.flags.writeable = False
        return lengths


@dataclass
class PointRobotState:
    position: np.ndarray
    velocity: np.ndarray


@dataclass
class ArticulatedRobotState:
    base_x: float
    base_speed: float
    joint_angles: np.ndarray
    joint_velocities: np.ndarray
    # (cfg, link points) once `link_points` has run on this state
    _points: tuple[SimConfig, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )


@dataclass
class WorldState:
    robot: PointRobotState | ArticulatedRobotState
    target_position: np.ndarray
    time: float = 0.0
    step_index: int = 0
    obstacles: "list[ObstacleParams]" = field(default_factory=list)
    door: "DoorSchedule | None" = None
    speed_profile: "SpeedLimitProfile | None" = None
    disturbance: "DisturbanceForce | None" = None

    @property
    def robot_kind(self) -> str:
        return "point" if isinstance(self.robot, PointRobotState) else "arm"


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi], with the bits of the array form
    `a - TWO_PI * np.ceil((a - pi) / TWO_PI)`."""
    turns = (a - math.pi) / TWO_PI
    # np.ceil gives -0.0 on (-1, 0), math.ceil an int 0
    return a - TWO_PI * (math.ceil(turns) or math.copysign(0.0, turns))


def action_dim(robot_kind: str) -> int:
    return POINT_ACTION_DIM if robot_kind == "point" else ARM_ACTION_DIM


def action_limits(robot_kind: str, cfg: SimConfig) -> np.ndarray:
    if robot_kind == "point":
        return np.full(2, cfg.force_limit)
    return np.array([cfg.torque_limit] * 4 + [cfg.force_limit])


def planar_norm(x: float, y: float) -> float:
    """Euclidean length of the 2-vector (x, y), with the bits of
    np.linalg.norm, which computes sqrt(d.d) for this case."""
    d = np.array((x, y))
    return math.sqrt(d.dot(d))


def planar_within(x: float, y: float, r: float) -> bool:
    """`planar_norm(x, y) <= r`, on Python floats outside the filter band."""
    g = math.sqrt(x * x + y * y)
    if g < FILTER_RANGE and abs(g - r) > FILTER * (1.0 + g):
        return g <= r
    return planar_norm(x, y) <= r


def _clamp_to_wall(x: float, v: float, half: float) -> tuple[float, float]:
    """One coordinate held in [-half, half]; wall contact kills the normal
    velocity component, no bounce."""
    if x < -half:
        return -half, 0.0
    if x > half:
        return half, 0.0
    return x, v


def point_integrate(
    state: PointRobotState, total_force: Sequence[float], cfg: SimConfig
) -> PointRobotState:
    """Advance one step under an already-resolved net force (not clamped),
    any two floats."""
    fx, fy = total_force
    if not (math.isfinite(fx) and math.isfinite(fy)):
        raise SimulationFault(f"non-finite force {total_force!r}")
    dt = cfg.dt
    decay = 1.0 - cfg.damping * dt
    px, py = state.position.tolist()
    vx, vy = state.velocity.tolist()
    vx = decay * vx + (fx / cfg.mass) * dt
    vy = decay * vy + (fy / cfg.mass) * dt
    px, vx = _clamp_to_wall(px + vx * dt, vx, cfg.workspace)
    py, vy = _clamp_to_wall(py + vy * dt, vy, cfg.workspace)
    if not all(map(math.isfinite, (px, py, vx, vy))):
        raise SimulationFault("point state diverged")
    return PointRobotState(np.array((px, py)), np.array((vx, vy)))


def arm_integrate(
    state: ArticulatedRobotState, generalized: Sequence[float], cfg: SimConfig
) -> ArticulatedRobotState:
    """Advance one step under net joint torques and base force (not
    clamped), any five floats."""
    *torques, base_force = generalized
    if not all(map(math.isfinite, generalized)):
        raise SimulationFault(f"non-finite action {generalized!r}")
    dt = cfg.dt
    decay = 1.0 - cfg.damping * dt
    jv = [
        decay * v + (t / cfg.joint_inertia) * dt
        for v, t in zip(state.joint_velocities.tolist(), torques)
    ]
    angles = [a + v * dt for a, v in zip(state.joint_angles.tolist(), jv)]
    if not all(map(math.isfinite, angles + jv)):
        raise SimulationFault("arm state diverged")
    bs = decay * state.base_speed + (base_force / cfg.mass) * dt
    bx, bs = _clamp_to_wall(state.base_x + bs * dt, bs, cfg.workspace)
    return ArticulatedRobotState(
        float(bx), float(bs), np.array([wrap_angle(a) for a in angles]), np.array(jv)
    )


def arm_points(state: ArticulatedRobotState, cfg: SimConfig) -> np.ndarray:
    """Base anchor plus the far end of each link, shape (n_links+1, 2).

    Angles are cumulative; at all-zero angles the arm points straight up.
    """
    cum = np.cumsum(state.joint_angles)
    pts = np.empty((len(cfg.link_lengths) + 1, 2))
    pts[0] = (state.base_x, 0.0)
    pts[1:, 0] = state.base_x + np.cumsum(cfg.link_array * np.sin(cum))
    pts[1:, 1] = 0.0 + np.cumsum(cfg.link_array * np.cos(cum))
    return pts


def link_points(state: ArticulatedRobotState, cfg: SimConfig) -> np.ndarray:
    """`arm_points` of `state`, computed on first use and kept, read-only,
    on the state for every later call with the same config object."""
    memo = state._points
    if memo is None or memo[0] is not cfg:
        pts = arm_points(state, cfg)
        pts.flags.writeable = False
        memo = state._points = (cfg, pts)
    return memo[1]


def end_effector(state: ArticulatedRobotState, cfg: SimConfig) -> np.ndarray:
    return link_points(state, cfg)[-1]


def arm_jacobian(state: ArticulatedRobotState, cfg: SimConfig) -> np.ndarray:
    """d(effector)/d(base_x, joint angles), shape (2, 5)."""
    cum = np.cumsum(state.joint_angles)
    lengths = cfg.link_array
    jac = np.zeros((2, 5))
    jac[0, 0] = 1.0
    for j in range(4):
        jac[0, j + 1] = np.sum(lengths[j:] * np.cos(cum[j:]))
        jac[1, j + 1] = -np.sum(lengths[j:] * np.sin(cum[j:]))
    return jac


def reference_point(world: WorldState, cfg: SimConfig) -> np.ndarray:
    """The body point that attributes reason about: the point robot itself,
    or the arm's end effector."""
    if world.robot_kind == "point":
        return world.robot.position
    return end_effector(world.robot, cfg)


def robot_speed(world: WorldState) -> float:
    """Scalar speed used by speed limits: planar speed for the point robot,
    the largest joint/base magnitude for the arm."""
    if world.robot_kind == "point":
        return planar_norm(*world.robot.velocity.tolist())
    r = world.robot
    return max(*map(abs, r.joint_velocities.tolist()), abs(r.base_speed))


def clamp01(x: float) -> float:
    """float(np.clip(x, 0.0, 1.0)) with the same bits, NaN and -0.0
    included, at a fraction of its cost."""
    return min(max(float(x), 0.0), 1.0)


def point_segment_distance(
    p: Sequence[float], a: Sequence[float], b: Sequence[float]
) -> float:
    """Distance from point p to segment ab, each any two floats."""
    (px, py), (ax, ay), (bx, by) = p, a, b
    abx, aby = bx - ax, by - ay
    ab = np.array((abx, aby))
    denom = float(ab @ ab)
    if denom == 0.0:
        return planar_norm(px - ax, py - ay)
    t = clamp01(np.array((px - ax, py - ay)) @ ab / denom)
    return planar_norm(px - (ax + t * abx), py - (ay + t * aby))


def segment_within(p: Sequence[float], a: Sequence[float], b: Sequence[float], r: float) -> bool:
    """`point_segment_distance(p, a, b) <= r`, on Python floats outside the
    filter band; a zero-length segment takes the exact form."""
    (px, py), (ax, ay), (bx, by) = p, a, b
    abx, aby = bx - ax, by - ay
    denom = abx * abx + aby * aby
    scale = abs(px) + abs(py) + abs(ax) + abs(ay) + abs(bx) + abs(by)
    if denom != 0.0 and scale < FILTER_RANGE:
        t = ((px - ax) * abx + (py - ay) * aby) / denom
        t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
        ex, ey = px - (ax + t * abx), py - (ay + t * aby)
        g = math.sqrt(ex * ex + ey * ey)
        if abs(g - r) > FILTER * (1.0 + scale):
            return g <= r
    return point_segment_distance(p, a, b) <= r


def _orient(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def segments_within(p0, p1, q0, q1, r: float) -> bool:
    """Whether segments p0p1 and q0q1 cross, or an endpoint of one lies
    within r >= 0 of the other."""
    d1, d2 = _orient(q0, q1, p0), _orient(q0, q1, p1)
    d3, d4 = _orient(p0, p1, q0), _orient(p0, p1, q1)
    return 0.0 <= r and (
        ((d1 > 0) != (d2 > 0) and (d3 > 0) != (d4 > 0))
        or segment_within(p0, q0, q1, r)
        or segment_within(p1, q0, q1, r)
        or segment_within(q0, p0, p1, r)
        or segment_within(q1, p0, p1, r)
    )
