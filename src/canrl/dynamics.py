"""Planar physics: a force-driven point robot and a torque-driven arm on
a sliding base, both integrated with semi-implicit Euler.

Steppers are pure state-in/state-out, so rollouts and evaluation can keep
many worlds alive and step them in lockstep, one after another on each
tick.  Robot states and obstacles are named tuples of Python floats and
cannot be written after they are made; their array properties
(`position`, `velocity`, `center`, `joint_angles`, `joint_velocities`)
build a fresh float64 array for callers that want one.  An arm state
computes its link points once (`link_points`) and every view, contact
test and reward of that state reads the same tuple of (x, y) pairs.

The per-step kernels do their arithmetic on Python floats, which is
several times cheaper than numpy calls on 2- and 4-vectors and gives
numpy's bits:
- `+ - * /`, `math.sqrt` and comparisons round exactly as numpy's
  elementwise ufuncs do;
- `itertools.accumulate` adds in `np.cumsum`'s order for a 1-D array,
  first element as is, so `arm_points` forms its cumulative angles and
  link sums on floats;
- `min(max(x, -l), l)` (or the same two comparisons written out) has the
  bits of `np.clip` for finite x;
- `np.ceil` keeps the sign of a zero result, which `math.ceil` drops, so
  `wrap_angle` restores it;
- 2-vector norms and projections whose value is read stay on
  `ndarray.dot`: BLAS may fuse the multiply-add (`fma(y, y, x*x)`), and
  `x*x + y*y` can then differ in the last bit (`planar_norm`,
  `point_segment_distance`);
- `sin`, `cos` and `tanh` stay in numpy.

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
from itertools import accumulate
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

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


class PointRobotState(NamedTuple):
    x: float
    y: float
    vx: float
    vy: float

    robot_kind = "point"

    @property
    def position(self) -> np.ndarray:
        return np.array((self.x, self.y), dtype=np.float64)

    @property
    def velocity(self) -> np.ndarray:
        return np.array((self.vx, self.vy), dtype=np.float64)


class _ArmFields(NamedTuple):
    base_x: float
    base_speed: float
    angles: tuple[float, ...]  # one per joint
    rates: tuple[float, ...]  # joint velocities


class ArticulatedRobotState(_ArmFields):
    # a subclass, so that instances can hold the link-point memo; the
    # fields themselves stay read-only
    robot_kind = "arm"
    # (cfg, link points) once `link_points` has run on this state
    _points: tuple[SimConfig, tuple[tuple[float, float], ...]] | None = None

    @property
    def joint_angles(self) -> np.ndarray:
        return np.array(self.angles, dtype=np.float64)

    @property
    def joint_velocities(self) -> np.ndarray:
        return np.array(self.rates, dtype=np.float64)


@dataclass(slots=True)
class WorldState:
    robot: PointRobotState | ArticulatedRobotState
    target_position: np.ndarray
    time: float = 0.0
    step_index: int = 0
    obstacles: "list[ObstacleParams]" = field(default_factory=list)
    door: "DoorSchedule | None" = None
    speed_profile: "SpeedLimitProfile | None" = None
    disturbance: "DisturbanceForce | None" = None


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
        return float(-half), 0.0
    if x > half:
        return float(half), 0.0
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
    px, py, vx, vy = state
    vx = decay * vx + (fx / cfg.mass) * dt
    vy = decay * vy + (fy / cfg.mass) * dt
    px, vx = _clamp_to_wall(px + vx * dt, vx, cfg.workspace)
    py, vy = _clamp_to_wall(py + vy * dt, vy, cfg.workspace)
    if not all(map(math.isfinite, (px, py, vx, vy))):
        raise SimulationFault("point state diverged")
    return PointRobotState(px, py, vx, vy)


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
    jv = [decay * v + (t / cfg.joint_inertia) * dt for v, t in zip(state.rates, torques)]
    angles = [a + v * dt for a, v in zip(state.angles, jv)]
    if not all(map(math.isfinite, angles + jv)):
        raise SimulationFault("arm state diverged")
    bs = decay * state.base_speed + (base_force / cfg.mass) * dt
    bx, bs = _clamp_to_wall(state.base_x + bs * dt, bs, cfg.workspace)
    # tuples from lists: one built from an iterator is allocated long and
    # shrunk, and once freed it sits on the interpreter's tuple free list
    return ArticulatedRobotState(bx, bs, tuple([wrap_angle(a) for a in angles]), tuple(jv))


def arm_points(
    state: ArticulatedRobotState, cfg: SimConfig
) -> tuple[tuple[float, float], ...]:
    """Base anchor plus the far end of each link, (n_links+1) (x, y) pairs.

    Angles are cumulative; at all-zero angles the arm points straight up.
    The bits are those of `base_x + np.cumsum(L * np.sin(np.cumsum(q)))`
    and `0.0 + np.cumsum(L * np.cos(...))`.
    """
    cum = np.array(list(accumulate(state.angles)))
    lengths = cfg.link_lengths
    xs = accumulate(map(mul, lengths, np.sin(cum).tolist()))
    ys = accumulate(map(mul, lengths, np.cos(cum).tolist()))
    bx = state.base_x
    return ((bx, 0.0), *[(bx + x, 0.0 + y) for x, y in zip(xs, ys)])


def link_points(
    state: ArticulatedRobotState, cfg: SimConfig
) -> tuple[tuple[float, float], ...]:
    """`arm_points` of `state`, computed on first use and kept on the
    state for every later call with the same config object."""
    memo = state._points
    if memo is None or memo[0] is not cfg:
        memo = state._points = (cfg, arm_points(state, cfg))
    return memo[1]


def end_effector(state: ArticulatedRobotState, cfg: SimConfig) -> tuple[float, float]:
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


def reference_point(world: WorldState, cfg: SimConfig) -> tuple[float, float]:
    """The body point that attributes reason about: the point robot itself,
    or the arm's end effector."""
    robot = world.robot
    if robot.robot_kind == "point":
        return robot.x, robot.y
    return end_effector(robot, cfg)


def robot_speed(world: WorldState) -> float:
    """Scalar speed used by speed limits: planar speed for the point robot,
    the largest joint/base magnitude for the arm."""
    r = world.robot
    if r.robot_kind == "point":
        return planar_norm(r.vx, r.vy)
    return max(*map(abs, r.rates), abs(r.base_speed))


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
