"""Task files: JSON in, validated Task + CurriculumConfig out, plus the
stock task definitions used by the experiment scripts."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .attributes import ATTRIBUTE_KINDS, AddonSetup, Nominal, Task, build_task
from .curriculum import CurriculumConfig
from .dynamics import SimConfig
from .errors import TaskConfigError

_SIM_KEYS = {
    "dt", "horizon", "mass", "damping", "force_limit", "torque_limit",
    "joint_inertia", "link_lengths", "target_radius", "workspace",
    "robot_radius", "link_radius",
}

_ADDON_REQUIRED = {
    "obstacle": {"center", "radius", "speed", "heading"},
    "door": {"x", "y_lo", "y_hi", "period", "open_fraction"},
    "speed": {"times", "limits"},
    "force": {"magnitude", "heading"},
}

# what each add-on's parameters must satisfy, checked at parse time so a
# bad file fails here and not mid-episode; a NaN or non-number fails too
_ADDON_RULES = {
    "obstacle": (("radius > 0", lambda p: p["radius"] > 0),),
    "door": (
        ("period > 0", lambda p: p["period"] > 0),
        ("0 <= open_fraction <= 1", lambda p: 0 <= p["open_fraction"] <= 1),
        ("y_lo < y_hi", lambda p: p["y_lo"] < p["y_hi"]),
    ),
    "speed": (
        ("as many times as limits, at least one",
         lambda p: 0 < len(p["times"]) == len(p["limits"])),
        ("strictly increasing times",
         lambda p: all(a < b for a, b in zip(p["times"], p["times"][1:]))),
    ),
    "force": (),
}


@dataclass
class LoadedTask:
    task: Task
    curriculum: CurriculumConfig
    raw: dict


def point_sim_config(**overrides) -> SimConfig:
    base = dict(
        dt=0.05, horizon=200, mass=1.0, damping=0.8, force_limit=1.0,
        target_radius=0.08, workspace=1.0, robot_radius=0.03,
    )
    base.update(overrides)
    return SimConfig(**base)


def arm_sim_config(**overrides) -> SimConfig:
    base = dict(
        dt=0.05, horizon=300, mass=1.0, damping=0.8, force_limit=1.0,
        torque_limit=1.0, joint_inertia=1.0, link_lengths=(0.25, 0.25, 0.25, 0.25),
        target_radius=0.1, workspace=1.0, link_radius=0.03,
    )
    base.update(overrides)
    return SimConfig(**base)


# each must be a finite number > 0 (damping >= 0); an arm also needs four
# link lengths > 0
_POSITIVE_SIM_KEYS = (
    "dt", "mass", "joint_inertia", "workspace", "force_limit", "torque_limit",
    "target_radius", "robot_radius", "link_radius",
)


def _finite(v) -> bool:
    """A finite number; a bool, a string or an int too large for a float
    is not one."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _positive(v) -> bool:
    return _finite(v) and v > 0


def _parse_sim(robot: str, spec: dict) -> SimConfig:
    unknown = set(spec) - _SIM_KEYS
    if unknown:
        raise TaskConfigError(f"unknown sim keys: {sorted(unknown)}")
    if "link_lengths" in spec:
        if not isinstance(spec["link_lengths"], list):
            raise TaskConfigError("sim.link_lengths must be a list")
        spec = dict(spec, link_lengths=tuple(spec["link_lengths"]))
    cfg = (point_sim_config if robot == "point" else arm_sim_config)(**spec)
    h = cfg.horizon
    if isinstance(h, bool) or not isinstance(h, int) or h < 1:
        raise TaskConfigError(f"sim.horizon must be an integer >= 1, got {h!r}")
    for key in _POSITIVE_SIM_KEYS:
        if not _positive(getattr(cfg, key)):
            raise TaskConfigError(
                f"sim.{key} must be a finite number > 0, got {getattr(cfg, key)!r}"
            )
    if not (_finite(cfg.damping) and cfg.damping >= 0):
        raise TaskConfigError(f"sim.damping must be a finite number >= 0, got {cfg.damping!r}")
    if robot == "arm" and not (
        len(cfg.link_lengths) == 4 and all(map(_positive, cfg.link_lengths))
    ):
        raise TaskConfigError(
            f"sim.link_lengths must be four numbers > 0, got {list(cfg.link_lengths)!r}"
        )
    return cfg


def _parse_nominal(robot: str, spec: dict) -> Nominal:
    try:
        target = np.asarray(spec["target"], dtype=float)
    except KeyError:
        raise TaskConfigError("nominal needs a target") from None
    if target.shape != (2,):
        raise TaskConfigError("nominal target must be a planar point")
    if robot == "point":
        if "position" not in spec:
            raise TaskConfigError("point nominal needs a position")
        pos = np.asarray(spec["position"], dtype=float)
        if pos.shape != (2,):
            raise TaskConfigError("nominal position must be a planar point")
        return Nominal(target=target, position=pos)
    angles = np.asarray(spec.get("joint_angles", [0.0] * 4), dtype=float)
    if angles.shape != (4,):
        raise TaskConfigError("nominal joint_angles must have four entries")
    return Nominal(
        target=target, base_x=float(spec.get("base_x", 0.0)), joint_angles=angles
    )


def _parse_addons(spec: list) -> list[AddonSetup]:
    out = []
    for i, item in enumerate(spec):
        if not isinstance(item, dict) or "type" not in item:
            raise TaskConfigError(f"addon {i} needs a type")
        kind = item["type"]
        if kind not in ATTRIBUTE_KINDS or kind == "reach":
            raise TaskConfigError(f"addon {i}: unknown type {kind!r}")
        params = dict(item.get("params", {}))
        missing = _ADDON_REQUIRED[kind] - set(params)
        if missing:
            raise TaskConfigError(f"addon {i} ({kind}): missing {sorted(missing)}")
        for rule, holds in _ADDON_RULES[kind]:
            try:
                ok = bool(holds(params))
            except TypeError:
                ok = False
            if not ok:
                raise TaskConfigError(f"addon {i} ({kind}): needs {rule}")
        out.append(AddonSetup(kind, params))
    return out


def _parse_curriculum(spec: dict) -> CurriculumConfig:
    kw = dict(spec)
    if "lambda" in kw:
        kw["growth"] = kw.pop("lambda")
    try:
        return CurriculumConfig(**kw)
    except (TypeError, ValueError) as exc:
        raise TaskConfigError(f"bad curriculum config: {exc}") from None


def parse_task(raw: dict) -> LoadedTask:
    if not isinstance(raw, dict):
        raise TaskConfigError("task file must hold a JSON object")
    robot = raw.get("robot")
    if robot not in ("point", "arm"):
        raise TaskConfigError(f"robot must be 'point' or 'arm', got {robot!r}")
    cfg = _parse_sim(robot, raw.get("sim", {}))
    nominal = _parse_nominal(robot, raw.get("nominal", {}))
    addons = _parse_addons(raw.get("addons", []))
    curriculum = _parse_curriculum(raw.get("curriculum", {}))
    task = build_task(robot, cfg, nominal, addons)
    return LoadedTask(task, curriculum, raw)


def load_task(path: str | Path) -> LoadedTask:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"task file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise TaskConfigError(f"{path} is not valid JSON: {exc}") from None
    return parse_task(raw)


# ---------------------------------------------------------------------------
# stock tasks

def _point_base() -> dict:
    return {
        "robot": "point",
        "nominal": {"position": [-0.5, 0.0], "target": [0.5, 0.0]},
        "addons": [],
        "curriculum": {
            "mode": "rcl", "initial_level": 0.1, "lambda": 1.2,
            "threshold": 0.8, "queue_capacity": 10, "min_entries": 3,
            "terminal_level": 1.0,
        },
    }


def _arm_base() -> dict:
    return {
        "robot": "arm",
        "nominal": {"base_x": -0.4, "joint_angles": [0, 0, 0, 0], "target": [0.45, 0.5]},
        "addons": [],
        "curriculum": {
            "mode": "rcl", "initial_level": 0.1, "lambda": 1.2,
            "threshold": 0.5, "queue_capacity": 10, "min_entries": 3,
            "terminal_level": 1.0,
        },
    }


OBSTACLE_PARAMS = {"center": [0.0, 0.0], "radius": 0.1, "speed": 0.25, "heading": math.pi / 2}
SECOND_OBSTACLE_PARAMS = {"center": [0.2, 0.35], "radius": 0.1, "speed": 0.25, "heading": -math.pi / 2}
DOOR_PARAMS = {"x": 0.0, "y_lo": -0.6, "y_hi": 0.6, "period": 2.5, "open_fraction": 0.65}
# the dip shaves the 1.25 cruise speed by a third: deep enough to force real
# braking, shallow enough that early training (compensation weight still
# ramping) is not drowned in penalties it cannot yet prevent
SPEED_PARAMS = {"times": [0.0, 3.0, 6.0, 10.0], "limits": [1.3, 0.9, 0.9, 1.3], "coeff": 0.3}
FORCE_PARAMS = {"magnitude": 0.4, "heading": 0.6}

ARM_OBSTACLE_PARAMS = {"center": [0.15, 0.55], "radius": 0.1, "speed": 0.2, "heading": math.pi}
ARM_DOOR_PARAMS = {"x": 0.1, "y_lo": 0.15, "y_hi": 0.75, "period": 2.5, "open_fraction": 0.5}
ARM_SPEED_PARAMS = {"times": [0.0, 4.0, 8.0, 15.0], "limits": [1.2, 0.8, 0.8, 1.2], "coeff": 0.3}
ARM_FORCE_PARAMS = {"magnitude": 0.3, "heading": -math.pi / 4}


def stock_task_dict(name: str) -> dict:
    """Task definitions shipped with the package, by name."""
    d = _stock_task_dict(name)
    d["name"] = name
    return d


def _stock_task_dict(name: str) -> dict:
    point_addons = {
        "obstacle": ("obstacle", OBSTACLE_PARAMS, 0.3),
        "door": ("door", DOOR_PARAMS, 0.6),
        "speed": ("speed", SPEED_PARAMS, 0.5),
        "force": ("force", FORCE_PARAMS, 0.6),
    }
    arm_addons = {
        "obstacle": ("obstacle", ARM_OBSTACLE_PARAMS, 0.35),
        "door": ("door", ARM_DOOR_PARAMS, 0.35),
        "speed": ("speed", ARM_SPEED_PARAMS, 0.3),
        "force": ("force", ARM_FORCE_PARAMS, 0.35),
    }
    if name == "point_reach":
        return _point_base()
    if name == "arm_reach":
        return _arm_base()
    if name == "point_two_obstacles":
        d = _point_base()
        # faster than the single-obstacle trainer so avoidance actually
        # separates a compensated policy from the bare base
        d["addons"] = [
            {"type": "obstacle", "params": dict(OBSTACLE_PARAMS, speed=0.35)},
            {"type": "obstacle", "params": dict(SECOND_OBSTACLE_PARAMS, speed=0.35)},
        ]
        d["curriculum"]["mode"] = "cl"
        d["curriculum"]["threshold"] = 0.5
        return d
    for prefix, addon_map, builder in (
        ("point_", point_addons, _point_base),
        ("arm_", arm_addons, _arm_base),
    ):
        if name.startswith(prefix):
            key = name[len(prefix):]
            if key in addon_map:
                kind, params, threshold = addon_map[key]
                d = builder()
                d["addons"] = [{"type": kind, "params": dict(params)}]
                d["curriculum"]["mode"] = "cl"
                d["curriculum"]["threshold"] = threshold
                if name == "point_obstacle":
                    # corner-to-corner crossing straight through the patrol
                    # area: the moving disc sits on the only sensible route,
                    # and the distance is too far to reach by wandering.  The
                    # deep starting level keeps the early draws pinned to the
                    # corners, which is what makes that distance binding.
                    d["nominal"] = {"position": [-0.8, -0.55], "target": [0.8, 0.55]}
                    d["curriculum"]["initial_level"] = 0.01
                return d
    raise KeyError(f"no stock task named {name!r}")


STOCK_TASK_NAMES = (
    "point_reach", "point_obstacle", "point_door", "point_speed", "point_force",
    "point_two_obstacles",
    "arm_reach", "arm_obstacle", "arm_door", "arm_speed", "arm_force",
)


def load_stock_task(name: str) -> LoadedTask:
    return parse_task(stock_task_dict(name))


def write_stock_tasks(directory: str | Path) -> list[Path]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name in STOCK_TASK_NAMES:
        path = directory / f"{name}.json"
        path.write_text(json.dumps(stock_task_dict(name), indent=2, sort_keys=True) + "\n")
        written.append(path)
    return written
