"""Task files: JSON in, validated Task + CurriculumConfig out.  The stock
tasks are the files in the repository's tasks/ directory."""

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

# the JSON type of each section of a task file; no other keys are allowed
_SECTIONS = {"sim": dict, "nominal": dict, "addons": list, "curriculum": dict}
_TASK_KEYS = {"robot", "name", *_SECTIONS}

_SIM_KEYS = {
    "dt", "horizon", "mass", "damping", "force_limit", "torque_limit",
    "joint_inertia", "link_lengths", "target_radius", "workspace",
    "robot_radius", "link_radius",
}

_NOMINAL_KEYS = {"point": {"target", "position"}, "arm": {"target", "base_x", "joint_angles"}}

_ADDON_REQUIRED = {
    "obstacle": {"center", "radius", "speed", "heading"},
    "door": {"x", "y_lo", "y_hi", "period", "open_fraction"},
    "speed": {"times", "limits"},
    "force": {"magnitude", "heading"},
}
_ADDON_OPTIONAL = {"speed": {"coeff"}}

# checked at parse time so a bad file fails here and not mid-episode: the
# add-on parameters that are lists of finite numbers (every other one is a
# finite number), and what each add-on's parameters must satisfy
_ADDON_LISTS = {"center", "times", "limits"}
_ADDON_RULES = {
    "obstacle": (
        ("radius > 0", lambda p: p["radius"] > 0),
        ("a planar center", lambda p: len(p["center"]) == 2),
    ),
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
    return SimConfig(**overrides)


def arm_sim_config(**overrides) -> SimConfig:
    return SimConfig(**{"horizon": 300, "target_radius": 0.1, **overrides})


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


def _count(v) -> bool:
    """An integer >= 1 that is not a bool."""
    return not isinstance(v, bool) and isinstance(v, int) and v >= 1


def _finite_list(v) -> bool:
    return isinstance(v, (list, tuple)) and all(map(_finite, v))


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
    if not _count(cfg.horizon):
        raise TaskConfigError(f"sim.horizon must be an integer >= 1, got {cfg.horizon!r}")
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


def _coords(spec: dict, key: str, n: int, default=None) -> np.ndarray:
    value = spec.get(key, default)
    if not (_finite_list(value) and len(value) == n):
        raise TaskConfigError(f"nominal {key} must be a list of {n} finite numbers, got {value!r}")
    return np.asarray(value, dtype=float)


def _parse_nominal(robot: str, spec: dict) -> Nominal:
    unknown = set(spec) - _NOMINAL_KEYS[robot]
    if unknown:
        raise TaskConfigError(f"unknown nominal keys for the {robot} robot: {sorted(unknown)}")
    target = _coords(spec, "target", 2)
    if robot == "point":
        return Nominal(target=target, position=_coords(spec, "position", 2))
    base_x = spec.get("base_x", 0.0)
    if not _finite(base_x):
        raise TaskConfigError(f"nominal base_x must be a finite number, got {base_x!r}")
    angles = _coords(spec, "joint_angles", 4, [0.0] * 4)
    return Nominal(target=target, base_x=float(base_x), joint_angles=angles)


def _parse_addons(spec: list) -> list[AddonSetup]:
    out = []
    for i, item in enumerate(spec):
        if not isinstance(item, dict) or "type" not in item:
            raise TaskConfigError(f"addon {i} needs a type")
        kind = item["type"]
        if kind not in ATTRIBUTE_KINDS or kind == "reach":
            raise TaskConfigError(f"addon {i}: unknown type {kind!r}")
        params = item.get("params", {})
        if not isinstance(params, dict):
            raise TaskConfigError(f"addon {i} ({kind}): params must be a JSON object")
        unknown = set(params) - _ADDON_REQUIRED[kind] - _ADDON_OPTIONAL.get(kind, set())
        if unknown:
            raise TaskConfigError(f"addon {i} ({kind}): unknown params {sorted(unknown)}")
        for key, v in params.items():
            if not (_finite_list if key in _ADDON_LISTS else _finite)(v):
                raise TaskConfigError(f"addon {i} ({kind}): {key} must be finite, got {v!r}")
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
        out.append(AddonSetup(kind, dict(params)))
    return out


# what each curriculum value must be ("lambda" is the file's name for growth)
_CURRICULUM_RULES = {
    **dict.fromkeys(("queue_capacity", "min_entries"), (_count, "an integer >= 1")),
    **dict.fromkeys(("initial_level", "growth", "lambda", "threshold", "terminal_level"),
                    (_finite, "a finite number")),
}


def _parse_curriculum(spec: dict) -> CurriculumConfig:
    for key, (holds, what) in _CURRICULUM_RULES.items():
        if key in spec and not holds(spec[key]):
            raise TaskConfigError(f"curriculum.{key} must be {what}, got {spec[key]!r}")
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
    unknown = set(raw) - _TASK_KEYS
    if unknown:
        raise TaskConfigError(f"unknown task keys: {sorted(unknown)}")
    robot = raw.get("robot")
    if robot not in ("point", "arm"):
        raise TaskConfigError(f"robot must be 'point' or 'arm', got {robot!r}")
    for key, kind in _SECTIONS.items():
        if not isinstance(raw.get(key, kind()), kind):
            raise TaskConfigError(f"{key} must be a JSON {'object' if kind is dict else 'array'}")
    cfg = _parse_sim(robot, raw.get("sim", {}))
    nominal = _parse_nominal(robot, raw.get("nominal", {}))
    addons = _parse_addons(raw.get("addons", []))
    curriculum = _parse_curriculum(raw.get("curriculum", {}))
    task = build_task(robot, cfg, nominal, addons)
    return LoadedTask(task, curriculum, raw)


def _read_task_file(path: Path):
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise FileNotFoundError(f"task file not found: {path}") from None
    except (OSError, ValueError) as exc:  # a directory, not UTF-8, not JSON
        raise TaskConfigError(f"cannot read task file {path}: {exc}") from None


def load_task(path: str | Path) -> LoadedTask:
    return parse_task(_read_task_file(Path(path)))


# The stock tasks are the files in tasks/ at the repository root, which an
# editable install or a checkout on the path finds from here.
TASKS_DIR = Path(__file__).resolve().parents[2] / "tasks"
STOCK_TASK_NAMES = tuple(sorted(p.stem for p in TASKS_DIR.glob("*.json")))


def load_stock_task(name: str) -> LoadedTask:
    """A stock task by name; each call reads the file again.  Not through
    `load_task`, so a traced run records one load span per task."""
    if name not in STOCK_TASK_NAMES:
        raise KeyError(f"no stock task named {name!r} in {TASKS_DIR}")
    return parse_task(_read_task_file(TASKS_DIR / f"{name}.json"))
