"""Task files: JSON in, validated Task + CurriculumConfig out.  The stock
tasks are the files in the repository's tasks/ directory.  Also the one
reader of every input file (`read_json`) and the field check
(`check_fields`) that checkpoints and cascade descriptors use as well."""

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


@dataclass
class LoadedTask:
    task: Task
    curriculum: CurriculumConfig
    raw: dict


def point_sim_config(**overrides) -> SimConfig:
    return SimConfig(**overrides)


def arm_sim_config(**overrides) -> SimConfig:
    return SimConfig(**{"horizon": 300, "target_radius": 0.1, **overrides})


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


def _numbers(n: int) -> tuple:
    return (lambda v: _finite_list(v) and len(v) == n, f"a list of {n} finite numbers")


def _is(value) -> tuple:
    return (lambda v: v == value, repr(value))


# (holds, what) rules that the field tables of task files, checkpoints and
# cascade descriptors share
_OBJECT = (lambda v: isinstance(v, dict), "a JSON object")
_NUMBER = (_finite, "a finite number")
_ROBOT = (lambda v: v in ("point", "arm"), "'point' or 'arm'")
_ADDON_KINDS = tuple(k for k in ATTRIBUTE_KINDS if k != "reach")
_ADDON_KIND = (lambda v: v in _ADDON_KINDS, f"one of {_ADDON_KINDS}")


def check_fields(d: dict, rules: dict, where: str = "", required=(), unknown=None) -> None:
    """Check `d` against a `{key: (holds, what)}` table: the first value
    that fails raises `TaskConfigError` "{where}{key} must be {what}, got
    {value!r}".  A key in `required` must be present; any other is checked
    only when it is.  Given `unknown`, a message prefix, `d` may hold no
    key that `rules` lacks."""
    extra = set(d) - set(rules)
    if unknown is not None and extra:
        raise TaskConfigError(f"{unknown}{sorted(extra)}")
    for key, (holds, what) in rules.items():
        if key in d:
            if not holds(d[key]):
                raise TaskConfigError(f"{where}{key} must be {what}, got {d[key]!r}")
        elif key in required:
            raise TaskConfigError(f"{where}{key} must be {what}, got nothing")


def read_json(path: str | Path, what: str = "file") -> dict:
    """The JSON object in an input file (a task file, a checkpoint or a
    cascade descriptor; `what` names it in errors).  A missing file raises
    `FileNotFoundError`; a file that cannot be read, is not UTF-8, is not
    JSON or holds no object raises `TaskConfigError`."""
    path = Path(path)
    try:
        d = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise FileNotFoundError(f"{what} not found: {path}") from None
    except (OSError, ValueError, RecursionError) as exc:  # a directory, not UTF-8, not JSON
        raise TaskConfigError(f"cannot read {what} {path}: {exc}") from None
    if not isinstance(d, dict):
        raise TaskConfigError(f"{what} {path} must hold a JSON object")
    return d


# what each top-level value of a task file must be; no other keys are allowed
_TASK_RULES = {"robot": _ROBOT, "name": (lambda v: isinstance(v, str), "a string"),
               "sim": _OBJECT, "nominal": _OBJECT,
               "addons": (lambda v: isinstance(v, list), "a JSON array"), "curriculum": _OBJECT}

# what each sim value must be; a task file may leave any of them out
_SIM_RULES = {
    "horizon": (_count, "an integer >= 1"),
    **dict.fromkeys(
        ("dt", "mass", "joint_inertia", "workspace", "force_limit", "torque_limit",
         "target_radius", "robot_radius", "link_radius"),
        (_positive, "a finite number > 0"),
    ),
    "damping": (lambda v: _finite(v) and v >= 0, "a finite number >= 0"),
    "link_lengths": (lambda v: isinstance(v, list) and len(v) == 4 and all(map(_positive, v)),
                     "four numbers > 0"),
}

_NOMINAL_RULES = {
    "point": {"target": _numbers(2), "position": _numbers(2)},
    "arm": {"target": _numbers(2), "base_x": _NUMBER, "joint_angles": _numbers(4)},
}

# what each add-on parameter must be (all but a speed limit's coeff are
# required), then what the parameters together must satisfy, given the step
# length (a door schedule holds one interval per period); checked at parse
# time so a bad file fails here and not mid-episode
_FINITE_LIST = (_finite_list, "a list of finite numbers")
_ADDON_PARAMS = {
    "obstacle": {"center": _FINITE_LIST, **dict.fromkeys(("radius", "speed", "heading"), _NUMBER)},
    "door": dict.fromkeys(("x", "y_lo", "y_hi", "period", "open_fraction"), _NUMBER),
    "speed": {"times": _FINITE_LIST, "limits": _FINITE_LIST, "coeff": _NUMBER},
    "force": dict.fromkeys(("magnitude", "heading"), _NUMBER),
}
_ADDON_RULES = {
    "obstacle": (
        ("radius > 0", lambda p, dt: p["radius"] > 0),
        ("a planar center", lambda p, dt: len(p["center"]) == 2),
    ),
    "door": (
        ("period >= sim.dt", lambda p, dt: p["period"] >= dt),
        ("0 <= open_fraction <= 1", lambda p, dt: 0 <= p["open_fraction"] <= 1),
        ("y_lo < y_hi", lambda p, dt: p["y_lo"] < p["y_hi"]),
    ),
    "speed": (
        ("as many times as limits, at least one",
         lambda p, dt: 0 < len(p["times"]) == len(p["limits"])),
        ("strictly increasing times",
         lambda p, dt: all(a < b for a, b in zip(p["times"], p["times"][1:]))),
    ),
    "force": (),
}


def _parse_sim(robot: str, spec: dict) -> SimConfig:
    check_fields(spec, _SIM_RULES, "sim.", unknown="unknown sim keys: ")
    if "link_lengths" in spec:
        spec = dict(spec, link_lengths=tuple(spec["link_lengths"]))
    cfg = (point_sim_config if robot == "point" else arm_sim_config)(**spec)
    # each explicit Euler step scales a velocity by 1 - damping * dt, which
    # must not reverse it (below -1 it grows without bound)
    if cfg.damping * cfg.dt > 1:
        raise TaskConfigError(
            f"sim.damping * sim.dt must be <= 1, got {cfg.damping!r} * {cfg.dt!r}"
        )
    return cfg


def _parse_nominal(robot: str, spec: dict) -> Nominal:
    check_fields(spec, _NOMINAL_RULES[robot], "nominal ", required=("target", "position"),
                 unknown=f"unknown nominal keys for the {robot} robot: ")
    target = np.asarray(spec["target"], dtype=float)
    if robot == "point":
        return Nominal(target=target, position=np.asarray(spec["position"], dtype=float))
    angles = np.asarray(spec.get("joint_angles", [0.0] * 4), dtype=float)
    return Nominal(target=target, base_x=float(spec.get("base_x", 0.0)), joint_angles=angles)


def _parse_addons(spec: list, dt: float) -> list[AddonSetup]:
    out = []
    for i, item in enumerate(spec):
        if not isinstance(item, dict) or "type" not in item:
            raise TaskConfigError(f"addon {i} needs a type")
        kind = item["type"]
        if kind not in _ADDON_KINDS:
            raise TaskConfigError(f"addon {i}: unknown type {kind!r}")
        where = f"addon {i} ({kind}): "
        params = item.get("params", {})
        if not isinstance(params, dict):
            raise TaskConfigError(f"{where}params must be a JSON object")
        rules = _ADDON_PARAMS[kind]
        check_fields(params, rules, where, required=set(rules) - {"coeff"},
                     unknown=f"{where}unknown params ")
        for rule, holds in _ADDON_RULES[kind]:
            if not holds(params, dt):
                raise TaskConfigError(f"{where}needs {rule}")
        out.append(AddonSetup(kind, dict(params)))
    return out


# what each curriculum value must be ("lambda" is the file's name for growth)
_CURRICULUM_RULES = {
    **dict.fromkeys(("queue_capacity", "min_entries"), (_count, "an integer >= 1")),
    **dict.fromkeys(("initial_level", "growth", "lambda", "threshold", "terminal_level"),
                    _NUMBER),
}


def _parse_curriculum(spec: dict) -> CurriculumConfig:
    check_fields(spec, _CURRICULUM_RULES, "curriculum.")
    kw = dict(spec)
    if "lambda" in kw:
        kw["growth"] = kw.pop("lambda")
    try:
        return CurriculumConfig(**kw)
    except (TypeError, ValueError) as exc:
        raise TaskConfigError(f"bad curriculum config: {exc}") from None


def parse_task(raw: dict) -> LoadedTask:
    check_fields(raw, _TASK_RULES, required=("robot",), unknown="unknown task keys: ")
    robot = raw["robot"]
    cfg = _parse_sim(robot, raw.get("sim", {}))
    nominal = _parse_nominal(robot, raw.get("nominal", {}))
    addons = _parse_addons(raw.get("addons", []), cfg.dt)
    curriculum = _parse_curriculum(raw.get("curriculum", {}))
    task = build_task(robot, cfg, nominal, addons)
    return LoadedTask(task, curriculum, raw)


def load_task(path: str | Path) -> LoadedTask:
    return parse_task(read_json(path, "task file"))


# The stock tasks are the files in tasks/ at the repository root, which an
# editable install or a checkout on the path finds from here.
TASKS_DIR = Path(__file__).resolve().parents[2] / "tasks"
STOCK_TASK_NAMES = tuple(sorted(p.stem for p in TASKS_DIR.glob("*.json")))


def load_stock_task(name: str) -> LoadedTask:
    """A stock task by name; each call reads the file again.  Not through
    `load_task`, so a traced run records one load span per task."""
    if name not in STOCK_TASK_NAMES:
        raise KeyError(f"no stock task named {name!r} in {TASKS_DIR}")
    return parse_task(read_json(TASKS_DIR / f"{name}.json", "task file"))
