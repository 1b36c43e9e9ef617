"""Cascaded policies: a base reaching policy plus per-attribute add-on
modules.

Each module sees its attribute's minimal view concatenated with the
action proposed so far, emits a compensation, and the stack's action is
the weighted, actuator-clamped sum.  Modules trained once can be
re-bound to other entities of the same kind (a second obstacle, say)
with no further training.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .attributes import AttributeSpec, Task, robot_columns, view_dim
from .dynamics import WorldState, action_dim
from .errors import TaskConfigError
from .nets import DenseNet, GaussianPolicy
from .taskio import _ADDON_KIND, _ARRAY, _NUMBER, _OBJECT, _ROBOT, _is, check_fields

DEFAULT_PENALTY_COEFF = 0.01
INITIAL_MODULE_WEIGHT = 0.1


@dataclass
class BaseModule:
    """Reaching policy and its critic."""

    robot: str
    policy: GaussianPolicy
    value_net: DenseNet
    frozen: bool = False


@dataclass
class AttributeModule:
    """Compensation network for one attribute, plus its training critic.

    The critic sees base view + attribute view; it exists only for
    training and is carried along so checkpoints can resume.
    """

    robot: str
    kind: str
    comp_policy: GaussianPolicy  # input: attribute view + incoming action
    value_net: DenseNet
    weight: float = INITIAL_MODULE_WEIGHT
    penalty_coeff: float = DEFAULT_PENALTY_COEFF
    entity_index: int = 0


@dataclass
class CascadePolicy:
    """A stack for one task; module i acts on the task's own spec `module_specs[i]`."""

    base: BaseModule
    modules: list[AttributeModule]
    module_specs: list[AttributeSpec]
    task: Task


@dataclass
class CascadeStepRecord:
    """Everything observed while producing one tick of stack actions.

    Every array holds one row per world, in the order of the worlds.
    `log_prob` holds the log-probs of the exploring head's samples, or
    None when every head ran at its mean.
    """

    base_view: np.ndarray
    base_action: np.ndarray
    views: list[np.ndarray] = field(default_factory=list)
    comp_inputs: list[np.ndarray] = field(default_factory=list)
    comp_actions: list[np.ndarray] = field(default_factory=list)
    stack_actions: list[np.ndarray] = field(default_factory=list)
    log_prob: np.ndarray | None = None


def combine(
    incoming: np.ndarray, compensation: np.ndarray, weight: float, limits: np.ndarray
) -> np.ndarray:
    """Weighted additive correction, clamped to actuator limits."""
    return np.clip(incoming + weight * compensation, -limits, limits)


def weight_schedule(iteration: int, ramp_iterations: int) -> float:
    """Linear ramp from INITIAL_MODULE_WEIGHT to 1 over the first
    `ramp_iterations`."""
    if ramp_iterations <= 0:
        return 1.0
    frac = min(max(iteration, 0) / ramp_iterations, 1.0)
    return INITIAL_MODULE_WEIGHT + (1.0 - INITIAL_MODULE_WEIGHT) * frac


def compensation_penalty(comp_action: np.ndarray, coeff: float) -> float:
    """Reward shaping that keeps modules quiet when their attribute is idle."""
    return -coeff * float(comp_action @ comp_action)


def cascade_act(
    cascade: CascadePolicy,
    worlds: Sequence[WorldState],
    rngs: Sequence[np.random.Generator] | None = None,
    explore: int | None = None,
) -> tuple[np.ndarray, CascadeStepRecord]:
    """Run the whole stack once on a batch of worlds, every net once.

    Heads act at their mean, except head `explore` (0 is the base, i the
    i-th module), which samples world j's action with `rngs[j]`.  Returns
    the (E, action_dim) stack actions and the tick's record.
    """
    if explore is not None and rngs is None:
        raise ValueError("an exploring head needs rngs")
    task = cascade.task
    columns = robot_columns(worlds, task.robot, task.cfg)
    base_view = task.base.extract(worlds, columns)
    current, log_prob = _head(cascade.base.policy, base_view, rngs, explore == 0)
    rec = CascadeStepRecord(base_view, current, log_prob=log_prob)
    for i, (module, spec) in enumerate(zip(cascade.modules, cascade.module_specs), 1):
        view = spec.extract(worlds, columns)
        comp_in = np.concatenate([view, current], axis=1)
        comp, log_prob = _head(module.comp_policy, comp_in, rngs, explore == i)
        if log_prob is not None:
            rec.log_prob = log_prob
        current = combine(current, comp, module.weight, task.limits)
        rec.views.append(view)
        rec.comp_inputs.append(comp_in)
        rec.comp_actions.append(comp)
        rec.stack_actions.append(current)
    return current, rec


def _head(
    policy: GaussianPolicy,
    x: np.ndarray,
    rngs: Sequence[np.random.Generator] | None,
    explores: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Samples and their log-probs when exploring, else the means alone."""
    return policy.sample(x, rngs) if explores else (policy.mean(x), None)


def check_widths(base: BaseModule, modules: list[AttributeModule]) -> None:
    """Every module drives the base's robot, and every net's input and
    output widths fit that robot's views and actions."""
    robot = base.robot
    adim = action_dim(robot)
    want = view_dim("reach", robot)
    if base.policy.state_dim != want:
        raise TaskConfigError(
            f"base policy expects view {base.policy.state_dim}, robot {robot!r} has {want}"
        )
    if base.policy.action_dim != adim:
        raise TaskConfigError("base policy action width does not fit the robot")
    for i, m in enumerate(modules):
        if m.robot != robot:
            raise TaskConfigError(
                f"module {i} was trained for {m.robot!r}, base drives {robot!r}"
            )
        want = view_dim(m.kind, robot) + adim
        if m.comp_policy.state_dim != want:
            raise TaskConfigError(
                f"module {i} expects input {m.comp_policy.state_dim}, "
                f"attribute view + action is {want}"
            )
        if m.comp_policy.action_dim != adim:
            raise TaskConfigError("module action width does not fit the robot")


def make_cascade(base: BaseModule, modules: list[AttributeModule], task: Task) -> CascadePolicy:
    """The stack that acts in `task`: the base drives the task's robot, the
    widths fit, and a module bound to e acts on the e-th add-on of its kind,
    which the task must define."""
    if base.robot != task.robot:
        raise TaskConfigError(f"base checkpoint drives {base.robot!r}, task uses {task.robot!r}")
    check_widths(base, modules)
    specs = []
    for i, m in enumerate(modules):
        of_kind = [s for s in task.addons if s.kind == m.kind]
        if not of_kind:
            raise TaskConfigError(f"module {i} compensates for {m.kind!r}, task has no such add-on")
        if m.entity_index >= len(of_kind):
            raise TaskConfigError(
                f"module {i} bound to {m.kind} {m.entity_index}, task defines {len(of_kind)}"
            )
        specs.append(of_kind[m.entity_index])
    return CascadePolicy(base, list(modules), specs, task)


# ---------------------------------------------------------------------------
# checkpoint payloads

def base_module_to_dict(base: BaseModule) -> dict:
    return {
        "kind": "base",
        "robot": base.robot,
        "policy": base.policy.to_dict(),
        "value": base.value_net.to_dict(),
    }


# what each field of a checkpoint, and of its policy and value nets, must
# be; every one is required (the nets check their numbers and shapes)
_BASE_RULES = {"kind": _is("base"), "robot": _ROBOT, "policy": _OBJECT, "value": _OBJECT}
_MODULE_RULES = {**_BASE_RULES, "kind": _is("attribute_module"), "attribute": _ADDON_KIND,
                 "weight": _NUMBER, "penalty_coeff": _NUMBER}
_VALUE_RULES = dict.fromkeys(("layer_sizes", "weights", "biases"), _ARRAY)
_POLICY_RULES = {**_VALUE_RULES, "log_std": _ARRAY}


def _check_checkpoint(d: dict, rules: dict, where: str) -> None:
    check_fields(d, rules, where, required=rules)
    check_fields(d["policy"], _POLICY_RULES, f"{where}policy.", required=_POLICY_RULES)
    check_fields(d["value"], _VALUE_RULES, f"{where}value.", required=_VALUE_RULES)


def base_module_from_dict(d: dict) -> BaseModule:
    _check_checkpoint(d, _BASE_RULES, "base checkpoint ")
    return BaseModule(
        robot=d["robot"],
        policy=GaussianPolicy.from_dict(d["policy"]),
        value_net=DenseNet.from_dict(d["value"]),
        frozen=True,
    )


def attribute_module_to_dict(module: AttributeModule) -> dict:
    return {
        "kind": "attribute_module",
        "robot": module.robot,
        "attribute": module.kind,
        "policy": module.comp_policy.to_dict(),
        "value": module.value_net.to_dict(),
        "weight": module.weight,
        "penalty_coeff": module.penalty_coeff,
    }


def attribute_module_from_dict(d: dict, entity_index: int = 0) -> AttributeModule:
    _check_checkpoint(d, _MODULE_RULES, "module checkpoint ")
    return AttributeModule(
        robot=d["robot"],
        kind=d["attribute"],
        comp_policy=GaussianPolicy.from_dict(d["policy"]),
        value_net=DenseNet.from_dict(d["value"]),
        weight=float(d["weight"]),
        penalty_coeff=float(d["penalty_coeff"]),
        entity_index=entity_index,
    )
