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
from functools import cached_property

import numpy as np

from .attributes import AttributeSpec, make_attribute, robot_columns
from .dynamics import SimConfig, WorldState, action_dim, action_limits
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
    base: BaseModule
    base_spec: AttributeSpec
    modules: list[AttributeModule]
    module_specs: list[AttributeSpec]
    cfg: SimConfig

    @property
    def robot(self) -> str:
        return self.base.robot

    @cached_property
    def limits(self) -> np.ndarray:
        """Actuator limits, computed once per stack and never written."""
        lim = action_limits(self.robot, self.cfg)
        lim.flags.writeable = False
        return lim


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
    columns = robot_columns(worlds, cascade.robot, cascade.cfg)
    base_view = cascade.base_spec.extract(worlds, columns)
    current, log_prob = _head(cascade.base.policy, base_view, rngs, explore == 0)
    rec = CascadeStepRecord(base_view, current, log_prob=log_prob)
    for i, (module, spec) in enumerate(zip(cascade.modules, cascade.module_specs), 1):
        view = spec.extract(worlds, columns)
        comp_in = np.concatenate([view, current], axis=1)
        comp, log_prob = _head(module.comp_policy, comp_in, rngs, explore == i)
        if log_prob is not None:
            rec.log_prob = log_prob
        current = combine(current, comp, module.weight, cascade.limits)
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


def make_cascade(
    base: BaseModule, modules: list[AttributeModule], cfg: SimConfig
) -> CascadePolicy:
    """Bind modules to entities and sanity-check every interface width."""
    robot = base.robot
    adim = action_dim(robot)
    base_spec = make_attribute("reach", 0, robot, cfg)
    if base.policy.state_dim != base_spec.state_dim:
        raise TaskConfigError(
            f"base policy expects view {base.policy.state_dim}, "
            f"robot {robot!r} has {base_spec.state_dim}"
        )
    if base.policy.action_dim != adim:
        raise TaskConfigError("base policy action width does not fit the robot")
    specs = []
    for i, m in enumerate(modules):
        if m.robot != robot:
            raise TaskConfigError(
                f"module {i} was trained for {m.robot!r}, base drives {robot!r}"
            )
        spec = make_attribute(m.kind, i + 1, robot, cfg, entity_index=m.entity_index)
        want = spec.state_dim + adim
        if m.comp_policy.state_dim != want:
            raise TaskConfigError(
                f"module {i} expects input {m.comp_policy.state_dim}, "
                f"attribute view + action is {want}"
            )
        if m.comp_policy.action_dim != adim:
            raise TaskConfigError("module action width does not fit the robot")
        specs.append(spec)
    return CascadePolicy(base, base_spec, list(modules), specs, cfg)


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
