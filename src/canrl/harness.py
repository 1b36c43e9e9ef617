"""Run-level plumbing: checkpoints, evaluation, assembly, comparisons.

Everything here writes plain text.  Floats go through repr so a file read
back with json/float() reproduces the exact bits that were written.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .attributes import Task, obstacle_clearance, run_episodes
from .cascade import (
    AttributeModule,
    BaseModule,
    CascadePolicy,
    attribute_module_from_dict,
    attribute_module_to_dict,
    base_module_from_dict,
    base_module_to_dict,
    cascade_act,
    make_cascade,
)
from .errors import TaskConfigError
from .ppo import (
    EVAL_STREAM,
    IterationLog,
    PPOConfig,
    TrainResult,
    episode_rng,
    train_attribute,
    train_base,
    train_flat,
)
from .taskio import _NUMBER, LoadedTask, _is, check_fields, read_json

# ---------------------------------------------------------------------------
# writers

def format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_json(path: str | Path, payload: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def write_csv(path: str | Path, columns, rows) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([format_cell(v) for v in row])
    return path


def write_training_log(path: str | Path, log: list[IterationLog]) -> Path:
    columns = [f.name for f in dataclasses.fields(IterationLog)]
    return write_csv(path, columns, map(dataclasses.astuple, log))


def log_path_for(out_path: str | Path) -> Path:
    """Training log lives next to the checkpoint unless CAN_LOG_DIR says else."""
    out_path = Path(out_path)
    name = out_path.stem + ".train.csv"
    override = os.environ.get("CAN_LOG_DIR")
    if override:
        return Path(override) / name
    return out_path.parent / name


# ---------------------------------------------------------------------------
# checkpoints

def save_base(path: str | Path, base: BaseModule) -> Path:
    return write_json(path, base_module_to_dict(base))


def save_module(path: str | Path, module: AttributeModule) -> Path:
    return write_json(path, attribute_module_to_dict(module))


def load_base(path: str | Path) -> BaseModule:
    return base_module_from_dict(read_json(path, "base checkpoint"))


def load_module(path: str | Path, entity_index: int = 0) -> AttributeModule:
    return attribute_module_from_dict(read_json(path, "module checkpoint"), entity_index)


# ---------------------------------------------------------------------------
# evaluation

def _robot_record(world) -> dict:
    r = world.robot
    if r.robot_kind == "point":
        return {"position": [r.x, r.y], "velocity": [r.vx, r.vy]}
    return {
        "base_x": r.base_x,
        "base_speed": r.base_speed,
        "joint_angles": list(r.angles),
        "joint_velocities": list(r.rates),
    }


# episodes run in lockstep blocks of at most this many, in index order,
# which bounds the live worlds (and trajectory lines held) for any count
EVAL_BLOCK = 256


def _blocks(seed: int, episodes: int) -> Iterator[tuple[int, list[np.random.Generator]]]:
    """(first index, eval-stream rngs) of episodes 0..episodes-1, block
    by block."""
    for first in range(0, episodes, EVAL_BLOCK):
        last = min(first + EVAL_BLOCK, episodes)
        yield first, [episode_rng(seed, EVAL_STREAM, k) for k in range(first, last)]


def evaluate_policy(
    act: Callable,
    task: Task,
    episodes: int,
    seed: int,
    level: float = 1.0,
    trajectory_path: str | Path | None = None,
) -> dict:
    """Roll episodes with `act(worlds, rngs) -> (actions, records)` and
    tally outcomes.

    An episode succeeds when the target is reached and no penalty event
    fired along the way.  Episode k draws from the eval stream at index
    k, so reports are reproducible and independent of each other.
    Episodes run in lockstep blocks; tallies and trajectory lines are
    kept per episode and reduced in episode order, so neither depends on
    the block size.
    """
    if episodes < 1:
        raise TaskConfigError(f"need at least 1 episode, got {episodes}")
    if not 0.0 <= level <= 1.0:
        raise TaskConfigError(f"level must be in [0, 1], got {level}")
    reached = 0
    successes = 0
    lengths = []
    totals = []
    violations: dict[str, int] = {}
    sink = None
    if trajectory_path is not None:
        Path(trajectory_path).parent.mkdir(parents=True, exist_ok=True)
        sink = open(trajectory_path, "w")
    try:
        for first, rngs in _blocks(seed, episodes):
            n = len(rngs)
            total = [0.0] * n
            steps = [0] * n
            events: list[list[str]] = [[] for _ in range(n)]
            lines: list[list[str]] = [[] for _ in range(n)]
            for step in run_episodes(task, act, level, rngs):
                k = step.episode
                total[k] += float(sum(step.rewards))
                steps[k] += 1
                events[k] += step.events
                if sink is not None:
                    rec = {
                        "episode": first + k,
                        "t": step.next_world.time,
                        "robot": _robot_record(step.next_world),
                        "action": [float(v) for v in np.asarray(step.action)],
                        "rewards": [float(r) for r in step.rewards],
                        "total_reward": float(sum(step.rewards)),
                        "events": list(step.events),
                    }
                    lines[k].append(json.dumps(rec, sort_keys=True) + "\n")
            for k in range(n):
                got_there = "reached_target" in events[k]
                clean = True
                for ev in events[k]:  # every other event is a penalty event
                    if ev != "reached_target":
                        clean = False
                        violations[ev] = violations.get(ev, 0) + 1
                reached += int(got_there)
                successes += int(got_there and clean)
                if sink is not None:
                    sink.writelines(lines[k])
            lengths += steps
            totals += total
    finally:
        if sink is not None:
            sink.close()
    return {
        "episodes": episodes,
        "level": level,
        "seed": seed,
        "success_rate": successes / episodes,
        "reached": reached,
        "mean_episode_reward": float(np.mean(totals)),
        "mean_episode_length": float(np.mean(lengths)),
        "violations": violations,
    }


def cascade_actor(cascade: CascadePolicy) -> Callable:
    """The stack at its mean actions, as an episode actor."""
    return lambda worlds, rngs: cascade_act(cascade, worlds)


CLEARANCE_FACTOR = 3.0


def compensation_profile(
    cascade: CascadePolicy,
    episodes: int,
    seed: int,
    level: float = 1.0,
) -> dict:
    """How much the last module pushes in its own task when obstacles are far away.

    A step counts as far when every obstacle's surface gap exceeds
    CLEARANCE_FACTOR times its own contact range.  A module that learned
    a local dodge should be near-silent on those steps.  Episodes run in
    lockstep blocks as in `evaluate_policy`; the norms are concatenated
    episode by episode.
    """
    if not cascade.modules:
        raise TaskConfigError("profile needs at least one module")
    task = cascade.task
    contact = (
        task.cfg.robot_radius if task.robot == "point" else task.cfg.link_radius
    )
    act = cascade_actor(cascade)
    base_norms = []
    comp_norms = []
    total_steps = 0
    for _, rngs in _blocks(seed, episodes):
        far_base: list[list[float]] = [[] for _ in rngs]
        far_comp: list[list[float]] = [[] for _ in rngs]
        for step in run_episodes(task, act, level, rngs):
            total_steps += 1
            world = step.world
            far = all(
                obstacle_clearance(world, task.cfg, obs)
                > CLEARANCE_FACTOR * (obs.radius + contact)
                for obs in world.obstacles
            )
            if far and world.obstacles:
                rec, j = step.records, step.row
                far_base[step.episode].append(float(np.linalg.norm(rec.base_action[j])))
                far_comp[step.episode].append(
                    float(np.linalg.norm(rec.comp_actions[-1][j]))
                )
        for b, c in zip(far_base, far_comp):
            base_norms += b
            comp_norms += c
    if not base_norms:
        raise TaskConfigError("no far-from-obstacle steps observed")
    mean_base = float(np.mean(base_norms))
    mean_comp = float(np.mean(comp_norms))
    return {
        "episodes": episodes,
        "steps_total": total_steps,
        "steps_far": len(base_norms),
        "mean_base_norm": mean_base,
        "mean_comp_norm": mean_comp,
        "comp_to_base_ratio": mean_comp / mean_base,
    }


# ---------------------------------------------------------------------------
# cascade descriptors

def write_cascade_descriptor(
    path: str | Path,
    base_checkpoint: str,
    modules: list[dict],
) -> Path:
    payload = {
        "kind": "cascade",
        "base_checkpoint": base_checkpoint,
        "modules": modules,
    }
    return write_json(path, payload)


# what each field of a cascade descriptor, and of each of its modules, must be
_PATH = (lambda v: isinstance(v, str), "a path")
_OBJECTS = (lambda v: isinstance(v, list) and all(isinstance(e, dict) for e in v),
            "a list of objects")
_DESCRIPTOR_RULES = {"kind": _is("cascade"), "base_checkpoint": _PATH, "modules": _OBJECTS}
_INDEX = (lambda v: not isinstance(v, bool) and isinstance(v, int) and v >= 0, "an integer >= 0")
_ENTRY_RULES = {"checkpoint": _PATH, "entity_binding": _INDEX, "weight": _NUMBER}


def load_cascade(descriptor_path: str | Path, task: Task) -> CascadePolicy:
    """Rebuild a stack from a descriptor; paths resolve next to the file."""
    descriptor_path = Path(descriptor_path)
    d = read_json(descriptor_path, "cascade descriptor")
    where = f"cascade descriptor {descriptor_path}: "
    check_fields(d, _DESCRIPTOR_RULES, where, required=("kind", "base_checkpoint"))
    entries = d.get("modules", [])
    for i, entry in enumerate(entries):
        check_fields(entry, _ENTRY_RULES, f"{where}modules[{i}].", required=("checkpoint",))
    root = descriptor_path.parent
    base = load_base(root / d["base_checkpoint"])
    payloads: dict[Path, dict] = {}  # each file parsed once, however often it is bound
    modules = []
    for entry in entries:
        path = root / entry["checkpoint"]
        if path not in payloads:
            payloads[path] = read_json(path, "module checkpoint")
        module = attribute_module_from_dict(payloads[path], entry.get("entity_binding", 0))
        if "weight" in entry:
            module.weight = float(entry["weight"])
        modules.append(module)
    return make_cascade(base, modules, task)


# ---------------------------------------------------------------------------
# training runs

@dataclass
class RunConfig:
    seed: int = 0
    max_iterations: int = 500
    # keep training after the curriculum tops out; the extra iterations
    # polish the policy at full spread instead of stopping at first touch
    stop_at_terminal: bool = True


# the attribute training runs behind the reported point-robot numbers
MODULE_RECIPES = {
    "point_obstacle": RunConfig(seed=1, max_iterations=200, stop_at_terminal=False),
    "point_door": RunConfig(seed=1, max_iterations=300),
    "point_speed": RunConfig(seed=1, max_iterations=100, stop_at_terminal=False),
    "point_force": RunConfig(seed=1, max_iterations=300),
}


def _progress_printer(tag: str, emit: Callable[[str], None] | None):
    if emit is None:
        return None

    def show(row: IterationLog) -> None:
        emit(
            f"[{tag}] iter {row.iteration:4d}  level {row.random_level:.4f}  "
            f"reward {row.mean_ep_reward:8.3f}  kl {row.kl:.4f}"
        )

    return show


def run_train_base(
    loaded: LoadedTask,
    out_path: str | Path,
    run: RunConfig,
    emit: Callable[[str], None] | None = None,
) -> TrainResult:
    result = train_base(
        loaded.task,
        PPOConfig(),
        loaded.curriculum,
        seed=run.seed,
        max_iterations=run.max_iterations,
        progress=_progress_printer("base", emit),
        stop_at_terminal=run.stop_at_terminal,
    )
    save_base(out_path, result.base)
    write_training_log(log_path_for(out_path), result.log)
    return result


def run_train_attribute(
    base_path: str | Path,
    loaded: LoadedTask,
    out_path: str | Path,
    run: RunConfig,
    emit: Callable[[str], None] | None = None,
) -> TrainResult:
    base = load_base(base_path)
    result = train_attribute(
        base,
        loaded.task,
        PPOConfig(),
        loaded.curriculum,
        seed=run.seed,
        max_iterations=run.max_iterations,
        progress=_progress_printer("attr", emit),
        stop_at_terminal=run.stop_at_terminal,
    )
    save_module(out_path, result.module)
    write_training_log(log_path_for(out_path), result.log)
    return result


# ---------------------------------------------------------------------------
# curriculum comparison

COMPARE_ARMS = ("can", "scratch_cl", "scratch_rcl")


def run_compare(
    loaded: LoadedTask,
    base_path: str | Path,
    out_dir: str | Path,
    run: RunConfig,
    emit: Callable[[str], None] | None = None,
) -> dict:
    """Race module training against two from-scratch baselines.

    Every arm gets the same task, seed, and iteration budget.  The can
    arm trains one compensation module over the frozen base; the scratch
    arms train a monolithic policy on the concatenated views, one with
    plain spread-out resets and one with resets centred on the target.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = load_base(base_path)
    summary: dict = {"task": loaded.raw.get("name", "?"), "seed": run.seed,
                     "budget": run.max_iterations, "arms": {}}
    for arm in COMPARE_ARMS:
        if emit is not None:
            emit(f"--- arm {arm}")
        cur = dataclasses.replace(loaded.curriculum, mode="rcl" if arm == "scratch_rcl" else "cl")
        kw = dict(seed=run.seed, max_iterations=run.max_iterations, progress=_progress_printer(arm, emit))
        try:
            if arm == "can":
                result = train_attribute(base, loaded.task, PPOConfig(), cur, **kw)
            else:
                result = train_flat(loaded.task, PPOConfig(), cur, **kw)
        except Exception as exc:  # noqa: BLE001 - a diverging arm is a result
            summary["arms"][arm] = {"error": f"{type(exc).__name__}: {exc}"}
            continue
        write_training_log(out_dir / f"{arm}.train.csv", result.log)
        summary["arms"][arm] = {
            "iterations_to_terminal": result.iterations_to_terminal,
            "iterations_run": len(result.log),
            "episodes_used": result.episodes_used,
            "final_level": result.curriculum.random_level,
            "final_mean_reward": result.log[-1].mean_ep_reward if result.log else None,
        }
    write_json(out_dir / "summary.json", summary)
    return summary
