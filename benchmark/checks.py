"""Checks of the program's outputs, computed apart from the program.

Each checker returns a list of error strings; an empty list passes.
`run.py --self-test` feeds every checker a corrupted copy of an output
and expects it to be rejected.
"""

from __future__ import annotations

import csv
import json
import math
from collections import deque
from pathlib import Path

import numpy as np

# point-mass defaults of the task format; a task's "sim" block overrides them
POINT_SIM = {
    "dt": 0.05, "horizon": 200, "mass": 1.0, "damping": 0.8, "force_limit": 1.0,
    "target_radius": 0.08, "workspace": 1.0, "robot_radius": 0.03,
}
REACH_REWARD = 1.0
OBSTACLE_PENALTY = -0.3
VIOLATION_PREFIXES = ("touched_obstacle", "touched_door", "speed_violation")
# distances this close to a contact or reach threshold may round either way
BORDER = 1e-12


def read_rows(csv_path: Path) -> list[dict]:
    with open(csv_path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# curriculum


def check_curriculum(
    rows: list[dict], curriculum: dict, budget: int, stop_at_terminal: bool
) -> tuple[list[str], int | None]:
    """Replay the queue/threshold/growth rule over the logged rewards.

    Each iteration runs at the level reached after the previous ones; its
    mean episode reward joins a bounded queue, and once the queue holds
    enough entries whose mean clears the threshold the level grows and the
    queue empties.  Updates stop once the level reaches terminal.
    Returns (errors, iterations to terminal or None).
    """
    level = float(curriculum["initial_level"])
    growth = float(curriculum.get("lambda", curriculum.get("growth")))
    threshold = float(curriculum["threshold"])
    min_entries = int(curriculum["min_entries"])
    terminal = float(curriculum["terminal_level"])
    queue: deque = deque(maxlen=int(curriculum["queue_capacity"]))
    terminal_at = None
    for i, row in enumerate(rows):
        if int(row["iteration"]) != i:
            return [f"row {i}: logged iteration {row['iteration']}"], terminal_at
        logged = float(row["random_level"])
        if logged != level:
            return [f"iteration {i}: logged level {logged!r}, rule gives {level!r}"], terminal_at
        if terminal_at is None:
            queue.append(float(row["mean_ep_reward"]))
            if len(queue) >= min_entries and sum(queue) / len(queue) > threshold:
                level *= growth
                queue.clear()
            if level >= terminal:
                terminal_at = i + 1
    errors = []
    if stop_at_terminal and terminal_at is not None:
        if len(rows) != terminal_at:
            errors.append(f"{len(rows)} rows logged, terminal after {terminal_at}")
    elif len(rows) != budget:
        errors.append(f"{len(rows)} rows logged, budget is {budget}")
    return errors, terminal_at


# ---------------------------------------------------------------------------
# rollouts and advantages


def gae_oracle(rewards, values, dones, gamma, lam, last_value=0.0):
    """Advantages as the explicit sum over each step's remaining episode:
    A_t = sum_l (gamma lam)^l delta_{t+l}, cut after the first done."""
    n = len(rewards)
    nxt = np.append(np.asarray(values[1:], dtype=float), last_value)
    delta = rewards + gamma * nxt * (1.0 - dones) - values
    adv = np.empty(n)
    for t in range(n):
        total, weight = 0.0, 1.0
        for k in range(t, n):
            total += weight * delta[k]
            if dones[k]:
                break
            weight *= gamma * lam
        adv[t] = total
    return adv, adv + values


def check_gae(call: dict) -> list[str]:
    """`call` holds one compute_gae call's inputs and its (adv, returns)."""
    adv, ret = gae_oracle(
        call["rewards"], call["values"], call["dones"],
        call["gamma"], call["lam"], call["last_value"],
    )
    errors = []
    if not np.allclose(call["adv"], adv, rtol=1e-9, atol=1e-9):
        worst = float(np.max(np.abs(call["adv"] - adv)))
        errors.append(f"advantages differ from the double sum by up to {worst:.3e}")
    if not np.allclose(call["returns"], ret, rtol=1e-9, atol=1e-9):
        errors.append("returns differ from advantages + values")
    return errors


def check_rollout(roll, n_steps: int, horizon: int) -> list[str]:
    """A rollout holds whole episodes and at least n_steps transitions,
    fewer than n_steps + horizon."""
    n = len(roll.rewards)
    lengths = list(roll.episode_lengths)
    errors = []
    if not n_steps <= n < n_steps + horizon:
        errors.append(f"{n} transitions, want [{n_steps}, {n_steps + horizon})")
    if sum(lengths) != n or any(not 1 <= L <= horizon for L in lengths):
        errors.append(f"episode lengths {lengths} do not tile {n} transitions")
        return errors
    want = np.zeros(n)
    want[np.cumsum(lengths) - 1] = 1.0
    if not np.array_equal(np.asarray(roll.dones), want):
        errors.append("done flags do not close exactly the logged episodes")
    for field in ("policy_inputs", "actions", "log_probs", "critic_inputs"):
        if len(getattr(roll, field)) != n:
            errors.append(f"{field} has {len(getattr(roll, field))} rows, want {n}")
    if len(roll.episode_rewards) != len(lengths):
        errors.append("episode reward and length counts differ")
    return errors


def check_step_total(steps: int, iterations: int, n_steps: int, horizon: int) -> list[str]:
    """Whole-episode rollouts bound the env steps of a training run."""
    lo, hi = iterations * n_steps, iterations * (n_steps + horizon - 1)
    if not lo <= steps <= hi:
        return [f"{steps} env steps over {iterations} iterations, want [{lo}, {hi}]"]
    return []


# ---------------------------------------------------------------------------
# checkpoints


def check_module_checkpoint(payload: dict, robot: str, attribute: str, widths: tuple[int, int]) -> list[str]:
    """Kind, robot, attribute, compensation net widths in -> out, and every
    stored number finite."""
    errors = []
    for key, want in (("kind", "attribute_module"), ("robot", robot), ("attribute", attribute)):
        if payload.get(key) != want:
            errors.append(f"{key} is {payload.get(key)!r}, want {want!r}")
    sizes = payload.get("policy", {}).get("layer_sizes", [])
    if not sizes or (sizes[0], sizes[-1]) != widths:
        errors.append(f"policy widths {sizes}, want {widths[0]} -> {widths[1]}")

    def finite(x) -> bool:
        if isinstance(x, list):
            return all(finite(v) for v in x)
        return isinstance(x, (int, float)) and math.isfinite(x)

    for part in ("policy", "value"):
        net = payload.get(part, {})
        for key in ("weights", "biases", "log_std"):
            if key in net and not finite(net[key]):
                errors.append(f"{part}.{key} holds a non-finite number")
    if not finite(payload.get("weight", float("nan"))):
        errors.append("module weight is not finite")
    return errors


# ---------------------------------------------------------------------------
# evaluation


def load_trajectory(path: Path) -> dict[int, list[dict]]:
    episodes: dict[int, list[dict]] = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            episodes.setdefault(rec["episode"], []).append(rec)
    return episodes


def _advance_disc(center, velocity, radius, dt, half):
    c = center + velocity * dt
    v = velocity.copy()
    lo, hi = -(half - radius), half - radius
    for i in range(2):
        if c[i] < lo:
            c[i], v[i] = 2.0 * lo - c[i], -v[i]
        elif c[i] > hi:
            c[i], v[i] = 2.0 * hi - c[i], -v[i]
    return c, v


def _within(d: float, limit: float, recorded: bool) -> bool:
    """d <= limit; on the rounding border, defer to what was recorded."""
    if abs(d - limit) <= BORDER:
        return recorded
    return d < limit


def resimulate_point(
    episodes: dict[int, list[dict]], starts: list[dict], sim: dict
) -> tuple[list[str], dict]:
    """Re-run each recorded episode with a separate point-mass and disc
    integrator from its reset state, and recompute the report.

    `starts[k]` holds episode k's reset state: position, velocity, target
    and obstacle discs (center, radius, velocity).  The recorded actions
    drive the integrator; states, rewards, events and episode ends must
    match, and the tallies come from the recomputed events.
    """
    dt, half = sim["dt"], sim["workspace"]
    decay = 1.0 - sim["damping"] * sim["dt"]
    errors: list[str] = []
    tally = {"reached": 0, "successes": 0, "lengths": [], "totals": [], "violations": {}}
    if sorted(episodes) != list(range(len(starts))):
        return [f"trajectory holds episodes {sorted(episodes)[:5]}..., want 0..{len(starts) - 1}"], tally
    for k, start in enumerate(starts):
        x = np.array(start["position"], dtype=float)
        v = np.array(start["velocity"], dtype=float)
        target = np.array(start["target"], dtype=float)
        discs = [(np.array(c, dtype=float), float(r), np.array(u, dtype=float)) for c, r, u in start["obstacles"]]
        reached, clean = False, True
        total = 0.0
        recs = episodes[k]
        for s, rec in enumerate(recs):
            where = f"episode {k} step {s}"
            a = np.clip(np.asarray(rec["action"], dtype=float), -sim["force_limit"], sim["force_limit"])
            v = decay * v + (a / sim["mass"]) * dt
            x = x + v * dt
            for i in range(2):
                if abs(x[i]) > half:
                    x[i], v[i] = math.copysign(half, x[i]), 0.0
            moved = []
            for c, r, u in discs:
                c, u = _advance_disc(c, u, r, dt, half)
                moved.append((c, r, u))
            discs = moved
            got_x = np.asarray(rec["robot"]["position"], dtype=float)
            got_v = np.asarray(rec["robot"]["velocity"], dtype=float)
            if np.max(np.abs(got_x - x)) > 1e-9 or np.max(np.abs(got_v - v)) > 1e-9:
                errors.append(f"{where}: state {got_x.tolist()} differs from re-simulated {x.tolist()}")
                break
            if abs(rec["t"] - (s + 1) * dt) > 1e-9:
                errors.append(f"{where}: time {rec['t']} is not {(s + 1) * dt}")
            events = list(rec["events"])
            want_events: list[str] = []
            rewards = [0.0]
            at_target = _within(
                math.hypot(*(x - target)), sim["target_radius"], "reached_target" in events
            )
            if at_target:
                want_events.append("reached_target")
                rewards[0] = REACH_REWARD
            for j, (c, r, _u) in enumerate(discs):
                name = f"touched_obstacle_{j}"
                touching = _within(math.hypot(*(x - c)), r + sim["robot_radius"], name in events)
                rewards.append(OBSTACLE_PENALTY if touching else 0.0)
                if touching:
                    want_events.append(name)
            if events != want_events:
                errors.append(f"{where}: events {events}, re-simulation gives {want_events}")
                break
            if [float(r) for r in rec["rewards"]] != rewards:
                errors.append(f"{where}: rewards {rec['rewards']}, re-simulation gives {rewards}")
                break
            total += float(sum(rewards))
            done = at_target or s + 1 >= sim["horizon"]
            if done != (s == len(recs) - 1):
                errors.append(f"{where}: episode {'ends' if done else 'goes on'} here, trajectory disagrees")
                break
            reached = reached or at_target
            for ev in want_events:
                if ev.startswith(VIOLATION_PREFIXES):
                    clean = False
                    tally["violations"][ev] = tally["violations"].get(ev, 0) + 1
        if errors:
            break
        tally["reached"] += int(reached)
        tally["successes"] += int(reached and clean)
        tally["lengths"].append(len(recs))
        tally["totals"].append(total)
    return errors, tally


def check_report_tally(report: dict, tally: dict) -> list[str]:
    """The report's success, reach and violation counts against the
    re-simulated tally."""
    n = report["episodes"]
    errors = []
    if len(tally["lengths"]) != n:
        return [f"re-simulated {len(tally['lengths'])} episodes, report has {n}"]
    if report["success_rate"] != tally["successes"] / n:
        errors.append(f"success_rate {report['success_rate']}, re-simulation gives {tally['successes'] / n}")
    if report["reached"] != tally["reached"]:
        errors.append(f"reached {report['reached']}, re-simulation gives {tally['reached']}")
    if report["violations"] != tally["violations"]:
        errors.append(f"violations {report['violations']}, re-simulation gives {tally['violations']}")
    if not math.isclose(report["mean_episode_length"], sum(tally["lengths"]) / n, rel_tol=1e-12):
        errors.append("mean_episode_length does not match the trajectory")
    if not math.isclose(report["mean_episode_reward"], sum(tally["totals"]) / n, rel_tol=1e-9, abs_tol=1e-12):
        errors.append("mean_episode_reward does not match the trajectory")
    return errors
