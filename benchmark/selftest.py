"""Show that every checker can fail.

    python3 benchmark/run.py --self-test

Each case gives a checker a clean output, which it must accept, and a
deliberately corrupted copy (a perturbed action, an altered logged level,
a flipped event, ...), which it must reject.  Exit code 0 when every
case behaves so.
"""

from __future__ import annotations

import copy
import json

import numpy as np

import checks

SELF_TEST_EPISODES = 4


def _cases(run) -> list[tuple[str, list[str], list[str]]]:
    """(name, errors on the clean output, errors on the corrupted one).

    `run` is the benchmark's runner module (run.py)."""
    INPUTS = run.INPUTS
    cases = []

    # curriculum: one altered logged level
    rows = checks.read_rows(INPUTS / "point_base.train.csv")
    cur = run.task_file("point_reach")["curriculum"]
    bad = copy.deepcopy(rows)
    bad[20]["random_level"] = repr(float(bad[20]["random_level"]) * 1.2)
    cases.append((
        "curriculum replay, one altered level",
        checks.check_curriculum(rows, cur, 500, True)[0],
        checks.check_curriculum(bad, cur, 500, True)[0],
    ))
    bad = copy.deepcopy(rows)
    grew = next(i for i in range(len(rows) - 1)
                if rows[i + 1]["random_level"] != rows[i]["random_level"])
    bad[grew]["mean_ep_reward"] = "-100.0"  # the increase after it no longer follows
    cases.append((
        "curriculum replay, one altered reward",
        checks.check_curriculum(rows, cur, 500, True)[0],
        checks.check_curriculum(bad, cur, 500, True)[0],
    ))

    # advantages: one perturbed entry
    from canrl.ppo import compute_gae

    rng = np.random.default_rng(7)
    dones = (rng.uniform(size=300) < 0.05).astype(float)
    dones[-1] = 1.0
    call = {"rewards": rng.normal(size=300), "values": rng.normal(size=300), "dones": dones,
            "gamma": 0.99, "lam": 0.95, "last_value": 0.0}
    call["adv"], call["returns"] = compute_gae(
        call["rewards"], call["values"], dones, 0.99, 0.95
    )
    bad = dict(call, adv=call["adv"].copy())
    bad["adv"][123] += 1e-6
    cases.append(("advantage double sum, one perturbed advantage",
                  checks.check_gae(call), checks.check_gae(bad)))

    # rollout shape: a real rollout, then one cut short and one with a flipped done
    from canrl.ppo import FlatActor, collect_rollouts
    from canrl.harness import load_base
    from canrl.taskio import load_stock_task

    task = load_stock_task("point_reach").task
    base = load_base(INPUTS / "point_base.json")
    roll = collect_rollouts(FlatActor(base.policy, base.value_net, task.base.extract),
                            task, 1.0, 300, seed=3)
    short = copy.deepcopy(roll)
    for field in ("policy_inputs", "actions", "log_probs", "critic_inputs", "rewards", "dones"):
        setattr(short, field, getattr(short, field)[:-1])
    flipped = copy.deepcopy(roll)
    flipped.dones[0] = 1.0 - flipped.dones[0]
    cases.append(("rollout shape, last transition dropped",
                  checks.check_rollout(roll, 300, 200), checks.check_rollout(short, 300, 200)))
    cases.append(("rollout shape, one done flag flipped",
                  checks.check_rollout(roll, 300, 200), checks.check_rollout(flipped, 300, 200)))
    cases.append(("training step total, one step missing",
                  checks.check_step_total(3 * 2048, 3, 2048, 200),
                  checks.check_step_total(3 * 2048 - 1, 3, 2048, 200)))

    # module checkpoint: a NaN weight, and the wrong widths
    payload = json.loads((INPUTS / "point_obstacle.json").read_text())
    bad = copy.deepcopy(payload)
    bad["policy"]["weights"][1][3][7] = float("nan")
    cases.append(("module checkpoint, one NaN weight",
                  checks.check_module_checkpoint(payload, "point", "obstacle", (11, 2)),
                  checks.check_module_checkpoint(bad, "point", "obstacle", (11, 2))))
    cases.append(("module checkpoint, wrong widths",
                  checks.check_module_checkpoint(payload, "point", "obstacle", (11, 2)),
                  checks.check_module_checkpoint(payload, "point", "obstacle", (9, 2))))

    # evaluation: one perturbed action, one flipped event, one altered tally
    tmp = run.OUT / "self-test"
    tmp.mkdir(parents=True, exist_ok=True)
    traj, report_path = tmp / "traj.jsonl", tmp / "report.json"
    ok = run.run_cli(run.Ops(), [
        "eval", "--task", "point_two_obstacles",
        "--descriptor", str(INPUTS / "two_obstacle_stack.json"),
        "--episodes", str(SELF_TEST_EPISODES), "--seed", "0",
        "--trajectories", str(traj), "--out", str(report_path),
    ])
    if not ok:
        raise RuntimeError("self-test evaluation command failed")
    episodes = checks.load_trajectory(traj)
    report = json.loads(report_path.read_text())
    starts = run.reset_states("point_two_obstacles", 0, SELF_TEST_EPISODES)
    sim = run.point_sim("point_two_obstacles")
    clean_errs, tally = checks.resimulate_point(episodes, starts, sim)

    bad = copy.deepcopy(episodes)
    bad[0][5]["action"][0] += 0.01
    cases.append(("re-simulation, one perturbed action",
                  clean_errs, checks.resimulate_point(bad, starts, sim)[0]))
    bad = copy.deepcopy(episodes)
    rec = bad[1][-1]
    rec["events"] = rec["events"][1:] if rec["events"] else ["touched_obstacle_0"]
    cases.append(("re-simulation, one flipped event",
                  clean_errs, checks.resimulate_point(bad, starts, sim)[0]))
    bad_report = dict(report, violations=dict(report["violations"], touched_obstacle_1=99))
    cases.append(("report tally, altered violation count",
                  checks.check_report_tally(report, tally),
                  checks.check_report_tally(bad_report, tally)))
    bad_report = dict(report, success_rate=report["success_rate"] + 1.0 / SELF_TEST_EPISODES)
    cases.append(("report tally, altered success rate",
                  checks.check_report_tally(report, tally),
                  checks.check_report_tally(bad_report, tally)))
    return cases


def self_test(run) -> int:
    failures = 0
    for name, clean, corrupted in _cases(run):
        ok = not clean and bool(corrupted)
        failures += not ok
        detail = corrupted[0] if corrupted else "corrupted copy accepted"
        if clean:
            detail = f"clean output rejected: {clean[0]}"
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    print(f"self-test: {failures} failure(s)")
    return 1 if failures else 0
