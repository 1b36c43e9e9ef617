"""Acceptance gate: each headline behavior checked end to end.

Every test prints one [ACCEPTANCE nn] PASS/FAIL line.  Training runs are
session fixtures shared across tests, with pinned seeds and budgets; the
asserted numbers were produced by exactly these settings, single core.
The whole file takes a few minutes.
"""

import json
import time

import numpy as np
import pytest

from canrl.attributes import (
    DOOR_PENALTY,
    OBSTACLE_PENALTY,
    DisturbanceForce,
    DoorSchedule,
    ObstacleParams,
    SpeedLimitProfile,
    door_reward,
    make_attribute,
    obstacle_reward,
    reaching_reward,
    speed_reward,
)
from canrl.cascade import make_cascade
from canrl.curriculum import CurriculumConfig, CurriculumState, curriculum_update
from canrl.dynamics import PointRobotState, WorldState
from canrl.harness import (
    MODULE_RECIPES,
    RunConfig,
    cascade_actor,
    compensation_profile,
    evaluate_policy,
    load_module,
    run_compare,
    save_base,
    save_module,
)
from canrl.nets import DenseNet, GaussianPolicy, gaussian_log_prob
from canrl.ppo import PPOConfig, compute_gae, ppo_loss, train_attribute, train_base, value_loss
from canrl.taskio import load_stock_task, point_sim_config
from canrl import cli

pytestmark = pytest.mark.acceptance  # deselect with -m "not acceptance"

EVAL_SEED = 100
PROFILE_SEED = 200


def verdict(capsys, num, ok, detail):
    line = f"[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# shared training runs

@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def point_base(workdir):
    loaded = load_stock_task("point_reach")
    result = train_base(
        loaded.task, PPOConfig(), loaded.curriculum, seed=0, max_iterations=500
    )
    path = workdir / "base.json"
    save_base(path, result.base)
    return result, path


@pytest.fixture(scope="session")
def arm_base():
    loaded = load_stock_task("arm_reach")
    return train_base(
        loaded.task, PPOConfig(), loaded.curriculum, seed=0, max_iterations=1500
    )


@pytest.fixture(scope="session")
def modules(point_base):
    base_result, _ = point_base
    trained = {}
    for name, run in MODULE_RECIPES.items():
        loaded = load_stock_task(name)
        result = train_attribute(
            base_result.base, loaded.task, PPOConfig(), loaded.curriculum,
            seed=run.seed, max_iterations=run.max_iterations,
            stop_at_terminal=run.stop_at_terminal,
        )
        trained[name] = (result, loaded)
    return trained


@pytest.fixture(scope="session")
def compare_summary(point_base, workdir):
    _, base_path = point_base
    return run_compare(
        load_stock_task("point_obstacle"), base_path, workdir / "compare",
        RunConfig(seed=1, max_iterations=130),
    )


def eval_stack(base, module_list, loaded, episodes):
    cascade = make_cascade(base, module_list, loaded.task)
    return evaluate_policy(
        cascade_actor(cascade), loaded.task, episodes=episodes, seed=EVAL_SEED
    )


# ---------------------------------------------------------------------------
# 1: advantage estimator against the brute-force double sum

def gae_double_sum(rewards, values, dones, gamma, lam, last_value):
    n = len(rewards)
    nxt = np.array([values[t + 1] if t + 1 < n else last_value for t in range(n)])
    delta = rewards + gamma * nxt * (1 - dones) - values
    adv = np.zeros(n)
    for t in range(n):
        acc, w = 0.0, 1.0
        for l in range(t, n):
            acc += w * delta[l]
            if dones[l]:
                break
            w *= gamma * lam
        adv[t] = acc
    return adv


def test_01_gae_matches_double_sum_oracle(capsys):
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 31))
        rewards = rng.normal(size=n)
        values = rng.normal(size=n)
        dones = (rng.uniform(size=n) < 0.2).astype(float)
        dones[-1] = float(rng.uniform() < 0.5)
        last_value = float(rng.normal())
        gamma = float(rng.uniform(0.8, 1.0))
        lam = float(rng.uniform(0.7, 1.0))
        adv, _ = compute_gae(rewards, values, dones, gamma, lam, last_value)
        want = gae_double_sum(rewards, values, dones, gamma, lam, last_value)
        worst = max(worst, float(np.max(np.abs(adv - want))))
    took = time.perf_counter() - start
    verdict(
        capsys, 1, worst < 1e-10 and took < 5.0,
        f"1000 rollouts, max deviation {worst:.2e}, {took:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2: loss gradients against central finite differences

def full_loss(batch, pol, val, cfg):
    """The policy half and the critic half of the loss, summed as one pass
    summed them: (loss, policy grads, critic grads)."""
    _, pol_grads, stats = ppo_loss(batch, pol, cfg, [np.empty_like(p) for p in pol.parameters()])
    mse, val_grads = value_loss(batch, val, cfg, [np.empty_like(p) for p in val.parameters()])
    loss = stats["policy_loss"] + cfg.value_coeff * mse - cfg.entropy_coeff * stats["entropy"]
    return loss, pol_grads, val_grads


def fd_worst_error(batch, pol, val, cfg, h=1e-6):
    _, pol_grads, val_grads = full_loss(batch, pol, val, cfg)
    worst = 0.0
    for arr, grad in zip(
        [*pol.parameters(), *val.parameters()], [*pol_grads, *val_grads]
    ):
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            up, _, _ = full_loss(batch, pol, val, cfg)
            arr[idx] = orig - h
            down, _, _ = full_loss(batch, pol, val, cfg)
            arr[idx] = orig
            fd = (up - down) / (2 * h)
            denom = max(1.0, abs(grad[idx]), abs(fd))
            worst = max(worst, abs(grad[idx] - fd) / denom)
            it.iternext()
    return worst


def random_batch(rng, pol, val, n=12, lp_shift=0.3):
    x = rng.normal(size=(n, pol.state_dim))
    u = rng.normal(scale=0.7, size=(n, pol.action_dim))
    lp = gaussian_log_prob(pol.mean_net.forward(x), pol.std(), u) + lp_shift
    return {
        "policy_inputs": x,
        "actions": u,
        "log_probs": np.asarray(lp, dtype=float),
        "advantages": rng.normal(size=n),
        "returns": rng.normal(size=n),
        "critic_inputs": rng.normal(size=(n, val.in_dim)),
    }


def test_02_gradients_match_finite_differences(capsys):
    rng = np.random.default_rng(7)
    cfg = PPOConfig()
    start = time.perf_counter()
    worst = 0.0
    # reaching head: robot view in, planar action out
    pol = GaussianPolicy.create(6, 2, rng, hidden=(8,), output_gain=0.5)
    val = DenseNet.create([6, 8, 1], rng)
    worst = max(worst, fd_worst_error(random_batch(rng, pol, val), pol, val, cfg))
    # compensation head: attribute view plus incoming action in
    comp = GaussianPolicy.create(11, 2, rng, hidden=(8,), output_gain=0.5)
    critic = DenseNet.create([15, 8, 1], rng)
    worst = max(worst, fd_worst_error(random_batch(rng, comp, critic), comp, critic, cfg))
    took = time.perf_counter() - start
    verdict(
        capsys, 2, worst < 1e-5 and took < 30.0,
        f"policy, compensation, value params all within {worst:.2e}, {took:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3: curriculum schedule mechanics

def test_03_curriculum_schedule(capsys):
    start = time.perf_counter()
    ok = True
    s = CurriculumState.from_config(CurriculumConfig(threshold=0.5))
    for r in (0.6, 0.7, 0.8):
        s, inc, term = curriculum_update(s, r)
    ok &= inc and not term
    ok &= s.random_level == pytest.approx(0.01 * 1.2, abs=1e-15)
    ok &= len(s.long_term_rewards) == 0

    # below threshold: level pinned
    s2 = CurriculumState.from_config(CurriculumConfig(threshold=0.5))
    for _ in range(30):
        s2, inc, _ = curriculum_update(s2, 0.4)
        ok &= not inc
    ok &= s2.random_level == 0.01

    # monotone under arbitrary rewards
    rng = np.random.default_rng(3)
    s3 = CurriculumState.from_config(CurriculumConfig(threshold=0.5))
    prev = s3.random_level
    for r in rng.uniform(-1.0, 2.0, size=300):
        s3, _, _ = curriculum_update(s3, float(r))
        ok &= s3.random_level >= prev
        prev = s3.random_level

    # geometric recurrence: 0.01 * 1.2^k first clears 1.0 at k = 26
    s4 = CurriculumState.from_config(CurriculumConfig(threshold=0.5))
    increases = 0
    for _ in range(200):
        s4, inc, term = curriculum_update(s4, 1.0)
        increases += int(inc)
        if term:
            break
    ok &= term and increases == 26
    ok &= s4.random_level == pytest.approx(0.01 * 1.2**26, rel=1e-12)
    took = time.perf_counter() - start
    verdict(
        capsys, 3, ok and took < 1.0,
        f"multiply by growth, queue reset, monotone, terminal at 26, {took:.2f}s",
    )


# ---------------------------------------------------------------------------
# 4: reward table

def test_04_reward_values(capsys):
    cfg = point_sim_config()

    def world(pos, vel=(0.0, 0.0), t=0.0, **extras):
        return WorldState(
            PointRobotState(*map(float, pos), *map(float, vel)),
            np.array([0.5, 0.0]),
            time=t,
            **extras,
        )

    ok = reaching_reward(world([0.5, 0.0]), cfg) == 1.0
    ok &= reaching_reward(world([0.0, 0.0]), cfg) == 0.0

    obs = ObstacleParams(0.0, 0.0, 0.1, 0.0, 0.0)
    ok &= obstacle_reward(world([0.1 + cfg.robot_radius - 1e-9, 0.0]), cfg, obs) == -0.3
    ok &= obstacle_reward(world([0.9, 0.9]), cfg, obs) == 0.0
    ok &= OBSTACLE_PENALTY == -0.3

    door = DoorSchedule(np.array([[0.0, -0.5], [0.0, 0.5]]), [(1.0, 2.0)])
    ok &= door_reward(world([0.005, 0.0], t=0.5), cfg, door) == -0.01
    ok &= door_reward(world([0.005, 0.0], t=1.5), cfg, door) == 0.0
    ok &= DOOR_PENALTY == -0.01

    prof = SpeedLimitProfile(np.array([0.0, 10.0]), np.array([1.5, 1.5]))
    got = speed_reward(world([0.0, 0.0], vel=[2.0, 0.0]), prof)
    ok &= got == pytest.approx(-0.3 * (2.0 - 1.5), abs=1e-15)
    ok &= speed_reward(world([0.0, 0.0], vel=[1.0, 0.0]), prof) == 0.0

    force = make_attribute("force", "point", cfg)
    w = world([0.0, 0.0], disturbance=DisturbanceForce(np.array([5.0, -5.0])))
    ok &= force.reward(w, np.zeros(2)) == 0.0

    verdict(capsys, 4, bool(ok), "reach 1, obstacle -0.3, door -0.01, speed -0.3*excess, force 0")


# ---------------------------------------------------------------------------
# 5: base training at desk scale

def test_05_point_base_trains(capsys, point_base):
    result, _ = point_base
    task = load_stock_task("point_reach").task
    report = evaluate_policy(
        cascade_actor(make_cascade(result.base, [], task)), task, episodes=50, seed=EVAL_SEED
    )
    itt = result.iterations_to_terminal
    ok = itt is not None and itt <= 500 and report["success_rate"] >= 0.9
    verdict(
        capsys, 5, ok,
        f"point: terminal at {itt}/500 iters, success {report['success_rate']:.2f} over 50",
    )


def test_05b_arm_base_trains(capsys, arm_base):
    level = arm_base.curriculum.random_level
    itt = arm_base.iterations_to_terminal
    ok = level >= 0.5
    verdict(
        capsys, 5, ok,
        f"arm: level {min(level, 1.0):.2f} within 1500 iters (terminal at {itt})",
    )


# ---------------------------------------------------------------------------
# 6: one module per attribute over the frozen base

def test_06_obstacle_module_50_episodes(capsys, point_base, modules):
    base_result, _ = point_base
    result, loaded = modules["point_obstacle"]
    report = eval_stack(base_result.base, [result.module], loaded, 50)
    ok = report["success_rate"] >= 0.8
    verdict(
        capsys, 6, ok,
        f"obstacle stack success {report['success_rate']:.2f} over 50 at full level",
    )


def test_06b_all_four_attributes(capsys, point_base, modules):
    base_result, _ = point_base
    rates = {}
    for name, (result, loaded) in modules.items():
        report = eval_stack(base_result.base, [result.module], loaded, 10)
        rates[name.removeprefix("point_")] = report["success_rate"]
    ok = all(r >= 0.8 for r in rates.values())
    detail = ", ".join(f"{k} {v:.1f}" for k, v in rates.items())
    verdict(capsys, 6, ok, f"per-attribute success over 10 episodes: {detail}")


# ---------------------------------------------------------------------------
# 7: zero-shot reuse of one module on two obstacles

def test_07_two_obstacle_composition(capsys, point_base, modules, workdir):
    base_result, _ = point_base
    result, _ = modules["point_obstacle"]
    mod_path = workdir / "obstacle.json"
    save_module(mod_path, result.module)
    loaded = load_stock_task("point_two_obstacles")
    stacked = eval_stack(
        base_result.base,
        [load_module(mod_path, 0), load_module(mod_path, 1)],
        loaded, 50,
    )
    bare = evaluate_policy(
        cascade_actor(make_cascade(base_result.base, [], loaded.task)), loaded.task,
        episodes=50, seed=EVAL_SEED,
    )
    ok = (
        stacked["success_rate"] >= 0.6
        and stacked["success_rate"] > bare["success_rate"]
    )
    verdict(
        capsys, 7, ok,
        f"two bound copies {stacked['success_rate']:.2f} vs bare base "
        f"{bare['success_rate']:.2f} over 50, no retraining",
    )


# ---------------------------------------------------------------------------
# 8: racing the from-scratch arms

def test_08_compare_direction(capsys, compare_summary):
    arms = compare_summary["arms"]
    can_itt = arms["can"].get("iterations_to_terminal")

    def slower(row):
        itt = row.get("iterations_to_terminal")
        return itt is None or (can_itt is not None and itt > can_itt)

    ok = (
        can_itt is not None
        and slower(arms["scratch_cl"])
        and slower(arms["scratch_rcl"])
        and arms["scratch_cl"]["final_level"] < 0.2
    )

    def show(row):
        itt = row.get("iterations_to_terminal")
        return str(itt) if itt is not None else f"never (level {row['final_level']:.3f})"

    verdict(
        capsys, 8, ok,
        f"terminal iters: can {show(arms['can'])}, scratch_cl {show(arms['scratch_cl'])}, "
        f"scratch_rcl {show(arms['scratch_rcl'])}",
    )


# ---------------------------------------------------------------------------
# 9: compensation goes quiet away from the obstacle

def test_09_far_field_compensation(capsys, point_base, modules):
    base_result, _ = point_base
    result, loaded = modules["point_obstacle"]
    cascade = make_cascade(base_result.base, [result.module], loaded.task)
    profile = compensation_profile(cascade, episodes=20, seed=PROFILE_SEED)
    ratio = profile["comp_to_base_ratio"]
    ok = ratio < 0.2
    verdict(
        capsys, 9, ok,
        f"far-field |comp|/|base| = {ratio:.3f} over {profile['steps_far']} steps",
    )


# ---------------------------------------------------------------------------
# 10: bitwise reproducibility of the whole pipeline

def test_10_reruns_byte_identical(capsys, point_base, workdir):
    _, base_path = point_base
    outs = []
    for tag in ("one", "two"):
        d = workdir / f"det_{tag}"
        d.mkdir()
        mod = d / "mod.json"
        stack = d / "stack.json"
        report = d / "report.json"
        assert cli.main([
            "train-attr", "--task", "point_door", "--base", str(base_path),
            "--out", str(mod), "--budget", "3", "--seed", "5", "--quiet",
        ]) == 0
        assert cli.main([
            "assemble", "--base", str(base_path), "--module", str(mod),
            "--out", str(stack), "--task", "point_door",
        ]) == 0
        assert cli.main([
            "eval", "--task", "point_door", "--descriptor", str(stack),
            "--episodes", "5", "--out", str(report), "--quiet",
        ]) == 0
        outs.append(d)
    pairs = [
        ("mod.json", "checkpoint"),
        ("mod.train.csv", "training log"),
        ("report.json", "report"),
    ]
    mismatched = [
        label for fname, label in pairs
        if (outs[0] / fname).read_bytes() != (outs[1] / fname).read_bytes()
    ]
    ok = not mismatched
    verdict(
        capsys, 10, ok,
        "checkpoint, training log, report byte-identical across reruns"
        if ok else f"differs: {', '.join(mismatched)}",
    )
