"""PPO loss gradients, rollout collection, and the trainer loops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canrl import attributes, dynamics
from canrl.attributes import run_episodes
from canrl.cascade import AttributeModule, BaseModule, compensation_penalty, make_cascade
from canrl.nets import AdamState, DenseNet, GaussianPolicy, gaussian_log_prob
from canrl.ppo import (
    TRAIN_STREAM,
    CascadeTailActor,
    FlatActor,
    PPOConfig,
    Rollout,
    collect_rollouts,
    compute_gae,
    episode_rng,
    normalize_advantages,
    ppo_loss,
    train_attribute,
    train_base,
    train_flat,
    value_loss,
)
from canrl.taskio import load_stock_task

SMALL = PPOConfig(
    rollout_steps=150, epochs_per_iteration=3, minibatch_size=64, lr=3e-4
)


def tiny_policy_value(state_dim=4, action_dim=2, vdim=5, seed=0):
    rng = np.random.default_rng(seed)
    pol = GaussianPolicy.create(state_dim, action_dim, rng, hidden=(8,), output_gain=0.5)
    val = DenseNet.create([vdim, 8, 1], rng)
    return pol, val


def make_batch(pol, val, n=16, seed=3, lp_shift=0.0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, pol.state_dim))
    u = rng.normal(scale=0.7, size=(n, pol.action_dim))
    xv = rng.normal(size=(n, val.in_dim))
    means = pol.mean_net.forward(x)
    lp = gaussian_log_prob(means, pol.std(), u) + lp_shift
    return {
        "policy_inputs": x,
        "actions": u,
        "log_probs": np.asarray(lp, dtype=float),
        "advantages": rng.normal(size=n),
        "returns": rng.normal(size=n),
        "critic_inputs": xv,
    }


def rel_err(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return np.max(np.abs(a - b) / denom)


def full_loss(batch, pol, val, cfg):
    """Both halves of the loss on one minibatch, summed as one pass summed
    them: (loss, policy grads, critic grads, stats)."""
    _, pol_grads, stats = ppo_loss(batch, pol, cfg, [np.empty_like(p) for p in pol.parameters()])
    mse, val_grads = value_loss(batch, val, cfg, [np.empty_like(p) for p in val.parameters()])
    loss = stats["policy_loss"] + cfg.value_coeff * mse - cfg.entropy_coeff * stats["entropy"]
    return loss, pol_grads, val_grads, {**stats, "value_loss": mse}


def loss_value(batch, pol, val, cfg):
    loss, _, _, _ = full_loss(batch, pol, val, cfg)
    return loss


def fd_check_all_params(batch, pol, val, cfg, h=1e-6, tol=1e-5):
    _, pol_grads, val_grads, _ = full_loss(batch, pol, val, cfg)
    analytic = [*pol_grads, *val_grads]
    arrays = [*pol.parameters(), *val.parameters()]
    for arr, grad in zip(arrays, analytic):
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            up = loss_value(batch, pol, val, cfg)
            arr[idx] = orig - h
            down = loss_value(batch, pol, val, cfg)
            arr[idx] = orig
            fd = (up - down) / (2 * h)
            assert rel_err(grad[idx], fd) < tol, (arr.shape, idx)
            it.iternext()


class TestLoss:
    def test_fresh_policy_has_unit_ratio(self):
        pol, val = tiny_policy_value()
        cfg = PPOConfig(entropy_coeff=0.0, value_coeff=0.0)
        batch = make_batch(pol, val)
        loss, _, _, stats = full_loss(batch, pol, val, cfg)
        assert stats["kl"] == pytest.approx(0.0, abs=1e-12)
        assert loss == pytest.approx(-float(np.mean(batch["advantages"])), abs=1e-12)
        assert stats["clip_fraction"] == 0.0

    def test_gradients_match_finite_difference(self):
        pol, val = tiny_policy_value()
        cfg = PPOConfig()
        batch = make_batch(pol, val)
        fd_check_all_params(batch, pol, val, cfg)

    def test_gradients_with_stale_sampler(self):
        # old log probs from a slightly different policy: ratios near 1
        # but not exactly 1, still inside the clip window
        pol, val = tiny_policy_value(seed=5)
        cfg = PPOConfig()
        batch = make_batch(pol, val, seed=7)
        batch["log_probs"] = batch["log_probs"] + np.random.default_rng(0).normal(
            scale=3e-3, size=len(batch["log_probs"])
        )
        fd_check_all_params(batch, pol, val, cfg)

    def test_clipped_positive_advantage_kills_gradient(self):
        pol, val = tiny_policy_value()
        cfg = PPOConfig(entropy_coeff=0.0, value_coeff=0.0)
        batch = make_batch(pol, val, n=1, lp_shift=-0.5)  # ratio e^0.5 > 1.2
        batch["advantages"] = np.array([1.0])
        _, pol_grads, _, stats = full_loss(batch, pol, val, cfg)
        assert stats["clip_fraction"] == 1.0
        for g in pol_grads:
            assert np.all(g == 0.0)

    def test_clipped_negative_advantage_kills_gradient(self):
        pol, val = tiny_policy_value()
        cfg = PPOConfig(entropy_coeff=0.0, value_coeff=0.0)
        batch = make_batch(pol, val, n=1, lp_shift=0.5)  # ratio e^-0.5 < 0.8
        batch["advantages"] = np.array([-1.0])
        _, pol_grads, _, _ = full_loss(batch, pol, val, cfg)
        for g in pol_grads:
            assert np.all(g == 0.0)

    def test_pessimism_uses_smaller_surrogate(self):
        pol, val = tiny_policy_value()
        cfg = PPOConfig(entropy_coeff=0.0, value_coeff=0.0)
        batch = make_batch(pol, val, n=1, lp_shift=-0.5)
        batch["advantages"] = np.array([1.0])
        loss, _, _, _ = full_loss(batch, pol, val, cfg)
        assert loss == pytest.approx(-1.2, abs=1e-12)  # clip at 1 + eps

    def test_entropy_bonus_enters_loss(self):
        pol, val = tiny_policy_value()
        batch = make_batch(pol, val)
        with_ent, _, _, _ = full_loss(batch, pol, val, PPOConfig(entropy_coeff=0.01))
        without, _, _, _ = full_loss(batch, pol, val, PPOConfig(entropy_coeff=0.0))
        assert with_ent - without == pytest.approx(-0.01 * pol.entropy(), abs=1e-12)

    def test_value_loss_is_weighted_mse(self):
        pol, val = tiny_policy_value()
        cfg = PPOConfig(entropy_coeff=0.0)
        batch = make_batch(pol, val)
        batch["advantages"] = np.zeros_like(batch["advantages"])
        loss, _, _, stats = full_loss(batch, pol, val, cfg)
        v = val.forward(batch["critic_inputs"])[:, 0]
        mse = float(np.mean((v - batch["returns"]) ** 2))
        assert stats["value_loss"] == pytest.approx(mse, abs=1e-12)
        assert loss == pytest.approx(cfg.value_coeff * mse, abs=1e-12)


class ScriptedActor:
    """Servo straight at the target; no learning parts."""

    def __init__(self, task):
        self.task = task

    def act(self, worlds, rngs):
        forces = np.array([
            np.clip(
                2.5 * (w.target_position - w.robot.position) - 1.2 * w.robot.velocity,
                -1.0,
                1.0,
            )
            for w in worlds
        ])
        views = self.task.base.extract(worlds)
        return forces, (views, forces, np.zeros(len(worlds)), views)


class TestCollect:
    def setup_method(self):
        loaded = load_stock_task("point_reach")
        self.task = loaded.task
        rng = np.random.default_rng(0)
        self.pol = GaussianPolicy.create(6, 2, rng)
        self.val = DenseNet.create([6, 16, 1], rng)
        self.actor = FlatActor(self.pol, self.val, self.task.base.extract)

    def test_deterministic_given_seed(self):
        a = collect_rollouts(self.actor, self.task, 0.3, 300, seed=5)
        b = collect_rollouts(self.actor, self.task, 0.3, 300, seed=5)
        assert np.array_equal(a.policy_inputs, b.policy_inputs)
        assert np.array_equal(a.actions, b.actions)
        assert a.episode_rewards == b.episode_rewards

    def test_episode_accounting(self):
        roll = collect_rollouts(self.actor, self.task, 0.2, 300, seed=1)
        assert roll.n_steps >= 300
        assert sum(roll.episode_lengths) == roll.n_steps
        assert int(roll.dones.sum()) == roll.n_episodes
        assert roll.dones[-1] == 1.0
        # per-episode totals match the flat reward stream
        lo = 0
        for length, total in zip(roll.episode_lengths, roll.episode_rewards):
            assert float(roll.rewards[lo : lo + length].sum()) == pytest.approx(total)
            lo += length

    def test_level_zero_starts_nominal(self):
        roll = collect_rollouts(self.actor, self.task, 0.0, 220, seed=2)
        starts = np.cumsum([0, *roll.episode_lengths[:-1]])
        nominal_view = None
        for s in starts:
            v = roll.policy_inputs[s]
            if nominal_view is None:
                nominal_view = v
            assert np.array_equal(v[:4], [-0.5, 0.0, 0.0, 0.0])

    def test_scripted_policy_earns_reward(self):
        roll = collect_rollouts(ScriptedActor(self.task), self.task, 0.0, 200, seed=3)
        assert all(r > 0 for r in roll.episode_rewards)

    def test_episode_cap_respected(self):
        roll = collect_rollouts(
            self.actor, self.task, 0.1, 10_000, seed=4, max_new_episodes=2
        )
        assert roll.n_episodes == 2


def serial_rollout(actor, task, level, n_steps, seed, episode_offset=0, mode="cl",
                   penalty_coeff=0.0, max_new_episodes=None):
    """Serial twin of collect_rollouts: one run_episodes call per episode,
    in index order, until n_steps steps are banked, each as a copy of its
    row of every block the actor returned."""
    rows, totals, lengths = [], [], []
    while len(rows) < n_steps and (max_new_episodes is None or len(totals) < max_new_episodes):
        rng = episode_rng(seed, TRAIN_STREAM, episode_offset + len(totals))
        total, length = 0.0, 0
        for step in run_episodes(task, actor.act, level, [rng], mode):
            x, u, lp, c = (block[step.row].copy() for block in step.records)
            reward = float(sum(step.rewards))
            if penalty_coeff > 0.0:
                reward += compensation_penalty(u, penalty_coeff)
            rows.append((x, u, lp, c, reward, float(step.done)))
            total += reward
            length += 1
        totals.append(total)
        lengths.append(length)
    x, u, lp, c, r, d = zip(*rows)
    return Rollout(
        policy_inputs=np.stack(x),
        actions=np.stack(u),
        log_probs=np.array(lp),
        critic_inputs=np.stack(c),
        rewards=np.array(r),
        dones=np.array(d),
        episode_rewards=totals,
        episode_lengths=lengths,
    )


def assert_same_rollout(a, b):
    for name in ("policy_inputs", "actions", "log_probs", "critic_inputs", "rewards", "dones"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.dtype == y.dtype, name
        assert x.tobytes() == y.tobytes(), name
    assert np.array(a.episode_rewards).tobytes() == np.array(b.episode_rewards).tobytes()
    assert a.episode_lengths == b.episode_lengths


def counted_rollout(*args, **kwargs):
    """collect_rollouts with every step_task call counted."""
    calls = []
    step = attributes.step_task

    def counting(*a):
        calls.append(1)
        return step(*a)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(attributes, "step_task", counting)
        roll = collect_rollouts(*args, **kwargs)
    return roll, len(calls)


def point_servo_actor(task):
    """A noisy linear servo: episodes end at many different ticks."""
    w = np.zeros((6, 2))
    w[2, 0] = w[3, 1] = -1.2  # velocity
    w[4, 0] = w[5, 1] = 2.5  # target offset
    policy = GaussianPolicy(DenseNet([6, 2], [w], [np.zeros(2)]), np.full(2, -1.0))
    value = DenseNet.create([6, 8, 1], np.random.default_rng(0))
    return FlatActor(policy, value, task.base.extract)


def arm_tail_actor(task):
    """A random arm base under a loud obstacle module, trainable tail."""
    rng = np.random.default_rng(0)
    base = BaseModule(
        "arm",
        GaussianPolicy.create(12, 5, rng, hidden=(8,)),
        DenseNet.create([12, 8, 1], rng),
        frozen=True,
    )
    module = AttributeModule(
        "arm",
        "obstacle",
        GaussianPolicy.create(20, 5, rng, hidden=(8,), output_gain=0.5),
        DenseNet.create([27, 8, 1], rng),
    )
    return CascadeTailActor(make_cascade(base, [module], task)), module.penalty_coeff


class TestLockstepRollouts:
    """collect_rollouts steps episodes in lockstep; its batch must be the
    serial one bit for bit, and no episode may be stepped and dropped."""

    POINT = load_stock_task("point_reach").task
    ARM = load_stock_task("arm_obstacle").task

    @pytest.mark.parametrize("n_steps", [1, 199, 200, 2048])
    def test_flat_point_matches_serial(self, n_steps):
        assert self.POINT.cfg.horizon == 200
        actor = point_servo_actor(self.POINT)
        roll, steps = counted_rollout(actor, self.POINT, 0.5, n_steps, seed=3)
        assert_same_rollout(roll, serial_rollout(actor, self.POINT, 0.5, n_steps, 3))
        assert steps == roll.n_steps
        assert len(set(roll.episode_lengths)) > 1 or n_steps == 1

    @pytest.mark.parametrize("n_steps", [1, 299, 300, 2048])
    def test_arm_cascade_tail_matches_serial(self, n_steps):
        # reverse curriculum near level 0 starts on or near the target, so
        # episodes last from one tick to the full horizon
        assert self.ARM.cfg.horizon == 300
        actor, penalty = arm_tail_actor(self.ARM)
        assert penalty > 0.0
        kw = dict(mode="rcl", penalty_coeff=penalty)
        roll, steps = counted_rollout(actor, self.ARM, 0.06, n_steps, seed=3, **kw)
        assert_same_rollout(roll, serial_rollout(actor, self.ARM, 0.06, n_steps, 3, **kw))
        assert steps == roll.n_steps
        if n_steps == 2048:
            assert 1 in roll.episode_lengths and 300 in roll.episode_lengths

    def test_episode_cap_matches_serial(self):
        actor = point_servo_actor(self.POINT)
        roll, steps = counted_rollout(
            actor, self.POINT, 1.0, 10_000, seed=4, max_new_episodes=7
        )
        want = serial_rollout(actor, self.POINT, 1.0, 10_000, 4, max_new_episodes=7)
        assert_same_rollout(roll, want)
        assert roll.n_episodes == 7 and steps == roll.n_steps

    @given(
        seed=st.integers(0, 2**31 - 1),
        level=st.floats(0.0, 1.0),
        n_steps=st.integers(1, 450),
        offset=st.integers(0, 100),
    )
    @settings(max_examples=15, deadline=None)
    def test_any_seed_level_and_budget_matches_serial(self, seed, level, n_steps, offset):
        actor = point_servo_actor(self.POINT)
        roll, steps = counted_rollout(
            actor, self.POINT, level, n_steps, seed=seed, episode_offset=offset
        )
        want = serial_rollout(actor, self.POINT, level, n_steps, seed, episode_offset=offset)
        assert_same_rollout(roll, want)
        assert steps == roll.n_steps

    @pytest.mark.parametrize("robot", ["point", "arm"])
    def test_columns_share_no_memory(self, robot):
        """Each column is a gather of its own: no two share memory, and
        none shares memory with the blocks the actor returned."""
        if robot == "point":
            task, actor = self.POINT, point_servo_actor(self.POINT)
        else:
            task, actor = self.ARM, arm_tail_actor(self.ARM)[0]
        act, returned = actor.act, []

        def recording(worlds, rngs):
            actions, blocks = act(worlds, rngs)
            returned.extend(blocks)
            return actions, blocks

        actor.act = recording
        roll = collect_rollouts(actor, task, 0.5, 400, seed=3)
        assert roll.n_episodes > 1 and len(returned) > 4
        columns = [roll.policy_inputs, roll.actions, roll.log_probs, roll.critic_inputs,
                   roll.rewards, roll.dones]
        for i, col in enumerate(columns):
            for other in [*columns[i + 1 :], *returned]:
                assert not np.shares_memory(col, other)

    @pytest.mark.parametrize("task_name", ["arm_reach", "arm_obstacle"])
    def test_arm_points_once_per_state(self, monkeypatch, task_name):
        """Every arm state computes its link points once, whichever of the
        views, contact tests and rewards reads them."""
        task = load_stock_task(task_name).task
        if task.addons:
            actor, _ = arm_tail_actor(task)
        else:
            rng = np.random.default_rng(0)
            policy = GaussianPolicy.create(12, 5, rng, hidden=(8,))
            actor = FlatActor(policy, DenseNet.create([12, 8, 1], rng), task.base.extract)
        seen = []
        points = dynamics.arm_points

        def counting(state, cfg):
            seen.append(state)
            return points(state, cfg)

        monkeypatch.setattr(dynamics, "arm_points", counting)
        roll = collect_rollouts(actor, task, 1.0, 700, seed=2)
        assert len({id(s) for s in seen}) == len(seen)
        if not task.addons:
            # the state each step makes, plus each episode's start; no
            # spawn check looks at rejected starts on a bare task
            assert len(seen) == roll.n_steps + roll.n_episodes


class TestTrainers:
    def test_base_training_runs_and_logs(self):
        loaded = load_stock_task("point_reach")
        res = train_base(loaded.task, SMALL, loaded.curriculum, seed=0, max_iterations=2)
        assert len(res.log) == 2
        assert res.base is not None and res.base.frozen
        for row in res.log:
            assert np.isfinite(row.mean_ep_reward)
            assert np.isfinite(row.policy_loss)
            assert row.episodes > 0
        levels = [row.random_level for row in res.log]
        assert levels == sorted(levels)

    def test_base_training_is_deterministic(self):
        loaded = load_stock_task("point_reach")
        a = train_base(loaded.task, SMALL, loaded.curriculum, seed=7, max_iterations=2)
        b = train_base(loaded.task, SMALL, loaded.curriculum, seed=7, max_iterations=2)
        for p, q in zip(a.base.policy.parameters(), b.base.policy.parameters()):
            assert p.tobytes() == q.tobytes()
        assert [r.mean_ep_reward for r in a.log] == [r.mean_ep_reward for r in b.log]

    def test_base_rejects_addon_tasks(self):
        loaded = load_stock_task("point_obstacle")
        with pytest.raises(ValueError):
            train_base(loaded.task, SMALL, loaded.curriculum, seed=0, max_iterations=1)

    def test_attribute_training_keeps_base_frozen(self):
        reach = load_stock_task("point_reach")
        res = train_base(reach.task, SMALL, reach.curriculum, seed=0, max_iterations=1)
        base = res.base
        before = [p.copy() for p in base.policy.parameters()]
        obst = load_stock_task("point_obstacle")
        attr = train_attribute(
            base, obst.task, SMALL, obst.curriculum, seed=1, max_iterations=2
        )
        assert attr.module is not None
        assert attr.module.kind == "obstacle"
        for now, old in zip(base.policy.parameters(), before):
            assert now.tobytes() == old.tobytes()
        assert attr.module.weight == 1.0  # ramp completes within two iterations

    def test_attribute_training_needs_frozen_base(self):
        rng = np.random.default_rng(0)
        base = BaseModule(
            "point",
            GaussianPolicy.create(6, 2, rng),
            DenseNet.create([6, 8, 1], rng),
            frozen=False,
        )
        obst = load_stock_task("point_obstacle")
        with pytest.raises(ValueError):
            train_attribute(base, obst.task, SMALL, obst.curriculum, 0, 1)

    def test_flat_baseline_runs(self):
        loaded = load_stock_task("point_obstacle")
        res = train_flat(loaded.task, SMALL, loaded.curriculum, seed=0, max_iterations=1)
        assert res.policy is not None
        assert res.policy.state_dim == 15
