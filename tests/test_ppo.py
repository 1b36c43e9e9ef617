"""PPO loss gradients, rollout collection, and the trainer loops."""

import numpy as np
import pytest

from canrl.cascade import BaseModule
from canrl.nets import AdamState, DenseNet, GaussianPolicy, gaussian_log_prob
from canrl.ppo import (
    FlatActor,
    PPOConfig,
    Transition,
    collect_rollouts,
    compute_gae,
    episode_rng,
    normalize_advantages,
    ppo_loss,
    train_attribute,
    train_base,
    train_flat,
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


def loss_value(batch, pol, val, cfg):
    loss, _, _, _ = ppo_loss(batch, pol, val, cfg)
    return loss


def fd_check_all_params(batch, pol, val, cfg, h=1e-6, tol=1e-5):
    _, pol_grads, val_grads, _ = ppo_loss(batch, pol, val, cfg)
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
        loss, _, _, stats = ppo_loss(batch, pol, val, cfg)
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
        _, pol_grads, _, stats = ppo_loss(batch, pol, val, cfg)
        assert stats["clip_fraction"] == 1.0
        for g in pol_grads:
            assert np.all(g == 0.0)

    def test_clipped_negative_advantage_kills_gradient(self):
        pol, val = tiny_policy_value()
        cfg = PPOConfig(entropy_coeff=0.0, value_coeff=0.0)
        batch = make_batch(pol, val, n=1, lp_shift=0.5)  # ratio e^-0.5 < 0.8
        batch["advantages"] = np.array([-1.0])
        _, pol_grads, _, _ = ppo_loss(batch, pol, val, cfg)
        for g in pol_grads:
            assert np.all(g == 0.0)

    def test_pessimism_uses_smaller_surrogate(self):
        pol, val = tiny_policy_value()
        cfg = PPOConfig(entropy_coeff=0.0, value_coeff=0.0)
        batch = make_batch(pol, val, n=1, lp_shift=-0.5)
        batch["advantages"] = np.array([1.0])
        loss, _, _, _ = ppo_loss(batch, pol, val, cfg)
        assert loss == pytest.approx(-1.2, abs=1e-12)  # clip at 1 + eps

    def test_entropy_bonus_enters_loss(self):
        pol, val = tiny_policy_value()
        batch = make_batch(pol, val)
        with_ent, _, _, _ = ppo_loss(batch, pol, val, PPOConfig(entropy_coeff=0.01))
        without, _, _, _ = ppo_loss(batch, pol, val, PPOConfig(entropy_coeff=0.0))
        assert with_ent - without == pytest.approx(-0.01 * pol.entropy(), abs=1e-12)

    def test_value_loss_is_weighted_mse(self):
        pol, val = tiny_policy_value()
        cfg = PPOConfig(entropy_coeff=0.0)
        batch = make_batch(pol, val)
        batch["advantages"] = np.zeros_like(batch["advantages"])
        loss, _, _, stats = ppo_loss(batch, pol, val, cfg)
        v = val.forward(batch["critic_inputs"])[:, 0]
        mse = float(np.mean((v - batch["returns"]) ** 2))
        assert stats["value_loss"] == pytest.approx(mse, abs=1e-12)
        assert loss == pytest.approx(cfg.value_coeff * mse, abs=1e-12)


class ScriptedActor:
    """Servo straight at the target; no learning parts."""

    def __init__(self, task):
        self.task = task

    def act(self, worlds, rngs):
        forces, trs = [], []
        for w in worlds:
            force = np.clip(
                2.5 * (w.target_position - w.robot.position) - 1.2 * w.robot.velocity,
                -1.0,
                1.0,
            )
            view = self.task.base.extract(w)
            forces.append(force)
            trs.append(Transition(view, force, 0.0, view))
        return np.array(forces), trs


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
