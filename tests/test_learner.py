"""The flat-buffer learner against the per-array code it replaced, and the
learner with its critic half in a worker process against the serial one.

The reference twins below are the earlier implementations: one Adam
update per parameter array, an allocating backward pass that also returns
the input gradient, the one-pass loss of both halves that calls
`gaussian_log_prob`, the serial training loop that runs both halves of
each minibatch in one process, the GAE loop over array elements, and the
link points built with `np.stack`.  Every check here is bitwise.
"""

import dataclasses
import json
import math
import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canrl import ppo
from canrl.cascade import BaseModule
from canrl.curriculum import CurriculumState, curriculum_update, effective_reset_level
from canrl.dynamics import ArticulatedRobotState, SimConfig, arm_points
from canrl.errors import DivergenceError
from canrl.harness import RunConfig, run_compare, save_base, save_module, write_training_log
from canrl.nets import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    SIGMA_MAX,
    SIGMA_MIN,
    AdamState,
    DenseNet,
    GaussianPolicy,
    adam_step,
    gaussian_log_prob,
    pack_parameters,
)
from canrl.ppo import (
    SHUFFLE_STREAM,
    FlatActor,
    IterationLog,
    PPOConfig,
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

# ---------------------------------------------------------------------------
# reference twins


def ref_adam_step(params, grads, first, second, step_count, lr):
    """Per-array Adam; returns the new step count."""
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise DivergenceError("non-finite gradient")
    t = step_count + 1
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    for p, g, m, v in zip(params, grads, first, second):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    return t


def ref_backward_cached(net, acts, upstream):
    """Allocating backward: ([dW0, db0, ...], dL/dx)."""
    g = np.asarray(upstream, dtype=np.float64)
    n = len(net.weights)
    grads = [None] * (2 * n)
    for i in range(n - 1, -1, -1):
        dz = g if i == n - 1 else g * (1.0 - acts[i + 1] ** 2)
        grads[2 * i] = acts[i].T @ dz
        grads[2 * i + 1] = dz.sum(axis=0)
        g = dz @ net.weights[i].T
    return grads, g


def ref_ppo_loss(batch, policy, value_net, cfg):
    x, u, lp_old = batch["policy_inputs"], batch["actions"], batch["log_probs"]
    adv, ret, xv = batch["advantages"], batch["returns"], batch["critic_inputs"]
    n = x.shape[0]
    mean, acts = policy.mean_net.forward_cached(x)
    sigma = policy.std()
    z = (u - mean) / sigma
    lp_new = gaussian_log_prob(mean, sigma, u)
    ratio = np.exp(lp_new - lp_old)
    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - cfg.clip_epsilon, 1.0 + cfg.clip_epsilon) * adv
    policy_loss = -float(np.mean(np.minimum(unclipped, clipped)))
    active = (unclipped <= clipped).astype(np.float64)
    d_lp = -(adv * ratio * active) / n
    mean_grads, _ = ref_backward_cached(policy.mean_net, acts, d_lp[:, None] * (z / sigma))
    raw_sigma = np.exp(policy.log_std)
    clamp_open = ((raw_sigma > SIGMA_MIN) & (raw_sigma < SIGMA_MAX)).astype(np.float64)
    d_log_std = (d_lp[:, None] * (z * z - 1.0)).sum(axis=0)
    entropy = policy.entropy()
    d_log_std = (d_log_std - cfg.entropy_coeff) * clamp_open
    v, v_acts = value_net.forward_cached(xv)
    diff = v[:, 0] - ret
    value_mse = float(np.mean(diff * diff))
    d_v = (2.0 * cfg.value_coeff / n) * diff
    value_grads, _ = ref_backward_cached(value_net, v_acts, d_v[:, None])
    value_loss = cfg.value_coeff * value_mse
    entropy_loss = -cfg.entropy_coeff * entropy
    loss = policy_loss + value_loss + entropy_loss
    stats = {
        "policy_loss": policy_loss,
        "value_loss": value_mse,
        "entropy": entropy,
        "kl": float(np.mean(lp_old - lp_new)),
        "clip_fraction": float(np.mean(np.abs(ratio - 1.0) > cfg.clip_epsilon)),
    }
    return loss, [*mean_grads, d_log_std], value_grads, stats


def ref_train_loop(
    actor, task, ppo_cfg, cur_cfg, seed, max_iterations, penalty_coeff=0.0,
    on_iteration=None, progress=None, stop_at_terminal=True,
):
    """The serial learner: both halves of each minibatch in one process, in
    one pass, and one Adam update over every policy and critic array."""
    params = [*actor.policy.parameters(), *actor.value_net.parameters()]
    first = [np.zeros_like(p) for p in params]
    second = [np.zeros_like(p) for p in params]
    count = 0
    cur = CurriculumState.from_config(cur_cfg)
    shuffle_rng = episode_rng(seed, SHUFFLE_STREAM, 0)
    log, episodes_used, iters_to_terminal = [], 0, None
    for it in range(max_iterations):
        if on_iteration is not None:
            on_iteration(it)
        roll = collect_rollouts(
            actor, task, effective_reset_level(cur), ppo_cfg.rollout_steps, seed,
            episode_offset=episodes_used, mode=cur_cfg.mode, penalty_coeff=penalty_coeff,
            max_new_episodes=ppo_cfg.max_episodes - episodes_used,
        )
        episodes_used += roll.n_episodes
        values = actor.value_net.forward(roll.critic_inputs)[:, 0]
        adv, ret = compute_gae(roll.rewards, values, roll.dones, ppo_cfg.discount, ppo_cfg.gae_lambda)
        columns = dict(
            policy_inputs=roll.policy_inputs, actions=roll.actions, log_probs=roll.log_probs,
            advantages=normalize_advantages(adv), returns=ret, critic_inputs=roll.critic_inputs,
        )
        n = roll.n_steps
        stats_acc = []
        for _epoch in range(ppo_cfg.epochs_per_iteration):
            order = shuffle_rng.permutation(n)
            epoch_kls = []
            for lo in range(0, n, ppo_cfg.minibatch_size):
                idx = order[lo : lo + ppo_cfg.minibatch_size]
                batch = {key: col[idx] for key, col in columns.items()}
                loss, pg, vg, stats = ref_ppo_loss(batch, actor.policy, actor.value_net, ppo_cfg)
                if not np.isfinite(loss):
                    raise DivergenceError(f"non-finite loss {loss!r}")
                count = ref_adam_step(params, [*pg, *vg], first, second, count, ppo_cfg.lr)
                stats_acc.append(stats)
                epoch_kls.append(stats["kl"])
            if float(np.mean(epoch_kls)) > ppo_cfg.kl_limit:
                break
        mean_ep = float(np.mean(roll.episode_rewards))
        row = IterationLog(
            iteration=it, episodes=roll.n_episodes, random_level=cur.random_level,
            mean_ep_reward=mean_ep,
            **{k: float(np.mean([s[k] for s in stats_acc]))
               for k in ("policy_loss", "value_loss", "entropy", "kl")},
        )
        log.append(row)
        if progress is not None:
            progress(row)
        if iters_to_terminal is None:
            cur, _increased, terminal = curriculum_update(cur, mean_ep)
            if terminal:
                iters_to_terminal = it + 1
                if stop_at_terminal:
                    break
        if episodes_used >= ppo_cfg.max_episodes:
            break
    return log, cur, iters_to_terminal, episodes_used


def ref_compute_gae(rewards, values, dones, discount, lam, last_value=0.0):
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    dones = np.asarray(dones, dtype=np.float64)
    n = len(rewards)
    adv = np.zeros(n)
    acc = 0.0
    for t in range(n - 1, -1, -1):
        cont = 1.0 - dones[t]
        next_value = values[t + 1] if t + 1 < n else last_value
        delta = rewards[t] + discount * next_value * cont - values[t]
        acc = delta + discount * lam * cont * acc
        adv[t] = acc
    return adv, adv + values


def ref_arm_points(state, cfg):
    cum = np.cumsum(state.joint_angles)
    steps = np.asarray(cfg.link_lengths)[:, None] * np.stack([np.sin(cum), np.cos(cum)], axis=1)
    pts = np.empty((len(cfg.link_lengths) + 1, 2))
    pts[0] = (state.base_x, 0.0)
    pts[1:] = pts[0] + np.cumsum(steps, axis=0)
    return pts


# ---------------------------------------------------------------------------
# helpers

# (policy state dim, action dim, hidden, critic input dim): the stock
# widths of the point and arm actors and some odd ones
WIDTHS = [
    (6, 2, (64, 64), 6),
    (10, 2, (64, 64), 16),
    (13, 5, (64, 64), 21),
    (3, 1, (1,), 2),
    (4, 3, (7, 5, 3), 9),
]
BATCHES = st.sampled_from([1, 105, 256]) | st.integers(1, 300)


def signed_zeros(rng, x, frac=0.15):
    """Put +0.0 and -0.0 into a random share of x's entries."""
    x = x.copy()
    x[rng.uniform(size=x.shape) < frac] = 0.0
    x[rng.uniform(size=x.shape) < frac] = -0.0
    return x


def make_actor(rng, widths):
    k, m, hidden, kv = widths
    pol = GaussianPolicy.create(k, m, rng, hidden, output_gain=1.0)
    pol.log_std[:] = rng.normal(scale=0.5, size=m)
    val = DenseNet.create([kv, *hidden, 1], rng)
    return pol, val


def copy_actor(pol, val):
    pol2 = GaussianPolicy.from_dict(json.loads(json.dumps(pol.to_dict())))
    val2 = DenseNet.from_dict(json.loads(json.dumps(val.to_dict())))
    return pol2, val2


def make_batch(rng, pol, val, n):
    x = signed_zeros(rng, rng.normal(scale=2.0, size=(n, pol.state_dim)))
    u = rng.normal(scale=0.7, size=(n, pol.action_dim))
    lp = gaussian_log_prob(pol.mean_net.forward(x), pol.std(), u)
    return {
        "policy_inputs": x,
        "actions": u,
        "log_probs": np.asarray(lp + rng.normal(scale=0.3, size=n), dtype=float),
        "advantages": signed_zeros(rng, rng.normal(size=n)),
        "returns": rng.normal(size=n),
        "critic_inputs": rng.normal(size=(n, val.in_dim)),
    }


def fresh_grads(net):
    return [np.full_like(p, np.nan) for p in net.parameters()]


def both_halves(batch, pol, val, cfg, pol_grads=None, val_grads=None):
    """ppo_loss and value_loss on one minibatch, summed as the one-pass loss
    summed them: (loss, policy grads, critic grads, stats)."""
    _, pg, stats = ppo_loss(batch, pol, cfg, fresh_grads(pol) if pol_grads is None else pol_grads)
    mse, vg = value_loss(batch, val, cfg, fresh_grads(val) if val_grads is None else val_grads)
    loss = stats["policy_loss"] + cfg.value_coeff * mse - cfg.entropy_coeff * stats["entropy"]
    return loss, pg, vg, {**stats, "value_loss": mse}


def same_bits(xs, ys):
    return len(xs) == len(ys) and all(
        np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(xs, ys)
    )


# ---------------------------------------------------------------------------
# tests


class TestPacking:
    def test_views_share_the_buffers(self):
        pol, val = make_actor(np.random.default_rng(0), WIDTHS[1])
        for net in (pol, val):
            params, grads, grad_views = pack_parameters(net)
            arrays = net.parameters()
            assert params.size == grads.size == sum(a.size for a in arrays)
            assert [g.shape for g in grad_views] == [a.shape for a in arrays]
            for a in arrays:
                assert np.shares_memory(a, params)
            for g in grad_views:
                assert np.shares_memory(g, grads)
            params[:] = np.arange(params.size)
            assert np.concatenate([a.ravel() for a in arrays]).tobytes() == params.tobytes()
        assert pol.mean_net.weights[0][0, 0] == 0.0
        assert pol.log_std[-1] == pol.log_std.size - 1 + sum(a.size for a in pol.mean_net.parameters())
        assert val.weights[0][0, 0] == 0.0
        assert val.biases[-1][0] == sum(a.size for a in val.parameters()) - 1
        assert not any(np.shares_memory(a, b) for a in pol.parameters() for b in val.parameters())

    @pytest.mark.parametrize("widths", WIDTHS)
    def test_packing_keeps_bytes_and_outputs(self, widths):
        rng = np.random.default_rng(1)
        pol, val = make_actor(rng, widths)
        before = json.dumps([pol.to_dict(), val.to_dict()])
        x = rng.normal(size=(9, pol.state_dim))
        xv = rng.normal(size=(9, val.in_dim))
        want = [pol.mean(x), pol.mean_net.forward(x), val.forward(xv), pol.std()]
        pack_parameters(pol)
        pack_parameters(val)
        assert json.dumps([pol.to_dict(), val.to_dict()]) == before
        got = [pol.mean(x), pol.mean_net.forward(x), val.forward(xv), pol.std()]
        assert same_bits(got, want)

    def test_nonfinite_gradient_moves_nothing(self):
        rng = np.random.default_rng(2)
        for net in make_actor(rng, WIDTHS[0]):
            params, grads, _ = pack_parameters(net)
            adam = AdamState.for_params(params, lr=1e-3)
            grads[:] = rng.normal(size=grads.size)
            adam_step(params, grads, adam)
            saved = [params.copy(), adam.first_moment.copy(), adam.second_moment.copy()]
            grads[-1] = np.inf  # log_std, or the critic's last bias: the end of the buffer
            with pytest.raises(DivergenceError):
                adam_step(params, grads, adam)
            assert adam.step_count == 1
            assert same_bits([params, adam.first_moment, adam.second_moment], saved)

    def test_frozen_base_check_still_holds(self):
        reach = load_stock_task("point_reach")
        dim = reach.task.base.state_dim
        pol, val = make_actor(np.random.default_rng(3), (dim, 2, (8,), dim))
        base = BaseModule("point", pol, val, frozen=True)
        before = [p.copy() for p in base.policy.parameters()]
        obst = load_stock_task("point_obstacle")
        cfg = PPOConfig(rollout_steps=64, epochs_per_iteration=2, minibatch_size=32)
        res = train_attribute(base, obst.task, cfg, obst.curriculum, seed=1, max_iterations=1)
        assert same_bits(base.policy.parameters(), before)
        module_arrays = [*res.module.comp_policy.parameters(), *res.module.value_net.parameters()]
        for p in base.policy.parameters():
            assert not any(np.shares_memory(p, q) for q in module_arrays)

        def nudge_base(_row):
            base.policy.log_std[0] += 1e-9

        with pytest.raises(RuntimeError, match="frozen base changed"):
            train_attribute(
                base, obst.task, cfg, obst.curriculum, seed=1, max_iterations=1,
                progress=nudge_base,
            )


class TestBackwardTwin:
    @given(st.integers(0, 2**32 - 1), st.sampled_from(WIDTHS), BATCHES)
    @settings(max_examples=40, deadline=None)
    def test_matches_allocating_backward(self, seed, widths, n):
        rng = np.random.default_rng(seed)
        pol, val = make_actor(rng, widths)
        for net in (pol.mean_net, val):
            x = signed_zeros(rng, rng.normal(scale=2.0, size=(n, net.in_dim)))
            up = signed_zeros(rng, rng.normal(size=(n, net.out_dim)) * 10.0 ** rng.integers(-6, 3))
            _, acts = net.forward_cached(x)
            want, _ = ref_backward_cached(net, acts, up)
            got = [np.full_like(p, np.nan) for p in net.parameters()]
            net.backward_cached(acts, up, got)
            assert same_bits(got, want)

    @given(st.integers(0, 2**32 - 1), st.sampled_from(WIDTHS), BATCHES)
    @settings(max_examples=25, deadline=None)
    def test_writes_into_packed_views(self, seed, widths, n):
        rng = np.random.default_rng(seed)
        pol, val = make_actor(rng, widths)
        x = rng.normal(size=(n, pol.state_dim))
        up = signed_zeros(rng, rng.normal(size=(n, pol.action_dim)))
        _, acts = pol.mean_net.forward_cached(x)
        want, _ = ref_backward_cached(pol.mean_net, acts, up)
        _, grads, views = pack_parameters(pol)
        _, acts = pol.mean_net.forward_cached(x)
        pol.mean_net.backward_cached(acts, up, views[: len(want)])
        assert same_bits(views[: len(want)], want)
        k = sum(w.size for w in want)
        assert grads[:k].tobytes() == np.concatenate([w.ravel() for w in want]).tobytes()


class TestLossTwin:
    @given(st.integers(0, 2**32 - 1), st.sampled_from(WIDTHS), BATCHES, st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_matches_per_array_loss(self, seed, widths, n, packed):
        # the two halves together against the one-pass loss of both
        rng = np.random.default_rng(seed)
        pol, val = make_actor(rng, widths)
        if rng.uniform() < 0.3:  # one log-std outside the clamp
            pol.log_std[0] = -9.0
        batch = make_batch(rng, pol, val, n)
        cfg = PPOConfig(entropy_coeff=float(rng.choice([0.0, 0.01])))
        want = ref_ppo_loss(batch, pol, val, cfg)
        grads = (pack_parameters(pol)[2], pack_parameters(val)[2]) if packed else (None, None)
        got = both_halves(batch, pol, val, cfg, *grads)
        assert got[0] == want[0]
        assert same_bits(got[1], want[1]) and same_bits(got[2], want[2])
        assert got[3] == want[3]
        if packed:
            assert all(a is b for a, b in zip([*got[1], *got[2]], [*grads[0], *grads[1]]))

    def test_policy_half_returns_its_share_of_the_loss(self):
        rng = np.random.default_rng(5)
        pol, val = make_actor(rng, WIDTHS[0])
        batch = make_batch(rng, pol, val, 64)
        cfg = PPOConfig()
        loss, _, stats = ppo_loss(batch, pol, cfg, fresh_grads(pol))
        assert loss == stats["policy_loss"] - cfg.entropy_coeff * stats["entropy"]
        assert "value_loss" not in stats
        mse, _ = value_loss(batch, val, cfg, fresh_grads(val))
        assert mse == ref_ppo_loss(batch, pol, val, cfg)[3]["value_loss"]


class TestAdamTwin:
    @given(st.integers(0, 2**32 - 1), st.sampled_from(WIDTHS), st.integers(1, 30))
    @settings(max_examples=30, deadline=None)
    def test_multi_step_runs_match_per_array_adam(self, seed, widths, steps):
        rng = np.random.default_rng(seed)
        pol, val = make_actor(rng, widths)
        lr = float(10.0 ** rng.uniform(-5, -1))
        ref = [p.copy() for p in (*pol.parameters(), *val.parameters())]
        first = [np.zeros_like(p) for p in ref]
        second = [np.zeros_like(p) for p in ref]
        count = 0
        # one Adam per net, against one per-array Adam over both nets
        packs = [pack_parameters(pol), pack_parameters(val)]
        adams = [AdamState.for_params(params, lr=lr) for params, _, _ in packs]
        views = [*packs[0][2], *packs[1][2]]
        for _ in range(steps):
            step = [signed_zeros(rng, rng.normal(size=p.shape) * 10.0 ** rng.integers(-8, 4))
                    for p in ref]
            for v, g in zip(views, step):
                v[...] = g
            count = ref_adam_step(ref, step, first, second, count, lr)
            for (params, grads, _), adam in zip(packs, adams):
                adam_step(params, grads, adam)
                assert adam.step_count == count
            assert same_bits([*pol.parameters(), *val.parameters()], ref)
            moments = [np.concatenate([a.first_moment, a.second_moment]) for a in adams]
            k = len(pol.parameters())
            for (m1, m2), want in zip(((first[:k], second[:k]), (first[k:], second[k:])), moments):
                assert np.concatenate([m.ravel() for m in (*m1, *m2)]).tobytes() == want.tobytes()

    @given(st.integers(0, 2**32 - 1), st.sampled_from(WIDTHS[:3]))
    @settings(max_examples=8, deadline=None)
    def test_minibatch_steps_match_per_array_path(self, seed, widths):
        # the training loop's minibatch step, packed against per-array
        rng = np.random.default_rng(seed)
        pol, val = make_actor(rng, widths)
        ref_pol, ref_val = copy_actor(pol, val)
        ref = [*ref_pol.parameters(), *ref_val.parameters()]
        first = [np.zeros_like(p) for p in ref]
        second = [np.zeros_like(p) for p in ref]
        count = 0
        packs = [pack_parameters(pol), pack_parameters(val)]
        adams = [AdamState.for_params(params, lr=1e-3) for params, _, _ in packs]
        cfg = PPOConfig()
        for n in (256, 256, 105, 1):
            batch = make_batch(rng, pol, val, n)
            _, pg, vg, _ = ref_ppo_loss(batch, ref_pol, ref_val, cfg)
            count = ref_adam_step(ref, [*pg, *vg], first, second, count, 1e-3)
            ppo_loss(batch, pol, cfg, packs[0][2])
            value_loss(batch, val, cfg, packs[1][2])
            for (params, grads, _), adam in zip(packs, adams):
                adam_step(params, grads, adam)
            assert same_bits([*pol.parameters(), *val.parameters()], ref)


def assert_no_child_process():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def random_base(task, seed=3):
    dim = task.base.state_dim
    pol, val = make_actor(np.random.default_rng(seed), (dim, task.action_dim, (8,), dim))
    return BaseModule(task.robot, pol, val, frozen=True)


class PoisonedActor(FlatActor):
    """A flat point actor that banks one non-finite entry in the critic
    input or the log-prob of chosen transitions, counted in acting order."""

    def __init__(self, task, critic_at=(), log_prob_at=(), critic_value=math.inf):
        pol, val = make_actor(np.random.default_rng(9), (6, 2, (8,), 6))
        super().__init__(pol, val, task.base.extract)
        self.critic_at, self.log_prob_at, self.critic_value = critic_at, log_prob_at, critic_value
        self.banked = 0

    def act(self, worlds, rngs):
        actions, trs = super().act(worlds, rngs)
        for tr in trs:
            if self.banked in self.critic_at:
                tr.critic_input = tr.critic_input.copy()
                tr.critic_input[0] = self.critic_value
            if self.banked in self.log_prob_at:
                tr.log_prob = math.nan
            self.banked += 1
        return actions, trs


SMALL = PPOConfig(rollout_steps=300, epochs_per_iteration=4, minibatch_size=64, lr=3e-4)


class TestWorkerTwin:
    """With its critic half in a worker process the learner writes the
    serial learner's checkpoints and logs byte for byte, raises its
    divergence messages, and leaves no process behind."""

    REACH = load_stock_task("point_reach")
    OBSTACLE = load_stock_task("point_obstacle")

    def outputs(self, tmp_path, name, train):
        """(checkpoint bytes, log bytes, result) of one training call."""
        actors = []

        class Recording(FlatActor):
            def __init__(self, *args):
                super().__init__(*args)
                actors.append(self)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(ppo, "FlatActor", Recording)
            res = train()
        ckpt = tmp_path / f"{name}.json"
        if res.base is not None:
            save_base(ckpt, res.base)
        elif res.module is not None:
            save_module(ckpt, res.module)
        else:
            ckpt.write_text(json.dumps([res.policy.to_dict(), actors[-1].value_net.to_dict()]))
        log = write_training_log(tmp_path / f"{name}.train.csv", res.log)
        return ckpt.read_bytes(), log.read_bytes(), res

    def assert_twin(self, tmp_path, train):
        got = self.outputs(tmp_path, "worker", train)
        assert_no_child_process()
        with pytest.MonkeyPatch.context() as m:
            m.setattr(ppo, "_train_loop", ref_train_loop)
            want = self.outputs(tmp_path, "serial", train)
        assert got[0] == want[0]
        assert got[1] == want[1]
        return got[2]

    def test_train_base(self, tmp_path):
        r = self.REACH
        res = self.assert_twin(
            tmp_path, lambda: train_base(r.task, SMALL, r.curriculum, seed=4, max_iterations=3))
        assert len(res.log) == 3

    def test_train_attribute(self, tmp_path):
        o = self.OBSTACLE
        base = random_base(self.REACH.task)
        res = self.assert_twin(tmp_path, lambda: train_attribute(
            base, o.task, SMALL, o.curriculum, seed=1, max_iterations=3))
        assert len(res.log) == 3

    def test_train_attribute_on_the_arm(self, tmp_path):
        arm = load_stock_task("arm_obstacle")
        base = random_base(load_stock_task("arm_reach").task)
        self.assert_twin(tmp_path, lambda: train_attribute(
            base, arm.task, SMALL, arm.curriculum, seed=2, max_iterations=2))

    def test_train_flat(self, tmp_path):
        o = self.OBSTACLE
        cur = dataclasses.replace(o.curriculum, mode="rcl")
        self.assert_twin(tmp_path, lambda: train_flat(o.task, SMALL, cur, seed=5, max_iterations=3))

    def test_kl_early_stop(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(1)
            return ppo_loss(*args)

        monkeypatch.setattr(ppo, "ppo_loss", counted)
        r = self.REACH
        cfg = dataclasses.replace(SMALL, lr=3e-2, kl_limit=1e-3)
        res = self.assert_twin(
            tmp_path, lambda: train_base(r.task, cfg, r.curriculum, seed=6, max_iterations=3))
        # every rollout holds at least 300 steps, so 5 minibatches per epoch
        assert 0 < len(calls) < len(res.log) * cfg.epochs_per_iteration * 5

    def test_max_episodes_cut(self, tmp_path):
        r = self.REACH
        cfg = dataclasses.replace(SMALL, rollout_steps=5000, max_episodes=4)
        res = self.assert_twin(
            tmp_path, lambda: train_base(r.task, cfg, r.curriculum, seed=7, max_iterations=3))
        assert len(res.log) == 1 and res.episodes_used == 4

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_divergence_names_the_first_failing_minibatch(self):
        # a critic gradient that is infinite and a policy loss that is NaN,
        # each in one transition: whichever minibatch holds one first in
        # the epoch's order names the failure, as in the serial learner
        seen = set()
        for seed in range(8):
            msgs = []
            for loop in (ppo._train_loop, ref_train_loop):
                actor = PoisonedActor(self.REACH.task, critic_at=(40,), log_prob_at=(170,))
                with pytest.raises(DivergenceError) as err:
                    loop(actor, self.REACH.task, SMALL, self.REACH.curriculum, seed, 2)
                msgs.append(str(err.value))
                assert_no_child_process()
            assert msgs[0] == msgs[1]
            seen.add(msgs[0])
        assert seen == {"non-finite gradient", "non-finite loss nan"}


class TestWorkerLifecycle:
    """No worker process outlives its training run, however the run ends."""

    REACH = load_stock_task("point_reach")

    def train(self, actor, **kw):
        ppo._train_loop(actor, self.REACH.task, SMALL, self.REACH.curriculum, 0, 2, **kw)

    def test_critic_side_divergence(self):
        actor = PoisonedActor(self.REACH.task, critic_at=(10,), critic_value=math.nan)
        with pytest.raises(DivergenceError, match="non-finite loss nan"):
            self.train(actor)
        assert_no_child_process()

    def test_policy_side_divergence(self):
        actor = PoisonedActor(self.REACH.task, log_prob_at=(10,))
        with pytest.raises(DivergenceError, match="non-finite loss nan"):
            self.train(actor)
        assert_no_child_process()

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_progress_raises(self, error):
        def fail(_row):
            raise error("stop")

        with pytest.raises(error):
            self.train(PoisonedActor(self.REACH.task), progress=fail)
        assert_no_child_process()

    def test_diverging_compare_arms(self, tmp_path, monkeypatch):
        def nan_value_loss(batch, value_net, cfg, grads):
            return math.nan, value_loss(batch, value_net, cfg, grads)[1]

        base_path = save_base(tmp_path / "base.json", random_base(self.REACH.task))
        monkeypatch.setattr(ppo, "value_loss", nan_value_loss)
        summary = run_compare(
            load_stock_task("point_obstacle"), base_path, tmp_path / "cmp", RunConfig(max_iterations=1)
        )
        for arm in ("can", "scratch_cl", "scratch_rcl"):
            assert summary["arms"][arm] == {"error": "DivergenceError: non-finite loss nan"}
        assert_no_child_process()

    def test_blas_runs_one_thread_while_training_then_its_own_count(self):
        threads = ppo._openblas_threads()
        if threads is None:
            pytest.skip("no OpenBLAS to be found in this process")
        get, put = threads
        before = get()
        put(2)
        try:
            seen = []
            self.train(PoisonedActor(self.REACH.task), progress=lambda _row: seen.append(get()))
            assert seen == [1, 1]
            assert get() == 2
        finally:
            put(before)

    def test_worker_that_exits_fails_the_run_fast(self, monkeypatch):
        def exits_at_first_message(conn, parent_end, *args):
            parent_end.close()
            conn.recv()

        def hung(_sig, _frame):
            raise TimeoutError("training hung on a dead critic worker")

        monkeypatch.setattr(ppo, "_critic_worker", exits_at_first_message)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(20)
        try:
            start = time.monotonic()
            with pytest.raises(EOFError):
                self.train(PoisonedActor(self.REACH.task))
            assert time.monotonic() - start < 10.0
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert_no_child_process()


class TestGaeTwin:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3000))
    @settings(max_examples=60, deadline=None)
    def test_matches_array_loop(self, seed, n):
        rng = np.random.default_rng(seed)
        rewards = signed_zeros(rng, rng.normal(size=n))
        values = signed_zeros(rng, rng.normal(scale=5.0, size=n))
        dones = (rng.uniform(size=n) < rng.uniform(0.0, 0.1)).astype(float)
        last_value = float(rng.normal()) if rng.uniform() < 0.7 else -0.0
        gamma, lam = float(rng.uniform(0.8, 1.0)), float(rng.uniform(0.0, 1.0))
        got = compute_gae(rewards, values, dones, gamma, lam, last_value)
        want = ref_compute_gae(rewards, values, dones, gamma, lam, last_value)
        assert same_bits(got, want)

    def test_default_last_value_and_stock_constants(self):
        rng = np.random.default_rng(4)
        n = 2153  # a point-robot rollout
        rewards, values = rng.normal(size=n), rng.normal(size=n)
        dones = np.zeros(n)
        dones[rng.choice(n, 12, replace=False)] = 1.0
        got = compute_gae(rewards, values, dones, 0.99, 0.95)
        assert same_bits(got, ref_compute_gae(rewards, values, dones, 0.99, 0.95))


class TestArmPointsTwin:
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([(0.25, 0.25, 0.25, 0.25), (0.3, 0.25, 0.2, 0.15), (1, 2, 1, 2)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_stacked_form(self, seed, lengths):
        rng = np.random.default_rng(seed)
        cfg = SimConfig(link_lengths=lengths)
        for _ in range(50):
            angles = signed_zeros(rng, rng.uniform(-2 * math.pi, 2 * math.pi, 4), frac=0.3)
            base_x = float(rng.choice([rng.uniform(-1, 1), 0.0, -0.0]))
            s = ArticulatedRobotState(base_x, 0.0, tuple(angles.tolist()), (0.0,) * 4)
            assert np.array(arm_points(s, cfg)).tobytes() == ref_arm_points(s, cfg).tobytes()

    def test_link_array_is_built_once_and_read_only(self):
        cfg = SimConfig()
        assert cfg.link_array is cfg.link_array
        assert cfg.link_array.tolist() == list(cfg.link_lengths)
        with pytest.raises(ValueError):
            cfg.link_array[0] = 1.0
