"""The flat-buffer learner against the per-array code it replaced.

The reference twins below are the earlier implementations: one Adam
update per parameter array, an allocating backward pass that also returns
the input gradient, the loss that calls `gaussian_log_prob`, the GAE loop
over array elements, and the link points built with `np.stack`.  Every
check here is bitwise.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canrl.cascade import BaseModule
from canrl.dynamics import ArticulatedRobotState, SimConfig, arm_points
from canrl.errors import DivergenceError
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
from canrl.ppo import PPOConfig, compute_gae, ppo_loss, train_attribute
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


def same_bits(xs, ys):
    return len(xs) == len(ys) and all(
        np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(xs, ys)
    )


# ---------------------------------------------------------------------------
# tests


class TestPacking:
    def test_views_share_the_buffers(self):
        pol, val = make_actor(np.random.default_rng(0), WIDTHS[1])
        params, grads, grad_views = pack_parameters(pol, val)
        arrays = [*pol.parameters(), *val.parameters()]
        assert params.size == grads.size == sum(a.size for a in arrays)
        assert [g.shape for g in grad_views] == [a.shape for a in arrays]
        for a in arrays:
            assert np.shares_memory(a, params)
        for g in grad_views:
            assert np.shares_memory(g, grads)
        params[:] = np.arange(params.size)
        assert pol.mean_net.weights[0][0, 0] == 0.0
        assert val.biases[-1][0] == params.size - 1
        assert pol.log_std[0] == sum(a.size for a in pol.mean_net.parameters())
        assert np.concatenate([a.ravel() for a in arrays]).tobytes() == params.tobytes()

    @pytest.mark.parametrize("widths", WIDTHS)
    def test_packing_keeps_bytes_and_outputs(self, widths):
        rng = np.random.default_rng(1)
        pol, val = make_actor(rng, widths)
        before = json.dumps([pol.to_dict(), val.to_dict()])
        x = rng.normal(size=(9, pol.state_dim))
        xv = rng.normal(size=(9, val.in_dim))
        want = [pol.mean(x), pol.mean_net.forward(x), val.forward(xv), pol.std()]
        pack_parameters(pol, val)
        assert json.dumps([pol.to_dict(), val.to_dict()]) == before
        got = [pol.mean(x), pol.mean_net.forward(x), val.forward(xv), pol.std()]
        assert same_bits(got, want)

    def test_nonfinite_gradient_moves_nothing(self):
        rng = np.random.default_rng(2)
        pol, val = make_actor(rng, WIDTHS[0])
        params, grads, _ = pack_parameters(pol, val)
        adam = AdamState.for_params(params, lr=1e-3)
        grads[:] = rng.normal(size=grads.size)
        adam_step(params, grads, adam)
        saved = [params.copy(), adam.first_moment.copy(), adam.second_moment.copy()]
        grads[-1] = np.inf  # the critic's last bias, the end of the buffer
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
        _, grads, views = pack_parameters(pol, val)
        _, acts = pol.mean_net.forward_cached(x)
        pol.mean_net.backward_cached(acts, up, views[: len(want)])
        assert same_bits(views[: len(want)], want)
        k = sum(w.size for w in want)
        assert grads[:k].tobytes() == np.concatenate([w.ravel() for w in want]).tobytes()


class TestLossTwin:
    @given(st.integers(0, 2**32 - 1), st.sampled_from(WIDTHS), BATCHES, st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_matches_per_array_loss(self, seed, widths, n, packed):
        rng = np.random.default_rng(seed)
        pol, val = make_actor(rng, widths)
        if rng.uniform() < 0.3:  # one log-std outside the clamp
            pol.log_std[0] = -9.0
        batch = make_batch(rng, pol, val, n)
        cfg = PPOConfig(entropy_coeff=float(rng.choice([0.0, 0.01])))
        want = ref_ppo_loss(batch, pol, val, cfg)
        grads = pack_parameters(pol, val)[2] if packed else None
        got = ppo_loss(batch, pol, val, cfg, grads)
        assert got[0] == want[0]
        assert same_bits(got[1], want[1]) and same_bits(got[2], want[2])
        assert got[3] == want[3]
        if packed:
            assert all(a is b for a, b in zip([*got[1], *got[2]], grads))


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
        params, grads, views = pack_parameters(pol, val)
        adam = AdamState.for_params(params, lr=lr)
        for _ in range(steps):
            step = [signed_zeros(rng, rng.normal(size=p.shape) * 10.0 ** rng.integers(-8, 4))
                    for p in ref]
            for v, g in zip(views, step):
                v[...] = g
            count = ref_adam_step(ref, step, first, second, count, lr)
            adam_step(params, grads, adam)
            assert adam.step_count == count
            assert same_bits([*pol.parameters(), *val.parameters()], ref)
            assert adam.first_moment.tobytes() == np.concatenate([m.ravel() for m in first]).tobytes()
            assert adam.second_moment.tobytes() == np.concatenate([v.ravel() for v in second]).tobytes()

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
        params, grads, views = pack_parameters(pol, val)
        adam = AdamState.for_params(params, lr=1e-3)
        cfg = PPOConfig()
        for n in (256, 256, 105, 1):
            batch = make_batch(rng, pol, val, n)
            _, pg, vg, _ = ref_ppo_loss(batch, ref_pol, ref_val, cfg)
            count = ref_adam_step(ref, [*pg, *vg], first, second, count, 1e-3)
            ppo_loss(batch, pol, val, cfg, views)
            adam_step(params, grads, adam)
            assert same_bits([*pol.parameters(), *val.parameters()], ref)


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
