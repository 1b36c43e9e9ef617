"""Network core: forward/backward, Gaussian head, Adam, serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from canrl.errors import DimensionError, DivergenceError
from canrl.nets import (
    LOG_2PI,
    SIGMA_MAX,
    SIGMA_MIN,
    AdamState,
    DenseNet,
    GaussianPolicy,
    adam_step,
    gaussian_log_prob,
)


def rel_err(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return np.max(np.abs(a - b) / denom)


def forward_oracle(net, x):
    """Re-evaluate the net with plain Python loops."""
    h = [float(v) for v in x]
    n = len(net.weights)
    for li in range(n):
        fan_in, fan_out = net.layer_sizes[li], net.layer_sizes[li + 1]
        out = []
        for j in range(fan_out):
            s = float(net.biases[li][j])
            for i in range(fan_in):
                s += h[i] * float(net.weights[li][i][j])
            out.append(s)
        h = [math.tanh(v) for v in out] if li < n - 1 else out
    return np.array(h)


class TestDenseNetForward:
    def test_zero_weights_give_zero_output(self):
        net = DenseNet.create([3, 8, 8, 2], np.random.default_rng(0))
        for w in net.weights:
            w[:] = 0.0
        out = net.forward(np.array([1.3, -0.2, 4.0]))
        assert np.array_equal(out, np.zeros(2))

    def test_single_layer_identity(self):
        net = DenseNet(
            [2, 2], [np.eye(2)], [np.zeros(2)]
        )
        out = net.forward(np.array([1.0, 2.0]))
        assert np.array_equal(out, np.array([1.0, 2.0]))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        net = DenseNet.create([2, 4, 4, 2], rng)
        for _ in range(20):
            x = rng.uniform(-2, 2, size=2)
            assert rel_err(net.forward(x), forward_oracle(net, x)) < 1e-12

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        net = DenseNet.create([5, 16, 16, 3], rng)
        xs = rng.normal(size=(11, 5))
        batch = net.forward(xs)
        for i in range(11):
            assert rel_err(batch[i], net.forward(xs[i])) < 1e-12

    def test_wrong_input_width_raises(self):
        net = DenseNet.create([4, 8, 2], np.random.default_rng(0))
        with pytest.raises(DimensionError):
            net.forward(np.zeros(3))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_forward_is_deterministic(self, seed):
        rng = np.random.default_rng(seed)
        net = DenseNet.create([3, 6, 2], rng)
        x = rng.normal(size=3)
        a = net.forward(x)
        b = net.forward(x)
        assert np.array_equal(a, b)


def backward(net, xs, upstream):
    """Parameter gradients through the training path, in fresh arrays."""
    _, acts = net.forward_cached(xs)
    grads = [np.empty_like(p) for p in net.parameters()]
    net.backward_cached(acts, upstream, grads)
    return grads


class TestDenseNetBackward:
    def _fd_param_grads(self, net, xs, h=1e-6):
        grads = []
        for arr in net.parameters():
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up = float(np.sum(net.forward(xs)))
                arr[idx] = orig - h
                down = float(np.sum(net.forward(xs)))
                arr[idx] = orig
                g[idx] = (up - down) / (2 * h)
                it.iternext()
            grads.append(g)
        return grads

    def test_param_grads_match_finite_difference(self):
        rng = np.random.default_rng(11)
        net = DenseNet.create([3, 5, 4, 2], rng)
        xs = rng.normal(size=(6, 3))
        grads = backward(net, xs, np.ones((6, 2)))
        fd = self._fd_param_grads(net, xs)
        for a, b in zip(grads, fd):
            assert rel_err(a, b) < 1e-6

    def test_weighted_upstream_grads(self):
        # upstream other than ones exercises the chain rule through tanh
        rng = np.random.default_rng(17)
        net = DenseNet.create([2, 5, 2], rng)
        xs = rng.normal(size=(4, 2))
        up = rng.normal(size=(4, 2))
        grads = backward(net, xs, up)
        h = 1e-6
        w0 = net.weights[0]
        for idx in [(0, 0), (1, 3), (0, 4)]:
            orig = w0[idx]
            w0[idx] = orig + h
            hi = float(np.sum(net.forward(xs) * up))
            w0[idx] = orig - h
            lo = float(np.sum(net.forward(xs) * up))
            w0[idx] = orig
            assert rel_err(grads[0][idx], (hi - lo) / (2 * h)) < 1e-6


class TestGaussianPolicy:
    def test_sample_reproducible_for_fixed_seed(self):
        pol = GaussianPolicy.create(3, 2, np.random.default_rng(0))
        s = np.array([[0.1, -0.4, 0.9]])
        a1, lp1 = pol.sample(s, [np.random.default_rng(99)])
        a2, lp2 = pol.sample(s, [np.random.default_rng(99)])
        assert np.array_equal(a1, a2)
        assert np.array_equal(lp1, lp2)

    def test_sample_statistics(self):
        pol = GaussianPolicy.create(2, 2, np.random.default_rng(1), init_std=0.5)
        s = np.array([[0.3, -0.2]])
        mean = pol.mean(s)[0]
        rng = np.random.default_rng(5)
        draws = np.array([pol.sample(s, [rng])[0][0] for _ in range(100_000)])
        assert np.max(np.abs(draws.mean(axis=0) - mean)) < 0.01
        assert np.max(np.abs(draws.std(axis=0) - 0.5)) < 0.01

    def test_log_prob_standard_normal_value(self):
        net = DenseNet([1, 1], [np.zeros((1, 1))], [np.zeros(1)])
        pol = GaussianPolicy(net, np.zeros(1))
        lp = gaussian_log_prob(pol.mean(np.zeros((1, 1)))[0], pol.std(), np.zeros(1))
        assert abs(lp - (-0.9189385332046727)) < 1e-12

    def test_log_prob_matches_scipy(self):
        rng = np.random.default_rng(23)
        pol = GaussianPolicy.create(3, 2, rng, init_std=0.7)
        for _ in range(10):
            s = rng.normal(size=3)
            a = rng.normal(size=2)
            mean = pol.mean(s[None])[0]
            want = float(np.sum(stats.norm.logpdf(a, mean, pol.std())))
            got = gaussian_log_prob(mean, pol.std(), a)
            assert rel_err(got, want) < 1e-12

    def test_log_prob_of_sample_matches_returned(self):
        pol = GaussianPolicy.create(4, 3, np.random.default_rng(2))
        s = np.linspace(-1, 1, 4)[None]
        a, lp = pol.sample(s, [np.random.default_rng(42)])
        assert np.array_equal(gaussian_log_prob(pol.mean(s), pol.std(), a), lp)

    def test_entropy_closed_form(self):
        net = DenseNet([1, 2], [np.zeros((1, 2))], [np.zeros(2)])
        pol = GaussianPolicy(net, np.zeros(2))
        assert abs(pol.entropy() - (1.0 + LOG_2PI)) < 1e-12
        want = 2 * stats.norm.entropy(0, 1)
        assert abs(pol.entropy() - want) < 1e-12

    def test_sigma_clamped_on_both_sides(self):
        net = DenseNet([1, 2], [np.zeros((1, 2))], [np.zeros(2)])
        pol = GaussianPolicy(net, np.array([50.0, -50.0]))
        assert pol.std()[0] == SIGMA_MAX
        assert pol.std()[1] == SIGMA_MIN

    @given(
        st.integers(1, 64),
        st.integers(0, 2**32 - 1),
        st.sampled_from([(6, 2), (11, 2), (13, 2), (12, 5), (20, 5)]),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_rows_match_serial_calls(self, e, seed, dims):
        # the serial twin is the single-state path: a 1-D forward and one
        # standard normal draw per state
        k, m = dims
        rng = np.random.default_rng(seed)
        pol = GaussianPolicy.create(k, m, rng, output_gain=1.0)
        pol.log_std[:] = rng.normal(scale=0.5, size=m)
        states = rng.normal(scale=2.0, size=(e, k))
        means = pol.mean(states)
        actions, log_probs = pol.sample(
            states, [np.random.default_rng([seed, i]) for i in range(e)]
        )
        std = pol.std()
        for i in range(e):
            mean = pol.mean_net.forward(states[i])
            action = mean + std * np.random.default_rng([seed, i]).standard_normal(m)
            assert means[i].tobytes() == mean.tobytes()
            assert actions[i].tobytes() == action.tobytes()
            assert log_probs[i] == gaussian_log_prob(mean, std, action)

    def test_sample_needs_one_rng_per_row(self):
        pol = GaussianPolicy.create(3, 2, np.random.default_rng(0))
        with pytest.raises(DimensionError):
            pol.sample(np.zeros((2, 3)), [np.random.default_rng(0)])
        with pytest.raises(DimensionError):
            pol.mean(np.zeros(3))

    def test_vectorized_log_prob_matches_scalar(self):
        rng = np.random.default_rng(31)
        pol = GaussianPolicy.create(2, 2, rng)
        states = rng.normal(size=(8, 2))
        actions = rng.normal(size=(8, 2))
        means = pol.mean_net.forward(states)
        vec = gaussian_log_prob(means, pol.std(), actions)
        for i in range(8):
            one = gaussian_log_prob(pol.mean(states[i : i + 1])[0], pol.std(), actions[i])
            assert rel_err(vec[i], one) < 1e-12


def adam_oracle(g_seq, p0, lr, b1=0.9, b2=0.999, eps=1e-8):
    m = v = 0.0
    p = p0
    path = []
    for t, g in enumerate(g_seq, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p = p - lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
        path.append(p)
    return path


class TestAdam:
    def test_first_step_size_is_lr(self):
        p = np.array([1.0])
        st_ = AdamState.for_params(p, lr=1e-3)
        adam_step(p, np.array([1.0]), st_)
        assert abs((p[0] - 1.0) + 1e-3) < 1e-9

    def test_matches_scalar_recurrence(self):
        rng = np.random.default_rng(3)
        g_seq = rng.normal(size=20)
        want = adam_oracle(list(g_seq), 0.5, lr=0.01)
        p = np.array([0.5])
        st_ = AdamState.for_params(p, lr=0.01)
        got = []
        for g in g_seq:
            adam_step(p, np.array([g]), st_)
            got.append(float(p[0]))
        assert rel_err(np.array(got), np.array(want)) < 1e-12

    def test_descends_against_gradient_sign(self):
        p = np.array([0.0, 0.0])
        st_ = AdamState.for_params(p, lr=0.1)
        view = p[1:]
        assert adam_step(p, np.array([1.0, -1.0]), st_) is None
        assert p[0] < 0 < view[0]  # the caller's buffer, and its views, moved

    def test_nonfinite_gradient_raises(self):
        p = np.zeros(2)
        st_ = AdamState.for_params(p)
        with pytest.raises(DivergenceError):
            adam_step(p, np.array([np.nan, 0.0]), st_)

    def test_moments_update_in_place_per_step(self):
        p = np.array([1.0])
        st_ = AdamState.for_params(p, lr=1e-2)
        adam_step(p, np.array([2.0]), st_)
        assert st_.step_count == 1
        assert st_.first_moment[0] == pytest.approx(0.2)
        assert st_.second_moment[0] == pytest.approx(0.004)


class TestSerialization:
    def test_policy_round_trip_is_bitwise(self):
        pol = GaussianPolicy.create(5, 3, np.random.default_rng(8))
        blob = json.dumps(pol.to_dict())
        back = GaussianPolicy.from_dict(json.loads(blob))
        for a, b in zip(pol.parameters(), back.parameters()):
            assert a.tobytes() == b.tobytes()

    def test_net_round_trip_is_bitwise(self):
        net = DenseNet.create([4, 16, 1], np.random.default_rng(9))
        blob = json.dumps(net.to_dict())
        back = DenseNet.from_dict(json.loads(blob))
        for a, b in zip(net.parameters(), back.parameters()):
            assert a.tobytes() == b.tobytes()
        x = np.random.default_rng(1).normal(size=4)
        assert np.array_equal(net.forward(x), back.forward(x))

    def test_checkpoint_keys(self):
        pol = GaussianPolicy.create(2, 2, np.random.default_rng(0))
        d = pol.to_dict()
        assert set(d) == {"layer_sizes", "weights", "biases", "log_std"}
