"""Dense networks with hand-coded reverse-mode gradients, a diagonal
Gaussian policy head, and the Adam optimizer.

Everything runs in float64 so finite-difference gradient checks are
meaningful.  Forward passes never mutate the network.  Each trained net's
parameters live in one flat buffer (`pack_parameters`) whose reshaped views
are its weights, biases and `log_std`; `backward_cached` and the loss
write into views of a matching gradient buffer, and `adam_step` checks that
buffer once, then updates the whole parameter buffer with in-place ufuncs.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DivergenceError, TaskConfigError

SIGMA_MIN = 1e-3
SIGMA_MAX = 10.0
LOG_2PI = math.log(2.0 * math.pi)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def scaled_uniform_init(
    rng: np.random.Generator, fan_in: int, fan_out: int, gain: float
) -> np.ndarray:
    """Variance-scaled uniform init; `gain` shrinks the output layer."""
    limit = gain * math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


@dataclass
class DenseNet:
    """Fully connected network: tanh hidden layers, identity output layer."""

    layer_sizes: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @classmethod
    def create(
        cls,
        layer_sizes: list[int],
        rng: np.random.Generator,
        output_gain: float = 1.0,
    ) -> "DenseNet":
        if len(layer_sizes) < 2 or any(int(n) <= 0 for n in layer_sizes):
            raise ValueError(f"bad layer sizes: {layer_sizes!r}")
        sizes = [int(n) for n in layer_sizes]
        weights, biases = [], []
        last = len(sizes) - 2
        for i, (fi, fo) in enumerate(zip(sizes[:-1], sizes[1:])):
            gain = output_gain if i == last else 1.0
            weights.append(scaled_uniform_init(rng, fi, fo, gain))
            biases.append(np.zeros(fo))
        return cls(sizes, weights, biases)

    @property
    def in_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def out_dim(self) -> int:
        return self.layer_sizes[-1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        out, _ = self.forward_cached(np.atleast_2d(x))
        return out[0] if single else out

    def forward_cached(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Batched forward pass over (..., in_dim) inputs; also returns the
        activations for backward_cached, which takes 2-D batches.

        A stacked (E, 1, in_dim) batch gives each row the bits of a batch
        of one; a plain (E, in_dim) matmul does not.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim < 2 or x.shape[-1] != self.in_dim:
            raise DimensionError(
                f"expected input (..., {self.in_dim}), got {x.shape}"
            )
        acts = [x]
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w + b
            if i < last:
                h = np.tanh(h)
            acts.append(h)
        return h, acts

    def backward_cached(
        self, acts: list[np.ndarray], upstream: np.ndarray, grads: list[np.ndarray]
    ) -> None:
        """Gradients of sum_t out_t . upstream_t w.r.t. the parameters,
        written into `grads`, shaped like [W0, b0, W1, b1, ...]."""
        g = np.asarray(upstream, dtype=np.float64)
        n = len(self.weights)
        for i in range(n - 1, -1, -1):
            if i < n - 1:  # g * (1 - a**2), in one scratch array
                s = np.square(acts[i + 1])
                g = np.multiply(g, np.subtract(1.0, s, out=s), out=s)
            np.matmul(acts[i].T, g, out=grads[2 * i])
            np.sum(g, axis=0, out=grads[2 * i + 1])
            if i > 0:  # nothing reads the input gradient
                g = g @ self.weights[i].T

    def parameters(self) -> list[np.ndarray]:
        """The net's own arrays, [W0, b0, W1, b1, ...]; writes go through."""
        return [a for wb in zip(self.weights, self.biases) for a in wb]

    def to_dict(self) -> dict:
        return {
            "layer_sizes": list(self.layer_sizes),
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DenseNet":
        try:
            sizes = [int(n) for n in d["layer_sizes"]]
            weights = [np.array(w, dtype=np.float64) for w in d["weights"]]
            biases = [np.array(b, dtype=np.float64) for b in d["biases"]]
        except (TypeError, ValueError, OverflowError) as exc:
            raise TaskConfigError(f"checkpoint holds a non-numeric layer: {exc}") from None
        net = cls(sizes, weights, biases)
        want = [((fi, fo), (fo,)) for fi, fo in zip(sizes[:-1], sizes[1:])]
        got = [(w.shape, b.shape) for w, b in zip(weights, biases)]
        if len(sizes) < 2 or len(weights) != len(biases) or got != want:
            raise TaskConfigError("checkpoint layer shapes do not match its layer_sizes")
        if not all(np.isfinite(p).all() for p in net.parameters()):
            raise TaskConfigError("checkpoint holds a non-finite weight or bias")
        return net


def gaussian_log_prob(
    mean: np.ndarray, std: np.ndarray, action: np.ndarray
) -> np.ndarray | float:
    """Log density of a diagonal Gaussian; broadcasts over leading axes."""
    z = (np.asarray(action) - mean) / std
    dim = mean.shape[-1]
    val = -0.5 * np.sum(z * z, axis=-1) - np.sum(np.log(std)) - 0.5 * dim * LOG_2PI
    return float(val) if np.ndim(val) == 0 else val


@dataclass
class GaussianPolicy:
    """Diagonal Gaussian policy: state-dependent mean, global log-std."""

    mean_net: DenseNet
    log_std: np.ndarray

    @classmethod
    def create(
        cls,
        state_dim: int,
        action_dim: int,
        rng: np.random.Generator,
        hidden: tuple[int, ...] = (64, 64),
        init_std: float = 0.5,
        output_gain: float = 0.01,
    ) -> "GaussianPolicy":
        net = DenseNet.create([state_dim, *hidden, action_dim], rng, output_gain)
        return cls(net, np.full(action_dim, math.log(init_std)))

    @property
    def state_dim(self) -> int:
        return self.mean_net.in_dim

    @property
    def action_dim(self) -> int:
        return self.mean_net.out_dim

    def std(self) -> np.ndarray:
        return np.clip(np.exp(self.log_std), SIGMA_MIN, SIGMA_MAX)

    def mean(self, states: np.ndarray) -> np.ndarray:
        """Means of an (E, state_dim) batch, row i bitwise equal to the
        mean of row i alone."""
        states = np.asarray(states, dtype=np.float64)
        if states.ndim != 2:
            raise DimensionError(f"expected states (E, {self.state_dim}), got {states.shape}")
        out, _ = self.mean_net.forward_cached(states[:, None, :])
        return out[:, 0, :]

    def sample(
        self, states: np.ndarray, rngs: Sequence[np.random.Generator]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw one action per row, row i's noise from `rngs[i]`; the
        log-probs reuse the means, so the net runs once."""
        mean = self.mean(states)
        if len(rngs) != len(mean):
            raise DimensionError(f"{len(mean)} states, {len(rngs)} rngs")
        std = self.std()
        noise = np.array([rng.standard_normal(self.action_dim) for rng in rngs])
        actions = mean + std * noise
        return actions, gaussian_log_prob(mean, std, actions)

    def entropy(self) -> float:
        return float(np.sum(np.log(self.std()) + 0.5 * (1.0 + LOG_2PI)))

    def parameters(self) -> list[np.ndarray]:
        return [*self.mean_net.parameters(), self.log_std]

    def to_dict(self) -> dict:
        d = self.mean_net.to_dict()
        d["log_std"] = self.log_std.tolist()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "GaussianPolicy":
        net = DenseNet.from_dict(d)
        try:
            log_std = np.array(d["log_std"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise TaskConfigError(f"checkpoint holds a non-numeric log_std: {exc}") from None
        if log_std.shape != (net.out_dim,):
            raise TaskConfigError("checkpoint log_std length does not match its output width")
        if not np.isfinite(log_std).all():
            raise TaskConfigError("checkpoint holds a non-finite log_std")
        return cls(net, log_std)


def pack_parameters(net: GaussianPolicy | DenseNet) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Copy `net.parameters()` into one float64 buffer and rebind the net's
    weights, biases and (for a policy) `log_std` to reshaped views of it.
    Returns (params, grads, grad_views): the buffer, a zeroed gradient
    buffer of its size, and views of that shaped like the parameters."""
    arrays = net.parameters()
    params = np.concatenate([a.ravel() for a in arrays])
    grads = np.zeros_like(params)
    ends = np.cumsum([a.size for a in arrays]).tolist()
    spans = [(e - a.size, e, a.shape) for a, e in zip(arrays, ends)]
    p, g = ([buf[lo:hi].reshape(shape) for lo, hi, shape in spans] for buf in (params, grads))
    dense = getattr(net, "mean_net", net)
    k = 2 * len(dense.weights)
    dense.weights[:], dense.biases[:] = p[0:k:2], p[1:k:2]
    if dense is not net:
        net.log_std = p[k]
    return params, grads, g


@dataclass
class AdamState:
    """Adam moments and two scratch arrays for one flat parameter buffer."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    scratch: tuple[np.ndarray, np.ndarray]
    lr: float = 1e-4
    step_count: int = 0

    @classmethod
    def for_params(cls, params: np.ndarray, lr: float = 1e-4) -> "AdamState":
        m, v, s, u = (np.zeros_like(params) for _ in range(4))
        return cls(m, v, (s, u), lr=lr)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update of the flat buffer `params`, in place."""
    if params.shape != grads.shape or params.shape != state.first_moment.shape:
        raise DimensionError("params/grads/state shape mismatch")
    if not np.isfinite(grads).all():
        raise DivergenceError("non-finite gradient")
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    m, v, (s, u) = state.first_moment, state.second_moment, state.scratch
    # m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g;
    # p -= (lr*(m/c1)) / (sqrt(v/c2) + eps), in that order, in place
    m *= ADAM_BETA1
    m += np.multiply(grads, 1.0 - ADAM_BETA1, out=s)
    v *= ADAM_BETA2
    v += np.multiply(np.multiply(grads, 1.0 - ADAM_BETA2, out=s), grads, out=s)
    denom = np.add(np.sqrt(np.divide(v, c2, out=s), out=s), ADAM_EPS, out=s)
    params -= np.divide(np.multiply(np.divide(m, c1, out=u), state.lr, out=u), denom, out=u)
