"""PPO with generalized advantage estimation, on top of the hand-rolled
nets.  One trainer core drives three fronts: the base reaching policy,
one attribute module at a time on top of a frozen stack, and flat
from-scratch baselines over the concatenated view.

Episodes draw their randomness from a stream keyed by (seed, stream id,
episode index), so each episode can be replayed on its own.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .attributes import Task, full_view, full_view_dim, run_episodes
from .cascade import (
    AttributeModule,
    BaseModule,
    CascadePolicy,
    cascade_act,
    compensation_penalty,
    make_cascade,
    weight_schedule,
)
from .curriculum import (
    CurriculumConfig,
    CurriculumState,
    curriculum_update,
    effective_reset_level,
)
from .errors import DimensionError, DivergenceError
from .nets import (
    LOG_2PI,
    SIGMA_MAX,
    SIGMA_MIN,
    AdamState,
    DenseNet,
    GaussianPolicy,
    adam_step,
    pack_parameters,
)

TRAIN_STREAM = 1
EVAL_STREAM = 2
SHUFFLE_STREAM = 3
INIT_STREAM = 4

HIDDEN = (64, 64)


def episode_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream, index]))


@dataclass(frozen=True)
class PPOConfig:
    clip_epsilon: float = 0.2
    discount: float = 0.99
    gae_lambda: float = 0.95
    lr: float = 1e-4
    epochs_per_iteration: int = 20
    minibatch_size: int = 256
    rollout_steps: int = 2048
    entropy_coeff: float = 0.01
    value_coeff: float = 0.5
    kl_limit: float = 0.05
    max_episodes: int = 10_000
    init_std: float = 0.5
    weight_ramp_fraction: float = 0.3


@dataclass
class Transition:
    policy_input: np.ndarray
    action: np.ndarray  # the trainable head's sample
    log_prob: float
    critic_input: np.ndarray
    reward: float = 0.0
    done: bool = False


@dataclass
class Rollout:
    policy_inputs: np.ndarray
    actions: np.ndarray
    log_probs: np.ndarray
    critic_inputs: np.ndarray
    rewards: np.ndarray
    dones: np.ndarray
    episode_rewards: list[float]
    episode_lengths: list[int]

    @property
    def n_steps(self) -> int:
        return len(self.rewards)

    @property
    def n_episodes(self) -> int:
        return len(self.episode_rewards)


class FlatActor:
    """A single Gaussian policy over one batched view function,
    `view_fn(worlds) -> (E, state_dim)`."""

    def __init__(self, policy: GaussianPolicy, value_net: DenseNet, view_fn: Callable):
        self.policy = policy
        self.value_net = value_net
        self.view_fn = view_fn

    def act(self, worlds, rngs) -> tuple[np.ndarray, list[Transition]]:
        views = self.view_fn(worlds)
        actions, log_probs = self.policy.sample(views, rngs)
        # a banked transition holds a row of the tick's own view block, all
        # of whose rows are banked, and a copy of its action row
        return actions, [
            Transition(v, a.copy(), float(lp), v) for v, a, lp in zip(views, actions, log_probs)
        ]


class CascadeTailActor:
    """Full cascade forward; the trainable head is the last module.

    The frozen parts of the stack run at their mean actions so the tail
    explores a stationary environment; only its own Gaussian samples.
    """

    def __init__(self, cascade: CascadePolicy):
        if not cascade.modules:
            raise ValueError("cascade has no module to train")
        self.cascade = cascade
        self.module = cascade.modules[-1]
        self.policy = self.module.comp_policy
        self.value_net = self.module.value_net

    def act(self, worlds, rngs) -> tuple[np.ndarray, list[Transition]]:
        tail = len(self.cascade.modules)
        actions, rec = cascade_act(self.cascade, worlds, rngs, explore=tail)
        critic_in = np.concatenate([rec.base_view, rec.views[-1]], axis=1)
        # copies: banking views of the tick blocks raised the arm run's peak RSS
        return actions, [
            Transition(x.copy(), a.copy(), float(lp), c.copy())
            for x, a, lp, c in zip(
                rec.comp_inputs[-1], rec.comp_actions[-1], rec.log_prob, critic_in
            )
        ]


def collect_rollouts(
    actor: FlatActor | CascadeTailActor,
    task: Task,
    level: float,
    n_steps: int,
    seed: int,
    episode_offset: int = 0,
    mode: str = "cl",
    penalty_coeff: float = 0.0,
    max_new_episodes: int | None = None,
) -> Rollout:
    """Whole episodes in index order until at least n_steps transitions
    are banked, exactly as if they ran one after another.

    `actor.act(worlds, rngs)` returns the env actions and the Transitions
    of its trainable head.  Episodes run in lockstep, and episode k is
    admitted only once the serial batch is sure to contain it: no episode
    outlasts the horizon, so the steps of the finished episodes plus a
    full horizon for each live one bound the steps before k.  Admission
    waits while that bound reaches n_steps, so no episode is stepped and
    then thrown away, and the batch does not depend on how many run at
    once."""
    longest = task.cfg.horizon  # step_task ends every episode by then
    count = itertools.count() if max_new_episodes is None else range(max_new_episodes)
    rngs = (episode_rng(seed, TRAIN_STREAM, episode_offset + j) for j in count)
    finished_steps = 0
    episodes: list[list[Transition]] = []
    episode_rewards: list[float] = []

    def admit(n_live: int) -> bool:
        return finished_steps + n_live * longest < n_steps

    for step in run_episodes(task, actor.act, level, rngs, mode, admit):
        k = step.episode
        if k == len(episodes):
            episodes.append([])
            episode_rewards.append(0.0)
        tr = step.records[step.row]
        r = float(sum(step.rewards))
        if penalty_coeff > 0.0:
            r += compensation_penalty(tr.action, penalty_coeff)
        tr.reward = r
        tr.done = step.done
        episodes[k].append(tr)
        episode_rewards[k] += r
        if step.done:
            finished_steps += len(episodes[k])
    trs = [tr for ep in episodes for tr in ep]

    return Rollout(
        policy_inputs=np.stack([t.policy_input for t in trs]),
        actions=np.stack([t.action for t in trs]),
        log_probs=np.array([t.log_prob for t in trs]),
        critic_inputs=np.stack([t.critic_input for t in trs]),
        rewards=np.array([t.reward for t in trs]),
        dones=np.array([float(t.done) for t in trs]),
        episode_rewards=episode_rewards,
        episode_lengths=[len(ep) for ep in episodes],
    )


def compute_gae(
    rewards: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    discount: float,
    lam: float,
    last_value: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Reverse-scan advantages and returns.  `dones` cuts the recursion;
    `last_value` bootstraps a trailing unfinished episode."""
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    dones = np.asarray(dones, dtype=np.float64)
    if not (rewards.shape == values.shape == dones.shape):
        raise DimensionError("rewards/values/dones must share a shape")
    # the same recurrence on Python floats, which round as numpy does
    r, v, d = rewards.tolist(), [*values.tolist(), last_value], dones.tolist()
    adv = [0.0] * len(r)
    acc = 0.0
    for t in range(len(r) - 1, -1, -1):
        cont = 1.0 - d[t]
        delta = r[t] + discount * v[t + 1] * cont - v[t]
        acc = delta + discount * lam * cont * acc
        adv[t] = acc
    adv = np.array(adv)
    return adv, adv + values


def normalize_advantages(adv: np.ndarray) -> np.ndarray:
    return (adv - adv.mean()) / (adv.std() + 1e-8)


def ppo_loss(
    batch: dict, policy: GaussianPolicy, cfg: PPOConfig, grads: list[np.ndarray]
) -> tuple[float, list[np.ndarray], dict]:
    """The policy half of one minibatch's loss, clipped surrogate and entropy
    bonus, unchecked, with its gradients written into `grads` (arrays shaped
    like policy.parameters()): (loss, grads, stats)."""
    x, u, lp_old, adv = batch["policy_inputs"], batch["actions"], batch["log_probs"], batch["advantages"]
    n = x.shape[0]
    k = len(grads) - 1
    d_log_std = grads[k]

    mean, acts = policy.mean_net.forward_cached(x)
    sigma = policy.std()
    z = (u - mean) / sigma
    zz = z * z
    # gaussian_log_prob(mean, sigma, u), in its order, on the z in hand
    lp_new = -0.5 * np.sum(zz, axis=-1) - np.sum(np.log(sigma)) - 0.5 * mean.shape[-1] * LOG_2PI
    ratio = np.exp(lp_new - lp_old)
    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - cfg.clip_epsilon, 1.0 + cfg.clip_epsilon) * adv
    surrogate = np.minimum(unclipped, clipped)
    policy_loss = -float(np.mean(surrogate))

    # gradient flows through the unclipped branch wherever it is the min
    active = (unclipped <= clipped).astype(np.float64)
    d_lp = -(adv * ratio * active) / n
    policy.mean_net.backward_cached(acts, d_lp[:, None] * (z / sigma), grads[:k])

    # sigma clamp stops the log-std gradient outside (SIGMA_MIN, SIGMA_MAX)
    raw_sigma = np.exp(policy.log_std)
    clamp_open = ((raw_sigma > SIGMA_MIN) & (raw_sigma < SIGMA_MAX)).astype(np.float64)
    np.sum(d_lp[:, None] * (zz - 1.0), axis=0, out=d_log_std)

    entropy = policy.entropy()
    d_log_std -= cfg.entropy_coeff
    d_log_std *= clamp_open

    stats = {
        "policy_loss": policy_loss,
        "entropy": entropy,
        "kl": float(np.mean(lp_old - lp_new)),
        "clip_fraction": float(np.mean(np.abs(ratio - 1.0) > cfg.clip_epsilon)),
    }
    return policy_loss - cfg.entropy_coeff * entropy, grads, stats


def value_loss(
    batch: dict, value_net: DenseNet, cfg: PPOConfig, grads: list[np.ndarray]
) -> tuple[float, list[np.ndarray]]:
    """The critic half: the value MSE, unchecked, with the gradients of
    value_coeff * MSE written into `grads` (shaped like value_net.parameters())."""
    v, v_acts = value_net.forward_cached(batch["critic_inputs"])
    diff = v[:, 0] - batch["returns"]
    value_mse = float(np.mean(diff * diff))
    d_v = (2.0 * cfg.value_coeff / len(diff)) * diff
    value_net.backward_cached(v_acts, d_v[:, None], grads)
    return value_mse, grads


def _learner_half(net, loss_fn: Callable, cfg: PPOConfig) -> Callable:
    """Pack `net`, with Adam moments of its own.  `epoch(order, columns)` runs
    `loss_fn` and an Adam step on each minibatch of `columns` in `order` until
    a loss or gradient is non-finite: (the results, whether it stopped)."""
    params, grad_buffer, grads = pack_parameters(net)
    adam = AdamState.for_params(params, lr=cfg.lr)

    def epoch(order: np.ndarray, columns: dict) -> tuple[list, bool]:
        results = []
        for lo in range(0, len(order), cfg.minibatch_size):
            idx = order[lo : lo + cfg.minibatch_size]
            results.append(loss_fn({key: col[idx] for key, col in columns.items()}, net, cfg, grads))
            if not (math.isfinite(results[-1][0]) and np.isfinite(grad_buffer).all()):
                return results, True
            adam_step(params, grad_buffer, adam)
        return results, False

    return epoch


def _critic_worker(conn, parent_end, value_net: DenseNet, cfg: PPOConfig) -> None:
    """The critic half of `_train_loop`, in a forked process that owns the critic's
    parameters and Adam moments.  Per iteration: critic inputs in, values out, returns
    in, then per epoch a permutation in, its value losses and stop flag out, up to a
    None; a last None asks for the parameters.  Errors go to the parent, which reaps it."""
    parent_end.close()
    try:
        _one_blas_thread()
        epoch = _learner_half(value_net, value_loss, cfg)
        while (xv := conn.recv()) is not None:
            conn.send(value_net.forward(xv)[:, 0])
            columns = {"critic_inputs": xv, "returns": conn.recv()}
            while (order := conn.recv()) is not None:
                results, stopped = epoch(order, columns)
                conn.send(([mse for mse, _ in results], stopped))
        conn.send(value_net.parameters())
    except BaseException as exc:  # noqa: BLE001 - raised again in the parent
        with contextlib.suppress(OSError):
            conn.send(exc)


def _openblas_threads() -> tuple[Callable, Callable] | None:
    """The get and set thread-count functions of the OpenBLAS this process has
    loaded, found through /proc/self/maps, or None."""
    with contextlib.suppress(OSError), open("/proc/self/maps") as fh:
        for lib in sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line}):
            dll = ctypes.CDLL(lib)
            for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                         "openblas_{}_num_threads"):
                get, put = getattr(dll, name.format("get"), None), getattr(dll, name.format("set"), None)
                if get is not None and put is not None:
                    get.restype, put.argtypes = ctypes.c_int, [ctypes.c_int]
                    return get, put
    return None


def _one_blas_thread() -> Callable[[], None]:
    """Put OpenBLAS on one thread in this process; returns what restores its count.
    The learner's two processes fill two cores, and more BLAS threads, which spin
    while they wait, would oversubscribe them (3x slower on two cores)."""
    get, put = _openblas_threads() or (lambda: None, lambda n: None)
    before = get()
    put(1)
    return lambda: put(before)


def _recv(conn):
    """The worker's next answer; raises the error it sent, or EOFError if it exited."""
    if isinstance(msg := conn.recv(), BaseException):
        raise msg
    return msg


# ---------------------------------------------------------------------------
# training

@dataclass
class IterationLog:
    iteration: int
    episodes: int
    random_level: float
    mean_ep_reward: float
    policy_loss: float
    value_loss: float
    entropy: float
    kl: float


@dataclass
class TrainResult:
    log: list[IterationLog]
    curriculum: CurriculumState
    iterations_to_terminal: int | None
    episodes_used: int
    base: BaseModule | None = None
    module: AttributeModule | None = None
    policy: GaussianPolicy | None = None


def _train_loop(
    actor: FlatActor | CascadeTailActor,
    task: Task,
    ppo_cfg: PPOConfig,
    cur_cfg: CurriculumConfig,
    seed: int,
    max_iterations: int,
    penalty_coeff: float = 0.0,
    on_iteration: Callable[[int], None] | None = None,
    progress: Callable[[IterationLog], None] | None = None,
    stop_at_terminal: bool = True,
) -> tuple[list[IterationLog], CurriculumState, int | None, int]:
    # free a 1 MiB block, as the rollout-wide value pass now in the worker did: glibc's malloc then
    # keeps the 128 KiB minibatch temporaries on its heap instead of paging them in anew each time
    np.empty(1 << 17)
    epoch = _learner_half(actor.policy, ppo_loss, ppo_cfg)
    cur = CurriculumState.from_config(cur_cfg)
    shuffle_rng = episode_rng(seed, SHUFFLE_STREAM, 0)
    log: list[IterationLog] = []
    episodes_used = 0
    iters_to_terminal: int | None = None

    import multiprocessing  # here, so that importing the package does not pay for it
    critic, child_end = multiprocessing.Pipe()
    worker = multiprocessing.get_context("fork").Process(
        target=_critic_worker, args=(child_end, critic, actor.value_net, ppo_cfg), daemon=True)
    worker.start()
    child_end.close()  # so a dead worker reads as an EOF here, not a hang
    restore_blas_threads = _one_blas_thread()
    try:
        for it in range(max_iterations):
            if on_iteration is not None:
                on_iteration(it)
            level = effective_reset_level(cur)
            roll = collect_rollouts(
                actor,
                task,
                level,
                ppo_cfg.rollout_steps,
                seed,
                episode_offset=episodes_used,
                mode=cur_cfg.mode,
                penalty_coeff=penalty_coeff,
                max_new_episodes=ppo_cfg.max_episodes - episodes_used,
            )
            episodes_used += roll.n_episodes
            critic.send(roll.critic_inputs)
            adv, ret = compute_gae(
                roll.rewards, _recv(critic), roll.dones, ppo_cfg.discount, ppo_cfg.gae_lambda
            )
            critic.send(ret)
            columns = dict(policy_inputs=roll.policy_inputs, actions=roll.actions,
                           log_probs=roll.log_probs, advantages=normalize_advantages(adv))

            stats_acc: list[dict] = []
            for _epoch_index in range(ppo_cfg.epochs_per_iteration):
                order = shuffle_rng.permutation(roll.n_steps)
                critic.send(order)
                results, stopped = epoch(order, columns)
                stats = [r[2] for r in results]
                value_losses, critic_stopped = _recv(critic)
                # the first failing minibatch in serial order names the failure; either half may be past it
                for s, mse in zip(stats, value_losses):
                    s["value_loss"] = mse
                    loss = s["policy_loss"] + ppo_cfg.value_coeff * mse - ppo_cfg.entropy_coeff * s["entropy"]
                    if not math.isfinite(loss):
                        raise DivergenceError(f"non-finite loss {loss!r}")
                if stopped or critic_stopped:
                    raise DivergenceError("non-finite gradient")
                stats_acc += stats
                if float(np.mean([s["kl"] for s in stats])) > ppo_cfg.kl_limit:
                    break
            critic.send(None)

            mean_ep = float(np.mean(roll.episode_rewards))
            row = IterationLog(
                iteration=it,
                episodes=roll.n_episodes,
                random_level=cur.random_level,
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
        critic.send(None)
        for p, final in zip(actor.value_net.parameters(), _recv(critic)):
            p[...] = final
    finally:
        critic.close()
        worker.terminate()
        worker.join()
        restore_blas_threads()
    return log, cur, iters_to_terminal, episodes_used


def train_base(
    task: Task,
    ppo_cfg: PPOConfig,
    cur_cfg: CurriculumConfig,
    seed: int,
    max_iterations: int,
    progress: Callable[[IterationLog], None] | None = None,
    stop_at_terminal: bool = True,
) -> TrainResult:
    """Train the reaching policy on a bare task; returns a frozen base."""
    if task.addons:
        raise ValueError("base training expects a task with no add-ons")
    rng = episode_rng(seed, INIT_STREAM, 0)
    policy = GaussianPolicy.create(
        task.base.state_dim, task.action_dim, rng, HIDDEN, ppo_cfg.init_std
    )
    value = DenseNet.create([task.base.state_dim, *HIDDEN, 1], rng)
    actor = FlatActor(policy, value, task.base.extract)
    log, cur, itt, eps = _train_loop(
        actor, task, ppo_cfg, cur_cfg, seed, max_iterations,
        progress=progress, stop_at_terminal=stop_at_terminal,
    )
    base = BaseModule(task.robot, policy, value, frozen=True)
    return TrainResult(log, cur, itt, eps, base=base, policy=policy)


def train_attribute(
    base: BaseModule,
    task: Task,
    ppo_cfg: PPOConfig,
    cur_cfg: CurriculumConfig,
    seed: int,
    max_iterations: int,
    progress: Callable[[IterationLog], None] | None = None,
    stop_at_terminal: bool = True,
) -> TrainResult:
    """Train one compensation module on top of a frozen base.

    The module's weight ramps linearly over the first
    `weight_ramp_fraction` of the iteration budget; its action-magnitude
    penalty joins the reward stream.  The base is verified bitwise
    unchanged afterwards.
    """
    if not base.frozen:
        raise ValueError("attribute training needs a frozen base module")
    if len(task.addons) != 1:
        raise ValueError("attribute training expects exactly one add-on")
    spec = task.addons[0]
    rng = episode_rng(seed, INIT_STREAM, 1)
    adim = task.action_dim
    comp = GaussianPolicy.create(
        spec.state_dim + adim, adim, rng, HIDDEN, ppo_cfg.init_std
    )
    critic = DenseNet.create(
        [task.base.state_dim + spec.state_dim, *HIDDEN, 1], rng
    )
    module = AttributeModule(
        task.robot,
        spec.kind,
        comp,
        critic,
        entity_index=spec.entity_index,
    )
    cascade = make_cascade(base, [module], task.cfg)
    actor = CascadeTailActor(cascade)
    snapshot = [p.copy() for p in base.policy.parameters()]
    ramp = max(1, math.ceil(ppo_cfg.weight_ramp_fraction * max_iterations))

    def set_weight(it: int) -> None:
        module.weight = weight_schedule(it, ramp)

    log, cur, itt, eps = _train_loop(
        actor, task, ppo_cfg, cur_cfg, seed, max_iterations,
        penalty_coeff=module.penalty_coeff, on_iteration=set_weight, progress=progress,
        stop_at_terminal=stop_at_terminal,
    )
    for now, before in zip(base.policy.parameters(), snapshot):
        if now.tobytes() != before.tobytes():
            raise RuntimeError("frozen base changed during attribute training")
    return TrainResult(log, cur, itt, eps, module=module)


def train_flat(
    task: Task,
    ppo_cfg: PPOConfig,
    cur_cfg: CurriculumConfig,
    seed: int,
    max_iterations: int,
    progress: Callable[[IterationLog], None] | None = None,
    stop_at_terminal: bool = True,
) -> TrainResult:
    """From-scratch baseline: one policy over the concatenated views."""
    rng = episode_rng(seed, INIT_STREAM, 2)
    dim = full_view_dim(task)
    policy = GaussianPolicy.create(dim, task.action_dim, rng, HIDDEN, ppo_cfg.init_std)
    value = DenseNet.create([dim, *HIDDEN, 1], rng)
    actor = FlatActor(policy, value, lambda worlds: full_view(task, worlds))
    log, cur, itt, eps = _train_loop(
        actor, task, ppo_cfg, cur_cfg, seed, max_iterations,
        progress=progress, stop_at_terminal=stop_at_terminal,
    )
    return TrainResult(log, cur, itt, eps, policy=policy)
