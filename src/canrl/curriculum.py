"""Reset-randomization curriculum.

Training starts with resets squeezed tightly around a nominal
configuration and widens them geometrically: whenever the running
average of recent per-iteration episode rewards clears a threshold, the
random level is multiplied by a growth factor and the reward queue is
cleared.  The "rcl" mode additionally centers early resets on the target
instead of the nominal start, so the very first episodes already see
reward.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class CurriculumConfig:
    mode: str = "cl"  # "cl" | "rcl"
    initial_level: float = 0.01
    growth: float = 1.2
    threshold: float = 0.8
    queue_capacity: int = 10
    min_entries: int = 3
    terminal_level: float = 1.0

    def __post_init__(self):
        if self.mode not in ("cl", "rcl"):
            raise ValueError(f"unknown curriculum mode {self.mode!r}")
        if self.growth <= 1.0:
            raise ValueError("growth must exceed 1")
        if not 0.0 < self.initial_level <= self.terminal_level:
            raise ValueError("need 0 < initial_level <= terminal_level")
        if self.min_entries > self.queue_capacity:  # the level could never rise
            raise ValueError(
                f"min_entries {self.min_entries} exceeds queue_capacity {self.queue_capacity}"
            )


@dataclass
class CurriculumState:
    config: CurriculumConfig
    random_level: float
    long_term_rewards: deque = field(default_factory=deque)

    @classmethod
    def from_config(cls, config: CurriculumConfig) -> "CurriculumState":
        return cls(
            config,
            config.initial_level,
            deque(maxlen=config.queue_capacity),
        )

    @property
    def terminal(self) -> bool:
        return self.random_level >= self.config.terminal_level


def curriculum_update(
    state: CurriculumState, batch_mean_reward: float
) -> tuple[CurriculumState, bool, bool]:
    """Push one iteration's mean episode reward; maybe raise the level.

    Returns (new state, level_increased, terminal).
    """
    if not np.isfinite(batch_mean_reward):
        raise ValueError(f"non-finite batch reward {batch_mean_reward!r}")
    cfg = state.config
    queue = deque(state.long_term_rewards, maxlen=cfg.queue_capacity)
    queue.append(float(batch_mean_reward))
    level = state.random_level
    increased = False
    if len(queue) >= cfg.min_entries and sum(queue) / len(queue) > cfg.threshold:
        level = level * cfg.growth
        queue = deque(maxlen=cfg.queue_capacity)
        increased = True
    new_state = CurriculumState(cfg, level, queue)
    return new_state, increased, new_state.terminal


def effective_reset_level(state: CurriculumState) -> float:
    """Levels are capped at 1 when handed to the reset sampler; the raw
    level may overshoot on the final increase."""
    return min(state.random_level, 1.0)
