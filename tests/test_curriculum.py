"""Curriculum schedule: queue averaging, geometric growth, terminal."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canrl.curriculum import (
    CurriculumConfig,
    CurriculumState,
    curriculum_update,
    effective_reset_level,
)


def fresh(threshold=0.5, **kw):
    return CurriculumState.from_config(
        CurriculumConfig(threshold=threshold, **kw)
    )


class TestUpdate:
    def test_growth_is_exact_multiply_and_clears_queue(self):
        s = fresh()
        for r in (0.6, 0.7):
            s, inc, term = curriculum_update(s, r)
            assert not inc
        s, inc, term = curriculum_update(s, 0.8)
        assert inc and not term
        assert s.random_level == pytest.approx(0.012, abs=1e-15)
        assert len(s.long_term_rewards) == 0

    def test_no_growth_below_threshold(self):
        s = fresh()
        for _ in range(20):
            s, inc, _ = curriculum_update(s, 0.4)
            assert not inc
        assert s.random_level == 0.01

    def test_needs_minimum_queue_entries(self):
        s = fresh()
        s, inc, _ = curriculum_update(s, 0.9)
        assert not inc
        s, inc, _ = curriculum_update(s, 0.9)
        assert not inc
        s, inc, _ = curriculum_update(s, 0.9)
        assert inc

    def test_queue_is_bounded(self):
        s = fresh(threshold=0.5, queue_capacity=10)
        for _ in range(10):
            s, _, _ = curriculum_update(s, 0.0)
        assert s.random_level == 0.01
        # highs displace zeros; the window mean crosses 0.5 at the sixth.
        # an unbounded queue would still average 6/16 here and never fire.
        for _ in range(5):
            s, inc, _ = curriculum_update(s, 1.0)
            assert not inc
        s, inc, _ = curriculum_update(s, 1.0)
        assert inc

    def test_terminal_after_26_increases(self):
        s = fresh()
        increases = 0
        for _ in range(200):
            s, inc, term = curriculum_update(s, 1.0)
            if inc:
                increases += 1
            if term:
                break
        assert increases == 26
        assert s.random_level == pytest.approx(0.01 * 1.2**26, rel=1e-12)
        assert s.random_level >= 1.0
        assert s.terminal

    def test_nonfinite_reward_rejected(self):
        s = fresh()
        with pytest.raises(ValueError):
            curriculum_update(s, float("nan"))

    def test_update_does_not_mutate_input(self):
        s = fresh()
        before = (s.random_level, tuple(s.long_term_rewards))
        curriculum_update(s, 0.9)
        assert (s.random_level, tuple(s.long_term_rewards)) == before

    @given(st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=120))
    @settings(max_examples=60, deadline=None)
    def test_level_never_decreases(self, rewards):
        s = fresh()
        prev = s.random_level
        for r in rewards:
            s, _, _ = curriculum_update(s, r)
            assert s.random_level >= prev
            prev = s.random_level


class TestLevels:
    def test_effective_level_caps_at_one(self):
        s = fresh()
        s.random_level = 0.01 * 1.2**26
        assert s.random_level > 1.0
        assert effective_reset_level(s) == 1.0
        s.random_level = 0.4
        assert effective_reset_level(s) == 0.4


class TestConfig:
    def test_bad_growth_rejected(self):
        with pytest.raises(ValueError):
            CurriculumConfig(growth=0.9)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            CurriculumConfig(mode="nope")

    def test_bad_initial_level_rejected(self):
        with pytest.raises(ValueError):
            CurriculumConfig(initial_level=0.0)

    def test_min_entries_beyond_capacity_rejected(self):
        # the queue could never hold min_entries rewards, so the level could never rise
        with pytest.raises(ValueError, match="min_entries 3 exceeds queue_capacity 2"):
            CurriculumConfig(queue_capacity=2, min_entries=3)
        CurriculumConfig(queue_capacity=3, min_entries=3)
