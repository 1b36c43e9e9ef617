"""Cascade composition: stacking, weighting, transparency, checkpoints."""

import json

import numpy as np
import pytest

from canrl.cascade import (
    AttributeModule,
    BaseModule,
    CascadePolicy,
    attribute_module_from_dict,
    attribute_module_to_dict,
    base_module_from_dict,
    base_module_to_dict,
    cascade_act,
    check_widths,
    combine,
    compensation_penalty,
    make_cascade,
    weight_schedule,
)
from canrl.attributes import Nominal, build_task, reset
from canrl.dynamics import SimConfig, action_limits
from canrl.errors import TaskConfigError
from canrl.nets import DenseNet, GaussianPolicy, gaussian_log_prob
from canrl.taskio import load_stock_task


def fresh_base(seed=0, robot="point"):
    rng = np.random.default_rng(seed)
    state_dim = 6 if robot == "point" else 12
    adim = 2 if robot == "point" else 5
    return BaseModule(
        robot,
        GaussianPolicy.create(state_dim, adim, rng),
        DenseNet.create([state_dim, 64, 64, 1], rng),
    )


def fresh_module(seed=1, kind="obstacle", robot="point", entity_index=0, weight=0.1):
    rng = np.random.default_rng(seed)
    view = {"obstacle": 9, "door": 9, "speed": 5, "force": 6}[kind]
    adim = 2
    return AttributeModule(
        robot,
        kind,
        GaussianPolicy.create(view + adim, adim, rng),
        DenseNet.create([6 + view, 64, 64, 1], rng),
        weight=weight,
        entity_index=entity_index,
    )


def obstacle_worlds(level=0.3, seeds=(0, 1, 2)):
    loaded = load_stock_task("point_obstacle")
    return loaded.task, [reset(loaded.task, level, np.random.default_rng(s)) for s in seeds]


def rngs(seed, n=3):
    return [np.random.default_rng([seed, i]) for i in range(n)]


class TestActs:
    def test_empty_cascade_equals_base(self):
        base = fresh_base()
        task, worlds = obstacle_worlds()
        cascade = make_cascade(base, [], task)
        a, rec = cascade_act(cascade, worlds)
        views = task.base.extract(worlds)
        assert np.array_equal(a, base.policy.mean(views))
        assert rec.log_prob is None
        assert not rec.stack_actions
        assert np.array_equal(rec.base_action, a)
        # exploring the base samples exactly as the bare policy does
        a, rec = cascade_act(cascade, worlds, rngs(2), explore=0)
        a0, lp0 = base.policy.sample(views, rngs(2))
        assert np.array_equal(a, a0)
        assert np.array_equal(rec.log_prob, lp0)

    def test_zero_weight_module_is_transparent(self):
        base = fresh_base()
        module = fresh_module(weight=0.0)
        task, worlds = obstacle_worlds()
        cascade = make_cascade(base, [module], task)
        a, rec = cascade_act(cascade, worlds)
        assert np.array_equal(a, rec.base_action)

    def test_module_shifts_action(self):
        base = fresh_base()
        module = fresh_module(weight=1.0)
        # pin the comp net's output to a constant
        module.comp_policy.mean_net.weights[-1][:] = 0.0
        module.comp_policy.mean_net.biases[-1][:] = 0.3
        task, worlds = obstacle_worlds()
        cascade = make_cascade(base, [module], task)
        a, rec = cascade_act(cascade, worlds)
        assert not np.array_equal(a, rec.base_action)
        assert np.allclose(a, rec.base_action + 0.3, atol=1e-12)

    def test_comp_input_is_view_then_action(self):
        # linear comp net that copies the incoming action slots
        view_dim, adim = 9, 2
        w = np.zeros((view_dim + adim, adim))
        w[view_dim, 0] = 1.0
        w[view_dim + 1, 1] = 1.0
        comp = GaussianPolicy(
            DenseNet([view_dim + adim, adim], [w], [np.zeros(adim)]), np.zeros(adim)
        )
        module = AttributeModule(
            "point", "obstacle", comp,
            DenseNet.create([15, 8, 1], np.random.default_rng(0)), weight=0.5,
        )
        base = fresh_base()
        task, worlds = obstacle_worlds()
        cascade = make_cascade(base, [module], task)
        a, rec = cascade_act(cascade, worlds)
        assert np.allclose(a, 1.5 * rec.base_action, atol=1e-12)

    def test_two_modules_stack_in_order(self):
        base = fresh_base()
        m1 = fresh_module(seed=1, weight=1.0)
        m2 = fresh_module(seed=2, weight=1.0, entity_index=1)
        m1.comp_policy.mean_net.biases[-1][:] = 0.2
        m2.comp_policy.mean_net.biases[-1][:] = -0.1
        loaded = load_stock_task("point_two_obstacles")
        cascade = make_cascade(base, [m1, m2], loaded.task)
        worlds = [reset(loaded.task, 0.3, np.random.default_rng(s)) for s in (3, 4)]
        a, rec = cascade_act(cascade, worlds)
        assert len(rec.stack_actions) == 2
        assert np.array_equal(a, rec.stack_actions[-1])
        # second module saw the first module's output
        assert np.allclose(rec.comp_inputs[1][:, -2:], rec.stack_actions[0], atol=1e-15)

    def test_stochastic_needs_rng(self):
        task, worlds = obstacle_worlds()
        cascade = make_cascade(fresh_base(), [fresh_module()], task)
        for head in (0, 1):
            with pytest.raises(ValueError):
                cascade_act(cascade, worlds, rngs=None, explore=head)

    def test_stochastic_reproducible(self):
        base = fresh_base()
        task, worlds = obstacle_worlds()
        cascade = make_cascade(base, [fresh_module()], task)
        mean, _ = cascade_act(cascade, worlds)
        for head in (0, 1):
            a1, r1 = cascade_act(cascade, worlds, rngs(5), explore=head)
            a2, r2 = cascade_act(cascade, worlds, rngs(5), explore=head)
            assert np.array_equal(a1, a2)
            assert np.array_equal(r1.log_prob, r2.log_prob)
            assert not np.any(np.all(a1 == mean, axis=1))

    def test_explored_tail_log_prob_matches_policy(self):
        module = fresh_module(weight=1.0)
        task, worlds = obstacle_worlds()
        cascade = make_cascade(fresh_base(), [module], task)
        _, rec = cascade_act(cascade, worlds, rngs(4), explore=1)
        pol = module.comp_policy
        want = gaussian_log_prob(
            pol.mean(rec.comp_inputs[0]), pol.std(), rec.comp_actions[0]
        )
        assert np.array_equal(rec.log_prob, want)

    def test_rows_match_single_world_calls(self):
        # each world's record is a row of the batch, bit for bit what the
        # stack gives that world alone, with its own rng
        loaded = load_stock_task("point_two_obstacles")
        worlds = [reset(loaded.task, 1.0, np.random.default_rng(s)) for s in range(5)]
        cascade = make_cascade(
            fresh_base(), [fresh_module(seed=1), fresh_module(seed=2, entity_index=1)], loaded.task
        )
        for explore in (None, 0, 2):
            batch = rngs(6, 5) if explore is not None else None
            a, rec = cascade_act(cascade, worlds, batch, explore=explore)
            for i, w in enumerate(worlds):
                one = rngs(6, 5)[i : i + 1] if explore is not None else None
                a1, rec1 = cascade_act(cascade, [w], one, explore=explore)
                assert a[i].tobytes() == a1[0].tobytes()
                if explore is None:
                    assert rec.log_prob is None and rec1.log_prob is None
                else:
                    assert rec.log_prob[i] == rec1.log_prob[0]
                for x, y in zip(
                    [rec.base_view, rec.base_action, *rec.views, *rec.comp_inputs,
                     *rec.comp_actions, *rec.stack_actions],
                    [rec1.base_view, rec1.base_action, *rec1.views, *rec1.comp_inputs,
                     *rec1.comp_actions, *rec1.stack_actions],
                ):
                    assert x[i].tobytes() == y[0].tobytes()

    def test_robot_columns_gathered_once_per_tick(self, monkeypatch):
        # the base view and both obstacle views share one gather, and the
        # views equal those each builds alone
        import canrl.cascade as cascade_mod

        loaded = load_stock_task("point_two_obstacles")
        worlds = [reset(loaded.task, 1.0, np.random.default_rng(s)) for s in range(4)]
        cascade = make_cascade(
            fresh_base(), [fresh_module(seed=1), fresh_module(seed=2, entity_index=1)], loaded.task
        )
        calls = []
        gather = cascade_mod.robot_columns
        monkeypatch.setattr(
            cascade_mod, "robot_columns", lambda *a: calls.append(1) or gather(*a)
        )
        _, rec = cascade_act(cascade, worlds)
        assert len(calls) == 1
        assert rec.base_view.tobytes() == loaded.task.base.extract(worlds).tobytes()
        for view, spec in zip(rec.views, cascade.module_specs):
            assert view.tobytes() == spec.extract(worlds).tobytes()


class TestLimits:
    @pytest.mark.parametrize("robot", ["point", "arm"])
    def test_cached_limits_are_read_only(self, robot):
        # the task's table is the only one; its stacks clamp to it
        cfg = SimConfig(force_limit=2.0, torque_limit=0.5)
        task = build_task(robot, cfg, Nominal(np.zeros(2)), [])
        lim = task.limits
        assert lim is task.limits
        assert lim.tobytes() == action_limits(robot, cfg).tobytes()
        assert not lim.flags.writeable
        with pytest.raises(ValueError):
            lim[0] = 9.0
        assert lim.tobytes() == action_limits(robot, cfg).tobytes()


class TestCombine:
    def test_weighted_sum(self):
        out = combine(
            np.array([0.5, 0.0]), np.array([0.2, -0.4]), 0.5, np.ones(2)
        )
        assert np.allclose(out, [0.6, -0.2], atol=1e-15)

    def test_clamped_to_limits(self):
        out = combine(np.array([0.9, -0.9]), np.array([1.0, -1.0]), 1.0, np.ones(2))
        assert np.array_equal(out, [1.0, -1.0])


class TestWeightSchedule:
    def test_ramp_endpoints(self):
        assert weight_schedule(0, 100) == pytest.approx(0.1)
        assert weight_schedule(50, 100) == pytest.approx(0.55)
        assert weight_schedule(100, 100) == 1.0
        assert weight_schedule(500, 100) == 1.0

    def test_monotone(self):
        vals = [weight_schedule(i, 37) for i in range(120)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_zero_ramp_is_full_weight(self):
        assert weight_schedule(0, 0) == 1.0


class TestPenalty:
    def test_quadratic_in_compensation(self):
        assert compensation_penalty(np.array([0.3, 0.4]), 0.01) == pytest.approx(-0.0025)
        assert compensation_penalty(np.zeros(2), 0.01) == 0.0
        assert compensation_penalty(np.array([1.0, 0.0]), 0.02) == pytest.approx(-0.02)


class TestValidation:
    def test_robot_mismatch_rejected(self):
        base = fresh_base(robot="point")
        rng = np.random.default_rng(0)
        arm_module = AttributeModule(
            "arm", "obstacle",
            GaussianPolicy.create(20, 5, rng), DenseNet.create([27, 8, 1], rng),
        )
        with pytest.raises(TaskConfigError):
            make_cascade(base, [arm_module], load_stock_task("point_obstacle").task)

    def test_wrong_module_width_rejected(self):
        base = fresh_base()
        rng = np.random.default_rng(0)
        bad = AttributeModule(
            "point", "obstacle",
            GaussianPolicy.create(7, 2, rng), DenseNet.create([15, 8, 1], rng),
        )
        with pytest.raises(TaskConfigError):
            make_cascade(base, [bad], load_stock_task("point_obstacle").task)

    def test_wrong_base_width_rejected(self):
        rng = np.random.default_rng(0)
        bad = BaseModule(
            "point", GaussianPolicy.create(9, 2, rng), DenseNet.create([9, 8, 1], rng)
        )
        with pytest.raises(TaskConfigError):
            make_cascade(bad, [], load_stock_task("point_reach").task)

    def test_base_for_other_robot_rejected(self):
        with pytest.raises(TaskConfigError, match="base checkpoint drives 'arm', task uses 'point'"):
            make_cascade(fresh_base(robot="arm"), [], load_stock_task("point_reach").task)

    def test_widths_checked_without_a_task(self):
        # any kinds and bindings: only the robot and the widths are checked
        check_widths(fresh_base(), [fresh_module(kind="door", entity_index=3),
                                    fresh_module(kind="speed")])
        wide = fresh_module(kind="speed")
        wide.comp_policy = fresh_module(kind="door").comp_policy
        with pytest.raises(TaskConfigError, match="module 1 expects input 11, attribute view"):
            check_widths(fresh_base(), [fresh_module(), wide])


class TestTaskSpecs:
    """A stack acts on its task's own spec objects, never on copies."""

    def test_specs_are_the_tasks_own(self):
        task = load_stock_task("point_two_obstacles").task
        modules = [fresh_module(entity_index=e) for e in (1, 0, 1)]
        cascade = make_cascade(fresh_base(), modules, task)
        assert cascade.task is task
        for e, spec in zip((1, 0, 1), cascade.module_specs):
            (own,) = [s for s in task.addons if s.kind == "obstacle" and s.entity_index == e]
            assert spec is own

    @pytest.mark.parametrize("task, kind, binding, message", [
        ("point_obstacle", "obstacle", 1, "module 0 bound to obstacle 1, task defines 1"),
        ("point_door", "door", 3, "module 0 bound to door 3, task defines 1"),
        ("point_speed", "speed", 1, "module 0 bound to speed 1, task defines 1"),
        ("point_force", "force", 2, "module 0 bound to force 2, task defines 1"),
        ("point_door", "obstacle", 0, "module 0 compensates for 'obstacle', task has no such add-on"),
    ], ids=["obstacle", "door", "speed", "force", "absent_kind"])
    def test_binding_needs_that_many_addons_of_its_kind(self, task, kind, binding, message):
        module = fresh_module(kind=kind, entity_index=binding)
        with pytest.raises(TaskConfigError, match=message):
            make_cascade(fresh_base(), [module], load_stock_task(task).task)


class TestCheckpoints:
    def test_base_round_trip(self):
        base = fresh_base()
        blob = json.dumps(base_module_to_dict(base))
        back = base_module_from_dict(json.loads(blob))
        assert back.robot == "point"
        assert back.frozen
        for a, b in zip(base.policy.parameters(), back.policy.parameters()):
            assert a.tobytes() == b.tobytes()

    def test_module_round_trip_rebinds_entity(self):
        module = fresh_module(weight=0.73)
        blob = json.dumps(attribute_module_to_dict(module))
        back = attribute_module_from_dict(json.loads(blob), entity_index=1)
        assert back.kind == "obstacle"
        assert back.weight == 0.73
        assert back.entity_index == 1
        for a, b in zip(module.comp_policy.parameters(), back.comp_policy.parameters()):
            assert a.tobytes() == b.tobytes()

    def test_kind_tag_enforced(self):
        base = fresh_base()
        with pytest.raises(TaskConfigError):
            attribute_module_from_dict(base_module_to_dict(base))
        module = fresh_module()
        with pytest.raises(TaskConfigError):
            base_module_from_dict(attribute_module_to_dict(module))
