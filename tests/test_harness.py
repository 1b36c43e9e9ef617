"""File formats, evaluation, assembly, and the CLI surface."""

import dataclasses
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from canrl import cli, harness
from canrl.attributes import obstacle_clearance, run_episodes
from canrl.cascade import (
    AttributeModule,
    BaseModule,
    attribute_module_to_dict,
    base_module_to_dict,
    make_cascade,
)
from canrl.harness import (
    CLEARANCE_FACTOR,
    EVAL_BLOCK,
    cascade_actor,
    compensation_profile,
    evaluate_policy,
    load_base,
    load_cascade,
    load_module,
    read_json,
    save_base,
    save_module,
    write_cascade_descriptor,
    write_csv,
    write_json,
)
from canrl.errors import TaskConfigError
from canrl.nets import DenseNet, GaussianPolicy
from canrl.ppo import EVAL_STREAM, episode_rng
from canrl.taskio import load_stock_task, point_sim_config


def servo(worlds, rngs):
    actions = np.array([
        np.clip(
            2.5 * (w.target_position - w.robot.position) - 1.2 * w.robot.velocity,
            -1.0,
            1.0,
        )
        for w in worlds
    ])
    return actions, [None] * len(worlds)


def pinned_base(out=(0.3, 0.0)):
    rng = np.random.default_rng(0)
    policy = GaussianPolicy.create(6, 2, rng)
    for w in policy.mean_net.weights:
        w[:] = 0.0
    for b in policy.mean_net.biases:
        b[:] = 0.0
    policy.mean_net.biases[-1][:] = out
    value = DenseNet.create([6, 8, 1], rng)
    return BaseModule("point", policy, value, frozen=True)


def pinned_module(out=(0.0, 0.0), kind="obstacle"):
    # obstacle view is robot state (4) + relative obstacle features (5)
    rng = np.random.default_rng(1)
    policy = GaussianPolicy.create(11, 2, rng)
    for w in policy.mean_net.weights:
        w[:] = 0.0
    for b in policy.mean_net.biases:
        b[:] = 0.0
    policy.mean_net.biases[-1][:] = out
    value = DenseNet.create([15, 8, 1], rng)
    return AttributeModule("point", kind, policy, value, weight=1.0)


class TestWriters:
    def test_json_floats_round_trip(self, tmp_path):
        payload = {"a": 0.1 + 0.2, "b": [1e-17, math_pi := 3.141592653589793]}
        p = write_json(tmp_path / "x.json", payload)
        back = read_json(p)
        assert back["a"] == 0.1 + 0.2
        assert back["b"] == [1e-17, math_pi]

    def test_csv_shape_and_line_endings(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", ("a", "b"), [(1, 0.5), (2, 1.0 / 3.0)])
        raw = p.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().strip().split("\n")
        assert lines[0] == "a,b"
        assert lines[2] == "2," + repr(1.0 / 3.0)

    def test_missing_json_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_json(tmp_path / "nope.json")

    def test_bad_json_is_config_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(TaskConfigError):
            read_json(p)


class TestCheckpoints:
    def test_base_round_trip(self, tmp_path):
        base = pinned_base()
        save_base(tmp_path / "b.json", base)
        back = load_base(tmp_path / "b.json")
        assert back.robot == "point"
        assert back.frozen
        for p, q in zip(back.policy.parameters(), base.policy.parameters()):
            assert p.tobytes() == q.tobytes()

    def test_module_round_trip_and_rebinding(self, tmp_path):
        mod = pinned_module(out=(0.2, -0.1))
        mod.weight = 0.7
        save_module(tmp_path / "m.json", mod)
        back = load_module(tmp_path / "m.json", entity_index=3)
        assert back.kind == "obstacle"
        assert back.weight == 0.7
        assert back.entity_index == 3
        for p, q in zip(back.comp_policy.parameters(), mod.comp_policy.parameters()):
            assert p.tobytes() == q.tobytes()

    def test_kind_tags_enforced(self, tmp_path):
        save_base(tmp_path / "b.json", pinned_base())
        with pytest.raises(TaskConfigError):
            load_module(tmp_path / "b.json")


class TestEvaluate:
    def test_servo_solves_reaching(self):
        loaded = load_stock_task("point_reach")
        report = evaluate_policy(servo, loaded.task, episodes=20, seed=0)
        assert report["success_rate"] == 1.0
        assert report["reached"] == 20
        assert report["violations"] == {}
        assert 0 < report["mean_episode_length"] < 200

    def test_reports_are_reproducible(self):
        loaded = load_stock_task("point_reach")
        a = evaluate_policy(servo, loaded.task, episodes=5, seed=3)
        b = evaluate_policy(servo, loaded.task, episodes=5, seed=3)
        assert a == b

    def test_violations_break_success(self):
        # a blind servo on the obstacle course reaches but hits things
        loaded = load_stock_task("point_obstacle")
        report = evaluate_policy(servo, loaded.task, episodes=40, seed=1)
        assert report["reached"] > 0
        assert sum(report["violations"].values()) > 0
        assert report["success_rate"] < report["reached"] / report["episodes"]

    def test_trajectory_records(self, tmp_path):
        loaded = load_stock_task("point_obstacle")
        path = tmp_path / "traj.jsonl"
        report = evaluate_policy(
            servo, loaded.task, episodes=2, seed=0, trajectory_path=path
        )
        lines = path.read_text().strip().split("\n")
        assert len(lines) == int(
            report["mean_episode_length"] * report["episodes"]
        )
        rec = json.loads(lines[0])
        assert set(rec) == {
            "episode", "t", "robot", "action", "rewards", "total_reward", "events",
        }
        assert len(rec["rewards"]) == 2  # reach + obstacle channels
        assert rec["total_reward"] == pytest.approx(sum(rec["rewards"]))
        assert set(rec["robot"]) == {"position", "velocity"}


def _robot_fields(world):
    r = world.robot
    if world.robot.robot_kind == "point":
        return {"position": r.position.tolist(), "velocity": r.velocity.tolist()}
    return {
        "base_x": float(r.base_x),
        "base_speed": float(r.base_speed),
        "joint_angles": r.joint_angles.tolist(),
        "joint_velocities": r.joint_velocities.tolist(),
    }


VIOLATION_PREFIXES = ("touched_obstacle", "touched_door", "speed_violation")


def serial_evaluate(act, task, episodes, seed):
    """Scalar twin of evaluate_policy: one episode at a time, each fed to
    run_episodes alone.  Returns the report and the trajectory text."""
    lines, totals, lengths = [], [], []
    reached = successes = 0
    violations = {}
    for k in range(episodes):
        total, got_there, clean, steps = 0.0, False, True, 0
        for step in run_episodes(task, act, 1.0, [episode_rng(seed, EVAL_STREAM, k)]):
            total += float(sum(step.rewards))
            steps += 1
            for ev in step.events:
                if ev == "reached_target":
                    got_there = True
                elif ev.startswith(VIOLATION_PREFIXES):
                    clean = False
                    violations[ev] = violations.get(ev, 0) + 1
            lines.append(json.dumps({
                "episode": k,
                "t": step.next_world.time,
                "robot": _robot_fields(step.next_world),
                "action": step.action.tolist(),
                "rewards": [float(r) for r in step.rewards],
                "total_reward": float(sum(step.rewards)),
                "events": list(step.events),
            }, sort_keys=True) + "\n")
        reached += got_there
        successes += got_there and clean
        totals.append(total)
        lengths.append(steps)
    report = {
        "episodes": episodes, "level": 1.0, "seed": seed,
        "success_rate": successes / episodes, "reached": reached,
        "mean_episode_reward": float(np.mean(totals)),
        "mean_episode_length": float(np.mean(lengths)),
        "violations": violations,
    }
    return report, "".join(lines)


def serial_profile(cascade, task, episodes, seed):
    """Scalar twin of compensation_profile, one episode at a time."""
    contact = task.cfg.robot_radius if task.robot == "point" else task.cfg.link_radius
    base_norms, comp_norms, total = [], [], 0
    for k in range(episodes):
        rngs = [episode_rng(seed, EVAL_STREAM, k)]
        for step in run_episodes(task, cascade_actor(cascade), 1.0, rngs):
            total += 1
            obstacles = step.world.obstacles
            if obstacles and all(
                obstacle_clearance(step.world, task.cfg, o)
                > CLEARANCE_FACTOR * (o.radius + contact)
                for o in obstacles
            ):
                rec, j = step.records, step.row
                base_norms.append(float(np.linalg.norm(rec.base_action[j])))
                comp_norms.append(float(np.linalg.norm(rec.comp_actions[-1][j])))
    mean_base, mean_comp = float(np.mean(base_norms)), float(np.mean(comp_norms))
    return {
        "episodes": episodes, "steps_total": total, "steps_far": len(base_norms),
        "mean_base_norm": mean_base, "mean_comp_norm": mean_comp,
        "comp_to_base_ratio": mean_comp / mean_base,
    }


def point_stack():
    """A linear servo base (episodes end at different ticks) under two
    bound copies of one loud obstacle module, on the two-obstacle task."""
    w = np.zeros((6, 2))
    w[2, 0] = w[3, 1] = -1.2  # velocity
    w[4, 0] = w[5, 1] = 2.5  # target offset
    policy = GaussianPolicy(DenseNet([6, 2], [w], [np.zeros(2)]), np.zeros(2))
    base = BaseModule("point", policy, DenseNet.create([6, 8, 1], np.random.default_rng(0)), True)
    comp = GaussianPolicy.create(11, 2, np.random.default_rng(1), output_gain=1.0)
    critic = DenseNet.create([15, 8, 1], np.random.default_rng(2))
    modules = [AttributeModule("point", "obstacle", comp, critic, 0.3, entity_index=i) for i in (0, 1)]
    task = load_stock_task("point_two_obstacles").task
    return make_cascade(base, modules, task), task


def arm_stack():
    rng = np.random.default_rng(3)
    base = BaseModule(
        "arm", GaussianPolicy.create(12, 5, rng, output_gain=1.0),
        DenseNet.create([12, 8, 1], rng), True,
    )
    module = AttributeModule(
        "arm", "obstacle", GaussianPolicy.create(20, 5, rng, output_gain=1.0),
        DenseNet.create([27, 8, 1], rng), 0.5,
    )
    task = load_stock_task("arm_obstacle").task
    return make_cascade(base, [module], task), task


class TestLockstep:
    """Lockstep blocks give the bytes of running episodes one at a time."""

    @pytest.mark.parametrize("stack, episodes", [(point_stack, EVAL_BLOCK + 4), (arm_stack, 5)])
    def test_evaluate_matches_serial(self, tmp_path, stack, episodes):
        cascade, task = stack()
        path = tmp_path / "traj.jsonl"
        act = cascade_actor(cascade)
        report = evaluate_policy(act, task, episodes, seed=4, trajectory_path=path)
        want_report, want_lines = serial_evaluate(act, task, episodes, seed=4)
        assert json.dumps(report, sort_keys=True) == json.dumps(want_report, sort_keys=True)
        assert path.read_text() == want_lines

    @pytest.mark.parametrize("stack, episodes", [(point_stack, EVAL_BLOCK + 4), (arm_stack, 5)])
    def test_profile_matches_serial(self, stack, episodes):
        cascade, task = stack()
        got = compensation_profile(cascade, episodes, seed=5)
        want = serial_profile(cascade, task, episodes, seed=5)
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


STORED_STACK = Path(__file__).resolve().parents[1] / "benchmark" / "inputs" / "two_obstacle_stack.json"


class TestAdmission:
    """Finished episodes are replaced at once: every tick acts on as many
    worlds as EVAL_BLOCK allows, with no ragged tail before the last."""

    @pytest.mark.parametrize("run", ["evaluate", "profile"])
    def test_every_tick_is_full(self, monkeypatch, run):
        task = load_stock_task("point_two_obstacles").task
        cascade = load_cascade(STORED_STACK, task)
        episodes = 2 * EVAL_BLOCK + 40
        act = cascade_actor(cascade)
        admitted = 0
        ticks = []  # (worlds acted on, min(EVAL_BLOCK, episodes not yet finished))

        def counting(worlds, rngs):
            nonlocal admitted
            admitted += sum(w.step_index == 0 for w in worlds)
            finished = admitted - len(worlds)
            ticks.append((len(worlds), min(EVAL_BLOCK, episodes - finished)))
            return act(worlds, rngs)

        if run == "evaluate":
            evaluate_policy(counting, task, episodes, seed=7)
        else:
            monkeypatch.setattr(harness, "cascade_actor", lambda c: counting)
            compensation_profile(cascade, episodes, seed=7)
        assert admitted == episodes
        short = [t for t in ticks if t[0] != t[1]]
        assert not short, f"{len(short)} of {len(ticks)} ticks not full, first {short[:3]}"


class TestCompensationProfile:
    @pytest.mark.parametrize("episodes, level", [(0, 1.0), (3, 1.5), (3, -0.1)])
    def test_bad_arguments_rejected_as_evaluate_policy_does(self, episodes, level):
        task = load_stock_task("point_obstacle").task
        cascade = make_cascade(pinned_base(), [pinned_module()], task)
        with pytest.raises(TaskConfigError) as want:
            evaluate_policy(cascade_actor(cascade), task, episodes, seed=0, level=level)
        with pytest.raises(TaskConfigError) as got:
            compensation_profile(cascade, episodes, seed=0, level=level)
        assert str(got.value) == str(want.value)

    def test_silent_module_scores_near_zero(self):
        task = load_stock_task("point_obstacle").task
        cascade = make_cascade(pinned_base(), [pinned_module((0.0, 0.0))], task)
        prof = compensation_profile(cascade, episodes=3, seed=0)
        assert prof["mean_comp_norm"] == 0.0
        assert prof["comp_to_base_ratio"] == 0.0
        assert 0 < prof["steps_far"] <= prof["steps_total"]

    def test_loud_module_scores_high(self):
        task = load_stock_task("point_obstacle").task
        cascade = make_cascade(pinned_base(), [pinned_module((0.4, 0.0))], task)
        prof = compensation_profile(cascade, episodes=3, seed=0)
        assert prof["comp_to_base_ratio"] > 0.2


class TestCascadeDescriptors:
    def test_relative_paths_resolve(self, tmp_path):
        save_base(tmp_path / "b.json", pinned_base())
        save_module(tmp_path / "m.json", pinned_module())
        write_cascade_descriptor(
            tmp_path / "stack.json",
            "b.json",
            [{"checkpoint": "m.json", "entity_binding": 0}],
        )
        loaded = load_stock_task("point_obstacle")
        cascade = load_cascade(tmp_path / "stack.json", loaded.task)
        assert len(cascade.modules) == 1
        assert cascade.modules[0].entity_index == 0

    def test_checkpoint_bound_twice_is_parsed_once(self, tmp_path, monkeypatch):
        save_base(tmp_path / "b.json", pinned_base())
        save_module(tmp_path / "m.json", pinned_module(out=(0.2, -0.1)))
        write_cascade_descriptor(
            tmp_path / "stack.json",
            "b.json",
            [{"checkpoint": "m.json", "entity_binding": 0},
             {"checkpoint": "m.json", "entity_binding": 1, "weight": 0.5}],
        )
        read = []
        monkeypatch.setattr(harness, "read_json",
                            lambda path, what, f=harness.read_json: read.append(path) or f(path, what))
        task = load_stock_task("point_two_obstacles").task
        first, second = load_cascade(tmp_path / "stack.json", task).modules
        assert sorted(p.name for p in read) == ["b.json", "m.json", "stack.json"]
        # two modules that share no arrays, each with its own binding and weight
        assert (first.entity_index, second.entity_index) == (0, 1)
        assert (first.weight, second.weight) == (1.0, 0.5)
        for a, b in zip(first.comp_policy.mean_net.weights, second.comp_policy.mean_net.weights):
            assert not np.shares_memory(a, b) and a.tobytes() == b.tobytes()

    def test_unbound_entity_rejected(self, tmp_path, capsys):
        # each task defines one add-on of the module's kind; every kind binds alike
        for task, kind, binding in (("point_obstacle", "obstacle", 1), ("point_door", "door", 3)):
            save_base(tmp_path / "b.json", pinned_base())
            save_module(tmp_path / "m.json", pinned_module(kind=kind))
            write_cascade_descriptor(
                tmp_path / "stack.json",
                "b.json",
                [{"checkpoint": "m.json", "entity_binding": binding}],
            )
            message = f"module 0 bound to {kind} {binding}, task defines 1"
            with pytest.raises(TaskConfigError, match=message):
                load_cascade(tmp_path / "stack.json", load_stock_task(task).task)
            rc = cli.main(["eval", "--task", task, "--descriptor", str(tmp_path / "stack.json"),
                           "--episodes", "1"])
            assert rc == 2 and capsys.readouterr().err == f"error: {message}\n"

    def test_robot_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(0)
        arm_base = BaseModule(
            "arm",
            GaussianPolicy.create(12, 5, rng),
            DenseNet.create([12, 8, 1], rng),
            frozen=True,
        )
        save_base(tmp_path / "b.json", arm_base)
        save_module(tmp_path / "m.json", pinned_module())
        write_cascade_descriptor(
            tmp_path / "stack.json",
            "b.json",
            [{"checkpoint": "m.json", "entity_binding": 0}],
        )
        loaded = load_stock_task("point_obstacle")
        with pytest.raises(TaskConfigError):
            load_cascade(tmp_path / "stack.json", loaded.task)


TINY = ["--budget", "2", "--quiet"]


# which input file is bad (its name in errors), and what it holds
UNREADABLE_FILES = {"task": "task file", "base": "base checkpoint",
                    "descriptor": "cascade descriptor", "module": "module checkpoint"}
UNREADABLE_CONTENTS = {"not_utf8": b"\xff\xfe{}", "not_json": b'{"robot": "point",',
                       "directory": None, "not_object": b"[1, 2]", "too_deep": b"[" * 100_000}


class TestCli:
    def test_eval_bare_base(self, tmp_path, capsys):
        save_base(tmp_path / "b.json", pinned_base())
        rc = cli.main(
            ["eval", "--task", "point_reach", "--base", str(tmp_path / "b.json"),
             "--episodes", "2"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["episodes"] == 2

    def test_eval_missing_checkpoint_exits_2(self, tmp_path):
        rc = cli.main(
            ["eval", "--task", "point_reach", "--base", str(tmp_path / "nope.json")]
        )
        assert rc == 2

    def test_unknown_task_exits_2(self, tmp_path):
        save_base(tmp_path / "b.json", pinned_base())
        rc = cli.main(
            ["eval", "--task", str(tmp_path / "ghost.json"),
             "--base", str(tmp_path / "b.json")]
        )
        assert rc == 2

    def test_compare_rejects_task_without_addons(self, tmp_path):
        save_base(tmp_path / "b.json", pinned_base())
        rc = cli.main(
            ["compare", "--task", "point_reach", "--base", str(tmp_path / "b.json"),
             "--out", str(tmp_path / "cmp"), *TINY]
        )
        assert rc == 2

    def test_train_base_writes_checkpoint_and_log(self, tmp_path):
        out = tmp_path / "base.json"
        rc = cli.main(["train-base", "--task", "point_reach", "--out", str(out), *TINY])
        assert rc == 0
        assert out.exists()
        log = tmp_path / "base.train.csv"
        header = log.read_text().split("\n")[0]
        assert header == (
            "iteration,episodes,random_level,mean_ep_reward,"
            "policy_loss,value_loss,entropy,kl"
        )
        assert len(log.read_text().strip().split("\n")) == 3  # header + 2 iters

    def test_train_base_reruns_byte_identical(self, tmp_path):
        outs = []
        for d in ("one", "two"):
            out = tmp_path / d / "base.json"
            rc = cli.main(
                ["train-base", "--task", "point_reach", "--out", str(out), *TINY]
            )
            assert rc == 0
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        a = outs[0].with_name("base.train.csv").read_bytes()
        b = outs[1].with_name("base.train.csv").read_bytes()
        assert a == b

    def test_log_dir_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CAN_LOG_DIR", str(tmp_path / "logs"))
        out = tmp_path / "base.json"
        rc = cli.main(["train-base", "--task", "point_reach", "--out", str(out), *TINY])
        assert rc == 0
        assert (tmp_path / "logs" / "base.train.csv").exists()

    def test_full_pipeline_small(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        mod = tmp_path / "obstacle.json"
        stack = tmp_path / "stack.json"
        assert cli.main(
            ["train-base", "--task", "point_reach", "--out", str(base), *TINY]
        ) == 0
        assert cli.main(
            ["train-attr", "--task", "point_obstacle", "--base", str(base),
             "--out", str(mod), *TINY]
        ) == 0
        payload = read_json(mod)
        assert payload["kind"] == "attribute_module"
        assert set(payload) == {
            "kind", "robot", "attribute", "policy", "value", "weight", "penalty_coeff",
        }
        assert cli.main(
            ["assemble", "--base", str(base), "--module", f"{mod}:0",
             "--out", str(stack), "--task", "point_obstacle"]
        ) == 0
        assert cli.main(
            ["eval", "--task", "point_obstacle", "--descriptor", str(stack),
             "--episodes", "2", "--level", "0.2"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["episodes"] == 2

    def test_eval_base_for_other_robot_exits_2(self, tmp_path):
        save_base(tmp_path / "b.json", pinned_base())
        rc = cli.main(
            ["eval", "--task", "arm_reach", "--base", str(tmp_path / "b.json"),
             "--episodes", "1"]
        )
        assert rc == 2

    def test_eval_stack_for_other_robot_exits_2(self, tmp_path):
        rng = np.random.default_rng(0)
        arm_base = BaseModule(
            "arm",
            GaussianPolicy.create(12, 5, rng),
            DenseNet.create([12, 8, 1], rng),
            frozen=True,
        )
        save_base(tmp_path / "b.json", arm_base)
        stack = tmp_path / "stack.json"
        assert cli.main(
            ["assemble", "--base", str(tmp_path / "b.json"), "--out", str(stack)]
        ) == 0
        rc = cli.main(
            ["eval", "--task", "point_reach", "--descriptor", str(stack),
             "--episodes", "1"]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "flag, value", [("--episodes", "0"), ("--level", "1.5"), ("--level", "-0.1")]
    )
    def test_eval_out_of_range_exits_2(self, tmp_path, flag, value):
        save_base(tmp_path / "b.json", pinned_base())
        rc = cli.main(
            ["eval", "--task", "point_reach", "--base", str(tmp_path / "b.json"),
             flag, value]
        )
        assert rc == 2

    @pytest.mark.parametrize("where", ["weights", "biases", "log_std", "value"])
    def test_eval_nonfinite_checkpoint_exits_2(self, tmp_path, where):
        path = tmp_path / "b.json"
        save_base(path, pinned_base())
        d = read_json(path)
        if where == "weights":
            d["policy"]["weights"][0][0][0] = float("nan")
        elif where == "biases":
            d["policy"]["biases"][-1][0] = float("inf")
        elif where == "log_std":
            d["policy"]["log_std"][1] = float("nan")
        else:
            d["value"]["weights"][-1][0][0] = float("-inf")
        path.write_text(json.dumps(d))
        rc = cli.main(["eval", "--task", "point_reach", "--base", str(path), "--episodes", "1"])
        assert rc == 2

    @pytest.mark.parametrize("where", ["row_dropped", "layer_missing", "log_std_width",
                                       "string_weight"])
    def test_eval_malformed_checkpoint_exits_2(self, tmp_path, capsys, where):
        path = tmp_path / "b.json"
        save_base(path, pinned_base())
        d = read_json(path)
        policy = d["policy"]
        if where == "row_dropped":
            policy["weights"][0].pop()
        elif where == "layer_missing":
            policy["weights"].pop()
        elif where == "log_std_width":
            policy["log_std"].pop()
        else:
            policy["weights"][1] = "x"
        path.write_text(json.dumps(d))
        rc = cli.main(["eval", "--task", "point_reach", "--base", str(path), "--episodes", "1"])
        assert rc == 2
        assert "checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("where, key, value", [
        ("descriptor", "entity_binding", -1),
        ("descriptor", "entity_binding", -3),
        ("descriptor", "entity_binding", 1.5),
        ("descriptor", "entity_binding", "x"),
        ("descriptor", "entity_binding", True),
        ("descriptor", "weight", "heavy"),
        ("descriptor", "weight", float("nan")),
        ("descriptor", "weight", False),
        ("checkpoint", "weight", "heavy"),
        ("checkpoint", "weight", float("nan")),
        ("checkpoint", "weight", None),
        ("checkpoint", "penalty_coeff", "x"),
        ("checkpoint", "penalty_coeff", float("inf")),
        ("checkpoint", "penalty_coeff", True),
    ])
    def test_eval_malformed_stack_exits_2(self, tmp_path, capsys, where, key, value):
        save_base(tmp_path / "b.json", pinned_base())
        module = tmp_path / "m.json"
        save_module(module, pinned_module())
        entries = [{"checkpoint": "m.json", "entity_binding": k} for k in (0, 1)]
        if where == "descriptor":
            entries[1][key] = value
        else:
            d = read_json(module)
            d[key] = value
            module.write_text(json.dumps(d))
        write_cascade_descriptor(tmp_path / "stack.json", "b.json", entries)
        rc = cli.main(["eval", "--task", "point_two_obstacles", "--descriptor",
                       str(tmp_path / "stack.json"), "--episodes", "1"])
        assert rc == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("descriptor", [
        [], {"kind": "base"}, {"kind": "cascade", "modules": []},
        {"kind": "cascade", "base_checkpoint": 7, "modules": []},
        {"kind": "cascade", "base_checkpoint": "b.json", "modules": 5},
        {"kind": "cascade", "base_checkpoint": "b.json", "modules": ["m.json"]},
        {"kind": "cascade", "base_checkpoint": "b.json", "modules": [{"checkpoint": 5}]},
    ], ids=["not_object", "kind_base", "no_base", "base_not_path", "modules_not_list",
            "entry_not_object", "checkpoint_not_path"])
    def test_eval_malformed_descriptor_exits_2(self, tmp_path, capsys, descriptor):
        save_base(tmp_path / "b.json", pinned_base())
        save_module(tmp_path / "m.json", pinned_module())
        (tmp_path / "stack.json").write_text(json.dumps(descriptor))
        rc = cli.main(["eval", "--task", "point_obstacle", "--descriptor",
                       str(tmp_path / "stack.json"), "--episodes", "1"])
        assert rc == 2
        assert "descriptor" in capsys.readouterr().err

    @pytest.mark.parametrize("task, change", [
        ("point_door", {"period": 0}),
        ("point_door", {"open_fraction": 1.5}),
        ("point_door", {"y_lo": 0.6, "y_hi": 0.6}),
        ("point_speed", {"times": [0.0, 6.0, 3.0, 10.0]}),
        ("point_speed", {"times": [0.0, 3.0, 6.0]}),
        ("point_obstacle", {"radius": 0.0}),
        ("point_door", {"period": 0.01}),
    ], ids=["door_period", "door_open_fraction", "door_span", "speed_times_order",
            "speed_times_length", "obstacle_radius", "door_period_below_dt"])
    def test_eval_bad_addon_exits_2(self, tmp_path, task, change):
        d = load_stock_task(task).raw
        d["addons"][0]["params"].update(change)
        (tmp_path / "task.json").write_text(json.dumps(d))
        save_base(tmp_path / "b.json", pinned_base())
        rc = cli.main(
            ["eval", "--task", str(tmp_path / "task.json"), "--base", str(tmp_path / "b.json"),
             "--episodes", "1"]
        )
        assert rc == 2

    @pytest.mark.parametrize("task, change", [
        ("point_reach", {"horizon": 0}),
        ("point_reach", {"horizon": 2.5}),
        ("point_reach", {"dt": "0.05"}),
        ("point_reach", {"mass": 0}),
        ("point_reach", {"workspace": -1}),
        ("point_reach", {"force_limit": float("inf")}),
        ("point_reach", {"robot_radius": True}),
        ("point_reach", {"damping": "0.8"}),
        ("point_reach", {"damping": -50.0}),
        ("point_reach", {"target_radius": 10**400}),
        ("arm_reach", {"link_lengths": [0.5, 0.5]}),
        ("arm_reach", {"link_lengths": [0.25, 0.25, 0.0, 0.25]}),
        ("arm_reach", {"joint_inertia": float("nan")}),
        ("arm_reach", {"damping": 1e300}),
        ("arm_reach", {"dt": 1e200}),
    ], ids=["horizon_zero", "horizon_fraction", "dt_string", "mass_zero", "workspace_negative",
            "force_limit_inf", "robot_radius_bool", "damping_string", "damping_negative",
            "target_radius_huge_int", "arm_two_links", "arm_zero_link",
            "arm_inertia_nan", "arm_damping_huge", "arm_dt_huge"])
    def test_eval_bad_sim_exits_2(self, tmp_path, capsys, task, change):
        d = load_stock_task(task).raw
        d["sim"] = change
        (tmp_path / "task.json").write_text(json.dumps(d))
        rng = np.random.default_rng(0)
        base = pinned_base() if task.startswith("point") else BaseModule(
            "arm", GaussianPolicy.create(12, 5, rng), DenseNet.create([12, 8, 1], rng), frozen=True
        )
        save_base(tmp_path / "b.json", base)
        rc = cli.main(
            ["eval", "--task", str(tmp_path / "task.json"), "--base", str(tmp_path / "b.json"),
             "--episodes", "1"]
        )
        assert rc == 2
        assert f"sim.{next(iter(change))}" in capsys.readouterr().err

    def test_eval_diverging_sim_exits_2(self, tmp_path, capsys):
        # undamped, so the load checks pass; the first step's joint rates
        # times a step this long overflow the angles
        d = load_stock_task("arm_reach").raw
        d["sim"] = {"dt": 1e200, "damping": 0.0}
        (tmp_path / "task.json").write_text(json.dumps(d))
        rng = np.random.default_rng(0)
        save_base(tmp_path / "b.json", BaseModule(
            "arm", GaussianPolicy.create(12, 5, rng), DenseNet.create([12, 8, 1], rng), frozen=True
        ))
        rc = cli.main(["eval", "--task", str(tmp_path / "task.json"),
                       "--base", str(tmp_path / "b.json"), "--episodes", "1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == "error: arm state diverged\n"

    @pytest.mark.parametrize("task, edit, message", [
        ("point_reach", lambda d: d["nominal"].update(target=["a", 0]), "nominal target"),
        ("point_reach", lambda d: d["nominal"].update(target=[float("nan"), 0]),
         "nominal target"),
        ("point_reach", lambda d: d["nominal"].update(position=[float("inf"), 0]),
         "nominal position"),
        ("arm_reach", lambda d: d["nominal"].update(base_x="abc"), "nominal base_x"),
        ("arm_reach", lambda d: d["nominal"].update(joint_angles=[0, "a", 0, 0]),
         "nominal joint_angles"),
        ("point_reach", lambda d: d.update(nominal=[[-0.5, 0.0], [0.5, 0.0]]),
         "nominal must be a JSON object"),
        ("point_reach", lambda d: d.update(curriculum=[0.1, 1.2]),
         "curriculum must be a JSON object"),
        ("point_reach", lambda d: d.update(sim=[0.05]), "sim must be a JSON object"),
        ("point_force", lambda d: d["addons"][0].update(params=[0.4, 0.6]),
         "params must be a JSON object"),
        ("point_force", lambda d: d["addons"][0]["params"].update(magnitude="x"), "magnitude"),
        ("point_obstacle", lambda d: d["addons"][0]["params"].update(center=[0.0]),
         "planar center"),
        ("point_obstacle", lambda d: d.update(addon=d.pop("addons")), "unknown task keys"),
        ("point_reach", lambda d: d["nominal"].update(postion=[0.0, 0.0]),
         "unknown nominal keys for the point robot: ['postion']"),
        ("point_reach", lambda d: d["nominal"].update(base_x=0.0),
         "unknown nominal keys for the point robot: ['base_x']"),
        ("arm_reach", lambda d: d["nominal"].update(basex=0.1),
         "unknown nominal keys for the arm robot: ['basex']"),
        ("point_speed", lambda d: d["addons"][0]["params"].update(coef=5.0),
         "unknown params ['coef']"),
        ("point_obstacle", lambda d: d["addons"][0]["params"].update(coeff=5.0),
         "unknown params ['coeff']"),
        ("point_reach", lambda d: d["nominal"].update(target=[1e300, 0]),
         "nominal target must lie within sim.workspace"),
        ("point_reach", lambda d: d["nominal"].update(position=[-1.5, 0]),
         "nominal position must lie within sim.workspace"),
        ("arm_reach", lambda d: d["nominal"].update(base_x=2.0),
         "nominal base_x must lie within sim.workspace"),
        ("arm_reach", lambda d: d["nominal"].update(target=[0.45, 5.0]),
         "nominal target must lie within sim.workspace"),
        ("arm_reach", lambda d: d.update(sim={"link_lengths": [0.1] * 4}) or
         d["nominal"].update(target=[0.45, 0.9]),
         "nominal target y must lie within the arm's reach 0.5 "
         "(sum of sim.link_lengths + sim.target_radius), got [0.45, 0.9]"),
    ], ids=["target_string", "target_nan", "position_inf", "arm_base_x_string",
            "arm_joint_angle_string", "nominal_list", "curriculum_list", "sim_list",
            "params_list", "force_magnitude_string", "obstacle_center_short",
            "misspelled_addons", "nominal_postion", "point_nominal_base_x",
            "arm_nominal_basex", "speed_params_coef", "obstacle_params_coeff",
            "target_outside_arena", "position_outside_arena", "arm_base_x_outside_arena",
            "arm_target_outside_arena", "arm_target_beyond_reach"])
    def test_eval_bad_task_exits_2(self, tmp_path, capsys, task, edit, message):
        d = load_stock_task(task).raw
        edit(d)
        (tmp_path / "task.json").write_text(json.dumps(d))
        rng = np.random.default_rng(0)
        base = pinned_base() if task.startswith("point") else BaseModule(
            "arm", GaussianPolicy.create(12, 5, rng), DenseNet.create([12, 8, 1], rng), frozen=True
        )
        save_base(tmp_path / "b.json", base)
        rc = cli.main(
            ["eval", "--task", str(tmp_path / "task.json"), "--base", str(tmp_path / "b.json"),
             "--episodes", "1"]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert message in err and "Traceback" not in err

    def test_eval_target_inside_wider_arena_loads(self, tmp_path, capsys):
        d = load_stock_task("point_reach").raw
        d["sim"] = {"workspace": 2.0}
        d["nominal"]["target"] = [1.5, 0.0]
        (tmp_path / "task.json").write_text(json.dumps(d))
        save_base(tmp_path / "b.json", pinned_base())
        rc = cli.main(["eval", "--task", str(tmp_path / "task.json"),
                       "--base", str(tmp_path / "b.json"), "--episodes", "1", "--level", "0"])
        assert rc == 0, capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("queue_capacity", "abc", "an integer >= 1"),
        ("min_entries", "x", "an integer >= 1"),
        ("queue_capacity", True, "an integer >= 1"),
        ("min_entries", 0, "an integer >= 1"),
        ("threshold", float("nan"), "a finite number"),
        ("terminal_level", float("inf"), "a finite number"),
        ("lambda", "1.2", "a finite number"),
    ], ids=["queue_capacity_string", "min_entries_string", "queue_capacity_bool",
            "min_entries_zero", "threshold_nan", "terminal_level_inf", "lambda_string"])
    def test_train_base_bad_curriculum_exits_2(self, tmp_path, capsys, key, value, message):
        d = load_stock_task("point_reach").raw
        d["curriculum"][key] = value
        (tmp_path / "task.json").write_text(json.dumps(d))
        out = tmp_path / "out.json"
        rc = cli.main(["train-base", "--task", str(tmp_path / "task.json"), "--out", str(out),
                       "--budget", "1", "--quiet"])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"curriculum.{key} must be {message}" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("which, content", [
        pytest.param(which, content, id=name if which == "task" else f"{which}_{name}")
        for which in UNREADABLE_FILES for name, content in UNREADABLE_CONTENTS.items()
    ])
    def test_eval_unreadable_task_exits_2(self, tmp_path, capsys, which, content):
        files = {"task": tmp_path / "task.json", "base": tmp_path / "b.json",
                 "descriptor": tmp_path / "stack.json", "module": tmp_path / "m.json"}
        files["task"].write_text(json.dumps(load_stock_task("point_obstacle").raw))
        save_base(files["base"], pinned_base())
        save_module(files["module"], pinned_module())
        write_cascade_descriptor(files["descriptor"], "b.json", [{"checkpoint": "m.json"}])
        path = files[which]
        path.unlink()
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        stack = (["--base", str(files["base"])] if which in ("task", "base")
                 else ["--descriptor", str(files["descriptor"])])
        rc = cli.main(["eval", "--task", str(files["task"]), *stack, "--episodes", "1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        kind = UNREADABLE_FILES[which]
        if content == b"[1, 2]":
            assert f"{kind} {path} must hold a JSON object" in err
        else:
            assert f"cannot read {kind} {path}" in err

    @pytest.mark.parametrize("which, key, value", [
        ("base", "policy", ...), ("base", "value", ...), ("base", "policy", [1, 2]),
        ("base", "robot", "wheel"), ("base", "kind", "attribute_module"),
        ("module", "policy", ...), ("module", "attribute", "reach"), ("module", "robot", None),
        ("base", "policy.layer_sizes", ...), ("base", "policy.log_std", ...),
        ("module", "value.biases", ...), ("module", "policy.weights", {}),
    ], ids=["base_no_policy", "base_no_value", "base_policy_list", "base_robot_unknown",
            "base_kind_module", "module_no_policy", "module_attribute_reach", "module_robot_null",
            "base_no_policy_layer_sizes", "base_no_policy_log_std", "module_no_value_biases",
            "module_policy_weights_object"])
    def test_eval_checkpoint_bad_field_exits_2(self, tmp_path, capsys, which, key, value):
        save_base(tmp_path / "b.json", pinned_base())
        save_module(tmp_path / "m.json", pinned_module())
        write_cascade_descriptor(tmp_path / "stack.json", "b.json", [{"checkpoint": "m.json"}])
        path = tmp_path / ("b.json" if which == "base" else "m.json")
        d = read_json(path)
        *parents, last = key.split(".")
        node = d
        for part in parents:
            node = node[part]
        if value is ...:
            del node[last]
        else:
            node[last] = value
        path.write_text(json.dumps(d))
        rc = cli.main(["eval", "--task", "point_obstacle", "--descriptor",
                       str(tmp_path / "stack.json"), "--episodes", "1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{which} checkpoint {key} must be" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["eval", "train-base"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command):
        save_base(tmp_path / "b.json", pinned_base())
        args = {
            "eval": ["eval", "--task", "point_reach", "--base", str(tmp_path / "b.json"),
                     "--episodes", "1"],
            "train-base": ["train-base", "--task", "point_reach",
                           "--out", str(tmp_path / "out.json"), *TINY],
        }[command]
        assert cli.main([*args, "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("command", ["train-base", "train-attr", "compare"])
    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_nonpositive_budget_exits_2(self, tmp_path, capsys, command, budget):
        save_base(tmp_path / "b.json", pinned_base())
        out = tmp_path / "out"
        task = "point_reach" if command == "train-base" else "point_obstacle"
        args = [command, "--task", task, "--out", str(out), "--budget", budget, "--quiet"]
        if command != "train-base":
            args += ["--base", str(tmp_path / "b.json")]
        assert cli.main(args) == 2
        assert "--budget" in capsys.readouterr().err
        assert not out.exists()

    def test_assemble_rejects_unbound_entity(self, tmp_path, capsys):
        base = tmp_path / "b.json"
        mod = tmp_path / "m.json"
        save_base(base, pinned_base())
        for task, kind, binding in (("point_obstacle", "obstacle", 2), ("point_door", "door", 5)):
            save_module(mod, pinned_module(kind=kind))
            rc = cli.main(
                ["assemble", "--base", str(base), "--module", f"{mod}:{binding}",
                 "--out", str(tmp_path / "s.json"), "--task", task]
            )
            assert rc == 2
            err = capsys.readouterr().err
            assert err == f"error: module 0 bound to {kind} {binding}, task defines 1\n"
            assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("case", ["module_robot", "module_width", "base_width"])
    def test_assemble_without_task_checks_widths(self, tmp_path, capsys, case):
        rng = np.random.default_rng(0)
        base, module = pinned_base(), pinned_module()
        if case == "module_robot":
            module = AttributeModule("arm", "obstacle", GaussianPolicy.create(20, 5, rng),
                                     DenseNet.create([27, 8, 1], rng))
        elif case == "module_width":
            module.comp_policy = GaussianPolicy.create(7, 2, rng)
        else:
            base.policy = GaussianPolicy.create(9, 2, rng)
        save_base(tmp_path / "b.json", base)
        save_module(tmp_path / "m.json", module)
        out = tmp_path / "s.json"
        rc = cli.main(["assemble", "--base", str(tmp_path / "b.json"), "--module",
                       str(tmp_path / "m.json"), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert {"module_robot": "module 0 was trained for 'arm', base drives 'point'",
                "module_width": "module 0 expects input 7, attribute view + action is 11",
                "base_width": "base policy expects view 9, robot 'point' has 6"}[case] in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("command, task, message", [
        ("train-base", "point_obstacle", "base training expects a task with no add-ons, got 1"),
        ("train-attr", "point_two_obstacles",
         "attribute training expects a task with exactly one add-on, got 2"),
        ("train-attr", "point_reach",
         "attribute training expects a task with exactly one add-on, got 0"),
        ("compare", "point_two_obstacles",
         "compare needs a task with exactly one add-on, 'point_two_obstacles' has 2"),
    ], ids=["base_on_obstacle", "attr_on_two_obstacles", "attr_on_reach", "compare_on_two_obstacles"])
    def test_trainer_task_shape_exits_2(self, tmp_path, capsys, command, task, message):
        save_base(tmp_path / "b.json", pinned_base())
        out = tmp_path / "out"
        args = [command, "--task", task, "--out", str(out), *TINY]
        if command != "train-base":
            args += ["--base", str(tmp_path / "b.json")]
        rc = cli.main(args)
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b.json"]

    @pytest.mark.parametrize("task, kind", [("point_reach", "door"), ("point_door", "speed")])
    def test_assemble_rejects_module_for_absent_addon(self, tmp_path, capsys, task, kind):
        # a module whose widths fit its kind, so only the kind check rejects it
        module = pinned_module(kind=kind)
        if kind == "speed":  # robot state (4) + speed limit (1) + action (2)
            rng = np.random.default_rng(1)
            module.comp_policy = GaussianPolicy.create(7, 2, rng)
        save_base(tmp_path / "b.json", pinned_base())
        save_module(tmp_path / "m.json", module)
        out = tmp_path / "s.json"
        rc = cli.main(["assemble", "--base", str(tmp_path / "b.json"), "--module",
                       str(tmp_path / "m.json"), "--out", str(out), "--task", task])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"module 0 compensates for {kind!r}" in err and "Traceback" not in err
        assert not out.exists()

    def test_compare_writes_summary(self, tmp_path):
        base = tmp_path / "base.json"
        assert cli.main(
            ["train-base", "--task", "point_reach", "--out", str(base), *TINY]
        ) == 0
        out = tmp_path / "cmp"
        rc = cli.main(
            ["compare", "--task", "point_obstacle", "--base", str(base),
             "--out", str(out), *TINY]
        )
        assert rc == 0
        summary = read_json(out / "summary.json")
        assert set(summary["arms"]) == {"can", "scratch_cl", "scratch_rcl"}
        for arm in summary["arms"].values():
            assert arm["iterations_run"] == 2
            assert (out / "can.train.csv").exists()


# The four input files of a stack evaluation, as plain JSON: a stock task
# with its default sim values spelled out, a base and a module checkpoint as
# `save_base`/`save_module` write them, and a descriptor binding them.  At
# level 0 the base drives straight from the nominal start to the target.
PRISTINE_INPUTS = json.loads(json.dumps({
    "task.json": {**load_stock_task("point_obstacle").raw,
                  "sim": dataclasses.asdict(point_sim_config())},
    "b.json": base_module_to_dict(pinned_base(out=(1.0, 0.6875))),
    "m.json": attribute_module_to_dict(pinned_module(out=(0.0, 0.0))),
    "stack.json": {"kind": "cascade", "base_checkpoint": "b.json",
                   "modules": [{"checkpoint": "m.json", "entity_binding": 0, "weight": 1.0}]},
}))
DELETE = "<delete>"
# values that are wrong in kind or in size, none so large that trying it
# could hang or allocate without bound
REPLACEMENTS = [DELETE, None, True, "x", [], {}, -1, 0, 0.01, 2.5, 1e300,
                float("nan"), float("inf")]


def _field_shapes(node, path=()):
    """Every key path in a JSON document, with None for any list index."""
    for key in node if isinstance(node, dict) else range(len(node)):
        shape = (*path, key if isinstance(node, dict) else None)
        yield shape
        if isinstance(node[key], (dict, list)) and node[key]:
            yield from _field_shapes(node[key], shape)


# (file, key path) of every field of every input file; list elements share
# one shape, since each list in these files holds elements of one structure
FIELD_SHAPES = [(name, shape) for name, doc in PRISTINE_INPUTS.items()
                for shape in dict.fromkeys(_field_shapes(doc))]


@st.composite
def one_field_mutation(draw):
    """(file, path, value): one key or list element of one input file, at
    any depth, and its replacement (or DELETE)."""
    name, shape = draw(st.sampled_from(FIELD_SHAPES))
    node, path = PRISTINE_INPUTS[name], []
    for key in shape:
        if key is None:
            key = draw(st.integers(0, len(node) - 1))
        path.append(key)
        node = node[key]
    return name, tuple(path), draw(st.sampled_from(REPLACEMENTS))


def _numbers(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [n for v in value for n in _numbers(v)]
    return [value] if isinstance(value, (int, float)) else []


class TestOneFieldMutations:
    """Any one-field change to any input file of `can eval` ends in a
    report of finite numbers (exit 0) or one error line (exit 2)."""

    @given(one_field_mutation())
    @settings(max_examples=600, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_eval_exits_0_with_finite_report_or_2(self, tmp_path, mutation):
        name, path, value = mutation
        doc = json.loads(json.dumps(PRISTINE_INPUTS[name]))
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        if value == DELETE:
            del node[last]
        else:
            node[last] = value
        for file, pristine in PRISTINE_INPUTS.items():
            (tmp_path / file).write_text(json.dumps(doc if file == name else pristine))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(["eval", "--task", str(tmp_path / "task.json"), "--descriptor",
                           str(tmp_path / "stack.json"), "--episodes", "1", "--level", "0"])
        if rc == 0:
            assert all(map(math.isfinite, _numbers(json.loads(out.getvalue()))))
        else:
            assert rc == 2
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
