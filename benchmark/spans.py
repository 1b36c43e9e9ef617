"""Span tracing for the traced benchmark run.

The tracer wraps the public functions of each layer where callers look
them up (module attributes and class attributes), records one span per
call with a name, a start, an end, its parent span and the row count of
its input, keeps the spans in memory and writes them out at the end.  A
layer's self time is its span's duration minus the part its child spans
cover.  Nothing in the program is edited; the wrappers live in this
process only.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

# (span name, module, attribute path, how to read the input row count)
TARGETS = (
    ("ppo.collect_rollouts", "canrl.ppo", "collect_rollouts", None),
    ("ppo.compute_gae", "canrl.ppo", "compute_gae", None),
    ("ppo.ppo_loss", "canrl.ppo", "ppo_loss", None),
    ("cascade.tail_act", "canrl.ppo", "CascadeTailActor.act", None),
    ("nets.forward_cached", "canrl.nets", "DenseNet.forward_cached", lambda a: a[1].shape[0]),
    ("nets.backward_cached", "canrl.nets", "DenseNet.backward_cached", lambda a: a[2].shape[0]),
    ("nets.sample", "canrl.nets", "GaussianPolicy.sample", None),
    ("nets.adam_step", "canrl.nets", "adam_step", None),
    ("dynamics.point_integrate", "canrl.dynamics", "point_integrate", None),
    ("dynamics.arm_integrate", "canrl.dynamics", "arm_integrate", None),
    ("dynamics.arm_points", "canrl.dynamics", "arm_points", None),
    ("attributes.step_task", "canrl.attributes", "step_task", None),
    ("attributes.reset", "canrl.attributes", "reset", None),
    ("cascade.act", "canrl.cascade", "cascade_act", None),
    ("harness.evaluate_policy", "canrl.harness", "evaluate_policy", None),
    ("harness.checkpoint_load", "canrl.harness", "load_base", None),
    ("harness.checkpoint_load", "canrl.harness", "load_module", None),
    ("harness.checkpoint_save", "canrl.harness", "save_base", None),
    ("harness.checkpoint_save", "canrl.harness", "save_module", None),
    ("taskio.load_task", "canrl.taskio", "load_stock_task", None),
    ("taskio.load_task", "canrl.taskio", "load_task", None),
)

# spans inside which the program acts in the environment, one row per step
ACTING = ("ppo.collect_rollouts", "harness.evaluate_policy")


def rebind(module_name: str, attr: str, make_wrapper) -> None:
    """Replace a function everywhere canrl modules look it up.

    `from .x import f` copies the function into the importing module, so
    every canrl module attribute that is the original object is rebound.
    """
    owner = sys.modules[module_name]
    *cls_path, name = attr.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    original = owner.__dict__[name]
    wrapper = make_wrapper(original)
    if cls_path:
        setattr(owner, name, wrapper)
        return
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "canrl" or mod_name.startswith("canrl."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


class Tracer:
    """In-memory span store: parallel arrays indexed by span id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.rows = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def wrapper(self, name: str, rows_of=None):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack

        def make(fn):
            def traced(*args, **kwargs):
                i = len(self.name)
                self.name.append(nid)
                self.parent.append(stack[-1] if stack else -1)
                self.rows.append(rows_of(args) if rows_of is not None else 0)
                self.start.append(0.0)
                self.end.append(0.0)
                stack.append(i)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    self.start[i] = t0
                    self.end[i] = t1

            traced.__wrapped__ = fn
            return traced

        return make

    def install(self) -> None:
        for name, module, attr, rows_of in TARGETS:
            rebind(module, attr, self.wrapper(name, rows_of))

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "rows": np.frombuffer(self.rows, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def layer_metrics(names: list[str], spans: dict[str, np.ndarray]) -> dict[str, float]:
    """Per-layer self times and counts from the recorded spans.

    Times are self time per call.  Steps are `step_task` calls, split by
    the acting span (rollout or evaluation) they ran under.  A layer that
    never ran reads 0.
    """
    name, parent, rows = spans["name"].tolist(), spans["parent"].tolist(), spans["rows"]
    dur = spans["end"] - spans["start"]
    n = len(dur)
    nid = np.asarray(name, dtype=np.int64)
    par = np.asarray(parent, dtype=np.int64)
    has_parent = par >= 0
    child_time = np.bincount(par[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child_time[:n]

    acting_ids = {names.index(a) for a in ACTING if a in names}
    root = [-1] * n  # name id of the acting span a span ran under
    for i in range(n):  # parents precede their children
        if name[i] in acting_ids:
            root[i] = name[i]
        elif parent[i] >= 0:
            root[i] = root[parent[i]]
    root = np.asarray(root, dtype=np.int64)

    def mask(label: str, under: str | None = None, batch: int | None = None) -> np.ndarray:
        if label not in names:
            return np.zeros(n, dtype=bool)
        m = nid == names.index(label)
        if under == "acting":
            m &= root >= 0
        elif under is not None:
            m &= root == (names.index(under) if under in names else -2)
        if batch is not None:
            m &= rows == batch
        return m

    def count(label: str, **kw) -> int:
        return int(mask(label, **kw).sum())

    def ratio(num: float, den: float) -> float:
        return float(num) / den if den else 0.0

    def per_call(label: str, scale: float, **kw) -> float:
        m = mask(label, **kw)
        return ratio(self_time[m].sum() * scale, int(m.sum()))

    def self_sum(label: str) -> float:
        return float(self_time[mask(label)].sum())

    steps_roll = count("attributes.step_task", under="ppo.collect_rollouts")
    steps_eval = count("attributes.step_task", under="harness.evaluate_policy")
    steps = steps_roll + steps_eval
    iterations = count("ppo.collect_rollouts")
    acting_fwd = mask("nets.forward_cached", under="acting")
    return {
        "ppo.rollout_us_per_step": ratio(self_sum("ppo.collect_rollouts") * 1e6, steps_roll),
        "ppo.loss_us_per_minibatch": per_call("ppo.ppo_loss", 1e6),
        "ppo.gae_ms_per_pass": per_call("ppo.compute_gae", 1e3),
        "ppo.minibatches_per_iteration": ratio(count("ppo.ppo_loss"), iterations),
        "ppo.steps_per_iteration": ratio(steps_roll, iterations),
        "nets.forward_calls_per_step": ratio(int(acting_fwd.sum()), steps),
        "nets.rows_per_forward": ratio(int(rows[acting_fwd].sum()), int(acting_fwd.sum())),
        "nets.forward_b1_us": per_call("nets.forward_cached", 1e6, batch=1),
        "nets.sample_us": per_call("nets.sample", 1e6),
        "nets.forward_b256_us": per_call("nets.forward_cached", 1e6, batch=256),
        "nets.backward_b256_us": per_call("nets.backward_cached", 1e6, batch=256),
        "nets.adam_step_us": per_call("nets.adam_step", 1e6),
        "dynamics.point_integrate_us": per_call("dynamics.point_integrate", 1e6),
        "dynamics.arm_integrate_us": per_call("dynamics.arm_integrate", 1e6),
        "dynamics.arm_points_us": per_call("dynamics.arm_points", 1e6),
        "dynamics.arm_points_calls_per_step": ratio(
            count("dynamics.arm_points", under="acting"), steps
        ),
        "attributes.step_task_us": per_call("attributes.step_task", 1e6),
        "attributes.reset_us": per_call("attributes.reset", 1e6),
        "cascade.act_us": per_call("cascade.act", 1e6),
        "cascade.tail_act_us": per_call("cascade.tail_act", 1e6),
        "harness.eval_us_per_step": ratio(self_sum("harness.evaluate_policy") * 1e6, steps_eval),
        "harness.checkpoint_load_ms": per_call("harness.checkpoint_load", 1e3),
        "harness.checkpoint_save_ms": per_call("harness.checkpoint_save", 1e3),
        "taskio.load_task_ms": per_call("taskio.load_task", 1e3),
    }
