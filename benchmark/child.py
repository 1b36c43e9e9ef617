"""One benchmark round in a fresh process.

    python3 benchmark/child.py SPEC.json

SPEC holds {"argv": [...] | null, "trace": bool, "result": path,
"spans": path | null}.  The process imports the program, then runs one
`can` command in-process through `canrl.cli.main` and writes a result
JSON: the CLOCK_MONOTONIC readings at the start and end of the command
(the parent took its own reading just before launching, so launch to
start is the set-up time), the exit code, the env steps counted by a
wrapper around `step_task`, and the peak RSS.  With "argv" null the
process stops after set-up.  With "trace" true it also records spans
(see spans.py) and checks sampled rollouts and advantage passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import canrl.cli  # noqa: E402  (imports every layer of the program)

from spans import Tracer, layer_metrics, rebind  # noqa: E402

import checks  # noqa: E402

GAE_SAMPLE_EVERY = 10


class StepCounter:
    """Counts env steps where callers look up `step_task`; no clock."""

    def __init__(self) -> None:
        self.steps = 0

    def install(self) -> None:
        def make(fn):
            def counted(*args, **kwargs):
                self.steps += 1
                return fn(*args, **kwargs)

            return counted

        rebind("canrl.attributes", "step_task", make)


class TraceChecks:
    """Checks every rollout's shape as it is made, and keeps every tenth
    advantage pass for the double-sum oracle after the command."""

    def __init__(self) -> None:
        self.errors: list[str] = []
        self.rollouts = 0
        self.gae_calls = 0
        self.gae_kept: list[dict] = []

    def install(self) -> None:
        def watch_rollouts(fn):
            def observed(actor, task, level, n_steps, *args, **kwargs):
                roll = fn(actor, task, level, n_steps, *args, **kwargs)
                errs = checks.check_rollout(roll, n_steps, task.cfg.horizon)
                self.errors += [f"rollout {self.rollouts}: {e}" for e in errs]
                self.rollouts += 1
                return roll

            return observed

        def watch_gae(fn):
            def observed(rewards, values, dones, discount, lam, last_value=0.0):
                adv, ret = fn(rewards, values, dones, discount, lam, last_value)
                if self.gae_calls % GAE_SAMPLE_EVERY == 0:
                    self.gae_kept.append({
                        "index": self.gae_calls,
                        "rewards": np.array(rewards, dtype=float),
                        "values": np.array(values, dtype=float),
                        "dones": np.array(dones, dtype=float),
                        "gamma": discount, "lam": lam, "last_value": last_value,
                        "adv": adv.copy(), "returns": ret.copy(),
                    })
                self.gae_calls += 1
                return adv, ret

            return observed

        rebind("canrl.ppo", "collect_rollouts", watch_rollouts)
        rebind("canrl.ppo", "compute_gae", watch_gae)

    def check_kept(self) -> None:
        for call in self.gae_kept:
            errs = checks.check_gae(call)
            self.errors += [f"advantage pass {call['index']}: {e}" for e in errs]


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    result: dict = {}
    counter = StepCounter()
    tracer = watcher = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
        watcher = TraceChecks()
        watcher.install()  # wraps the traced functions, so its work is in no span
    counter.install()
    if spec["argv"] is not None:
        with contextlib.redirect_stdout(io.StringIO()):
            t_start = time.monotonic()
            code = canrl.cli.main(spec["argv"])
            t_end = time.monotonic()
        result.update(code=code, t_end=t_end, steps=counter.steps)
    else:
        t_start = time.monotonic()
    result["t_start"] = t_start
    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.names, tracer.arrays())
        watcher.check_kept()
        result["trace_errors"] = watcher.errors
        result["rollouts_checked"] = watcher.rollouts
        result["gae_checked"] = len(watcher.gae_kept)
        if spec.get("spans"):
            tracer.write(spec["spans"])
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
