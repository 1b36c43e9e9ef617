"""Train the full point-robot stack: base, four modules, then eval each.

Budgets and seeds are the ones the reported numbers came from.  A full
run takes a few minutes on one core.
"""

import argparse
import json
import sys
from pathlib import Path

from canrl.harness import (
    MODULE_RECIPES,
    RunConfig,
    cascade_actor,
    evaluate_policy,
    load_cascade,
    run_train_attribute,
    run_train_base,
    write_cascade_descriptor,
)
from canrl.taskio import load_stock_task


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/point_suite")
    ap.add_argument("--episodes", type=int, default=50)
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def emit(line):
        print(line, file=sys.stderr, flush=True)

    base_path = out / "base.json"
    run_train_base(
        load_stock_task("point_reach"), base_path,
        RunConfig(seed=0, max_iterations=500), emit,
    )

    report = {}
    for task_name, run in MODULE_RECIPES.items():
        loaded = load_stock_task(task_name)
        mod_path = out / f"{task_name.removeprefix('point_')}.json"
        run_train_attribute(base_path, loaded, mod_path, run, emit)
        desc_path = out / f"stack_{task_name.removeprefix('point_')}.json"
        write_cascade_descriptor(
            desc_path, "base.json",
            [{"checkpoint": mod_path.name, "entity_binding": 0}],
        )
        cascade = load_cascade(desc_path, loaded.task)
        report[task_name] = evaluate_policy(
            cascade_actor(cascade), loaded.task,
            episodes=args.episodes, seed=100,
        )
        emit(f"{task_name}: success {report[task_name]['success_rate']:.2f}")

    (out / "suite_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps({k: v["success_rate"] for k, v in report.items()}, indent=2))


if __name__ == "__main__":
    main()
