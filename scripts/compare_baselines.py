"""Race module training against from-scratch PPO on the obstacle task.

Needs a trained base checkpoint (scripts/train_point_suite.py leaves one
at runs/point_suite/base.json).  All three arms get the same seed and
iteration budget; the summary lands in <out>/summary.json.
"""

import argparse
import sys

from canrl.harness import RunConfig, run_compare
from canrl.taskio import load_stock_task


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--base", default="runs/point_suite/base.json")
    ap.add_argument("--task", default="point_obstacle")
    ap.add_argument("--out", default="runs/compare")
    ap.add_argument("--budget", type=int, default=130)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    def emit(line):
        print(line, file=sys.stderr, flush=True)

    summary = run_compare(
        load_stock_task(args.task), args.base, args.out,
        RunConfig(seed=args.seed, max_iterations=args.budget),
        emit,
    )
    for arm, row in summary["arms"].items():
        if "error" in row:
            print(f"{arm}: diverged ({row['error']})")
            continue
        itt = row["iterations_to_terminal"]
        print(
            f"{arm}: terminal={itt if itt is not None else 'never'} "
            f"final_level={row['final_level']:.4f} episodes={row['episodes_used']}"
        )


if __name__ == "__main__":
    main()
