"""Make the stored inputs of the benchmark through the `can` CLI.

    python3 benchmark/make_inputs.py

Writes into benchmark/inputs/:

- point_base.json (+ .train.csv): `train-base --task point_reach --seed 0`,
  default budget 500, stops at curriculum terminal;
- point_obstacle.json (+ .train.csv): `train-attr --task point_obstacle`
  over that base, seed 1, budget 200, past terminal;
- arm_base.json (+ .train.csv): `train-base --task arm_reach --seed 0
  --budget 1500`;
- two_obstacle_stack.json: the point base plus two bound copies (:0, :1)
  of the obstacle module, assembled against point_two_obstacles.

The inputs are committed and never regenerated by a benchmark run, so two
commits are measured on the same stack.  The BLAS thread count is pinned
to 1 before numpy loads, as in every benchmark run.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CAN_LOG_DIR", None)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INPUTS = HERE / "inputs"
sys.path.insert(0, str(ROOT / "src"))

from canrl import cli  # noqa: E402


def commands(out: Path) -> list[list[str]]:
    base = str(out / "point_base.json")
    module = str(out / "point_obstacle.json")
    return [
        ["train-base", "--task", "point_reach", "--out", base, "--seed", "0", "--quiet"],
        [
            "train-attr", "--task", "point_obstacle", "--base", base,
            "--out", module, "--seed", "1", "--budget", "200",
            "--train-past-terminal", "--quiet",
        ],
        [
            "train-base", "--task", "arm_reach", "--out", str(out / "arm_base.json"),
            "--seed", "0", "--budget", "1500", "--quiet",
        ],
        [
            "assemble", "--base", base, "--module", f"{module}:0",
            "--module", f"{module}:1", "--out", str(out / "two_obstacle_stack.json"),
            "--task", "point_two_obstacles",
        ],
    ]


def main() -> int:
    INPUTS.mkdir(parents=True, exist_ok=True)
    for argv in commands(INPUTS):
        print("can " + " ".join(a.replace(str(ROOT) + "/", "") for a in argv), flush=True)
        code = cli.main(argv)
        if code != 0:
            print(f"command failed with exit code {code}", file=sys.stderr)
            return code
    for path in sorted(INPUTS.iterdir()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
