"""Collect one benchmark file, BENCH_<label>.json, for a source checkout.

    python3 scripts/bench.py --label NAME [--repo PATH]

For each workload in the checkout's BENCHMARK.json this runs
`benchmark/run.py` in the checkout itself, with its own default seed and
seconds: once untraced, whose medians over rounds are the end-to-end
numbers, and three times traced (`TRACED_RUNS`), the middle traced round
of each giving one set of per-layer numbers.  Each per-layer metric in the
file is the median of the three, since one traced round is too noisy to
rank a change by.  The file holds both, the seed and seconds the runs
report, the outputs' sha256 digests of each run (so two checkouts can be
compared byte for byte), the check results, the checkout's commit and
whether its tree had uncommitted changes, and the machine: CPU model and
count, Python, numpy and BLAS builds, and the BLAS thread count pinned and
reported at run time.  `--repo` defaults to the checkout this script lives
in, and the file goes to the current directory, so

    python3 scripts/bench.py --label before --repo ../parent-checkout

benchmarks another checkout with this script.  Nothing under
`benchmark/` is changed, and the run records stay in the checkout's
`.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TRACED_RUNS = 3


def run_benchmark(repo: Path, workload: str, trace: bool) -> dict:
    """One `benchmark/run.py` run; its result line plus its record."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=repo, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    record_line = next(ln for ln in lines if ln.startswith("record: "))
    result = json.loads(lines[-1])
    result["record"] = json.loads((repo / record_line.split(": ", 1)[1]).read_text())
    return result


def source_state(repo: Path) -> dict:
    """The checkout's commit and whether its tree differs from it."""
    def git(*args: str) -> str | None:
        proc = subprocess.run(["git", *args], cwd=repo, capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"git_commit": commit, "git_dirty": None if status is None else bool(status)}


def collect(repo: Path, label: str) -> dict:
    spec = json.loads((repo / "BENCHMARK.json").read_text())
    out: dict = {"label": label, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        plain = run_benchmark(repo, name, trace=False)
        traced = [run_benchmark(repo, name, trace=True) for _ in range(TRACED_RUNS)]
        runs = [plain, *traced]
        out["seed"], out["seconds"] = plain["record"]["seed"], plain["record"]["seconds"]
        out["workloads"][name] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {k: m["value"] for k, m in plain["metrics"].items()},
            "per_layer": {
                k: statistics.median(t["metrics"][k]["value"] for t in traced)
                for k in traced[0]["metrics"]
            },
            "rounds": len(plain["record"]["rounds"]),
            "traced_rounds": [len(t["record"]["rounds"]) for t in traced],
            "output_sha256": plain["record"]["output_sha256"],
            "traced_output_sha256": [t["record"]["output_sha256"] for t in traced],
            "check_errors": [e for r in runs for e in r["record"]["checks"]["errors"]],
        }
        print(f"{name}: wall_s {out['workloads'][name]['end_to_end']['wall_s']:.3f}",
              file=sys.stderr)
    out["environment"] = {
        "machine": platform.machine(),
        "platform": platform.platform(),
        **plain["record"]["environment"],
        **source_state(repo),
    }
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    ap.add_argument("--repo", type=Path, default=HERE.parent, help="checkout to benchmark")
    args = ap.parse_args(argv)
    result = collect(args.repo.resolve(), args.label)
    path = Path(f"BENCH_{args.label}.json")
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
