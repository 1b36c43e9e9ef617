"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 scripts/pairs.py PARENT CHANGE --workload W --seed S [--pairs N]

Each pair runs `benchmark/run.py --trace 0` once in each checkout, at the
benchmark's own run length, parent first in even pairs and change first
in odd ones, so a slow drift in host load falls on both sides alike.  For
every end-to-end metric the script
prints each side's median and quartiles (numpy's linear percentiles), how
many pairs the change won in the metric's better direction, and whether
the gap between the medians exceeds the parent's quartile distance.  It
also says whether the outputs' sha256 digests agreed in every pair.
Nothing under `benchmark/` is changed; the run records stay in each
checkout's `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(repo: Path, workload: str, seed: int) -> dict:
    """One untraced run: its metric values and output digests."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=repo, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{repo}: {' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    record_line = next(ln for ln in lines if ln.startswith("record: "))
    result = json.loads(lines[-1])
    record = json.loads((repo / record_line.split(": ", 1)[1]).read_text())
    return {
        "correct": result["correct"],
        "failed": result["failed"],
        "values": {k: m["value"] for k, m in result["metrics"].items()},
        "digests": record["output_sha256"],
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[dict], change: list[dict], better: dict[str, str]) -> list[str]:
    lines = []
    for name, direction in better.items():
        p = [r["values"][name] for r in parent]
        c = [r["values"][name] for r in change]
        (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
        wins = sum((b < a) if direction == "lower" else (b > a) for a, b in zip(p, c))
        gap = abs(cm - pm)
        lines.append(
            f"{name}: parent {pm:.4g} ({p1:.4g}/{p3:.4g})  change {cm:.4g} ({c1:.4g}/{c3:.4g})"
            f"  {100.0 * (cm - pm) / pm:+.1f}%  change better in {wins}/{len(p)}"
            f"  gap {'exceeds' if gap > p3 - p1 else 'within'} parent quartile distance"
            f" ({gap:.4g} vs {p3 - p1:.4g})"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            runs[side].append(run_once(sides[side], args.workload, args.seed))
        p, c = runs["parent"][-1], runs["change"][-1]
        print(f"pair {i + 1}: wall_s parent {p['values']['wall_s']:.4f}"
              f" change {c['values']['wall_s']:.4f} ({order[0]} first)", flush=True)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs")
    for line in summarize(runs["parent"], runs["change"], better):
        print(line)
    all_runs = runs["parent"] + runs["change"]
    same = all(p["digests"] == c["digests"] for p, c in zip(runs["parent"], runs["change"]))
    print(f"output_sha256 equal in every pair: {same}")
    print(f"every run correct: {all(r['correct'] for r in all_runs)}, "
          f"failed operations: {sum(r['failed'] for r in all_runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
