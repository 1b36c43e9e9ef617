"""Run the benchmark in two checkouts in alternating pairs, print the
comparison and write one benchmark file per checkout.

    python3 scripts/pairs.py PARENT CHANGE --seed S --label NAME [--pairs N] [--workload W]

For each workload in the change's BENCHMARK.json (or only W), N untraced
pairs and then `TRACED_RUNS` traced pairs each run `benchmark/run.py` once
per checkout at the benchmark's own run length, parent first in even
pairs, so a drift in host load falls on both sides alike.  Per end-to-end
metric it prints each side's median and quartiles over its untraced runs,
the change's wins in the metric's better direction, and whether the gap
between the medians exceeds the parent's quartile distance; for `wall_s`
also the median of each run's fastest round, which load inside a run
moves less; then whether the output digests agreed in every untraced pair
and whether every run was correct.

It writes `BENCH_parent-<sha7>.json` and `BENCH_<NAME>.json` to the
current directory.  Per workload each holds the medians over the side's
untraced runs (`end_to_end`) and traced runs (`per_layer`), operation and
round counts, output digests and check errors; then the seed, the commit
and dirty flag, and the machine, with its BLAS build and thread count.
The run records stay in each checkout's `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

TRACED_RUNS = 3


def run_once(repo: Path, workload: str, seed: int, trace: bool) -> dict:
    """One `benchmark/run.py` run: its result line, its record under "record"."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=repo, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{repo}: {' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
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


def summarize(workload: str, seed: int, parent: tuple, change: tuple, better: dict) -> list[str]:
    """One workload's printed summary from each side's (untraced, traced) runs."""
    every = [r for runs in (*parent, *change) for r in runs]
    parent, change = parent[0], change[0]
    lines = [f"{workload} seed {seed}, {len(parent)} pairs"]
    for name, direction in better.items():
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        (p1, pm, p3), (c1, cm, c3) = (statistics.quantiles(v, n=4, method="inclusive")
                                      for v in (p, c))
        wins = sum((b < a) if direction == "lower" else (b > a) for a, b in zip(p, c))
        gap = abs(cm - pm)
        lines.append(
            f"{name}: parent {pm:.4g} ({p1:.4g}/{p3:.4g})  change {cm:.4g} ({c1:.4g}/{c3:.4g})"
            f"  {100.0 * (cm - pm) / pm:+.1f}%  change better in {wins}/{len(p)}"
            f"  gap {'exceeds' if gap > p3 - p1 else 'within'} parent quartile distance"
            f" ({gap:.4g} vs {p3 - p1:.4g})"
        )
        if name == "wall_s":
            p, c = ([min(x["wall_s"] for x in r["record"]["rounds"] if x["code"] == 0)
                     for r in side] for side in (parent, change))
            pm, cm = statistics.median(p), statistics.median(c)
            wins = sum(b < a for a, b in zip(p, c))
            lines.append(
                f"wall_s round minimum (median over runs): parent {pm:.4g}  change {cm:.4g}"
                f"  {100.0 * (cm - pm) / pm:+.1f}%  change better in {wins}/{len(p)}"
            )
    same = all(p["record"]["output_sha256"] == c["record"]["output_sha256"]
               for p, c in zip(parent, change))
    lines.append(f"output_sha256 equal in every pair: {same}")
    lines.append(f"every run correct: {all(r['correct'] for r in every)}, "
                 f"failed operations: {sum(r['failed'] for r in every)}")
    return lines


def workload_entry(plain: list[dict], traced: list[dict]) -> dict:
    """One workload's entry in a benchmark file, from one side's runs."""
    def medians(runs: list[dict]) -> dict:
        return {k: statistics.median(r["metrics"][k]["value"] for r in runs)
                for k in runs[0]["metrics"]}

    runs = [*plain, *traced]
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "end_to_end": medians(plain),
        "per_layer": medians(traced),
        "rounds": sum(len(r["record"]["rounds"]) for r in plain),
        "traced_rounds": [len(t["record"]["rounds"]) for t in traced],
        "output_sha256": plain[0]["record"]["output_sha256"],
        "traced_output_sha256": [t["record"]["output_sha256"] for t in traced],
        "check_errors": [e for r in runs for e in r["record"]["checks"]["errors"]],
    }


def write_bench(label: str, runs: dict, source: dict) -> Path:
    """Write `BENCH_<label>.json` in the current directory from one side's
    (untraced, traced) runs per workload and its `source_state`."""
    record = next(iter(runs.values()))[0][0]["record"]
    out = {
        "label": label,
        "seed": record["seed"],
        "seconds": record["seconds"],
        "workloads": {name: workload_entry(*both) for name, both in runs.items()},
        "environment": {"machine": platform.machine(), "platform": platform.platform(),
                        **record["environment"], **source},
    }
    path = Path(f"BENCH_{label}.json")
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", help="run only this workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10, help="untraced pairs per workload")
    ap.add_argument("--label", required=True, help="the change's file is BENCH_<label>.json")
    args = ap.parse_args(argv)
    sys.stdout.reconfigure(line_buffering=True)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    sources = {side: source_state(repo) for side, repo in sides.items()}
    if sources["parent"]["git_commit"] is None:
        ap.error(f"{sides['parent']} is not a git checkout")
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    runs: dict[str, dict] = {"parent": {}, "change": {}}
    for name in names:
        runs["parent"][name], runs["change"][name] = ([], []), ([], [])
        for i in range(args.pairs + TRACED_RUNS):
            trace = i >= args.pairs
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                runs[side][name][trace].append(run_once(sides[side], name, args.seed, trace))
            if not trace:
                p, c = (runs[s][name][0][-1]["metrics"]["wall_s"]["value"] for s in runs)
                print(f"pair {i + 1}: wall_s parent {p:.4f} change {c:.4f} ({order[0]} first)")
        for line in summarize(name, args.seed, runs["parent"][name], runs["change"][name], better):
            print(line)
    labels = {"parent": f"parent-{sources['parent']['git_commit'][:7]}", "change": args.label}
    for side in runs:
        print(write_bench(labels[side], runs[side], sources[side]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
