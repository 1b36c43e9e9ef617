"""scripts/pairs.py on synthetic run records: the printed summary, and the
benchmark files it writes, checked against a committed one."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "scripts" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

COMMITTED = json.loads((ROOT / "BENCH_critic-worker.json").read_text())
SOURCE = {"git_commit": COMMITTED["environment"]["git_commit"], "git_dirty": False}
RUN_ENVIRONMENT = {k: v for k, v in COMMITTED["environment"].items()
                   if k not in ("machine", "platform", *SOURCE)}


def run(values: dict, wall_s: float = 1.0, digests=None, correct=True, failed=0) -> dict:
    """One run's result line and record, as `pairs.run_once` returns them.
    Its fastest successful round takes `wall_s`."""
    return {
        "correct": correct, "attempted": 10, "failed": failed,
        "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()},
        "record": {
            "seed": 5, "seconds": 20, "environment": RUN_ENVIRONMENT,
            "rounds": [{"code": 0, "wall_s": wall_s + 0.1}, {"code": 0, "wall_s": wall_s},
                       {"code": 1, "wall_s": 0.01}],
            "output_sha256": digests or {"out.json": "ab"},
            "checks": {"errors": [] if correct else ["rollout shape"]},
        },
    }


def side(wall: list[float], steps: list[float], **traced_kw) -> tuple:
    plain = [run({"wall_s": w, "env_steps_per_s": s}, w) for w, s in zip(wall, steps)]
    return plain, [run({"trace.overhead_s": 0.1}, **traced_kw) for _ in range(3)]


BETTER = {"wall_s": "lower", "env_steps_per_s": "higher"}
PARENT = side([1.0, 1.1, 1.2, 1.3, 1.4], [100, 110, 120, 130, 140])
CHANGE = side([0.7, 0.8, 0.9, 1.0, 1.5], [101, 111, 121, 131, 139])


def test_summary_lines():
    assert pairs.summarize("eval", 5, PARENT, CHANGE, BETTER) == [
        "eval seed 5, 5 pairs",
        "wall_s: parent 1.2 (1.1/1.3)  change 0.9 (0.8/1)  -25.0%  change better in 4/5"
        "  gap exceeds parent quartile distance (0.3 vs 0.2)",
        "wall_s round minimum (median over runs): parent 1.2  change 0.9  -25.0%"
        "  change better in 4/5",
        "env_steps_per_s: parent 120 (110/130)  change 121 (111/131)  +0.8%"
        "  change better in 4/5  gap within parent quartile distance (1 vs 20)",
        "output_sha256 equal in every pair: True",
        "every run correct: True, failed operations: 0",
    ]


def test_summary_reports_digest_mismatch_and_traced_failures():
    plain, traced = side([0.7, 0.8, 0.9, 1.0, 1.5], [101, 111, 121, 131, 139],
                         correct=False, failed=2)
    plain[3] = run({"wall_s": 1.0, "env_steps_per_s": 131}, digests={"out.json": "cd"})
    lines = pairs.summarize("eval", 5, PARENT, (plain, traced), BETTER)
    assert lines[-2:] == ["output_sha256 equal in every pair: False",
                          "every run correct: False, failed operations: 6"]


def shape(x):
    """Keys and value types of a JSON document, lists by their first item."""
    if isinstance(x, dict):
        return {k: shape(v) for k, v in x.items()}
    if isinstance(x, list):
        return [shape(v) for v in x[:1]]
    return type(x).__name__


def committed_runs() -> dict:
    """Per workload of the committed file, five untraced runs whose
    end-to-end values are 1-5 times the file's, and three traced runs whose
    per-layer values are 1-3 times its values."""
    out = {}
    for name, entry in COMMITTED["workloads"].items():
        def runs(values, n):
            return [run({k: v * i for k, v in values.items()}, digests=entry["output_sha256"])
                    for i in range(1, n + 1)]
        out[name] = (runs(entry["end_to_end"], 5), runs(entry["per_layer"], 3))
    return out


@pytest.fixture
def written(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = pairs.write_bench("check", committed_runs(), SOURCE)
    assert path == Path("BENCH_check.json")
    return json.loads((tmp_path / path).read_text())


def test_written_file_has_the_committed_keys_and_types(written):
    assert shape(written) == shape(COMMITTED)
    assert written["label"] == "check" and written["seed"] == 5


def test_written_file_takes_medians_over_runs(written):
    for name, entry in COMMITTED["workloads"].items():
        got = written["workloads"][name]
        assert got["end_to_end"] == {k: v * 3 for k, v in entry["end_to_end"].items()}
        assert got["per_layer"] == {k: v * 2 for k, v in entry["per_layer"].items()}
        assert got["rounds"] == 5 * 3 and got["traced_rounds"] == [3, 3, 3]
        assert got["attempted"] == 8 * 10 and got["correct"] and got["check_errors"] == []
