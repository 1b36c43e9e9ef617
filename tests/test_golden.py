"""Golden digests: the sha256 of every output of short fixed runs.

Each run goes through `cli.main` (or, for the compensation profile, the
harness function) exactly as a user would call it, and every file it
writes is hashed.  A refactor that moves a single bit of training or
evaluation numerics fails here, where a rerun-against-rerun check would
not.  The digests were recorded with float64 numpy and OpenBLAS on
x86-64 Linux; re-record them only with a change that declares it alters
numerics.
"""

import hashlib
import json

import pytest

from canrl import cli
from canrl.harness import compensation_profile, load_cascade
from canrl.taskio import load_stock_task

GOLDEN = {
    "point_base.json":
        "d74ed6115b387b335505b272075dbeab0ca61fa0cf497bdbf9d1aa1a8d928531",
    "point_base.train.csv":
        "35ac43151c5eb0dc685001edf60e8004f1f6637b597617c3dba334aa25e2a90c",
    "arm_base.json":
        "b3b369a788e402d1ad2946ed6db6baa4c20646026f826e17618c73d3a806167b",
    "arm_base.train.csv":
        "0c259c17a43edfc72d75db70fa6577a9469870f0e419ec5aef76a62beebc19b2",
    "point_obstacle.json":
        "0e2d7b0536c5a634e7c47b9aeefa41cb65db75b522204e359fed6912f26e88c8",
    "point_obstacle.train.csv":
        "284584c90677982448a4626ea2116a857482b25bbb51f40e66b93715781f24e8",
    "arm_obstacle.json":
        "567d1086bbe77141e13ca84af399233e987c1bcee67f217aa7c2d45357ee570c",
    "arm_obstacle.train.csv":
        "919e13643e74fabdd5a8f2b46e91ba3299cdfb796e365a7eb3cde4c5bc0b63b6",
    "cmp/summary.json":
        "73f72cbf149387d79dc9d92a94a6aa48a3f685e87fce08e58fd5429f2ce81b4e",
    "cmp/can.train.csv":
        "164ea51caa5308950ffee30315b5b7dbe23e7c1bb1abc6ec323231787855a65a",
    "cmp/scratch_cl.train.csv":
        "010c433f385aa794619b24e8232ffb9f05c1d8db157901323019429110749173",
    "cmp/scratch_rcl.train.csv":
        "e3b9436daeb9321e4946403f393778779c430a2a6c7b6bdafc2adaa6b02d8b8b",
    "stack.json":
        "1215d78a12a149a8258b75bc4c9e5689269b8da8ca189224d8a68ad846869b21",
    "stack_report.json":
        "a76634cf584f0e49fd66d901cccdc55f2bd004664607960beab7958023b87045",
    "stack_trajectory.jsonl":
        "8e35391ecac73426665c132f673a6fe90f061cee48ee8f31ac9f048a1880d10f",
    "base_report.json":
        "dc3fcbfbe1541163e83b2741458c2247765cec739a06e5294af66c539e6db119",
    "base_trajectory.jsonl":
        "18ae381ac3f6bcda0d954733c3083a35418fed115bb59cf9f26a139c28dcb529",
    "profile":
        "146e8de0d92258c9105f460e5199993a07fb65953081a605a31813155080b3a7",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(*argv: str) -> None:
    assert cli.main(list(argv)) == 0


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    run("train-base", "--task", "point_reach", "--out", str(d / "point_base.json"),
        "--budget", "3", "--quiet")
    run("train-base", "--task", "arm_reach", "--out", str(d / "arm_base.json"),
        "--budget", "2", "--quiet")
    run("train-attr", "--task", "point_obstacle", "--base", str(d / "point_base.json"),
        "--out", str(d / "point_obstacle.json"), "--budget", "3", "--quiet")
    run("train-attr", "--task", "arm_obstacle", "--base", str(d / "arm_base.json"),
        "--out", str(d / "arm_obstacle.json"), "--budget", "2", "--quiet")
    run("compare", "--task", "point_obstacle", "--base", str(d / "point_base.json"),
        "--out", str(d / "cmp"), "--budget", "2", "--quiet")
    module = d / "point_obstacle.json"
    run("assemble", "--base", str(d / "point_base.json"), "--module", f"{module}:0",
        "--module", f"{module}:1", "--out", str(d / "stack.json"),
        "--task", "point_two_obstacles")
    run("eval", "--task", "point_two_obstacles", "--descriptor", str(d / "stack.json"),
        "--episodes", "5", "--seed", "3", "--trajectories", str(d / "stack_trajectory.jsonl"),
        "--out", str(d / "stack_report.json"))
    run("eval", "--task", "point_two_obstacles", "--base", str(d / "point_base.json"),
        "--episodes", "5", "--seed", "3", "--trajectories", str(d / "base_trajectory.jsonl"),
        "--out", str(d / "base_report.json"))
    out = {
        name: sha256((d / name).read_bytes()) for name in GOLDEN if name != "profile"
    }
    task = load_stock_task("point_two_obstacles").task
    profile = compensation_profile(load_cascade(d / "stack.json", task), task,
                                   episodes=3, seed=0)
    out["profile"] = sha256(json.dumps(profile, sort_keys=True).encode())
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden_digest(digests, name):
    assert digests[name] == GOLDEN[name]
