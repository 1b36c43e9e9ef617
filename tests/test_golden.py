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
    "arm_stack.json":
        "05c59d1edb836cd5f45f95c2af174b17a993e133268101fa13fda8503fe1c68a",
    "arm_stack_report.json":
        "f9cbaca6f0f2341db41bd58647d6578f314d19bbcd7b63a86ee99c07f8ab9ce2",
    "arm_stack_trajectory.jsonl":
        "f6d255c189fc47f94c8654a71b856944198114ce638f43dc5322968116ca9120",
    "bare/arm_door_report.json":
        "1a566b28e86baae7bdfb9f8aa89d3a112813b16cb68576fbcb169216d4cbf1df",
    "bare/arm_door_trajectory.jsonl":
        "220b9c145f5fcd5fbe4b5ca635e008fdf43ba07572a176e07dd30d610303ec4d",
    "bare/arm_force_report.json":
        "896785a47c3d85bcb96be6d329f79b7015245bf4fc746adf70c9dc513019780b",
    "bare/arm_force_trajectory.jsonl":
        "42f0e0dfbbf70979be2ba1bc32867e42739047f2858c13eaca763ef958bfff5b",
    "bare/arm_speed_report.json":
        "896785a47c3d85bcb96be6d329f79b7015245bf4fc746adf70c9dc513019780b",
    "bare/arm_speed_trajectory.jsonl":
        "5b57966c578258ee79037c68e31c8c06aa9156fe9717e94ca8a28489a468f7fc",
    "bare/point_door_report.json":
        "0066819140a5a69af2cdf25cb91922cb16d48d8bf4383d703b79900c3714c74e",
    "bare/point_door_trajectory.jsonl":
        "da7c182a717706a4b62eeaad245e7291d12c6a4e5b18660eb7c032b2b8dc72d6",
    "bare/point_force_report.json":
        "9ac3ec26c610f1bd1563470b08a651209546d2640afbe561d8b6cb174b587a3c",
    "bare/point_force_trajectory.jsonl":
        "46d81adf6be207a00e820a05e45b14f9dbd54b5bea89b14d1b74e8f76c370eea",
    "bare/point_speed_report.json":
        "9ac3ec26c610f1bd1563470b08a651209546d2640afbe561d8b6cb174b587a3c",
    "bare/point_speed_trajectory.jsonl":
        "a9d4825fedfaf3807f3f1a9f88ae5c88cf885bcf50297716e09be39af197dd82",
}

# bare bases on the door, speed and force tasks pin those views, rewards
# (door touches included), the disturbance (the arm's through
# `arm_jacobian`) and both robots' trajectory records; the arm stack pins
# an arm cascade's evaluation
BARE_TASKS = ("point_door", "point_speed", "point_force", "arm_door", "arm_speed", "arm_force")


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
    arm_module = d / "arm_obstacle.json"
    run("assemble", "--base", str(d / "arm_base.json"), "--module", f"{arm_module}:0",
        "--out", str(d / "arm_stack.json"), "--task", "arm_obstacle")
    run("eval", "--task", "arm_obstacle", "--descriptor", str(d / "arm_stack.json"),
        "--episodes", "3", "--seed", "0", "--trajectories", str(d / "arm_stack_trajectory.jsonl"),
        "--out", str(d / "arm_stack_report.json"))
    for task in BARE_TASKS:
        base = d / f"{task.split('_')[0]}_base.json"
        run("eval", "--task", task, "--base", str(base), "--episodes", "4", "--seed", "1",
            "--trajectories", str(d / "bare" / f"{task}_trajectory.jsonl"),
            "--out", str(d / "bare" / f"{task}_report.json"))
    out = {
        name: sha256((d / name).read_bytes()) for name in GOLDEN if name != "profile"
    }
    task = load_stock_task("point_two_obstacles").task
    profile = compensation_profile(load_cascade(d / "stack.json", task), episodes=3, seed=0)
    out["profile"] = sha256(json.dumps(profile, sort_keys=True).encode())
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden_digest(digests, name):
    assert digests[name] == GOLDEN[name]
