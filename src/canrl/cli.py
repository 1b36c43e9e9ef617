"""Command line front end.

    can train-base --task point_reach --out base.json
    can train-attr --task point_obstacle --base base.json --out obstacle.json
    can assemble --base base.json --module obstacle.json:0 --out stack.json
    can eval --task point_obstacle --descriptor stack.json
    can compare --task point_obstacle --base base.json --out cmp/

Tasks are stock names or paths to task JSON files.  Progress goes to
stderr, reports to stdout.  Exit code 1 flags diverged training, 2 flags
a usage or configuration problem, or a sim whose physics diverged.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .cascade import check_widths, make_cascade
from .errors import DivergenceError, InfeasibleTaskError, SimulationFault, TaskConfigError
from .harness import (
    RunConfig,
    cascade_actor,
    evaluate_policy,
    load_base,
    load_cascade,
    load_module,
    run_compare,
    run_train_attribute,
    run_train_base,
    write_cascade_descriptor,
    write_json,
)
from .taskio import STOCK_TASK_NAMES, LoadedTask, load_stock_task, load_task


def _emit(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


def _resolve_task(spec: str) -> LoadedTask:
    if spec in STOCK_TASK_NAMES:
        return load_stock_task(spec)
    return load_task(spec)


def _run_config(args, default_budget: int) -> RunConfig:
    budget = args.budget if args.budget is not None else default_budget
    return RunConfig(
        seed=args.seed,
        max_iterations=budget,
        stop_at_terminal=not getattr(args, "train_past_terminal", False),
    )


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quiet", action="store_true", help="suppress progress lines")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="can", description="train, assemble, and evaluate attribute stacks"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-base", help="train a reaching policy")
    p.add_argument("--task", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--budget", type=int, default=None, help="iteration cap (default 500)")
    p.add_argument(
        "--train-past-terminal",
        action="store_true",
        help="spend the whole budget even after the curriculum tops out",
    )
    _add_common(p)

    p = sub.add_parser("train-attr", help="train one compensation module")
    p.add_argument("--task", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--budget", type=int, default=None, help="iteration cap (default 300)")
    p.add_argument(
        "--train-past-terminal",
        action="store_true",
        help="spend the whole budget even after the curriculum tops out",
    )
    _add_common(p)

    p = sub.add_parser("assemble", help="write a cascade descriptor")
    p.add_argument("--base", required=True)
    p.add_argument(
        "--module",
        action="append",
        default=[],
        metavar="PATH[:ENTITY]",
        help="module checkpoint, optionally bound to an add-on index of its kind",
    )
    p.add_argument("--out", required=True)
    p.add_argument("--task", default=None, help="validate bindings against this task")

    p = sub.add_parser("eval", help="run deterministic evaluation episodes")
    p.add_argument("--task", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--base", help="evaluate a bare base checkpoint")
    group.add_argument("--descriptor", help="evaluate an assembled cascade")
    p.add_argument("--episodes", type=int, default=10)
    p.add_argument("--level", type=float, default=1.0)
    p.add_argument("--trajectories", default=None, help="write per-step JSONL here")
    p.add_argument("--out", default=None, help="also write the report JSON here")
    _add_common(p)

    p = sub.add_parser("compare", help="race module training against from-scratch arms")
    p.add_argument("--task", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--budget", type=int, default=None, help="iteration cap (default 250)")
    _add_common(p)

    return parser


def _emit_done(command: str, result) -> None:
    tag = (
        f"terminal after {result.iterations_to_terminal} iterations"
        if result.iterations_to_terminal is not None
        else f"stopped at level {result.curriculum.random_level:.4f}"
    )
    _emit(f"{command} done: {tag}, {result.episodes_used} episodes")


def _cmd_train_base(args) -> int:
    loaded = _resolve_task(args.task)
    emit = None if args.quiet else _emit
    result = run_train_base(loaded, args.out, _run_config(args, 500), emit)
    _emit_done("train-base", result)
    return 0


def _cmd_train_attr(args) -> int:
    loaded = _resolve_task(args.task)
    emit = None if args.quiet else _emit
    result = run_train_attribute(
        args.base, loaded, args.out, _run_config(args, 300), emit
    )
    _emit_done("train-attr", result)
    return 0


def _parse_module_arg(arg: str) -> tuple[str, int]:
    path, sep, entity = arg.rpartition(":")
    if sep and entity.isdigit():
        return path, int(entity)
    return arg, 0


def _cmd_assemble(args) -> int:
    out = Path(args.out)
    base = load_base(args.base)
    entries = []
    modules = []
    for raw in args.module:
        path, entity = _parse_module_arg(raw)
        modules.append(load_module(path, entity))
        entries.append(
            {
                "checkpoint": os.path.relpath(path, out.parent or "."),
                "entity_binding": entity,
            }
        )
    if args.task is not None:
        make_cascade(base, modules, _resolve_task(args.task).task)
    else:
        check_widths(base, modules)
    write_cascade_descriptor(out, os.path.relpath(args.base, out.parent or "."), entries)
    _emit(f"assembled {len(modules)} module(s) -> {out}")
    return 0


def _cmd_eval(args) -> int:
    loaded = _resolve_task(args.task)
    if args.descriptor is not None:
        cascade = load_cascade(args.descriptor, loaded.task)
    else:
        cascade = make_cascade(load_base(args.base), [], loaded.task)
    report = evaluate_policy(
        cascade_actor(cascade),
        loaded.task,
        episodes=args.episodes,
        seed=args.seed,
        level=args.level,
        trajectory_path=args.trajectories,
    )
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out is not None:
        write_json(args.out, report)
    return 0


def _cmd_compare(args) -> int:
    loaded = _resolve_task(args.task)
    if len(loaded.task.addons) != 1:
        raise TaskConfigError(
            f"compare needs a task with exactly one add-on, {args.task!r} has {len(loaded.task.addons)}"
        )
    emit = None if args.quiet else _emit
    summary = run_compare(
        loaded, args.base, args.out, _run_config(args, 250), emit
    )
    for arm, row in summary["arms"].items():
        if "error" in row:
            _emit(f"{arm}: {row['error']}")
        else:
            itt = row["iterations_to_terminal"]
            _emit(
                f"{arm}: terminal={itt if itt is not None else 'never'} "
                f"final_level={row['final_level']:.4f}"
            )
    return 0


def _check_numbers(args) -> None:
    if getattr(args, "seed", 0) < 0:
        raise TaskConfigError(f"--seed must be >= 0, got {args.seed}")
    if getattr(args, "budget", None) is not None and args.budget < 1:
        raise TaskConfigError(f"--budget must be >= 1, got {args.budget}")


COMMANDS = {
    "train-base": _cmd_train_base,
    "train-attr": _cmd_train_attr,
    "assemble": _cmd_assemble,
    "eval": _cmd_eval,
    "compare": _cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_numbers(args)
        return COMMANDS[args.command](args)
    except DivergenceError as exc:
        _emit(f"diverged: {exc}")
        return 1
    except (FileNotFoundError, TaskConfigError, InfeasibleTaskError, SimulationFault) as exc:
        _emit(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
