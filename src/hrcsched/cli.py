"""Command line front end.

Subcommands: solve (search-guided schedule), train (self-play policy
iteration), baseline (random rollouts), oracle (exhaustive enumeration),
advise (interactive session where humans choose and robots follow the
search).

Exit codes: 0 success, 1 runtime failure (illegal play, deadlock or
unwritable output), 2 bad command line, 3 unreadable or invalid jobspec,
4 unreadable or mismatched checkpoint.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .baselines import (
    BUDGET_EXCEEDED,
    MAX_DEPTH,
    NODE_BUDGET,
    TRAJECTORIES,
    exhaustive_search,
    histogram_csv,
    oracle_report_csv,
    random_rollouts,
)
from .game import (
    GameError,
    NOOP,
    episode_log_csv,
    legal_actions,
    noop_stalls,
    play,
    schedule_csv,
)
from .jobspec import HUMAN_ONLY, ROBOT_ONLY, JobSpec, JobSpecError, parse_jobspec
from .net import CheckpointError, NetEvaluator, init_params, load_checkpoint
from .search import SearchConfig
from .selfplay import TrainingConfig, search_chooser, training_log_csv, training_loop

SEED_ENV = "HRC_SEED"


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hrcsched",
        description="Schedule human-robot assembly jobs on the task board.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--jobspec", required=True, help="path to a job description file")
    common.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"master random seed (default: ${SEED_ENV} or 0)",
    )
    common.add_argument(
        "--literal-gravity",
        action="store_true",
        help="allow picking any bottom-row task even if work it rested on is unfinished",
    )
    common.add_argument("--out", default=".", help="directory for output files")

    searchy = argparse.ArgumentParser(add_help=False)
    searchy.add_argument(
        "--simulations", type=int, default=SearchConfig.simulations, help="simulations per decision"
    )
    searchy.add_argument(
        "--max-depth",
        type=int,
        default=SearchConfig.max_depth or 0,
        help="search depth in epochs from the current decision; 0 means unlimited",
    )
    searchy.add_argument(
        "--c-puct", type=float, default=SearchConfig.c_puct, help="exploration constant"
    )

    weighted = argparse.ArgumentParser(add_help=False)
    weighted.add_argument("--checkpoint", default=None, help="load network weights from this file")

    p = sub.add_parser("solve", parents=[common, searchy, weighted], help="compute one schedule")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("train", parents=[common, searchy], help="self-play from fresh weights")
    p.add_argument("--iterations", type=int, default=TrainingConfig.iterations)
    p.add_argument(
        "--episodes", type=int, default=TrainingConfig.episodes, help="episodes per iteration"
    )
    p.add_argument(
        "--temperature-moves",
        type=int,
        default=TrainingConfig.temperature_moves,
        help="decisions per episode sampled from the visit counts before play turns greedy",
    )
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("baseline", parents=[common], help="random-rollout statistics")
    p.add_argument("--trajectories", type=int, default=TRAJECTORIES)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("oracle", parents=[common], help="exhaustive search for the optimum")
    p.add_argument("--node-budget", type=int, default=NODE_BUDGET)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser(
        "advise", parents=[common, searchy, weighted], help="interactive play: you are the humans"
    )
    p.set_defaults(func=_cmd_advise)
    return parser


def _resolve_seed(args) -> int:
    """--seed, else $HRC_SEED, else 0; numpy's generators take no negative seed."""
    if args.seed is not None:
        name, raw = "--seed", str(args.seed)
    else:
        name, raw = SEED_ENV, os.environ.get(SEED_ENV, "0")
    try:
        seed = int(raw)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise _CliError(2, f"{name} must be a non-negative integer, got {raw!r}")
    return seed


def _load_spec(path) -> JobSpec:
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is dropped
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(3, f"cannot read jobspec: {exc}")
    try:
        return parse_jobspec(text)
    except JobSpecError as exc:
        raise _CliError(3, f"invalid jobspec: {exc}")


def _search_config(args) -> SearchConfig:
    if args.simulations < 1:
        raise _CliError(2, "--simulations must be at least 1")
    if args.max_depth < 0:
        raise _CliError(2, "--max-depth must be 0 (unlimited) or positive")
    if not math.isfinite(args.c_puct) or args.c_puct < 0:
        raise _CliError(2, "--c-puct must be a finite number, 0 or more")
    return SearchConfig(
        c_puct=args.c_puct,
        max_depth=None if args.max_depth == 0 else args.max_depth,
        simulations=args.simulations,
    )


def _make_evaluator(args, spec: JobSpec, seed: int) -> NetEvaluator:
    """Network evaluator from a checkpoint, or freshly seeded weights."""
    if args.checkpoint is None:
        params = init_params(spec.height, spec.width, seed=seed)
    else:
        try:
            params = load_checkpoint(args.checkpoint)
        except (OSError, UnicodeDecodeError) as exc:
            raise _CliError(4, f"cannot read checkpoint: {exc}")
        except CheckpointError as exc:
            raise _CliError(4, f"bad checkpoint: {exc}")
    try:
        return NetEvaluator(params, spec.height, spec.width)
    except CheckpointError as exc:
        raise _CliError(4, f"checkpoint does not fit this job: {exc}")


def _write(out_dir, name: str, text: str | None = None) -> None:
    """Write ``text`` to ``name`` in ``out_dir``, making the directory
    first; with no text, only make the directory."""
    path = os.path.join(out_dir, name)
    try:
        os.makedirs(out_dir, exist_ok=True)
        if text is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        raise _CliError(1, f"cannot write {path}: {exc}")


def _cmd_solve(args, spec: JobSpec, seed: int, strict: bool) -> int:
    config = _search_config(args)
    evaluator = _make_evaluator(args, spec, seed)
    _write(args.out, "schedule.csv")  # fail before the search, not after
    record = play(spec, search_chooser(evaluator, config), seed=seed, strict=strict)
    _write(args.out, "schedule.csv", schedule_csv(record))
    _write(args.out, "episode_log.csv", episode_log_csv(record))
    print(f"makespan {record.makespan}")
    return 0


def _cmd_train(args, spec: JobSpec, seed: int, strict: bool) -> int:
    if args.iterations < 1 or args.episodes < 1:
        raise _CliError(2, "--iterations and --episodes must be at least 1")
    if args.temperature_moves < 0:
        raise _CliError(2, "--temperature-moves must not be negative")
    config = TrainingConfig(
        iterations=args.iterations,
        episodes=args.episodes,
        search=_search_config(args),
        temperature_moves=args.temperature_moves,
        seed=seed,
        strict=strict,
    )

    def show(r):
        print(
            f"iteration {r.iteration} mean_makespan {r.mean_makespan:.6g} "
            f"best_makespan {r.best_makespan} policy_loss {r.policy_loss:.6g} "
            f"value_loss {r.value_loss:.6g}"
        )

    try:  # the loop writes its checkpoints into --out as it goes
        os.makedirs(args.out, exist_ok=True)
        reports, _ = training_loop(spec, config, out_dir=args.out, progress=show)
    except OSError as exc:
        raise _CliError(1, f"cannot write to {args.out}: {exc}")
    _write(args.out, "training_log.csv", training_log_csv(reports))
    print(f"best makespan {reports[-1].best_makespan}")
    return 0


def _cmd_baseline(args, spec: JobSpec, seed: int, strict: bool) -> int:
    if args.trajectories < 1:
        raise _CliError(2, "--trajectories must be at least 1")
    _write(args.out, "histogram.csv")
    stats = random_rollouts(spec, trajectories=args.trajectories, seed=seed, strict=strict)
    _write(args.out, "histogram.csv", histogram_csv(stats))
    print(f"trajectories {stats.count}")
    print(f"mean makespan {stats.mean:.6g}")
    print(f"min makespan {stats.min}")
    return 0


def _cmd_oracle(args, spec: JobSpec, seed: int, strict: bool) -> int:
    if args.node_budget < 1:
        raise _CliError(2, "--node-budget must be at least 1")
    _write(args.out, "oracle_report.csv")
    result = exhaustive_search(spec, node_budget=args.node_budget, strict=strict)
    _write(args.out, "oracle_report.csv", oracle_report_csv(result))
    if result.status == BUDGET_EXCEEDED:
        if result.stopped_at_depth > MAX_DEPTH:
            print(f"depth limit {MAX_DEPTH} reached after {result.nodes_expanded} nodes")
        else:
            print(f"node budget exhausted after {result.nodes_expanded} nodes")
        if result.depth_rows:
            print(f"deepest fully counted depth {result.depth_rows[-1].depth}")
        if result.optimal_makespan is not None:
            print(f"best makespan found so far {result.optimal_makespan}")
    else:
        print(f"optimal makespan {result.optimal_makespan}")
        print(f"complete routes {result.total_routes}")
        print(f"nodes visited {result.nodes_expanded}")
    return 0


def _unpickable_reason(state, agent, tid: str) -> str:
    job = state.job
    t = job.index.get(tid)
    if t is None:
        return "no such task"
    if state.completed_mask >> t & 1:
        return "already done"
    if t in state.doing:  # picked, by this agent or a teammate
        return "already being worked on"
    if state.cells[job.col[t]] != t:
        return "not on the bottom row yet"
    kind = job.kinds[t]
    if agent.is_human and kind == ROBOT_ONLY:
        return "only a robot can do it"
    if not agent.is_human and kind == HUMAN_ONLY:
        return "only a human can do it"
    waiting = job.pred[t] & ~state.completed_mask
    missing = sorted(u for i, u in enumerate(job.ids) if waiting >> i & 1)
    if missing:
        return f"waiting on {', '.join(missing)}"
    return "not available"


def _prompt_human(state, agent, out):
    """One command from the operator. Returns the action, or None to quit."""
    picks = {a.task: a for a in legal_actions(state, agent) if not a.is_noop}
    print(file=out)
    print(state.board.render(), file=out)
    print(f"clock {state.clock}", file=out)
    job = state.job
    for other, t, finish in zip(job.roster, state.doing, state.finish):
        if t >= 0:
            print(f"{other} is working on {job.ids[t]}, {finish - state.clock} left", file=out)
    available = ", ".join(sorted(picks)) if picks else "nothing"
    print(f"{agent} may pick: {available}", file=out)

    while True:
        print(f"{agent}> ", end="", flush=True, file=out)
        line = sys.stdin.readline()
        if not line:
            return None
        parts = line.strip().split()
        if not parts:
            continue
        cmd = parts[0].lower()
        if cmd == "quit":
            return None
        if cmd == "board":
            print(state.board.render(), file=out)
            continue
        if cmd == "wait":
            return NOOP
        if cmd == "pick" and len(parts) == 2:
            tid = parts[1]
            if tid in picks:
                return picks[tid]
            print(f"cannot pick {tid}: {_unpickable_reason(state, agent, tid)}", file=out)
            continue
        print("commands: pick <task>, wait, board, quit", file=out)


def _cmd_advise(args, spec: JobSpec, seed: int, strict: bool) -> int:
    config = _search_config(args)
    robots = search_chooser(_make_evaluator(args, spec, seed), config)
    _write(args.out, "schedule.csv")  # fail before the operator plays, not after
    out = sys.stdout
    stopped = False

    def choose(state, agent, rng):
        nonlocal stopped
        if agent.is_human:
            action = _prompt_human(state, agent, out)
            while action == NOOP and noop_stalls(state):
                print("waiting now would leave every agent idle; pick a task", file=out)
                action = _prompt_human(state, agent, out)
            if action is None:
                print(f"stopped at clock {state.clock}", file=out)
                stopped = True
                return None
            step = action, None, robots.follow(state, action)
        else:
            step = robots(state, agent, rng)
            action = step[0]
            print(f"{agent} waits" if action.is_noop else f"{agent} starts {action.task}", file=out)
        if step[2].clock != state.clock:
            print(f"clock advances to {step[2].clock}", file=out)
        return step

    record = play(spec, choose, seed=seed, strict=strict, record_decisions=False)
    _write(args.out, "schedule.csv", schedule_csv(record))
    if not stopped:
        print(f"makespan {record.makespan}", file=out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        seed = _resolve_seed(args)
        spec = _load_spec(args.jobspec)
        strict = not args.literal_gravity
        return args.func(args, spec, seed, strict)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except GameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
