"""Reference schedulers: exhaustive enumeration and random play.

The exhaustive search enumerates every legal micro-decision sequence with
no pruning beyond a node budget, so it doubles as a correctness oracle for
small jobs and as a demonstration of combinatorial blow-up on big ones. It
deepens iteratively: each pass runs depth-first to a growing limit, which
makes the per-depth prefix counts exact for every completed depth even
when the budget cuts the run short. Sequences whose epoch closes with no
agent busy are dead ends (time could never advance) and are not counted as
routes.

Small trees, on which the deepening repeats most of its work, are settled
first by one probe pass to ``PROBE_DEPTH`` under a cap of
``node_budget // PROBE_DEPTH`` visits. Unless it meets an unfinished route
that deep or outgrows its cap, its per-depth counts give every field the
deepening would report; otherwise the deepening runs from scratch.

The search is one recursive closure over the game's flat state (see
``game.py``): agents and tasks are bitmasks, and busy agents' tasks and
finish times sit in two lists. Every child of a node is built by one rule,
the arithmetic of the agent's move and, when the move closes the epoch, of
the earliest finish. A pick's child gets its own copy of the layout, on
which ``board.cascade``, the gravity routine the game itself uses, removes
the stone, so the layout alone records what was taken this epoch. On a
pass's last level each child is still one visit checked against the
budget, and is counted as finished, stalled or on the frontier, but not
expanded. A layout with floating stones settles on a route's first pick,
as it does in play. The oracle keeps this scan and arithmetic of its own
rather than stepping with ``legal_actions`` and ``transition``, which
gives the same results at half the speed.

The random baseline plays uniformly over the legal picks and declines only
when it holds none.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import inf

import numpy as np

from .board import cascade
from .game import JobContext, run_episode
from .jobspec import JobSpec

NODE_BUDGET = 10_000_000
TRAJECTORIES = 1000
# far under Python's recursion limit; benchmark corpus trees are at most 13
# deep, and on the desk job the probe gives up at its first node this deep
PROBE_DEPTH = 64

COMPLETE = "complete"
BUDGET_EXCEEDED = "budget_exceeded"


@dataclass
class DepthRow:
    depth: int
    routes: int  # live prefixes of this length (terminal ones included)
    nodes: int   # every prefix visited at this depth, stalled dead ends too
    leaves: int  # complete routes ending exactly at this depth


@dataclass
class OracleResult:
    status: str  # COMPLETE or BUDGET_EXCEEDED
    optimal_makespan: int | None
    optimal_route: list[tuple[str, str | None]] | None  # (agent, task or None=decline)
    depth_rows: list[DepthRow]
    nodes_expanded: int  # the deepening's visits, the budget's unit, even if probed
    stopped_at_depth: int | None

    @property
    def total_routes(self) -> int:
        return sum(row.leaves for row in self.depth_rows)


class _BudgetStop(Exception):
    pass


def exhaustive_search(
    spec: JobSpec, node_budget: int = NODE_BUDGET, strict: bool = True
) -> OracleResult:
    """Enumerate every legal decision sequence, deepening level by level.

    Voluntary declines are part of the action space (waiting for a partner
    to free a task can shorten the schedule), so the reported optimum is a
    true lower bound for any legal play. The budget counts prefix visits
    summed over all deepening passes, even when the probe pass answers.
    """
    job = JobContext.build(spec, strict=strict)
    w, col, span, dur = job.width, job.col, job.span, job.duration
    ids, pred, ok = job.ids, job.pred, job.ok  # ok: the mask of tasks each agent may do
    settled = job.settled
    labels = [str(a) for a in job.roster]
    everyone = (1 << len(labels)) - 1
    full = job.full
    doing = [0] * len(labels)  # task bit of each busy agent
    finish = [0] * len(labels)  # clock at which each busy agent's task completes
    stack: list[tuple[int, int]] = []  # (agent, task or -1 to decline) per move
    visits = 0
    best_clock = best_depth = best_route = None
    # the probe's settings; under its cap even the deepening fits the budget
    probing, limit, cap = True, PROBE_DEPTH, node_budget // PROBE_DEPTH
    nodes = routes = leaves = []  # counters of the current pass, rebound per pass
    frontier = False

    def leaf(depth, clock):
        """Count a finished schedule whose route is ``stack``."""
        nonlocal best_clock, best_depth, best_route
        routes[depth] += 1
        leaves[depth] += 1
        # the deepening meets the shallowest of the fastest leaves first
        if best_clock is None or clock < best_clock or clock == best_clock and depth < best_depth:
            best_clock, best_depth = clock, depth
            best_route = [(labels[a], ids[t] if t >= 0 else None) for a, t in stack]

    def expand(depth, grid, row, idle, declined, completed, clock):
        """Visit the children of a live node on layout ``grid``/``row``.

        ``idle`` and ``declined`` are agent masks, ``completed`` a task
        mask; busy agents' tasks sit in ``doing`` and ``finish``."""
        nonlocal visits, frontier
        pend = idle & ~declined
        bit = pend & -pend
        agent = bit.bit_length() - 1
        allowed = ok[agent]
        moves = []
        last = -1
        for t in grid[:w]:
            if t != last and t >= 0:
                last = t
                if allowed >> t & 1 and not pred[t] & ~completed:
                    moves.append(t)
        moves.append(-1)
        depth += 1
        final = depth == limit  # count the children, expand none
        closes = pend == bit  # the epoch closes after this agent's move
        if closes:
            # the earliest finish among busy agents, who finish then, and their tasks
            soon, soon_agents, soon_tasks = inf, 0, 0
            for b in range(len(labels)):
                if not idle >> b & 1:
                    if finish[b] < soon:
                        soon, soon_agents, soon_tasks = finish[b], 1 << b, doing[b]
                    elif finish[b] == soon:
                        soon_agents |= 1 << b
                        soon_tasks |= doing[b]

        saved = doing[agent], finish[agent]
        for t in moves:
            if visits >= cap:
                raise _BudgetStop
            visits += 1
            nodes[depth] += 1
            if t < 0:
                if not closes:
                    child = (idle, declined | bit, completed, clock)
                elif soon == inf:
                    continue  # stalled: every agent idle and declined
                else:
                    child = (idle | soon_agents, 0, completed | soon_tasks, soon)
            else:
                at = clock + dur[t]
                doing[agent], finish[agent] = 1 << t, at
                if not closes:
                    child = (idle ^ bit, declined, completed, clock)
                elif at < soon:
                    child = (idle, 0, completed | 1 << t, at)
                elif at == soon:
                    child = (idle | soon_agents, 0, completed | soon_tasks | 1 << t, at)
                else:
                    child = (idle ^ bit | soon_agents, 0, completed | soon_tasks, soon)
            stack.append((agent, t))
            if child[2] == full:
                leaf(depth, child[3])
            else:
                routes[depth] += 1
                if final:
                    if probing:
                        raise _BudgetStop
                    frontier = True
                elif t < 0:
                    expand(depth, grid, row, *child)
                else:
                    # The first pick of a route on a floating layout settles it.
                    cells, rows = grid[:], row[:]
                    cascade(cells, rows, col, span, w, t, settled or idle != everyone or completed)
                    expand(depth, cells, rows, *child)
            stack.pop()
        doing[agent], finish[agent] = saved

    def dig():
        """One depth-first pass from the root to ``limit`` on fresh counters."""
        nonlocal visits, nodes, routes, leaves, frontier
        nodes, routes, leaves = [0] * (limit + 1), [0] * (limit + 1), [0] * (limit + 1)
        frontier = False
        if visits >= cap:
            raise _BudgetStop
        visits += 1
        nodes[0] += 1
        routes[0] += 1
        expand(0, list(job.cells), list(job.rows), everyone, 0, 0, 0)

    status, stopped_at = COMPLETE, None
    try:
        dig()
    except _BudgetStop:
        # Deepen from scratch. doing/finish need no reset: an agent's pick
        # writes its entries before anything reads them.
        stack.clear()
        best_clock = best_depth = best_route = None
        probing, limit, cap, visits, frontier = False, 0, node_budget, 0, True
        completed_rows: list[DepthRow] = []
    else:
        # the deepening's last pass is the first to find no unfinished route
        limit = 1 + max(d for d in range(limit + 1) if routes[d] > leaves[d])
        completed_rows = [DepthRow(d, routes[d], nodes[d], leaves[d]) for d in range(limit + 1)]
        visits = sum(accumulate(nodes[:limit + 1])) - nodes[0]  # passes 1..limit
    while frontier:
        limit += 1
        try:
            dig()
        except _BudgetStop:
            status, stopped_at = BUDGET_EXCEEDED, limit
            break
        completed_rows = [DepthRow(d, routes[d], nodes[d], leaves[d]) for d in range(limit + 1)]
    return OracleResult(
        status=status, optimal_makespan=best_clock, optimal_route=best_route,
        depth_rows=completed_rows, nodes_expanded=visits, stopped_at_depth=stopped_at,
    )


def oracle_report_csv(result: OracleResult) -> str:
    lines = ["depth,routes,nodes"]
    for row in result.depth_rows:
        lines.append(f"{row.depth},{row.routes},{row.nodes}")
    return "\n".join(lines) + "\n"


@dataclass
class SampleStats:
    count: int
    makespans: tuple[int, ...]
    mean: float
    min: int
    max: int
    histogram: dict[int, int]  # makespan -> trajectories, bin width 1


def random_rollouts(
    spec: JobSpec, trajectories: int = TRAJECTORIES, seed: int = 0, strict: bool = True
) -> SampleStats:
    """Play uniformly random episodes. The draw covers the legal picks;
    declining happens only when an agent has no pick at all."""

    def chooser(state, agent, actions, rng):
        picks = len(actions) - 1  # the picks come first, NoOp last
        if not picks:
            return actions[-1]
        return actions[int(rng.integers(picks))]

    if trajectories < 1:
        raise ValueError(f"trajectories must be at least 1, got {trajectories}")
    seeds = np.random.SeedSequence(seed).generate_state(trajectories, dtype=np.uint64)
    makespans = []
    for i in range(trajectories):
        record = run_episode(
            spec, chooser, seed=int(seeds[i]), strict=strict, record_decisions=False
        )
        makespans.append(record.makespan)

    histogram: dict[int, int] = {}
    for m in sorted(makespans):
        histogram[m] = histogram.get(m, 0) + 1
    return SampleStats(
        count=trajectories,
        makespans=tuple(makespans),
        mean=float(np.mean(makespans)),
        min=int(np.min(makespans)),
        max=int(np.max(makespans)),
        histogram=histogram,
    )


def histogram_csv(stats: SampleStats) -> str:
    lines = ["makespan,count"]
    for makespan in sorted(stats.histogram):
        lines.append(f"{makespan},{stats.histogram[makespan]}")
    return "\n".join(lines) + "\n"
