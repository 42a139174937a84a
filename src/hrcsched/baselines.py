"""Reference schedulers: exhaustive enumeration and random play.

The exhaustive search enumerates every legal micro-decision sequence with
no pruning beyond a node budget, so it doubles as a correctness oracle for
small jobs and as a demonstration of combinatorial blow-up on big ones. It
deepens iteratively: each pass runs depth-first to a growing limit, which
makes the per-depth prefix counts exact for every completed depth even
when the budget cuts the run short. Sequences whose epoch closes with no
agent busy are dead ends (time could never advance) and are not counted as
routes.

The search is one recursive closure over the game's flat state (see
``game.py``): agents and tasks are bitmasks, busy agents' tasks and finish
times sit in two lists, and a pick runs ``board.cascade``, the gravity
routine the game itself uses, on one layout in place, undoing the
descents it returns on the way back. A node counts its children itself. On a
pass's last level that needs no board work: whether a child finishes the
job, stalls or waits on the frontier, and at what clock, follows from the
agents' tasks and finish times alone, never from where stones lie. So
those children are counted without removing a stone or recursing, yet each
is still one visit checked against the budget in the same depth-first
order, which keeps every count, the optimum's tie-break and the point
where the budget stops exactly those of a search that visits them one by
one. A layout with floating stones settles on a route's first pick, as it
does in play.

The random baseline plays uniformly over the legal picks and declines only
when it holds none.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np

from .board import cascade
from .game import JobContext, run_episode
from .jobspec import JobSpec

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
    nodes_expanded: int
    stopped_at_depth: int | None

    @property
    def total_routes(self) -> int:
        return sum(row.leaves for row in self.depth_rows)


class _BudgetStop(Exception):
    pass


def exhaustive_search(
    spec: JobSpec, node_budget: int = 10_000_000, strict: bool = True
) -> OracleResult:
    """Enumerate every legal decision sequence, deepening level by level.

    Voluntary declines are part of the action space (waiting for a partner
    to free a task can shorten the schedule), so the reported optimum is a
    true lower bound for any legal play. The budget counts prefix visits
    summed over all deepening passes.
    """
    job = JobContext.build(spec, strict=strict)
    w, col, span, dur = job.width, job.col, job.span, job.duration
    ids, pred, ok = job.ids, job.pred, job.ok  # ok: the mask of tasks each agent may do
    grid, row = list(job.cells), list(job.rows)  # the layout, changed in place and undone
    settled = job.settled
    labels = [str(a) for a in job.roster]
    everyone = (1 << len(labels)) - 1
    full = job.full
    doing = [0] * len(labels)  # task bit of each busy agent
    finish = [0] * len(labels)  # clock at which each busy agent's task completes
    stack: list[tuple[int, int]] = []  # (agent, task or -1 to decline) per move
    visits = 0
    best_clock = best_route = None
    limit = 0
    nodes = routes = leaves = []  # counters of the current pass, rebound per pass
    frontier = False

    def leaf(depth, clock):
        """Count a finished schedule whose route is ``stack``."""
        nonlocal best_clock, best_route
        routes[depth] += 1
        leaves[depth] += 1
        if best_clock is None or clock < best_clock:
            best_clock = clock
            best_route = [(labels[a], ids[t] if t >= 0 else None) for a, t in stack]

    def expand(depth, idle, declined, taken, completed, clock):
        """Visit the children of a live node above the pass's last level.

        ``idle`` and ``declined`` are agent masks, ``taken`` and
        ``completed`` task masks; busy agents' tasks sit in ``doing`` and
        ``finish``."""
        nonlocal visits, frontier
        pend = idle & ~declined
        bit = pend & -pend
        agent = bit.bit_length() - 1
        allowed = ok[agent] & ~taken
        moves = []
        last = -1
        for t in grid[:w]:
            if t != last and t >= 0:
                last = t
                if allowed >> t & 1 and not pred[t] & ~completed:
                    moves.append(t)
        moves.append(-1)
        depth += 1
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

        if depth == limit:
            # A child's counts depend only on agents and clock, never on the
            # board, so the last level is counted here without board work.
            room = node_budget - visits
            cut = room < len(moves)
            if cut:
                del moves[room:]
            visits += len(moves)
            nodes[depth] += len(moves)
            if not closes:
                routes[depth] += len(moves)
                frontier = True
            else:
                for t in moves:
                    at = soon if t < 0 else clock + dur[t]
                    if at == inf:
                        continue  # stalled: every agent idle and declined
                    done = soon_tasks if at >= soon else 0
                    if t >= 0 and at <= soon:
                        done |= 1 << t
                    if completed | done == full:  # then nobody works past at
                        stack.append((agent, t))
                        leaf(depth, at)
                        stack.pop()
                    else:
                        routes[depth] += 1
                        frontier = True
            if cut:
                raise _BudgetStop
            return

        saved = doing[agent], finish[agent]
        for t in moves:
            if visits >= node_budget:
                raise _BudgetStop
            visits += 1
            nodes[depth] += 1
            if t < 0:
                if not closes:
                    child = (idle, declined | bit, taken, completed, clock)
                elif soon == inf:
                    continue  # stalled: every agent idle and declined
                else:
                    child = (idle | soon_agents, 0, 0, completed | soon_tasks, soon)
            else:
                at = clock + dur[t]
                doing[agent], finish[agent] = 1 << t, at
                if not closes:
                    child = (idle ^ bit, declined, taken | 1 << t, completed, clock)
                elif at < soon:
                    child = (idle, 0, 0, completed | 1 << t, at)
                elif at == soon:
                    child = (idle | soon_agents, 0, 0, completed | soon_tasks | 1 << t, at)
                else:
                    child = (idle ^ bit | soon_agents, 0, 0, completed | soon_tasks, soon)
            stack.append((agent, t))
            if child[3] == full:
                leaf(depth, child[4])
                stack.pop()
                continue
            routes[depth] += 1
            if t < 0:
                expand(depth, *child)
                stack.pop()
                continue
            # The first pick of a route on a floating layout settles it.
            fell = cascade(grid, row, col, span, w, t, settled or idle != everyone or completed)
            expand(depth, *child)
            stack.pop()
            for s in reversed(fell):
                lo = row[s] * w + col[s]
                for cc in range(lo, lo + span[s]):
                    grid[cc + w] = s
                    grid[cc] = -1
                row[s] += 1
            row[t] = 0
            for c in range(col[t], col[t] + span[t]):
                grid[c] = t
        doing[agent], finish[agent] = saved

    completed_rows: list[DepthRow] = []
    while True:
        limit += 1
        nodes, routes, leaves = [0] * (limit + 1), [0] * (limit + 1), [0] * (limit + 1)
        frontier = False
        try:
            if visits >= node_budget:
                raise _BudgetStop
            visits += 1
            nodes[0] += 1
            if not full:
                leaf(0, 0)
            elif everyone:
                routes[0] += 1
                expand(0, everyone, 0, 0, 0, 0)
        except _BudgetStop:
            return OracleResult(
                status=BUDGET_EXCEEDED,
                optimal_makespan=best_clock,
                optimal_route=best_route,
                depth_rows=completed_rows,
                nodes_expanded=visits,
                stopped_at_depth=limit,
            )
        completed_rows = [DepthRow(d, routes[d], nodes[d], leaves[d]) for d in range(limit + 1)]
        if not frontier:
            return OracleResult(
                status=COMPLETE,
                optimal_makespan=best_clock,
                optimal_route=best_route,
                depth_rows=completed_rows,
                nodes_expanded=visits,
                stopped_at_depth=None,
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
    spec: JobSpec, trajectories: int = 1000, seed: int = 0, strict: bool = True
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
