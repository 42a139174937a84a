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
first by a probe that counts level by level. Prefixes that reach one state
share its subtree, whose clocks differ only by the state's own, so a level
holds one entry per state, keyed by what decides the play below it: the
layout, the agent and task masks, and each busy agent's task and time
left. The entry counts the prefixes that reach it and keeps the least of
them by clock, then by the ranks of their moves in each node's move list,
whose order is depth-first order; the per-depth counts are sums of those
numbers, and the best leaf is the one the deepening meets first. The
probe gives up when a live state lies ``PROBE_DEPTH`` deep, when its
count exceeds ``node_budget // PROBE_DEPTH`` visits, or as soon as the
level it is building would hold more than ``PROBE_WIDTH`` states, so a wide
level is never built whole; the deepening then runs from scratch. Either
pass gives the same result, so giving up costs only time.

The deepening is one recursive closure over the game's flat state (see
``game.py``): agents and tasks are bitmasks, and busy agents' tasks and
finish times sit in two lists; the probe holds the same state in tuples,
one per entry. Both passes expand a node through one routine, ``moves``,
which scans the next agent's picks by column and gives each move's child
by the arithmetic of the move and, when it closes the epoch, of the
earliest finish. Both keep the first of the fastest leaves by one rule.
The layout is one ``cells`` sequence per node, as in the game; a pick's
child gets its own copy, on which ``board.cascade``, the gravity routine
the game itself uses, removes the stone, so the layout alone records what
was taken this epoch. The probe runs each pick's gravity once: it keeps
the layout after a pick by layout and task, of which ``cascade`` is a pure
function, so states that reach one layout share one tuple. That memo
starts over when it holds ``PROBE_WIDTH`` entries. On a pass's last level
each child is still one visit checked against the budget, and is counted
as finished, stalled or on the frontier, but not expanded. The first pick
of a route on a floating layout settles it, as it does in play. The oracle
keeps ``moves`` of its own rather than stepping with ``legal_actions`` and
``transition``, which gives the same results in 1.45 to 1.55 times the
time (2,000 corpus jobs, seed 101).

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
# The search recurses once per level, and the deepening stops before a pass
# goes deeper than this, well under Python's recursion limit (1,000 by default).
MAX_DEPTH = 500
# under MAX_DEPTH; benchmark corpus trees are at most 13 deep
PROBE_DEPTH = 64
# The most states the probe holds at one depth, and the most layouts it keeps
# after picks, which bounds its memory. Of 2,000 corpus jobs at each of seeds
# 101, 202 and 303, the widest level holds 103 states and the most distinct
# picks of a job are 54. The desk job's fourth level would hold 306, so its
# probe gives up at that level's 257th state, 3 ms in; with no bound it went
# on to 22,498 states at depth 8 and peaked at 75 MB, against 30 MB for the
# deepening alone.
PROBE_WIDTH = 256

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
    stopped_at_depth: int | None  # MAX_DEPTH + 1 when the depth cap, not the budget, stopped it

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
    summed over all deepening passes, even when the probe answers. A tree
    deeper than ``MAX_DEPTH`` ends as ``BUDGET_EXCEEDED`` too, with every
    depth up to ``MAX_DEPTH`` counted.
    """
    job = JobContext.build(spec, strict=strict)
    w, col, span, dur = job.width, job.col, job.span, job.duration
    ids, pred, ok = job.ids, job.pred, job.ok  # ok: the mask of tasks each agent may do
    floating = job.floating
    labels = [str(a) for a in job.roster]
    agents = range(len(labels))
    everyone = (1 << len(labels)) - 1
    full = job.full

    def moves(grid, idle, declined, completed, clock, doing, finish):
        """The next agent and its moves in move order, its legal picks by
        column and then the decline, each as ``(task or -1, child)``. The
        child is ``(idle, declined, completed, clock)`` after the move, or
        None for a decline that stalls: every agent idle and declined.

        ``idle`` and ``declined`` are agent masks, ``completed`` a task
        mask; ``doing`` and ``finish`` give each busy agent's task bit and
        the clock at which it completes."""
        pend = idle & ~declined
        bit = pend & -pend
        agent = bit.bit_length() - 1
        closes = pend == bit  # the epoch closes after this agent's move
        if closes:  # the earliest finish, the agents who finish then, and their tasks
            soon, soon_agents, soon_tasks = inf, 0, 0
            for b in agents:
                if not idle >> b & 1:
                    if finish[b] < soon:
                        soon, soon_agents, soon_tasks = finish[b], 1 << b, doing[b]
                    elif finish[b] == soon:
                        soon_agents |= 1 << b
                        soon_tasks |= doing[b]
        allowed = ok[agent]
        out = []
        last = -1
        for t in grid[:w]:
            if t != last and t >= 0:
                last = t
                if allowed >> t & 1 and not pred[t] & ~completed:
                    at = clock + dur[t]
                    if not closes:
                        child = (idle ^ bit, declined, completed, clock)
                    elif at < soon:
                        child = (idle, 0, completed | 1 << t, at)
                    elif at == soon:
                        child = (idle | soon_agents, 0, completed | soon_tasks | 1 << t, at)
                    else:
                        child = (idle ^ bit | soon_agents, 0, completed | soon_tasks, soon)
                    out.append((t, child))
        if not closes:
            child = (idle, declined | bit, completed, clock)
        elif soon == inf:
            child = None
        else:
            child = (idle | soon_agents, 0, completed | soon_tasks, soon)
        out.append((-1, child))
        return agent, out

    def route(path):
        """The moves of ``path`` as (agent label, task id or None), first
        move first. A path is ``()`` or ``(the parent's path, rank, agent,
        task)``, the rank being the move's place in ``moves``' list, so paths
        of one depth sort in depth-first order. Either pass keeps the first
        of the fastest leaves, the least ``(clock, depth, path)``."""
        out = []
        while path:
            path, _, agent, t = path
            out.append((labels[agent], ids[t] if t >= 0 else None))
        return out[::-1]

    def probe():
        """Count every depth's prefixes level by level, one entry per state,
        and return the result the deepening would give, or None to give up.

        An entry holds the number of prefixes that reach its state and, of
        those, the path of the least by clock, then by path."""
        # key -> [prefixes, path, (grid, idle, declined, completed, clock, doing, finish)]
        rest = (0,) * len(labels)
        level = {None: [1, (), (tuple(spec.layout()), everyone, 0, 0, 0, rest, rest)]}
        nodes, routes, leaves = [1], [1], [0]
        best = None  # (clock, depth, path) of the first of the fastest leaves
        depth = 0
        cap = node_budget // PROBE_DEPTH  # under it even the deepening fits the budget
        after_pick = {}  # (grid, task) -> the layout cascade leaves
        while level:
            if depth == PROBE_DEPTH or len(level) > PROBE_WIDTH:
                return None
            depth += 1
            below = {}
            count = live = ended = 0
            for prefixes, path, state in level.values():
                grid, _, _, _, clock, doing, finish = state
                agent, children = moves(*state)
                count += prefixes * len(children)
                for rank, (t, child) in enumerate(children):
                    if child is None:
                        continue
                    idle_after, declined, done, now = child
                    if done == full:
                        ended += prefixes
                        step = (path, rank, agent, t)
                        if best is None or (now, depth, step) < best:
                            best = (now, depth, step)
                        continue
                    live += prefixes
                    if t < 0:
                        cells, tasks, ends = grid, doing, finish
                    else:
                        cells = after_pick.get((grid, t))
                        if cells is None:
                            if len(after_pick) >= PROBE_WIDTH:
                                after_pick.clear()
                            cells = list(grid)
                            cascade(cells, col, span, w, t, floating)
                            cells = after_pick[grid, t] = tuple(cells)
                        tasks = doing[:agent] + (1 << t,) + doing[agent + 1:]
                        ends = finish[:agent] + (clock + dur[t],) + finish[agent + 1:]
                    # busy agents' tasks and time left; idle agents' entries are stale
                    key = (cells, idle_after, declined, done, *[
                        (tasks[b], ends[b] - now) for b in agents if not idle_after >> b & 1
                    ])
                    entry = below.get(key)
                    if entry is None:
                        if len(below) == PROBE_WIDTH:  # a level too wide: give up now
                            return None
                        below[key] = [
                            prefixes, (path, rank, agent, t),
                            (cells, idle_after, declined, done, now, tasks, ends),
                        ]
                        continue
                    entry[0] += prefixes
                    kept = entry[2][4]
                    if now < kept or now == kept and (path, rank, agent, t) < entry[1]:
                        entry[1:] = (
                            (path, rank, agent, t),
                            (cells, idle_after, declined, done, now, tasks, ends),
                        )
            nodes.append(count)
            routes.append(live + ended)
            leaves.append(ended)
            if sum(nodes) > cap:
                return None
            level = below
        clock, _, path = best
        # the deepening's last pass, to this depth, is the first to find no
        # unfinished route; pass n visits every prefix up to depth n
        return OracleResult(
            status=COMPLETE, optimal_makespan=clock, optimal_route=route(path),
            depth_rows=[DepthRow(d, routes[d], nodes[d], leaves[d]) for d in range(depth + 1)],
            nodes_expanded=sum(accumulate(nodes)) - nodes[0],
            stopped_at_depth=None,
        )

    probed = probe()
    if probed is not None:
        return probed

    doing = [0] * len(labels)  # task bit of each busy agent
    finish = [0] * len(labels)  # clock at which each busy agent's task completes
    visits = limit = 0
    best = None  # (clock, depth, path) of the first of the fastest leaves
    nodes = routes = leaves = []  # counters of the current pass, rebound per pass
    frontier = True

    def expand(depth, path, grid, idle, declined, completed, clock):
        """Visit the children of a live node on layout ``grid``, reached by
        ``path``; busy agents' tasks sit in ``doing`` and ``finish``."""
        nonlocal visits, frontier, best
        depth += 1
        final = depth == limit  # count the children, expand none
        agent, children = moves(grid, idle, declined, completed, clock, doing, finish)
        saved = doing[agent], finish[agent]
        for rank, (t, child) in enumerate(children):
            if visits >= node_budget:
                raise _BudgetStop
            visits += 1
            nodes[depth] += 1
            if child is None:
                continue
            routes[depth] += 1
            if child[2] == full:
                leaves[depth] += 1
                found = (child[3], depth, (path, rank, agent, t))
                if best is None or found < best:
                    best = found
            elif final:
                frontier = True
            elif t < 0:
                expand(depth, (path, rank, agent, t), grid, *child)
            else:
                doing[agent], finish[agent] = 1 << t, clock + dur[t]
                cells = grid[:]
                cascade(cells, col, span, w, t, floating)
                expand(depth, (path, rank, agent, t), cells, *child)
        doing[agent], finish[agent] = saved

    status, stopped_at = COMPLETE, None
    completed_rows: list[DepthRow] = []
    while frontier:
        limit += 1
        nodes, routes, leaves = [1] + [0] * limit, [1] + [0] * limit, [0] * (limit + 1)
        frontier = False
        try:
            if limit > MAX_DEPTH or visits >= node_budget:  # the depth cap, or no root visit
                raise _BudgetStop
            visits += 1
            expand(0, (), spec.layout(), everyone, 0, 0, 0)
        except _BudgetStop:
            status, stopped_at = BUDGET_EXCEEDED, limit
            break
        completed_rows = [DepthRow(d, routes[d], nodes[d], leaves[d]) for d in range(limit + 1)]
    return OracleResult(
        status=status, optimal_makespan=best[0] if best else None,
        optimal_route=route(best[2]) if best else None,
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
        if picks < 2:
            # NoOp, or the only pick: numpy draws nothing from the stream for
            # rng.integers(1), so skipping that call leaves every later draw as it was
            return actions[0]
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
