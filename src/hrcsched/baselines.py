"""Reference schedulers: exhaustive enumeration and random play.

The exhaustive search enumerates every legal micro-decision sequence with
no pruning beyond a node budget, so it doubles as a correctness oracle for
small jobs and as a demonstration of combinatorial blow-up on big ones. It
deepens iteratively: each pass runs depth-first to a growing limit, which
makes the per-depth prefix counts exact for every completed depth even
when the budget cuts the run short. Sequences whose epoch closes with no
agent busy are dead ends (time could never advance) and are not counted as
routes.

The random baseline plays uniformly over the legal picks and declines only
when it holds none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import run_episode
from .jobspec import EITHER, HUMAN_ONLY, JobSpec, derive_precedence

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


class _Engine:
    """Flat-array game core with undo, tuned for millions of visits."""

    def __init__(self, spec: JobSpec, strict: bool):
        self.spec = spec
        self.strict = strict
        self.w = spec.width
        self.h = spec.height
        tasks = spec.tasks
        self.n = len(tasks)
        self.ids = [t.id for t in tasks]
        index = {t.id: i for i, t in enumerate(tasks)}
        self.col = [t.col for t in tasks]
        self.span = [t.span for t in tasks]
        self.dur = [t.duration for t in tasks]
        self.row = [t.row for t in tasks]
        self.grid = [-1] * (self.w * self.h)
        for i, t in enumerate(tasks):
            for c in range(t.col, t.col + t.span):
                self.grid[t.row * self.w + c] = i
        prec = derive_precedence(spec)
        self.pred = [0] * self.n
        for tid, preds in prec.items():
            mask = 0
            for p in preds:
                mask |= 1 << index[p]
            self.pred[index[tid]] = mask
        self.ok = []  # per agent, per task compatibility
        self.labels = []
        for i in range(spec.humans):
            self.labels.append(f"H{i + 1}")
            self.ok.append([t.kind in (HUMAN_ONLY, EITHER) for t in tasks])
        for i in range(spec.robots):
            self.labels.append(f"R{i + 1}")
            self.ok.append([t.kind != HUMAN_ONLY for t in tasks])
        self.agents = len(self.labels)
        self.busy_task = [-1] * self.agents
        self.busy_rem = [0] * self.agents
        self.declined = [False] * self.agents
        self.taken = 0
        self.completed = 0
        self.full = (1 << self.n) - 1
        self.clock = 0

    def next_pending(self):
        for a in range(self.agents):
            if self.busy_task[a] < 0 and not self.declined[a]:
                return a
        return None

    def any_busy(self):
        return any(t >= 0 for t in self.busy_task)

    def legal(self, agent):
        """Pickable task indices for an idle agent, left to right."""
        grid, ok = self.grid, self.ok[agent]
        out = []
        last = -1
        for c in range(self.w):
            t = grid[c]
            if t >= 0 and t != last:
                last = t
                if (
                    ok[t]
                    and not (self.taken >> t) & 1
                    and (not self.strict or self.pred[t] & ~self.completed == 0)
                ):
                    out.append(t)
        return out

    def apply(self, agent, task):
        """One decision plus the epoch close when it was the last. Returns an
        undo journal."""
        journal = []
        grid, w = self.grid, self.w
        if task is None:
            self.declined[agent] = True
            journal.append(("d", agent))
        else:
            lo, hi = self.col[task], self.col[task] + self.span[task]
            for c in range(lo, hi):
                grid[c] = -1
            self.row[task] = -1
            self.busy_task[agent] = task
            self.busy_rem[agent] = self.dur[task]
            self.taken |= 1 << task
            # Stones only move down and a fall never blocks another stone's
            # fall, so the fixpoint is order independent; chasing freshly
            # emptied cells reaches it without rescanning the board.
            descents = []
            top = w * (self.h - 1)
            queue = list(range(lo, hi))
            while queue:
                cell = queue.pop()
                if cell >= top:
                    continue
                t = grid[cell + w]
                if t < 0:
                    continue
                r = self.row[t]
                blo = (r - 1) * w + self.col[t]
                bhi = blo + self.span[t]
                if all(grid[cc] < 0 for cc in range(blo, bhi)):
                    for cc in range(blo, bhi):
                        grid[cc] = t
                        grid[cc + w] = -1
                    self.row[t] = r - 1
                    descents.append(t)
                    queue.extend(range(blo + w, bhi + w))
                    if blo >= w:
                        queue.extend(range(blo - w, bhi - w))
            journal.append(("p", agent, task, descents))

        if self.next_pending() is None and self.any_busy():
            rem = self.busy_rem
            elapsed = min(rem[a] for a in range(self.agents) if self.busy_task[a] >= 0)
            freed = []
            for a in range(self.agents):
                if self.busy_task[a] >= 0:
                    rem[a] -= elapsed
                    if rem[a] == 0:
                        freed.append((a, self.busy_task[a]))
                        self.completed |= 1 << self.busy_task[a]
                        self.busy_task[a] = -1
            prev_declined = self.declined[:]
            for a in range(self.agents):
                self.declined[a] = False
            journal.append(("a", elapsed, freed, prev_declined, self.taken))
            self.taken = 0
            self.clock += elapsed
        return journal

    def undo(self, journal):
        grid, w = self.grid, self.w
        for entry in reversed(journal):
            op = entry[0]
            if op == "a":
                _, elapsed, freed, prev_declined, prev_taken = entry
                self.clock -= elapsed
                for a in range(self.agents):
                    if self.busy_task[a] >= 0:
                        self.busy_rem[a] += elapsed
                for a, t in freed:
                    self.busy_task[a] = t
                    self.busy_rem[a] = elapsed
                    self.completed &= ~(1 << t)
                self.declined = prev_declined
                self.taken = prev_taken
            elif op == "p":
                _, agent, task, descents = entry
                for t in reversed(descents):
                    r = self.row[t]
                    lo, hi = r * w + self.col[t], r * w + self.col[t] + self.span[t]
                    for cc in range(lo, hi):
                        grid[cc + w] = t
                        grid[cc] = -1
                    self.row[t] = r + 1
                self.busy_task[agent] = -1
                self.busy_rem[agent] = 0
                self.taken &= ~(1 << task)
                self.row[task] = 0
                for c in range(self.col[task], self.col[task] + self.span[task]):
                    grid[c] = task
            else:
                self.declined[entry[1]] = False


def exhaustive_search(
    spec: JobSpec, node_budget: int = 10_000_000, strict: bool = True
) -> OracleResult:
    """Enumerate every legal decision sequence, deepening level by level.

    Voluntary declines are part of the action space (waiting for a partner
    to free a task can shorten the schedule), so the reported optimum is a
    true lower bound for any legal play. The budget counts prefix visits
    summed over all deepening passes.
    """
    eng = _Engine(spec, strict)
    visits = [0]
    best = [None, None]  # makespan, route
    stack: list[tuple[str, str | None]] = []

    # per-pass counters, rebound by run_pass
    counters = {}

    def visit(depth, limit):
        if visits[0] >= node_budget:
            raise _BudgetStop
        visits[0] += 1
        counters["nodes"][depth] += 1
        if eng.completed == eng.full:
            counters["routes"][depth] += 1
            counters["leaves"][depth] += 1
            if best[0] is None or eng.clock < best[0]:
                best[0] = eng.clock
                best[1] = stack[:]
            return
        agent = eng.next_pending()
        if agent is None:
            return  # stalled: every agent idle and declined, a dead end
        if depth == limit:
            counters["routes"][depth] += 1
            counters["frontier"] = True
            return
        counters["routes"][depth] += 1
        label = eng.labels[agent]
        for task in eng.legal(agent) + [None]:
            journal = eng.apply(agent, task)
            stack.append((label, None if task is None else eng.ids[task]))
            visit(depth + 1, limit)
            stack.pop()
            eng.undo(journal)

    completed_rows: list[DepthRow] = []
    limit = 0
    while True:
        limit += 1
        counters = {
            "nodes": [0] * (limit + 1),
            "routes": [0] * (limit + 1),
            "leaves": [0] * (limit + 1),
            "frontier": False,
        }
        try:
            visit(0, limit)
        except _BudgetStop:
            return OracleResult(
                status=BUDGET_EXCEEDED,
                optimal_makespan=best[0],
                optimal_route=best[1],
                depth_rows=completed_rows,
                nodes_expanded=visits[0],
                stopped_at_depth=limit,
            )
        completed_rows = [
            DepthRow(d, counters["routes"][d], counters["nodes"][d], counters["leaves"][d])
            for d in range(limit + 1)
        ]
        if not counters["frontier"]:
            return OracleResult(
                status=COMPLETE,
                optimal_makespan=best[0],
                optimal_route=best[1],
                depth_rows=completed_rows,
                nodes_expanded=visits[0],
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
        picks = [a for a in actions if not a.is_noop]
        if not picks:
            return actions[-1]  # NoOp is always last
        return picks[int(rng.integers(len(picks)))]

    seeds = np.random.SeedSequence(seed).generate_state(max(trajectories, 1), dtype=np.uint64)
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
