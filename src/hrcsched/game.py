"""Game dynamics for collaborative assembly.

Play proceeds in decision epochs. An epoch opens at t=0 and at every task
completion. Within an epoch each idle agent is consulted once, humans
before robots and each class in index order; an agent either picks a
compatible bottom-row task (removing its stone immediately, which may make
other stones descend) or declines. Once every idle agent has acted, time
jumps to the next completion: the elapsed span is the smallest remaining
time over busy agents, and the step reward is its negation. Rewards over a
whole episode therefore sum to minus the makespan.

Two pickability modes exist. In strict mode (the default) a stone that has
descended into the bottom row stays unpickable until every direct
predecessor has completed. In literal mode any bottom-row stone is fair
game, even in the same epoch it descended.

State is flat. ``JobContext`` numbers the tasks in job order and the agents
in roster order, once per job, and holds every table that never changes:
columns, spans, durations, each agent's compatible tasks and each task's
direct predecessors as bitmasks (``derive_precedence``'s sets), and where the
initial layout floats, which only ``cascade`` reads (the first pick of a
route on a floating layout settles it). A ``GameState`` holds the layout as
``board.py`` defines it (``cells`` alone: a stone's row is its cell index
``// width``), the masks of the idle agents and of those that declined this
epoch, a bitmask of the completed tasks, the clock, and each agent's task
bit and finish clock, stale while it is idle. The rest follows: a stone
taken this epoch has left the layout, the agent to act next (``pending``)
is the first idle one not declined, and ``doing`` reads the tasks off the
masks; ``board`` is a ``Board`` over a copy of the layout. The rules are
written once, as ``JobContext.moves``, and ``legal_actions``,
``transition``, the search, random play and the oracle all step by it;
``step`` makes the state a move leads to. States are never changed once
made, so a new state shares every list its move leaves alone with the
state it came from: a pick copies ``cells``, ``tasks`` and ``finish``, and
a decline or an epoch close, which only sets agents idle, shares all
three. No caller may change a state's lists.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import inf

import numpy as np

from .board import Board, cascade, first_floating
from .jobspec import HUMAN_ONLY, ROBOT_ONLY, JobSpec, derive_precedence


class GameError(Exception):
    pass


class IllegalActionError(GameError):
    pass


class DeadlockError(GameError):
    """All agents idle, tasks remain, and nobody picked anything."""


@dataclass(frozen=True)
class Agent:
    kind: str  # "H" or "R"
    index: int  # 1-based

    def __str__(self):
        return f"{self.kind}{self.index}"

    @property
    def is_human(self):
        return self.kind == "H"


@dataclass(frozen=True)
class AgentAction:
    task: str | None

    @property
    def is_noop(self):
        return self.task is None

    def __str__(self):
        return "noop" if self.task is None else f"pick {self.task}"


NOOP = AgentAction(None)


def pick(task_id: str) -> AgentAction:
    return AgentAction(task_id)


class JobContext:
    """Immutable per-job data shared by every state and ``Board`` of a job.

    Tasks are numbered in job order and agents in roster order; every
    table is indexed by those numbers.
    """

    @classmethod
    def build(cls, spec: JobSpec, strict: bool = True) -> "JobContext":
        job = cls.__new__(cls)
        job.spec, job.strict = spec, strict
        job.roster = tuple(  # humans first, then robots, by index
            [Agent("H", i + 1) for i in range(spec.humans)]
            + [Agent("R", i + 1) for i in range(spec.robots)]
        )
        tasks = spec.tasks
        job.tasks = {t.id: t for t in tasks}
        job.width, job.height = spec.width, spec.height
        job.index = {t.id: i for i, t in enumerate(tasks)}
        job.ids = tuple(t.id for t in tasks)
        job.kinds = tuple(t.kind for t in tasks)
        job.col = tuple(t.col for t in tasks)
        job.span = tuple(t.span for t in tasks)
        job.duration = tuple(t.duration for t in tasks)
        # each task's pick action, then NoOp, so that a decline's task, -1, reads NoOp
        job.picks = tuple(AgentAction(t.id) for t in tasks) + (NOOP,)
        job.full = (1 << len(tasks)) - 1  # the mask of all tasks
        job.everyone = (1 << len(job.roster)) - 1  # the mask of all agents
        # the leftmost cell of the initial layout's first floating stone, or -1
        job.floating = first_floating(spec.layout(), job.col, job.span, job.width)
        # per agent, the mask of the tasks it may do
        human = sum(1 << i for i, kind in enumerate(job.kinds) if kind != ROBOT_ONLY)
        robot = sum(1 << i for i, kind in enumerate(job.kinds) if kind != HUMAN_ONLY)
        job.ok = (human,) * spec.humans + (robot,) * spec.robots
        # per task, the mask of its direct predecessors; none in literal mode
        pred = [0] * len(tasks)
        if strict:  # derive_precedence lists the tasks in job order
            for i, preds in enumerate(derive_precedence(spec).values()):
                for p in preds:
                    pred[i] |= 1 << job.index[p]
        job.pred = tuple(pred)
        job.moves = _move_rule(job)
        return job


def _move_rule(job: JobContext):
    # a closure reads the job's tables as locals, cheaper than attributes of
    # job, and the oracle calls moves once per node
    w, ok, pred, dur = job.width, job.ok, job.pred, job.duration
    agents = range(len(job.roster))

    def moves(cells, idle, declined, completed, clock, tasks, finish):
        """The pending agent and its moves, each as ``(task or -1, child)``:
        the legal picks by strictly increasing column, each stone once, then
        the decline. The child is ``(idle, declined, completed, clock)``
        after the move; one whose ``declined`` holds every agent is stalled.
        The arguments are a ``GameState``'s fields from ``cells`` on.

        The move closes the epoch when every other idle agent has declined:
        the clock jumps to the earliest finish over the busy agents, the
        picker included, and everyone finishing then turns idle."""
        pend = idle & ~declined
        bit = pend & -pend
        agent = bit.bit_length() - 1
        if pend != bit:  # the epoch stays open, and every pick has one child
            soon = -1  # before every pick's end
            later = (idle ^ bit, declined, completed, clock)
            wait = (idle, declined | bit, completed, clock)
        else:  # the earliest finish, the agents who finish then, and their tasks
            soon, soon_agents, soon_tasks = inf, 0, 0
            for b in agents:
                if not idle >> b & 1:
                    if finish[b] < soon:
                        soon, soon_agents, soon_tasks = finish[b], 1 << b, tasks[b]
                    elif finish[b] == soon:
                        soon_agents |= 1 << b
                        soon_tasks |= tasks[b]
            freed, done = idle | soon_agents, completed | soon_tasks
            later = (freed ^ bit, 0, done, soon)  # every pick that ends after soon
            # with nobody busy, a decline stalls: every agent idle and declined
            wait = (freed, 0, done, soon) if soon_agents else (idle, idle, completed, clock)
        allowed = ok[agent]
        out = []
        last = -1
        for t in cells[:w]:
            if t != last and t >= 0:
                last = t
                if allowed >> t & 1 and not pred[t] & ~completed:
                    at = clock + dur[t]
                    if at > soon:
                        out.append((t, later))
                    elif at < soon:
                        out.append((t, (idle, 0, completed | 1 << t, at)))
                    else:
                        out.append((t, (freed, 0, done | 1 << t, at)))
        out.append((-1, wait))
        return agent, out

    return moves


@dataclass(slots=True)
class GameState:
    """One state of play; see the module docstring.

    Its lists may be shared with the states before and after it: a pick
    copies ``cells``, ``tasks`` and ``finish``, and a decline or an epoch
    close shares all three with the state it came from. So no caller may
    change them.
    """

    job: JobContext
    cells: list[int]  # task index per cell, row 0 first, -1 when empty
    idle: int  # the mask of the agents with no task
    declined: int  # the mask of the idle agents that declined this epoch
    completed_mask: int  # the layout cannot tell a finished task from one in progress
    clock: int
    tasks: list[int]  # each agent's task bit, 1 << task index; stale while idle
    finish: list[int]  # the clock at which each agent's task completes; stale while idle

    def copy(self) -> "GameState":
        return GameState(
            self.job, self.cells[:], self.idle, self.declined, self.completed_mask,
            self.clock, self.tasks[:], self.finish[:],
        )

    @property
    def pending(self) -> int:
        """The agent to act next, the first idle one that has not declined;
        -1 once the epoch is closed."""
        pend = self.idle & ~self.declined
        return (pend & -pend).bit_length() - 1

    @property
    def doing(self) -> list[int]:
        """Each agent's task index, -1 when idle."""
        idle = self.idle
        return [-1 if idle >> i & 1 else t.bit_length() - 1 for i, t in enumerate(self.tasks)]

    @property
    def board(self) -> Board:
        """A board over a copy of ``cells``, so changing it leaves the state unchanged."""
        return Board(self.job, self.cells[:])


# The context built by the latest initial_state call. Every caller plays one
# spec many times in a row (episodes, rollouts, a CLI run), so one entry
# serves them all, and memory stays bounded however many specs a process
# parses. Contexts are immutable, so sharing one between episodes is safe.
_last_context: JobContext | None = None


def initial_state(spec: JobSpec, strict: bool = True) -> GameState:
    global _last_context
    job = _last_context
    if job is None or job.spec is not spec or job.strict != strict:
        job = _last_context = JobContext.build(spec, strict=strict)
    agents = len(job.roster)
    return GameState(job, spec.layout(), job.everyone, 0, 0, 0, [0] * agents, [0] * agents)


def is_terminal(state: GameState) -> bool:
    return state.completed_mask == state.job.full


def next_agent(state: GameState) -> Agent | None:
    """The next idle agent yet to act this epoch, or None if the epoch is done."""
    p = state.pending
    return None if p < 0 else state.job.roster[p]


def is_stalled(state: GameState) -> bool:
    """Every agent idle and declined while tasks remain: time cannot advance."""
    return state.declined == state.job.everyone and not is_terminal(state)


def moves(state: GameState) -> tuple[int, list]:
    """``state.job.moves`` over the state's own fields."""
    return state.job.moves(
        state.cells, state.idle, state.declined, state.completed_mask, state.clock,
        state.tasks, state.finish,
    )


def step(state: GameState, agent: int, task: int, child) -> GameState:
    """The state after ``agent``'s move ``(task, child)``, one of the moves
    ``state.job.moves`` lists for it. Only a pick copies lists, and runs
    ``cascade`` on its copy of the layout."""
    job = state.job
    idle, declined, done, clock = child
    if task < 0:
        return GameState(job, state.cells, idle, declined, done, clock, state.tasks, state.finish)
    cells = state.cells[:]
    cascade(cells, job.col, job.span, job.width, task, job.floating)
    tasks = state.tasks[:]
    tasks[agent] = 1 << task
    finish = state.finish[:]
    finish[agent] = state.clock + job.duration[task]
    return GameState(job, cells, idle, declined, done, clock, tasks, finish)


def legal_actions(state: GameState, agent: Agent) -> list[AgentAction]:
    """Picks available to an idle agent, plus NoOp, which is always allowed:
    its ``moves``, as if the idle agents before it had declined.

    A bottom-row stone is pickable when its kind matches the agent and
    (strict mode only) every direct predecessor has completed. A stone
    taken earlier this epoch has already left the layout.

    The order is ``moves``' order: the picks by strictly increasing column,
    each stone once, then NoOp. A plain chooser of ``run_episode`` sees it;
    the search's edges, ``select_edge``'s and ``SearchTree.run``'s tie
    breaks, ``random_rollouts``' draws and the oracle's depth-first order
    rely on it through ``moves``.
    """
    job = state.job
    if agent not in job.roster:
        raise IllegalActionError(f"{agent} is not in this job's roster")
    p = job.roster.index(agent)
    if not state.idle >> p & 1:
        raise IllegalActionError(f"{agent} is busy and cannot act")
    if p != state.pending:  # as if the idle agents before it had declined
        state = replace(state, declined=state.idle & ((1 << p) - 1))
    _, out = moves(state)
    return [job.picks[t] for t, _ in out]


def transition(state: GameState, action: AgentAction) -> tuple[GameState, int, bool]:
    """Apply the pending agent's action, closing the epoch if it was last.

    Returns (next state, reward, epoch advanced); the input is untouched.
    The action must be in the pending agent's legal actions. The reward is
    nonzero only on epoch-closing steps, which jump the clock to the next
    completion: the elapsed span is the smallest remaining time over busy
    agents. A closing step with nobody busy leaves the state stalled rather
    than raising; callers decide how to treat that.

    The action is found among the agent's ``moves`` and applied by ``step``.
    """
    job = state.job
    if not state.idle & ~state.declined:
        raise GameError("no pending agent; the epoch is already closed")
    agent, out = moves(state)
    if isinstance(action, AgentAction):
        want = -1 if action.task is None else job.index.get(action.task)
        for t, child in out:
            if t == want:
                nxt = step(state, agent, t, child)
                # durations are positive, so an epoch closes exactly when time moves
                return nxt, state.clock - nxt.clock, nxt.clock != state.clock
    raise IllegalActionError(f"{job.roster[agent]} cannot {action} here")


def noop_stalls(state: GameState) -> bool:
    """Whether the pending agent may not decline: nobody is busy and no agent
    still to act after it this epoch holds a legal pick, so the epoch could
    only end with every agent idle. With nobody busy, the agents still to
    act are exactly those after the pending one."""
    if state.idle != state.job.everyone:
        return False
    roster = state.job.roster
    return all(
        legal_actions(state, roster[i]) == [NOOP]
        for i in range(state.pending + 1, len(roster))
    )


@dataclass
class Decision:
    state: GameState
    agent: Agent
    action: AgentAction
    policy: np.ndarray | None  # distribution over columns; None from a plain chooser
    epoch: int


@dataclass
class EpisodeRecord:
    decisions: list[Decision]
    rewards: list[int]
    makespan: int  # the clock at the end of play, a stopped episode's included
    schedule: dict[Agent, list[tuple[str, int, int]]]


def play(
    spec: JobSpec,
    chooser,
    seed: int = 0,
    strict: bool = True,
    record_decisions: bool = True,
) -> EpisodeRecord:
    """Play one episode until it completes or the chooser stops it.

    ``chooser(state, agent, rng)`` makes the pending agent's move and returns
    ``(action, column policy or None, transition(state, action)'s state)``,
    or None to stop play with the record so far. Raises DeadlockError if an
    epoch ends with every agent idle and tasks still on the board.
    """
    state = initial_state(spec, strict=strict)
    job = state.job
    rng = np.random.default_rng(seed)
    decisions: list[Decision] = []
    rewards: list[int] = []
    intervals: list[list[tuple[str, int, int]]] = [[] for _ in job.roster]
    epoch = 0

    roster, full = job.roster, job.full
    while state.completed_mask != full:
        p = state.pending
        agent = roster[p]
        move = chooser(state, agent, rng)
        if move is None:
            break
        action, policy, nxt = move
        if record_decisions:
            decisions.append(Decision(state, agent, action, policy, epoch))
        task = action.task
        if task is not None:
            start = state.clock
            intervals[p].append((task, start, start + job.duration[job.index[task]]))
        # durations are positive, so an epoch closes exactly when time moves
        if nxt.clock != state.clock:
            rewards.append(state.clock - nxt.clock)
            epoch += 1
        elif is_stalled(nxt):
            raise DeadlockError("every idle agent declined while nobody is busy")
        state = nxt

    return EpisodeRecord(
        decisions=decisions,
        rewards=rewards,
        makespan=state.clock,
        schedule=dict(zip(job.roster, intervals)),
    )


def run_episode(
    spec: JobSpec,
    chooser,
    seed: int = 0,
    strict: bool = True,
    record_decisions: bool = True,
) -> EpisodeRecord:
    """``play`` with a plain chooser: ``chooser(state, agent, actions, rng)``
    returns one of ``actions``, and ``transition`` rejects anything else."""

    def choose(state, agent, rng):
        action = chooser(state, agent, legal_actions(state, agent), rng)
        return action, None, transition(state, action)[0]

    return play(spec, choose, seed=seed, strict=strict, record_decisions=record_decisions)


def schedule_csv(record: EpisodeRecord) -> str:
    """CSV of task intervals, one row per assignment, each agent's in order."""
    lines = ["agent,task,start,end"]
    for agent, intervals in record.schedule.items():
        for task, start, end in intervals:
            lines.append(f"{agent},{task},{start},{end}")
    return "\n".join(lines) + "\n"


def episode_log_csv(record: EpisodeRecord) -> str:
    """CSV of micro-decisions. Rewards appear on epoch-closing rows, so the
    reward column sums to minus the makespan."""
    lines = ["epoch,clock,agent,action,reward"]
    reward_iter = iter(record.rewards)
    for i, d in enumerate(record.decisions):
        closes = i + 1 == len(record.decisions) or record.decisions[i + 1].epoch != d.epoch
        reward = next(reward_iter, 0) if closes else 0
        action = d.action.task if not d.action.is_noop else "noop"
        lines.append(f"{d.epoch},{d.state.clock},{d.agent},{action},{reward}")
    return "\n".join(lines) + "\n"
