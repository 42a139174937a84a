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

State is flat. ``JobContext`` numbers the tasks in job order and the
agents in roster order, once per job, and holds every table that never
changes: columns, spans, durations, each agent's compatible tasks and each
task's direct predecessors as bitmasks (``derive_precedence``'s sets), and
whether the initial layout (``JobSpec.layout``) is at its gravity
fixpoint. A ``GameState`` holds the layout as ``board.py`` defines it
(``cells`` alone: a stone's row is its cell index ``// width``), each
agent's task index (-1 when idle) and finish clock, the clock, a bitmask
of the completed tasks, and the index of the agent to act next (-1 once
the epoch is closed). Nothing else is stored, because the rest follows: a
stone taken this epoch has left the layout, and the agents that declined
this epoch are the idle ones before the pending agent. The rules and every
caller read these fields directly; ``board`` is a ``Board`` over a copy of
the layout, built on each access. ``transition`` is the one step function:
it acts for the pending agent and closes the epoch when that agent was the
last to act. States are never changed once made: a pick copies its state's
lists once, and a decline shares the layout with the state it came from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .board import Board, cascade
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
        job.picks = tuple(AgentAction(t.id) for t in tasks)  # each task's pick action
        job.full = (1 << len(tasks)) - 1  # the mask of all tasks
        # whether the initial layout is at its gravity fixpoint
        job.settled = Board(job, spec.layout(), False).is_gravity_fixpoint()
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
        return job


@dataclass(slots=True)
class GameState:
    """One state of play; see the module docstring."""

    job: JobContext
    cells: list[int]  # task index per cell, row 0 first, -1 when empty
    doing: list[int]  # task index per agent, -1 when idle
    finish: list[int]  # clock at which each busy agent's task completes
    clock: int
    # unlike the tasks taken and the agents declined this epoch, these two
    # follow from nothing else: the layout cannot tell a finished task from
    # one in progress, and no other field records whose turn it is
    completed_mask: int
    pending: int  # the agent to act next, -1 once the epoch is closed

    def copy(self) -> "GameState":
        return GameState(
            self.job, self.cells[:], self.doing[:], self.finish[:], self.clock,
            self.completed_mask, self.pending,
        )

    @property
    def board(self) -> Board:
        """A board over a copy of ``cells``, so changing it leaves the state unchanged,
        settled as the job's layout is (an unsettled first cascade is exact on any layout)."""
        return Board(self.job, self.cells[:], self.job.settled)


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
    return GameState(job, spec.layout(), [-1] * agents, [0] * agents, 0, 0, 0)


def is_terminal(state: GameState) -> bool:
    return state.completed_mask == state.job.full


def next_agent(state: GameState) -> Agent | None:
    """The next idle agent yet to act this epoch, or None if the epoch is done."""
    p = state.pending
    return None if p < 0 else state.job.roster[p]


def is_stalled(state: GameState) -> bool:
    """Every agent idle and declined while tasks remain: time cannot advance."""
    return state.pending < 0 and max(state.doing) < 0 and not is_terminal(state)


def _first_idle(doing: list[int], start: int) -> int:
    """The first idle agent from ``start`` on, or -1."""
    for i in range(start, len(doing)):
        if doing[i] < 0:
            return i
    return -1


def legal_actions(state: GameState, agent: Agent) -> list[AgentAction]:
    """Picks available to an idle agent, plus NoOp, which is always allowed.

    A bottom-row stone is pickable when its kind matches the agent and
    (strict mode only) every direct predecessor has completed. A stone
    taken earlier this epoch has already left the layout.

    The order is a contract: the picks by strictly increasing column, each
    stone once, then NoOp. ``search.select_edge``, ``SearchTree.run``,
    ``expand_and_evaluate`` and ``random_rollouts`` rely on it.
    """
    job = state.job
    roster = job.roster
    p = state.pending
    if p < 0 or roster[p] is not agent:
        if agent not in roster:
            raise IllegalActionError(f"{agent} is not in this job's roster")
        p = roster.index(agent)
    if state.doing[p] >= 0:
        raise IllegalActionError(f"{agent} is busy and cannot act")
    allowed = job.ok[p]
    pred, done, picks = job.pred, state.completed_mask, job.picks
    actions = []
    last = -1
    for t in state.cells[: job.width]:
        if t != last:
            last = t
            if t >= 0 and allowed >> t & 1 and not pred[t] & ~done:
                actions.append(picks[t])
    actions.append(NOOP)
    return actions


def transition(state: GameState, action: AgentAction) -> tuple[GameState, int, bool]:
    """Apply the pending agent's action, closing the epoch if it was last.

    Returns (next state, reward, epoch advanced); the input is untouched.
    The action must be in the pending agent's legal actions. The reward is
    nonzero only on epoch-closing steps, which jump the clock to the next
    completion: the elapsed span is the smallest remaining time over busy
    agents. A closing step with nobody busy leaves the state stalled rather
    than raising; callers decide how to treat that.
    """
    p = state.pending
    if p < 0:
        raise GameError("no pending agent; the epoch is already closed")
    job = state.job
    if not isinstance(action, AgentAction):
        raise IllegalActionError(f"{job.roster[p]} cannot {action} here")
    if action.task is None:
        doing = state.doing
        # the layout is shared; doing and finish are copied so that an
        # epoch close can advance the new state in place
        nxt = GameState(
            job, state.cells, doing[:], state.finish[:], state.clock,
            state.completed_mask, _first_idle(doing, p + 1),
        )
    else:
        t = job.index.get(action.task)
        done = state.completed_mask
        cells = state.cells
        if t is None or cells[job.col[t]] != t or not job.ok[p] >> t & 1 or job.pred[t] & ~done:
            raise IllegalActionError(f"{job.roster[p]} cannot {action} here")
        cells, doing, finish = cells[:], state.doing[:], state.finish[:]
        settled = job.settled or done != 0 or max(doing) >= 0  # a pick settles the layout
        cascade(cells, job.col, job.span, job.width, t, settled)
        doing[p] = t
        finish[p] = state.clock + job.duration[t]
        nxt = GameState(job, cells, doing, finish, state.clock, done, _first_idle(doing, p + 1))
    doing, finish = nxt.doing, nxt.finish
    if nxt.pending >= 0 or max(doing) < 0:
        return nxt, 0, False
    # the epoch closes: every agent is busy or has declined, and someone is busy
    soon = -1  # the earliest finish; every finish is positive
    for i, t in enumerate(doing):
        if t >= 0 and (soon < 0 or finish[i] < soon):
            soon = finish[i]
    done = nxt.completed_mask
    for i, t in enumerate(doing):
        if t >= 0 and finish[i] == soon:
            done |= 1 << t
            doing[i] = -1
    elapsed = soon - nxt.clock
    nxt.completed_mask, nxt.clock = done, soon
    nxt.pending = _first_idle(doing, 0)
    return nxt, -elapsed, True


def noop_stalls(state: GameState) -> bool:
    """Whether the pending agent may not decline: nobody is busy and no agent
    still to act after it this epoch holds a legal pick, so the epoch could
    only end with every agent idle. With nobody busy, the agents still to
    act are exactly those after the pending one."""
    if max(state.doing) >= 0:
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

    while not is_terminal(state):
        agent = next_agent(state)
        step = chooser(state, agent, rng)
        if step is None:
            break
        action, policy, nxt = step
        if record_decisions:
            decisions.append(Decision(state, agent, action, policy, epoch))
        task = action.task
        if task is not None:
            start = state.clock
            intervals[state.pending].append(
                (task, start, start + job.duration[job.index[task]])
            )
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

    def step(state, agent, rng):
        action = chooser(state, agent, legal_actions(state, agent), rng)
        return action, None, transition(state, action)[0]

    return play(spec, step, seed=seed, strict=strict, record_decisions=record_decisions)


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
