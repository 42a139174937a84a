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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .board import Board
from .jobspec import EITHER, HUMAN_ONLY, ROBOT_ONLY, JobSpec, Task, derive_precedence


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


@dataclass(frozen=True)
class AgentState:
    task: str | None = None
    remaining: int = 0

    @property
    def busy(self):
        return self.task is not None


IDLE = AgentState()


@dataclass(frozen=True)
class JobContext:
    """Immutable per-job data shared by every state of an episode."""

    spec: JobSpec
    precedence: dict[str, frozenset[str]]
    strict: bool
    roster: tuple[Agent, ...]  # humans first, then robots, by index
    tasks: dict[str, Task]

    @classmethod
    def build(cls, spec: JobSpec, strict: bool = True) -> "JobContext":
        roster = tuple(
            [Agent("H", i + 1) for i in range(spec.humans)]
            + [Agent("R", i + 1) for i in range(spec.robots)]
        )
        return cls(
            spec=spec,
            precedence=derive_precedence(spec),
            strict=strict,
            roster=roster,
            tasks={t.id: t for t in spec.tasks},
        )

    def total_duration(self) -> int:
        return self.spec.total_duration()


@dataclass
class GameState:
    job: JobContext
    board: Board
    agents: dict[Agent, AgentState]
    clock: int = 0
    completed: frozenset[str] = frozenset()
    # epoch bookkeeping, reset when time advances
    declined: frozenset[Agent] = frozenset()
    taken: frozenset[str] = frozenset()

    def copy(self) -> "GameState":
        return GameState(
            job=self.job,
            board=self.board.copy(),
            agents=dict(self.agents),
            clock=self.clock,
            completed=self.completed,
            declined=self.declined,
            taken=self.taken,
        )


@dataclass
class TransitionResult:
    next: GameState
    reward: int
    elapsed: int
    freed: list[Agent]


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
    return GameState(
        job=job,
        board=Board.from_spec(spec),
        agents={a: IDLE for a in job.roster},
    )


def is_terminal(state: GameState) -> bool:
    return len(state.completed) == len(state.job.tasks)


def next_agent(state: GameState) -> Agent | None:
    """The next idle agent yet to act this epoch, or None if the epoch is done."""
    for agent in state.job.roster:
        if not state.agents[agent].busy and agent not in state.declined:
            return agent
    return None


def is_stalled(state: GameState) -> bool:
    """Every agent idle and declined while tasks remain: time cannot advance."""
    if is_terminal(state):
        return False
    if any(st.busy for st in state.agents.values()):
        return False
    return next_agent(state) is None


def _compatible(agent: Agent, kind: str) -> bool:
    if kind == EITHER:
        return True
    return kind == (HUMAN_ONLY if agent.is_human else ROBOT_ONLY)


def _pickable(state: GameState, agent: Agent, tid: str) -> bool:
    """Whether ``agent`` may pick the bottom-row stone ``tid``."""
    return (
        tid not in state.taken
        and _compatible(agent, state.board.stones[tid].kind)
        and (not state.job.strict or state.job.precedence[tid] <= state.completed)
    )


def legal_actions(state: GameState, agent: Agent) -> list[AgentAction]:
    """Picks available to an idle agent, plus NoOp, which is always allowed.

    A bottom-row stone is pickable when its kind matches the agent, it was
    not already taken this epoch, and (strict mode only) every direct
    predecessor has completed.
    """
    if state.agents[agent].busy:
        raise IllegalActionError(f"{agent} is busy and cannot act")

    actions = [pick(tid) for tid in state.board.bottom_row_tasks() if _pickable(state, agent, tid)]
    actions.append(NOOP)
    return actions


def _check_legal(state: GameState, agent: Agent, action: AgentAction) -> None:
    """Raise IllegalActionError unless ``action`` is in
    ``legal_actions(state, agent)``, testing only the picked stone."""
    if state.agents[agent].busy:
        raise IllegalActionError(f"{agent} is busy and cannot act")
    if not isinstance(action, AgentAction):
        raise IllegalActionError(f"{agent} cannot {action} here")
    tid = action.task
    if tid is None:
        return
    stone = state.board.stones.get(tid)
    if stone is None or stone.row != 0 or not _pickable(state, agent, tid):
        raise IllegalActionError(f"{agent} cannot {action} here")


def apply_pick(state: GameState, agent: Agent, action: AgentAction) -> GameState:
    """One agent's decision. Returns a new state; the input is untouched."""
    _check_legal(state, agent, action)

    nxt = state.copy()
    if action.is_noop:
        nxt.declined = state.declined | {agent}
        return nxt

    nxt.board.remove_and_cascade(action.task)
    nxt.agents[agent] = AgentState(action.task, state.job.tasks[action.task].duration)
    nxt.taken = state.taken | {action.task}
    return nxt


def _advance_in_place(state: GameState) -> tuple[int, list[Agent]]:
    """Jump ``state`` itself to the next completion instant and open a new
    epoch. Returns (elapsed time, agents freed)."""
    busy = [(a, st) for a, st in state.agents.items() if st.busy]
    if not busy:
        raise DeadlockError("no agent is busy, time cannot advance")

    elapsed = min(st.remaining for _, st in busy)
    state.clock += elapsed
    state.declined = frozenset()
    state.taken = frozenset()
    completed = set(state.completed)
    freed: list[Agent] = []
    for agent, st in busy:
        left = st.remaining - elapsed
        if left == 0:
            state.agents[agent] = IDLE
            completed.add(st.task)
            freed.append(agent)
        else:
            state.agents[agent] = AgentState(st.task, left)
    state.completed = frozenset(completed)
    return elapsed, freed


def advance_time(state: GameState) -> TransitionResult:
    """Jump to the next completion instant and open a new epoch. Returns a
    new state; the input is untouched."""
    nxt = state.copy()
    elapsed, freed = _advance_in_place(nxt)
    return TransitionResult(next=nxt, reward=-elapsed, elapsed=elapsed, freed=freed)


def transition(state: GameState, action: AgentAction) -> tuple[GameState, int, bool]:
    """Apply the pending agent's action, closing the epoch if it was last.

    Returns (next state, reward, epoch advanced). The reward is nonzero only
    on epoch-closing steps. A closing step with nobody busy leaves the state
    stalled rather than raising; callers decide how to treat that.
    """
    agent = next_agent(state)
    if agent is None:
        raise GameError("no pending agent; the epoch is already closed")
    nxt = apply_pick(state, agent, action)
    if next_agent(nxt) is None and any(st.busy for st in nxt.agents.values()):
        # nxt is this call's own copy, so time advances on it directly
        elapsed, _ = _advance_in_place(nxt)
        return nxt, -elapsed, True
    return nxt, 0, False


def noop_stalls(state: GameState) -> bool:
    """Whether the pending agent may not decline: nobody is busy and no agent
    still to act after it this epoch holds a legal pick, so the epoch could
    only end with every agent idle."""
    if any(st.busy for st in state.agents.values()):
        return False
    pending = next_agent(state)
    return all(
        legal_actions(state, agent) == [NOOP]
        for agent in state.job.roster
        if agent != pending and agent not in state.declined
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

    @property
    def total_reward(self) -> int:
        return sum(self.rewards)


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
    rng = np.random.default_rng(seed)
    decisions: list[Decision] = []
    rewards: list[int] = []
    schedule: dict[Agent, list[tuple[str, int, int]]] = {a: [] for a in state.job.roster}
    epoch = 0

    while not is_terminal(state):
        agent = next_agent(state)
        step = chooser(state, agent, rng)
        if step is None:
            break
        action, policy, nxt = step
        if record_decisions:
            decisions.append(Decision(state, agent, action, policy, epoch))
        if not action.is_noop:
            start = state.clock
            schedule[agent].append(
                (action.task, start, start + state.job.tasks[action.task].duration)
            )
        # durations are positive, so an epoch closes exactly when time moves
        if nxt.clock != state.clock:
            rewards.append(state.clock - nxt.clock)
            epoch += 1
        elif is_stalled(nxt):
            raise DeadlockError("every idle agent declined while nobody is busy")
        state = nxt

    return EpisodeRecord(
        decisions=decisions, rewards=rewards, makespan=state.clock, schedule=schedule
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
