"""Property tests of the game core over generated layouts.

The layouts are ones ``random_instance`` never makes: stones on random
free cells, so stacks float over gaps and spans of two or three columns
rest on a single column, with rosters of up to three humans and three
robots. Every layout has a stone in the bottom row, and every task kind
has an agent who can do it.
"""

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from hrcsched import (
    COMPLETE,
    HUMAN_ONLY,
    NOOP,
    ROBOT_ONLY,
    Board,
    JobContext,
    JobSpec,
    Task,
    derive_precedence,
    exhaustive_search,
    initial_state,
    is_stalled,
    is_terminal,
    legal_actions,
    next_agent,
    pick,
    transition,
)
from hrcsched.game import noop_stalls

from conftest import bottom_row, id_grid
from test_baselines import reference_search
from test_board import ReferenceBoard, reference_cascade

PROPERTY = settings(derandomize=True, deadline=None, max_examples=300)


@st.composite
def jobs(draw, max_tasks=10, max_agents=6):
    width = draw(st.integers(1, 4))
    height = draw(st.integers(1, 5))
    humans = draw(st.integers(0, min(3, max_agents - 1)))
    robots = draw(st.integers(0 if humans else 1, min(3, max_agents - humans)))
    kinds = "E" + "H" * (humans > 0) + "R" * (robots > 0)
    used: set[tuple[int, int]] = set()
    tasks = []
    for i in range(draw(st.integers(1, 3 * max_tasks))):
        if len(tasks) == max_tasks:
            break
        span = draw(st.integers(1, min(3, width)))
        col = draw(st.integers(0, width - span))
        # the first stone sits on the bottom row, so play can start
        row = 0 if i == 0 else draw(st.integers(0, height - 1))
        cells = {(row, c) for c in range(col, col + span)}
        if cells & used:
            continue
        used |= cells
        kind = draw(st.sampled_from(kinds))
        tasks.append(Task(f"t{i}", kind, draw(st.integers(1, 9)), col, row, span))
    return JobSpec(width, height, humans, robots, tuple(tasks)), draw(st.booleans())


def random_episode(spec, strict, seed, after_pick=None):
    """A uniformly random legal episode that declines only without a pick.
    Returns (rewards, makespan)."""
    rng = np.random.default_rng(seed)
    state = initial_state(spec, strict=strict)
    rewards = []
    while not is_terminal(state):
        actions = legal_actions(state, next_agent(state))
        action = actions[int(rng.integers(len(actions) - 1))] if len(actions) > 1 else actions[0]
        state, reward, advanced = transition(state, action)
        if advanced:
            rewards.append(reward)
        if after_pick is not None and not action.is_noop:
            after_pick(state)
    return rewards, state.clock


@PROPERTY
@given(jobs(), st.integers(0, 2**32 - 1))
def test_board_is_at_a_gravity_fixpoint_after_every_pick(job, seed):
    spec, strict = job

    def settled(state):
        assert state.board.is_gravity_fixpoint()
        # every stone fills exactly the span cells from its column, in one row
        job, w = state.job, state.job.width
        where: dict[int, list[int]] = {}
        for k, t in enumerate(state.cells):
            if t >= 0:
                where.setdefault(t, []).append(k)
        for t, ks in where.items():
            base = ks[0] // w * w
            assert ks == [base + c for c in range(job.col[t], job.col[t] + job.span[t])]

    random_episode(spec, strict, seed, settled)


@PROPERTY
@given(jobs(), st.integers(0, 2**32 - 1))
def test_cascade_matches_full_rescans(job, seed):
    spec, _ = job
    rng = np.random.default_rng(seed)
    board = Board.from_spec(spec)
    slow = ReferenceBoard(board)
    while bottom_row(board):
        tid = str(rng.choice(bottom_row(board)))
        assert board.remove_and_cascade(tid).descents == reference_cascade(slow, tid)
        assert id_grid(board) == slow.grid


@PROPERTY
@given(jobs())
def test_predecessor_masks_follow_derive_precedence(job):
    spec, strict = job
    context = JobContext.build(spec, strict=strict)
    ids = context.ids
    masks = {
        tid: frozenset(ids[j] for j in range(len(ids)) if context.pred[i] >> j & 1)
        for i, tid in enumerate(ids)
    }
    if strict:
        assert masks == derive_precedence(spec)
    else:
        assert not any(context.pred)


def reference_precedence(spec):
    """``derive_precedence`` written apart from the flat layout: for each
    column a task covers, the nearest stone below it, found by row."""
    occupied = {(t.row, c): t.id for t in spec.tasks for c in range(t.col, t.col + t.span)}
    result = {}
    for t in spec.tasks:
        preds = set()
        for c in range(t.col, t.col + t.span):
            for r in range(t.row - 1, -1, -1):
                below = occupied.get((r, c))
                if below is not None:
                    preds.add(below)
                    break
        result[t.id] = frozenset(preds)
    return result


@PROPERTY
@given(jobs())
def test_derive_precedence_matches_the_reference(job):
    spec, _ = job
    assert derive_precedence(spec) == reference_precedence(spec)


@PROPERTY
@given(jobs(), st.integers(0, 2**32 - 1))
def test_rewards_sum_to_minus_the_makespan(job, seed):
    spec, strict = job
    rewards, makespan = random_episode(spec, strict, seed)
    assert sum(rewards) == -makespan
    assert all(r < 0 for r in rewards)


@settings(PROPERTY, max_examples=100)
@given(jobs(max_tasks=5, max_agents=3), st.integers(0, 2**32 - 1))
def test_oracle_optimum_bounds_every_episode(job, seed):
    spec, strict = job
    result = exhaustive_search(spec, strict=strict)
    assert result.status == COMPLETE
    for k in range(5):
        _, makespan = random_episode(spec, strict, seed + k)
        assert result.optimal_makespan <= makespan


@settings(PROPERTY, max_examples=100)
@given(jobs(max_tasks=5, max_agents=3), st.integers(1, 3_000))
def test_oracle_matches_plain_iterative_deepening_under_any_budget(job, budget):
    spec, strict = job
    expected = reference_search(spec, node_budget=budget, strict=strict)
    assert exhaustive_search(spec, node_budget=budget, strict=strict) == expected


# Shrinking re-runs reference_search at the default budget on every
# candidate, so a failure would take minutes to shrink; it is reported
# unshrunk instead, in seconds.
@settings(PROPERTY, max_examples=100, phases=[p for p in Phase if p is not Phase.shrink])
@given(jobs(max_tasks=5, max_agents=3))
def test_oracle_matches_plain_iterative_deepening_at_the_default_budget(job):
    # small trees fit the probe pass, so this checks its one-pass counts
    spec, strict = job
    assert exhaustive_search(spec, strict=strict) == reference_search(spec, strict=strict)


def reference_turn(state, declined):
    """The agent to act, by an explicit mask of the agents that declined
    this epoch: the first idle agent not in it, or -1."""
    for i, t in enumerate(state.doing):
        if t < 0 and not declined >> i & 1:
            return i
    return -1


def reference_legal(state, agent, taken):
    """An idle agent's actions, by an explicit mask of the tasks taken this
    epoch: the bottom-row stones of its kinds not in it whose direct
    predecessors have completed, then NoOp."""
    job = state.job
    barred = ROBOT_ONLY if agent.is_human else HUMAN_ONLY
    actions = []
    for t in dict.fromkeys(state.cells[: job.width]):
        if t < 0 or taken >> t & 1 or job.kinds[t] == barred:
            continue
        if not job.pred[t] & ~state.completed_mask:
            actions.append(pick(job.ids[t]))
    return actions + [NOOP]


@PROPERTY
@given(jobs(), st.integers(0, 2**32 - 1))
def test_turns_and_picks_match_explicit_epoch_masks(job, seed):
    # The state keeps no record of what was taken or declined this epoch;
    # a replay that keeps both as masks must agree on every turn, every
    # idle agent's actions and every stall, declines included.
    spec, strict = job
    rng = np.random.default_rng(seed)
    state = initial_state(spec, strict=strict)
    roster = state.job.roster
    taken = declined = 0
    while not is_terminal(state):
        p = reference_turn(state, declined)
        assert next_agent(state) == (roster[p] if p >= 0 else None)
        idle = [i for i, t in enumerate(state.doing) if t < 0]
        legal = {i: reference_legal(state, roster[i], taken) for i in idle}
        for i in idle:
            assert legal_actions(state, roster[i]) == legal[i]
        if len(idle) == len(roster):  # nobody busy: some idle agent can pick
            assert any(legal[i] != [NOOP] for i in idle)
        if p < 0:
            assert is_stalled(state)
            break
        later = [i for i in idle if i != p and not declined >> i & 1]
        stalls = len(idle) == len(roster) and all(legal[i] == [NOOP] for i in later)
        assert noop_stalls(state) == stalls
        action = legal[p][int(rng.integers(len(legal[p])))]
        state, _, advanced = transition(state, action)
        if advanced:
            taken = declined = 0
        elif action.is_noop:
            declined |= 1 << p
        else:
            taken |= 1 << state.job.index[action.task]
