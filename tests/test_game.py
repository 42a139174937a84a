"""Decision-epoch game mechanics on small hand-checked boards."""

import numpy as np
import pytest

from hrcsched import (
    Agent,
    DeadlockError,
    GameError,
    IllegalActionError,
    JobSpec,
    JobSpecError,
    NOOP,
    Task,
    desk_fixture,
    episode_log_csv,
    initial_state,
    is_stalled,
    is_terminal,
    legal_actions,
    next_agent,
    parse_jobspec,
    run_episode,
    schedule_csv,
    transition,
)
from hrcsched.game import pick

from conftest import TINY_TEXT, random_instance

H1 = Agent("H", 1)
R1 = Agent("R", 1)


def tiny_state(strict=True):
    return initial_state(parse_jobspec(TINY_TEXT), strict=strict)


def first_pick(state, agent, actions, rng):
    return actions[0]


def random_pick(state, agent, actions, rng):
    picks = [a for a in actions if not a.is_noop]
    if picks:
        return picks[rng.integers(len(picks))]
    return NOOP


def scripted(steps):
    """Chooser keyed by (clock, agent label); raises on an unplanned turn."""

    def choose(state, agent, actions, rng):
        action = steps[(state.clock, str(agent))]
        assert action in actions
        return action

    return choose


def test_initial_state():
    state = tiny_state()
    assert state.clock == 0
    assert state.job.roster == (H1, R1)
    assert state.doing == [-1, -1]
    assert not is_terminal(state)
    assert not is_stalled(state)


def test_humans_act_before_robots():
    assert next_agent(tiny_state()) == H1


def test_legal_actions_bottom_row_and_kind():
    state = tiny_state()
    # B sits above A, so only A and C are exposed; C takes either agent
    assert legal_actions(state, H1) == [pick("A"), pick("C"), NOOP]
    assert legal_actions(state, R1) == [pick("C"), NOOP]


def test_legal_actions_busy_agent_raises():
    state, _, _ = transition(tiny_state(), pick("A"))
    with pytest.raises(IllegalActionError):
        legal_actions(state, H1)


def test_legal_actions_rejects_agent_outside_roster():
    with pytest.raises(IllegalActionError):
        legal_actions(tiny_state(), Agent("H", 2))


def test_pick_exposes_stone_above():
    state = tiny_state()
    assert state.board.bottom_row_tasks() == ["A", "C"]
    nxt, _, _ = transition(state, pick("A"))
    assert nxt.board.bottom_row_tasks() == ["B", "C"]
    # the input state is untouched
    assert state.board.bottom_row_tasks() == ["A", "C"]


def test_strict_blocks_running_predecessor():
    nxt, _, _ = transition(tiny_state(), pick("A"))
    # A is still running, so its successor B stays locked
    assert legal_actions(nxt, R1) == [pick("C"), NOOP]


def test_literal_mode_allows_exposed_successor():
    nxt, _, _ = transition(tiny_state(strict=False), pick("A"))
    assert legal_actions(nxt, R1) == [pick("B"), pick("C"), NOOP]


def test_taken_task_unavailable_to_later_agent():
    spec = parse_jobspec(
        """
        board 2 1
        agents 2 0
        task x E 1 0 0
        task y E 1 1 0
        """
    )
    state = initial_state(spec)
    h2 = Agent("H", 2)
    nxt, _, _ = transition(state, pick("x"))
    assert legal_actions(nxt, h2) == [pick("y"), NOOP]


def test_transition_rejects_illegal_robot_picks():
    state, _, _ = transition(tiny_state(), NOOP)  # R1 acts once H1 declines
    with pytest.raises(IllegalActionError):
        transition(state, pick("B"))
    with pytest.raises(IllegalActionError):
        transition(state, pick("A"))


def test_transition_epoch_close_and_reward():
    state = tiny_state()
    state, reward, advanced = transition(state, pick("A"))
    assert (reward, advanced) == (0, False)
    job = state.job
    assert state.doing == [job.index["A"], -1]
    state, reward, advanced = transition(state, pick("C"))
    # shortest running task is A with 2 units left
    assert (reward, advanced) == (-2, True)
    assert state.clock == 2
    assert state.completed_mask == 1 << job.index["A"]
    assert state.doing == [-1, job.index["C"]]
    assert state.finish[1] - state.clock == 2


def test_double_decline_stalls_then_raises():
    state = tiny_state()
    state, _, advanced = transition(state, NOOP)
    assert not advanced
    state, _, advanced = transition(state, NOOP)
    assert not advanced
    assert is_stalled(state)
    with pytest.raises(GameError):
        transition(state, NOOP)


def test_run_episode_deadlock_on_universal_refusal():
    with pytest.raises(DeadlockError):
        run_episode(parse_jobspec(TINY_TEXT), lambda s, a, acts, rng: NOOP)


def test_run_episode_greedy_trace():
    record = run_episode(parse_jobspec(TINY_TEXT), first_pick, seed=0)
    assert record.makespan == 7
    assert record.rewards == [-2, -2, -3]
    assert sum(record.rewards) == -7
    assert record.schedule[H1] == [("A", 0, 2)]
    assert record.schedule[R1] == [("C", 0, 4), ("B", 4, 7)]
    # a plain chooser gives no policy
    assert [d.policy for d in record.decisions] == [None] * len(record.decisions)


def test_run_episode_waiting_beats_greedy():
    steps = {
        (0, "H1"): pick("A"),
        (0, "R1"): NOOP,
        (2, "H1"): pick("C"),
        (2, "R1"): pick("B"),
        (5, "R1"): NOOP,
    }
    record = run_episode(parse_jobspec(TINY_TEXT), scripted(steps))
    assert record.makespan == 6
    assert record.rewards == [-2, -3, -1]
    assert record.schedule[H1] == [("A", 0, 2), ("C", 2, 6)]
    assert record.schedule[R1] == [("B", 2, 5)]


def test_schedule_csv_format():
    record = run_episode(parse_jobspec(TINY_TEXT), first_pick)
    assert schedule_csv(record) == (
        "agent,task,start,end\n"
        "H1,A,0,2\n"
        "R1,C,0,4\n"
        "R1,B,4,7\n"
    )


def test_episode_log_csv_format():
    steps = {
        (0, "H1"): pick("A"),
        (0, "R1"): NOOP,
        (2, "H1"): pick("C"),
        (2, "R1"): pick("B"),
        (5, "R1"): NOOP,
    }
    record = run_episode(parse_jobspec(TINY_TEXT), scripted(steps))
    text = episode_log_csv(record)
    assert text == (
        "epoch,clock,agent,action,reward\n"
        "0,0,H1,A,0\n"
        "0,0,R1,noop,-2\n"
        "1,2,H1,C,0\n"
        "1,2,R1,B,-3\n"
        "2,5,R1,noop,-1\n"
    )
    reward_total = sum(int(line.rsplit(",", 1)[1]) for line in text.splitlines()[1:])
    assert reward_total == -record.makespan


def test_rewards_sum_to_negative_makespan():
    for seed in range(40):
        spec = random_instance(seed)
        record = run_episode(spec, random_pick, seed=seed)
        assert sum(record.rewards) == -record.makespan
        assert all(r <= 0 for r in record.rewards)


def test_schedules_are_consistent():
    for seed in range(40):
        spec = random_instance(seed)
        record = run_episode(spec, random_pick, seed=seed * 7 + 1)
        durations = {t.id: t.duration for t in spec.tasks}
        done = []
        for agent, rows in record.schedule.items():
            for prev, cur in zip(rows, rows[1:]):
                assert prev[2] <= cur[1]
            for task, start, end in rows:
                assert end - start == durations[task]
                assert 0 <= start < end <= record.makespan
                done.append(task)
        assert sorted(done) == sorted(t.id for t in spec.tasks)
        assert record.makespan == max(end for rows in record.schedule.values()
                                      for _, _, end in rows)


def test_strict_never_worse_than_sum_of_durations():
    for seed in range(20):
        spec = random_instance(seed)
        record = run_episode(spec, first_pick, seed=seed)
        assert record.makespan <= spec.total_duration()


def snapshot(state):
    """Everything a transition could change, copied out of the state."""
    return (
        state.cells[:],
        state.doing[:],
        state.finish[:],
        state.clock,
        state.completed_mask,
        state.pending,
    )


@pytest.mark.parametrize("strict", [True, False])
def test_transition_accepts_exactly_the_legal_actions(strict):
    """Over random play, transition accepts a pick of each task id, and
    NoOp, exactly when it is in legal_actions, raises IllegalActionError
    otherwise, and never changes the state it is given."""
    jobs = [(desk_fixture(), s) for s in range(2)] + [(random_instance(s), s) for s in range(40)]
    for spec, seed in jobs:
        rng = np.random.default_rng(seed)
        actions = [pick(t.id) for t in spec.tasks] + [pick("no_such_task"), NOOP]
        state = initial_state(spec, strict=strict)
        while not is_terminal(state):
            agent = next_agent(state)
            legal = legal_actions(state, agent)
            before = snapshot(state)
            for action in actions:
                if action in legal:
                    transition(state, action)
                else:
                    with pytest.raises(IllegalActionError):
                        transition(state, action)
            assert snapshot(state) == before
            state, _, _ = transition(state, random_pick(state, agent, legal, rng))


def test_each_illegal_pick_raises():
    strict_state = tiny_state()
    # B sits on A, so it is not in the bottom row
    with pytest.raises(IllegalActionError):
        transition(strict_state, pick("B"))
    with pytest.raises(IllegalActionError):
        transition(strict_state, pick("no_such_task"))
    # R1 acts once H1 declines; A is human-only
    robot_turn, _, _ = transition(strict_state, NOOP)
    with pytest.raises(IllegalActionError):
        transition(robot_turn, pick("A"))
    # B has descended but A, under it, is still running
    after_a, _, _ = transition(strict_state, pick("A"))
    with pytest.raises(IllegalActionError):
        transition(after_a, pick("B"))
    transition(transition(tiny_state(strict=False), pick("A"))[0], pick("B"))

    spec = parse_jobspec("board 2 1\nagents 2 0\ntask x E 1 0 0\ntask y E 1 1 0\n")
    taken, _, _ = transition(initial_state(spec), pick("x"))
    with pytest.raises(IllegalActionError):
        transition(taken, pick("x"))


def test_transition_leaves_its_input_untouched():
    state = tiny_state()
    for action in (pick("A"), pick("C")):  # the second pick closes the epoch
        before = snapshot(state)
        nxt, _, advanced = transition(state, action)
        assert snapshot(state) == before
        state = nxt
    assert advanced and state.clock == 2


@pytest.mark.parametrize("task_id", ["a,b", 'a"b'])
def test_code_built_job_meets_the_task_id_rule(task_id):
    # a JobSpec built in code checks its ids when made, as the parser does
    with pytest.raises(JobSpecError, match="may not contain"):
        run_episode(JobSpec(1, 1, 1, 0, (Task(task_id, "H", 1, 0, 0),)), first_pick)
