"""Exhaustive-search oracle and random-rollout baseline.

The oracle's answers on small instances are cross-checked against two
independent enumerators built only on the public game API: a
branch-and-bound optimum, and a plain iterative deepening that must
reproduce every field of the oracle's result.
"""

import gc
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from hrcsched import (
    BUDGET_EXCEEDED,
    COMPLETE,
    NOOP,
    Board,
    DepthRow,
    JobSpec,
    JobSpecError,
    OracleResult,
    Task,
    desk_fixture,
    exhaustive_search,
    histogram_csv,
    initial_state,
    is_stalled,
    is_terminal,
    legal_actions,
    next_agent,
    oracle_report_csv,
    parse_jobspec,
    random_rollouts,
    transition,
)
from hrcsched import baselines
from hrcsched.baselines import MAX_DEPTH, PROBE_DEPTH
from hrcsched.game import pick

from conftest import TINY_TEXT, random_instance
from test_board import FLOAT_TEXT


def reference_optimum(spec, strict=True):
    """Branch-and-bound depth-first enumeration over micro-decisions."""
    best = [spec.total_duration() + 1]

    def go(state):
        if state.clock >= best[0]:
            return
        if is_terminal(state):
            best[0] = state.clock
            return
        agent = next_agent(state)
        if agent is None:
            return  # stalled
        for action in legal_actions(state, agent):
            child, _, _ = transition(state, action)
            if not is_terminal(child) and is_stalled(child):
                continue
            go(child)

    go(initial_state(spec, strict=strict))
    return best[0]


class _Stop(Exception):
    pass


def reference_search(spec, node_budget=10_000_000, strict=True):
    """Plain iterative deepening over the public game API, one visit per
    prefix: the definition of every field ``exhaustive_search`` reports."""
    visits = 0
    best = [None, None]  # makespan, route
    rows: list[DepthRow] = []
    limit = 0
    while True:
        limit += 1
        nodes, routes, leaves = [0] * (limit + 1), [0] * (limit + 1), [0] * (limit + 1)
        frontier = False

        def visit(state, depth, route):
            nonlocal visits, frontier
            if visits >= node_budget:
                raise _Stop
            visits += 1
            nodes[depth] += 1
            if is_terminal(state):
                routes[depth] += 1
                leaves[depth] += 1
                if best[0] is None or state.clock < best[0]:
                    best[:] = [state.clock, route]
                return
            agent = next_agent(state)
            if agent is None:
                return  # stalled
            routes[depth] += 1
            if depth == limit:
                frontier = True
                return
            for action in legal_actions(state, agent):
                child, _, _ = transition(state, action)
                visit(child, depth + 1, route + [(str(agent), action.task)])

        try:
            visit(initial_state(spec, strict=strict), 0, [])
        except _Stop:
            return OracleResult(BUDGET_EXCEEDED, best[0], best[1], rows, visits, limit)
        rows = [DepthRow(d, routes[d], nodes[d], leaves[d]) for d in range(limit + 1)]
        if not frontier:
            return OracleResult(COMPLETE, best[0], best[1], rows, visits, None)


def floating_instance(seed, humans=1, robots=1):
    """A small job whose stones sit on random free cells, so most layouts
    hold floating stones."""
    rng = np.random.default_rng(seed)
    width, height = int(rng.integers(2, 4)), int(rng.integers(2, 5))
    used: set[tuple[int, int]] = set()
    tasks = []
    for i in range(int(rng.integers(2, 6))):
        span = int(rng.integers(1, 3))
        col, row = int(rng.integers(0, width - span + 1)), int(rng.integers(0, height))
        cells = {(row, c) for c in range(col, col + span)}
        if cells & used:
            continue
        used |= cells
        kind = "HRE"[int(rng.integers(3))]
        tasks.append(Task(f"f{i}", kind, int(rng.integers(1, 10)), col, row, span))
    return JobSpec(width, height, humans, robots, tuple(tasks))


def replay_route(spec, route, strict=True):
    """Drive the game along an oracle route; returns the final clock."""
    state = initial_state(spec, strict=strict)
    for label, task in route:
        agent = next_agent(state)
        assert str(agent) == label
        action = NOOP if task is None else pick(task)
        assert action in legal_actions(state, agent)
        state, _, _ = transition(state, action)
    assert is_terminal(state)
    return state.clock


def test_tiny_oracle_frozen_values():
    spec = parse_jobspec(TINY_TEXT)
    res = exhaustive_search(spec)
    assert res.status == COMPLETE
    assert res.optimal_makespan == 6
    assert res.optimal_route == [
        ("H1", "A"),
        ("R1", None),
        ("H1", "C"),
        ("R1", "B"),
        ("R1", None),
    ]
    assert [(r.depth, r.routes, r.nodes, r.leaves) for r in res.depth_rows] == [
        (0, 1, 1, 0),
        (1, 3, 3, 0),
        (2, 4, 5, 0),
        (3, 7, 7, 0),
        (4, 7, 10, 0),
        (5, 8, 9, 2),
        (6, 6, 11, 6),
    ]
    assert res.total_routes == 8
    assert res.nodes_expanded == 136
    assert res.stopped_at_depth is None


def test_tiny_oracle_route_replays_to_optimum():
    spec = parse_jobspec(TINY_TEXT)
    res = exhaustive_search(spec)
    assert replay_route(spec, res.optimal_route) == res.optimal_makespan


def test_tiny_oracle_matches_reference():
    spec = parse_jobspec(TINY_TEXT)
    assert reference_optimum(spec) == 6
    assert reference_optimum(spec, strict=False) == 6
    assert exhaustive_search(spec, strict=False).optimal_makespan == 6


def test_oracle_matches_reference_on_random_instances():
    checked = 0
    for seed in range(60):
        spec = random_instance(seed)
        if len(spec.tasks) > 6:
            continue
        for strict in (True, False):
            res = exhaustive_search(spec, strict=strict)
            assert res == reference_search(spec, strict=strict), (seed, strict)
            assert res.status == COMPLETE
            assert res.optimal_makespan == reference_optimum(spec, strict=strict), seed
            assert replay_route(spec, res.optimal_route, strict=strict) == res.optimal_makespan
        checked += 1
    assert checked >= 20


def test_probe_and_deepening_give_the_same_result(monkeypatch):
    # With MAX_DEPTH at 0 the deepening stops before its first pass, so a
    # complete result is the probe's; with PROBE_WIDTH at 0 the probe gives
    # up at the root and the deepening answers.
    checked = 0
    for seed in range(60):
        spec = random_instance(seed)
        if len(spec.tasks) > 6:
            continue
        for strict in (True, False):
            with monkeypatch.context() as m:
                m.setattr(baselines, "MAX_DEPTH", 0)
                probed = exhaustive_search(spec, strict=strict)
            with monkeypatch.context() as m:
                m.setattr(baselines, "PROBE_WIDTH", 0)
                deepened = exhaustive_search(spec, strict=strict)
            assert probed.status == COMPLETE, (seed, strict)
            assert probed == deepened, (seed, strict)
        checked += 1
    assert checked >= 20


def test_probe_gives_up_on_the_desk(monkeypatch):
    monkeypatch.setattr(baselines, "MAX_DEPTH", 0)
    res = exhaustive_search(desk_fixture())
    assert res.status == BUDGET_EXCEEDED and res.nodes_expanded == 0


@pytest.mark.parametrize("budget", [5_000, 20_000, 100_000])
def test_desk_deepening_matches_reference_search(budget):
    # the probe gives up on the desk, so the deepening answers
    spec = desk_fixture()
    expected = reference_search(spec, node_budget=budget)
    assert exhaustive_search(spec, node_budget=budget) == expected


def test_probe_answered_calls_leave_no_cyclic_garbage(monkeypatch):
    # The probe's states and paths are tuples that refer only downwards; the
    # deepening's recursive closure, a cycle, is made only when the probe
    # gives up. With MAX_DEPTH at 0 a complete result is the probe's.
    specs = [parse_jobspec(TINY_TEXT)] + [random_instance(seed) for seed in range(60)]
    with monkeypatch.context() as m:
        m.setattr(baselines, "MAX_DEPTH", 0)
        calls = [
            (spec, strict) for spec in specs for strict in (True, False)
            if exhaustive_search(spec, strict=strict).status == COMPLETE
        ]
    assert len(calls) >= 40
    gc.collect()
    gc.disable()
    try:
        for spec, strict in calls:
            exhaustive_search(spec, strict=strict)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_probe_answers_only_within_its_visit_cap(monkeypatch):
    # The probe counts 46 visits on the tiny job, the nodes of its depth rows
    # summed, so it answers under a cap of 46 and gives up under 45.
    monkeypatch.setattr(baselines, "MAX_DEPTH", 0)
    spec = parse_jobspec(TINY_TEXT)
    assert exhaustive_search(spec, node_budget=46 * PROBE_DEPTH).status == COMPLETE
    assert exhaustive_search(spec, node_budget=46 * PROBE_DEPTH - 1).status == BUDGET_EXCEEDED


# Jobs of the benchmark corpus (perfbench/corpus.py) on which prefixes
# that reach one state differ in route, at one clock or at several: the
# route kept must be the one depth-first order meets first. Jobs 880 and
# 1035 at seed 101, then 51 (literal) and 395 at seed 109, and 1820 at seed
# 119, the only ones of 60,000 jobs (2,000 at each seed from 101 to 130)
# on which merging a state's prefixes by the lower clock alone changes the
# route.
TIED_ROUTE_JOBS = [
    ("board 3 4\nagents 1 1\ntask t0 H 1 1 0 1\ntask t1 R 2 1 1 1\ntask t2 E 4 0 0 1\n"
     "task t3 R 1 1 2 2\ntask t4 R 1 1 3 2\ntask t5 E 2 0 1 1\n", True),
    ("board 3 4\nagents 1 1\ntask t0 R 8 2 0 1\ntask t1 H 6 0 0 2\ntask t2 R 3 0 1 2\n"
     "task t3 H 1 1 2 2\ntask t4 R 2 1 3 2\ntask t5 E 8 0 2 1\n", True),
    ("board 3 4\nagents 1 1\ntask t0 E 9 2 0 1\ntask t1 R 8 2 1 1\ntask t2 H 2 2 2 1\n"
     "task t3 H 1 1 0 1\ntask t4 H 1 0 1 2\n", False),
    ("board 3 4\nagents 1 1\ntask t0 E 4 0 0 1\ntask t1 E 6 2 0 1\ntask t2 R 7 1 0 1\n"
     "task t3 H 5 1 1 1\ntask t4 R 7 0 2 2\ntask t5 R 5 0 3 1\n", True),
    ("board 3 4\nagents 1 1\ntask t0 E 9 0 0 1\ntask t1 H 1 1 0 1\ntask t2 H 6 0 1 1\n"
     "task t3 E 1 2 0 1\ntask t4 H 2 0 2 1\ntask t5 E 3 1 1 2\n", True),
]


@pytest.mark.parametrize(
    "text, strict", TIED_ROUTE_JOBS, ids=["101-880", "101-1035", "109-51", "109-395", "119-1820"]
)
def test_oracle_keeps_the_first_of_equally_fast_routes(text, strict):
    spec = parse_jobspec(text)
    assert exhaustive_search(spec, strict=strict) == reference_search(spec, strict=strict)


def test_oracle_merges_a_states_prefixes_by_clock_before_path():
    # Corpus job 1045 at seed 303: of two prefixes that reach one state, the
    # one first in depth-first order, and last in the probe's scan, gets
    # there at a later clock. Keeping it for its path would report 26.
    spec = parse_jobspec(
        "board 3 4\nagents 1 1\ntask t0 E 7 1 0 1\ntask t1 R 3 0 0 1\ntask t2 H 9 0 1 1\n"
        "task t3 H 4 1 1 1\ntask t4 H 6 1 2 2\ntask t5 E 3 1 3 1\n"
    )
    res = exhaustive_search(spec)
    assert res.optimal_makespan == 25 == reference_optimum(spec)
    assert res == reference_search(spec)


# X floats over an empty cell until the first pick settles the board.
FLOATING_TEXT = """\
board 2 3
agents 1 1
task A E 1 0 0
task X E 2 1 2
"""


@pytest.mark.parametrize(
    "extra, strict, optimum",
    [("", True, 2), ("", False, 2), ("task B R 3 1 0\n", True, 5), ("task B R 3 1 0\n", False, 3)],
)
def test_oracle_settles_floating_stones_on_first_pick(extra, strict, optimum):
    spec = parse_jobspec(FLOATING_TEXT + extra)
    res = exhaustive_search(spec, strict=strict)
    assert res.status == COMPLETE
    assert res.optimal_makespan == optimum == reference_optimum(spec, strict=strict)
    assert replay_route(spec, res.optimal_route, strict=strict) == optimum


@pytest.mark.parametrize("strict", [True, False])
def test_oracle_matches_reference_search_at_every_tiny_budget(strict):
    spec = parse_jobspec(TINY_TEXT)
    for budget in range(1, 137):
        expected = reference_search(spec, node_budget=budget, strict=strict)
        assert exhaustive_search(spec, node_budget=budget, strict=strict) == expected, budget


@pytest.mark.parametrize("humans, robots", [(2, 1), (1, 2), (2, 2)])
def test_oracle_matches_reference_search_on_larger_rosters(humans, robots):
    checked = 0
    for seed in range(20):
        spec = random_instance(seed)
        if len(spec.tasks) <= 4:
            spec = replace(spec, humans=humans, robots=robots)
            for strict in (True, False):
                expected = reference_search(spec, strict=strict)
                assert exhaustive_search(spec, strict=strict) == expected, (seed, strict)
            checked += 1
    assert checked >= 8


@pytest.mark.parametrize("humans, robots", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_oracle_matches_reference_search_on_floating_layouts(humans, robots):
    floating = 0
    for seed in range(30):
        try:
            spec = floating_instance(seed, humans, robots)
        except JobSpecError:
            continue  # no stone on row 0: not a job
        floating += not Board.from_spec(spec).is_gravity_fixpoint()
        for strict in (True, False):
            expected = reference_search(spec, strict=strict)
            assert exhaustive_search(spec, strict=strict) == expected, (seed, strict)
    assert floating >= 10


def column_job(height, robots=0):
    """One column of ``height`` stones, so every route is that many picks deep."""
    tasks = tuple(Task(f"s{i}", "E", 1 + i % 4, 0, i, 1) for i in range(height))
    return JobSpec(1, height, 1, robots, tasks)


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("robots, budget", [(0, 10_000_000), (1, 20_000)])
def test_oracle_matches_reference_search_below_the_probe_depth(robots, budget, strict):
    # One column of 70 stones, so every route runs deeper than PROBE_DEPTH.
    # A lone human's tree is one path, within the probe's visit cap but not
    # its depth; with a robot the tree outgrows the budget.
    spec = column_job(70, robots)
    assert len(spec.tasks) > PROBE_DEPTH
    expected = reference_search(spec, node_budget=budget, strict=strict)
    assert expected.status == (BUDGET_EXCEEDED if robots else COMPLETE)
    assert exhaustive_search(spec, node_budget=budget, strict=strict) == expected


def test_oracle_stops_at_the_depth_cap_as_at_the_budget(monkeypatch):
    # Deeper than the probe, so the deepening runs and meets the cap: it ends
    # as a budget just spent on the passes to the cap would end it.
    monkeypatch.setattr(baselines, "MAX_DEPTH", 5)
    spec = column_job(70)
    res = exhaustive_search(spec)
    assert res.status == BUDGET_EXCEEDED and res.stopped_at_depth == 6
    assert [r.depth for r in res.depth_rows] == list(range(6))
    assert res == reference_search(spec, node_budget=res.nodes_expanded)


def counting_cascades(monkeypatch):
    """Patch ``baselines.cascade`` to record each call's (layout, task)."""
    calls = []
    cascade = baselines.cascade

    def counted(cells, col, span, width, t, floating):
        calls.append((tuple(cells), t))
        return cascade(cells, col, span, width, t, floating)

    monkeypatch.setattr(baselines, "cascade", counted)
    return calls


def test_probe_runs_each_picks_gravity_once(monkeypatch):
    # A complete result with MAX_DEPTH at 0 is the probe's, so every cascade
    # counted is the probe's; states that share a layout share its picks.
    monkeypatch.setattr(baselines, "MAX_DEPTH", 0)
    calls = counting_cascades(monkeypatch)
    specs = [parse_jobspec(TINY_TEXT)] + [random_instance(seed) for seed in range(60)]
    answered = 0
    for spec in specs:
        for strict in (True, False):
            calls.clear()
            if exhaustive_search(spec, strict=strict).status == COMPLETE:
                assert len(calls) == len(set(calls)), (spec, strict)
                answered += 1
    assert answered >= 100


def test_probe_runs_each_picks_gravity_once_on_floating_jobs(monkeypatch):
    # Literal mode, so stones are picked as soon as they land; the memo is
    # keyed by layout and task alone, and a floating job's initial layout
    # and the layouts its cascades leave never collide.
    monkeypatch.setattr(baselines, "MAX_DEPTH", 0)
    calls = counting_cascades(monkeypatch)
    specs = [parse_jobspec(FLOAT_TEXT)]
    for seed in range(100):
        try:
            specs.append(floating_instance(seed))
        except JobSpecError:
            continue  # no stone on row 0: not a job
    answered = floating = 0
    for spec in specs:
        calls.clear()
        result = exhaustive_search(spec, strict=False)
        if result.status == COMPLETE:
            assert len(calls) == len(set(calls)), spec
            assert result == reference_search(spec, strict=False)
            answered += 1
            floating += not Board.from_spec(spec).is_gravity_fixpoint()
    assert answered >= 60 and floating >= 30


def test_probe_memo_starts_over_at_its_bound(monkeypatch):
    # PROBE_WIDTH bounds the memo of cascades as well as each level. One
    # column of 30 stones under one human holds one state per level but 29
    # distinct picks; on small random jobs, picks recur after the memo has
    # started over. The probe answers each, as the deepening does.
    monkeypatch.setattr(baselines, "PROBE_WIDTH", 8)
    calls = counting_cascades(monkeypatch)
    jobs = [(column_job(30), True)] + [
        (random_instance(seed), strict) for seed in range(60) for strict in (True, False)
    ]
    past = 0
    for spec, strict in jobs:
        with monkeypatch.context() as m:
            m.setattr(baselines, "MAX_DEPTH", 0)
            calls.clear()
            probed = exhaustive_search(spec, strict=strict)
        if probed.status != COMPLETE:
            continue
        past += len(set(calls)) > 8
        with monkeypatch.context() as m:
            m.setattr(baselines, "PROBE_WIDTH", 0)
            assert probed == exhaustive_search(spec, strict=strict), (spec, strict)
    assert past >= 10


def test_probe_gives_up_on_a_wide_level_before_building_it(monkeypatch):
    # 100 columns of 20 one-wide stones: the second level would hold about
    # 10,000 states of 2,000 cells each, 150 MB, had the probe built it
    # whole before giving up; it stops at the state past PROBE_WIDTH instead.
    tasks = tuple(
        Task(f"s{c}_{r}", "E", 1 + (c + r) % 4, c, r, 1) for c in range(100) for r in range(20)
    )
    spec = JobSpec(100, 20, 1, 1, tasks)
    tracemalloc.start()
    try:
        res = exhaustive_search(spec, node_budget=20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32_000_000
    assert res.status == BUDGET_EXCEEDED and res.nodes_expanded == 20_000
    monkeypatch.setattr(baselines, "PROBE_WIDTH", 0)
    assert res == exhaustive_search(spec, node_budget=20_000)


def stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_max_depth_leaves_room_under_the_recursion_limit(monkeypatch):
    """The search takes one frame per level, so a pass to MAX_DEPTH leaves
    half the recursion limit to its callers."""
    assert PROBE_DEPTH < MAX_DEPTH <= sys.getrecursionlimit() // 2
    monkeypatch.setattr(baselines, "MAX_DEPTH", 80)
    spec = column_job(100)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 80 + 10)
    try:
        res = exhaustive_search(spec)
    finally:
        sys.setrecursionlimit(limit)
    assert res.status == BUDGET_EXCEEDED and res.stopped_at_depth == 81


def test_oracle_depth_row_invariants():
    for seed in (0, 3, 11):
        spec = random_instance(seed)
        res = exhaustive_search(spec)
        assert res.status == COMPLETE
        rows = res.depth_rows
        assert [r.depth for r in rows] == list(range(len(rows)))
        for r in rows:
            assert 1 <= r.routes <= r.nodes
            assert 0 <= r.leaves <= r.routes
        # in the last pass nothing is cut off, so every prefix reaching the
        # final depth is a finished schedule
        assert rows[-1].leaves == rows[-1].routes
        assert res.total_routes == sum(r.leaves for r in rows)
        assert res.total_routes > 0
        # rows describe the final pass; the node total spans every pass
        assert res.nodes_expanded >= sum(r.nodes for r in rows)


def test_oracle_budget_exceeded_keeps_completed_passes():
    spec = parse_jobspec(TINY_TEXT)
    res = exhaustive_search(spec, node_budget=5)
    assert res.status == BUDGET_EXCEEDED
    assert res.nodes_expanded == 5
    assert res.optimal_makespan is None
    assert res.optimal_route is None
    assert [(r.depth, r.routes) for r in res.depth_rows] == [(0, 1), (1, 3)]
    assert res.stopped_at_depth == 2


def test_oracle_budget_boundary():
    spec = parse_jobspec(TINY_TEXT)
    assert exhaustive_search(spec, node_budget=136).status == COMPLETE
    res = exhaustive_search(spec, node_budget=135)
    assert res.status == BUDGET_EXCEEDED
    assert res.nodes_expanded == 135


def test_oracle_report_csv():
    res = exhaustive_search(parse_jobspec(TINY_TEXT))
    assert oracle_report_csv(res) == (
        "depth,routes,nodes\n"
        "0,1,1\n"
        "1,3,3\n"
        "2,4,5\n"
        "3,7,7\n"
        "4,7,10\n"
        "5,8,9\n"
        "6,6,11\n"
    )


def test_random_rollouts_frozen_sample():
    spec = parse_jobspec(TINY_TEXT)
    stats = random_rollouts(spec, trajectories=300, seed=1)
    assert stats.count == 300
    assert stats.mean == pytest.approx(7.926666666666667)
    assert stats.min == 7
    assert stats.max == 9
    assert stats.histogram == {7: 161, 9: 139}
    assert histogram_csv(stats) == "makespan,count\n7,161\n9,139\n"


def test_a_draw_from_a_range_of_one_leaves_the_stream_unchanged():
    """``random_rollouts`` takes an only pick without calling
    ``rng.integers(1)``. That keeps its samples only while numpy's bounded
    draw from a range of one takes nothing from the stream."""
    drawn, skipped = np.random.default_rng(17), np.random.default_rng(17)
    for i in range(1000):
        assert drawn.integers(1) == 0
        bound = 2 + i % 7
        assert drawn.integers(bound) == skipped.integers(bound)
    assert drawn.bit_generator.state == skipped.bit_generator.state


def test_random_rollouts_deterministic():
    spec = random_instance(4)
    a = random_rollouts(spec, trajectories=50, seed=9)
    b = random_rollouts(spec, trajectories=50, seed=9)
    assert a.makespans == b.makespans
    c = random_rollouts(spec, trajectories=50, seed=10)
    assert a.makespans != c.makespans


@pytest.mark.parametrize("trajectories", [0, -3])
def test_random_rollouts_needs_a_trajectory(trajectories):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way to the error
        with pytest.raises(ValueError, match="trajectories"):
            random_rollouts(parse_jobspec(TINY_TEXT), trajectories=trajectories)


def test_random_rollouts_never_beat_the_oracle():
    for seed in range(12):
        spec = random_instance(seed)
        optimum = exhaustive_search(spec).optimal_makespan
        stats = random_rollouts(spec, trajectories=40, seed=seed)
        assert stats.min >= optimum
        assert stats.mean >= stats.min
        assert sum(stats.histogram.values()) == stats.count
        assert stats.count == len(stats.makespans) == 40


def test_rollout_histogram_matches_makespans():
    spec = random_instance(2)
    stats = random_rollouts(spec, trajectories=25, seed=0)
    rebuilt = {}
    for m in stats.makespans:
        rebuilt[m] = rebuilt.get(m, 0) + 1
    assert stats.histogram == rebuilt
    assert stats.mean == pytest.approx(float(np.mean(stats.makespans)))
