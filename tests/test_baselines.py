"""Exhaustive-search oracle and random-rollout baseline.

The oracle's answers on small instances are cross-checked against two
independent enumerators built only on the public game API: a
branch-and-bound optimum, and a plain iterative deepening that must
reproduce every field of the oracle's result.
"""

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
    OracleResult,
    Task,
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
from hrcsched.baselines import PROBE_DEPTH
from hrcsched.game import pick

from conftest import TINY_TEXT, random_instance


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
        spec = floating_instance(seed, humans, robots)
        floating += not Board.from_spec(spec).is_gravity_fixpoint()
        for strict in (True, False):
            expected = reference_search(spec, strict=strict)
            assert exhaustive_search(spec, strict=strict) == expected, (seed, strict)
    assert floating >= 10


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("robots, budget", [(0, 10_000_000), (1, 20_000)])
def test_oracle_matches_reference_search_below_the_probe_depth(robots, budget, strict):
    # One column of 70 stones, so every route runs deeper than PROBE_DEPTH.
    # A lone human's tree is one path, within the probe's visit cap but not
    # its depth; with a robot the tree outgrows the budget.
    tasks = tuple(Task(f"s{i}", "E", 1 + i % 4, 0, i, 1) for i in range(70))
    spec = JobSpec(1, 70, 1, robots, tasks)
    assert len(tasks) > PROBE_DEPTH
    expected = reference_search(spec, node_budget=budget, strict=strict)
    assert expected.status == (BUDGET_EXCEEDED if robots else COMPLETE)
    assert exhaustive_search(spec, node_budget=budget, strict=strict) == expected


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
