"""Tree-search selection, backup, and end-to-end play on tiny boards."""

import math

import numpy as np
import pytest

from hrcsched import (
    NOOP,
    NetEvaluator,
    SearchConfig,
    SearchNode,
    SearchTree,
    UniformEvaluator,
    desk_fixture,
    init_params,
    initial_state,
    is_stalled,
    is_terminal,
    legal_actions,
    next_agent,
    parse_jobspec,
    run_episode,
    transition,
)
from hrcsched import search
from hrcsched.game import moves, pick
from hrcsched.search import (
    Edge,
    backup,
    expand_and_evaluate,
    masked_priors,
    select_edge,
)

from conftest import TINY_TEXT, random_instance


def tiny_state():
    return initial_state(parse_jobspec(TINY_TEXT))


def make_node(edges):
    node = SearchNode(state=tiny_state(), depth=0)
    node.edges = edges
    return node


def test_select_edge_prefers_unvisited_at_high_exploration():
    # e1: Q = -5, one visit; e2 unvisited. scores 20 vs 50 at c=100.
    e1 = Edge(action=pick("A"), prior=0.5, visits=1, total_value=-5.0)
    e2 = Edge(action=pick("C"), prior=0.5)
    node = make_node([e1, e2])
    assert select_edge(node, 100.0) is e2


def test_select_edge_exploration_constant_flips_choice():
    e1 = Edge(action=pick("A"), prior=0.1, visits=1, total_value=-5.0)
    e2 = Edge(action=pick("C"), prior=0.9, visits=1, total_value=-12.0)
    node = make_node([e1, e2])
    # prior dominates when c is large, value when c is small
    assert select_edge(node, 100.0) is e2
    assert select_edge(node, 1.0) is e1


def test_select_edge_tie_breaks():
    # equal scores: the higher prior wins
    a = Edge(action=pick("A"), prior=0.4, visits=1, total_value=-1.0)
    c = Edge(action=pick("C"), prior=0.6, visits=1, total_value=-1.0)
    node = make_node([a, c])
    assert select_edge(node, 0.0) is c
    # equal score and prior: the lower column wins
    a = Edge(action=pick("A"), prior=0.5, visits=1, total_value=-1.0)
    c = Edge(action=pick("C"), prior=0.5, visits=1, total_value=-1.0)
    node = make_node([a, c])
    assert select_edge(node, 0.0) is a
    # NoOp loses every tie to a pick
    n = Edge(action=NOOP, prior=0.5, visits=1, total_value=-1.0)
    c = Edge(action=pick("C"), prior=0.5, visits=1, total_value=-1.0)
    node = make_node([c, n])
    assert select_edge(node, 0.0) is c


def edge_order_key(edge: Edge, state):
    # Ties prefer a higher prior, then a lower column; NoOp loses all ties.
    if edge.action.is_noop:
        return (edge.prior, 0, 0)
    col = state.job.tasks[edge.action.task].col
    return (edge.prior, 1, -col)


def reference_select_edge(node: SearchNode, c_puct: float) -> Edge:
    """The definition ``select_edge`` must match: the edge with the largest
    (score,) + order key tuple, the first such edge on a full tie."""
    sqrt_total = math.sqrt(sum(e.visits for e in node.edges))
    best = None
    best_key = None
    for edge in node.edges:
        score = edge.mean_value + c_puct * edge.prior * sqrt_total / (1 + edge.visits)
        key = (score,) + edge_order_key(edge, node.state)
        if best_key is None or key > best_key:
            best, best_key = edge, key
    return best


def test_select_edge_matches_reference_on_exact_ties():
    """Seeded random edge sets drawn from few priors, visit counts and mean
    values, so exact score ties are common: NoOp among the tied edges,
    equal priors in different columns, and stones sharing a column. Each
    set is in the order ``expand_and_evaluate`` makes: the picks by column
    (as ``legal_actions`` lists them), then NoOp."""
    rng = np.random.default_rng(5)
    state = initial_state(desk_fixture())
    tasks = sorted(state.job.tasks)
    tied = noop_tied = column_tied = 0
    for _ in range(4000):
        chosen = rng.choice(len(tasks), size=int(rng.integers(1, 7)), replace=False)
        chosen = sorted(chosen, key=lambda i: state.job.tasks[tasks[i]].col)
        actions = [pick(tasks[i]) for i in chosen]
        if rng.random() < 0.7:
            actions.append(NOOP)
        edges = []
        for action in actions:
            visits = int(rng.choice([0, 0, 1, 2]))
            q = float(rng.choice([0.0, -1.0, -2.0]))
            prior = float(rng.choice([0.125, 0.25, 0.5]))
            edges.append(Edge(action=action, prior=prior, visits=visits, total_value=q * visits))
        node = SearchNode(state=state, depth=0)
        node.edges = edges
        c_puct = float(rng.choice([0.0, 1.0, 100.0]))
        assert select_edge(node, c_puct) is reference_select_edge(node, c_puct)

        sqrt_total = math.sqrt(sum(e.visits for e in edges))
        scores = [e.mean_value + c_puct * e.prior * sqrt_total / (1 + e.visits) for e in edges]
        top = [e for e, sc in zip(edges, scores) if sc == max(scores)]
        if len(top) > 1:
            tied += 1
            noop_tied += any(e.action.is_noop for e in top)
            best = [e for e in top if e.prior == max(t.prior for t in top)]
            cols = {state.job.tasks[e.action.task].col for e in best if not e.action.is_noop}
            column_tied += len(cols) > 1
    assert tied > 1000 and noop_tied > 300 and column_tied > 300


def formula_select_edge(edges: list[Edge], c_puct: float) -> Edge:
    """``select_edge`` written out: every edge scored by Q + c * P *
    sqrt(sum visits) / (1 + visits), with Q = 0 for an unvisited edge, and
    the first edge of the highest (score, prior)."""
    sqrt_total = math.sqrt(sum(e.visits for e in edges))
    keys = []
    for e in edges:
        q = e.total_value / e.visits if e.visits else 0.0
        keys.append((q + c_puct * e.prior * sqrt_total / (1 + e.visits), e.prior))
    return edges[keys.index(max(keys))]


def test_select_edge_matches_the_written_out_formula():
    """Seeded random nodes of one to six edges, half with values drawn from
    a continuum and half from a few levels, so that exact score ties are
    common; many nodes have a single edge, and many edges no visit."""
    rng = np.random.default_rng(23)
    state = initial_state(desk_fixture())
    tasks = sorted(state.job.tasks)
    seen = {"one edge": 0, "unvisited": 0, "tied": 0}
    for _ in range(4000):
        levels = rng.random() < 0.5
        edges = []
        for task in tasks[: int(rng.integers(1, 7))]:
            if levels:
                visits = int(rng.choice([0, 0, 1, 2]))
                prior = float(rng.choice([0.25, 0.5]))
                q = float(rng.choice([0.0, -1.0]))
            else:
                visits = int(rng.integers(0, 40))
                prior = float(rng.random())
                q = -100.0 * float(rng.random())
            edges.append(Edge(action=pick(task), prior=prior, visits=visits, total_value=q * visits))
        node = SearchNode(state=state, depth=0)
        node.edges = edges
        c_puct = float(rng.choice([0.0, 1.0, 2.5, 100.0]))
        assert select_edge(node, c_puct) is formula_select_edge(edges, c_puct)

        sqrt_total = math.sqrt(sum(e.visits for e in edges))
        scores = [e.mean_value + c_puct * e.prior * sqrt_total / (1 + e.visits) for e in edges]
        seen["one edge"] += len(edges) == 1
        seen["unvisited"] += sum(e.visits == 0 for e in edges)
        seen["tied"] += scores.count(max(scores)) > 1
    assert seen["one edge"] > 500 and seen["unvisited"] > 3000 and seen["tied"] > 800


def walk(node: SearchNode):
    yield node
    for edge in node.edges or ():
        if edge.child is not None:
            yield from walk(edge.child)


def random_play_trees():
    """Search trees grown along seeded random episodes on the desk and on 60
    small random jobs, strict and literal: yields each tree after each
    search, before the root advances."""
    rng = np.random.default_rng(11)
    jobs = [(desk_fixture(), True, 20)]
    jobs += [(random_instance(seed), seed % 2 == 0, 60) for seed in range(60)]
    for spec, strict, simulations in jobs:
        state = initial_state(spec, strict=strict)
        config = SearchConfig(simulations=simulations, max_depth=None, c_puct=2.0)
        tree = SearchTree(state, UniformEvaluator(spec.width), config)
        while not tree.root.terminal:
            tree.run()
            yield tree
            actions = legal_actions(tree.root.state, next_agent(tree.root.state))
            action = actions[int(rng.integers(len(actions)))]
            if len(actions) > 1 and action.is_noop and rng.random() < 0.7:
                action = actions[0]  # random play that mostly keeps working
            tree.advance_root(action)
            if tree.root.stalled:
                break


def test_node_flags_match_state_over_random_play():
    """Every node of trees grown along seeded random episodes stores the
    terminal and stalled status of its own state."""
    seen = {"terminal": 0, "stalled": 0, "nodes": 0}
    for tree in random_play_trees():
        for node in walk(tree.root):
            assert node.terminal == is_terminal(node.state)
            assert node.stalled == is_stalled(node.state)
            seen["nodes"] += 1
            seen["terminal"] += node.terminal
            seen["stalled"] += node.stalled
    assert seen["nodes"] > 8000 and seen["terminal"] > 400 and seen["stalled"] > 400


def test_expanded_nodes_list_picks_by_column_then_noop():
    """The order ``select_edge`` and ``SearchTree.run`` break ties by: every
    expanded node lists its picks by strictly increasing column, NoOp last."""
    expanded = 0
    for tree in random_play_trees():
        for node in walk(tree.root):
            if not node.edges:
                continue
            expanded += 1
            *picks, last = [e.action for e in node.edges]
            assert last.is_noop
            cols = [node.state.job.tasks[a.task].col for a in picks]
            assert cols == sorted(set(cols))
    assert expanded > 5000


def test_backup_adds_reward_from_each_edge_onward():
    e0 = Edge(action=pick("A"), prior=1.0, reward=-1)
    e1 = Edge(action=pick("C"), prior=1.0, reward=-2)
    n0 = make_node([e0])
    n1 = make_node([e1])
    backup([e0, e1], leaf_value=-5.0)
    assert e1.visits == 1 and e1.total_value == -7.0
    assert e0.visits == 1 and e0.total_value == -8.0
    assert n0.visits == 1 and n1.visits == 1
    backup([e0], leaf_value=0.0)
    assert e0.visits == 2 and e0.total_value == -9.0
    assert e0.mean_value == -4.5


def test_masked_priors():
    assert masked_priors([0.2, 0.8], [0, 1]) == [0.2, 0.8]
    assert masked_priors([0.2, 0.8], [1]) == [1.0]
    # a zero mass on the legal set falls back to uniform
    assert masked_priors([0.0, 0.0], [0, 1]) == [0.5, 0.5]


def reference_masked_priors(p, cols):
    masked = p[cols]
    total = masked.sum()
    if total <= 0:
        return np.full(len(cols), 1.0 / len(cols))
    return masked / total


def test_masked_priors_equal_numpy_exactly():
    """Below eight columns the priors are totalled in a Python loop, from
    eight on by numpy: both must give numpy's bytes, zero mass included."""
    rng = np.random.default_rng(0)
    for n in range(1, 13):
        for trial in range(300):
            width = n + int(rng.integers(0, 4))
            # masses spread over many orders of magnitude, so that the order
            # of the additions shows in the total's last bits
            p = rng.random(width) * 10.0 ** rng.integers(-8, 1, width)
            if trial == 0:
                p[:] = 0.0
            cols = sorted(rng.choice(width, n, replace=False).tolist())
            got = masked_priors(p, cols)
            assert type(got) is list and all(type(w) is float for w in got)
            assert np.array(got).tobytes() == reference_masked_priors(p, cols).tobytes()


def test_expand_sets_noop_prior():
    node = SearchNode(state=tiny_state(), depth=0)
    value = expand_and_evaluate(node, UniformEvaluator(2))
    assert value == 0.0
    priors = {str(e.action): e.prior for e in node.edges}
    assert priors["noop"] == pytest.approx(0.001 / 1.001)
    assert priors["pick A"] == pytest.approx(0.5 / 1.001)
    assert priors["pick C"] == pytest.approx(0.5 / 1.001)
    assert sum(priors.values()) == pytest.approx(1.0)


def test_prior_total_is_summed_left_to_right(monkeypatch):
    """The priors' total is accumulated left to right, which is what builtin
    ``sum`` does up to Python 3.11. The compensated ``sum`` of 3.12 would
    total these weights to 1e16 + 2, move every prior, and with them the
    ties ``select_edge`` breaks, so a run would depend on the Python version."""
    monkeypatch.setattr(search, "masked_priors", lambda p, cols: [1e16, 1.0])
    node = SearchNode(state=tiny_state(), depth=0)
    expand_and_evaluate(node, UniformEvaluator(2))
    assert [e.prior for e in node.edges] == [1.0, 1e-16, 1e-19]


def test_expand_with_no_picks_gives_noop_everything():
    spec = parse_jobspec(
        """
        board 1 1
        agents 1 1
        task z R 2 0 0
        """
    )
    node = SearchNode(state=initial_state(spec), depth=0)
    expand_and_evaluate(node, UniformEvaluator(1))
    assert [(str(e.action), e.prior) for e in node.edges] == [("noop", 1.0)]


def test_single_action_answered_without_simulation():
    spec = parse_jobspec(
        """
        board 1 1
        agents 1 1
        task z R 2 0 0
        """
    )
    tree = SearchTree(initial_state(spec), UniformEvaluator(1), SearchConfig())
    policy, chosen = tree.run()
    assert (policy, chosen) == ([(NOOP, 1.0)], NOOP)
    assert tree.root.visits == 0


def test_run_without_simulations_returns_the_priors():
    tree = SearchTree(tiny_state(), UniformEvaluator(2), SearchConfig(simulations=0))
    policy, chosen = tree.run()
    assert policy == [(pick("A"), 0.5 / 1.001), (pick("C"), 0.5 / 1.001), (NOOP, 0.001 / 1.001)]
    assert chosen == pick("A")  # the leftmost of the tied highest priors
    assert tree.root.visits == 0


def test_run_on_terminal_state_raises():
    spec = parse_jobspec(
        """
        board 1 1
        agents 1 0
        task z H 2 0 0
        """
    )
    state = initial_state(spec)
    state, _, _ = transition(state, pick("z"))
    tree = SearchTree(state, UniformEvaluator(1))
    with pytest.raises(ValueError):
        tree.run()


def capped_walk(tree):
    """Simulate until a walk stops at the depth cap on a live leaf; return its path.

    Every walk stops at the first node ``max_depth`` epochs below the
    current root, and only there is it reported capped.
    """
    tree._expanded_root()
    cap = tree.root.depth + tree.config.max_depth
    for _ in range(50):
        leaf, path, capped = tree._select()
        assert all(e.child.depth < cap for e in path[:-1])
        assert capped == (leaf.depth == cap)
        backup(path, tree._evaluate_leaf(leaf, capped))
        if capped and not leaf.terminal:
            return path
    raise AssertionError("no walk reached the depth cap")


def test_depth_cap_is_relative_to_current_root():
    spec = desk_fixture()
    tree = SearchTree(initial_state(spec), UniformEvaluator(spec.width), SearchConfig(max_depth=2))
    for edge in capped_walk(tree):
        tree.advance_root(edge.action)
    assert tree.root.depth == 2
    capped_walk(tree)  # capped two epochs below the new root, four below the first


@pytest.mark.parametrize("max_depth", [None, 0, 1, 3])
def test_stages_by_hand_match_run(max_depth):
    # select, evaluate and back up, driven one at a time, are a simulation
    spec = desk_fixture()
    cfg = SearchConfig(simulations=40, max_depth=max_depth)

    def desk_tree():
        params = init_params(spec.height, spec.width, filters=(4,), dense_units=8, seed=3)
        return SearchTree(initial_state(spec), NetEvaluator(params, spec.height, spec.width), cfg)

    by_hand, twin = desk_tree(), desk_tree()
    by_hand._expanded_root()
    for _ in range(cfg.simulations):
        leaf, path, capped = by_hand._select()
        backup(path, by_hand._evaluate_leaf(leaf, capped))
    twin.run()
    assert len(by_hand.root.edges) > 1
    assert [(e.action, e.visits, e.total_value) for e in by_hand.root.edges] == [
        (e.action, e.visits, e.total_value) for e in twin.root.edges
    ]


def test_exact_q_values_one_epoch_lookahead():
    # From the start of the tiny job, with depth 1 and a zero-value
    # evaluator, every line through A costs 2 and every line through C
    # costs 4. The first simulation of an edge stops at its fresh child
    # and backs up the child's zero evaluation, so after N visits the
    # mean is exactly -cost * (N - 1) / N.
    tree = SearchTree(
        tiny_state(), UniformEvaluator(2), SearchConfig(simulations=60, max_depth=1)
    )
    _, chosen = tree.run()
    assert chosen == pick("A")
    by_action = {str(e.action): e for e in tree.root.edges}
    a, c = by_action["pick A"], by_action["pick C"]
    assert a.visits > 1 and c.visits > 1
    assert a.mean_value == -2.0 * (a.visits - 1) / a.visits
    assert c.mean_value == -4.0 * (c.visits - 1) / c.visits
    assert a.visits > by_action["noop"].visits


def test_stalled_leaf_value_is_twice_total_duration():
    # After the human declines, the robot's NoOp ends the epoch with nobody
    # busy: a dead end worth -2 * 9. One visit suffices to freeze it.
    state, _, _ = transition(tiny_state(), NOOP)
    noop_child, _, _ = transition(state, NOOP)
    assert is_stalled(noop_child)
    tree = SearchTree(state, UniformEvaluator(2), SearchConfig(simulations=300))
    _, chosen = tree.run()
    assert chosen == pick("C")
    noop_edge = next(e for e in tree.root.edges if e.action.is_noop)
    assert noop_edge.visits >= 1
    assert noop_edge.mean_value == -18.0


def test_policy_is_a_distribution_over_visits():
    tree = SearchTree(tiny_state(), UniformEvaluator(2), SearchConfig(simulations=30))
    policy, _ = tree.run()
    assert sum(p for _, p in policy) == pytest.approx(1.0)
    assert all(p >= 0 for _, p in policy)
    assert sum(e.visits for e in tree.root.edges) == 30


def test_search_is_deterministic():
    cfg = SearchConfig(simulations=40)
    first = SearchTree(tiny_state(), UniformEvaluator(2), cfg).run()
    second = SearchTree(tiny_state(), UniformEvaluator(2), cfg).run()
    assert first == second


def test_advance_root_reuses_subtree():
    tree = SearchTree(tiny_state(), UniformEvaluator(2), SearchConfig(simulations=50))
    _, chosen = tree.run()
    child = next(e.child for e in tree.root.edges if e.action == chosen)
    tree.advance_root(chosen)
    assert tree.root is child
    assert tree.root.visits > 0


def test_advance_root_materialises_unexplored_child():
    tree = SearchTree(tiny_state(), UniformEvaluator(2))
    tree.advance_root(NOOP)
    assert tree.root.state.pending == 1  # H1 declined, so R1 acts
    with pytest.raises(ValueError):
        tree.advance_root(pick("Z"))


def play_with_tree(spec, config):
    """Greedy play guided by one persistent tree; returns the makespan."""
    evaluator = UniformEvaluator(spec.width)

    tree = None

    def choose(state, agent, actions, rng):
        nonlocal tree
        if tree is None:
            tree = SearchTree(state, evaluator, config)
        _, chosen = tree.run()
        tree.advance_root(chosen)
        return chosen

    return run_episode(spec, choose).makespan


def test_eager_play_at_default_exploration():
    # 500 simulations without a depth cap still pick the eager line: the
    # huge exploration constant needs far more visits before the tiny NoOp
    # prior lets the robot wait for the better schedule.
    spec = parse_jobspec(TINY_TEXT)
    cfg = SearchConfig(simulations=500, max_depth=None)
    assert play_with_tree(spec, cfg) == 7


def test_waiting_found_at_lower_exploration():
    spec = parse_jobspec(TINY_TEXT)
    cfg = SearchConfig(simulations=1000, max_depth=None, c_puct=10.0)
    assert play_with_tree(spec, cfg) == 6


class EagerTree(SearchTree):
    """The search as it was before edges were built lazily: every leaf that
    is not terminal, stalled or capped gets its edges when it is valued."""

    def _evaluate_leaf(self, node, capped):
        if node.terminal or node.stalled or capped:
            return super()._evaluate_leaf(node, capped)
        return expand_and_evaluate(node, self.evaluator)


def greedy_search_trace(tree_class, spec, params, config):
    """Each decision of a greedy episode played by one persistent tree: the
    root's (action, visits, total value) per edge, and the action chosen."""
    evaluator = NetEvaluator(params, spec.height, spec.width)
    tree = None
    trace = []

    def choose(state, agent, actions, rng):
        nonlocal tree
        if tree is None:
            tree = tree_class(state, evaluator, config)
        _, chosen = tree.run()
        trace.append(([(e.action, e.visits, e.total_value) for e in tree.root.edges], chosen))
        tree.advance_root(chosen)
        return chosen

    run_episode(spec, choose)
    return trace


@pytest.mark.parametrize("job", ["desk", "tiny"])
@pytest.mark.parametrize("max_depth", [None, 0, 1, 3])
def test_lazy_expansion_matches_eager_search_exactly(job, max_depth):
    """Edges built on the first walk through a node give the visits, values
    and choices of edges built when the node is valued, at every decision."""
    spec = desk_fixture() if job == "desk" else parse_jobspec(TINY_TEXT)
    config = SearchConfig(simulations=40, max_depth=max_depth)
    for seed in range(3):
        params = init_params(spec.height, spec.width, seed=seed)
        lazy = greedy_search_trace(SearchTree, spec, params, config)
        eager = greedy_search_trace(EagerTree, spec, params, config)
        assert len(lazy) > 1
        assert lazy == eager


def test_a_leaf_is_valued_without_listing_its_actions(monkeypatch):
    """``moves`` runs once for each node a walk passed through, and for no
    leaf: some valued leaf keeps its priors and has no edges."""
    calls = []

    def counted(state):
        calls.append(state)
        return moves(state)

    monkeypatch.setattr(search, "moves", counted)
    spec = desk_fixture()
    params = init_params(spec.height, spec.width, seed=0)
    config = SearchConfig(simulations=40, max_depth=None)
    tree = SearchTree(initial_state(spec), NetEvaluator(params, spec.height, spec.width), config)
    tree.run()
    nodes = list(walk(tree.root))
    passed = [n for n in nodes if any(e.child is not None for e in n.edges or ())]
    assert len(calls) == len(passed) > 1
    assert any(n.priors is not None and n.edges is None for n in nodes)
