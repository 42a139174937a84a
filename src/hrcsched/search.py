"""PUCT tree search over micro-decisions.

Each node is a state where one idle agent must act; its edges are that
agent's legal actions. Traversing an epoch-closing edge carries the step
reward and increases depth by one, so a depth limit counts completions
looked ahead, not individual picks. Backed-up values are undiscounted sums
of the rewards met along the path plus the leaf evaluation, in raw
(negative) time units.

A simulation is three calls: ``SearchTree._select`` walks to a leaf,
``_evaluate_leaf`` values it, and ``backup`` credits the value to the edges
walked. A leaf's evaluation keeps the evaluator's column priors on the node
unless it is terminal, stalled or at the depth cap; its edges are built from
them the first time a walk passes through it, so a leaf no walk passes
through again never lists its legal actions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .game import NOOP, AgentAction, GameState, is_stalled, is_terminal, moves, step

NOOP_PRIOR = 0.001  # NoOp's prior before the edge priors are renormalised


@dataclass
class SearchConfig:
    c_puct: float = 100.0
    max_depth: int | None = 3  # None looks ahead without limit
    simulations: int = 30


@dataclass(slots=True)
class Edge:
    action: AgentAction
    prior: float
    visits: int = 0
    total_value: float = 0.0
    reward: int = 0
    child: "SearchNode | None" = None
    move: tuple | None = None  # the action's (task, child) in the node's ``moves``

    @property
    def mean_value(self) -> float:
        return self.total_value / self.visits if self.visits else 0.0


@dataclass(slots=True)
class SearchNode:
    state: GameState
    depth: int  # epochs advanced since the episode root; limits apply relative to the current root
    # None until the first walk through the node, or its first search as
    # the root; then one edge per legal action, or none at a terminal root
    edges: list[Edge] | None = None
    # the evaluator's column priors, kept from the node's evaluation as a
    # leaf until its edges are built from them
    priors: np.ndarray | None = None
    # the state's status, set once: a node's state is never mutated
    terminal: bool = field(init=False)
    stalled: bool = field(init=False)

    def __post_init__(self):
        self.terminal = is_terminal(self.state)
        self.stalled = is_stalled(self.state)

    @property
    def visits(self) -> int:
        """N(s), the sum of the edges' visits; 0 while the node has no edges."""
        return sum(e.visits for e in self.edges) if self.edges else 0


def select_edge(node: SearchNode, c_puct: float) -> Edge:
    """Pick the edge maximising Q + c * P * sqrt(sum visits) / (1 + visits).

    An exact score tie goes to the higher prior, then to the earlier edge.
    The edges follow the game's ``moves``: picks by increasing column, NoOp
    last, so the earlier edge is the lower column and NoOp loses every tie.

    A node's only edge is returned without scoring it, and an unvisited
    edge's score, Q = 0 and a divisor of 1, is its exploration term alone:
    the picks are the same as the formula's.
    """
    edges = node.edges
    if len(edges) == 1:
        return edges[0]
    # node.visits summed in a plain loop, half the time of sum() over a list
    # comprehension: this runs once per step of every simulation
    total = 0
    for edge in edges:
        total += edge.visits
    sqrt_total = math.sqrt(total)
    best = None
    best_score = best_prior = 0.0
    for edge in edges:
        visits = edge.visits
        prior = edge.prior
        if visits:
            score = edge.total_value / visits + c_puct * prior * sqrt_total / (1 + visits)
        else:
            score = c_puct * prior * sqrt_total
        if best is None or score > best_score or score == best_score and prior > best_prior:
            best, best_score, best_prior = edge, score, prior
    return best


def masked_priors(p: np.ndarray, columns: list[int]) -> list[float]:
    """Network column probabilities restricted to the legal set, renormalised.

    Ratios among the kept entries are preserved. ``p`` is the evaluator's
    float64 array, indexed as it is; any other sequence is converted. The
    result is a list of Python floats.

    The kept entries are totalled as numpy's ``sum`` totals them, so the
    priors do not depend on which branch ran: below eight columns numpy
    adds left to right, and so does the loop here; from eight columns on
    numpy's pairwise sum adds in another order, and numpy sums. A zero
    total falls back to uniform priors.
    """
    if not isinstance(p, np.ndarray):
        p = np.asarray(p, dtype=float)
    if len(columns) < 8:
        row = p.tolist()
        masked = [row[c] for c in columns]
        total = 0.0
        for m in masked:
            total += m
    else:
        masked = p[columns]
        total = float(masked.sum())
        masked = masked.tolist()
    if total <= 0:
        return [1.0 / len(columns)] * len(columns)
    return [m / total for m in masked]


def expand_and_evaluate(node: SearchNode, evaluator) -> float:
    """Populate the node's edges from the evaluator and return its value.

    Terminal nodes get value 0 and no edges; see ``_add_edges`` for the
    priors.
    """
    if node.terminal:
        node.edges = []
        return 0.0
    p, value = evaluator(node.state)
    _add_edges(node, p)
    return float(value)


def _add_edges(node: SearchNode, p) -> None:
    """Give the node one edge per move of its state, in ``moves``' order,
    each keeping its move, and drop any priors it kept.

    Pick priors come from the network's column distribution ``p`` masked to
    the legal picks; NoOp receives ``NOOP_PRIOR`` and the whole vector is
    renormalised.
    """
    job = node.state.job
    _, listed = moves(node.state)
    if len(listed) > 1:  # moves lists the picks, then the decline
        weights = masked_priors(p, [job.col[t] for t, _ in listed[:-1]])
        weights.append(NOOP_PRIOR)
        total = 0.0  # left to right: builtin sum() compensates from Python 3.12 on
        for w in weights:
            total += w
        node.edges = [Edge(job.picks[m[0]], w / total, move=m) for m, w in zip(listed, weights)]
    else:
        node.edges = [Edge(NOOP, 1.0, move=listed[0])]
    node.priors = None


def backup(path: list[Edge], leaf_value: float) -> None:
    """Credit a finished simulation to every edge on its path, root first.

    Each edge receives the rewards collected from its own transition
    onwards plus the leaf value, all undiscounted. Only the edges are read.
    """
    value = leaf_value
    for edge in reversed(path):
        value += edge.reward
        edge.visits += 1
        edge.total_value += value


def _child(node: SearchNode, edge: Edge) -> SearchNode:
    """The node behind ``edge``, built by one ``step`` on first use."""
    if edge.child is None:
        state = node.state
        child = step(state, state.pending, *edge.move)
        edge.reward = state.clock - child.clock  # nonzero exactly when the epoch closes
        edge.child = SearchNode(child, node.depth + (edge.reward != 0))
    return edge.child


class SearchTree:
    """A persistent tree reused across the decisions of one episode."""

    def __init__(self, state: GameState, evaluator, config: SearchConfig | None = None):
        self.config = config or SearchConfig()
        self.evaluator = evaluator
        self.root = SearchNode(state=state, depth=0)
        # a stalled leaf's value: strictly worse than any real completion,
        # which costs at most the serial sum of the job's durations
        self._stall_value = -2.0 * state.job.spec.total_duration()

    def run(self) -> tuple[list[tuple[AgentAction, float]], AgentAction]:
        """Run the configured simulations from the root.

        Returns (visit-count policy over the root actions, chosen action).
        The chosen action has the most visits; ties go to the higher prior,
        then to the earlier edge, which in ``moves``' order is the
        lower column, with NoOp last. A root with a single legal action is
        answered immediately.
        """
        root = self._expanded_root()
        if root.terminal:
            raise ValueError("cannot search from a terminal state")
        edges = root.edges
        if len(edges) == 1:
            return [(edges[0].action, 1.0)], edges[0].action

        for _ in range(self.config.simulations):
            leaf, path, capped = self._select()
            backup(path, self._evaluate_leaf(leaf, capped))

        total = root.visits
        if total == 0:
            policy = [(e.action, e.prior) for e in edges]
        else:
            policy = [(e.action, e.visits / total) for e in edges]
        # max keeps the first of equal keys
        chosen = max(edges, key=lambda e: (e.visits, e.prior)).action
        return policy, chosen

    def _expanded_root(self) -> SearchNode:
        root = self.root
        if root.edges is None:
            if root.priors is None:
                expand_and_evaluate(root, self.evaluator)
            else:
                _add_edges(root, root.priors)
        return root

    def _select(self) -> tuple[SearchNode, list[Edge], bool]:
        """Walk by ``select_edge`` to a leaf: (leaf, edges walked root first,
        whether the walk stopped at the depth cap below the current root)."""
        c_puct = self.config.c_puct
        max_depth = self.config.max_depth
        cap = None if max_depth is None else self.root.depth + max_depth
        node = self.root
        path: list[Edge] = []
        # a node keeping priors gets its edges on the first walk through it;
        # one with neither edges nor priors is a leaf: never valued, or
        # terminal, stalled or capped when it was
        while True:
            edges = node.edges
            if edges is None:
                priors = node.priors
                if priors is None:
                    break
                _add_edges(node, priors)
            elif not edges:
                break
            edge = select_edge(node, c_puct)
            path.append(edge)
            child = edge.child
            node = child if child is not None else _child(node, edge)
            if cap is not None and node.depth >= cap:
                return node, path, True
        return node, path, False

    def _evaluate_leaf(self, node: SearchNode, capped: bool) -> float:
        if node.terminal:
            return 0.0
        if node.stalled:
            return self._stall_value
        p, value = self.evaluator(node.state)
        if not capped:
            # a leaf at the depth cap keeps no priors: no walk passes through it
            # until the root moves, and a walk that then reaches it values it again
            node.priors = p
        return float(value)

    def advance_root(self, action: AgentAction) -> None:
        """Keep the subtree behind the action taken; drop everything else."""
        root = self._expanded_root()
        for edge in root.edges:
            if edge.action == action:
                self.root = _child(root, edge)
                return
        raise ValueError(f"{action} is not an edge of the root")
