"""PUCT tree search over micro-decisions.

Each node is a state where one idle agent must act; its edges are that
agent's legal actions. Traversing an epoch-closing edge carries the step
reward and increases depth by one, so a depth limit counts completions
looked ahead, not individual picks. Backed-up values are undiscounted sums
of the rewards met along the path plus the leaf evaluation, in raw
(negative) time units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .game import AgentAction, GameState, legal_actions, next_agent, transition

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

    @property
    def mean_value(self) -> float:
        return self.total_value / self.visits if self.visits else 0.0


@dataclass(slots=True)
class SearchNode:
    state: GameState
    depth: int  # epochs advanced since the episode root; limits apply relative to the current root
    edges: list[Edge] | None = None  # None until expanded
    # the state's status, set once: a node's state is never mutated
    terminal: bool = field(init=False)
    stalled: bool = field(init=False)

    def __post_init__(self):
        # is_terminal and is_stalled, read off the fields: a node is made per
        # edge the search follows
        state = self.state
        self.terminal = state.completed_mask == state.job.full
        self.stalled = not self.terminal and state.pending < 0 and max(state.doing) < 0

    @property
    def visits(self) -> int:
        """N(s), the sum of the edges' visits; 0 before expansion."""
        return sum(e.visits for e in self.edges) if self.edges else 0


def select_edge(node: SearchNode, c_puct: float) -> Edge:
    """Pick the edge maximising Q + c * P * sqrt(sum visits) / (1 + visits).

    An exact score tie goes to the higher prior, then to the earlier edge.
    The edges follow ``legal_actions``: picks by increasing column, NoOp
    last, so the earlier edge is the lower column and NoOp loses every tie.

    A node's only edge is returned without scoring it, and an unvisited
    edge's score, Q = 0 and a divisor of 1, is its exploration term alone:
    the picks are the same as the formula's.
    """
    edges = node.edges
    if len(edges) == 1:
        return edges[0]
    # node.visits summed inline: this runs once per step of every simulation
    sqrt_total = math.sqrt(sum([e.visits for e in edges]))
    best = None
    best_score = 0.0
    for edge in edges:
        visits = edge.visits
        if visits:
            score = edge.total_value / visits + c_puct * edge.prior * sqrt_total / (1 + visits)
        else:
            score = c_puct * edge.prior * sqrt_total
        if best is None or score > best_score or score == best_score and edge.prior > best.prior:
            best, best_score = edge, score
    return best


def masked_priors(p: np.ndarray, columns: list[int]) -> np.ndarray:
    """Network column probabilities restricted to the legal set, renormalised.

    Ratios among the kept entries are preserved. ``p`` is the evaluator's
    float64 array, indexed as it is; any other sequence is converted.
    """
    if not isinstance(p, np.ndarray):
        p = np.asarray(p, dtype=float)
    masked = p[columns]
    total = masked.sum()
    if total <= 0:
        return np.full(len(columns), 1.0 / len(columns))
    return masked / total


def expand_and_evaluate(node: SearchNode, evaluator) -> float:
    """Populate the node's edges from the evaluator and return its value.

    Pick priors come from the network's column distribution masked to the
    legal picks; NoOp receives ``NOOP_PRIOR`` and the whole vector is
    renormalised. Terminal nodes get value 0 and no edges.
    """
    state = node.state
    if node.terminal:
        node.edges = []
        return 0.0

    agent = next_agent(state)
    actions = legal_actions(state, agent)
    p, value = evaluator(state)

    picks = actions[:-1]  # legal_actions lists the picks, then NoOp
    if picks:
        job = state.job
        col, index = job.col, job.index
        cols = [col[index[a.task]] for a in picks]
        weights = masked_priors(p, cols).tolist()
        weights.append(NOOP_PRIOR)
        total = 0.0  # left to right: builtin sum() compensates from Python 3.12 on
        for w in weights:
            total += w
        priors = [w / total for w in weights]
    else:
        priors = [1.0]

    node.edges = [Edge(action=a, prior=w) for a, w in zip(actions, priors)]
    return float(value)


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
    """The node behind ``edge``, built by one transition on first use."""
    if edge.child is None:
        child_state, edge.reward, advanced = transition(node.state, edge.action)
        edge.child = SearchNode(state=child_state, depth=node.depth + int(advanced))
    return edge.child


def _stall_value(state: GameState) -> float:
    # Strictly worse than any real completion, which costs at most the
    # serial sum of all durations.
    return -2.0 * state.job.spec.total_duration()


class SearchTree:
    """A persistent tree reused across the decisions of one episode."""

    def __init__(self, state: GameState, evaluator, config: SearchConfig | None = None):
        self.config = config or SearchConfig()
        self.evaluator = evaluator
        self.root = SearchNode(state=state, depth=0)

    def run(self) -> tuple[list[tuple[AgentAction, float]], AgentAction]:
        """Run the configured simulations from the root.

        Returns (visit-count policy over the root actions, chosen action).
        The chosen action has the most visits; ties go to the higher prior,
        then to the earlier edge, which in ``legal_actions`` order is the
        lower column, with NoOp last. A root with a single legal action is
        answered immediately.
        """
        cfg = self.config
        if self.root.edges is None:
            expand_and_evaluate(self.root, self.evaluator)
        if self.root.terminal:
            raise ValueError("cannot search from a terminal state")
        if len(self.root.edges) == 1:
            return [(self.root.edges[0].action, 1.0)], self.root.edges[0].action

        for _ in range(cfg.simulations):
            self._simulate()

        total = self.root.visits
        if total == 0:
            policy = [(e.action, e.prior) for e in self.root.edges]
        else:
            policy = [(e.action, e.visits / total) for e in self.root.edges]
        # max keeps the first of equal keys
        chosen = max(self.root.edges, key=lambda e: (e.visits, e.prior)).action
        return policy, chosen

    def _depth_capped(self, node: SearchNode) -> bool:
        if self.config.max_depth is None:
            return False
        return node.depth - self.root.depth >= self.config.max_depth

    def _simulate(self) -> None:
        c_puct = self.config.c_puct
        has_cap = self.config.max_depth is not None
        node = self.root
        path: list[Edge] = []
        capped = False

        # a terminal or stalled node below the root is never expanded, so the
        # walk stops at it
        while node.edges:
            edge = select_edge(node, c_puct)
            path.append(edge)
            child = edge.child
            node = child if child is not None else _child(node, edge)
            if has_cap and self._depth_capped(node):
                capped = True
                break

        backup(path, self._evaluate_leaf(node, capped))

    def _evaluate_leaf(self, node: SearchNode, capped: bool) -> float:
        if node.terminal:
            return 0.0
        if node.stalled:
            return _stall_value(node.state)
        if capped:
            # depth-capped leaf: evaluated by the network, never expanded
            return float(self.evaluator(node.state)[1])
        return expand_and_evaluate(node, self.evaluator)

    def advance_root(self, action: AgentAction) -> None:
        """Keep the subtree behind the action taken; drop everything else."""
        if self.root.edges is None:
            expand_and_evaluate(self.root, self.evaluator)
        for edge in self.root.edges:
            if edge.action == action:
                self.root = _child(self.root, edge)
                return
        raise ValueError(f"{action} is not an edge of the root")

