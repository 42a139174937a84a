"""Self-play policy iteration.

Each iteration plays a batch of search-guided episodes, files every
decision into a replay buffer as (input, visit-count policy, return-to-go),
trains the network on the buffer, and evaluates one greedy episode. The
whole loop is deterministic given the master seed: episode e of iteration k
is seeded with master * 1000003 + k * 1009 + e.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .game import DeadlockError, EpisodeRecord, noop_stalls, play
from .jobspec import JobSpec
from .net import (
    DENSE_UNITS,
    FILTERS,
    NetEvaluator,
    TrainingExample,
    encode_state,
    init_params,
    loss_and_gradients,
    save_checkpoint,
    sgd_step,
)
from .search import SearchConfig, SearchTree

SEED_ITERATION_STRIDE = 1_009
SEED_MASTER_STRIDE = 1_000_003
BATCH_SIZE = 32
MOMENTUM = 0.9
MAX_GRAD_NORM = 10.0


def episode_seed(master_seed: int, iteration: int, episode: int) -> int:
    return master_seed * SEED_MASTER_STRIDE + iteration * SEED_ITERATION_STRIDE + episode


def _column_policy(state, policy_pairs) -> np.ndarray:
    """Fold the action policy onto columns, dropping any NoOp mass.

    Returns zeros when the picks carried no visits (a NoOp-only decision);
    such decisions produce no training example.
    """
    width = state.job.spec.width
    out = np.zeros(width)
    for action, prob in policy_pairs:
        if not action.is_noop:
            out[state.job.tasks[action.task].col] += prob
    total = out.sum()
    if total > 0:
        out /= total
    return out


def avoid_stall(state, chosen, policy_pairs):
    """Declining is not playable when it would leave every agent idle with
    nothing left to pick this epoch (``noop_stalls``); the most likely pick
    is played instead."""
    if not chosen.is_noop or not noop_stalls(state):
        return chosen
    picks = [(a, p) for a, p in policy_pairs if not a.is_noop]
    if not picks:
        raise DeadlockError("nothing to work on and nobody busy")
    return max(picks, key=lambda ap: ap[1])[0]


def search_chooser(evaluator, config: SearchConfig | None = None, temperature_moves: int = 0):
    """A ``play`` chooser that searches one ``SearchTree`` for every
    decision and reuses its subtree for the next. The tree is built on the
    first state ``play`` hands over.

    The first ``temperature_moves`` decisions sample from the visit
    distribution; later ones take the most-visited action. The step's
    policy is the visits folded onto columns, and its next state is the
    child the tree already holds. ``chooser.follow(state, action)`` moves
    the tree along an action chosen elsewhere and returns the next state.
    """
    tree = None
    moves = 0

    def follow(state, action):
        nonlocal tree
        tree = tree or SearchTree(state, evaluator, config)
        tree.advance_root(action)
        return tree.root.state

    def choose(state, agent, rng):
        nonlocal tree, moves
        tree = tree or SearchTree(state, evaluator, config)
        policy_pairs, chosen = tree.run()
        if moves < temperature_moves and len(policy_pairs) > 1:
            probs = np.asarray([p for _, p in policy_pairs])
            probs = probs / probs.sum()
            chosen = policy_pairs[int(rng.choice(len(policy_pairs), p=probs))][0]
        moves += 1
        chosen = avoid_stall(state, chosen, policy_pairs)
        return chosen, _column_policy(state, policy_pairs), follow(state, chosen)

    choose.follow = follow
    return choose


@dataclass
class TrainingConfig:
    iterations: int = 10
    episodes: int = 10
    search: SearchConfig = field(default_factory=SearchConfig)
    epochs: int = 5
    learning_rate: float = 0.01
    capacity: int = 5000
    temperature_moves: int = 4
    seed: int = 0
    strict: bool = True
    filters: tuple[int, ...] = FILTERS
    dense_units: int = DENSE_UNITS


def generate_episode(
    spec: JobSpec,
    evaluator,
    search_config: SearchConfig | None = None,
    seed: int = 0,
    temperature_moves: int = TrainingConfig.temperature_moves,
    strict: bool = True,
) -> tuple[EpisodeRecord, list[TrainingExample]]:
    """Play one search-guided episode (``search_chooser``) and turn its
    decisions into training examples.

    Examples are produced when the evaluator exposes its input height and
    width; a decision whose visits all went to NoOp produces none. Each
    example is padded to the evaluator's size: its input by ``encode_state``,
    its column policy here, with zeros to the right of the job's width.
    """
    record = play(spec, search_chooser(evaluator, search_config, temperature_moves), seed, strict)
    if not (hasattr(evaluator, "height") and hasattr(evaluator, "width")):
        return record, []
    examples = [
        TrainingExample(
            x=encode_state(d.state, evaluator.height, evaluator.width),
            policy=np.pad(d.policy, (0, evaluator.width - d.policy.size)),
            value=float(d.state.clock - record.makespan),
        )
        for d in record.decisions
        if d.policy.sum() > 0
    ]
    return record, examples


def clip_gradients(grads, max_norm: float):
    """Scale the whole gradient down when its global norm exceeds the cap.

    Value targets are raw times, so early batches see errors of hundreds of
    units whose gradients would blow the network up under momentum; the cap
    bounds each step while leaving converged training untouched.
    """
    total = 0.0  # left to right: builtin sum() compensates from Python 3.12 on
    for g in grads.values():
        total += float(np.sum(g * g))
    total = float(np.sqrt(total))
    if total <= max_norm or total == 0.0:
        return grads
    scale = max_norm / total
    return {k: g * scale for k, g in grads.items()}


def train_iteration(examples, params, config: TrainingConfig, seed: int = 0):
    """Minibatch SGD over the ``examples`` sequence for ``config``'s epochs
    and learning rate. Returns (params, ce, mse), each averaged over every step."""
    if not examples or config.epochs == 0:
        return params, 0.0, 0.0

    rng = np.random.default_rng(seed)
    velocity = None
    ce_values: list[float] = []
    mse_values: list[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(len(examples))
        for lo in range(0, len(examples), BATCH_SIZE):
            batch = [examples[i] for i in order[lo : lo + BATCH_SIZE]]
            _, ce, mse, grads = loss_and_gradients(params, batch)
            grads = clip_gradients(grads, MAX_GRAD_NORM)
            params, velocity = sgd_step(params, grads, config.learning_rate, MOMENTUM, velocity)
            ce_values.append(ce)
            mse_values.append(mse)
    return params, float(np.mean(ce_values)), float(np.mean(mse_values))


@dataclass
class IterationReport:
    iteration: int
    episodes: int
    mean_makespan: float
    best_makespan: int
    policy_loss: float
    value_loss: float


def training_loop(
    spec: JobSpec,
    config: TrainingConfig | None = None,
    out_dir=None,
    progress=None,
):
    """Run the full policy-iteration loop. Returns (reports, final params).

    Checkpoints are written per iteration (and a final one) when ``out_dir``
    is given. ``progress`` is called with each IterationReport as it lands.
    """
    cfg = config or TrainingConfig()
    if cfg.episodes < 1:
        raise ValueError(f"episodes must be at least 1, got {cfg.episodes}")
    params = init_params(
        spec.height,
        spec.width,
        filters=cfg.filters,
        dense_units=cfg.dense_units,
        seed=cfg.seed,
    )
    buffer: deque[TrainingExample] = deque(maxlen=cfg.capacity)  # oldest fall out first
    reports: list[IterationReport] = []
    best: int | None = None

    for k in range(cfg.iterations):
        evaluator = NetEvaluator(params, spec.height, spec.width)
        makespans: list[int] = []
        for e in range(cfg.episodes):
            record, examples = generate_episode(
                spec,
                evaluator,
                cfg.search,
                seed=episode_seed(cfg.seed, k, e),
                temperature_moves=cfg.temperature_moves,
                strict=cfg.strict,
            )
            buffer.extend(examples)
            makespans.append(record.makespan)

        params, ce, mse = train_iteration(
            list(buffer), params, cfg, seed=episode_seed(cfg.seed, k, cfg.episodes + 1)
        )

        greedy = play(
            spec,
            search_chooser(NetEvaluator(params, spec.height, spec.width), cfg.search),
            seed=episode_seed(cfg.seed, k, cfg.episodes),
            strict=cfg.strict,
            record_decisions=False,
        )
        candidates = makespans + [greedy.makespan]
        best = min(candidates) if best is None else min(best, *candidates)

        report = IterationReport(
            iteration=k,
            episodes=cfg.episodes,
            mean_makespan=float(np.mean(makespans)),
            best_makespan=best,
            policy_loss=ce,
            value_loss=mse,
        )
        reports.append(report)
        if progress is not None:
            progress(report)
        if out_dir is not None:
            save_checkpoint(params, os.path.join(out_dir, f"checkpoint_{k:03d}.txt"))

    if out_dir is not None:
        save_checkpoint(params, os.path.join(out_dir, "checkpoint_final.txt"))
    return reports, params


def training_log_csv(reports: list[IterationReport]) -> str:
    lines = ["iteration,episodes,mean_makespan,best_makespan,policy_loss,value_loss"]
    for r in reports:
        lines.append(
            f"{r.iteration},{r.episodes},{r.mean_makespan:.6g},{r.best_makespan},"
            f"{r.policy_loss:.6g},{r.value_loss:.6g}"
        )
    return "\n".join(lines) + "\n"
