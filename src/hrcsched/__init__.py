"""Makespan-minimizing schedulers for human-robot assembly jobs.

A job is a grid of task stones. Agents repeatedly pick stones from the
bottom row, stones above settle downward, and the schedule's quality is
the time the last task finishes. The package provides the game engine, a
tree search guided by a small convolutional network trained by self-play,
an exhaustive-search oracle, a random baseline, and a command line tool.
"""

from .baselines import (
    BUDGET_EXCEEDED,
    COMPLETE,
    DepthRow,
    OracleResult,
    SampleStats,
    exhaustive_search,
    histogram_csv,
    oracle_report_csv,
    random_rollouts,
)
from .board import Board, BoardError, PickOutcome, Stone
from .game import (
    NOOP,
    Agent,
    AgentAction,
    DeadlockError,
    Decision,
    EpisodeRecord,
    GameError,
    GameState,
    IllegalActionError,
    JobContext,
    episode_log_csv,
    initial_state,
    is_stalled,
    is_terminal,
    legal_actions,
    next_agent,
    pick,
    play,
    run_episode,
    schedule_csv,
    transition,
)
from .jobspec import (
    EITHER,
    HUMAN_ONLY,
    ROBOT_ONLY,
    JobSpec,
    JobSpecError,
    Task,
    derive_precedence,
    desk_fixture,
    parse_jobspec,
    serialize_jobspec,
)
from .net import (
    CheckpointError,
    NetEvaluator,
    PolicyValue,
    TrainingExample,
    UniformEvaluator,
    dumps_checkpoint,
    encode_state,
    forward,
    gradients,
    init_params,
    load_checkpoint,
    loads_checkpoint,
    loss,
    loss_and_gradients,
    network_width,
    plan_blocks,
    save_checkpoint,
    sgd_step,
)
from .search import SearchConfig, SearchNode, SearchTree
from .selfplay import (
    IterationReport,
    TrainingConfig,
    avoid_stall,
    clip_gradients,
    episode_seed,
    generate_episode,
    search_chooser,
    train_iteration,
    training_log_csv,
    training_loop,
)

__version__ = "0.1.0"
