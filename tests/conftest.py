"""Shared fixtures: hand-sized jobs, a seeded random instance maker, and
readers of a board's layout."""

import numpy as np
import pytest

from hrcsched import JobSpec, Task, parse_jobspec

# Smallest job where waiting beats greed: the robot should sit out the
# first epoch so it is free for B while the human clears A and C.
TINY_TEXT = """\
board 2 2
agents 1 1
task A H 2 0 0
task B R 3 0 1
task C E 4 1 0
"""


def id_grid(board) -> list[list[str | None]]:
    """Task id or None per cell of ``board.cells``, one list per row, row 0
    first, each row left to right."""
    ids, cells, w = board.job.ids, board.cells, board.job.width
    return [[None if t < 0 else ids[t] for t in cells[k : k + w]] for k in range(0, len(cells), w)]


def bottom_row(board) -> list[str]:
    """Ids of the stones in row 0 of ``board.cells``, left to right, each
    listed once."""
    ids = board.job.ids
    return [ids[t] for t in dict.fromkeys(board.cells[: board.job.width]) if t >= 0]


@pytest.fixture
def tiny_spec() -> JobSpec:
    return parse_jobspec(TINY_TEXT)


def random_instance(seed: int) -> JobSpec:
    """A small settled job: 2-4 columns, 2-8 tasks, one human, one robot.

    Stones are stacked column by column so every layout is already at its
    gravity fixpoint and the bottom row is never empty. The task count is
    weighted toward small jobs to keep exhaustive search cheap.
    """
    rng = np.random.default_rng(seed)
    width = int(rng.integers(2, 5))
    height = int(rng.integers(2, 5))
    count = int(
        rng.choice(
            [2, 3, 4, 5, 6, 7, 8],
            p=[0.10, 0.20, 0.25, 0.20, 0.13, 0.08, 0.04],
        )
    )
    kinds = ["H", "R", "E"]
    fill = [0] * width
    tasks: list[Task] = []
    for i in range(count):
        for _ in range(20):
            span = 2 if width >= 2 and rng.random() < 0.25 else 1
            col = int(rng.integers(0, width - span + 1))
            row = max(fill[col : col + span])
            if row < height:
                break
        else:
            break
        kind = kinds[int(rng.choice(3, p=[0.4, 0.4, 0.2]))]
        duration = int(rng.integers(1, 10))
        tasks.append(Task(f"t{i}", kind, duration, col, row, span))
        for c in range(col, col + span):
            fill[c] = row + 1
    return JobSpec(width, height, 1, 1, tuple(tasks))


@pytest.fixture
def make_instance():
    return random_instance
