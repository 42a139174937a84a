"""Seeded corpus of small jobs for the exhaustive-search workload.

Each job is drawn from one of a few fixed shapes (roster, board size, task
count, gravity mode), cycled in order, so every stretch of the corpus has
the same mix of sizes. Stones are dropped column by column onto the highest
cell under their span, so a two-column stone may rest on one column with a
gap under the other; every layout is settled and nothing floats. A board
that fills up before its task count is reached keeps the tasks placed.
"""

from __future__ import annotations

import random

# (humans, robots, width, height, tasks, strict)
SHAPES = (
    (1, 1, 3, 4, 6, True),
    (1, 1, 3, 4, 5, False),
    (2, 1, 3, 3, 4, True),
    (1, 2, 3, 3, 4, False),
    (2, 2, 3, 2, 3, True),
)
SPAN_CHANCE = 0.3


def corpus_job(seed: int, index: int) -> tuple[str, bool]:
    """Job text and gravity mode (True for strict) of corpus entry ``index``."""
    humans, robots, width, height, count, strict = SHAPES[index % len(SHAPES)]
    rng = random.Random(seed * 1_000_003 + index)
    fill = [0] * width
    lines = [f"board {width} {height}", f"agents {humans} {robots}"]
    for i in range(count):
        span = 2 if rng.random() < SPAN_CHANCE else 1
        spots = [c for c in range(width - span + 1) if max(fill[c : c + span]) < height]
        if not spots:
            span = 1
            spots = [c for c in range(width) if fill[c] < height]
        if not spots:
            break  # the board is full: gaps under wide stones took its room
        col = rng.choice(spots)
        row = max(fill[col : col + span])
        kind = rng.choice("HHRRE")
        duration = rng.randint(1, 9)
        lines.append(f"task t{i} {kind} {duration} {col} {row} {span}")
        for c in range(col, col + span):
            fill[c] = row + 1
    return "\n".join(lines) + "\n", strict
