"""Board layout and gravity for the assembly grid.

Stones sit on a width x height grid. Removing a stone may leave stones
above it unsupported; those descend one row at a time until every stone
again has at least one occupied cell somewhere under its span. Only
stones currently in the bottom row can be picked.

A layout is flat: tasks are numbered in job order, and ``cells`` holds the
task index of every cell (-1 when empty) with row 0 first, so cell
``row * width + col``. That list is the whole layout: a stone's row is its
cell index ``// width``, and a task is in the bottom row exactly when
``cells[col] == task``. The job's ``col`` and ``span`` tables never change.
``cascade`` is the one gravity routine: the game's transitions, ``Board``
and the exhaustive search all call it on such a layout.

Gravity is defined by repeated settling passes. Each pass scans the rows
bottom-up and the columns left to right, and moves every stone whose whole
span has empty cells directly below down one row; passes repeat until
nothing moves. ``cascade`` reports exactly the descents of that full
rescan, in the same order, while examining only candidate stones.

A stone found supported keeps its support until a cell under it empties,
and a cell empties only where a stone leaves it. In a pass, the cells of
row r empty while row r is scanned, before any stone of row r + 1 is
reached, and no cell of row r - 1 empties after row r is scanned. So the
stones a pass can move are the candidates: those directly above a cell
emptied earlier in the same pass (the picked stone's cells count as
emptied in the first pass), and those that fell in the previous pass.
Every other stone would be found supported by the full scan. Candidates
are keyed by the cell of their leftmost column and taken from a heap, so
in (row, col) order, the order the full scan meets them in, and the
descents come out in the same order.

A one-wide pick needs no heap when the stones above it in its column, up
to the first empty cell or the board's top, are all one wide: that run
falls one row and nothing else moves. In the first pass each run stone,
scanned bottom-up, finds the cell below it just vacated, and no second
pass moves anything. A stone resting on a run stone has the cell directly
above it, so it is the next run stone; once the run has fallen, the only
cell emptied is its top stone's old one, under the gap or the top, so no
other stone loses support. ``cascade`` shifts the run with one slice and
reports it bottom-up. If the walk up the column meets a wide stone first,
that stone may have rested on the run alone, and the heap cascade runs.

Both shortcuts need a layout that was settled before the pick. A job file
can describe floating stones; ``JobContext.floating`` is the leftmost cell
of the initial layout's first one, or -1. A cascade sees either the initial
layout (declines share it) or one a cascade left at its fixpoint, so
``cascade`` tests whether that stone still floats. If it does, every stone
above row 0 is a candidate, in ascending order and so already a heap: a
full first pass. The first pick of a route on a floating layout settles it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush

from .jobspec import JobSpec


class BoardError(ValueError):
    pass


@dataclass
class Stone:
    """One task on the board, as ``Board.stones`` reports it."""

    id: str
    kind: str
    col: int
    span: int
    row: int


@dataclass
class PickOutcome:
    removed: str
    # (task id, old row, new row) per single-row descent, in scan order
    descents: list[tuple[str, int, int]] = field(default_factory=list)


def _floats(cells: list[int], col, span, width: int, k: int) -> bool:
    """Whether cell ``k`` (above row 0) starts a stone whose span has only empty cells below."""
    s = cells[k]
    return s >= 0 and col[s] == k % width and max(cells[k - width : k - width + span[s]]) < 0


def first_floating(cells: list[int], col, span, width: int) -> int:
    """The leftmost cell of the first floating stone in (row, col) order, or -1."""
    return next((k for k in range(width, len(cells)) if _floats(cells, col, span, width, k)), -1)


def cascade(cells: list[int], col, span, width: int, t: int, floating: int) -> list[int]:
    """Remove bottom-row task ``t`` from the layout, in place, and let the
    stack settle (see the module docstring).

    Returns the task of every single-row descent, in scan order; ``floating``
    is the job's ``JobContext.floating``.
    """
    settled = floating < 0 or not _floats(cells, col, span, width, floating)
    lo = col[t]
    hi = lo + span[t]
    descents: list[int] = []
    size = len(cells)
    if hi - lo == 1:
        cells[lo] = -1
        if settled:
            # the column run (module docstring): one-wide stones up to a gap
            # or the top all fall one row, bottom-up, in one slice
            top = lo + width
            while top < size and cells[top] >= 0 and span[cells[top]] == 1:
                top += width
            if top >= size or cells[top] < 0:
                run = cells[lo + width : top : width]
                cells[lo:top:width] = run + [-1]
                return run
    else:
        cells[lo:hi] = [-1] * (hi - lo)
    if settled:
        heap = []
        for s in cells[width + lo : width + hi]:
            if s >= 0:
                heap.append(width + col[s])
        if not heap:
            return descents
    else:
        heap = [k for k in range(width, size) if (s := cells[k]) >= 0 and col[s] == k % width]
    while heap:
        fell: list[int] = []  # ascending, so already a heap for the next pass
        last = -1
        while heap:
            key = heappop(heap)
            if key == last:
                continue
            last = key
            s = cells[key]
            if s < 0 or col[s] != key % width:
                continue  # empty, or not the leftmost cell of its stone
            n = span[s]
            below = key - width
            if n == 1:
                if cells[below] >= 0:
                    continue
                cells[below] = s
                cells[key] = -1
            else:
                if any(cells[cc] >= 0 for cc in range(below, below + n)):
                    continue
                cells[below : below + n] = [s] * n
                cells[key : key + n] = [-1] * n
            descents.append(s)
            if below >= width:
                fell.append(below)
            above = key + width
            if above < size:
                base = above - key % width
                for a in cells[above : above + n]:
                    if a >= 0:
                        heappush(heap, base + col[a])
        heap = fell
    return descents


class Board:
    """One layout over the tables of ``job``, the job's ``JobContext``.

    Its cells are the job's initial layout or one that a cascade left, as
    ``cascade`` needs. A board owns its ``cells``: ``from_spec`` copies the
    job's layout, and the board of a game state (``GameState.board``)
    copies the state's list, which states never change and may share.
    """

    __slots__ = ("job", "cells")

    def __init__(self, job, cells: list[int]):
        self.job, self.cells = job, cells

    @classmethod
    def from_spec(cls, spec: JobSpec) -> "Board":
        """The job's initial layout, its cells a copy of ``JobSpec.layout``."""
        # game.py imports this module, so JobContext is imported here, on call
        from .game import JobContext

        return cls(JobContext.build(spec), spec.layout())

    def copy(self) -> "Board":
        return Board(self.job, self.cells[:])

    def _rows(self) -> list[int]:
        """Each task's row, read off its cells; -1 once removed."""
        rows = [-1] * len(self.job.ids)
        w = self.job.width
        for k, t in enumerate(self.cells):
            if t >= 0:
                rows[t] = k // w
        return rows

    @property
    def stones(self) -> dict[str, Stone]:
        """The stones still on the board, in job order."""
        job = self.job
        ids, kinds, col, span = job.ids, job.kinds, job.col, job.span
        return {
            ids[i]: Stone(ids[i], kinds[i], col[i], span[i], r)
            for i, r in enumerate(self._rows())
            if r >= 0
        }

    def remove_and_cascade(self, task_id: str) -> PickOutcome:
        """Remove a bottom-row stone and let the stack settle (``cascade``)."""
        job = self.job
        t = job.index.get(task_id)
        if t is None or t not in self.cells:
            raise BoardError(f"no stone {task_id!r} on the board")
        if self.cells[job.col[t]] != t:
            raise BoardError(f"stone {task_id!r} is not in the bottom row")
        row = self._rows()  # each stone's row as the descents are replayed
        fell = cascade(self.cells, job.col, job.span, job.width, t, job.floating)
        descents = []
        for s in fell:
            descents.append((job.ids[s], row[s], row[s] - 1))
            row[s] -= 1
        return PickOutcome(task_id, descents)

    def is_gravity_fixpoint(self) -> bool:
        return first_floating(self.cells, self.job.col, self.job.span, self.job.width) < 0

    def render(self) -> str:
        """Text picture, top row first: '.' empty, else the stone's kind."""
        kinds, cells, w = self.job.kinds, self.cells, self.job.width
        return "\n".join(
            "".join("." if t < 0 else kinds[t] for t in cells[r * w : r * w + w])
            for r in range(self.job.height - 1, -1, -1)
        )
