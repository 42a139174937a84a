"""Board state and gravity for the assembly grid.

Stones sit on a width x height grid. Removing a stone may leave stones
above it unsupported; those descend one row at a time until every stone
again has at least one occupied cell somewhere under its span. Only
stones currently in the bottom row can be picked.

Gravity is defined by repeated settling passes. Each pass scans the rows
bottom-up and the columns left to right, and moves every stone whose whole
span has empty cells directly below down one row; passes repeat until
nothing moves. ``remove_and_cascade`` reports exactly the descents of that
full rescan, in the same order, while examining only candidate stones.

A stone found supported keeps its support until a cell under it empties,
and a cell empties only where a stone leaves it. In a pass, the cells of
row r empty while row r is scanned, before any stone of row r + 1 is
reached, and no cell of row r - 1 empties after row r is scanned. So the
stones a pass can move are the candidates: those directly above a cell
emptied earlier in the same pass (the picked stone's cells count as
emptied in the first pass), and those that fell in the previous pass.
Every other stone would be found supported by the full scan. Candidates
are taken from a heap in (row, col) order, the order the full scan meets
them in, so the descents come out in the same order.

That argument needs a board that was settled before the pick. A job file
can describe floating stones, so ``from_spec`` checks its board once, and
``_place`` marks the board unsettled. The first cascade of an unsettled
board takes every stone above row 0 as a candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush

from .jobspec import JobSpec


class BoardError(ValueError):
    pass


@dataclass
class Stone:
    """One task on the board.

    A stone is never mutated in place: a descent replaces the board's entry
    with a new ``Stone``. Board copies therefore share their stones.
    """

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


class Board:
    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        # grid[row][col] holds a task id or None; row 0 is the bottom
        self.grid: list[list[str | None]] = [[None] * width for _ in range(height)]
        self.stones: dict[str, Stone] = {}
        # False while a placed stone may float, until the next cascade
        self._settled = True

    @classmethod
    def from_spec(cls, spec: JobSpec) -> "Board":
        board = cls(spec.width, spec.height)
        for t in spec.tasks:
            board._place(Stone(t.id, t.kind, t.col, t.span, t.row))
        board._settled = board.is_gravity_fixpoint()
        return board

    def _place(self, stone: Stone) -> None:
        for c in range(stone.col, stone.col + stone.span):
            if self.grid[stone.row][c] is not None:
                raise BoardError(f"cell ({stone.row}, {c}) already occupied")
            self.grid[stone.row][c] = stone.id
        self.stones[stone.id] = stone
        self._settled = False

    def copy(self) -> "Board":
        dup = Board.__new__(Board)
        dup.width = self.width
        dup.height = self.height
        dup.grid = [row[:] for row in self.grid]
        dup.stones = dict(self.stones)
        dup._settled = self._settled
        return dup

    def __contains__(self, task_id: str) -> bool:
        return task_id in self.stones

    def __len__(self) -> int:
        return len(self.stones)

    def bottom_row_tasks(self) -> list[str]:
        """Ids of stones in row 0, left to right, each listed once."""
        seen: list[str] = []
        for tid in self.grid[0]:
            if tid is not None and (not seen or seen[-1] != tid):
                seen.append(tid)
        return seen

    def remove_and_cascade(self, task_id: str) -> PickOutcome:
        """Remove a bottom-row stone and let the stack settle.

        The descents are those of repeated full settling passes, each
        scanning rows bottom-up and columns left to right and moving every
        unsupported stone down one row, so a stone can fall several rows
        through repeated passes. Each pass examines only the candidates
        (see the module docstring): stones above cells emptied before the
        pass reaches them, and stones that fell in the previous pass, in
        (row, col) order. The first cascade of an unsettled board takes
        every stone above row 0 as a candidate, which makes its first pass
        a full one.
        """
        stone = self.stones.get(task_id)
        if stone is None:
            raise BoardError(f"no stone {task_id!r} on the board")
        if stone.row != 0:
            raise BoardError(f"stone {task_id!r} is not in the bottom row")

        grid, stones, width = self.grid, self.stones, self.width
        lo, hi = stone.col, stone.col + stone.span
        for c in range(lo, hi):
            grid[0][c] = None
        del stones[task_id]

        outcome = PickOutcome(removed=task_id)
        descents = outcome.descents
        # candidates keyed row * width + col of their leftmost cell
        if self._settled:
            heap = self._keys_above(0, lo, hi)
        else:
            heap = [s.row * width + s.col for s in stones.values() if s.row > 0]
            heapify(heap)
            self._settled = True

        while heap:
            fell: list[int] = []  # ascending, so already a heap for the next pass
            last = -1
            while heap:
                key = heappop(heap)
                if key == last:
                    continue
                last = key
                r, c = divmod(key, width)
                tid = grid[r][c]
                if tid is None:
                    continue
                s = stones[tid]
                if s.row != r or s.col != c:
                    continue  # not the leftmost cell of this stone
                lo, hi = c, c + s.span
                below = grid[r - 1]
                if any(below[cc] is not None for cc in range(lo, hi)):
                    continue
                row_cells = grid[r]
                for cc in range(lo, hi):
                    below[cc] = tid
                    row_cells[cc] = None
                stones[tid] = Stone(tid, s.kind, c, s.span, r - 1)
                descents.append((tid, r, r - 1))
                if r > 1:
                    fell.append(key - width)
                for above in self._keys_above(r, lo, hi):
                    heappush(heap, above)
            heap = fell
        return outcome

    def _keys_above(self, row: int, lo: int, hi: int) -> list[int]:
        """Candidate keys of the stones on cells ``lo`` to ``hi - 1`` of the
        row above ``row``, ascending, repeats included."""
        if row + 1 == self.height:
            return []
        stones = self.stones
        base = (row + 1) * self.width
        return [base + stones[t].col for t in self.grid[row + 1][lo:hi] if t is not None]

    def is_gravity_fixpoint(self) -> bool:
        grid = self.grid
        for s in self.stones.values():
            # floating: every cell under the span is empty
            if s.row and grid[s.row - 1][s.col : s.col + s.span].count(None) == s.span:
                return False
        return True

    def render(self) -> str:
        """Text picture, top row first: '.' empty, else the stone's kind."""
        lines = []
        for r in range(self.height - 1, -1, -1):
            lines.append(
                "".join(
                    "." if tid is None else self.stones[tid].kind for tid in self.grid[r]
                )
            )
        return "\n".join(lines)
