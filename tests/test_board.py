import numpy as np
import pytest

from hrcsched import (
    Board, BoardError, JobSpec, JobSpecError, Stone, Task, desk_fixture, parse_jobspec,
)

from conftest import random_instance


def make_board(text: str) -> Board:
    return Board.from_spec(parse_jobspec(text))


def test_from_spec_and_lookup():
    board = make_board("board 2 2\nagents 1 1\ntask a E 1 0 0\ntask b E 1 0 1 2\n")
    assert "a" in board.stones and "b" in board.stones and "c" not in board.stones
    assert len(board.stones) == 2
    assert board.grid[0] == ["a", None]
    assert board.grid[1] == ["b", "b"]


def test_overlap_rejected_at_placement():
    # a JobSpec built in code meets the parser's overlap check when made
    tasks = (Task("a", "E", 1, 0, 0, 2), Task("b", "E", 1, 1, 0))
    with pytest.raises(JobSpecError, match="overlaps task 'a'"):
        Board.from_spec(JobSpec(2, 2, 1, 1, tasks))


@pytest.mark.parametrize(
    "stone",
    [
        Task("a", "E", 1, 1, 0, 2),  # wraps into the next row
        Task("a", "E", 1, -1, 0),  # would land in the last cell
        Task("a", "E", 1, 0, 2),  # past the top
        Task("a", "E", 1, 0, -1),
        Task("a", "E", 1, 0, 0, 0),
    ],
)
def test_stone_outside_board_rejected_at_placement(stone):
    # a JobSpec built in code meets the parser's bounds check when made
    tasks = (stone, Task("b", "E", 1, 0, 1))
    with pytest.raises(JobSpecError, match="task 'a' (row|columns|must span)"):
        Board.from_spec(JobSpec(2, 2, 1, 1, tasks))


def test_bottom_row_tasks_order_and_dedupe():
    board = make_board(
        "board 4 1\nagents 1 1\n"
        "task right E 1 3 0\ntask wide E 1 1 0 2\ntask left E 1 0 0\n"
    )
    assert board.bottom_row_tasks() == ["left", "wide", "right"]


def test_remove_requires_bottom_row():
    board = make_board("board 1 2\nagents 1 1\ntask a E 1 0 0\ntask b E 1 0 1\n")
    with pytest.raises(BoardError, match="not in the bottom row"):
        board.remove_and_cascade("b")
    with pytest.raises(BoardError, match="no stone"):
        board.remove_and_cascade("zzz")


def test_single_descent():
    board = make_board("board 1 2\nagents 1 1\ntask a E 1 0 0\ntask b E 1 0 1\n")
    outcome = board.remove_and_cascade("a")
    assert outcome.removed == "a"
    assert outcome.descents == [("b", 1, 0)]
    assert board.stones["b"].row == 0
    assert board.bottom_row_tasks() == ["b"]
    assert board.is_gravity_fixpoint()


def test_chained_two_step_descent():
    """Removing one support triggers a chain: the stone above it drops,
    and the wide stone that rested on that one follows a step behind."""
    board = make_board(
        "board 2 3\nagents 1 1\n"
        "task base E 1 0 0\n"
        "task side E 1 0 1\n"
        "task wide E 1 0 2 2\n"
    )
    assert board.is_gravity_fixpoint()
    outcome = board.remove_and_cascade("base")
    assert outcome.descents == [("side", 1, 0), ("wide", 2, 1)]
    assert board.stones["side"].row == 0
    assert board.stones["wide"].row == 1
    # wide stops at row 1: side now occupies a cell under its span
    assert board.is_gravity_fixpoint()


def test_multi_row_fall_in_one_removal():
    board = make_board(
        "board 1 4\nagents 1 1\ntask a E 1 0 0\ntask b E 1 0 3\n"
    )
    outcome = board.remove_and_cascade("a")
    assert outcome.descents == [("b", 3, 2), ("b", 2, 1), ("b", 1, 0)]
    assert board.stones["b"].row == 0


def test_span_rests_on_single_support():
    # wide covers cols 0-1; only col 1 is supported after the removal, and
    # one occupied cell under the span is enough to hold it
    board = make_board(
        "board 2 2\nagents 1 1\n"
        "task a E 1 0 0\ntask b E 1 1 0\ntask wide E 1 0 1 2\n"
    )
    outcome = board.remove_and_cascade("a")
    assert outcome.descents == []
    assert board.stones["wide"].row == 1
    assert board.is_gravity_fixpoint()


def test_copy_is_independent():
    board = make_board("board 1 2\nagents 1 1\ntask a E 1 0 0\ntask b E 1 0 1\n")
    dup = board.copy()
    board.remove_and_cascade("a")
    assert "a" in dup.stones
    assert dup.stones["b"].row == 1
    assert board.stones["b"].row == 0


def test_render():
    board = make_board(
        "board 2 2\nagents 1 1\ntask a H 1 0 0\ntask b R 1 1 1\n"
    )
    assert board.render() == ".R\nH."


def test_cascade_reaches_fixpoint_on_random_instances():
    for seed in range(40):
        spec = random_instance(seed)
        board = Board.from_spec(spec)
        assert board.is_gravity_fixpoint()
        while board.bottom_row_tasks():
            board.remove_and_cascade(board.bottom_row_tasks()[0])
            assert board.is_gravity_fixpoint()
        assert len(board.stones) == 0


class ReferenceBoard:
    """A layout as an id grid (one list per row, row 0 first) and a table
    of stones, both plain and mutable: what ``reference_cascade`` works
    on, copied from a ``Board``."""

    def __init__(self, board: Board):
        self.width, self.height = board.width, board.height
        self.grid = board.grid
        self.stones = board.stones

    def bottom_row_tasks(self) -> list[str]:
        seen: list[str] = []
        for tid in self.grid[0]:
            if tid is not None and (not seen or seen[-1] != tid):
                seen.append(tid)
        return seen


def reference_cascade(board: ReferenceBoard, task_id: str) -> list[tuple[str, int, int]]:
    """Gravity by full rescans: the definition ``remove_and_cascade`` must
    match. Each pass scans rows bottom-up and columns left to right and
    moves every stone with empty cells under its whole span down one row;
    passes repeat until nothing moves."""
    stone = board.stones.pop(task_id)
    assert stone.row == 0
    for c in range(stone.col, stone.col + stone.span):
        board.grid[0][c] = None
    descents = []
    moved = True
    while moved:
        moved = False
        for r in range(1, board.height):
            for c in range(board.width):
                tid = board.grid[r][c]
                if tid is None:
                    continue
                s = board.stones[tid]
                if s.row != r or s.col != c:
                    continue
                cols = range(s.col, s.col + s.span)
                if all(board.grid[r - 1][cc] is None for cc in cols):
                    for cc in cols:
                        board.grid[r - 1][cc] = tid
                        board.grid[r][cc] = None
                    board.stones[tid] = Stone(s.id, s.kind, s.col, s.span, r - 1)
                    descents.append((tid, r, r - 1))
                    moved = True
    return descents


def random_layout(rng: np.random.Generator) -> tuple[Board, ReferenceBoard] | None:
    """A board and a reference board with the same random layout, floating
    stones allowed: 1-6 columns, 1-7 rows, spans 1-3. None when no stone
    landed on row 0, which is not a job; the draws are the same either way."""
    width = int(rng.integers(1, 7))
    height = int(rng.integers(1, 8))
    tasks = []
    used: set[tuple[int, int]] = set()
    for i in range(int(rng.integers(1, width * height + 1))):
        span = int(rng.integers(1, min(3, width) + 1))
        col = int(rng.integers(0, width - span + 1))
        row = int(rng.integers(0, height))
        cells = {(row, c) for c in range(col, col + span)}
        if cells & used:
            continue
        used |= cells
        tasks.append(Task(f"s{i}", "E", 1, col, row, span))
    try:
        board = Board.from_spec(JobSpec(width, height, 1, 1, tuple(tasks)))
    except JobSpecError:
        return None
    return board, ReferenceBoard(board)


def column_run(board: Board, task_id: str) -> bool:
    """Whether picking ``task_id`` is the column-run case of ``cascade``: a
    settled layout, a one-wide pick, and only one-wide stones above it up
    to a gap or the top."""
    stones = board.stones
    if not board.settled or stones[task_id].span != 1:
        return False
    col = stones[task_id].col
    for row in board.grid[1:]:
        if row[col] is None:
            return True
        if stones[row[col]].span != 1:
            return False
    return True


def test_cascade_matches_full_rescan_on_random_boards():
    rng = np.random.default_rng(2024)
    boards = picks = runs = 0
    while boards < 5000:
        layout = random_layout(rng)
        if layout is None:
            continue  # nothing to pick, so no cascade to test
        fast, slow = layout
        boards += 1
        while fast.bottom_row_tasks():
            assert fast.bottom_row_tasks() == slow.bottom_row_tasks()
            tid = str(rng.choice(fast.bottom_row_tasks()))
            runs += column_run(fast, tid)
            assert fast.remove_and_cascade(tid).descents == reference_cascade(slow, tid)
            assert fast.grid == slow.grid
            assert {k: s.row for k, s in fast.stones.items()} == {
                k: s.row for k, s in slow.stones.items()
            }
            picks += 1
    assert picks > 5000
    # both paths of a settled cascade, and the unsettled one, are well used
    assert runs > 1000 and picks - runs > 1000


def check_cascade(text: str, task_id: str) -> list[tuple[str, int, int]]:
    """Pick ``task_id`` on the job ``text`` and on its reference board, check
    that both agree, and return the descents."""
    fast = make_board(text)
    slow = ReferenceBoard(make_board(text))
    descents = fast.remove_and_cascade(task_id).descents
    assert descents == reference_cascade(slow, task_id)
    assert fast.grid == slow.grid
    assert fast.is_gravity_fixpoint()
    return descents


def test_column_run_up_to_the_top():
    text = (
        "board 2 3\nagents 1 1\ntask a E 1 0 0\ntask b E 1 0 1\n"
        "task c E 1 0 2\ntask d E 1 1 0\n"
    )
    assert column_run(make_board(text), "a")
    assert check_cascade(text, "a") == [("b", 1, 0), ("c", 2, 1)]


def test_column_run_under_a_gap_leaves_the_wide_stone_above_it():
    # w spans both columns over the gap at column 0, row 2, and rests on z
    text = (
        "board 2 4\nagents 1 1\ntask a E 1 0 0\ntask b E 1 0 1\n"
        "task x E 1 1 0\ntask y E 1 1 1\ntask z E 1 1 2\ntask w E 1 0 3 2\n"
    )
    assert column_run(make_board(text), "a")
    assert check_cascade(text, "a") == [("b", 1, 0)]


def test_wide_stone_resting_only_on_the_run_falls():
    # w spans both columns and rests on b alone
    text = (
        "board 2 3\nagents 1 1\ntask a E 1 0 0\ntask b E 1 0 1\n"
        "task x E 1 1 0\ntask w E 1 0 2 2\n"
    )
    assert not column_run(make_board(text), "a")
    assert check_cascade(text, "a") == [("b", 1, 0), ("w", 2, 1)]


def test_wide_stone_resting_on_the_run_and_a_neighbour_stays():
    # w spans both columns and rests on b and on y
    text = (
        "board 2 3\nagents 1 1\ntask a E 1 0 0\ntask b E 1 0 1\n"
        "task x E 1 1 0\ntask y E 1 1 1\ntask w E 1 0 2 2\n"
    )
    assert not column_run(make_board(text), "a")
    assert check_cascade(text, "a") == [("b", 1, 0)]


def test_floating_job_gets_a_full_first_pass():
    """``from_spec`` marks a settled job settled, so its first cascade only
    examines the stones above the pick, and a job with a floating stone
    unsettled, so its first cascade also drops a stone far from the pick."""
    assert Board.from_spec(desk_fixture()).settled
    text = "board 2 3\nagents 1 1\ntask a H 1 0 0\ntask b R 1 1 0\ntask c E 1 1 2\n"
    board = make_board(text)
    assert not board.settled
    slow = ReferenceBoard(make_board(text))
    assert board.remove_and_cascade("a").descents == reference_cascade(slow, "a") == [
        ("c", 2, 1)
    ]
    assert board.settled and board.grid == slow.grid


def snapshot(board: Board):
    return (
        [row[:] for row in board.grid],
        {k: (s.col, s.span, s.row) for k, s in board.stones.items()},
    )


def test_cascade_leaves_copies_untouched():
    """Copies share their stones, so a cascade on either side of a copy
    must leave the other side's grid and stones as they were."""
    rng = np.random.default_rng(7)
    for _ in range(300):
        layout = random_layout(rng)
        if layout is None:
            continue
        board = layout[0]
        earlier = []
        while board.bottom_row_tasks():
            before = snapshot(board)
            probe = board.copy()
            probe.remove_and_cascade(str(rng.choice(probe.bottom_row_tasks())))
            assert snapshot(board) == before
            earlier.append((board.copy(), before))
            board.remove_and_cascade(str(rng.choice(board.bottom_row_tasks())))
        for dup, seen in earlier:
            assert snapshot(dup) == seen
