import numpy as np
import pytest

import hrcsched.board as board_module
from hrcsched import (
    Board, BoardError, JobSpec, JobSpecError, Stone, Task, desk_fixture, parse_jobspec,
)

from conftest import bottom_row, id_grid, random_instance


def make_board(text: str) -> Board:
    return Board.from_spec(parse_jobspec(text))


def test_from_spec_and_lookup():
    board = make_board("board 2 2\nagents 1 1\ntask a E 1 0 0\ntask b E 1 0 1 2\n")
    assert "a" in board.stones and "b" in board.stones and "c" not in board.stones
    assert len(board.stones) == 2
    assert id_grid(board) == [["a", None], ["b", "b"]]


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
    assert bottom_row(board) == ["b"]
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
        while bottom_row(board):
            board.remove_and_cascade(bottom_row(board)[0])
            assert board.is_gravity_fixpoint()
        assert len(board.stones) == 0


class ReferenceBoard:
    """A layout as an id grid (one list per row, row 0 first) and a table
    of stones, both plain and mutable: what ``reference_cascade`` works
    on, copied from a ``Board``."""

    def __init__(self, board: Board):
        self.width, self.height = board.job.width, board.job.height
        self.grid = id_grid(board)
        self.stones = board.stones

    def bottom_row_tasks(self) -> list[str]:
        seen: list[str] = []
        for tid in self.grid[0]:
            if tid is not None and (not seen or seen[-1] != tid):
                seen.append(tid)
        return seen


def settling_pass(board: ReferenceBoard) -> list[tuple[str, int, int]]:
    """One full rescan: scan rows bottom-up and columns left to right, and
    move every stone with empty cells under its whole span down one row.
    Returns the descents; none exactly when the layout is at its gravity
    fixpoint."""
    descents = []
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
    return descents


def reference_cascade(board: ReferenceBoard, task_id: str) -> list[tuple[str, int, int]]:
    """Gravity by full rescans: the definition ``remove_and_cascade`` must
    match. Settling passes repeat until one moves nothing."""
    stone = board.stones.pop(task_id)
    assert stone.row == 0
    for c in range(stone.col, stone.col + stone.span):
        board.grid[0][c] = None
    descents = []
    while moved := settling_pass(board):
        descents += moved
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
    layout at its fixpoint, a one-wide pick, and only one-wide stones above
    it up to a gap or the top."""
    stones = board.stones
    if not board.is_gravity_fixpoint() or stones[task_id].span != 1:
        return False
    col = stones[task_id].col
    for row in id_grid(board)[1:]:
        if row[col] is None:
            return True
        if stones[row[col]].span != 1:
            return False
    return True


def test_cascade_matches_full_rescan_on_random_boards():
    rng = np.random.default_rng(2024)
    boards = floating = picks = runs = 0
    while boards < 5000:
        layout = random_layout(rng)
        if layout is None:
            continue  # nothing to pick, so no cascade to test
        fast, slow = layout
        boards += 1
        # JobContext.build's fixpoint check agrees with a settling pass on a fresh copy
        still = not settling_pass(ReferenceBoard(fast))
        assert (fast.job.floating < 0) == still
        floating += not still
        while bottom_row(fast):
            assert bottom_row(fast) == slow.bottom_row_tasks()
            tid = str(rng.choice(bottom_row(fast)))
            runs += column_run(fast, tid)
            assert fast.remove_and_cascade(tid).descents == reference_cascade(slow, tid)
            assert id_grid(fast) == slow.grid
            assert {k: s.row for k, s in fast.stones.items()} == {
                k: s.row for k, s in slow.stones.items()
            }
            picks += 1
    assert picks > 5000 and 1000 < floating < 4000
    # both paths of a settled cascade, and the unsettled one, are well used
    assert runs > 1000 and picks - runs > 1000


def check_cascade(text: str, task_id: str) -> list[tuple[str, int, int]]:
    """Pick ``task_id`` on the job ``text`` and on its reference board, check
    that both agree, and return the descents."""
    fast = make_board(text)
    slow = ReferenceBoard(make_board(text))
    descents = fast.remove_and_cascade(task_id).descents
    assert descents == reference_cascade(slow, task_id)
    assert id_grid(fast) == slow.grid
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
    """A settled job has no floating stone, so its first cascade only
    examines the stones above the pick. A job with a floating stone records
    its leftmost cell, and its first cascade also drops a stone far from
    the pick."""
    assert Board.from_spec(desk_fixture()).job.floating == -1
    text = "board 2 3\nagents 1 1\ntask a H 1 0 0\ntask b R 1 1 0\ntask c E 1 1 2\n"
    board = make_board(text)
    assert board.job.floating == 5  # c: row 2, column 1
    slow = ReferenceBoard(make_board(text))
    assert board.remove_and_cascade("a").descents == reference_cascade(slow, "a") == [
        ("c", 2, 1)
    ]
    assert board.is_gravity_fixpoint() and id_grid(board) == slow.grid


# c floats over the gap above b, and e rests on c alone
FLOAT_TEXT = (
    "board 3 4\nagents 1 1\ntask a H 2 0 0\ntask b R 3 1 0\ntask c E 1 1 2\n"
    "task d R 2 2 0\ntask e H 4 1 3 2\n"
)


def test_floating_job_takes_the_column_run_after_its_first_pick(monkeypatch):
    """The first pick settles the layout, so the next one-wide pick under
    nothing is a column run: no heap at all."""
    board = make_board(FLOAT_TEXT)
    slow = ReferenceBoard(make_board(FLOAT_TEXT))
    assert board.remove_and_cascade("a").descents == reference_cascade(slow, "a") == [
        ("c", 2, 1), ("e", 3, 2)
    ]
    pops = []
    heappop = board_module.heappop
    monkeypatch.setattr(board_module, "heappop", lambda heap: pops.append(1) or heappop(heap))
    assert column_run(board, "d")
    assert board.remove_and_cascade("d").descents == reference_cascade(slow, "d") == []
    assert pops == [] and id_grid(board) == slow.grid


def snapshot(board: Board):
    return (
        id_grid(board),
        {k: (s.col, s.span, s.row) for k, s in board.stones.items()},
    )


def test_cascade_leaves_copies_untouched():
    """A copy owns its cells, so a cascade on either side of a copy must
    leave the other side's grid and stones as they were."""
    rng = np.random.default_rng(7)
    for _ in range(300):
        layout = random_layout(rng)
        if layout is None:
            continue
        board = layout[0]
        earlier = []
        while bottom_row(board):
            before = snapshot(board)
            probe = board.copy()
            probe.remove_and_cascade(str(rng.choice(bottom_row(probe))))
            assert snapshot(board) == before
            earlier.append((board.copy(), before))
            board.remove_and_cascade(str(rng.choice(bottom_row(board))))
        for dup, seen in earlier:
            assert snapshot(dup) == seen
