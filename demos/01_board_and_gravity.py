"""
Boards, stones, and gravity
===========================

A job is laid out on a grid of stones. Each stone is one task; only
stones on the bottom row can be picked up. When a stone is removed,
everything resting on it settles downward, which exposes new work.

This script builds a small board by hand, renders it, and walks
through two removals to show how a wide stone waits until both of its
supports are gone.
"""

from hrcsched import Board, parse_jobspec

TEXT = """
board 2 3
agents 1 1
task A1 H 2 0 0
task A2 H 2 1 0
task B1 R 3 0 1
task B2 R 3 1 1
task C1 E 4 0 2 2
"""

spec = parse_jobspec(TEXT)
board = Board.from_spec(spec)


def pickable(board):
    """Ids of the stones on the bottom row, left to right."""
    bottom = [s for s in board.stones.values() if s.row == 0]
    return [s.id for s in sorted(bottom, key=lambda s: s.col)]


print("initial layout (row 0 is the bottom):")
print(board.render())
print("pickable now:", pickable(board))
print()

# C1 spans both columns, so it rests on B1 and B2 at once.
outcome = board.remove_and_cascade("A1")
print("removed A1, descents:", outcome.descents)
print(board.render())
print("C1 is still blocked, it sits at row", board.stones["C1"].row)
print()

outcome = board.remove_and_cascade("A2")
print("removed A2, descents:", outcome.descents)
print(board.render())
print("now C1 has settled to row", board.stones["C1"].row)
print("pickable now:", pickable(board))
