"""Each broken schedule carries one fault, and the checker names exactly it.

Run with ``python3 -m pytest perfbench/test_checker.py``.
"""

from checker import check_schedule, lower_bound, predecessors, read_job, read_schedule

# C spans columns 0-1 and rests on A and B.
JOB = read_job(
    """\
board 3 2
agents 1 1
task A H 2 0 0
task B R 3 1 0
task C E 4 0 1 2
task D R 1 2 0
"""
)

STRICT = [("H1", "A", 0, 2), ("R1", "B", 0, 3), ("R1", "D", 3, 4), ("H1", "C", 3, 7)]
LITERAL = [("H1", "A", 0, 2), ("H1", "C", 2, 6), ("R1", "B", 0, 3), ("R1", "D", 3, 4)]


def replaced(rows, task, row):
    return [row if r[1] == task else r for r in rows]


def test_predecessors_and_bounds():
    assert predecessors(JOB) == {"A": set(), "B": set(), "C": {"A", "B"}, "D": set()}
    # strict: the chain B then C; literal: all work over both agents
    assert lower_bound(JOB, strict=True) == 7
    assert lower_bound(JOB, strict=False) == 5


def test_valid_schedules_pass():
    assert check_schedule(JOB, STRICT, strict=True, makespan=7) == []
    assert check_schedule(JOB, LITERAL, strict=False, makespan=6) == []


def test_read_schedule_round_trip():
    text = "agent,task,start,end\n" + "".join(f"{a},{t},{s},{e}\n" for a, t, s, e in STRICT)
    assert read_schedule(text) == STRICT


def test_strict_start_before_predecessor_ends():
    rows = replaced(LITERAL, "D", ("R1", "D", 6, 7))
    assert check_schedule(JOB, rows, strict=True) == [
        "task C starts before its predecessor B ends"
    ]


def test_literal_start_before_predecessor_starts():
    rows = [("H1", "C", 0, 4), ("H1", "A", 4, 6), ("R1", "B", 0, 3), ("R1", "D", 3, 4)]
    assert check_schedule(JOB, rows, strict=False) == [
        "task C starts before its predecessor A starts"
    ]


def test_missing_task():
    rows = [r for r in STRICT if r[1] != "D"]
    assert check_schedule(JOB, rows, strict=True) == ["task D is missing"]


def test_duplicated_task():
    assert check_schedule(JOB, STRICT + [("R1", "D", 7, 8)], strict=True) == [
        "task D appears more than once"
    ]


def test_unknown_task():
    assert check_schedule(JOB, STRICT + [("R1", "X", 7, 8)], strict=True) == [
        "unknown task 'X'"
    ]


def test_agent_of_the_wrong_kind():
    rows = [("R1", "B", 0, 3), ("R1", "D", 3, 4), ("R1", "A", 4, 6), ("H1", "C", 6, 10)]
    assert check_schedule(JOB, rows, strict=True) == [
        "task A: agent R1 cannot do a task of kind H"
    ]


def test_agent_not_on_the_roster():
    rows = replaced(STRICT, "A", ("H2", "A", 0, 2))
    assert check_schedule(JOB, rows, strict=True) == ["task A: agent H2 is not on the roster"]


def test_wrong_duration():
    rows = replaced(STRICT, "D", ("R1", "D", 3, 5))
    assert check_schedule(JOB, rows, strict=True) == ["task D runs 3..5, not 1 long"]


def test_overlapping_intervals():
    rows = replaced(STRICT, "D", ("R1", "D", 2, 3))
    assert check_schedule(JOB, rows, strict=True) == ["agent R1 runs B and D at once"]


def test_reported_makespan_is_not_the_latest_end():
    assert check_schedule(JOB, STRICT, strict=True, makespan=8) == [
        "makespan 8 is not the latest end 7"
    ]


def test_makespan_below_the_lower_bound():
    # Only a schedule that breaks another rule can finish this early: here
    # C ignores its predecessors, so both faults are named.
    rows = replaced(STRICT, "C", ("H1", "C", 2, 6))
    assert check_schedule(JOB, rows, strict=True) == [
        "task C starts before its predecessor B ends",
        "makespan 6 is below the lower bound 7",
    ]
