import pytest

from hrcsched import (
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
from hrcsched.jobspec import MAX_AGENTS, MAX_CELLS

from conftest import TINY_TEXT, random_instance


def test_parse_tiny():
    spec = parse_jobspec(TINY_TEXT)
    assert (spec.width, spec.height) == (2, 2)
    assert (spec.humans, spec.robots) == (1, 1)
    assert [t.id for t in spec.tasks] == ["A", "B", "C"]
    a, b, c = spec.tasks
    assert a.kind == HUMAN_ONLY
    assert b.duration == 3
    # B sits on top of A; C is on the bottom row beside A
    assert b.row == 1
    assert (c.col, c.row) == (1, 0)
    assert c.span == 1


def test_parse_comments_blanks_and_optional_span():
    spec = parse_jobspec(
        """
        # a job
        board 3 2   # trailing comment
        agents 2 0

        task a E 1 0 0
        task b E 2 0 1 2
        """
    )
    assert [t.span for t in spec.tasks] == [1, 2]
    assert spec.robots == 0


def test_round_trip():
    spec = parse_jobspec(TINY_TEXT)
    assert parse_jobspec(serialize_jobspec(spec)) == spec
    for seed in range(10):
        spec = random_instance(seed)
        assert parse_jobspec(serialize_jobspec(spec)) == spec


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "missing board line"),
        ("board 2 2\n", "missing agents line"),
        ("agents 1 1\nboard 2 2\n", "agents line before board"),
        ("board 2 2\nagents 1 1\ntask a E 1 0 0\nboard 2 2\n", "duplicate board"),
        ("board 2 2\nagents 1 1\nagents 1 1\n", "duplicate agents"),
        ("board 2\nagents 1 1\n", "expected: board"),
        ("board 2 2\nagents 1\n", "expected: agents"),
        ("board 2 2\nagents 1 1\ntask a E 1 0\n", "expected: task"),
        ("board 2 2\nagents 1 1\ntask a X 1 0 0\n", "unknown task kind"),
        # ids are written unquoted into schedule.csv and episode_log.csv
        ("board 2 2\nagents 1 1\ntask a,b E 1 0 0\n", "line 3: task id 'a,b'"),
        ('board 2 2\nagents 1 1\ntask a"b E 1 0 0\n', "line 3: task id 'a\"b'"),
        # episode_log.csv writes a wait as noop
        ("board 2 2\nagents 1 1\ntask noop E 1 0 0\n", "line 3: task id 'noop'"),
        ("board 2 2\nagents 1 1\ntask a E x 0 0\n", "expected an integer"),
        ("board 2 2\nagents 1 1\nwidget a\n", "unknown directive"),
        ("board 2 2\nagents 1 1\n", "at least one task"),
        ("board 2 2\nagents 0 0\ntask a E 1 0 0\n", "at least one agent"),
        ("board 0 2\nagents 1 1\ntask a E 1 0 0\n", "at least 1x1"),
        ("board 2 2\nagents 1 1\ntask a E 0 0 0\n", "positive duration"),
        ("board 2 2\nagents 1 1\ntask a E 1 0 2\n", "outside the board"),
        ("board 2 2\nagents 1 1\ntask a E 1 1 0 2\n", "columns outside"),
        (
            "board 2 2\nagents 1 1\ntask a E 1 0 0\ntask a E 1 1 0\n",
            "duplicate task id",
        ),
        (
            "board 2 2\nagents 1 1\ntask a E 1 0 0 2\ntask b E 1 1 0\n",
            "overlaps",
        ),
        ("board 2 2\nagents 0 1\ntask a H 1 0 0\n", "needs a human"),
        ("board 2 2\nagents 1 0\ntask a R 1 0 0\n", "needs a robot"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(JobSpecError, match=fragment):
        parse_jobspec(text)


@pytest.mark.parametrize(
    "task, message",
    [
        ("task a E \u0663 0 0", "line 3: expected an integer of at most 16 digits, got '\u0663'"),
        ("task a E 1_0 0 0", "line 3: expected an integer of at most 16 digits, got '1_0'"),
        # a duration longer than 2**53 breaks the limit on the durations' sum
        (f"task a E {'1' * 5001} 0 0", "the task durations sum to more than 2**53"),
        (f"task a E 1 {'1' * 5001} 0", "line 3: expected an integer of at most 16 digits, "
                                       f"got '{'1' * 20}...'"),
    ],
    ids=["arabic-indic-digit", "underscore", "5001-digit-duration", "5001-digit-column"],
)
def test_integers_are_ascii_digits_of_at_most_16(task, message):
    with pytest.raises(JobSpecError) as err:
        parse_jobspec(f"board 2 2\nagents 1 1\n{task}\n")
    assert str(err.value) == message


def test_job_size_limits():
    # a job is refused before anything is allocated per cell or per agent
    with pytest.raises(JobSpecError, match="cells"):
        parse_jobspec("board 100000 100000\nagents 1 1\ntask a E 1 0 0\n")
    with pytest.raises(JobSpecError, match="cells"):
        parse_jobspec(f"board {MAX_CELLS + 1} 1\nagents 1 1\ntask a E 1 0 0\n")
    with pytest.raises(JobSpecError, match="agents"):
        parse_jobspec(f"board 2 2\nagents {MAX_AGENTS} 1\ntask a E 1 0 0\n")
    at_limit = parse_jobspec(
        f"board {MAX_CELLS // 2} 2\nagents {MAX_AGENTS - 1} 1\ntask a E 1 0 0\n"
    )
    assert at_limit.width * at_limit.height == MAX_CELLS
    assert at_limit.humans + at_limit.robots == MAX_AGENTS


def test_total_duration_limit():
    # times become floats in the search and the baselines, exact up to 2**53
    for total, accepted in ((2**53, True), (2**53 + 1, False)):
        text = (
            f"board 2 2\nagents 1 1\ntask a H {total - 2} 0 0\n"
            "task b R 1 1 0\ntask c E 1 0 1\n"
        )
        tasks = (Task("a", "H", total - 1, 0, 0), Task("b", "R", 1, 1, 0))
        if accepted:
            assert parse_jobspec(text).total_duration() == total
            assert JobSpec(2, 2, 1, 1, tasks).total_duration() == total
        else:
            with pytest.raises(JobSpecError, match=r"sum to more than 2\*\*53"):
                parse_jobspec(text)
            with pytest.raises(JobSpecError, match=r"sum to more than 2\*\*53"):
                JobSpec(2, 2, 1, 1, tasks)


def test_job_without_a_row_0_stone_is_refused():
    # only bottom-row stones can be picked, so play could not start
    with pytest.raises(JobSpecError, match="no task on row 0"):
        parse_jobspec("board 2 3\nagents 1 1\ntask a E 1 0 1\n")
    with pytest.raises(JobSpecError, match="no task on row 0"):
        JobSpec(2, 3, 1, 1, (Task("a", "E", 1, 0, 1), Task("b", "E", 1, 0, 2, 2)))


def test_error_reports_line_number():
    with pytest.raises(JobSpecError, match="line 3"):
        parse_jobspec("board 2 2\nagents 1 1\ntask a X 1 0 0\n")


@pytest.mark.parametrize(
    "args, fragment",
    [
        ((2, 2, 1, 1, (Task("a", "E", 1, 0, 0), Task("a", "E", 1, 1, 0))), "duplicate task id"),
        ((2, 2, 1, 1, (Task("a", "X", 1, 0, 0),)), "unknown kind 'X'"),
        ((2, 2, 1, 1, (Task("a", "E", 0, 0, 0),)), "positive duration"),
        ((2, 2, 0, 1, (Task("a", "H", 1, 0, 0),)), "needs a human"),
        ((2, 2, 1, 1, ()), "at least one task"),
        ((200, 100, 1, 1, (Task("a", "E", 1, 0, 0),)), "20000 cells"),
        ((2, 2, 1, 1, (Task("a,b", "E", 1, 0, 0),)), "task id 'a,b'"),
        # serialize_jobspec writes an id as one token, so these would not parse back
        ((2, 2, 1, 1, (Task("", "E", 1, 0, 0),)), "task id ''"),
        ((2, 2, 1, 1, (Task("a b", "E", 1, 0, 0),)), "task id 'a b'"),
        ((2, 2, 1, 1, (Task("a\tb", "E", 1, 0, 0),)), r"task id 'a\\tb'"),
        ((2, 2, 1, 1, (Task("x#y", "E", 1, 0, 0),)), "task id 'x#y'"),
        ((2, 2, 1, 1, (Task("noop", "E", 1, 0, 0),)), "task id 'noop'"),
        # serialize_jobspec would write these, and parse_jobspec reject them
        ((2, 2, 1, 1, (Task("a", "E", 1.5, 0, 0),)), "task 'a' .* integers, got 1.5 0 0 1"),
        ((2, 2, True, 0, (Task("a", "E", 1, 0, 0),)), "integers, got board 2 2, agents True 0"),
        ((2.0, 2, 1, 1, (Task("a", "E", 1, 0, 0),)), "integers, got board 2.0 2,"),
        ((2, 2, 1, 1, (Task(5, "E", 1, 0, 0),)), r"Task with a str id, got Task\(id=5,"),
        ((2, 2, 1, 1, (("a", "E", 1, 0, 0),)), r"Task with a str id, got \('a', 'E', 1, 0, 0\)"),
    ],
    ids=[
        "duplicate", "kind", "duration", "no-human", "no-tasks", "cells", "comma",
        "empty-id", "space-id", "tab-id", "hash-id", "noop-id", "float-duration", "bool-humans",
        "float-width", "int-id", "not-a-task",
    ],
)
def test_code_built_spec_meets_the_parser_rules(args, fragment):
    with pytest.raises(JobSpecError, match=fragment):
        JobSpec(*args)


def test_precedence_single_column_chain():
    spec = parse_jobspec(
        "board 1 3\nagents 1 1\ntask a E 1 0 0\ntask b E 1 0 1\ntask c E 1 0 2\n"
    )
    prec = derive_precedence(spec)
    assert prec == {
        "a": frozenset(),
        "b": frozenset({"a"}),
        "c": frozenset({"b"}),
    }


def test_precedence_span_collects_both_columns():
    spec = parse_jobspec(
        "board 2 3\nagents 1 1\n"
        "task a E 1 0 0\ntask b E 1 1 1\ntask c E 1 0 2 2\n"
    )
    prec = derive_precedence(spec)
    # c covers both columns: nearest below in col 0 is a (skipping the gap
    # at row 1), in col 1 it is b
    assert prec["c"] == frozenset({"a", "b"})
    assert prec["b"] == frozenset()
    assert prec["a"] == frozenset()


def test_precedence_uses_nearest_stone_only():
    spec = parse_jobspec(
        "board 1 3\nagents 1 1\ntask low E 1 0 0\ntask high E 1 0 2\n"
    )
    prec = derive_precedence(spec)
    assert prec["high"] == frozenset({"low"})


def test_desk_fixture_shape():
    spec = desk_fixture()
    assert (spec.width, spec.height) == (8, 15)
    assert (spec.humans, spec.robots) == (1, 1)
    assert len(spec.tasks) == 50
    kinds = [t.kind for t in spec.tasks]
    assert [kinds.count(k) for k in (HUMAN_ONLY, ROBOT_ONLY, EITHER)] == [19, 27, 4]
    assert spec.total_duration() == 269


def test_desk_fixture_mixed_bottom_row():
    spec = desk_fixture()
    bottom = sorted((t.col, t.kind) for t in spec.tasks if t.row == 0)
    assert len(bottom) == 8
    kinds = [k for _, k in bottom]
    assert kinds.count(HUMAN_ONLY) == 2
    assert kinds.count(ROBOT_ONLY) == 6


def test_desk_fixture_body_column_alternates():
    spec = desk_fixture()
    body = sorted((t for t in spec.tasks if t.col == 0), key=lambda t: t.row)
    assert len(body) == 15
    assert [t.row for t in body] == list(range(15))
    kinds = [t.kind for t in body]
    assert kinds == [HUMAN_ONLY if r % 2 == 0 else ROBOT_ONLY for r in range(15)]
    assert all(t.duration == 9 for t in body)


def test_random_instances_are_valid():
    for seed in range(30):
        spec = random_instance(seed)
        assert isinstance(spec, JobSpec)
        assert any(t.row == 0 for t in spec.tasks)
        # settled: every stone rests on row 0 or on another stone
        cells = {(t.row, c) for t in spec.tasks for c in range(t.col, t.col + t.span)}
        for t in spec.tasks:
            if t.row > 0:
                assert any((t.row - 1, c) in cells for c in range(t.col, t.col + t.span))
