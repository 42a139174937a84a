"""Job definitions for collaborative assembly scheduling.

A job is a grid of task "stones". Columns group tasks that must run in
sequence (lower rows first), rows group tasks that can run side by side.
Each stone is doable by a human, a robot, or either one, lasts a whole
number of time units, and covers one or more horizontally adjacent cells.

A ``JobSpec`` checks all of this when it is made, parsed or built in code,
so the board, the game and the oracle take a legal job for granted, and
its one cell layout (``JobSpec.layout``, filled by that check) and its one
precedence rule (``derive_precedence``) from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

HUMAN_ONLY = "H"
ROBOT_ONLY = "R"
EITHER = "E"

TASK_KINDS = (HUMAN_ONLY, ROBOT_ONLY, EITHER)

# Size caps checked before anything is allocated per cell or per agent; far
# above any real job (the desk has 120 cells and 2 agents).
MAX_CELLS = 10_000
MAX_AGENTS = 100
# The search and the baselines work with times as floats, and 2**53 is the
# largest whole number a float64 holds exactly.
MAX_TOTAL_DURATION = 2**53


class JobSpecError(ValueError):
    """Raised for syntactically or semantically invalid job definitions."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Task:
    id: str
    kind: str        # one of TASK_KINDS
    duration: int    # time units, > 0
    col: int         # leftmost column, 0-based
    row: int         # row, 0-based from the bottom
    span: int = 1    # columns covered


@dataclass(frozen=True)
class JobSpec:
    width: int
    height: int
    humans: int
    robots: int
    tasks: tuple[Task, ...]
    _cells: tuple[int, ...] = field(init=False, repr=False, compare=False)  # set by _validate

    def __post_init__(self):
        _validate(self)

    def total_duration(self) -> int:
        return sum(t.duration for t in self.tasks)

    def layout(self) -> list[int]:
        """The task index per cell, row 0 first (``row * width + col``), -1 if empty."""
        return list(self._cells)


def check_task_id(task_id: str, line=None) -> None:
    """An id is one token of the job format, as ``str.split`` cuts a line,
    and an unquoted CSV field that ``episode_log.csv`` cannot mistake for a
    wait, which it writes as ``noop``."""
    if task_id.split() != [task_id] or "#" in task_id or "," in task_id or '"' in task_id:
        message = f"task id {task_id!r} may not contain whitespace, '#', ',' or '\"', nor be empty"
        raise JobSpecError(message, line)
    if task_id == "noop":
        raise JobSpecError("task id 'noop' is taken: episode_log.csv writes a wait as noop", line)


def _validate(spec: JobSpec) -> None:
    # a plain int each, as the parser makes them; a bool or a float is refused
    if not type(spec.width) is type(spec.height) is type(spec.humans) is type(spec.robots) is int:
        got = f"board {spec.width!r} {spec.height!r}, agents {spec.humans!r} {spec.robots!r}"
        raise JobSpecError(f"board size and agent counts must be integers, got {got}")
    if spec.width < 1 or spec.height < 1:
        raise JobSpecError(f"board must be at least 1x1, got {spec.width}x{spec.height}")
    if spec.humans < 0 or spec.robots < 0:
        raise JobSpecError("agent counts cannot be negative")
    if spec.humans + spec.robots < 1:
        raise JobSpecError("at least one agent is required")
    if spec.width * spec.height > MAX_CELLS:
        raise JobSpecError(f"board has {spec.width * spec.height} cells, limit {MAX_CELLS}")
    if spec.humans + spec.robots > MAX_AGENTS:
        raise JobSpecError(f"roster has {spec.humans + spec.robots} agents, limit {MAX_AGENTS}")
    if not spec.tasks:
        raise JobSpecError("at least one task is required")

    seen: set[str] = set()
    width, tasks = spec.width, spec.tasks
    cells = [-1] * (width * spec.height)  # the task index per cell, the one fill
    for i, t in enumerate(tasks):
        if not isinstance(t, Task) or type(t.id) is not str:
            raise JobSpecError(f"each task must be a Task with a str id, got {t!r}")
        check_task_id(t.id)
        if t.id in seen:
            raise JobSpecError(f"duplicate task id {t.id!r}")
        seen.add(t.id)
        if t.kind not in TASK_KINDS:
            raise JobSpecError(f"task {t.id!r} has unknown kind {t.kind!r}")
        if not type(t.duration) is type(t.col) is type(t.row) is type(t.span) is int:
            got = f"got {t.duration!r} {t.col!r} {t.row!r} {t.span!r}"
            raise JobSpecError(f"task {t.id!r} duration, col, row, span must be integers, {got}")
        if t.duration < 1:
            raise JobSpecError(f"task {t.id!r} must have positive duration")
        if t.span < 1:
            raise JobSpecError(f"task {t.id!r} must span at least one cell")
        if t.row < 0 or t.row >= spec.height:
            raise JobSpecError(f"task {t.id!r} row {t.row} outside the board")
        if t.col < 0 or t.col + t.span > spec.width:
            raise JobSpecError(f"task {t.id!r} columns outside the board")
        lo = t.row * width + t.col
        for c in range(lo, lo + t.span):
            if cells[c] >= 0:
                other = tasks[cells[c]].id
                raise JobSpecError(
                    f"task {t.id!r} overlaps task {other!r} at row {t.row}, col {c % width}"
                )
            cells[c] = i
        if t.kind == HUMAN_ONLY and spec.humans == 0:
            raise JobSpecError(f"task {t.id!r} needs a human but the roster has none")
        if t.kind == ROBOT_ONLY and spec.robots == 0:
            raise JobSpecError(f"task {t.id!r} needs a robot but the roster has none")
    if cells[:width].count(-1) == width:
        raise JobSpecError("no task on row 0, so none can be picked first")
    if spec.total_duration() > MAX_TOTAL_DURATION:
        raise JobSpecError("the task durations sum to more than 2**53")
    object.__setattr__(spec, "_cells", tuple(cells))


def parse_jobspec(text: str) -> JobSpec:
    """Parse the plain-text job format.

    Line 1: ``board <width> <height>``
    Line 2: ``agents <humans> <robots>``
    Then one ``task <id> <H|R|E> <duration> <col> <row> [span]`` per task,
    span defaulting to 1. ``#`` starts a comment; blank lines are ignored.
    Rows count from the bottom of the board.
    """
    width = height = humans = robots = None
    tasks: list[Task] = []
    header_seen = agents_seen = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        keyword = fields[0]

        if keyword == "board":
            if header_seen:
                raise JobSpecError("duplicate board line", lineno)
            if len(fields) != 3:
                raise JobSpecError("expected: board <width> <height>", lineno)
            width, height = _ints(fields[1:], lineno)
            header_seen = True
        elif keyword == "agents":
            if not header_seen:
                raise JobSpecError("agents line before board line", lineno)
            if agents_seen:
                raise JobSpecError("duplicate agents line", lineno)
            if len(fields) != 3:
                raise JobSpecError("expected: agents <humans> <robots>", lineno)
            humans, robots = _ints(fields[1:], lineno)
            agents_seen = True
        elif keyword == "task":
            if not agents_seen:
                raise JobSpecError("task line before agents line", lineno)
            if len(fields) not in (6, 7):
                raise JobSpecError(
                    "expected: task <id> <H|R|E> <duration> <col> <row> [span]", lineno
                )
            tid, kind = fields[1], fields[2]
            check_task_id(tid, lineno)
            if kind not in TASK_KINDS:
                raise JobSpecError(f"unknown task kind {kind!r}", lineno)
            duration, col, row = _ints(fields[3:6], lineno)
            span = _ints(fields[6:], lineno)[0] if len(fields) == 7 else 1
            tasks.append(Task(tid, kind, duration, col, row, span))
        else:
            raise JobSpecError(f"unknown directive {keyword!r}", lineno)

    if not header_seen:
        raise JobSpecError("missing board line")
    if not agents_seen:
        raise JobSpecError("missing agents line")

    return JobSpec(width, height, humans, robots, tuple(tasks))


def _ints(fields, lineno):
    values = []
    for f in fields:
        try:
            values.append(int(f))
        except ValueError:
            raise JobSpecError(f"expected an integer, got {f!r}", lineno) from None
    return values


def serialize_jobspec(spec: JobSpec) -> str:
    """Render a spec back into the text format. parse(serialize(s)) == s."""
    lines = [f"board {spec.width} {spec.height}", f"agents {spec.humans} {spec.robots}"]
    for t in spec.tasks:
        lines.append(f"task {t.id} {t.kind} {t.duration} {t.col} {t.row} {t.span}")
    return "\n".join(lines) + "\n"


def derive_precedence(spec: JobSpec) -> dict[str, frozenset[str]]:
    """Direct predecessors of every task.

    For each column a task covers, the nearest stone strictly below it in
    that column (in the initial layout) is a direct predecessor. Tasks with
    nothing underneath have no predecessors.
    """
    cells, width, tasks = spec._cells, spec.width, spec.tasks
    result: dict[str, frozenset[str]] = {}
    for t in tasks:
        preds: set[str] = set()
        lo = (t.row - 1) * width + t.col  # the cell under the task's left end
        for c in range(lo, lo + t.span):
            while c >= 0 and cells[c] < 0:
                c -= width
            if c >= 0:
                preds.add(tasks[cells[c]].id)
        result[t.id] = frozenset(preds)
    return result


# Bundled demonstration job: a desk assembled by one human and one robot on a
# 15x8 board. Durations and the layout are illustrative constants chosen for
# this bundled example; the kind mix is 19 human-only, 27 robot-only and 4
# either-agent tasks.
_DESK_JOB = """\
board 8 15
agents 1 1

# Column 0 is the desk body build-up: a strict bottom-to-top chain that
# alternates between the human (place, align, fit) and the robot (screw,
# drill, bolt). Its 15 stages form the critical path of the job.
task body_base      H 9 0 0
task body_screw1    R 9 0 1
task body_shelf     H 9 0 2
task body_drill1    R 9 0 3
task body_panel     H 9 0 4
task body_bolt1     R 9 0 5
task body_frame     H 9 0 6
task body_screw2    R 9 0 7
task body_top       H 9 0 8
task body_drill2    R 9 0 9
task body_trim      H 9 0 10
task body_bolt2     R 9 0 11
task body_fit       H 9 0 12
task body_screw3    R 9 0 13
task body_finish    H 9 0 14

# Legs: robot fastener work stacked under the human inspection passes,
# so the inspections only surface once the fasteners below are done.
task leg1_screw     R 3 1 0
task leg1_bolt      R 4 1 1
task leg1_inspect   H 9 1 2
task leg1_drill     R 6 1 3
task leg1_label     H 1 1 4

task leg2_screw     R 3 2 0
task leg2_bolt      R 4 2 1
task leg2_inspect   H 9 2 2
task leg2_drill     R 6 2 3
task leg2_check     E 2 2 4

# Crossbar: alternating trades with a shared check on top.
task bar_gum        R 5 3 0
task bar_fit        H 9 3 1
task bar_screw      R 4 3 2
task bar_sand       H 6 3 3
task bar_check      E 2 3 4

# Drawer: the human starts it, the robot and human alternate above.
task drawer_fit     H 9 4 0
task drawer_gum     R 5 4 1
task drawer_sand    H 5 4 2
task drawer_screw   R 3 4 3
task drawer_check   E 2 4 4

# Rails and small finishing jobs.
task rail_deburr    R 2 5 0
task rail_sand      H 4 5 1
task rail_gum       R 5 5 2
task rail_wipe      H 3 5 3
task rail_check     E 2 5 4

task tray_deburr    R 2 6 0
task tray_gum       R 3 6 1
task tray_wipe      H 2 6 2
task tray_screw     R 4 6 3
task tray_label     H 1 6 4

# Cable run: robot-only prep work.
task cable_cut      R 2 7 0
task cable_strip    R 2 7 1
task cable_route    R 3 7 2
task cable_clip     R 1 7 3
task cable_tie      R 1 7 4
"""


def desk_fixture() -> JobSpec:
    """The bundled desk-assembly job (50 tasks, one human, one robot)."""
    return parse_jobspec(_DESK_JOB)
