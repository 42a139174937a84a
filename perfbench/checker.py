"""Schedule checker that shares no code with hrcsched.

It reads the job text and the ``agent,task,start,end`` schedule rows on its
own and checks the rules a schedule must keep, whichever engine made it:

- every task appears exactly once, on an agent whose kind may do it, and
  ``end - start`` equals its duration
- no agent works on two tasks at once
- strict gravity: a task starts no earlier than each direct predecessor in
  the initial layout ends; literal gravity: no earlier than each starts,
  since stones never pass each other
- the makespan is the latest end and is at least the lower bounds that
  hold in the job's mode (see ``lower_bound``)

``check_schedule`` returns a list of faults, empty when the schedule holds.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class JobTask:
    kind: str
    duration: int
    col: int
    row: int
    span: int


@dataclass(frozen=True)
class Job:
    humans: int
    robots: int
    tasks: dict[str, JobTask]


def read_job(text: str) -> Job:
    """The ``board``/``agents``/``task`` lines of a job file."""
    humans = robots = 0
    tasks: dict[str, JobTask] = {}
    for raw in text.splitlines():
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if fields[0] == "agents":
            humans, robots = int(fields[1]), int(fields[2])
        elif fields[0] == "task":
            span = int(fields[6]) if len(fields) > 6 else 1
            tasks[fields[1]] = JobTask(
                fields[2], int(fields[3]), int(fields[4]), int(fields[5]), span
            )
    return Job(humans, robots, tasks)


def read_schedule(text: str) -> list[tuple[str, str, int, int]]:
    lines = text.strip().splitlines()
    if not lines or lines[0] != "agent,task,start,end":
        raise ValueError("schedule lacks its agent,task,start,end header")
    rows = []
    for line in lines[1:]:
        agent, task, start, end = line.split(",")
        rows.append((agent, task, int(start), int(end)))
    return rows


def predecessors(job: Job) -> dict[str, set[str]]:
    """For each column a task covers, the nearest stone below it there."""
    occupied: dict[tuple[int, int], str] = {}
    for tid, t in job.tasks.items():
        for c in range(t.col, t.col + t.span):
            occupied[(c, t.row)] = tid
    preds: dict[str, set[str]] = {}
    for tid, t in job.tasks.items():
        found = set()
        for c in range(t.col, t.col + t.span):
            for r in range(t.row - 1, -1, -1):
                if (c, r) in occupied:
                    found.add(occupied[(c, r)])
                    break
        preds[tid] = found
    return preds


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def lower_bound(job: Job, strict: bool) -> int:
    """Largest of: human-only work over the humans, robot-only work over
    the robots, all work over all agents, and in strict mode the longest
    chain of direct predecessors."""
    work = {"H": 0, "R": 0, "E": 0}
    for t in job.tasks.values():
        work[t.kind] += t.duration
    bounds = [_ceil_div(sum(work.values()), job.humans + job.robots)]
    if job.humans:
        bounds.append(_ceil_div(work["H"], job.humans))
    if job.robots:
        bounds.append(_ceil_div(work["R"], job.robots))
    if strict:
        preds = predecessors(job)
        finish: dict[str, int] = {}

        def chain(tid: str) -> int:
            if tid not in finish:
                finish[tid] = job.tasks[tid].duration + max(
                    (chain(p) for p in preds[tid]), default=0
                )
            return finish[tid]

        bounds.append(max(chain(tid) for tid in job.tasks))
    return max(bounds)


def total_work(job: Job) -> int:
    return sum(t.duration for t in job.tasks.values())


def _agent_fault(job: Job, agent: str, kind: str) -> str | None:
    who, index = agent[:1], agent[1:]
    if who not in ("H", "R") or not index.isdigit():
        return f"unknown agent {agent!r}"
    if not 1 <= int(index) <= (job.humans if who == "H" else job.robots):
        return f"agent {agent} is not on the roster"
    if kind != "E" and kind != who:
        return f"agent {agent} cannot do a task of kind {kind}"
    return None


def check_schedule(
    job: Job, rows, strict: bool, makespan: int | None = None
) -> list[str]:
    faults: list[str] = []
    placed: dict[str, tuple[int, int]] = {}
    by_agent: dict[str, list[tuple[int, int, str]]] = {}
    for agent, task, start, end in rows:
        t = job.tasks.get(task)
        if t is None:
            faults.append(f"unknown task {task!r}")
            continue
        if task in placed:
            faults.append(f"task {task} appears more than once")
            continue
        placed[task] = (start, end)
        fault = _agent_fault(job, agent, t.kind)
        if fault:
            faults.append(f"task {task}: {fault}")
        if start < 0 or end - start != t.duration:
            faults.append(f"task {task} runs {start}..{end}, not {t.duration} long")
        by_agent.setdefault(agent, []).append((start, end, task))
    for tid in job.tasks:
        if tid not in placed:
            faults.append(f"task {tid} is missing")

    for agent, spans in by_agent.items():
        spans.sort()
        for (_, end, first), (start, _, second) in zip(spans, spans[1:]):
            if start < end:
                faults.append(f"agent {agent} runs {first} and {second} at once")

    for tid, preds in predecessors(job).items():
        if tid not in placed:
            continue
        for p in preds:
            if p not in placed:
                continue
            limit = placed[p][1] if strict else placed[p][0]
            if placed[tid][0] < limit:
                rule = "ends" if strict else "starts"
                faults.append(f"task {tid} starts before its predecessor {p} {rule}")

    latest = max((end for _, end in placed.values()), default=0)
    if makespan is not None and makespan != latest:
        faults.append(f"makespan {makespan} is not the latest end {latest}")
    bound = lower_bound(job, strict)
    if latest < bound:
        faults.append(f"makespan {latest} is below the lower bound {bound}")
    return faults
