"""One run of one benchmark workload, in this process.

``run.py`` starts this file in a fresh process with one BLAS thread and a
fixed hash seed; run it through ``run.py``. The last line it prints is the
result as JSON.

A run: the benchmark's own preparation (job files, the corpus), one set-up,
one untimed warm-up operation, then a timed phase of about ``--seconds``.
The phase repeats one fixed round of operations, made from the seed, in
whole passes: at least ``MIN_PASSES``, and no pass that would end after
``--seconds``. A set-up is timed again every ``SETUP_EVERY_S`` seconds of
it. Outputs of the first pass are checked, and every later pass must
reproduce them exactly.

The host's speed drifts by tens of percent within seconds and between
runs, so every timing is taken at a reference speed, measured while the
phase runs (``speed.py``). Round entries count the median of their times
over the passes, set-up the median of its times over the run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter

import numpy as np

import checker
import spans
from speed import Speedometer
from corpus import SHAPES, corpus_job

# Program calls go through attribute lookups on the package (hrcsched.X),
# so the wrappers the traced run installs there see them.
import hrcsched
import hrcsched.cli

SETUP_EVERY_S = 0.2
MIN_PASSES = 1
RUN_DIR = ".bench_run"


def op_seed(seed: int, index: int) -> int:
    return (seed * 1_000_003 + index) % 2**31


class OpClock:
    """Times one operation and tells the tracer which operation new spans
    belong to."""

    def __init__(self, tracer: spans.Tracer, op: int):
        self.tracer = tracer
        self.op = op

    def start(self) -> None:
        self.tracer.op = self.op
        self.began = perf_counter()

    def stop(self) -> None:
        self.ended = perf_counter()
        self.tracer.op = -1


def _cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = hrcsched.cli.main(argv)
    return code, out.getvalue()


class DeskWorkload:
    """Shared by the workloads on the bundled desk job. Set-up reads and
    parses the job file, builds the initial state and, for the workload
    that searches, initialises the network and evaluates it once."""

    uses_net = True

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.job_text = hrcsched.serialize_jobspec(hrcsched.desk_fixture())
        self.job_path = os.path.join(workdir, "desk.txt")
        with open(self.job_path, "w") as fh:
            fh.write(self.job_text)
        self.job = checker.read_job(self.job_text)
        self.bound = checker.lower_bound(self.job, strict=True)
        self.work = checker.total_work(self.job)

    def setup(self) -> None:
        with open(self.job_path) as fh:
            spec = hrcsched.parse_jobspec(fh.read())
        state = hrcsched.initial_state(spec)
        if self.uses_net:
            params = hrcsched.init_params(spec.height, spec.width, seed=self.seed)
            hrcsched.NetEvaluator(params, spec.height, spec.width)(state)


class SolveDesk(DeskWorkload):
    """``hrcsched solve`` through ``cli.main``, unlimited depth, 40
    simulations per decision, a fresh network seed per solve."""

    rounds = 36
    SIMULATIONS = 40

    def round(self, index: int, clock: OpClock):
        out = os.path.join(self.workdir, f"solve{index}")
        argv = ["solve", "--jobspec", self.job_path, "--simulations", str(self.SIMULATIONS),
                "--max-depth", "0", "--seed", str(op_seed(self.seed, index)), "--out", out]
        clock.start()
        code, stdout = _cli(argv)
        clock.stop()
        if code != 0:
            raise RuntimeError(f"solve exited with {code}")
        makespan = int(stdout.split()[-1])
        with open(os.path.join(out, "schedule.csv")) as fh:
            rows = checker.read_schedule(fh.read())
        with open(os.path.join(out, "episode_log.csv")) as fh:
            rewards = sum(int(line.rsplit(",", 1)[1]) for line in fh.read().splitlines()[1:])
        shutil.rmtree(out)
        return makespan, (makespan, rows, rewards)

    def check(self, result) -> list[str]:
        makespan, rows, rewards = result
        faults = checker.check_schedule(self.job, rows, strict=True, makespan=makespan)
        if rewards != -makespan:
            faults.append(f"episode_log rewards sum to {rewards}, not -{makespan}")
        return faults


class RolloutsDesk(DeskWorkload):
    """``random_rollouts`` on the desk job, 20 trajectories per operation."""

    rounds = 20
    CHUNK = 20
    uses_net = False

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.spec = hrcsched.parse_jobspec(self.job_text)

    def round(self, index: int, clock: OpClock):
        clock.start()
        stats = hrcsched.random_rollouts(
            self.spec, trajectories=self.CHUNK, seed=op_seed(self.seed, index)
        )
        clock.stop()
        return stats.mean, stats

    def check(self, stats) -> list[str]:
        faults = []
        if stats.count != self.CHUNK or len(stats.makespans) != self.CHUNK:
            faults.append(f"{len(stats.makespans)} trajectories, asked for {self.CHUNK}")
        if sum(stats.histogram.values()) != stats.count:
            faults.append("histogram does not sum to the trajectory count")
        if any(not self.bound <= m <= self.work for m in stats.makespans):
            faults.append(f"a makespan lies outside [{self.bound}, {self.work}]")
        return faults


class OracleCorpus:
    """``exhaustive_search`` to completion on one stretch of the corpus:
    operation ``index`` searches jobs ``index * B`` to ``index * B + B - 1``,
    B the number of shapes, so each operation holds one job of every shape
    (see ``corpus.py``). Set-up parses one job of each shape and builds its
    initial state. Each optimum is checked against the lower bounds, a
    batch of random rollouts, and a replay of its route through the
    object game core."""

    rounds = 400
    ROLLOUTS = 8

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.setup_texts = [corpus_job(seed, i) for i in range(len(SHAPES))]

    def setup(self) -> None:
        for text, strict in self.setup_texts:
            hrcsched.initial_state(hrcsched.parse_jobspec(text), strict=strict)

    def round(self, index: int, clock: OpClock):
        jobs = []
        for job in range(index * len(SHAPES), (index + 1) * len(SHAPES)):
            text, strict = corpus_job(self.seed, job)
            jobs.append((job, text, strict, hrcsched.parse_jobspec(text)))
        clock.start()
        results = [hrcsched.exhaustive_search(spec, strict=strict) for _, _, strict, spec in jobs]
        clock.stop()
        items = [(*job, result) for job, result in zip(jobs, results)]
        return statistics.fmean(r.optimal_makespan for r in results), items

    def check(self, items) -> list[str]:
        return [fault for item in items for fault in self._check_job(*item)]

    def _check_job(self, index, text, strict, spec, result) -> list[str]:
        where = f"corpus job {index}"
        if result.status != hrcsched.COMPLETE:
            return [f"{where}: search did not complete"]
        optimum = result.optimal_makespan
        # replay the optimal route through the object game core
        state = hrcsched.initial_state(spec, strict=strict)
        rows, reward = [], 0
        for label, task in result.optimal_route:
            agent = hrcsched.next_agent(state)
            if agent is None or str(agent) != label:
                return [f"{where}: route expects {label} to act, the game has {agent}"]
            if task is not None:
                duration = state.job.tasks[task].duration
                rows.append((label, task, state.clock, state.clock + duration))
            action = hrcsched.NOOP if task is None else hrcsched.pick(task)
            state, r, _ = hrcsched.transition(state, action)
            reward += r
        faults = []
        if state.clock != optimum or -reward != optimum:
            faults.append(f"{where}: route replays to {state.clock}, oracle says {optimum}")
        job = checker.read_job(text)
        faults += [f"{where}: {f}" for f in checker.check_schedule(job, rows, strict, optimum)]
        sample = hrcsched.random_rollouts(
            spec, self.ROLLOUTS, seed=op_seed(self.seed, index), strict=strict
        )
        if sample.min < optimum:
            faults.append(f"{where}: a random rollout ({sample.min}) beats the optimum {optimum}")
        return faults


WORKLOADS = {
    "solve-desk": SolveDesk,
    "rollouts-desk": RolloutsDesk,
    "oracle-corpus": OracleCorpus,
}


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(RUN_DIR, exist_ok=True)
    workdir = os.path.join(RUN_DIR, f"{name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return _run(name, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _timed(fn) -> tuple[float, float]:
    began = perf_counter()
    fn()
    return began, perf_counter()


def _run(name: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    workload = WORKLOADS[name](seed, workdir)
    tracer = spans.Tracer()
    if trace:
        tracer.install()
    workload.setup()
    workload.round(-1, OpClock(tracer, -1))  # warm-up

    speed = Speedometer()
    speed.start()
    try:
        tracer.enabled = trace
        setups = [_timed(workload.setup)]
        first = {}  # round entry -> result of the first pass
        quality: list[float] = []
        ops: list[tuple[int, float, float]] = []  # round entry, start, end
        faults: list[str] = []
        failed = passes = 0
        begin = perf_counter()
        while True:
            pass_begin = perf_counter()
            for index in range(workload.rounds):
                clock = OpClock(tracer, len(ops) + failed)
                try:
                    value, result = workload.round(index, clock)
                except Exception:
                    traceback.print_exc()
                    failed += 1
                    continue
                ops.append((index, clock.began, clock.ended))
                if index not in first:
                    first[index] = result
                    quality.append(value)
                elif result != first[index]:
                    faults.append(f"round {index} of pass {passes + 1} differs from its first pass")
                while len(setups) <= (perf_counter() - begin) / SETUP_EVERY_S:
                    setups.append(_timed(workload.setup))
            passes += 1
            now = perf_counter()
            if passes >= MIN_PASSES and now + (now - pass_begin) - begin > seconds:
                break
        tracer.enabled = False
    finally:
        speed.stop()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    faults += [f for result in first.values() for f in workload.check(result)]
    for fault in faults[:20]:
        print(f"check failed: {fault}", file=sys.stderr)
    index, began, ended = (np.array(column) for column in zip(*ops))
    scaled = speed.reference(ended) - speed.reference(began)
    times = [float(np.median(scaled[index == i])) for i in sorted(first)]
    op_ms = statistics.median(times) * 1e3
    if trace:
        tracer.retime(speed.program)
        path = os.path.join(RUN_DIR, f"trace-{name}.jsonl")
        tracer.write_jsonl(path)
        print(f"spans written to {path}", file=sys.stderr)
        op_seconds = float((speed.program(ended) - speed.program(began)).sum())
        values = tracer.metrics(len(ops), op_seconds)
        values["trace.op_ms"] = op_ms
    else:
        setup_began, setup_ended = (np.array(column) for column in zip(*setups))
        values = {
            "setup_s": float(np.median(speed.reference(setup_ended) - speed.reference(setup_began))),
            "op_ms": op_ms,
            "ops_per_s": len(times) / sum(times),
            "peak_rss_mb": peak_mb,
            "makespan": statistics.fmean(quality),
        }
    units = declared_units()[trace]
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics {sorted(missing)} are not measured")
    return {
        "correct": not faults,
        "attempted": len(ops) + failed,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units.items()},
    }


def declared_units() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and the per-layer metrics, by name."""
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
