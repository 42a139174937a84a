"""Benchmark entry point: one run of one workload of hrcsched.

    python3 perfbench/run.py --workload solve-desk --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it reads ``src/`` and ``BENCHMARK.json``
there and writes only under ``.bench_run/``. It starts ``bench.py`` in a
fresh process with one BLAS thread and a fixed hash seed, waits for it and
passes on its standard output, whose last line is the result as JSON.
Workloads and metrics are described in ``perfbench/README.md``.
"""

import os
import signal
import subprocess
import sys

TIMEOUT_S = 170


def main() -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hrcsched", "__init__.py")):
        print("error: src/hrcsched not found; run from the root of a checkout", file=sys.stderr)
        return 2
    env = dict(
        os.environ,
        PYTHONPATH=os.path.join(root, "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    bench = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench.py")
    # subprocess.run kills and reaps the child when the wait is interrupted
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        proc = subprocess.run(
            [sys.executable, bench, *sys.argv[1:]],
            env=env,
            stdout=subprocess.PIPE,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"error: the run took longer than {TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.buffer.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
