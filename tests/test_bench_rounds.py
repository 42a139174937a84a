"""One round of every benchmark workload runs and passes its own check.

``perfbench/bench.py`` drives the package through its public names (the
CLI, ``random_rollouts``, ``exhaustive_search``, the replay through
``transition``) and checks each output. This test runs round 0 of each
workload once, so a change that breaks what the benchmark calls fails in
the ordinary test run.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import bench
    import spans
finally:
    sys.path.remove(PERFBENCH)

SEED = 101


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_workload_round_is_correct(name, tmp_path):
    workload = bench.WORKLOADS[name](SEED, str(tmp_path))
    workload.setup()
    _, result = workload.round(0, bench.OpClock(spans.Tracer(), 0))
    assert workload.check(result) == []
