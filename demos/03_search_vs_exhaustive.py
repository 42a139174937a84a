"""
Tree search against the exhaustive baseline
===========================================

The exhaustive searcher enumerates every route through a job with
iterative deepening and reports the true minimum makespan along with
how quickly the route count grows per depth. The guided tree search
reaches a schedule with a tiny fraction of that work by simulating a
few hundred playouts through a policy/value network.

On this three-task job the exploration constant matters: a strongly
prior-driven search commits to grabbing work immediately (makespan 7)
while a search that trusts its value estimates discovers that the
robot should idle for two time units first (makespan 6).
"""

from hrcsched import (
    NetEvaluator,
    SearchConfig,
    exhaustive_search,
    init_params,
    oracle_report_csv,
    parse_jobspec,
    play,
    search_chooser,
)

TEXT = """
board 2 2
agents 1 1
task A H 2 0 0
task B R 3 0 1
task C E 4 1 0
"""

spec = parse_jobspec(TEXT)

result = exhaustive_search(spec)
print("exhaustive search:", result.status)
print("optimal makespan:", result.optimal_makespan)
print("nodes visited:", result.nodes_expanded)
print(oracle_report_csv(result))

params = init_params(spec.height, spec.width, seed=0)
evaluator = NetEvaluator(params, spec.height, spec.width)

for label, config in [
    ("eager  (c_puct=100, 500 sims)", SearchConfig(simulations=500, max_depth=None)),
    ("patient (c_puct=10, 1000 sims)", SearchConfig(c_puct=10.0, simulations=1000, max_depth=None)),
]:
    record = play(spec, search_chooser(evaluator, config), seed=0)
    print(f"{label}: makespan {record.makespan}")
