"""Spans recorded from outside the package, around calls into its layers.

``Tracer.install`` replaces each traced function or method of ``hrcsched``
with a wrapper, at every name it is looked up by: the modules import many
functions by name (``search``, ``selfplay`` and ``cli`` each hold their own
``transition``), so patching the defining module alone would miss calls.
Methods are patched on their class. Note that the package attribute
``hrcsched.search`` is the function ``search``, not the module, so modules
are always taken from ``sys.modules``.

A span is (name, start, end, parent span, operation id). Spans are kept in
flat arrays while the run lasts and written out as JSONL at its end. A
layer's self time is its spans' time minus the time their child spans
cover. Helpers that are not traced count toward the layer that calls them:
``is_terminal`` and ``next_agent`` called by the search count as search.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, attribute, span name); a dotted attribute is a method.
TRACED = (
    ("cli", "main", "cli.main"),
    ("jobspec", "parse_jobspec", "jobspec.parse_jobspec"),
    ("jobspec", "derive_precedence", "jobspec.derive_precedence"),
    ("board", "Board.remove_and_cascade", "board.remove_and_cascade"),
    ("board", "Board.copy", "board.copy"),
    ("game", "transition", "game.transition"),
    ("game", "legal_actions", "game.legal_actions"),
    ("game", "GameState.copy", "game.GameState.copy"),
    ("game", "initial_state", "game.initial_state"),
    ("game", "run_episode", "game.run_episode"),
    ("net", "encode_state", "net.encode_state"),
    ("net", "forward", "net.forward"),
    ("net", "NetEvaluator.__call__", "net.evaluator"),
    ("search", "SearchTree.run", "search.run"),
    ("search", "SearchTree.advance_root", "search.advance_root"),
    ("search", "select_edge", "search.select_edge"),
    ("search", "expand_and_evaluate", "search.expand_and_evaluate"),
    ("search", "backup", "search.backup"),
    ("selfplay", "generate_episode", "selfplay.generate_episode"),
    ("selfplay", "avoid_stall", "selfplay.avoid_stall"),
    ("baselines", "exhaustive_search", "baselines.exhaustive_search"),
    ("baselines", "random_rollouts", "baselines.random_rollouts"),
)

MAX_WRITTEN_SPANS = 200_000

LAYERS = ("cli", "jobspec", "board", "game", "net", "search", "selfplay", "baselines")


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op = -1  # operation id of new spans; -1 outside operations
        self.names: list[str] = []
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op_of = array("l")
        self._stack: list[int] = []
        # counts taken from call results, by span name
        self.counts: dict[str, int] = {}

    def _count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(args, result, span)``
        runs when the call returns while tracing is on."""
        nid = len(self.names)
        self.names.append(name)
        stack, start, end = self._stack, self.start, self.end

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = len(start)
            self.name_of.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op_of.append(self.op)
            end.append(0.0)
            stack.append(span)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result, span)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def _after_hooks(self):
        def evaluator(args, result, span):
            # a hit runs no encode_state or forward, so records no child span
            if len(self.start) == span + 1:
                self._count("net.evaluator.hits")

        def stall(args, result, span):
            if result != args[1]:
                self._count("selfplay.avoid_stall.overrides")

        def oracle(args, result, span):
            self._count("baselines.nodes", result.nodes_expanded)

        def advance(args, result, span):
            self._count("search.reused_visits", args[0].root.visits)

        return {
            "net.evaluator": evaluator,
            "selfplay.avoid_stall": stall,
            "baselines.exhaustive_search": oracle,
            "search.advance_root": advance,
        }

    def install(self) -> None:
        """Patch every traced name in the ``hrcsched`` modules."""
        for layer in LAYERS:
            importlib.import_module(f"hrcsched.{layer}")
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "hrcsched" or name.startswith("hrcsched.")
        }
        hooks = self._after_hooks()
        for module, attr, name in TRACED:
            owner = modules[f"hrcsched.{module}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self.wrap(name, getattr(cls, method), hooks.get(name)))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(name, original, hooks.get(name))
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

        search_node = modules["hrcsched.search"].SearchNode
        init = search_node.__init__

        def counting_init(node, *args, **kwargs):
            if self.enabled:
                self._count("search.nodes_created")
            init(node, *args, **kwargs)

        search_node.__init__ = counting_init

    def retime(self, clock) -> None:
        """Map every span's start and end through ``clock``, which takes
        and returns an array of times."""
        self.start = array("d", clock(np.frombuffer(self.start)).tobytes())
        self.end = array("d", clock(np.frombuffer(self.end)).tobytes())

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span, in start order, times in microseconds
        from the first span. Only the first ``MAX_WRITTEN_SPANS`` are
        written, which keeps a file near 20 MB; metrics use every span."""
        names, start, end = self.names, self.start, self.end
        t0 = start[0] if len(start) else 0.0
        with open(path, "w") as fh:
            for i in range(min(len(start), MAX_WRITTEN_SPANS)):
                fh.write(
                    f'{{"name": "{names[self.name_of[i]]}", '
                    f'"start_us": {(start[i] - t0) * 1e6:.3f}, '
                    f'"end_us": {(end[i] - t0) * 1e6:.3f}, '
                    f'"parent": {self.parent[i]}, "op": {self.op_of[i]}}}\n'
                )

    def metrics(self, op_count: int, op_seconds: float) -> dict[str, float]:
        """Per-layer figures of the spans recorded so far.

        For every span name ``n``: ``n.calls``, its spans inside operations
        per operation, and ``n.us``, ``n.ms``, ``n.s``, the median of all its
        spans, set-up included. ``<layer>.self_share`` is the layer's self
        time inside operations over the operations' total time.
        """
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.asarray(self.parent, dtype=np.intp)
        name = np.asarray(self.name_of, dtype=np.intp)
        in_op = np.asarray(self.op_of) >= 0
        nested = parent >= 0
        own = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        calls = np.bincount(name[in_op], minlength=len(self.names))
        own_in_op = np.bincount(name[in_op], weights=own[in_op], minlength=len(self.names))
        by_name = {n: dur[name == i] for i, n in enumerate(self.names)}
        counts = self.counts

        def ratio(part, whole):
            return float(part) / whole if whole else 0.0

        out: dict[str, float] = {}
        for i, n in enumerate(self.names):
            median = float(np.median(by_name[n])) if len(by_name[n]) else 0.0
            out[f"{n}.calls"] = ratio(calls[i], op_count)
            out[f"{n}.us"], out[f"{n}.ms"], out[f"{n}.s"] = median * 1e6, median * 1e3, median
        for layer in LAYERS:
            share = sum(own_in_op[i] for i, n in enumerate(self.names) if n.startswith(layer + "."))
            out[f"{layer}.self_share"] = ratio(share, op_seconds)
        main = self.names.index("cli.main")
        out["cli.main.self_ms"] = ratio(own[name == main].sum(), len(by_name["cli.main"])) * 1e3
        runs = by_name["search.run"]
        out["search.run.ms_p90"] = float(np.quantile(runs, 0.9)) * 1e3 if len(runs) else 0.0
        out["search.nodes_created"] = ratio(counts.get("search.nodes_created", 0), op_count)
        out["search.reused_visits"] = ratio(
            counts.get("search.reused_visits", 0), len(by_name["search.advance_root"])
        )
        out["net.evaluator.hit_ratio"] = ratio(
            counts.get("net.evaluator.hits", 0), len(by_name["net.evaluator"])
        )
        out["selfplay.avoid_stall.overrides"] = ratio(
            counts.get("selfplay.avoid_stall.overrides", 0), op_count
        )
        oracle = by_name["baselines.exhaustive_search"]
        nodes = counts.get("baselines.nodes", 0)
        out["baselines.nodes"] = ratio(nodes, len(oracle))
        out["baselines.nodes_per_s"] = ratio(nodes, oracle.sum())
        return out
