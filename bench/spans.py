"""Tracing from outside the program: wrap hamdec's public functions at
every binding site their callers look up, record one span per call, and
turn the spans into per-layer metrics.

A span is [name, start, end, parent index, item, outcome]; spans stay in
memory until the run writes them out.  Outcomes are read where the wrapper
sees them: the return value, or the exception on its way to a caller that
may swallow it (``BudgetExhaustedError.expansions`` is counted that way).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Any, Callable

import hamdec
from hamdec.errors import BudgetExhaustedError

# (module, attribute) of each traced function -> span name.
TARGETS = {
    ("hamdec.factors", "oriented_reg"): "factors.oriented_reg",
    ("hamdec.factors", "has_oriented_r_factor"): "factors.has_oriented_r_factor",
    ("hamdec.factors", "extract_oriented_r_factor"): "factors.extract_oriented_r_factor",
    ("hamdec.partition", "build_partition"): "partition.build_partition",
    ("hamdec.pathcovers", "build_path_cover_family"): "pathcovers.build_path_cover_family",
    ("hamdec.assembly", "complete_family_to_cycles"): "assembly.complete_family_to_cycles",
    ("hamdec.assembly", "hamilton_path_any"): "assembly.hamilton_path_any",
    ("hamdec.assembly", "complete_cover_to_cycle"): "assembly.complete_cover_to_cycle",
    ("hamdec.assembly", "hamilton_path_between"): "assembly.hamilton_path_between",
    ("hamdec.pipeline", "approximate_decomposition"): "pipeline.approximate_decomposition",
    ("hamdec.pipeline", "verify_certificate"): "pipeline.verify_certificate",
    ("hamdec.pipeline", "sandwich_experiment"): "pipeline.sandwich_experiment",
    ("hamdec.counting", "permanent"): "counting.permanent",
    ("hamdec.counting", "count_hamilton_cycles_exact"): "counting.count_hamilton_cycles_exact",
    ("hamdec.counting", "count_hamilton_decompositions_exact"):
        "counting.count_hamilton_decompositions_exact",
    ("hamdec.counting", "count_hamilton_decompositions_ordered"):
        "counting.count_hamilton_decompositions_ordered",
    ("hamdec.graphs", "rotational_tournament"): "graphs.generate.rotational_tournament",
    ("hamdec.graphs", "random_tournament"): "graphs.generate.random_tournament",
    ("hamdec.graphs", "random_regular_oriented"): "graphs.generate.random_regular_oriented",
}
SPLICE_FAILURES = ("SpliceFailedError", "ConnectorDegreeTooLowError",
                   "ReservoirMismatchError", "InvariantViolationError")
# hamilton_path_between self time, split by the span that called it.
PATH_CALLERS = {"assembly.hamilton_path_any": "cover",
                "assembly.complete_cover_to_cycle": "block",
                "pipeline.approximate_decomposition": "exact"}


def _outcome(name: str, args: tuple, result: Any) -> Any:
    if name == "counting.permanent":
        return len(args[0])
    if name == "assembly.hamilton_path_between":
        return "found" if result is not None else "no_path"
    if name == "assembly.hamilton_path_any":
        return result is not None
    if name == "pathcovers.build_path_cover_family":
        return result[0].t
    if name == "assembly.complete_family_to_cycles":
        return len(result.cycles)
    return None


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list[Any]] = []
        self.item: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.clock(), 0.0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BudgetExhaustedError as exc:
                span[5] = ("exhausted", exc.expansions)
                raise
            except Exception as exc:
                span[5] = type(exc).__name__
                raise
            else:
                span[5] = _outcome(name, args, result)
                return result
            finally:
                span[2] = self.clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Replace each target wherever a hamdec module binds it, and
        ``Dinic.max_flow`` on its class."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "hamdec" or key.startswith("hamdec."))]
        for (mod_name, attr), name in TARGETS.items():
            original = getattr(sys.modules[mod_name], attr)
            traced = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, traced)
        dinic = hamdec.flows.Dinic
        self._patch(dinic, "max_flow", self._wrap("flows.max_flow", dinic.max_flow))

    def _patch(self, owner: Any, key: str, value: Any) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, value = self._patches.pop()
            setattr(owner, key, value)

    def to_json(self) -> list[dict[str, Any]]:
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "item": s[4], "outcome": s[5]} for s in self.spans]


def layer_metrics(spans: list[list[Any]], passes: int,
                  stages: list[dict[str, Any]]) -> dict[str, float]:
    """Per-layer metrics per traced pass, except the generator times, which
    cover the run's single traced set-up (spans with no item).  ``stages``
    are the RunReport stage rows of every pipeline instance in the traced
    passes."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    calls: dict[str, int] = defaultdict(int)
    secs: dict[str, float] = defaultdict(float)
    outcomes: dict[str, list[Any]] = defaultdict(list)
    path_self: dict[str, float] = defaultdict(float)
    setup: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        if s[4] is None:
            setup[s[0]] += dur[i]
            continue
        calls[s[0]] += 1
        secs[s[0]] += dur[i]
        outcomes[s[0]].append(s[5])
        if s[0] == "assembly.hamilton_path_between":
            caller = spans[s[3]][0] if s[3] >= 0 else ""
            path_self[PATH_CALLERS.get(caller, "exact")] += dur[i] - child[i]

    def ratio(hits: int, total: int) -> float:
        return hits / total if total else 0.0

    per = 1.0 / max(1, passes)
    m: dict[str, float] = {}
    for key in ("factors.oriented_reg", "factors.has_oriented_r_factor", "flows.max_flow",
                "pathcovers.build_path_cover_family", "assembly.hamilton_path_any",
                "assembly.complete_cover_to_cycle", "assembly.hamilton_path_between"):
        m[f"{key}.calls"] = calls[key] * per
    for key in ("factors.oriented_reg", "factors.extract_oriented_r_factor", "flows.max_flow",
                "partition.build_partition", "pathcovers.build_path_cover_family",
                "assembly.complete_family_to_cycles", "assembly.hamilton_path_any",
                "assembly.complete_cover_to_cycle", "pipeline.verify_certificate",
                "counting.permanent", "counting.count_hamilton_cycles_exact",
                "counting.count_hamilton_decompositions_exact",
                "counting.count_hamilton_decompositions_ordered",
                "pipeline.sandwich_experiment"):
        m[f"{key}.s"] = secs[key] * per
    for key in ("rotational_tournament", "random_tournament", "random_regular_oriented"):
        m[f"graphs.generate.{key}.s"] = setup[f"graphs.generate.{key}"]

    m["pathcovers.build_path_cover_family.covers"] = per * sum(
        o for o in outcomes["pathcovers.build_path_cover_family"] if isinstance(o, int))
    m["assembly.complete_family_to_cycles.cycles"] = per * sum(
        o for o in outcomes["assembly.complete_family_to_cycles"] if isinstance(o, int))
    m["assembly.hamilton_path_any.found_ratio"] = ratio(
        outcomes["assembly.hamilton_path_any"].count(True), calls["assembly.hamilton_path_any"])
    splice = outcomes["assembly.complete_cover_to_cycle"]
    m["assembly.complete_cover_to_cycle.ok_ratio"] = ratio(
        splice.count(None), calls["assembly.complete_cover_to_cycle"])
    for cls in SPLICE_FAILURES:
        m[f"assembly.complete_cover_to_cycle.fail.{cls}"] = splice.count(cls) * per
    m["assembly.complete_cover_to_cycle.fail.other"] = per * sum(
        1 for o in splice if o is not None and o not in SPLICE_FAILURES)

    path = outcomes["assembly.hamilton_path_between"]
    for role in ("cover", "block", "exact"):
        m[f"assembly.hamilton_path_between.self_s.{role}"] = path_self[role] * per
    m["assembly.hamilton_path_between.found"] = path.count("found") * per
    m["assembly.hamilton_path_between.no_path"] = path.count("no_path") * per
    exhausted = [o[1] for o in path if isinstance(o, tuple)]
    m["assembly.hamilton_path_between.exhausted"] = len(exhausted) * per
    m["assembly.hamilton_path_between.exhausted_expansions"] = sum(exhausted) * per

    for stage in ("reg", "partition", "direct", "completion"):
        m[f"pipeline.stage.{stage}.s"] = per * sum(
            row.get("seconds", 0.0) for row in stages if row["name"] == stage)
    direct = [row for row in stages if row["name"] == "direct"]
    m["pipeline.direct.rounds"] = per * sum(row.get("rounds", 0) for row in direct)
    m["pipeline.direct.failures"] = per * sum(row.get("failures", 0) for row in direct)

    # computed from the matrix sizes, not counted: Ryser's Gray-code loop
    # updates n row sums for each of the 2^n - 1 non-empty column subsets
    updates = sum(((1 << n) - 1) * n for n in outcomes["counting.permanent"]
                  if isinstance(n, int))
    m["counting.permanent.row_updates_per_s"] = ratio(updates, secs["counting.permanent"])
    return m
