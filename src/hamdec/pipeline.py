"""End-to-end driver: compute reg(G), extract edge-disjoint Hamilton
cycles by cycle-factor patching, and emit a verifiable certificate.

The direct stage runs the patching engine of ``assembly`` on the whole
residual graph until no cycle factor is left or its factors stop merging.
Below n = 12 exact search then extracts further cycles one at a time, and a
completion stage decomposes a tiny regular leftover by exact backtracking.
Certificates are re-verified from scratch before being returned.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any

from .assembly import HamiltonCycle, hamilton_path_between, patch_hamilton_cycles
from .counting import (
    BoundReport,
    LogCount,
    count_hamilton_decompositions_exact,
    count_hamilton_decompositions_ordered,
    decomposition_upper_bound,
    find_hamilton_decomposition,
)
from .errors import (
    BudgetExhaustedError,
    HamdecError,
    InvariantViolationError,
    HypothesisViolatedError,
    TooLargeError,
)
from .factors import oriented_reg
from .graphs import Edge, OrientedGraph, rotational_tournament, write_edge_list

# below this order the direct stage finishes with exact cycle extraction
EXACT_FINISH_N = 12


@dataclass
class RunConfig:
    """Pipeline knobs."""

    path_budget: int = 20_000     # expansions per exact Hamilton-path search
    seed: int = 0
    completion_stage: str = "exact-backtracking"   # "none" | "exact-backtracking"
    direct_stage: bool = True
    max_cycles: int | None = None
    max_n: int = 2000
    min_semi_floor: int = 0

    def __post_init__(self):
        if self.completion_stage not in ("none", "exact-backtracking"):
            raise ValueError(f"unknown completion stage {self.completion_stage!r}")


@dataclass(frozen=True)
class DecompositionCertificate:
    """Verified family of edge-disjoint Hamilton cycles plus the unused rest."""

    n: int
    graph_sha256: str
    cycles: tuple[HamiltonCycle, ...]
    leftover: frozenset[Edge]
    reg: int

    @property
    def k(self) -> int:
        return len(self.cycles)

    def to_json(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "graph_sha256": self.graph_sha256,
            "cycles": [list(c.order) for c in self.cycles],
            "leftover": sorted([u, v] for u, v in self.leftover),
            "reg": self.reg,
            "k": self.k,
        }

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "DecompositionCertificate":
        cycles = tuple(HamiltonCycle.from_order(seq) for seq in doc["cycles"])
        leftover = frozenset((int(u), int(v)) for u, v in doc["leftover"])
        cert = cls(n=int(doc["n"]), graph_sha256=str(doc["graph_sha256"]),
                   cycles=cycles, leftover=leftover, reg=int(doc["reg"]))
        if cert.k != int(doc["k"]):
            raise InvariantViolationError("certificate k field disagrees with cycles")
        return cert


@dataclass
class RunReport:
    n: int = 0
    reg: int = 0
    k: int = 0
    seed: int = 0
    stages: list[dict[str, Any]] = field(default_factory=list)
    hard_failures: list[str] = field(default_factory=list)

    @property
    def ratio(self) -> float:
        return self.k / self.reg if self.reg else 0.0

    def to_json(self) -> dict[str, Any]:
        return {
            "n": self.n, "reg": self.reg, "k": self.k,
            "ratio": self.ratio, "seed": self.seed,
            "stages": self.stages,
            "hard_failures": self.hard_failures,
        }


def graph_digest(g: OrientedGraph) -> str:
    return hashlib.sha256(write_edge_list(g).encode("ascii")).hexdigest()


# -- certificate verification -------------------------------------------


def verify_certificate(g: OrientedGraph, cert: DecompositionCertificate
                       ) -> tuple[bool, str | None]:
    """Re-check every certificate invariant from scratch; returns
    (ok, first violation)."""
    if cert.n != g.n:
        return False, "SizeMismatch"
    if cert.graph_sha256 != graph_digest(g):
        return False, "GraphHashMismatch"
    vertices = set(range(g.n))
    used: set[Edge] = set()
    for cyc in cert.cycles:
        if not cyc.spans(vertices):
            return False, "NotHamiltonian"
        if not cyc.edges <= g.edges:
            return False, "UnknownEdge"
        if used & cyc.edges:
            return False, "EdgeReuse"
        used |= cyc.edges
    if cert.leftover & used:
        return False, "LeftoverOverlap"
    if not cert.leftover <= g.edges:
        return False, "UnknownEdge"
    if used | cert.leftover != g.edges:
        return False, "LeftoverMismatch"
    if cert.reg != oriented_reg(g):
        return False, "RegMismatch"
    if cert.k > cert.reg:
        return False, "TooManyCycles"
    return True, None


# -- the pipeline ---------------------------------------------------------


def _extract_cycle_exact(residual: OrientedGraph, budget: int) -> HamiltonCycle | None:
    """One Hamilton cycle of the residual graph by exact search through its
    lowest-labelled active vertex."""
    anchors = [v for v in range(residual.n) if residual.out_neighbors[v]]
    if not anchors:
        return None
    v0 = anchors[0]
    for w in sorted(residual.out_neighbors[v0]):
        try:
            path = hamilton_path_between(residual, w, v0, budget=budget, seed=0)
        except BudgetExhaustedError:
            path = None
        if path is not None:
            return HamiltonCycle.from_order(path.vertices)
    return None


def _direct_stage(g: OrientedGraph, config: RunConfig, used: set[Edge],
                  cycles: list[HamiltonCycle], report: RunReport) -> None:
    outcome = patch_hamilton_cycles(g, used, seed=config.seed,
                                    max_cycles=config.max_cycles)
    for cyc in outcome.cycles:
        used |= cyc.edges
        cycles.append(cyc)
    row: dict[str, Any] = {"name": "direct", "mode": "patching",
                           "rounds": len(outcome.cycles), "failures": outcome.failures,
                           "switches": outcome.switches,
                           "stop_reason": outcome.stop_reason}
    if g.n < EXACT_FINISH_N:
        found = 0
        while config.max_cycles is None or len(cycles) < config.max_cycles:
            residual = OrientedGraph(g.n, g.edges - used, _validated=True)
            cyc = _extract_cycle_exact(residual, config.path_budget)
            if cyc is None:
                break
            used |= cyc.edges
            cycles.append(cyc)
            found += 1
        row["exact_rounds"] = found
    report.stages.append(row)


def _completion_stage(g: OrientedGraph, config: RunConfig, used: set[Edge],
                      cycles: list[HamiltonCycle], report: RunReport) -> None:
    leftover = g.edges - used
    if not leftover:
        return
    outs = [0] * g.n
    ins = [0] * g.n
    for u, v in leftover:
        outs[u] += 1
        ins[v] += 1
    degs = set(outs) | set(ins)
    if len(degs) != 1:
        report.stages.append({"name": "completion", "skipped": "leftover not regular"})
        return
    rho = degs.pop()
    if rho == 0 or rho > 2 or g.n > 12:
        report.stages.append({"name": "completion",
                              "skipped": f"leftover degree {rho}, n {g.n} beyond caps"})
        return
    leftover_graph = OrientedGraph(g.n, leftover, _validated=True)
    found = find_hamilton_decomposition(leftover_graph)
    if found is None:
        report.stages.append({"name": "completion", "found": 0})
        return
    for order in found:
        cyc = HamiltonCycle.from_order(order)
        used |= cyc.edges
        cycles.append(cyc)
    report.stages.append({"name": "completion", "found": len(found)})


def approximate_decomposition(g: OrientedGraph, config: RunConfig | None = None
                              ) -> tuple[DecompositionCertificate, RunReport]:
    """Greedily build verified edge-disjoint Hamilton cycles of g.

    Returns the certificate together with a per-stage report; on internal
    stage failures whatever cycles were completed are still certified.
    """
    config = config or RunConfig()
    if g.n > config.max_n:
        raise TooLargeError(f"n={g.n} exceeds the configured budget {config.max_n}")
    min_semi = min(min(g.out_degree(v) for v in range(g.n)),
                   min(g.in_degree(v) for v in range(g.n)))
    if min_semi < config.min_semi_floor:
        raise HypothesisViolatedError(
            f"min semi-degree {min_semi} below the configured floor "
            f"{config.min_semi_floor}")
    report = RunReport(n=g.n, seed=config.seed)
    t0 = time.perf_counter()
    reg = oriented_reg(g)
    report.reg = reg
    digest = graph_digest(g)
    report.stages.append({"name": "reg", "reg": reg, "seconds": time.perf_counter() - t0})
    if reg == 0:
        return DecompositionCertificate(g.n, digest, (), frozenset(g.edges), 0), report

    used: set[Edge] = set()
    cycles: list[HamiltonCycle] = []
    for stage, enabled in ((_direct_stage, config.direct_stage),
                           (_completion_stage, config.completion_stage != "none")):
        if not enabled:
            continue
        t1 = time.perf_counter()
        try:
            stage(g, config, used, cycles, report)
        except HamdecError as exc:
            report.hard_failures.append(f"{stage.__name__}: {type(exc).__name__}: {exc}")
        if report.stages:
            report.stages[-1].setdefault("seconds", time.perf_counter() - t1)

    cycles_sorted = tuple(sorted(cycles, key=lambda c: c.order))
    cert = DecompositionCertificate(g.n, digest, cycles_sorted,
                                    frozenset(g.edges - used), reg)
    report.k = cert.k
    ok, violation = verify_certificate(g, cert)
    if not ok:
        raise InvariantViolationError(f"emitted certificate failed self-check: {violation}")
    return cert, report


# -- decomposition-count sandwich at tiny sizes ---------------------------


def sandwich_experiment(n: int) -> tuple[BoundReport, dict[str, Any]]:
    """Exact decomposition count of the rotational tournament, sandwiched
    between a constructive lower bound and the iterated matching bound."""
    if n not in (3, 5, 7):
        raise TooLargeError(f"sandwich runs at n in {{3, 5, 7}}, got {n}")
    g = rotational_tournament(n)
    r = (n - 1) // 2
    exact = count_hamilton_decompositions_exact(g)
    cross = count_hamilton_decompositions_ordered(g)
    if exact.exact != cross.exact:
        raise InvariantViolationError(
            f"enumeration strategies disagree: {exact.exact} vs {cross.exact}")
    constructed = find_hamilton_decomposition(g)
    lower = LogCount.from_int(1 if constructed is not None else 0)
    upper = decomposition_upper_bound(n, r)
    bounds = BoundReport(lower=lower, exact=exact, upper=upper,
                         methods=("constructive-search", "canonical-backtracking",
                                  "iterated-matching-bound"))
    if not bounds.holds(tol=1e-9):
        raise InvariantViolationError(f"sandwich failed at n={n}")
    payload = {
        "n": n, "r": r,
        "lower_log": None if lower.is_zero else lower.log,
        "exact_log": None if exact.is_zero else exact.log,
        "upper_log": upper.log,
        "exact_count": exact.exact,
        "holds": bounds.holds(tol=1e-9),
    }
    return bounds, payload


def bounds_payload(n: int, r: int) -> dict[str, Any]:
    upper = decomposition_upper_bound(n, r)
    return {"n": n, "r": r, "lower_log": None, "exact_log": None,
            "upper_log": upper.log}


def certificate_to_text(cert: DecompositionCertificate) -> str:
    return json.dumps(cert.to_json(), indent=2) + "\n"
