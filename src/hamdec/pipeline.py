"""End-to-end driver: compute reg(G), extract edge-disjoint Hamilton
cycles by cycle-factor patching, and emit a verifiable certificate.

The pipeline has two stages: ``reg`` computes reg(G), and ``direct`` runs
the patching engine of ``assembly`` on the whole graph until no cycle factor
is left or its factors stop merging.  Certificates are re-verified from
scratch before being returned.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Sequence

from .assembly import HamiltonCycle, patch_hamilton_cycles
from .counting import BoundReport, LogCount, decomposition_upper_bound
from .counting import _count_exact, _count_ordered, _find, _regular_cycles
from .errors import FormatError, HamdecError, InvariantViolationError, TooLargeError
from .factors import oriented_reg
from .graphs import Edge, OrientedGraph, rotational_tournament, write_edge_list

# largest order the pipeline accepts
MAX_N = 2000


@dataclass
class RunConfig:
    """Pipeline settings."""

    seed: int = 0


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
        numbers = chain((doc["n"], doc["reg"], doc["k"]), *doc["cycles"], *doc["leftover"])
        if not set(map(type, numbers)) <= {int}:
            raise FormatError("certificate numbers must be JSON integers")
        cycles = tuple(HamiltonCycle.from_order(seq) for seq in doc["cycles"])
        leftover = frozenset((u, v) for u, v in doc["leftover"])
        cert = cls(n=doc["n"], graph_sha256=str(doc["graph_sha256"]),
                   cycles=cycles, leftover=leftover, reg=doc["reg"])
        if cert.k != doc["k"]:
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
    """Re-check every certificate invariant from scratch; returns (ok, first
    violation).  Per vertex, the sorted heads of its cycle and leftover edges
    must equal its out-row; only vertices where they differ are classified.
    Of several faults the first in this order is reported: SizeMismatch,
    GraphHashMismatch, NotHamiltonian, UnknownEdge (a leftover tail outside
    [0, n)), then over all vertices UnknownEdge (on a cycle), EdgeReuse,
    LeftoverOverlap, UnknownEdge (in the leftover), LeftoverMismatch, and
    then RegMismatch, TooManyCycles."""
    return _check_certificate(g, cert, graph_digest(g))


def _check_certificate(g: OrientedGraph, cert: DecompositionCertificate, digest: str
                       ) -> tuple[bool, str | None]:
    """:func:`verify_certificate` with g's digest already computed."""
    n = g.n
    if cert.n != n:
        return False, "SizeMismatch"
    if cert.graph_sha256 != digest:
        return False, "GraphHashMismatch"
    vertices = set(range(n))
    succs = []
    for cyc in cert.cycles:
        if not cyc.spans(vertices):
            return False, "NotHamiltonian"
        succ = dict(zip(cyc.order, cyc.order[1:] + cyc.order[:1]))
        succs.append([succ[u] for u in range(n)])
    rest: list[list[int]] = [[] for _ in range(n)]
    for u, v in cert.leftover:
        if not 0 <= u < n:
            return False, "UnknownEdge"
        rest[u].append(v)
    faults = []
    for row, heads, tails in zip(g.out_neighbors, zip(*succs) if succs else [()] * n, rest):
        if tuple(sorted(heads + tuple(tails))) != row:
            have, seen = set(row), set(heads)
            faults.append((not have >= seen, len(seen) < len(heads), not seen.isdisjoint(tails),
                           not have.issuperset(tails), True).index(True))
    if faults:
        return False, ("UnknownEdge", "EdgeReuse", "LeftoverOverlap", "UnknownEdge",
                       "LeftoverMismatch")[min(faults)]
    if cert.reg != oriented_reg(g):
        return False, "RegMismatch"
    if cert.k > cert.reg:
        return False, "TooManyCycles"
    return True, None


# -- the pipeline ---------------------------------------------------------


def approximate_decomposition(g: OrientedGraph, config: RunConfig | None = None
                              ) -> tuple[DecompositionCertificate, RunReport]:
    """Greedily build verified edge-disjoint Hamilton cycles of g.

    Returns the certificate together with a per-stage report.  A
    ``HamdecError`` raised by the patching stage goes to
    ``report.hard_failures``, and a certificate without cycles is returned.
    A certificate that fails its own re-verification is a bug and raises
    ``AssertionError``.
    """
    config = config or RunConfig()
    if g.n > MAX_N:
        raise TooLargeError(f"n={g.n} exceeds the limit MAX_N = {MAX_N}")
    report = RunReport(n=g.n, seed=config.seed)
    t0 = time.perf_counter()
    reg = oriented_reg(g)
    report.reg = reg
    digest = graph_digest(g)
    report.stages.append({"name": "reg", "reg": reg, "seconds": time.perf_counter() - t0})

    cycles: list[HamiltonCycle] = []
    rest: Sequence[Sequence[int]] = g.out_neighbors
    if reg:
        t1 = time.perf_counter()
        try:
            outcome = patch_hamilton_cycles(g, seed=config.seed)
        except HamdecError as exc:
            report.hard_failures.append(f"direct: {type(exc).__name__}: {exc}")
        else:
            cycles, rest = outcome.cycles, outcome.residual
            report.stages.append({"name": "direct", "mode": "patching",
                                  "rounds": len(cycles), "failures": outcome.failures,
                                  "switches": outcome.switches,
                                  "stop_reason": outcome.stop_reason,
                                  "seconds": time.perf_counter() - t1})
    leftover = frozenset((u, v) for u, row in enumerate(rest) for v in row)
    cert = DecompositionCertificate(g.n, digest, tuple(sorted(cycles, key=lambda c: c.order)),
                                    leftover, reg)
    report.k = cert.k
    ok, violation = _check_certificate(g, cert, digest)
    if not ok:
        raise AssertionError(f"emitted certificate failed self-check: {violation}")
    return cert, report


# -- decomposition-count sandwich at tiny sizes ---------------------------


def sandwich_experiment(n: int) -> tuple[BoundReport, dict[str, Any]]:
    """Exact decomposition count of the rotational tournament, sandwiched
    between a constructive lower bound and the iterated matching bound."""
    if n not in (3, 5, 7):
        raise TooLargeError(f"sandwich runs at n in {{3, 5, 7}}, got {n}")
    g = rotational_tournament(n)
    r = (n - 1) // 2
    found = _regular_cycles(g)
    exact = _count_exact(g, found)
    cross = _count_ordered(g, found)
    if exact.exact != cross.exact:
        raise AssertionError(f"enumeration strategies disagree: {exact.exact} vs {cross.exact}")
    constructed = _find(g, found)
    lower = LogCount.from_int(1 if constructed is not None else 0)
    upper = decomposition_upper_bound(n, r)
    bounds = BoundReport(lower=lower, exact=exact, upper=upper,
                         methods=("constructive-search", "canonical-backtracking",
                                  "iterated-matching-bound"))
    if not bounds.holds(tol=1e-9):
        raise AssertionError(f"sandwich failed at n={n}")
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
