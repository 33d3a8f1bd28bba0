"""End-to-end driver: compute reg(G), extract edge-disjoint Hamilton
cycles by cycle-factor patching, and emit a verifiable certificate.

The pipeline has two stages: ``reg`` computes reg(G), and ``direct`` runs
the patching engine of ``assembly`` on the whole graph until no cycle factor
is left, none can merge into a Hamilton cycle, or its factors stop merging.
Certificates are re-verified from scratch before being returned.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Callable, Sequence

from .assembly import HamiltonCycle, patch_hamilton_cycles
# the binding that bench/spans.py's TARGETS traces as pipeline.sandwich_experiment
from .counting import sandwich_experiment  # noqa: F401
from .errors import FormatError, HamdecError, InvariantViolationError
from .factors import oriented_reg
from .graphs import Edge, OrientedGraph, write_edge_list


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
        rows = [doc["cycles"], doc["leftover"], *doc["cycles"], *doc["leftover"]]
        numbers = chain((doc["n"], doc["reg"], doc["k"]), *rows[2:])
        if (type(doc["graph_sha256"]) is not str or set(map(type, rows)) != {list}
                or not set(map(type, numbers)) <= {int}):
            raise FormatError("certificate needs JSON integers in lists and a string hash")
        # rotated to start at the least vertex, not checked: verify_certificate
        # judges whether each cycle is Hamiltonian
        cycles = tuple(HamiltonCycle(tuple(seq[k:] + seq[:k])) for seq in doc["cycles"]
                       for k in [seq.index(min(seq)) if seq else 0])
        leftover = frozenset((u, v) for u, v in doc["leftover"])
        cert = cls(n=doc["n"], graph_sha256=doc["graph_sha256"],
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
    violation).  Each cycle's order fills an array of successors; it is
    NotHamiltonian when its length is not n, or a vertex is out of [0, n),
    repeated or not an int.  Per vertex, the sorted heads of its cycle and
    leftover edges must equal its out-row; only vertices where they differ
    are classified.  Of several faults the first in this order is reported:
    SizeMismatch, GraphHashMismatch, NotHamiltonian, UnknownEdge (a leftover
    tail outside [0, n) or not an int), then over all vertices UnknownEdge
    (on a cycle), EdgeReuse, LeftoverOverlap, UnknownEdge (in the leftover),
    LeftoverMismatch, and then RegMismatch, TooManyCycles.  g is hashed
    only once the sizes agree, and its reg computed only once every edge
    check has passed.

    Vertices are compared by value, as Python compares them: a ``bool``
    anywhere is read as vertex 0 or 1, and a leftover head that is a float
    equal to a vertex (``3.0``) as that vertex.  ``from_json`` refuses both,
    so certificates read from JSON hold only ints; callers that build a
    certificate by hand must pass ints."""
    return _check_certificate(g, cert, lambda: graph_digest(g), lambda: oriented_reg(g))


def _check_certificate(g: OrientedGraph, cert: DecompositionCertificate,
                       digest: Callable[[], str], reg: Callable[[], int]
                       ) -> tuple[bool, str | None]:
    """:func:`verify_certificate`, with g's digest and reg asked of the two
    callables only when their checks are reached."""
    n = g.n
    if cert.n != n:
        return False, "SizeMismatch"
    if cert.graph_sha256 != digest():
        return False, "GraphHashMismatch"
    succs = []
    for cyc in cert.cycles:
        order = cyc.order
        if len(order) != n:
            return False, "NotHamiltonian"
        succ = [-1] * n
        try:
            for a, b in zip(order, order[1:] + order[:1]):
                succ[a] = b
        except (IndexError, TypeError):
            # a vertex >= n or < -n, or one that is not an int
            return False, "NotHamiltonian"
        # a repeated vertex leaves another without a successor (-1 stays),
        # and a vertex in [-n, 0) is some vertex's successor
        if min(succ) < 0:
            return False, "NotHamiltonian"
        succs.append(succ)
    rest: list[list[int]] = [[] for _ in range(n)]
    try:
        for u, v in cert.leftover:
            if not 0 <= u < n:
                return False, "UnknownEdge"
            rest[u].append(v)
    except TypeError:  # a tail that does not compare with ints or is no index
        return False, "UnknownEdge"
    faults = []
    for row, heads, tails in zip(g.out_neighbors, zip(*succs) if succs else [()] * n, rest):
        try:
            if tuple(sorted(heads + tuple(tails))) == row:
                continue
        except TypeError:
            pass  # a leftover head that does not compare with ints differs
        have, seen = set(row), set(heads)
        faults.append((not have >= seen, len(seen) < len(heads), not seen.isdisjoint(tails),
                       not have.issuperset(tails), True).index(True))
    if faults:
        return False, ("UnknownEdge", "EdgeReuse", "LeftoverOverlap", "UnknownEdge",
                       "LeftoverMismatch")[min(faults)]
    if cert.reg != reg():
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
    report = RunReport(n=g.n, seed=config.seed)
    t0 = time.perf_counter()
    reg = oriented_reg(g)
    report.reg = reg
    report.stages.append({"name": "reg", "reg": reg, "seconds": time.perf_counter() - t0})
    digest = graph_digest(g)

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
                                  "switches": outcome.switches, "walks": outcome.walks,
                                  "stop_reason": outcome.stop_reason,
                                  "seconds": time.perf_counter() - t1})
    leftover = frozenset((u, v) for u, row in enumerate(rest) for v in row)
    cert = DecompositionCertificate(g.n, digest, tuple(sorted(cycles, key=lambda c: c.order)),
                                    leftover, reg)
    report.k = cert.k
    ok, violation = _check_certificate(g, cert, lambda: digest, lambda: reg)
    if not ok:
        raise AssertionError(f"emitted certificate failed self-check: {violation}")
    return cert, report
