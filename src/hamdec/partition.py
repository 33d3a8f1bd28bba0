"""Randomized split of (graph, regular factor) into K^3 edge-disjoint
spanning subproblems, each carrying its own reservoir.

K independent partitions of the vertex set into K^2 near-equal cells give
K^3 reservoir sets W_i (every vertex lies in exactly K of them).  Each W_i
keeps the graph edges inside it that appear in no other W_j; the factor
edges that survive outside every reservoir are then scattered independently:
an edge may go to the inner graph of any subproblem whose reservoir misses
both endpoints, or to the connector set of any subproblem whose reservoir
contains exactly one.  Concentration is not assumed: the target properties
are re-verified on the emitted subgraphs and the sampler resamples on failure,
finally returning its best attempt with a flag.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import InvariantViolationError, KTooLargeError, NotRegularError
from .graphs import Edge, OrientedGraph, _equipartition, degree_summary

# splits sampled before the best-scoring one is returned with its flag down
PARTITION_RETRIES = 3


@dataclass(frozen=True)
class SubproblemSpec:
    """One of the K^3 subproblems: reservoir W, inner graph on U = V - W,
    connector edges between U and W (both directions), reservoir graph on W."""

    index: int
    u_vertices: tuple[int, ...]
    w_vertices: tuple[int, ...]
    inner_edges: frozenset[Edge]
    cross_edges: frozenset[Edge]
    reservoir_edges: frozenset[Edge]

    @cached_property
    def inner_graph(self) -> OrientedGraph:
        idx = {v: i for i, v in enumerate(self.u_vertices)}
        return OrientedGraph(len(self.u_vertices),
                             {(idx[u], idx[v]) for u, v in self.inner_edges})

    @cached_property
    def reservoir_graph(self) -> OrientedGraph:
        idx = {v: i for i, v in enumerate(self.w_vertices)}
        return OrientedGraph(len(self.w_vertices),
                             {(idx[u], idx[v]) for u, v in self.reservoir_edges})

    def all_edges(self) -> frozenset[Edge]:
        return self.inner_edges | self.cross_edges | self.reservoir_edges


@dataclass(frozen=True)
class PartitionStats:
    """Achieved values of the four target properties, recomputable from the
    emitted specs alone."""

    n: int
    k: int
    eps: float
    factor_degree: int
    w_sizes: tuple[int, ...]
    sizes_ok: bool
    same_part_degree_mean: float        # empirical mean of factor edges lost to reservoirs
    target_inner_degree: float          # (1 - eps)(d - mean) / (K^3 - 2K)
    inner_degree_means: tuple[float, ...]
    inner_degree_windows: tuple[float, ...]
    inner_ok: tuple[bool, ...]
    cross_min_degrees: tuple[int, ...]
    cross_floors: tuple[float, ...]
    cross_ok: tuple[bool, ...]
    reservoir_min_semis: tuple[int, ...]
    reservoir_floors: tuple[float, ...]
    reservoir_ok: tuple[bool, ...]

    @property
    def properties_met(self) -> bool:
        return (self.sizes_ok and all(self.inner_ok) and all(self.cross_ok)
                and all(self.reservoir_ok))

    def score(self) -> int:
        return (int(self.sizes_ok) + sum(self.inner_ok) + sum(self.cross_ok)
                + sum(self.reservoir_ok))


@dataclass(frozen=True)
class PartitionReport:
    stats: PartitionStats
    seed: int
    retries: int


def _memberships(specs: Sequence[SubproblemSpec], n: int) -> list[list[int]]:
    member: list[list[int]] = [[] for _ in range(n)]
    for spec in specs:
        for v in spec.w_vertices:
            member[v].append(spec.index)
    return member


def _compute_stats(g: OrientedGraph, factor: OrientedGraph,
                   specs: Sequence[SubproblemSpec], k: int, eps: float) -> PartitionStats:
    n = g.n
    d = degree_summary(factor).min_semi
    member = _memberships(specs, n)
    memberships = [set(m) for m in member]

    lost = sum(1 for u, v in factor.edges if memberships[u] & memberships[v])
    same_part_mean = lost / n
    denom = k ** 3 - 2 * k
    target_r = (1 - eps) * (d - same_part_mean) / denom

    lo, hi = n // (k * k), -(n // -(k * k))
    w_sizes = tuple(len(s.w_vertices) for s in specs)
    sizes_ok = all(lo <= sz <= hi for sz in w_sizes)

    beta = degree_summary(g).min_semi / n

    inner_means: list[float] = []
    inner_windows: list[float] = []
    inner_ok: list[bool] = []
    cross_mins: list[int] = []
    cross_floors: list[float] = []
    cross_ok: list[bool] = []
    res_mins: list[int] = []
    res_floors: list[float] = []
    res_ok: list[bool] = []
    for spec in specs:
        uset = set(spec.u_vertices)
        mean = len(spec.inner_edges) / max(1, len(uset))
        window = 2 * math.sqrt(max(mean, 1.0) * math.log(n))
        ok2 = True
        if uset:
            degs = degree_summary(spec.inner_graph)
            ok2 = mean - window <= degs.min_semi and degs.max_semi <= mean + window
        inner_means.append(mean)
        inner_windows.append(window)
        inner_ok.append(ok2)

        cross_out = {v: 0 for v in uset}
        cross_in = {v: 0 for v in uset}
        for u, v in spec.cross_edges:
            if u in uset:
                cross_out[u] += 1
            else:
                cross_in[v] += 1
        cmin = min(min(cross_out.values()), min(cross_in.values())) if uset else 0
        floor3 = eps * len(spec.w_vertices) / (4 * k)
        cross_mins.append(cmin)
        cross_floors.append(floor3)
        cross_ok.append(cmin >= floor3)

        rmin = degree_summary(spec.reservoir_graph).min_semi if spec.w_vertices else 0
        floor4 = (beta - eps) * len(spec.w_vertices)
        res_mins.append(rmin)
        res_floors.append(floor4)
        res_ok.append(rmin >= floor4)

    return PartitionStats(
        n=n, k=k, eps=eps, factor_degree=d, w_sizes=w_sizes, sizes_ok=sizes_ok,
        same_part_degree_mean=same_part_mean, target_inner_degree=target_r,
        inner_degree_means=tuple(inner_means), inner_degree_windows=tuple(inner_windows),
        inner_ok=tuple(inner_ok), cross_min_degrees=tuple(cross_mins),
        cross_floors=tuple(cross_floors), cross_ok=tuple(cross_ok),
        reservoir_min_semis=tuple(res_mins), reservoir_floors=tuple(res_floors),
        reservoir_ok=tuple(res_ok))


def _sample_specs(g: OrientedGraph, factor: OrientedGraph, k: int,
                  eps: float, rng: random.Random) -> list[SubproblemSpec]:
    n = g.n
    member: list[list[int]] = [[] for _ in range(n)]
    w_sets: list[list[int]] = []
    for _ in range(k):
        for cell in _equipartition(n, k * k, rng):
            for v in cell:
                member[v].append(len(w_sets))
            w_sets.append(cell)
    memberships = [frozenset(m) for m in member]
    total = k ** 3

    reservoir_edges: list[set[Edge]] = [set() for _ in range(total)]
    for u, v in g.edges:
        common = memberships[u] & memberships[v]
        if len(common) == 1:
            reservoir_edges[next(iter(common))].add((u, v))

    inner_edges: list[set[Edge]] = [set() for _ in range(total)]
    cross_edges: list[set[Edge]] = [set() for _ in range(total)]
    for u, row in enumerate(factor.out_neighbors):
        for v in row:
            if memberships[u] & memberships[v]:
                continue  # lost to some reservoir
            both = sorted(memberships[u] | memberships[v])
            assert len(both) == 2 * k, "reservoir memberships of u and v must be disjoint"
            x = rng.random()
            if x < 1 - eps:
                slot = min(int(x / ((1 - eps) / (total - 2 * k))), total - 2 * k - 1)
                others = [i for i in range(total) if i not in set(both)]
                inner_edges[others[slot]].add((u, v))
            else:
                slot = min(int((x - (1 - eps)) / (eps / (2 * k))), 2 * k - 1)
                cross_edges[both[slot]].add((u, v))

    specs = []
    all_v = set(range(n))
    for i in range(total):
        w = tuple(w_sets[i])
        u = tuple(sorted(all_v - set(w)))
        specs.append(SubproblemSpec(
            index=i, u_vertices=u, w_vertices=w,
            inner_edges=frozenset(inner_edges[i]),
            cross_edges=frozenset(cross_edges[i]),
            reservoir_edges=frozenset(reservoir_edges[i])))
    return specs


def build_partition(g: OrientedGraph, factor: OrientedGraph, k: int, eps: float,
                    seed: int) -> tuple[list[SubproblemSpec], PartitionReport]:
    """Sample the K^3 subproblem split, up to PARTITION_RETRIES times, until
    the target properties hold; when no sample meets them, the best-scoring
    one is returned with ``retries == PARTITION_RETRIES`` and
    ``stats.properties_met`` False.

    Sample i uses the seed seed + i, so runs are reproducible.
    """
    n = g.n
    if k < 2:
        raise KTooLargeError(f"K must be >= 2, got {k}")
    if k ** 3 > n / 8:
        raise KTooLargeError(f"K^3 = {k ** 3} exceeds n/8 = {n / 8}")
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if factor.n != n or not factor.edges <= g.edges:
        raise NotRegularError("factor must be a spanning subgraph of g")
    degs = degree_summary(factor)
    if degs.min_semi != degs.max_semi:
        raise NotRegularError(
            f"factor is not regular: semi-degrees {degs.min_semi} to {degs.max_semi}")

    best: tuple[int, list[SubproblemSpec], PartitionStats] | None = None
    for attempt in range(PARTITION_RETRIES):
        rng = random.Random(seed + attempt)
        specs = _sample_specs(g, factor, k, eps, rng)
        stats = _compute_stats(g, factor, specs, k, eps)
        if stats.properties_met:
            return specs, PartitionReport(stats=stats, seed=seed, retries=attempt)
        if best is None or stats.score() > best[0]:
            best = (stats.score(), specs, stats)
    assert best is not None
    _, specs, stats = best
    return specs, PartitionReport(stats=stats, seed=seed, retries=PARTITION_RETRIES)


def verify_partition(g: OrientedGraph, factor: OrientedGraph,
                     specs: Sequence[SubproblemSpec], k: int, eps: float) -> PartitionStats:
    """Recompute the achieved statistics from the emitted specs alone,
    after checking structural consistency."""
    n = g.n
    if len(specs) != k ** 3:
        raise InvariantViolationError(f"expected {k ** 3} specs, got {len(specs)}")
    member = _memberships(specs, n)
    if any(len(m) != k for m in member):
        raise InvariantViolationError("some vertex does not lie in exactly K reservoirs")
    seen: set[Edge] = set()
    g_edges, factor_edges = g.edges, factor.edges
    for spec in specs:
        uset, wset = set(spec.u_vertices), set(spec.w_vertices)
        if uset & wset or uset | wset != set(range(n)):
            raise InvariantViolationError(f"spec {spec.index}: U, W do not partition V")
        groups = (spec.inner_edges, spec.cross_edges, spec.reservoir_edges)
        for es in groups:
            if not es <= g_edges:
                raise InvariantViolationError(f"spec {spec.index}: edges outside the graph")
            if seen & es:
                raise InvariantViolationError(f"spec {spec.index}: edge reused across subgraphs")
            seen |= es
        if not spec.inner_edges <= factor_edges or not spec.cross_edges <= factor_edges:
            raise InvariantViolationError(f"spec {spec.index}: non-factor edge assigned")
        for u, v in spec.inner_edges:
            if u not in uset or v not in uset:
                raise InvariantViolationError(f"spec {spec.index}: inner edge leaves U")
        for u, v in spec.cross_edges:
            if (u in uset) == (v in uset):
                raise InvariantViolationError(f"spec {spec.index}: cross edge not U<->W")
        for u, v in spec.reservoir_edges:
            if u not in wset or v not in wset:
                raise InvariantViolationError(f"spec {spec.index}: reservoir edge leaves W")
    return _compute_stats(g, factor, specs, k, eps)
