"""Exact permanents, matching-count bounds, and Hamilton-cycle/decomposition
counts for tiny oriented graphs.

Counts of interest grow super-exponentially, so results are carried as
natural logarithms (:class:`LogCount`) with the exact integer kept alongside
whenever the instance is small enough to compute it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator, Sequence

from .errors import NotRegularError, TooLargeError
from .graphs import Edge, OrientedGraph

PERMANENT_CAP = 24
# columns whose subset sums permanent() precomputes (2^10 packed ints)
PERMANENT_SPLIT = 10
HC_COUNT_CAP = 20
DECOMP_CAP_DENSE = 7
DECOMP_CAP_SPARSE = 12


@dataclass(frozen=True)
class LogCount:
    """A nonnegative count held as its natural log, -inf meaning exactly 0."""

    log: float
    exact: int | None = None

    @classmethod
    def from_int(cls, value: int) -> "LogCount":
        if value < 0:
            raise ValueError("counts are nonnegative")
        if value == 0:
            return cls(float("-inf"), 0)
        return cls(math.log(value), value)

    @classmethod
    def from_log(cls, log: float) -> "LogCount":
        return cls(log, None)

    @classmethod
    def zero(cls) -> "LogCount":
        return cls(float("-inf"), 0)

    @property
    def is_zero(self) -> bool:
        return self.log == float("-inf")

    def value(self) -> float:
        return 0.0 if self.is_zero else math.exp(self.log)

    def leq(self, other: "LogCount", tol: float = 0.0) -> bool:
        return self.log <= other.log + tol

    def close_to(self, other: "LogCount", tol: float = 1e-9) -> bool:
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        return abs(self.log - other.log) <= tol


@dataclass(frozen=True)
class BoundReport:
    """Sandwich of a count: lower <= exact (when known) <= upper."""

    lower: LogCount
    exact: LogCount | None
    upper: LogCount
    methods: tuple[str, ...] = ()

    def holds(self, tol: float = 1e-9) -> bool:
        if self.exact is None:
            return self.lower.leq(self.upper, tol)
        return self.lower.leq(self.exact, tol) and self.exact.leq(self.upper, tol)


# -- permanents and bounds ---------------------------------------------


def permanent(matrix: Sequence[Sequence[int]]) -> LogCount:
    """Exact permanent of a 0/1 matrix by Ryser's formula; O(2^n * n).

    Each column is packed into one int with row i's entry in byte i, so a
    packed sum over a set of columns holds every row sum in its own byte
    (row sums are at most n <= 24 < 256, so no byte carries into the next).
    The packed sums of all subsets of the first ``PERMANENT_SPLIT`` columns
    are precomputed, split by subset parity; the remaining columns are
    walked in Gray-code order, and for each running sum the products of the
    row sums over all low subsets are taken in C by ``int.to_bytes`` and
    ``math.prod``.  Entries may be any values equal to 0 or 1 (such as
    ``True`` or ``1.0``).
    """
    n = len(matrix)
    if n > PERMANENT_CAP:
        raise TooLargeError(f"n={n} exceeds permanent cap {PERMANENT_CAP}")
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix must be square")
        if any(x not in (0, 1) for x in row):
            raise ValueError("matrix entries must be 0/1")
    if n == 0:
        return LogCount.from_int(1)
    cols = [sum(int(matrix[i][j]) << (8 * i) for i in range(n)) for j in range(n)]
    b = min(PERMANENT_SPLIT, n)
    even, odd = [0], []
    for c in cols[:b]:
        even, odd = even + [s + c for s in odd], odd + [s + c for s in even]
    high = cols[b:]
    base = 0

    def row_products(low_sums: list[int]) -> int:
        # sum over low subsets of the product of the row sums (the bytes)
        packed = map(base.__add__, low_sums)
        return sum(map(math.prod, map(int.to_bytes, packed, repeat(n), repeat("little"))))

    total = 0
    for k in range(1 << len(high)):
        if k:
            j = (k & -k).bit_length() - 1
            base += high[j] if (k ^ (k >> 1)) >> j & 1 else -high[j]
        diff = row_products(even) - row_products(odd)
        total += -diff if k & 1 else diff
    if n & 1:
        total = -total
    if total < 0:
        raise ValueError("negative permanent for a 0/1 matrix; bug")
    return LogCount.from_int(total)


def bregman_bound(row_degrees: Sequence[int]) -> LogCount:
    """Upper bound on perfect matchings: prod over rows of (d!)^(1/d)."""
    log = 0.0
    for d in row_degrees:
        if d < 0:
            raise ValueError("degrees are nonnegative")
        if d == 0:
            return LogCount.zero()
        log += math.lgamma(d + 1) / d
    return LogCount.from_log(log)


def vdw_bound(m: int, d: int) -> LogCount:
    """Lower bound on perfect matchings of a d-regular bipartite graph:
    d^m * m! / m^m."""
    if not 1 <= d <= m:
        raise ValueError(f"need 1 <= d <= m, got d={d}, m={m}")
    log = m * math.log(d) + math.lgamma(m + 1) - m * math.log(m)
    return LogCount.from_log(log)


def decomposition_upper_bound(n: int, r: int) -> LogCount:
    """Iterated matching bound on Hamilton decompositions of an r-regular
    oriented graph on n vertices: prod_{i=1}^{r} (i!)^(n/i)."""
    if r < 1 or n < 1:
        raise ValueError("need n >= 1 and r >= 1")
    log = sum((n / i) * math.lgamma(i + 1) for i in range(1, r + 1))
    return LogCount.from_log(log)


def adjacency_matrix(g: OrientedGraph) -> list[list[int]]:
    mat = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        mat[u][v] = 1
    return mat


# -- exact Hamilton-cycle counting -------------------------------------


def count_hamilton_cycles_exact(g: OrientedGraph) -> LogCount:
    """Exact number of directed Hamilton cycles, by a layered subset DP
    anchored at vertex 0.

    Layer k maps each k-subset S of V - {0} to a list ``row`` in which
    ``row[w]`` counts the paths from 0 through exactly S that end at w.
    The next layer is pulled: for w outside S, the paths through S + {w}
    ending at w number the sum of ``row[v]`` over the in-neighbours v of w,
    since ``row`` is 0 outside S.  Only two layers are held at a time.
    """
    n = g.n
    if n > HC_COUNT_CAP:
        raise TooLargeError(f"n={n} exceeds cycle-count cap {HC_COUNT_CAP}")
    if n < 3:
        return LogCount.from_int(0)
    targets = [(w, 1 << w, sorted(g.in_neighbors[w])) for w in range(1, n)]
    layer: dict[int, list[int]] = {}
    for w in g.out_neighbors[0]:
        row = [0] * n
        row[w] = 1
        layer[1 << w] = row
    for _ in range(n - 2):
        nxt: dict[int, list[int]] = {}
        for mask, row in layer.items():
            pick = row.__getitem__
            for w, bit, in_nbrs in targets:
                if mask & bit:
                    continue
                ways = sum(map(pick, in_nbrs))
                if ways:
                    tgt = nxt.get(mask | bit)
                    if tgt is None:
                        tgt = nxt[mask | bit] = [0] * n
                    tgt[w] = ways
        layer = nxt
    row = layer.get((1 << n) - 2, [0] * n)
    return LogCount.from_int(sum(row[v] for v in g.in_neighbors[0]))


# -- exact decomposition counting --------------------------------------


def _adjacency_of(n: int, edges: frozenset[Edge]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in sorted(edges):
        adj[u].append(v)
    return adj


def _ham_cycles_with_edge(n: int, edges: frozenset[Edge],
                          anchor: Edge) -> Iterator[tuple[tuple[int, ...], frozenset[Edge]]]:
    """All Hamilton cycles of (V=[0,n), edges) containing the directed edge
    ``anchor``; yields (cycle order starting with anchor, cycle edge set)."""
    u0, v0 = anchor
    adj = _adjacency_of(n, edges)
    path = [u0, v0]
    visited = [False] * n
    visited[u0] = visited[v0] = True

    def rec() -> Iterator[tuple[tuple[int, ...], frozenset[Edge]]]:
        cur = path[-1]
        if len(path) == n:
            if u0 in adj[cur]:
                order = tuple(path)
                cyc = frozenset((order[i], order[(i + 1) % n]) for i in range(n))
                yield order, cyc
            return
        for w in adj[cur]:
            if not visited[w]:
                visited[w] = True
                path.append(w)
                yield from rec()
                path.pop()
                visited[w] = False

    yield from rec()


def _all_ham_cycles(n: int, edges: frozenset[Edge]
                    ) -> Iterator[tuple[tuple[int, ...], frozenset[Edge]]]:
    """All Hamilton cycles, each exactly once, anchored at vertex 0."""
    adj = _adjacency_of(n, edges)
    for v in adj[0]:
        yield from _ham_cycles_with_edge(n, edges, (0, v))


def _regular_degree(g: OrientedGraph) -> int | None:
    degs = {g.out_degree(v) for v in range(g.n)} | {g.in_degree(v) for v in range(g.n)}
    return degs.pop() if len(degs) == 1 else None


def _check_decomp_cap(n: int, r: int) -> None:
    if n <= DECOMP_CAP_DENSE:
        return
    if r <= 2 and n <= DECOMP_CAP_SPARSE:
        return
    raise TooLargeError(f"n={n}, degree {r} beyond exact-decomposition caps")


def count_hamilton_decompositions_exact(g: OrientedGraph) -> LogCount:
    """Number of unordered partitions of E(g) into Hamilton cycles.

    Backtracks over cycles in canonical order: each next cycle must contain
    the smallest remaining edge, so every partition is discovered once.
    """
    if not g.edges:
        return LogCount.from_int(1)
    r = _regular_degree(g)
    if r is None:
        return LogCount.from_int(0)
    _check_decomp_cap(g.n, r)

    def rec(edges: frozenset[Edge]) -> int:
        if not edges:
            return 1
        anchor = min(edges)
        total = 0
        for _, cyc in _ham_cycles_with_edge(g.n, edges, anchor):
            total += rec(edges - cyc)
        return total

    return LogCount.from_int(rec(g.edges))


def count_hamilton_decompositions_ordered(g: OrientedGraph) -> LogCount:
    """Same count via the second route: count ordered sequences of
    edge-disjoint Hamilton cycles exhausting E(g), then divide by r!
    (cycles within one decomposition are distinct as edge sets)."""
    if not g.edges:
        return LogCount.from_int(1)
    r = _regular_degree(g)
    if r is None:
        return LogCount.from_int(0)
    _check_decomp_cap(g.n, r)

    def rec(edges: frozenset[Edge]) -> int:
        if not edges:
            return 1
        total = 0
        for _, cyc in _all_ham_cycles(g.n, edges):
            total += rec(edges - cyc)
        return total

    sequences = rec(g.edges)
    divisor = math.factorial(r)
    if sequences % divisor != 0:
        raise NotRegularError(
            f"ordered count {sequences} not divisible by {r}!; bug")
    return LogCount.from_int(sequences // divisor)


def find_hamilton_decomposition(g: OrientedGraph) -> list[tuple[int, ...]] | None:
    """One full Hamilton decomposition as vertex orders, or None."""
    if not g.edges:
        return []
    r = _regular_degree(g)
    if r is None:
        return None
    _check_decomp_cap(g.n, r)

    def rec(edges: frozenset[Edge]) -> list[tuple[int, ...]] | None:
        if not edges:
            return []
        anchor = min(edges)
        for order, cyc in _ham_cycles_with_edge(g.n, edges, anchor):
            rest = rec(edges - cyc)
            if rest is not None:
                return [order] + rest
        return None

    return rec(g.edges)
