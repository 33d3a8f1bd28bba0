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
from typing import Sequence

from .errors import TooLargeError
from .graphs import OrientedGraph, degree_summary

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
    targets = [(w, 1 << w, g.in_neighbors[w]) for w in range(1, n)]
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

# a Hamilton cycle as its vertex order and its edge mask
_Cycle = tuple[tuple[int, ...], int]


def _hamilton_cycles(g: OrientedGraph) -> list[_Cycle]:
    """Every Hamilton cycle of g once, as (vertex order from 0, edge mask).

    Bit i of a mask stands for the i-th edge in (u, v) order.  One
    iterative depth-first pass from vertex 0 tries out-neighbours in
    ascending order, so the cycles come in lexicographic order.
    """
    n = g.n
    succ = g.out_neighbors
    bit = {e: 1 << i for i, e in enumerate((u, v) for u, row in enumerate(succ) for v in row)}
    cycles: list[_Cycle] = []
    path = [0]
    on_path = [False] * n
    on_path[0] = True
    branches = [iter(succ[0])]
    while branches:
        for v in branches[-1]:
            if not on_path[v]:
                break
        else:
            branches.pop()
            on_path[path.pop()] = False
            continue
        if len(path) + 1 < n:
            on_path[v] = True
            path.append(v)
            branches.append(iter(succ[v]))
        elif (v, 0) in bit:
            order = (*path, v)
            cycles.append((order, sum(bit[e] for e in zip(order, order[1:] + (0,)))))
    return cycles


def _regular_cycles(g: OrientedGraph) -> tuple[int, list[_Cycle]] | None:
    """(r, the Hamilton cycles of g) when g is r-regular, else None.  The
    edgeless graph is 0-regular; any other beyond the caps raises."""
    if not g.edges:
        return 0, []
    degrees = degree_summary(g)
    r = degrees.max_semi
    if degrees.min_semi != r:
        return None
    if g.n > DECOMP_CAP_DENSE and (r > 2 or g.n > DECOMP_CAP_SPARSE):
        raise TooLargeError(f"n={g.n}, degree {r} beyond exact-decomposition caps")
    return r, _hamilton_cycles(g)


def _through_each_edge(g: OrientedGraph, cycles: list[_Cycle]) -> list[list[_Cycle]]:
    """The cycles through each edge, indexed by the edge's bit."""
    return [[c for c in cycles if c[1] >> i & 1] for i in range(len(g.edges))]


def count_hamilton_decompositions_exact(g: OrientedGraph) -> LogCount:
    """Number of unordered partitions of E(g) into Hamilton cycles.

    Counts exact covers of the edge mask by cycle masks in canonical order:
    each next cycle must contain the lowest remaining edge, so every
    partition is counted once.  Counts are memoised on the remaining mask.
    """
    return _count_exact(g, _regular_cycles(g))


def _count_exact(g: OrientedGraph, found: tuple[int, list[_Cycle]] | None) -> LogCount:
    if found is None:
        return LogCount.from_int(0)
    through = _through_each_edge(g, found[1])
    memo = {0: 1}

    def covers(rest: int) -> int:
        if rest not in memo:
            low = (rest & -rest).bit_length() - 1
            memo[rest] = sum(covers(rest ^ m) for _, m in through[low] if m & rest == m)
        return memo[rest]

    return LogCount.from_int(covers((1 << len(g.edges)) - 1))


def count_hamilton_decompositions_ordered(g: OrientedGraph) -> LogCount:
    """Same count via the second route: count ordered sequences of
    edge-disjoint Hamilton cycles exhausting E(g), then divide by r!
    (cycles within one decomposition are distinct as edge sets)."""
    return _count_ordered(g, _regular_cycles(g))


def _count_ordered(g: OrientedGraph, found: tuple[int, list[_Cycle]] | None) -> LogCount:
    if found is None:
        return LogCount.from_int(0)
    r, cycles = found
    masks = [m for _, m in cycles]

    def sequences(rest: int) -> int:
        if not rest:
            return 1
        return sum(sequences(rest ^ m) for m in masks if m & rest == m)

    total = sequences((1 << len(g.edges)) - 1)
    divisor = math.factorial(r)
    if total % divisor != 0:
        raise AssertionError(f"ordered count {total} not divisible by {r}!; bug")
    return LogCount.from_int(total // divisor)


def find_hamilton_decomposition(g: OrientedGraph) -> list[tuple[int, ...]] | None:
    """One full Hamilton decomposition as vertex orders, or None: the first
    cover met by the exact count's canonical search."""
    return _find(g, _regular_cycles(g))


def _find(g: OrientedGraph, found: tuple[int, list[_Cycle]] | None
          ) -> list[tuple[int, ...]] | None:
    if found is None:
        return None
    through = _through_each_edge(g, found[1])

    def first(rest: int) -> list[tuple[int, ...]] | None:
        if not rest:
            return []
        low = (rest & -rest).bit_length() - 1
        for order, m in through[low]:
            if m & rest == m:
                tail = first(rest ^ m)
                if tail is not None:
                    return [order] + tail
        return None

    return first((1 << len(g.edges)) - 1)
