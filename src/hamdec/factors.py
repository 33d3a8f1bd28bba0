"""Bipartite matchings, r-factors and reg() for digraphs.

Factor feasibility is decided by max-flow, except on regular oriented
graphs, where the degrees decide it; the literal subset inequality of
the Gale-Ryser criterion is kept as an independent exponential oracle for
cross-validation.  Every maximum matching comes from one routine,
:func:`random_cycle_factor`, which reads sorted adjacency rows and draws
each greedy pick by rejection; regular bipartite graphs split into perfect
matchings with it.  The random regular bipartite test instances come from
the switch chain that also draws random regular oriented graphs.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    InvariantViolationError,
    NoFactorError,
    NotRegularError,
    ROutOfRangeError,
    TooLargeError,
)
from .flows import Dinic
from .graphs import BipartiteGraph, Edge, OrientedGraph, _switch_chain, degree_summary

GALE_RYSER_CAP = 12
# uniform row entries a greedy pick tries before it draws from a list of
# the row's free entries; chosen on draw time alone, over circulant rows
# with n = 201-801 and degrees n/2 down to n/67 (8 to 16 about equal, 2 to
# 4 slower)
DRAW_TRIES = 8


@dataclass(frozen=True)
class Matching:
    """Set of bipartite edges, no two sharing an endpoint."""

    pairs: frozenset[Edge]

    @property
    def size(self) -> int:
        return len(self.pairs)

    def __post_init__(self):
        lefts = [a for a, _ in self.pairs]
        rights = [b for _, b in self.pairs]
        if len(set(lefts)) != len(lefts) or len(set(rights)) != len(rights):
            raise InvariantViolationError("matching has repeated endpoints")


@dataclass(frozen=True)
class FactorCertificate:
    """An r-regular spanning subgraph, bipartite or oriented."""

    r: int
    edges: frozenset[Edge]
    kind: str  # "bipartite" | "oriented"


# -- generic matching machinery ----------------------------------------


def random_cycle_factor(out: Sequence[list[int]], rng: random.Random) -> list[int]:
    """A random maximum matching between the out- and in-copies of the
    digraph with sorted out-neighbour rows ``out``: ``succ[u]`` is u's
    successor, or -1 for a vertex left unmatched.  With no -1 it is a
    cycle factor, and there is a -1 exactly when the digraph has no cycle
    factor.  The rows are read, never changed.

    The vertices are scanned in one random order, and each is matched to a
    uniformly drawn free out-neighbour: a uniform entry of its row, kept if
    free, and after DRAW_TRIES misses a uniform entry of the row's free
    ones.  Each vertex this greedy pass leaves unmatched then roots one
    breadth-first search for a shortest augmenting path, walking the rows
    in order; the path ends at a free out-neighbour, drawn uniformly from
    the sorted free ones, of the first vertex that has one.  That search is
    complete, so by Kuhn's argument the result is a maximum matching.  The
    result depends only on ``out`` and the generator's state, never on set
    iteration order.
    """
    n = len(out)
    succ = [-1] * n
    pred = [-1] * n
    scan = list(range(n))
    rng.shuffle(scan)
    unmatched = []
    choice = rng.choice
    for a in scan:
        row = out[a]
        if row:
            for _ in range(DRAW_TRIES):
                b = choice(row)
                if pred[b] < 0:
                    break
            else:
                cands = [b for b in row if pred[b] < 0]
                b = choice(cands) if cands else -1
        else:
            b = -1
        if b == -1:
            unmatched.append(a)
        else:
            succ[a], pred[b] = b, a
    free = {b for b in range(n) if pred[b] < 0}
    for root in unmatched:
        # parent[a] is the left vertex whose edge to succ[a] reached a
        parent = {root: -1}
        queue = [root]
        for a in queue:
            hits = free.intersection(out[a])
            if hits:
                b = choice(sorted(hits))
                free.discard(b)
                while a != -1:
                    succ[a], pred[b], b = b, a, succ[a]
                    a = parent[a]
                break
            for b in out[a]:
                nxt = pred[b]
                if nxt not in parent:
                    parent[nxt] = a
                    queue.append(nxt)
    return succ


def maximum_matching_of(b: BipartiteGraph, rng: random.Random) -> Matching:
    """A random maximum matching of b: :func:`random_cycle_factor` on its
    sorted left-to-right rows, padded with empty rows to a square."""
    size = max(b.left_size, b.right_size)
    out = [sorted(row) for row in b.adj_left] + [[]] * (size - b.left_size)
    succ = random_cycle_factor(out, rng)
    return Matching(frozenset((a, mb) for a, mb in enumerate(succ) if mb != -1))


# -- r-factors in bipartite graphs -------------------------------------


def _unit_flow(left_caps: Sequence[int], right_caps: Sequence[int],
               edges: Sequence[Edge]) -> tuple[int, list[Edge]]:
    """Maximum flow from a source through left vertex a (capacity
    ``left_caps[a]``), a unit edge (a, b) and right vertex b (capacity
    ``right_caps[b]``) to a sink; returns its value and the edges carrying
    flow.

    One pass over ``edges`` in order first fills every edge whose two ends
    both have capacity left; Dinic augments that flow to a maximum.
    """
    left_rest, right_rest = list(left_caps), list(right_caps)
    seeded = []
    for a, b in edges:
        fill = left_rest[a] > 0 and right_rest[b] > 0
        if fill:
            left_rest[a] -= 1
            right_rest[b] -= 1
        seeded.append(fill)
    nl, nr = len(left_caps), len(right_caps)
    net = Dinic(nl + nr + 2)
    src, snk = nl + nr, nl + nr + 1
    for a, (cap, rest) in enumerate(zip(left_caps, left_rest)):
        net.add_edge(src, a, cap, cap - rest)
    for b, (cap, rest) in enumerate(zip(right_caps, right_rest)):
        net.add_edge(nl + b, snk, cap, cap - rest)
    eids = [net.add_edge(a, nl + b, 1, fill) for (a, b), fill in zip(edges, seeded)]
    value = sum(left_caps) - sum(left_rest) + net.max_flow(src, snk)
    return value, [edge for edge, eid in zip(edges, eids) if net.flow_on(eid)]


def has_bipartite_r_factor(b: BipartiteGraph, r: int) -> bool:
    """True iff b contains an r-regular spanning subgraph (flow criterion)."""
    m = b.m
    if not 0 <= r <= m:
        raise ROutOfRangeError(f"r={r} outside [0, {m}]")
    if r == 0:
        return True
    value, _ = _unit_flow([r] * m, [r] * m, sorted(b.edges))
    return value == r * m


def gale_ryser_oracle(b: BipartiteGraph, r: int) -> bool:
    """Literal subset criterion: e(X, Y) >= r(|X| + |Y| - m) for all X, Y.

    Exponential in m; the independent cross-check for the flow route.
    """
    m = b.m
    if m > GALE_RYSER_CAP:
        raise TooLargeError(f"m={m} exceeds oracle cap {GALE_RYSER_CAP}")
    if not 0 <= r <= m:
        raise ROutOfRangeError(f"r={r} outside [0, {m}]")
    nmask = [0] * m
    for a, bb in b.edges:
        nmask[bb] |= 1 << a
    for x_mask in range(1 << m):
        x_size = x_mask.bit_count()
        cnt = [(nmask[bb] & x_mask).bit_count() for bb in range(m)]
        # Walk all Y in Gray-code order, updating e(X, Y) one vertex at a time.
        e = 0
        y_size = 0
        in_y = [False] * m
        if e < r * (x_size + y_size - m):
            return False
        for k in range(1, 1 << m):
            bit = (k & -k).bit_length() - 1
            if in_y[bit]:
                in_y[bit] = False
                e -= cnt[bit]
                y_size -= 1
            else:
                in_y[bit] = True
                e += cnt[bit]
                y_size += 1
            if e < r * (x_size + y_size - m):
                return False
    return True


def pm_decompose_regular(b: BipartiteGraph) -> list[Matching]:
    """Split a d-regular bipartite graph into d disjoint perfect matchings;
    the empty graph is 0-regular and splits into none."""
    m = b.m
    degs = {b.degree_left(a) for a in range(m)} | {b.degree_right(bb) for bb in range(m)}
    if len(degs) > 1:
        raise NotRegularError(f"degrees {sorted(degs)} are not uniform")
    d = max(degs, default=0)
    rows = [sorted(row) for row in b.adj_left]
    rng = random.Random(0)
    out: list[Matching] = []
    for _ in range(d):
        succ = random_cycle_factor(rows, rng)
        if -1 in succ:
            raise AssertionError("regular graph lost its perfect matching; bug")
        out.append(Matching(frozenset(enumerate(succ))))
        for row, mb in zip(rows, succ):
            row.remove(mb)
    return out


# -- factors of oriented graphs ----------------------------------------


def _oriented_factor_flow(g: OrientedGraph, r: int) -> tuple[int, list[Edge]]:
    """Flow of the r-factor network on the out- and in-copies of g: its
    value, r * n exactly when g has an r-factor, and the edges it uses.

    Each vertex offers its out-neighbours in cyclic order after itself, so
    the greedy pass spreads the load over the in-copies; on a circulant
    graph such as a rotational tournament it alone saturates the flow.
    """
    edges = []
    for u, row in enumerate(g.out_neighbors):
        i = bisect.bisect(row, u)
        edges.extend((u, v) for v in row[i:] + row[:i])
    return _unit_flow([r] * g.n, [r] * g.n, edges)


def has_oriented_r_factor(g: OrientedGraph, r: int) -> bool:
    """True iff g has a spanning sub-digraph with all in/out degrees r.

    No r above the min semi-degree is feasible; a regular g has every r up
    to it (a regular bipartite graph splits into perfect matchings), so a
    flow runs only below the min semi-degree of a non-regular g.
    """
    if r <= 0:
        return r == 0
    degs = degree_summary(g)
    if r > degs.min_semi:
        return False
    if degs.min_semi == degs.max_semi:
        return True
    value, _ = _oriented_factor_flow(g, r)
    return value == r * g.n


def oriented_reg(g: OrientedGraph) -> int:
    """Largest r for which g has a spanning sub-digraph with all in/out
    degrees exactly r.

    reg is at most the min semi-degree, and a g whose in- and out-degrees
    all equal it is its own factor, so regular inputs need no flow.
    Otherwise one flow tests r = min semi-degree; its value F bounds reg by
    F // n, since an r'-factor with r' <= r is a flow of r' * n in the same
    network; below that bound factor existence is monotone in r, so a
    binary search finishes.
    """
    degs = degree_summary(g)
    hi = degs.min_semi
    if hi == degs.max_semi:
        return hi
    value, _ = _oriented_factor_flow(g, hi)
    if value == hi * g.n:
        return hi
    lo, hi = 0, value // g.n
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if has_oriented_r_factor(g, mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def extract_oriented_r_factor(g: OrientedGraph, r: int) -> FactorCertificate:
    """A spanning sub-digraph with every in/out-degree exactly r."""
    if r == 0:
        return FactorCertificate(0, frozenset(), "oriented")
    degs = degree_summary(g)
    if r == degs.min_semi == degs.max_semi:
        return FactorCertificate(r, g.edges, "oriented")
    value, chosen = _oriented_factor_flow(g, r)
    if value != r * g.n:
        raise NoFactorError(f"graph has no {r}-factor")
    return FactorCertificate(r, frozenset(chosen), "oriented")


# -- test-instance generator -------------------------------------------


def random_regular_bipartite(m: int, d: int, seed: int) -> BipartiteGraph:
    """Random d-regular bipartite graph: the circulant a ~ a + j (mod m),
    j = 0..d-1, under random relabellings of both sides, then the switch
    chain of :func:`hamdec.graphs._switch_chain` on it as a digraph from
    left copies [0, m) to right copies [m, 2m), where no triangle or
    antiparallel pair can arise."""
    if not 0 <= d <= m:
        raise ROutOfRangeError(f"d={d} outside [0, {m}]")
    rng = random.Random(f"{seed}:bipartite")
    left, right = list(range(m)), list(range(m, 2 * m))
    rng.shuffle(left)
    rng.shuffle(right)
    edges = [(left[a], right[(a + j) % m]) for a in range(m) for j in range(d)]
    return BipartiteGraph(m, m, [(a, bb - m) for a, bb in _switch_chain(edges, rng)])
