"""Bipartite matchings, r-factors and reg() for digraphs.

An r-factor exists iff a b-matching on the edges it leaves out saturates
the excess degrees, except on regular oriented graphs, where the degrees
decide it; the literal subset inequality of the Gale-Ryser criterion is
kept as an independent exponential oracle for cross-validation.  Every
maximum matching comes from one routine, :func:`random_cycle_factor`,
which reads sorted adjacency rows and draws each greedy pick by rejection;
regular bipartite graphs split into perfect matchings with it.  The random
regular bipartite test instances come from the switch chain that also
draws random regular oriented graphs.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Collection, Sequence

from .errors import (
    InvariantViolationError,
    NoFactorError,
    NotRegularError,
    ROutOfRangeError,
    TooLargeError,
)
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


# -- b-matchings and r-factors -----------------------------------------


def _greedy_b_matching(left_caps: Sequence[int], right_caps: Sequence[int],
                       rows: Sequence[Sequence[int]]
                       ) -> tuple[list[set[int]], list[set[int]], list[int]]:
    """Greedy pass of :func:`_b_matching`: heads per left vertex, holders and spare per head."""
    rest = list(right_caps)
    picks: list[set[int]] = [set() for _ in rows]
    owners: list[set[int]] = [set() for _ in rest]
    for a in sorted(range(len(rows)), key=left_caps.__getitem__, reverse=True):
        for b in sorted(rows[a], key=rest.__getitem__, reverse=True)[:left_caps[a]]:
            if not rest[b]:
                break
            rest[b] -= 1
            picks[a].add(b)
            owners[b].add(a)
    return picks, owners, rest


def _b_matching(left_caps: Sequence[int], right_caps: Sequence[int],
                rows: Sequence[Sequence[int]]) -> tuple[int, list[set[int]]]:
    """A largest edge set with each edge (a, b) having b in ``rows[a]``, at
    most ``left_caps[a]`` edges at a and ``right_caps[b]`` at b: its size
    and the heads it gives each left vertex.

    A greedy pass takes the left vertices in decreasing cap order, each
    taking its cap of heads with the most cap left (stable sorts).  Then
    each breadth-first search from all unsaturated left vertices at once
    augments along the first alternating path it finds to a head with cap
    left; once one finds none, the set is maximum by max-flow/min-cut.
    """
    picks, owners, rest = _greedy_b_matching(left_caps, right_caps, rows)
    while True:
        free = {b for b, cap in enumerate(rest) if cap}
        # parent[x] = (w, b): the path reaches x when w takes b from it
        parent = {a: None for a, cap in enumerate(left_caps) if len(picks[a]) < cap}
        queue, seen = list(parent), set()
        for w in queue:
            hits = free.intersection(rows[w]) - picks[w]
            if hits:
                b = min(hits)
                rest[b] -= 1
                while True:
                    picks[w].add(b)
                    owners[b].add(w)
                    if parent[w] is None:
                        break
                    x, (w, b) = w, parent[w]
                    picks[x].discard(b)
                    owners[b].discard(x)
                break
            for b in rows[w]:
                if b not in seen and b not in picks[w]:
                    seen.add(b)
                    for x in owners[b]:
                        if x not in parent:
                            parent[x] = (w, b)
                            queue.append(x)
        else:
            break
    return sum(map(len, picks)), picks


def _factor_deletions(rows: Sequence[Sequence[int]], in_rows: Sequence[Collection[int]],
                      r: int) -> list[set[int]] | None:
    """Per vertex, the heads of the edges an r-factor of the digraph with
    out-rows ``rows`` and in-rows ``in_rows`` leaves out (a b-matching that
    saturates the caps d+(u) - r and d-(v) - r), or None if it has none."""
    out_caps = [len(row) - r for row in rows]
    in_caps = [len(row) - r for row in in_rows]
    if min(out_caps + in_caps, default=0) < 0:
        return None
    size, picks = _b_matching(out_caps, in_caps, rows)
    return picks if size == sum(out_caps) else None


def has_bipartite_r_factor(b: BipartiteGraph, r: int) -> bool:
    """True iff b contains an r-regular spanning subgraph."""
    m = b.m
    if not 0 <= r <= m:
        raise ROutOfRangeError(f"r={r} outside [0, {m}]")
    return _factor_deletions([sorted(row) for row in b.adj_left], b.adj_right, r) is not None


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


def has_oriented_r_factor(g: OrientedGraph, r: int) -> bool:
    """True iff g has a spanning sub-digraph with all in/out degrees r.

    No r above the min semi-degree is feasible; a regular g has every r up
    to it (a regular bipartite graph splits into perfect matchings), so a
    b-matching runs only below the min semi-degree of a non-regular g.
    """
    if r <= 0:
        return r == 0
    degs = degree_summary(g)
    if degs.min_semi == degs.max_semi:
        return r <= degs.min_semi
    return _factor_deletions(g.out_neighbors, g.in_neighbors, r) is not None


def oriented_reg(g: OrientedGraph) -> int:
    """Largest r for which g has a spanning sub-digraph with all in/out
    degrees exactly r.

    reg is at most the min semi-degree, which one b-matching tests (none
    on a regular g).  Below it factor existence is monotone in r, so steps
    down from it, doubling, then a binary search find reg; reg usually lies
    near the min semi-degree, where the greedy pass leaves the search least.
    """
    lo = hi = degree_summary(g).min_semi
    step = 1
    while not has_oriented_r_factor(g, lo):  # reg < lo: step down, doubling
        hi, lo, step = lo - 1, max(lo - step, 0), 2 * step
    return lo + bisect.bisect_left(range(lo + 1, hi + 1), True,
                                   key=lambda r: not has_oriented_r_factor(g, r))


def extract_oriented_r_factor(g: OrientedGraph, r: int) -> FactorCertificate:
    """A spanning sub-digraph with every in/out-degree exactly r: g less
    the edges of a b-matching on the excess degrees."""
    if r == 0:
        return FactorCertificate(0, frozenset(), "oriented")
    degs = degree_summary(g)
    if r == degs.min_semi == degs.max_semi:
        return FactorCertificate(r, g.edges, "oriented")
    picks = _factor_deletions(g.out_neighbors, g.in_neighbors, r)
    if picks is None:
        raise NoFactorError(f"graph has no {r}-factor")
    return FactorCertificate(r, frozenset((u, v) for u, row in enumerate(g.out_neighbors)
                                          for v in row if v not in picks[u]), "oriented")


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
