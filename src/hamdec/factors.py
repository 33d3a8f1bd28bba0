"""Bipartite matchings, r-factors and reg() for digraphs.

An r-factor exists iff a b-matching on the edges it leaves out saturates
the excess degrees, except on regular oriented graphs, where the degrees
decide it; the literal subset inequality of the Gale-Ryser criterion is
kept as an independent exponential oracle for cross-validation.  Every
maximum matching comes from one routine, :func:`random_cycle_factor`,
which reads sorted adjacency rows and draws each greedy pick by rejection:
patching's cycle factors call it on the residual's rows, and
:func:`disjoint_maximum_matchings` runs it on a bipartite graph's rows,
deleting each matching before the next draw, for the path-cover matching
chains.
The random regular bipartite test instances come from the switch chain
that also draws random regular oriented graphs.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Collection, Iterator, Sequence

from .errors import (
    InvariantViolationError,
    NoFactorError,
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


# -- generic matching machinery ----------------------------------------


def random_cycle_factor(out: Sequence[list[int]], rng: random.Random) -> list[int]:
    """A random maximum matching between the out- and in-copies of the
    digraph with sorted out-neighbour rows ``out``: ``succ[u]`` is u's
    successor, or -1 for a vertex left unmatched.  With no -1 it is a
    cycle factor, and there is a -1 exactly when the digraph has no cycle
    factor.  The rows are read, never changed.

    The vertices are scanned in one random order, and each is matched to a
    uniformly drawn free out-neighbour.  The first try, a uniform entry of
    its row, is kept if free; after it, up to DRAW_TRIES - 1 more tries
    follow, and after those a uniform entry of the row's free ones.  A
    vertex with an empty row, or with no free entry, is left unmatched.
    When the greedy pass matches every vertex the factor is returned at
    once.  Otherwise each unmatched vertex roots one breadth-first search
    for a shortest augmenting path, walking the rows in order.  Each vertex
    is tested for a free out-neighbour as it joins the queue, and the
    search stops at the first that has one: the path ends at one of its
    free out-neighbours, drawn uniformly from the sorted free ones.  The
    root has none, since the greedy pass leaves a vertex unmatched only
    when every out-neighbour is taken, and taken stays taken.  Testing on
    entry rather than on leaving the queue finds the same vertex, since
    nothing the test reads changes during one search, but scans no row of
    the vertices queued before it.  The search is complete, so by Kuhn's
    argument the result is a maximum matching.  The result depends only on
    ``out`` and the generator's state, never on set iteration order.

    The scan order and the uniform entries are drawn straight from
    ``rng.getrandbits``, exactly as ``rng.shuffle`` and ``rng.choice`` take
    them on CPython 3.10-3.13: an index below m is ``getrandbits(k)`` with
    k = m.bit_length(), redrawn while it is m or more.  So the generator
    ends in the state those calls would leave, and the rarer draws (the
    fallback and the path end) still call ``rng.choice``.  The shuffle runs
    in blocks of positions i with the same k = (i + 1).bit_length(), i from
    2^k - 2 down to 2^(k-1) - 1, and the greedy pass recomputes k only when
    the row length changes from the last scanned vertex's.
    """
    n = len(out)
    succ = [-1] * n
    pred = [-1] * n
    bits = rng.getrandbits
    scan = list(range(n))
    hi = n - 1
    while hi > 0:  # Fisher-Yates, drawn as Random.shuffle draws it
        k = (hi + 1).bit_length()
        lo = (1 << (k - 1)) - 1
        for i in range(hi, lo - 1, -1):
            j = bits(k)
            while j > i:
                j = bits(k)
            scan[i], scan[j] = scan[j], scan[i]
        hi = lo - 1
    unmatched = []
    choice = rng.choice
    retries = range(DRAW_TRIES - 1)
    m = -1
    for a in scan:
        row = out[a]
        if len(row) != m:
            m = len(row)
            k = m.bit_length()
        if not m:
            unmatched.append(a)
            continue
        i = bits(k)  # Random.choice(row)
        while i >= m:
            i = bits(k)
        b = row[i]
        if pred[b] >= 0:
            for _ in retries:
                i = bits(k)
                while i >= m:
                    i = bits(k)
                b = row[i]
                if pred[b] < 0:
                    break
            else:
                cands = [b for b in row if pred[b] < 0]
                if not cands:
                    unmatched.append(a)
                    continue
                b = choice(cands)
        succ[a] = b
        pred[b] = a
    if not unmatched:
        return succ
    free = {b for b in range(n) if pred[b] < 0}
    for root in unmatched:
        # parent[x] is the left vertex whose edge to succ[x] reached x
        parent = {root: -1}
        queue = [root]
        for a in queue:
            for b in out[a]:  # all taken: a has no free out-neighbour
                x = pred[b]
                if x not in parent:
                    parent[x] = a
                    if not free.isdisjoint(out[x]):
                        break
                    queue.append(x)
            else:
                continue
            break
        else:
            continue  # no augmenting path: root stays unmatched
        b = choice(sorted(free.intersection(out[x])))
        free.discard(b)
        while x != -1:
            succ[x], pred[b], b = b, x, succ[x]
            x = parent[x]
    return succ


def disjoint_maximum_matchings(b: BipartiteGraph, rng: random.Random) -> Iterator[Matching]:
    """Endless random maximum matchings of b, each of the edges the ones
    before it left: :func:`random_cycle_factor` on b's sorted left-to-right
    rows, padded with empty rows to a square, with each matching's entries
    deleted from the rows before the next draw.  Once the edges run out
    every matching is empty, so callers take only what they need."""
    rows = [list(row) for row in b.adj_left] + [[] for _ in range(b.right_size - b.left_size)]
    while True:
        mt = Matching(frozenset((a, mb) for a, mb in enumerate(random_cycle_factor(rows, rng))
                                if mb != -1))
        yield mt
        for a, mb in mt.pairs:
            rows[a].remove(mb)


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
    left, the smallest such head of the path's last vertex; once one finds
    none, the set is maximum by max-flow/min-cut.  Each vertex is tested
    for a free head it does not hold as it joins the queue.  Nothing the
    test reads changes during one search, so the search stops at the vertex
    a test on leaving the queue would find, without scanning the rows of
    the vertices queued before it.  An augmentation gives one root one more
    head and takes one cap from one head, so the unsaturated roots (in
    increasing order) and the free heads are kept across searches.  No root
    needs the test: the greedy pass stops a vertex at its first head with
    no cap left, so it leaves no unsaturated vertex a free head it does not
    hold, and after that caps only fall and roots never lose heads.
    """
    picks, owners, rest = _greedy_b_matching(left_caps, right_caps, rows)
    roots = [a for a, cap in enumerate(left_caps) if len(picks[a]) < cap]
    free = {b for b, cap in enumerate(rest) if cap}
    while True:
        # parent[x] = (w, b): the path reaches x when w takes b from it
        parent = dict.fromkeys(roots)
        end = _augmenting_end(rows, picks, owners, free, parent)
        if end is None:
            break
        w, hits = end
        b = min(hits)
        rest[b] -= 1
        if not rest[b]:
            free.discard(b)
        while True:
            picks[w].add(b)
            owners[b].add(w)
            if parent[w] is None:
                break
            x, (w, b) = w, parent[w]
            picks[x].discard(b)
            owners[b].discard(x)
        if len(picks[w]) == left_caps[w]:
            roots.remove(w)
    return sum(map(len, picks)), picks


def _augmenting_end(rows: Sequence[Sequence[int]], picks: list[set[int]],
                    owners: list[set[int]], free: set[int],
                    parent: dict[int, tuple[int, int] | None]
                    ) -> tuple[int, set[int]] | None:
    """The last vertex of the first augmenting path of one search of
    :func:`_b_matching` from the roots in ``parent``, and its free heads
    that it does not hold, or None if there is none; ``parent`` gains the
    vertices reached."""
    queue = list(parent)
    seen: set[int] = set()
    for w in queue:
        mine = picks[w]
        for b in rows[w]:
            if b not in seen and b not in mine:
                seen.add(b)
                for x in owners[b]:
                    if x not in parent:
                        parent[x] = (w, b)
                        if not free.isdisjoint(rows[x]):
                            hits = free.intersection(rows[x]) - picks[x]
                            if hits:
                                return x, hits
                        queue.append(x)
    return None


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
    return _factor_deletions(b.adj_left, b.adj_right, r) is not None


def gale_ryser_oracle(b: BipartiteGraph, r: int) -> bool:
    """Literal subset criterion: e(X, Y) >= r(|X| + |Y| - m) for all X, Y.

    Exponential in m; the independent cross-check for the b-matching
    route of :func:`has_bipartite_r_factor`.
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


def extract_oriented_r_factor(g: OrientedGraph, r: int) -> OrientedGraph:
    """A spanning sub-digraph of g with every in/out-degree exactly r, on
    g's vertices: g itself when g is r-regular, the edgeless
    graph when r = 0, and otherwise g less the edges of a b-matching on
    the excess degrees."""
    if r == 0:
        return OrientedGraph(g.n, ())
    degs = degree_summary(g)
    if r == degs.min_semi == degs.max_semi:
        return g
    picks = _factor_deletions(g.out_neighbors, g.in_neighbors, r)
    if picks is None:
        raise NoFactorError(f"graph has no {r}-factor")
    return OrientedGraph(g.n, ((u, v) for u, row in enumerate(g.out_neighbors)
                               for v in row if v not in picks[u]))


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
