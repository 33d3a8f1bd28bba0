"""Hamilton cycles: cycle-factor patching, exact path search, and splicing
path covers into cycles through a reservoir vertex set.

The pipeline's engine is patching (Karp 1979): draw a random cycle factor
of the residual graph (a greedy random matching of out- to in-copies,
completed by shortest augmenting paths) and merge its cycles by 2-switches
into one Hamilton cycle.  The residual graph is held as sorted out-neighbour
rows, built once and shrunk by each cycle found.

A cover of a vertex-disjoint paths is completed into one cycle by picking,
for each path, a reservoir in-neighbour of its start and a reservoir
out-neighbour of its end (2a distinct picks: a random maximum matching of
the 2a path ends to the reservoir), partitioning the reservoir
into a blocks that pin consecutive picks together, and joining each pinned
pair by a Hamilton path inside its block.  Block paths are found by exact
backtracking search with reachability pruning, so blocks are kept small;
failed blocks trigger a fresh random partition of the reservoir.  One
bitmask reachability routine, over neighbour bitmasks built once from the
sorted rows, serves both the search's pruning and the splice's cheap
pre-screen of each block.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import (
    BudgetExhaustedError,
    HypothesisViolatedError,
    InvariantViolationError,
    ReservoirMismatchError,
    SpliceFailedError,
)
from .factors import random_cycle_factor
from .graphs import Edge, OrientedGraph, degree_summary
from .pathcovers import DirectedPath, PathCoverFamily

# consecutive cycle factors without a merging switch before patching stops
PATCH_REDRAWS = 20
# most cycle factors of a Hamilton cycle's sign the degree <= 2 end check
# walks (up to 2^(n/2) at degree 2): a draw and its merge pass over every
# vertex several times, a walk at most once, so eight walks per redraw the
# check replaces keep it no dearer than the redraws
FACTOR_WALKS = 8 * PATCH_REDRAWS
# (start, end) pairs a free-endpoint path search tries
ENDPOINT_PAIRS = 6
# reservoir partitions a splice draws before it gives up
SPLICE_ATTEMPTS = 20
# most reservoir vertices one splice block may hold
BLOCK_CAP = 24
# node expansions allowed for each block's Hamilton-path search
BLOCK_PATH_BUDGET = 200_000


@dataclass(frozen=True)
class HamiltonCycle:
    """Directed Hamilton cycle, canonicalized to start at its smallest vertex.

    Two cycles are equal iff their orders are, iff their edge sets are.
    """

    order: tuple[int, ...]

    @classmethod
    def from_order(cls, seq: Sequence[int]) -> "HamiltonCycle":
        if len(seq) < 3 or len(set(seq)) != len(seq):
            raise InvariantViolationError("cycle must visit >= 3 distinct vertices")
        k = seq.index(min(seq))
        return cls(tuple(seq[k:]) + tuple(seq[:k]))

    @property
    def edges(self) -> frozenset[Edge]:
        """The edge set, built from the order on each read."""
        return frozenset(zip(self.order, self.order[1:] + self.order[:1]))

    def spans(self, vertices: set[int]) -> bool:
        """True when the order visits each of ``vertices`` exactly once."""
        return len(self.order) == len(vertices) and set(self.order) == vertices


# -- cycle-factor patching ------------------------------------------------


@dataclass
class PatchingOutcome:
    """Cycles found in order, failed factor draws, switches made, factors
    the end check walked, why the search stopped, the residual's sorted rows."""

    cycles: list[HamiltonCycle]
    failures: int
    switches: int
    walks: int
    stop_reason: str
    residual: list[list[int]]


def patch_hamilton_cycles(g: OrientedGraph, seed: int | str = 0) -> PatchingOutcome:
    """Edge-disjoint Hamilton cycles of g, one per round.

    The residual graph (g without the cycles found so far) is held as
    sorted out-neighbour rows, copied once from ``g.out_neighbors``.  A round
    draws a cycle factor of it with ``factors.random_cycle_factor``: a
    random greedy matching between out- and in-copies, completed by
    shortest augmenting paths, under the seeded generator.  It then merges
    the smallest cycle into another by a 2-switch until one cycle is left:
    for u in it and a residual edge u -> w into another cycle, with
    p = pred(w), a residual edge p -> succ(u) allows succ(u) = w and
    succ(p) = old succ(u); u and w are tried in cycle and sorted order.  The
    Hamilton cycle's edges are deleted from the rows by bisection, in the
    one walk along it that reads off its order.  A factor whose smallest
    cycle has no switch is redrawn; PATCH_REDRAWS such draws in a row end
    the search, and the rows left are returned as ``residual``.

    A 2-switch trades two factor edges for two residual edges, so every
    merge yields another cycle factor of the residual.  Once every residual
    in- and out-degree is d <= 2 those factors are few: the first Hamilton
    cycle :func:`residual_cycle_factors` walks (``walks`` sums the walks) is
    the round's factor, and when there is none the search stops.  The walk
    draws nothing; it runs before the first draw and after each cycle found,
    and leaves the round to a draw only when its verdict is None (the
    degrees are not all the same 1 or 2, or it would exceed FACTOR_WALKS).
    """
    n = g.n
    rng = random.Random(f"{seed}:patch")
    out = [list(row) for row in g.out_neighbors]
    cycles: list[HamiltonCycle] = []
    failures = switches = walks = consecutive = 0
    reason = f"{PATCH_REDRAWS} consecutive factors without a merging switch"
    while consecutive < PATCH_REDRAWS:
        if consecutive == 0:
            found, walked = residual_cycle_factors(out)
            walks += walked
            if found is False:
                reason = "no cycle factor of the residual is a Hamilton cycle"
                break
        succ = found or random_cycle_factor(out, rng)  # after a failed draw found is None
        if -1 in succ:
            reason = "no cycle factor in residual"
            break
        merged, made = _merge_factor(succ, out)
        switches += made
        if not merged:
            failures += 1
            consecutive += 1
            continue
        consecutive = 0
        order, x = [], 0
        for _ in range(n):
            order.append(x)
            row, x = out[x], succ[x]
            del row[bisect_left(row, x)]
        cycles.append(HamiltonCycle(tuple(order)))  # starts at 0, so canonical
    return PatchingOutcome(cycles, failures, switches, walks, reason, out)


def _merge_factor(succ: list[int], out: list[list[int]]) -> tuple[bool, int]:
    """Merge the cycles of the factor ``succ`` in place by 2-switches over
    the residual edges of the sorted rows ``out``; returns (merged into one
    cycle?, switches made)."""
    n = len(succ)
    pred = [0] * n
    for u, w in enumerate(succ):
        pred[w] = u
    label = [-1] * n
    members: dict[int, list[int]] = {}
    for v in range(n):
        if label[v] == -1:
            members[v] = []
            x = v
            while label[x] == -1:
                label[x] = v
                members[v].append(x)
                x = succ[x]
    made = 0
    while len(members) > 1:
        small = min(members, key=lambda c: (len(members[c]), c))
        for u in members[small]:
            s = succ[u]
            for w in out[u]:
                if label[w] != small:
                    row = out[pred[w]]  # a switch needs s in this sorted row
                    i = bisect_left(row, s)
                    if i < len(row) and row[i] == s:
                        break
            else:
                continue
            break
        else:
            return False, made
        p = pred[w]
        succ[u], pred[w] = w, u
        succ[p], pred[s] = s, p
        big = label[w]
        for x in members[small]:
            label[x] = big
        members[big].extend(members.pop(small))
        made += 1
    return True, made


def alternating_components(out: Sequence[list[int]]
                           ) -> tuple[list[int], list[int], list[int]] | None:
    """(comp, take, ells) of the sorted out-rows of a digraph whose every in-
    and out-degree is the same d in {1, 2}, else None.  At d = 2 the double
    cover (out-copy u joined to in-copy v per edge u -> v) is a union of c
    even cycles, the alternating components; a cycle factor takes one of the
    two alternate halves of each.  u's out-copy lies in component
    ``comp[u]``, its edge in the half with bit 0 is ``out[u][take[u]]``, and
    component i has ``ells[i]`` out-copies.  At d = 1 the rows are the one
    cycle factor: ``ells`` is empty and every ``comp`` and ``take`` is 0."""
    n, d = len(out), len(out[0])
    if not 1 <= d <= 2 or any(len(row) != d for row in out):
        return None
    tails: list[list[int]] = [[] for _ in range(n)]
    for u, row in enumerate(out):
        for v in row:
            tails[v].append(u)
    if any(len(row) != d for row in tails):
        return None
    comp = [-1 if d == 2 else 0] * n
    take = [0] * n
    ells: list[int] = []
    for root in range(n):
        if comp[root] < 0:
            u, j, ell = root, 0, 0
            while comp[u] < 0:
                comp[u], take[u], ell = len(ells), j, ell + 1
                v = out[u][j]
                a, b = tails[v]
                u = b if a == u else a  # v's other tail takes its other edge
                j = 1 - out[u].index(v)
            ells.append(ell)
    return comp, take, ells


def factor_sign(succ: Sequence[int]) -> int:
    """(n - number of cycles) mod 2 of the permutation ``succ``: 0 when it
    is even, 1 when odd.  A Hamilton cycle has sign (n - 1) mod 2."""
    seen, cycles = [False] * len(succ), 0
    for v in range(len(succ)):
        cycles += not seen[v]
        while not seen[v]:
            seen[v], v = True, succ[v]
    return (len(succ) - cycles) % 2


def residual_cycle_factors(out: Sequence[list[int]]
                           ) -> tuple[list[int] | bool | None, int]:
    """Find a cycle factor of a digraph of degree 1 or 2 that is a Hamilton
    cycle: (found, masks walked), ``found`` the successor list of the first
    walked factor that is one cycle through all n vertices, False when no
    factor is, and None, unwalked, when the question stays open: when
    :func:`alternating_components` is None (not every in- and out-degree is
    the same 1 or 2), or when it would walk more than FACTOR_WALKS factors.
    There is one factor at d = 1 and one per mask of flipped components at
    d = 2.  A flip of l out-copies permutes l heads cyclically, multiplying
    the factor's sign (:func:`factor_sign`) by (-1)^(l - 1); a Hamilton
    cycle's is (n - 1) mod 2.  That fixes the parity of the flipped
    components of even l, and only those masks are walked, in increasing
    order, along the factor's cycle through vertex 0.  When every l is odd
    and the mask-0 factor has the wrong sign, the answer is False unwalked."""
    parts = alternating_components(out)
    if parts is None:
        return None, 0
    comp, take, ells = parts
    n, count = len(out), 1 << len(ells)
    even = sum(1 << i for i, ell in enumerate(ells) if ell % 2 == 0)
    # parity of the even-l components a mask must flip
    flip = factor_sign([row[t] for row, t in zip(out, take)]) ^ (n - 1) % 2
    if not even and flip:
        return False, 0
    if (count // 2 if even else count) > FACTOR_WALKS:
        return None, 0
    masks = [m for m in range(count) if (m & even).bit_count() % 2 == flip]
    for walked, mask in enumerate(masks, 1):
        x, length = 0, 0
        while not length or x:  # walk the factor's cycle through vertex 0
            x, length = out[x][take[x] ^ (mask >> comp[x] & 1)], length + 1
        if length == n:
            return [row[take[v] ^ (mask >> comp[v] & 1)] for v, row in enumerate(out)], walked
    return False, len(masks)


# -- exact Hamilton-path search -----------------------------------------


def hamilton_path_between(f: OrientedGraph, s: int, t: int,
                          budget: int | None = None, seed: int = 0) -> DirectedPath | None:
    """A Hamilton path of f from s to t, or None once the search tree is
    fully explored.

    One backtracking pass (:func:`_bounded_path_search` over all of f) whose
    tie-breaking is drawn from the stream ``f"{seed}:path:0"``.  A budget caps
    that pass's node expansions: a pass cut off before a verdict raises
    BudgetExhaustedError with ``expansions == budget``, and any budget at
    least the unbudgeted pass's expansions gives its verdict.  Vertices are
    f's local indices.
    """
    n = f.n
    if s == t:
        raise InvariantViolationError(f"endpoints coincide: {s}")
    if not (0 <= s < n and 0 <= t < n):
        raise InvariantViolationError("endpoints outside the graph")
    out_mask, in_mask = _masks(f)
    path, spent, cutoff = _bounded_path_search(out_mask, in_mask, (1 << n) - 1, s, t, budget,
                                               random.Random(f"{seed}:path:0"))
    if cutoff:
        raise BudgetExhaustedError(
            f"no verdict for ({s}, {t}) within {budget} expansions", expansions=spent)
    return None if path is None else DirectedPath(tuple(path))


def _masks(f: OrientedGraph) -> tuple[list[int], list[int]]:
    """Out- and in-neighbour bitmasks of f's vertices, from its sorted rows."""
    return ([sum(1 << v for v in row) for row in f.out_neighbors],
            [sum(1 << u for u in row) for row in f.in_neighbors])


def _reach(masks: Sequence[int], start: int, allowed: int) -> int:
    """Bitmask of start and every vertex it reaches along the neighbour
    bitmasks ``masks`` through vertices of the bitmask ``allowed``."""
    reach = frontier = 1 << start
    while frontier:
        nxt = 0
        while frontier:
            b = frontier & -frontier
            frontier ^= b
            nxt |= masks[b.bit_length() - 1]
        frontier = nxt & allowed & ~reach
        reach |= frontier
    return reach


def _bounded_path_search(out_mask: list[int], in_mask: list[int], within: int,
                         s: int, t: int, budget: int | None, rng: random.Random
                         ) -> tuple[list[int] | None, int, bool]:
    """One backtracking pass for a Hamilton path from s to t of the graph
    induced on the vertex bitmask ``within``, read off the neighbour
    bitmasks ``out_mask`` and ``in_mask`` of a host graph; returns (path or
    None, expansions, cutoff?), cut off with ``expansions == budget``.

    Branches go first to the out-neighbour with the fewest remaining
    out-options, ties broken by ``rng``; a head from which some unvisited
    vertex is unreachable, or cannot reach t, is pruned.  Vertex sets are
    bitmasks so the per-node reachability pruning stays cheap.
    """
    n = within.bit_count()
    visited = 1 << s
    path = [s]
    expansions = 0

    # Depth-first search with an explicit stack: stack[i] yields the
    # untried candidates after path[i], and a head without an entry is a
    # dead end to back out of.
    stack: list[Iterator[int]] = []
    while True:
        head = path[-1]
        if len(path) == n:
            if head == t:
                return path, expansions, False
        elif budget is not None and expansions >= budget:
            return None, expansions, True
        else:
            expansions += 1
            unvisited = within & ~visited
            # every unvisited vertex must be reachable from head through
            # unvisited vertices, and must reach t the same way
            if (not unvisited & ~_reach(out_mask, head, unvisited)
                    and not unvisited & ~_reach(in_mask, t, unvisited)):
                if len(path) == n - 1:
                    cands = [t] if out_mask[head] & (1 << t) else []
                else:
                    avail = out_mask[head] & unvisited & ~(1 << t)
                    cands = []
                    while avail:
                        b = avail & -avail
                        avail ^= b
                        cands.append(b.bit_length() - 1)
                    rng.shuffle(cands)
                    cands.sort(key=lambda w: (out_mask[w] & unvisited).bit_count())
                stack.append(iter(cands))
        while True:
            if len(stack) < len(path):
                if not stack:
                    return None, expansions, False
                visited &= ~(1 << path.pop())
            w = next(stack[-1], None)
            if w is not None:
                visited |= 1 << w
                path.append(w)
                break
            stack.pop()


def hamilton_path_any(f: OrientedGraph, budget: int | None = None,
                      seed: int = 0) -> DirectedPath | None:
    """Best-effort Hamilton path with free endpoints.

    Tries up to ENDPOINT_PAIRS diverse (start, end) pairs, preferring starts
    that are hard to enter and ends that are hard to leave.
    """
    n = f.n
    if n == 1:
        return DirectedPath((0,))
    rng = random.Random(f"{seed}:any")
    starts = sorted(range(n), key=lambda v: (f.in_degree(v), rng.random()))
    ends = sorted(range(n), key=lambda v: (f.out_degree(v), rng.random()))
    pairs: list[tuple[int, int]] = []
    for i in range(min(ENDPOINT_PAIRS, n)):
        s = starts[i % len(starts)]
        t = next(e for e in ends if e != s)
        if i > 0:
            t = ends[i % len(ends)]
            if t == s:
                t = ends[(i + 1) % len(ends)]
        if (s, t) not in pairs:
            pairs.append((s, t))
    for s, t in pairs:
        try:
            got = hamilton_path_between(f, s, t, budget=budget,
                                        seed=rng.randrange(1 << 30))
        except BudgetExhaustedError:
            got = None
        if got is not None:
            return got
    return None


# -- completing one cover into one cycle ---------------------------------


def _choose_connectors(slots: Sequence[set[int]], reservoir: Sequence[int],
                       seed: int | str) -> list[int] | None:
    """Distinct reservoir picks for the 2a ``slots``, 2i the entry before
    path i's start and 2i + 1 the exit after its end: a random maximum
    matching of the slots to the vertices ``reservoir``, drawn by
    :func:`random_cycle_factor` on the slots' sorted rows padded with empty
    rows to a square (none when the reservoir is the smaller side), or None
    when it leaves a slot unmatched, as then no distinct choice exists."""
    index = {h: j for j, h in enumerate(reservoir)}
    rows = [sorted(index[w] for w in c) for c in slots]
    rows += [[] for _ in range(len(reservoir) - len(slots))]
    picks = random_cycle_factor(rows, random.Random(f"{seed}:choice"))[:len(slots)]
    if -1 in picks:
        return None
    return [reservoir[j] for j in picks]


def complete_cover_to_cycle(paths: Sequence[DirectedPath], g: OrientedGraph,
                            seed: int | str = 0) -> HamiltonCycle:
    """Complete vertex-disjoint paths of g into a Hamilton cycle of g.

    The reservoir is every vertex of g on no path; path i is entered from a
    reservoir in-neighbour of its start and left to a reservoir
    out-neighbour of its end.  The cycle visits every path as a contiguous
    segment and every reservoir vertex exactly once.  Paths that overlap,
    leave g or use an edge g lacks raise InvariantViolationError, and a
    reservoir larger than a blocks of BLOCK_CAP can absorb raises
    ReservoirMismatchError.  The connector matching is the one connector
    test: when no 2a distinct connectors exist (an endpoint without a
    reservoir neighbour, or a reservoir of fewer than 2a vertices), it
    raises SpliceFailedError with ``attempts == 0``.

    Each attempt deals the free reservoir into a blocks of equal size
    (within one) and joins each block's two pins by one
    :func:`_bounded_path_search` pass on g's bitmasks within the block; a
    pass cut off at BLOCK_PATH_BUDGET fails like one with no path.  Equal
    sizes miss every completion whose reservoir runs are unbalanced (2 of
    the 12 in ``test_complete_thinned_connector_sets``).
    """
    a = len(paths)
    if a == 0:
        raise InvariantViolationError("cover must contain at least one path")
    covered: set[int] = set()
    for p in paths:
        if covered & set(p.vertices):
            raise InvariantViolationError("paths overlap each other")
        covered.update(p.vertices)
    if covered.difference(range(g.n)):
        raise InvariantViolationError("paths leave the graph")
    if not all(g.has_edge(u, v) for p in paths for u, v in p.edges()):
        raise InvariantViolationError("a path edge is not an edge of the graph")
    reservoir = [v for v in range(g.n) if v not in covered]
    wset = set(reservoir)
    slots = [wset.intersection(row) for p in paths
             for row in (g.in_neighbors[p.start], g.out_neighbors[p.end])]
    if a * BLOCK_CAP < len(wset):
        raise ReservoirMismatchError(
            f"{a} blocks of <= {BLOCK_CAP} cannot absorb {len(wset)} reservoir vertices")

    out_mask, in_mask = _masks(g)
    sizes = [len(wset) // a + (1 if i < len(wset) % a else 0) for i in range(a)]
    last_block = None
    for attempt in range(SPLICE_ATTEMPTS):
        # Re-draw the connector choice alongside the reservoir partition:
        # with few blocks the partition alone carries too little freedom.
        picks = _choose_connectors(slots, reservoir, f"{seed}:{attempt}")
        if picks is None:  # a maximum matching has the same size at every draw
            raise SpliceFailedError("no distinct connector choice exists", attempts=0)
        # block i holds path i's exit and path i + 1's entry
        pinned_pairs = [(picks[2 * i + 1], picks[(2 * i + 2) % (2 * a)]) for i in range(a)]
        free = sorted(wset - set(picks))
        rng = random.Random(f"{seed}:blocks:{attempt}")
        for _ in range(12):
            # reachability pre-screen: cheap rejections instead of burning a
            # full search attempt on a hopeless deal
            shuffled = free[:]
            rng.shuffle(shuffled)
            block_masks: list[int] = []
            pos = 0
            for (s, t), size in zip(pinned_pairs, sizes):
                block_masks.append(sum(1 << v for v in [s, t, *shuffled[pos:pos + size - 2]]))
                pos += size - 2
            if all(_reach(out_mask, s, m) == m == _reach(in_mask, t, m)
                   for (s, t), m in zip(pinned_pairs, block_masks)):
                break
        else:
            last_block = -1
            continue
        # tie-breaking drawn from hamilton_path_between's stream, so each
        # block's path is the one a search through it would return
        intervals: list[list[int]] = []
        for i, ((s, t), m) in enumerate(zip(pinned_pairs, block_masks)):
            got, _, _ = _bounded_path_search(
                out_mask, in_mask, m, s, t, BLOCK_PATH_BUDGET,
                random.Random(f"{rng.randrange(1 << 30)}:path:0"))
            if got is None:  # no path, or cut off at the budget
                last_block = i
                break
            intervals.append(got)
        else:
            order: list[int] = []
            for i in range(a):
                order.extend(paths[i].vertices)
                order.extend(intervals[i])
            return HamiltonCycle.from_order(order)
    raise SpliceFailedError(
        f"splice failed after {SPLICE_ATTEMPTS} reservoir partitions",
        block_index=last_block, attempts=SPLICE_ATTEMPTS)


def verify_completed_cycle(cycle: HamiltonCycle, paths: Sequence[DirectedPath],
                           g: OrientedGraph) -> bool:
    """Independent check of a completed cycle against its inputs: it spans
    g, each path is one arc of it made of edges of g, and its other edges
    are edges of g that lie in, enter or leave the reservoir."""
    vertices = set(range(g.n))
    covered = {v for p in paths for v in p.vertices}
    if not covered <= vertices or not cycle.spans(vertices):
        return False
    if not all(g.has_edge(u, v) for p in paths for u, v in p.edges()):
        return False
    # the cycle visits each vertex once, so a path is one contiguous arc of
    # it exactly when every edge of the path is a cycle edge
    edges = cycle.edges
    if not all(edges.issuperset(p.edges()) for p in paths):
        return False
    w = vertices - covered
    allowed = {(u, v) for u in w for v in g.out_neighbors[u] if v in w}
    for p in paths:
        allowed.update(p.edges())
        allowed.update((u, p.start) for u in w.intersection(g.in_neighbors[p.start]))
        allowed.update((p.end, v) for v in w.intersection(g.out_neighbors[p.end]))
    return edges <= allowed


# -- completing a family into many edge-disjoint cycles -------------------


@dataclass(frozen=True)
class CompletionFailure:
    index: int
    cause: str


@dataclass
class CompletionOutcome:
    """Cycles completed so far plus the failure (if any) that stopped us."""

    cycles: list[HamiltonCycle]
    failure: CompletionFailure | None = None

    @property
    def complete(self) -> bool:
        return self.failure is None


def complete_family_to_cycles(h: OrientedGraph, u_set: Sequence[int],
                              w_set: Sequence[int], family: PathCoverFamily,
                              slack: int, seed: int = 0,
                              strict: bool = True) -> CompletionOutcome:
    """Complete each cover of the family into a Hamilton cycle of h, removing
    each finished cycle's edges before the next round.

    U and W partition V(h); covers live on h[U], connectors and reservoir
    edges come from the not-yet-used edges of h.  Strict mode checks the
    working hypotheses on h up front: every U vertex needs more than
    2a + slack edges to W in both directions, and h[W] needs min
    semi-degree at least the family size.  In either mode each round's
    connector matching alone decides whether its connectors exist.
    """
    u_sorted = sorted(u_set)
    w_sorted = sorted(w_set)
    uset, wset = set(u_sorted), set(w_sorted)
    if uset & wset or uset | wset != set(range(h.n)):
        raise InvariantViolationError("U and W must partition the vertex set")
    family.validate(universe=uset, host=h)
    t = family.t
    a_bound = family.a
    if strict:
        for u in u_sorted:
            d_out = sum(1 for v in h.out_neighbors[u] if v in wset)
            d_in = sum(1 for v in h.in_neighbors[u] if v in wset)
            if d_out <= 2 * a_bound + slack or d_in <= 2 * a_bound + slack:
                raise HypothesisViolatedError(
                    f"vertex {u} has degrees ({d_in}, {d_out}) towards the "
                    f"reservoir, needs > {2 * a_bound + slack}")
        min_semi = degree_summary(h.induced_subgraph(w_sorted)).min_semi
        if min_semi < t:
            raise HypothesisViolatedError(
                f"reservoir min semi-degree {min_semi} below floor {t}")

    used: set[Edge] = set()
    cycles: list[HamiltonCycle] = []
    for j, cover in enumerate(family.covers):
        try:
            cycle = complete_cover_to_cycle(
                cover.paths, OrientedGraph(h.n, h.edges - used), seed=f"{seed}:round:{j}")
        except (SpliceFailedError, ReservoirMismatchError) as exc:
            return CompletionOutcome(cycles, CompletionFailure(j, f"{type(exc).__name__}: {exc}"))
        used |= cycle.edges
        cycles.append(cycle)
    return CompletionOutcome(cycles, None)
