"""Shared test helpers: planted splice instances and independent oracles."""

import random

from hypothesis import strategies as st

from hamdec.errors import (
    AntiparallelPairError,
    DuplicateEdgeError,
    LoopEdgeError,
    VertexOutOfRangeError,
)
from hamdec.flows import Dinic
from hamdec.graphs import OrientedGraph
from hamdec.pathcovers import DirectedPath


def reference_edge_fault(n, edges):
    """Set-based oracle for OrientedGraph's checks: the error class of the
    first faulty edge in input order, or None when the edges form an
    oriented graph on [0, n).  Independent of the row checks: one pass
    over the edges with a set of those seen."""
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            return VertexOutOfRangeError
        if u == v:
            return LoopEdgeError
        if (u, v) in seen:
            return DuplicateEdgeError
        if (v, u) in seen:
            return AntiparallelPairError
        seen.add((u, v))
    return None


def plant_completable_instance(seed, w_size, a):
    """Random splice instance that contains a completion by construction.

    Vertices [0, P) form a disjoint paths, [P, P + w_size) the reservoir.  A
    cyclic order visiting every path as a segment with reservoir runs of
    length >= 2 is planted; every other vertex pair is oriented at random.
    Returns (host, paths).
    """
    assert w_size >= 2 * a
    rng = random.Random(f"planted:{seed}")
    lens = [rng.choice((1, 2, 3)) for _ in range(a)]
    total = sum(lens)
    paths = []
    v = 0
    for length in lens:
        paths.append(DirectedPath(tuple(range(v, v + length))))
        v += length
    n = total + w_size
    w = list(range(total, n))
    runs = [2] * a
    for _ in range(w_size - 2 * a):
        runs[rng.randrange(a)] += 1
    wperm = w[:]
    rng.shuffle(wperm)
    order = []
    pos = 0
    for i in range(a):
        order.extend(paths[i].vertices)
        order.extend(wperm[pos:pos + runs[i]])
        pos += runs[i]
    planted = {(order[i], order[(i + 1) % n]) for i in range(n)}
    edges = set()
    for x in range(n):
        for y in range(x + 1, n):
            if (x, y) in planted:
                edges.add((x, y))
            elif (y, x) in planted:
                edges.add((y, x))
            else:
                edges.add((x, y) if rng.random() < 0.5 else (y, x))
    return OrientedGraph(n, edges), tuple(paths)


def bruteforce_completable(paths, host, node_cap=500_000, min_run=2):
    """Exhaustive check that some completion exists: a cyclic arrangement of
    all paths and reservoir vertices (the host's vertices on no path) where
    paths appear as segments, each reservoir run has length >= min_run
    (at least 1, as a path's end never joins a path's start), and every
    join is a host edge.

    Independent of the splicing code: a plain DFS over the contracted
    digraph.  Returns True / False, or None when node_cap is hit.
    """
    a = len(paths)
    w_set = set(range(host.n)) - {v for p in paths for v in p.vertices}
    edges = host.edges
    succ = {v: set() for v in w_set}
    for u, v in edges:
        if u in w_set and v in w_set:
            succ[u].add(v)
    enter = {i: {u for u, v in edges if v == paths[i].start and u in w_set}
             for i in range(a)}   # w -> path i
    leave = {i: {v for u, v in edges if u == paths[i].end and v in w_set}
             for i in range(a)}   # path i -> w

    budget = [node_cap]

    def dfs(visited_paths, visited_w, head, run_len):
        """head: reservoir vertex at the tip of the current run."""
        if budget[0] <= 0:
            return None
        budget[0] -= 1
        if run_len >= min_run:
            if len(visited_paths) == a and visited_w == w_set and head in enter[0]:
                return True  # close the cycle back into path 0
            for nxt in range(1, a):
                if nxt in visited_paths or head not in enter[nxt]:
                    continue
                for w2 in sorted(leave[nxt]):
                    if w2 in visited_w:
                        continue
                    res = dfs(visited_paths | {nxt}, visited_w | {w2}, w2, 1)
                    if res:
                        return True
                    if res is None:
                        return None
        for w2 in sorted(succ[head]):
            if w2 not in visited_w:
                res = dfs(visited_paths, visited_w | {w2}, w2, run_len + 1)
                if res:
                    return True
                if res is None:
                    return None
        return False

    # anchor: the cycle is read starting with path 0's run
    for w0 in sorted(leave[0]):
        res = dfs({0}, {w0}, w0, 1)
        if res:
            return True
        if res is None:
            return None
    return False


def dinic_flow(left_caps, right_caps, edges):
    """Plain Dinic max flow from a source through left vertex a (capacity
    left_caps[a]), a unit edge (a, b) and right vertex b (capacity
    right_caps[b]) to a sink: its value and the edges carrying flow."""
    nl, nr = len(left_caps), len(right_caps)
    net = Dinic(nl + nr + 2)
    src, snk = nl + nr, nl + nr + 1
    for a, cap in enumerate(left_caps):
        net.add_edge(src, a, cap)
    for b, cap in enumerate(right_caps):
        net.add_edge(nl + b, snk, cap)
    eids = [net.add_edge(a, nl + b, 1) for a, b in edges]
    value = net.max_flow(src, snk)
    return value, [edge for edge, eid in zip(edges, eids) if net.flow_on(eid)]


@st.composite
def oriented_graphs(draw, min_n=3, max_n=30):
    """Random oriented graphs: each vertex pair is an edge with a drawn
    probability, in a random direction."""
    n = draw(st.integers(min_n, max_n))
    density = draw(st.floats(0.2, 1.0))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    edges = set()
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                edges.add((u, v) if rng.random() < 0.5 else (v, u))
    return OrientedGraph(n, edges)
