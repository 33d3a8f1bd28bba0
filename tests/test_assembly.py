import hashlib
import itertools
import random
import time
from bisect import bisect_left

import pytest
from hypothesis import assume, given, settings, strategies as st

from hamdec import assembly
from hamdec.assembly import (
    FACTOR_WALKS,
    PATCH_REDRAWS,
    SPLICE_PATH_BUDGET,
    CompletionOutcome,
    HamiltonCycle,
    _bounded_path_search,
    _masks,
    _merge_factor,
    _reach,
    alternating_components,
    complete_cover_to_cycle,
    complete_family_to_cycles,
    factor_sign,
    hamilton_path_any,
    hamilton_path_between,
    patch_hamilton_cycles,
    residual_cycle_factors,
    verify_completed_cycle,
)
from hamdec.errors import (
    HamdecError,
    InvariantViolationError,
    SpliceFailedError,
)
from hamdec.factors import random_cycle_factor
from hamdec.graphs import (
    OrientedGraph,
    random_regular_oriented,
    random_tournament,
    rotational_tournament,
)
from hamdec.pathcovers import DirectedPath, PathCover, PathCoverFamily, build_path_cover_family

from conftest import (bruteforce_completable, oriented_graphs,
                      plant_completable_instance)


def ham_path_exists_bruteforce(g, s, t):
    rest = [v for v in range(g.n) if v not in (s, t)]
    for perm in itertools.permutations(rest):
        seq = (s,) + perm + (t,)
        if all(g.has_edge(seq[i], seq[i + 1]) for i in range(len(seq) - 1)):
            return True
    return False


# -- HamiltonCycle ---------------------------------------------------------

def test_cycle_canonical_rotation_and_equality():
    c1 = HamiltonCycle.from_order([2, 0, 1])
    c2 = HamiltonCycle.from_order([1, 2, 0])
    assert c1.order[0] == 0
    assert c1 == c2 and len({c1, c2}) == 1
    c3 = HamiltonCycle.from_order([0, 2, 1])
    assert c1 != c3


def test_cycle_segment_containment():
    c = HamiltonCycle.from_order([0, 1, 2, 3, 4])
    assert c.edges.issuperset(DirectedPath((3, 4, 0)).edges())
    assert c.edges.issuperset(DirectedPath((2,)).edges())
    assert not c.edges.issuperset(DirectedPath((1, 0)).edges())


# -- hamilton_path_between ---------------------------------------------------

def test_path_search_triangle():
    g = rotational_tournament(3)
    p = hamilton_path_between(g, 0, 2)
    assert p.vertices == (0, 1, 2)


def test_path_search_single_edge_not_found():
    g = OrientedGraph(2, [(0, 1)])
    assert hamilton_path_between(g, 1, 0) is None
    assert hamilton_path_between(g, 0, 1).vertices == (0, 1)


def test_path_search_same_endpoints():
    g = rotational_tournament(3)
    with pytest.raises(InvariantViolationError, match="endpoints coincide: 1"):
        hamilton_path_between(g, 1, 1)


def test_path_search_all_pairs_rotational7():
    g = rotational_tournament(7)
    for s in range(7):
        for t in range(7):
            if s == t:
                continue
            p = hamilton_path_between(g, s, t)
            assert p is not None
            assert p.vertices[0] == s and p.vertices[-1] == t
            assert sorted(p.vertices) == list(range(7))
            assert all(g.has_edge(u, v) for u, v in p.edges())


def test_path_search_matches_bruteforce():
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        g = random_tournament(n, seed=seed) if rng.random() < 0.5 else \
            OrientedGraph(n, {(u, v) for u in range(n) for v in range(n)
                               if u < v and rng.random() < 0.4})
        s, t = rng.sample(range(n), 2)
        found = hamilton_path_between(g, s, t, seed=seed)
        assert (found is not None) == ham_path_exists_bruteforce(g, s, t)


def test_bounded_path_search_cap_fails_like_no_path():
    # the splice's cap: a pass cut off at its budget returns None, as a
    # search with no path does; SPLICE_PATH_BUDGET does not bind here
    g = rotational_tournament(9)
    out_mask, in_mask = _masks(g)
    within = (1 << 9) - 1

    def search(budget):
        return _bounded_path_search(out_mask, in_mask, within, 0, 1, budget,
                                    random.Random("0:path:0"))

    assert search(2) is None
    assert search(None) == search(SPLICE_PATH_BUDGET) == [0, 2, 6, 8, 3, 4, 5, 7, 1]
    assert hamilton_path_between(g, 0, 1).vertices == (0, 2, 6, 8, 3, 4, 5, 7, 1)


def test_hamilton_path_any():
    g = rotational_tournament(7)
    p = hamilton_path_any(g)
    assert sorted(p.vertices) == list(range(7))
    assert all(g.has_edge(u, v) for u, v in p.edges())
    # an out-star has no Hamilton path between any endpoint pair
    assert hamilton_path_any(OrientedGraph(5, [(0, k) for k in range(1, 5)])) is None
    assert hamilton_path_any(OrientedGraph(1, [])).vertices == (0,)
    # seed is keyword-only: a fourth or fifth positional argument is refused
    with pytest.raises(TypeError):
        hamilton_path_between(g, 0, 1, 100)
    h = random_regular_oriented(40, 8, seed=8)
    with pytest.raises(TypeError):
        build_path_cover_family(h, 4, 14, 4, 0)


def test_path_search_long_directed_path():
    # one search level per vertex: deeper than the default recursion limit
    n = 1200
    g = OrientedGraph(n, [(i, i + 1) for i in range(n - 1)])
    assert hamilton_path_between(g, 0, n - 1) == DirectedPath(tuple(range(n)))


def frozen_path_outputs():
    rng = random.Random("frozen-path:None")
    out = []
    for q in range(400):
        n = rng.randint(2, 9)
        p = rng.choice((0.5, 0.8, 1.0))
        edges = {(u, v) if rng.random() < 0.5 else (v, u)
                 for u in range(n) for v in range(u + 1, n) if rng.random() < p}
        s, t = rng.sample(range(n), 2)
        got = hamilton_path_between(OrientedGraph(n, edges), s, t, seed=q)
        out.append(None if got is None else got.vertices)
    return out


# SHA-256 of the repr of the outputs, keyed by the budget the search had
# when they were pinned: the paths found and the verdicts must not change
FROZEN_PATH_DIGESTS = {
    None: "b61479a2f6622df31e77ec0b19d7cc7c0bd7b8052353de89f2eeab9b80850aad",
}


def transitive_closure(n, edges):
    """reach[u][v]: a directed path u -> v of length >= 0 exists (Warshall)."""
    reach = [[u == v or (u, v) in edges for v in range(n)] for u in range(n)]
    for m in range(n):
        for u in range(n):
            if reach[u][m]:
                for v in range(n):
                    reach[u][v] = reach[u][v] or reach[m][v]
    return reach


@settings(max_examples=200, deadline=None)
@given(oriented_graphs(min_n=1, max_n=12), st.data())
def test_reach_matches_the_transitive_closure(g, data):
    start = data.draw(st.integers(0, g.n - 1))
    allowed = data.draw(st.integers(0, (1 << g.n) - 1))
    # paths from start through allowed vertices are the paths of the graph
    # induced on the allowed vertices and start; backwards, of its reverse
    kept = allowed | 1 << start
    edges = {(u, v) for u, v in g.edges if kept >> u & kept >> v & 1}
    out_mask, in_mask = _masks(g)
    for masks, es in ((out_mask, edges), (in_mask, {(v, u) for u, v in edges})):
        row = transitive_closure(g.n, es)[start]
        assert _reach(masks, start, allowed) == sum(1 << v for v in range(g.n) if row[v])


@pytest.mark.parametrize("budget", sorted(FROZEN_PATH_DIGESTS, key=str))
def test_path_search_outputs_frozen(budget):
    outputs = frozen_path_outputs()
    assert hashlib.sha256(repr(outputs).encode()).hexdigest() == FROZEN_PATH_DIGESTS[budget]


# -- complete_cover_to_cycle ---------------------------------------------------

# one path 0 -> 1 entered by 4 -> 0 and left by 1 -> 2, and a reservoir
# {2, 3, 4} carrying a directed triangle
SPLICED_EDGES = {(0, 1), (2, 3), (3, 4), (4, 2), (4, 0), (1, 2)}


def test_complete_single_path_unique_splice():
    paths, g = (DirectedPath((0, 1)),), OrientedGraph(5, SPLICED_EDGES)
    cycle = complete_cover_to_cycle(paths, g)
    assert cycle == HamiltonCycle.from_order([0, 1, 2, 3, 4])
    assert verify_completed_cycle(cycle, paths, g)


def test_complete_rejects_empty_cover():
    with pytest.raises(InvariantViolationError):
        complete_cover_to_cycle((), OrientedGraph(5, SPLICED_EDGES))


@pytest.mark.parametrize("paths, words", [
    ((DirectedPath((0, 1)), DirectedPath((1, 2))), "overlap each other"),
    ((DirectedPath((0, 5)),), "leave the graph"),
])
def test_complete_rejects_paths_off_a_cover(paths, words):
    with pytest.raises(InvariantViolationError, match=words):
        complete_cover_to_cycle(paths, OrientedGraph(5, SPLICED_EDGES))


def test_path_edges_must_be_edges_of_the_graph():
    # without 0 -> 1 the path 0 -> 1 is no path of g, though its ends keep
    # their connectors 4 -> 0 and 1 -> 2 and the reservoir its triangle
    paths, g = (DirectedPath((0, 1)),), OrientedGraph(5, SPLICED_EDGES - {(0, 1)})
    with pytest.raises(InvariantViolationError, match="not an edge of the graph"):
        complete_cover_to_cycle(paths, g)
    assert not verify_completed_cycle(HamiltonCycle.from_order([0, 1, 2, 3, 4]), paths, g)


def test_complete_rejects_missing_connectors():
    # without 4 -> 0 the start of path 0 -> 1 has no reservoir in-neighbour,
    # so the contracted graph's sink has no in-edge
    paths = (DirectedPath((0, 1)),)
    g = OrientedGraph(5, SPLICED_EDGES - {(4, 0)})
    with pytest.raises(SpliceFailedError):
        complete_cover_to_cycle(paths, g)


def two_vertex_paths_instance(into, out, w_size):
    """Paths 2i -> 2i + 1 for i < a, an edgeless reservoir 2a..2a+w_size-1,
    and edges from reservoir vertex 2a + j to path i's start for j in
    into[i] and from path i's end to 2a + j for j in out[i]."""
    a = len(into)
    paths = tuple(DirectedPath((2 * i, 2 * i + 1)) for i in range(a))
    edges = [(2 * i, 2 * i + 1) for i in range(a)]
    edges += [(2 * a + j, 2 * i) for i, c in enumerate(into) for j in c]
    edges += [(2 * i + 1, 2 * a + j) for i, c in enumerate(out) for j in c]
    return paths, OrientedGraph(2 * a + w_size, edges)


def test_complete_fails_at_once_on_a_reservoir_below_2a():
    # 2 paths need 4 distinct connectors from a reservoir of 3
    every = [range(3)] * 2
    paths, g = two_vertex_paths_instance(every, every, 3)
    with pytest.raises(SpliceFailedError):
        complete_cover_to_cycle(paths, g)


def test_complete_one_vertex_through_a_reservoir_of_79():
    # the reservoir's size has no cap: the other 79 vertices of a tournament
    # are the one path's reservoir
    g = random_tournament(80, 0)
    paths = (DirectedPath((0,)),)
    cycle = complete_cover_to_cycle(paths, g)
    assert verify_completed_cycle(cycle, paths, g)


def thinned_planted_instances(count):
    """Planted instances with a = 2 and a reservoir of 10 whose every
    connector set is thinned to 2a - 1 = 3 random reservoir vertices, kept
    when the exhaustive oracle still finds a completion."""
    rng = random.Random("thinned-connectors")
    found = []
    while len(found) < count:
        host, paths = plant_completable_instance(rng.randrange(1 << 30), 10, 2)
        w = [v for v in range(host.n) if all(v not in p.vertices for p in paths)]
        keep_in = {p.start: set(rng.sample(w, 3)) for p in paths}
        keep_out = {p.end: set(rng.sample(w, 3)) for p in paths}
        host = OrientedGraph(host.n, {(u, v) for u, v in host.edges
                                      if not (u in w and v in keep_in and u not in keep_in[v])
                                      and not (u in keep_out and v in w and v not in keep_out[u])})
        if bruteforce_completable(paths, host) is True:
            found.append((host, paths))
    return found


def test_complete_thinned_connector_sets():
    # each endpoint has fewer than 2a reservoir neighbours, yet a completion
    # exists, and the one search finds it whatever the reservoir runs' sizes
    for host, paths in thinned_planted_instances(12):
        cycle = complete_cover_to_cycle(paths, host, seed=1)
        assert verify_completed_cycle(cycle, paths, host)


def test_complete_fails_at_once_without_distinct_connectors():
    # 16 paths share 30 reservoir vertices for their 32 connectors, and 14
    # more take two vertices each of the other 30: 60 slots and 60 vertices
    # but no distinct choice, a pigeonhole.  Each of the other 30 is entered
    # and left by one path alone, so it cannot lie on a cycle through the
    # rest, which the search's first reachability check sees
    low = range(30)
    pairs = [(30 + 2 * i, 31 + 2 * i) for i in range(14)]
    paths, g = two_vertex_paths_instance([low] * 16 + pairs, [low] * 16 + pairs, 60)
    t0 = time.perf_counter()
    with pytest.raises(SpliceFailedError):
        complete_cover_to_cycle(paths, g)
    assert time.perf_counter() - t0 < 1


def test_complete_fails_on_an_edgeless_reservoir():
    # one path and four reservoir vertices with no edge among them: every
    # reservoir run is one vertex long, so at most one of the four is used
    every = [range(4)]
    paths, g = two_vertex_paths_instance(every, every, 4)
    with pytest.raises(SpliceFailedError):
        complete_cover_to_cycle(paths, g)


def reference_completed_cycle(cycle, paths, g):
    """verify_completed_cycle as a position walk: the order visits exactly
    g's vertices, once each, every path appears as a contiguous arc, and
    every cycle edge is an edge of g that is a path edge, leaves a
    reservoir vertex (one on no path) for a reservoir vertex or a path
    start, or enters a reservoir vertex from a path end."""
    order = cycle.order
    n = len(order)
    if n != g.n or set(order) != set(range(g.n)):
        return False
    pos = {v: i for i, v in enumerate(order)}
    for p in paths:
        i = pos[p.start]
        if any(order[(i + step) % n] != v for step, v in enumerate(p.vertices)):
            return False
    w = set(range(g.n)) - {v for p in paths for v in p.vertices}
    starts, ends = {p.start for p in paths}, {p.end for p in paths}
    allowed = {e for p in paths for e in p.edges()} & g.edges
    allowed |= {(u, v) for u, v in g.edges
                if (u in w and (v in w or v in starts)) or (u in ends and v in w)}
    return set(zip(order, order[1:] + order[:1])) <= allowed


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.integers(0, 8), st.data())
def test_verify_completed_cycle_matches_a_position_walk(seed, a, extra, data):
    g, paths = plant_completable_instance(seed, 2 * a + 4 + extra, a)
    try:
        cycle = complete_cover_to_cycle(paths, g, seed=seed)
    except HamdecError:
        assume(False)
    order = list(cycle.order)
    n = len(order)
    positions = st.integers(0, n - 1)
    i, j = data.draw(positions), data.draw(positions)
    swapped = order[:]
    swapped[i], swapped[j] = swapped[j], swapped[i]
    p = data.draw(st.sampled_from(paths))
    start = order.index(p.start)
    arc = [(start + step) % n for step in range(len(p.vertices))]
    reversed_path = order[:]
    for k, v in zip(arc, reversed(p.vertices)):
        reversed_path[k] = v
    variants = [order, swapped, order[:i] + order[i + 1:],
                order[:i] + [order[j]] + order[i:], reversed_path]
    verdicts = set()
    for seq in variants:
        cyc = HamiltonCycle(tuple(seq))
        verdict = verify_completed_cycle(cyc, paths, g)
        assert verdict == reference_completed_cycle(cyc, paths, g)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_complete_randomized_planted_instances():
    attempts = successes = 0
    for seed in range(30):
        rng = random.Random(1000 + seed)
        a = rng.randint(1, 3)
        w_size = rng.randint(max(8, 4 * a), 20)
        host, paths = plant_completable_instance(seed, w_size, a)
        w = set(range(host.n)) - {v for p in paths for v in p.vertices}
        if any(len(w.intersection(row)) < 2 * a for p in paths
               for row in (host.in_neighbors[p.start], host.out_neighbors[p.end])):
            continue
        attempts += 1
        try:
            cycle = complete_cover_to_cycle(paths, host, seed=seed)
        except Exception:
            continue
        assert verify_completed_cycle(cycle, paths, host)
        successes += 1
    assert attempts >= 20
    assert successes >= attempts * 0.9


def test_bruteforce_oracle_confirms_planted_instances():
    for seed in range(10):
        host, paths = plant_completable_instance(seed, 10, 2)
        assert bruteforce_completable(paths, host) is True


def small_splice_instances(count):
    """Planted instances with a <= 3 and a reservoir of at most 12 whose
    every edge between the reservoir and the paths is kept with a drawn
    probability, so that some lose every completion."""
    rng = random.Random("splice-exactness")
    for _ in range(count):
        a = rng.randint(1, 3)
        host, paths = plant_completable_instance(rng.randrange(1 << 30), rng.randint(2 * a, 12), a)
        w = set(range(host.n)) - {v for p in paths for v in p.vertices}
        keep = rng.choice((1.0, 0.6, 0.3))
        host = OrientedGraph(host.n, {(u, v) for u, v in host.edges
                                      if not ((u in w) != (v in w) and rng.random() > keep)})
        yield host, paths


def test_complete_exactly_when_the_oracle_finds_a_completion():
    # a completion may pass a single reservoir vertex between two paths:
    # 0 1 4 2 3 5 uses 4 as path 0's exit and path 1's entry
    single_runs = (OrientedGraph(6, {(0, 1), (2, 3), (1, 4), (4, 2), (3, 5), (5, 0)}),
                   (DirectedPath((0, 1)), DirectedPath((2, 3))))
    assert complete_cover_to_cycle(single_runs[1], single_runs[0]).order == (0, 1, 4, 2, 3, 5)
    verdicts = []
    for host, paths in [single_runs, *small_splice_instances(100)]:
        truth = bruteforce_completable(paths, host, min_run=1)
        assert truth is not None
        try:
            cycle = complete_cover_to_cycle(paths, host)
        except SpliceFailedError:
            verdicts.append(False)
        else:
            assert verify_completed_cycle(cycle, paths, host)
            verdicts.append(True)
        assert verdicts[-1] == truth
    assert True in verdicts and False in verdicts


def frozen_splice_outputs():
    # the stream's name dates from when a margin switch picked one of two
    rng = random.Random("frozen-splice:False")
    out = []
    for _ in range(100):
        a = rng.randint(1, 4)
        w_size = rng.randint(max(8, 5 * a), 24)
        seed = rng.randrange(1 << 30)
        host, paths = plant_completable_instance(seed, w_size, a)
        x = rng.random()
        if x < 0.4:  # thin each connector set, or crowd all into 2a - 1 vertices
            w = [v for v in range(host.n) if all(v not in p.vertices for p in paths)]
            keep = (set(rng.sample(w, 2 * a - 1)) if x < 0.15
                    else {v for v in w if rng.random() < 0.6})
            starts, ends = {p.start for p in paths}, {p.end for p in paths}
            host = OrientedGraph(host.n, {(u, v) for u, v in host.edges
                                          if not (u in w and u not in keep and v in starts)
                                          and not (u in ends and v in w and v not in keep)})
        try:
            out.append(complete_cover_to_cycle(paths, host, seed=seed).order)
        except HamdecError as exc:
            out.append((type(exc).__name__, str(exc), vars(exc)))
    return out


# SHA-256 of the repr of the cycles and errors; 95 of the 100 complete
FROZEN_SPLICE_DIGEST = "5dccc03363f5520026d6b0f1039ae27263208fccea4db368e3b414f722ba5ac7"


def test_splice_outputs_frozen():
    outputs = frozen_splice_outputs()
    assert hashlib.sha256(repr(outputs).encode()).hexdigest() == FROZEN_SPLICE_DIGEST


# -- complete_family_to_cycles ---------------------------------------------------

def family_instance():
    """20-vertex host: U = 0..7 with two edge-disjoint covers, W = 8..19."""
    host = random_tournament(20, seed=42)
    u = list(range(8))
    w = list(range(8, 20))
    return host, u, w


def greedy_cover_of(host, u_set, banned, rng):
    """A cover of u_set avoiding banned edges: greedy path growth."""
    unused = [v for v in u_set]
    rng.shuffle(unused)
    paths = []
    while unused:
        v = unused.pop()
        seq = [v]
        while True:
            nxts = [w for w in host.out_neighbors[seq[-1]]
                    if w in unused and (seq[-1], w) not in banned]
            if not nxts:
                break
            w = rng.choice(nxts)
            unused.remove(w)
            seq.append(w)
        paths.append(DirectedPath(tuple(seq)))
    return PathCover(tuple(paths))


def test_complete_family_two_covers():
    host, u, w = family_instance()
    rng = random.Random(7)
    cover1 = greedy_cover_of(host, u, set(), rng)
    cover2 = greedy_cover_of(host, u, cover1.edges(), rng)
    a = max(cover1.size, cover2.size)
    family = PathCoverFamily((cover1, cover2), a=a, t=2)
    outcome = complete_family_to_cycles(host, u, w, family, seed=3)
    assert isinstance(outcome, CompletionOutcome)
    assert outcome.complete and len(outcome.cycles) == 2
    # every completed cycle is Hamilton on the host and edge-disjoint
    seen = set()
    for i, cyc in enumerate(outcome.cycles):
        assert cyc.spans(set(range(20)))
        assert cyc.edges <= host.edges
        assert not (seen & cyc.edges)
        seen |= cyc.edges
        for p in family.covers[i].paths:
            assert cyc.edges.issuperset(p.edges())


def test_complete_family_rejects_overlapping_covers():
    host, u, w = family_instance()
    rng = random.Random(9)
    cover = greedy_cover_of(host, u, set(), rng)
    family = PathCoverFamily((cover, cover), a=cover.size, t=2)
    with pytest.raises(InvariantViolationError):
        complete_family_to_cycles(host, u, w, family, seed=0)


def test_complete_family_t1_matches_single_completion():
    host, u, w = family_instance()
    rng = random.Random(11)
    cover = greedy_cover_of(host, u, set(), rng)
    family = PathCoverFamily((cover,), a=cover.size, t=1)
    outcome = complete_family_to_cycles(host, u, w, family, seed=5)
    assert outcome.complete and len(outcome.cycles) == 1
    assert outcome.cycles[0].spans(set(range(20)))
    assert verify_completed_cycle(outcome.cycles[0], cover.paths, host)


def frozen_family_outputs():
    """complete_family_to_cycles on random tournaments of order 40,
    U = 0..15, with two greedy covers: the cycles and failure, or the error,
    of each run."""
    out = []
    for s in range(40):
        host = random_tournament(40, s)
        u, w = list(range(16)), list(range(16, 40))
        rng = random.Random(s)
        cover1 = greedy_cover_of(host, u, set(), rng)
        cover2 = greedy_cover_of(host, u, cover1.edges(), rng)
        family = PathCoverFamily((cover1, cover2), a=max(cover1.size, cover2.size), t=2)
        try:
            outcome = complete_family_to_cycles(host, u, w, family, seed=s)
            out.append(([c.order for c in outcome.cycles], outcome.failure))
        except HamdecError as exc:
            out.append((type(exc).__name__, str(exc)))
    return out


# SHA-256 of the repr of frozen_family_outputs(); every run completes both
# covers
FROZEN_FAMILY_DIGEST = "6215ea502ef36b5ff62ea99fe6cf5069b05a95afefce69c2de90b1cb7f51e295"


def test_family_outputs_frozen():
    outputs = frozen_family_outputs()
    assert hashlib.sha256(repr(outputs).encode()).hexdigest() == FROZEN_FAMILY_DIGEST
    # the success path runs
    assert sum(len(o[0]) for o in outputs if isinstance(o[0], list)) > 0


# -- cycle-factor patching -----------------------------------------------


def test_patching_cycles_are_disjoint_hamiltonian_and_residual():
    g = rotational_tournament(31)
    used = set(HamiltonCycle.from_order([i * 3 % 31 for i in range(31)]).edges)
    out = patch_hamilton_cycles(OrientedGraph(31, g.edges - used), seed=4)
    assert len(out.cycles) >= 1
    seen = set(used)
    for cyc in out.cycles:
        assert cyc.spans(set(range(31)))
        assert cyc.edges <= g.edges
        assert not cyc.edges & seen
        seen |= cyc.edges
    assert out.stop_reason == "no cycle factor of the residual is a Hamilton cycle"


def test_patching_merges_a_two_cycle_factor():
    # the only cycle factors are the triangles {0 1 2}, {3 4 5} and the
    # 6-cycle, which the switch 0 -> 4, 3 -> 1 makes from the triangles
    g = OrientedGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                           (0, 4), (3, 1)])
    for seed in range(5):
        out = patch_hamilton_cycles(g, seed=seed)
        assert [c.order for c in out.cycles] == [(0, 4, 5, 3, 1, 2)]
        assert out.stop_reason == "no cycle factor in residual"


def test_patching_stops_after_consecutive_failed_factors():
    # two triangles joined by the edge 0 -> 3 alone: the one 2-switch
    # would need the missing edge 5 -> 1
    g = OrientedGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)])
    out = patch_hamilton_cycles(g, seed=0)
    assert out.cycles == []
    assert out.failures == PATCH_REDRAWS
    assert out.stop_reason == f"{PATCH_REDRAWS} consecutive factors without a merging switch"


def test_patching_is_deterministic_per_seed():
    g = rotational_tournament(21)
    out = patch_hamilton_cycles(g, seed=1)
    assert len(out.cycles) >= 3
    again = patch_hamilton_cycles(g, seed=1)
    assert again == out


def test_patching_without_cycle_factor():
    g = OrientedGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    out = patch_hamilton_cycles(g)
    assert out.cycles == [] and out.failures == 0
    assert out.stop_reason == "no cycle factor in residual"


def test_patching_stops_without_drawing_when_no_factor_is_hamiltonian():
    # two disjoint rotational tournaments of order 5: 2-regular, with no
    # Hamilton cycle at all; each is one component with l = 5, so every
    # factor is two 5-cycles, of sign 0 against a Hamilton cycle's 1, and
    # the check decides without a walk
    g = OrientedGraph(10, [(5 * b + i, 5 * b + (i + j) % 5)
                            for b in range(2) for i in range(5) for j in (1, 2)])
    out = patch_hamilton_cycles(g)
    assert out.cycles == [] and out.failures == out.switches == out.walks == 0
    assert out.stop_reason == "no cycle factor of the residual is a Hamilton cycle"
    assert out.residual == [list(row) for row in g.out_neighbors]


def reference_patch(g, seed):
    # patch_hamilton_cycles without the degree <= 2 walk: every cycle comes
    # from a random draw, and it stops only when the residual has no cycle
    # factor or after PATCH_REDRAWS failed draws in a row
    n = g.n
    rng = random.Random(f"{seed}:patch")
    out = [list(row) for row in g.out_neighbors]
    cycles = []
    failures = switches = consecutive = 0
    while consecutive < PATCH_REDRAWS:
        succ = random_cycle_factor(out, rng)
        if n < 3 or -1 in succ:
            break
        merged, made = _merge_factor(succ, out)
        switches += made
        if not merged:
            failures += 1
            consecutive += 1
            continue
        consecutive = 0
        order = [0]
        while len(order) < n:
            order.append(succ[order[-1]])
        for row, v in zip(out, succ):
            del row[bisect_left(row, v)]
        cycles.append(HamiltonCycle.from_order(order))
    return cycles, failures, switches, out


@pytest.mark.parametrize("kind, n", [("rotational", 11), ("rotational", 25),
                                     ("rotational", 51), ("rotational", 101),
                                     ("regular", 41)])
def test_patching_matches_the_reference_with_no_more_failed_draws(kind, n):
    # the two draw the same cycles until the walk first finds a Hamilton
    # cycle, which patching takes and the reference redraws for; k agrees
    g = rotational_tournament(n) if kind == "rotational" else random_regular_oriented(n, 6, 0)
    for seed in range(5):
        out = patch_hamilton_cycles(g, seed=seed)
        cycles, failures, switches, residual = reference_patch(g, seed)
        rows = [list(row) for row in g.out_neighbors]
        for i, cycle in enumerate(out.cycles):
            found = residual_cycle_factors(rows)[0]
            if found:
                assert cycle.edges == set(enumerate(found))
                break
            assert cycle == cycles[i]
            for u, v in cycle.edges:
                rows[u].remove(v)
        else:
            assert out.residual == residual
        assert len(out.cycles) == len(cycles)
        assert out.failures <= failures and out.switches <= switches


@pytest.mark.parametrize("g, seed, decides", [
    pytest.param(rotational_tournament(11), 1, True, id="rotational-11"),
    pytest.param(rotational_tournament(25), 1, True, id="rotational-25"),
    pytest.param(rotational_tournament(151), 0, True, id="rotational-151"),
    pytest.param(random_regular_oriented(81, 4, 1), 2, True, id="regular-81-4-1"),
    pytest.param(random_regular_oriented(41, 6, 0), 0, True, id="regular-41-6-0"),
    # nine disjoint rotational tournaments of order 5: 2^9 factors of a
    # Hamilton cycle's sign, more than the walk takes, so it draws
    pytest.param(OrientedGraph(45, [(5 * b + i, 5 * b + (i + j) % 5) for b in range(9)
                                    for i in range(5) for j in (1, 2)]), 0, False,
                 id="nine-rotational-5")])
def test_no_factor_is_drawn_after_the_walk_decides(monkeypatch, g, seed, decides):
    # each draw follows a walk that left the question open: at a degree
    # other than 1 or 2 (the last draw, on the empty residual, finds no
    # factor), or over FACTOR_WALKS factors; a walk that finds a Hamilton
    # cycle or rules one out is followed by the next walk or by the stop
    events = []

    def walk(out):
        got = residual_cycle_factors(out)
        events.append(("walk", (got, alternating_components(out))))
        return got

    def draw(out, rng):
        events.append(("draw", max(map(len, out))))
        return random_cycle_factor(out, rng)

    monkeypatch.setattr(assembly, "residual_cycle_factors", walk)
    monkeypatch.setattr(assembly, "random_cycle_factor", draw)
    out = patch_hamilton_cycles(g, seed=seed)
    last_walk = None
    for kind, what in events:
        if kind == "walk":
            last_walk = what
        elif what in (1, 2):
            assert last_walk[0] == (None, 0) and 1 << len(last_walk[1][2]) > FACTOR_WALKS
        else:
            assert last_walk == ((None, 0), None)
    walked = [what[0][0] for kind, what in events if kind == "walk"]
    assert any(found is not None for found in walked) == decides
    assert (len(out.cycles) > 0) == decides
    assert (out.stop_reason == f"{PATCH_REDRAWS} consecutive factors without a merging switch"
            ) != decides


@st.composite
def derangements(draw, n):
    """A permutation of range(n) without fixed points: a random order cut
    into cycles of two or more vertices."""
    order = draw(st.permutations(range(n)))
    sigma = [0] * n
    start = 0
    for i in range(n):
        if i == n - 1 or (i > start and n - i > 2 and draw(st.booleans())):
            block = order[start:i + 1]
            for a, b in zip(block, block[1:] + block[:1]):
                sigma[a] = b
            start = i + 1
    return sigma


@st.composite
def degree_one_or_two_rows(draw):
    """Sorted out-rows of a digraph on n <= 8 vertices whose every in- and
    out-degree is d in {1, 2}: a union of d edge-disjoint derangements."""
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(2 if d == 1 else 3, 8))
    sigmas = [draw(derangements(n)) for _ in range(d)]
    assume(all(len(set(heads)) == d for heads in zip(*sigmas)))
    return [sorted(heads) for heads in zip(*sigmas)]


def cycle_factors_bruteforce(out):
    """(number of permutations sigma with every v -> sigma(v) an edge,
    whether one of them is a single cycle through all vertices)."""
    n = len(out)
    count, hamiltonian = 0, False
    for sigma in itertools.product(*out):
        if len(set(sigma)) == n:
            count += 1
            x, length = sigma[0], 1
            while x != 0:
                x, length = sigma[x], length + 1
            hamiltonian |= length == n
    return count, hamiltonian


@settings(max_examples=200, deadline=None)
@given(degree_one_or_two_rows())
def test_residual_cycle_factors_match_the_bruteforce_oracle(out):
    found, walked = residual_cycle_factors(out)
    count, hamiltonian = cycle_factors_bruteforce(out)
    assert found is not None and bool(found) == hamiltonian
    assert 0 <= walked <= count
    if found:
        # one cycle through all n vertices along edges of the rows
        assert all(w in row for row, w in zip(out, found))
        x, seen = 0, set()
        while x not in seen:
            seen.add(x)
            x = found[x]
        assert x == 0 and len(seen) == len(out)


# expected is None where the rows have no alternating components, and the
# walk's verdict is then open and unwalked, (None, 0)
@pytest.mark.parametrize("out, expected", [
    ([[1, 2], [2], [0]], None),     # out-degrees differ
    ([[1], [0], [0]], None),        # in-degrees differ
    ([[], [], []], None),           # degree 0
    ([list(row) for row in rotational_tournament(7).out_neighbors], None),  # degree 3
    # eight disjoint complete digraphs on three vertices: 2^8 factors, more
    # than the check walks, but each component has l = 3 and every factor
    # is eight 3-cycles, of sign (24 - 8) mod 2 = 0, not a Hamilton cycle's 1
    ([sorted({3 * (v // 3) + (v + 1) % 3, 3 * (v // 3) + (v + 2) % 3}) for v in range(24)],
     (False, 0)),
    # seven of them and a complete digraph on a 4-cycle, whose two
    # components have l = 2: half of the 2^9 factors have the right sign,
    # more than the check walks
    ([sorted({3 * (v // 3) + (v + 1) % 3, 3 * (v // 3) + (v + 2) % 3}) for v in range(21)]
     + [sorted({21 + (v + 1) % 4, 21 + (v + 3) % 4}) for v in range(4)],
     (None, 0)),
    # nine disjoint rotational tournaments of order 5: one component of
    # l = 5 each, so all 2^9 factors have a Hamilton cycle's sign
    ([sorted({5 * (v // 5) + (v + 1) % 5, 5 * (v // 5) + (v + 2) % 5}) for v in range(45)],
     (None, 0)),
])
def test_residual_cycle_factors_outside_the_walked_cases(out, expected):
    parts = alternating_components(out)
    assert (parts is None) == (expected is None)
    assert residual_cycle_factors(out) == (expected or (None, 0))
    if expected == (None, 0):
        assert (1 << len(parts[2])) // 2 > FACTOR_WALKS


@settings(max_examples=200, deadline=None)
@given(degree_one_or_two_rows())
def test_a_component_flip_multiplies_the_factor_sign_by_its_parity(out):
    # each mask's factor is the mask-0 factor after one Kempe swap per
    # flipped component, and the swap of a component with l out-copies
    # multiplies the sign by (-1)^(l - 1); at d = 2 a mask's factor and its
    # complement's split the edges, and the product of their signs is the
    # same for every split
    comp, take, ells = alternating_components(out)
    c, n = len(ells), len(out)

    def factor(mask):
        return [row[t ^ (mask >> comp[u] & 1)] for u, (row, t) in enumerate(zip(out, take))]

    sign0 = factor_sign(factor(0))
    products = set()
    for mask in range(1 << c):
        succ, rest = factor(mask), factor(mask ^ ((1 << c) - 1))
        assert sorted(succ) == list(range(n))
        flipped = sum(ells[i] - 1 for i in range(c) if mask >> i & 1)
        assert factor_sign(succ) == (sign0 + flipped) % 2
        if len(out[0]) == 2:
            assert all(sorted(pair) == row for pair, row in zip(zip(succ, rest), out))
            products.add(factor_sign(succ) ^ factor_sign(rest))
    assert len(products) <= 1


@given(st.integers(1, 9).flatmap(lambda n: st.permutations(range(n))))
def test_factor_sign_matches_cycle_count_and_inversions(perm):
    n = len(perm)
    cycles = set()
    for v in range(n):
        orbit, x = {v}, perm[v]
        while x != v:
            orbit.add(x)
            x = perm[x]
        cycles.add(frozenset(orbit))
    inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
    assert factor_sign(perm) == (n - len(cycles)) % 2 == inversions % 2
