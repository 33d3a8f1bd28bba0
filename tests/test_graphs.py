import hashlib
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamdec import graphs
from hamdec.errors import (
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
from hamdec.graphs import (
    MAX_N,
    OrientedGraph,
    _switch_chain,
    bipartite_between,
    degree_summary,
    random_regular_oriented,
    random_tournament,
    read_edge_list,
    rotational_tournament,
    write_edge_list,
)

from conftest import oriented_graphs, reference_edge_fault

TRIANGLE = [(0, 1), (1, 2), (2, 0)]


def check_adjacency_consistency(g):
    for u in range(g.n):
        for v in g.out_neighbors[u]:
            assert (u, v) in g.edges
            assert u in g.in_neighbors[v]
    assert sum(len(s) for s in g.out_neighbors) == len(g.edges)
    assert sum(len(s) for s in g.in_neighbors) == len(g.edges)
    for v in range(g.n):
        assert len(g.out_neighbors[v]) + len(g.in_neighbors[v]) <= g.n - 1


def test_build_triangle():
    g = OrientedGraph(3, TRIANGLE)
    s = degree_summary(g)
    assert s.min_semi == s.max_semi == 1
    check_adjacency_consistency(g)


def test_build_rejects_antiparallel():
    with pytest.raises(AntiparallelPairError):
        OrientedGraph(2, [(0, 1), (1, 0)])


def test_build_rejects_loop():
    with pytest.raises(LoopEdgeError):
        OrientedGraph(3, [(1, 1)])


def test_build_rejects_duplicate_and_range():
    with pytest.raises(DuplicateEdgeError):
        OrientedGraph(3, [(0, 1), (0, 1)])
    with pytest.raises(VertexOutOfRangeError):
        OrientedGraph(3, [(0, 3)])


@pytest.mark.parametrize("edge", [(-1, 0), (0, -1), (3, 0)])
def test_out_of_range_vertex_is_rejected_not_wrapped(edge):
    # a negative index would otherwise land in row n - 1
    with pytest.raises(VertexOutOfRangeError):
        OrientedGraph(3, [edge])
    with pytest.raises(VertexOutOfRangeError):
        OrientedGraph(3, [(1, 2), edge])
    with pytest.raises(VertexOutOfRangeError):
        read_edge_list(f"og 3 1\n{edge[0]} {edge[1]}\n")


@pytest.mark.parametrize("edges, error", [
    ([(2, 2), (0, -1)], VertexOutOfRangeError),   # range before all else
    ([(2, 2), (1, 3)], VertexOutOfRangeError),
    ([(2, 2), (0, 1), (0, 1)], DuplicateEdgeError),  # lowest vertex first
    ([(1, 2), (2, 1), (1, 1)], LoopEdgeError),     # loop first at a vertex
    ([(1, 2), (2, 1), (1, 2)], DuplicateEdgeError),
    ([(0, 2), (2, 0), (1, 1)], AntiparallelPairError),
], ids=["negative", "too-large", "lowest-vertex", "loop-first", "duplicate-next",
        "antiparallel-at-0"])
def test_fault_report_order(edges, error):
    with pytest.raises(error):
        OrientedGraph(3, edges)


def fault_kinds(n, edges):
    """The error classes of every fault kind present in an edge list."""
    inside = [(u, v) for u, v in edges if 0 <= u < n and 0 <= v < n]
    kinds = set()
    if len(inside) < len(edges):
        kinds.add(VertexOutOfRangeError)
    if any(u == v for u, v in inside):
        kinds.add(LoopEdgeError)
    if any(c > 1 for c in Counter(inside).values()):
        kinds.add(DuplicateEdgeError)
    present = set(inside)
    if any(u != v and (v, u) in present for u, v in inside):
        kinds.add(AntiparallelPairError)
    return kinds


@st.composite
def faulty_edge_lists(draw):
    """An oriented graph's edges on up to 8 vertices, in drawn order, with up to
    three loops, duplicates, reversed edges or out-of-range vertices
    inserted at drawn positions."""
    n = draw(st.integers(1, 8))
    edges = []
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3 * n)):
        if u != v and (u, v) not in edges and (v, u) not in edges:
            edges.append((u, v))
    faults = ("loop", "duplicate", "antiparallel", "range")
    for kind in draw(st.lists(st.sampled_from(faults), max_size=3)):
        if kind == "loop":
            u = draw(st.integers(0, n - 1))
            edge = (u, u)
        elif kind == "range":
            bad = draw(st.integers(-n - 1, -1) | st.integers(n, 2 * n + 1))
            edge = (bad, draw(st.integers(0, n - 1)))
            edge = draw(st.sampled_from((edge, edge[::-1])))
        elif edges:
            edge = draw(st.sampled_from(edges))
            edge = edge if kind == "duplicate" else edge[::-1]
        else:
            continue
        edges.insert(draw(st.integers(0, len(edges))), edge)
    return n, edges


@settings(max_examples=500, deadline=None)
@given(faulty_edge_lists())
def test_construction_rejects_what_the_reference_rejects(case):
    n, edges = case
    expected = reference_edge_fault(n, edges)
    kinds = fault_kinds(n, edges)
    assert (expected is None) == (not kinds)
    if expected is None:
        g = OrientedGraph(n, edges)
        assert g.out_neighbors == tuple(tuple(sorted(v for a, v in edges if a == u))
                                        for u in range(n))
        assert g.in_neighbors == tuple(tuple(sorted(a for a, v in edges if v == u))
                                       for u in range(n))
        return
    with pytest.raises((VertexOutOfRangeError, LoopEdgeError, DuplicateEdgeError,
                        AntiparallelPairError)) as caught:
        OrientedGraph(n, edges)
    if len(kinds) == 1:
        assert caught.type is expected
    if VertexOutOfRangeError in kinds:
        assert caught.type is VertexOutOfRangeError


def test_rotational_small():
    g3 = rotational_tournament(3)
    assert g3.edges == frozenset(TRIANGLE)
    g5 = rotational_tournament(5)
    s = degree_summary(g5)
    assert s.min_semi == s.max_semi == 2
    with pytest.raises(EvenOrderError):
        rotational_tournament(4)


def test_rotational_is_tournament():
    for n in (3, 5, 7, 9, 11):
        g = rotational_tournament(n)
        assert len(g.edges) == n * (n - 1) // 2
        for u in range(n):
            for v in range(u + 1, n):
                assert g.has_edge(u, v) != g.has_edge(v, u)


def test_random_tournament_covers_all_pairs():
    g = random_tournament(5, seed=7)
    assert len(g.edges) == 10
    check_adjacency_consistency(g)


def test_random_regular_one_regular_is_cycle_cover():
    g = random_regular_oriented(4, 1, seed=3)
    s = degree_summary(g)
    assert s.min_semi == s.max_semi == 1
    check_adjacency_consistency(g)


def test_random_regular_two_regular():
    g = random_regular_oriented(5, 2, seed=11)
    s = degree_summary(g)
    assert s.min_semi == s.max_semi == 2
    check_adjacency_consistency(g)


def test_random_regular_reproducible_and_capped():
    a = random_regular_oriented(9, 3, seed=5)
    b = random_regular_oriented(9, 3, seed=5)
    assert a.edges == b.edges
    c = random_regular_oriented(9, 3, seed=6)
    assert a.edges != c.edges  # overwhelmingly likely; fixed seeds keep it stable
    with pytest.raises(ROutOfRangeError, match=r"r=5 exceeds \(n-1\)/2 for n=9"):
        random_regular_oriented(9, 5, seed=5)


@pytest.mark.parametrize("n, r, seed, sha256", [
    (151, 30, 0, "b7ee349a6fb96abbae12c5df71a5ae414bef367a19be7b7ab1eecb1d6f052477"),
    (51, 10, 3, "0a88e61678b6c86e6514a4ca0245a0867f3b485c5ab3d35311819a7e7652f308"),
])
def test_random_regular_frozen_edge_lists(n, r, seed, sha256):
    text = write_edge_list(random_regular_oriented(n, r, seed))
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


def test_switch_chain_frozen_edges_and_end_state():
    # 129 edges, just above 128: about half of the 8-bit index draws are
    # redrawn; the generator's next draw pins the state the chain leaves
    g = random_regular_oriented(43, 3, 4)
    assert hashlib.sha256(write_edge_list(g).encode()).hexdigest() == (
        "c0a67003d521cec3373306cad79b135a4468bc9c159f5790637ef02797d96ce0")
    rng = random.Random("chain-state")
    out = _switch_chain(sorted(g.edges), rng)
    assert hashlib.sha256(repr((out, rng.getrandbits(64))).encode()).hexdigest() == (
        "496531f99bb291396296d192f072e0414ffcfb6ddec2ebd0a1d24f70803248cd")


@pytest.mark.parametrize("make, sha256", [
    (lambda: rotational_tournament(51),
     "17b8bc36b7c01594117e15fcfda0f6ae0fe266afd2271601fc015302fb5842c8"),
    (lambda: random_tournament(201, seed=0),
     "32d4fa2b765195679489028d28c96a8993d905256e45f29391267f79d90196d7"),
], ids=["rotational-51", "tournament-201-0"])
def test_frozen_edge_list_digests(make, sha256):
    # certificates carry the SHA-256 of this text, so its bytes must not move
    assert hashlib.sha256(write_edge_list(make()).encode()).hexdigest() == sha256


@st.composite
def regular_params(draw):
    n = draw(st.integers(1, 40))
    r = draw(st.integers(0, (n - 1) // 2))
    return n, r, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=100, deadline=None)
@given(regular_params())
@example((401, 3, 0))
def test_random_regular_oriented_properties(params):
    n, r, seed = params
    g = random_regular_oriented(n, r, seed)
    assert OrientedGraph(n, g.edges) == g
    s = degree_summary(g)
    assert s.min_semi == s.max_semi == r
    assert random_regular_oriented(n, r, seed).edges == g.edges
    if r == (n - 1) // 2 and n % 2 == 1:
        assert len(g.edges) == n * (n - 1) // 2  # a tournament: every pair joined
        assert all(g.has_edge(u, v) or g.has_edge(v, u)
                   for u in range(n) for v in range(u + 1, n))


def test_degree_summary_edgeless():
    g = OrientedGraph(4, [])
    s = degree_summary(g)
    assert (s.min_semi, s.max_semi) == (0, 0)


@settings(max_examples=200, deadline=None)
@given(oriented_graphs(min_n=1))
def test_degree_summary_matches_counted_degrees(g):
    outs, ins = Counter(u for u, _ in g.edges), Counter(v for _, v in g.edges)
    degrees = [outs[v] for v in range(g.n)] + [ins[v] for v in range(g.n)]
    s = degree_summary(g)
    assert (s.min_semi, s.max_semi) == (min(degrees), max(degrees))


def test_bipartite_between_rotational5():
    g = rotational_tournament(5)
    xs, ys = [0, 1], [2, 3]
    b = bipartite_between(g, xs, ys)
    lifted = {(xs[a], ys[c]) for a, c in b.edges}
    assert lifted == {(0, 2), (1, 2), (1, 3)}


def test_bipartite_between_empty_and_errors():
    g = OrientedGraph(4, [(0, 1)])
    b = bipartite_between(g, [2], [3])
    assert not b.edges
    with pytest.raises(InvariantViolationError, match="X and Y intersect"):
        bipartite_between(g, [0, 1], [1, 2])
    # unequal sides build; only the common side size needs them equal
    unequal = bipartite_between(g, [0], [1, 3])
    assert unequal.edges == {(0, 0)}
    with pytest.raises(UnequalSidesError):
        unequal.m


def test_bipartite_between_recovers_directed_edges():
    g = random_tournament(8, seed=2)
    xs, ys = [0, 2, 4], [1, 3, 5]
    b = bipartite_between(g, xs, ys)
    expected = {(u, v) for u in xs for v in ys if g.has_edge(u, v)}
    assert {(xs[a], ys[c]) for a, c in b.edges} == expected


def test_edge_list_roundtrip():
    g = rotational_tournament(5)
    text = write_edge_list(g)
    h = read_edge_list(text)
    assert h.n == g.n and h.edges == g.edges


@st.composite
def sparse_oriented_graphs(draw):
    """Oriented graphs on up to 40 vertices (names of one or two digits)
    with at most 2n edges drawn, so that rows of length 0, 1 and 2 and
    isolated vertices are common."""
    n = draw(st.integers(1, 40))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n))
    edges = set()
    for u, v in pairs:
        if u != v and (v, u) not in edges:
            edges.add((u, v))
    return OrientedGraph(n, edges)


def naive_edge_list(g):
    return f"og {g.n} {len(g.edges)}\n" + "".join(f"{u} {v}\n" for u, v in sorted(g.edges))


@settings(max_examples=300, deadline=None)
@given(sparse_oriented_graphs())
@example(OrientedGraph(1, []))
@example(OrientedGraph(13, [(12, 10), (3, 12), (3, 11), (0, 1), (0, 12), (0, 2)]))
def test_edge_list_matches_naive_writer_and_round_trips(g):
    text = write_edge_list(g)
    assert text == naive_edge_list(g)
    h = read_edge_list(text)
    assert h.n == g.n and h.out_neighbors == g.out_neighbors


def test_order_above_max_n_is_refused_before_any_edge_is_read(monkeypatch):
    def edges():
        raise AssertionError("edges read")
        yield

    with pytest.raises(TooLargeError, match="MAX_N"):
        OrientedGraph(MAX_N + 1, edges())
    # the header alone would ask for about 17 GB of rows
    with pytest.raises(TooLargeError, match="MAX_N"):
        read_edge_list("og 100000000 0\n")
    # no orientation is drawn for a graph that cannot be built
    with pytest.raises(TooLargeError, match="MAX_N"):
        random_tournament(10 ** 6, seed=0)
    # nor is a random regular graph's switch chain run
    def chain(edges, rng):
        raise AssertionError("switch chain run")

    monkeypatch.setattr(graphs, "_switch_chain", chain)
    with pytest.raises(TooLargeError, match="MAX_N"):
        random_regular_oriented(MAX_N + 1, 10, 0)
    assert OrientedGraph(MAX_N, []).n == MAX_N


def test_edge_list_reader_errors():
    with pytest.raises(FormatError):
        read_edge_list("")
    with pytest.raises(FormatError):
        read_edge_list("dg 3 1\n0 1\n")
    with pytest.raises(FormatError):
        read_edge_list("og 3 2\n0 1\n")
    with pytest.raises(LoopEdgeError):
        read_edge_list("og 3 1\n1 1\n")
    with pytest.raises(AntiparallelPairError):
        read_edge_list("og 3 2\n0 1\n1 0\n")
    for bad in ("1 x", "1 2 0", "1", "1.0 2"):
        with pytest.raises(FormatError, match=f"bad edge line '{bad}'"):
            read_edge_list(f"og 3 3\n0 1\n{bad}\n0 2\n")


@pytest.mark.parametrize("text", [
    "og 12 2\n1_0 2\n+3 4\n", "og 1_2 0\n", "og +5 0\n", "og 5 1\n\u0663 1\n",
    "og 5 1\n3 \uff11\n", "og 5 1\n3\u00a01\n"])
def test_edge_list_numbers_are_plain_ascii_decimals(text):
    # int() would read each of these numbers: as 10, 12, +3, +5 or the
    # Arabic-Indic and fullwidth digits 3 and 1; and str.split() would take
    # the no-break space for a separator
    with pytest.raises(FormatError, match="is ASCII, its numbers plain decimals"):
        read_edge_list(text)
