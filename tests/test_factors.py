import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamdec import factors
from hamdec.errors import (
    InvariantViolationError,
    NoFactorError,
    NotRegularError,
    ROutOfRangeError,
    TooLargeError,
)
from hamdec.factors import (
    Matching,
    extract_oriented_r_factor,
    gale_ryser_oracle,
    has_bipartite_r_factor,
    has_oriented_r_factor,
    maximum_matching_of,
    oriented_reg,
    pm_decompose_regular,
    random_cycle_factor,
    random_regular_bipartite,
)
from hamdec.graphs import (
    BipartiteGraph,
    build_oriented,
    degree_summary,
    random_oriented,
    random_regular_oriented,
    rotational_tournament,
)

from conftest import dinic_flow, oriented_graphs


def complete_bipartite(m):
    return BipartiteGraph(m, m, {(a, b) for a in range(m) for b in range(m)})


def eight_cycle():
    # C8 as a bipartite graph with sides of 4: a_i ~ b_i and a_i ~ b_{i-1}
    edges = {(i, i) for i in range(4)} | {(i, (i - 1) % 4) for i in range(4)}
    return BipartiteGraph(4, 4, edges)


def random_bipartite(m, p, rng):
    edges = {(a, b) for a in range(m) for b in range(m) if rng.random() < p}
    return BipartiteGraph(m, m, edges)


def check_regular_subgraph(b, edges, r):
    assert edges <= b.edges
    for a in range(b.m):
        assert sum(1 for (x, _) in edges if x == a) == r
    for bb in range(b.m):
        assert sum(1 for (_, y) in edges if y == bb) == r


# -- existence: flow route vs literal inequality oracle -----------------

def test_has_factor_trivial_cases():
    assert has_bipartite_r_factor(complete_bipartite(3), 3)
    pm = BipartiteGraph(3, 3, {(i, i) for i in range(3)})
    assert not has_bipartite_r_factor(pm, 2)
    assert has_bipartite_r_factor(eight_cycle(), 1)
    with pytest.raises(ROutOfRangeError):
        has_bipartite_r_factor(pm, 4)


def test_oracle_trivial_cases():
    assert gale_ryser_oracle(complete_bipartite(3), 3)
    pm = BipartiteGraph(3, 3, {(i, i) for i in range(3)})
    assert not gale_ryser_oracle(pm, 2)  # X=A, Y=B gives 3 < 2*3
    with pytest.raises(TooLargeError):
        gale_ryser_oracle(complete_bipartite(13), 1)


def test_flow_matches_oracle_on_random_instances():
    rng = random.Random(20240601)
    checked = 0
    for _ in range(60):
        m = rng.randint(1, 6)
        b = random_bipartite(m, rng.random(), rng)
        for r in range(m + 1):
            assert has_bipartite_r_factor(b, r) == gale_ryser_oracle(b, r)
            checked += 1
    assert checked >= 200


# -- extraction ---------------------------------------------------------

def bipartite_factor(b, r):
    """The r-factor edges a plain Dinic flow finds in b, or None when the
    flow falls short of r * m."""
    value, used = dinic_flow([r] * b.m, [r] * b.m, sorted(b.edges))
    return set(used) if value == r * b.m else None


def test_extract_perfect_matching_from_complete():
    b = complete_bipartite(3)
    edges = bipartite_factor(b, 1)
    check_regular_subgraph(b, edges, 1)
    assert len(edges) == 3


def test_extract_unique_two_factor():
    edges = {(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)}
    b = BipartiteGraph(4, 4, edges)
    assert bipartite_factor(b, 2) == edges


def test_extract_two_factor_of_complete():
    b = complete_bipartite(4)
    edges = bipartite_factor(b, 2)
    check_regular_subgraph(b, edges, 2)
    assert len(edges) == 8


def test_extract_raises_without_factor():
    pm = BipartiteGraph(3, 3, {(i, i) for i in range(3)})
    assert bipartite_factor(pm, 2) is None


# -- perfect-matching decompositions -------------------------------------

def test_pm_decompose_complete():
    ms = pm_decompose_regular(complete_bipartite(3))
    assert len(ms) == 3
    union = set()
    for mt in ms:
        assert mt.size == 3
        assert not (union & mt.pairs)
        union |= mt.pairs
    assert union == set(complete_bipartite(3).edges)


def test_pm_decompose_eight_cycle():
    ms = pm_decompose_regular(eight_cycle())
    assert len(ms) == 2
    assert {frozenset(mt.pairs) for mt in ms} == {
        frozenset({(i, i) for i in range(4)}),
        frozenset({(i, (i - 1) % 4) for i in range(4)}),
    }


def test_pm_decompose_one_regular_returns_itself():
    pm = BipartiteGraph(3, 3, {(0, 1), (1, 2), (2, 0)})
    ms = pm_decompose_regular(pm)
    assert len(ms) == 1 and ms[0].pairs == pm.edges


def test_pm_decompose_empty_graph_is_zero_regular():
    empty = BipartiteGraph(0, 0, [])
    assert has_bipartite_r_factor(empty, 0)
    assert pm_decompose_regular(empty) == []


def test_matching_rejects_repeated_endpoints():
    with pytest.raises(InvariantViolationError):
        Matching(frozenset({(0, 1), (0, 2)}))
    with pytest.raises(InvariantViolationError):
        Matching(frozenset({(0, 2), (1, 2)}))


def test_pm_decompose_rejects_irregular():
    with pytest.raises(NotRegularError):
        pm_decompose_regular(BipartiteGraph(2, 2, {(0, 0), (0, 1), (1, 0)}))


def test_pm_decompose_random_regular_instances():
    for seed in range(5):
        m, d = 7, 4
        b = random_regular_bipartite(m, d, seed=seed)
        ms = pm_decompose_regular(b)
        assert len(ms) == d
        union = set()
        for mt in ms:
            assert mt.size == m
            assert not (union & mt.pairs)
            union |= mt.pairs
        assert union == set(b.edges)


# -- reg() and oriented factors -------------------------------------------

def bruteforce_oriented_reg(g):
    """Max r by backtracking: pick r out-neighbours per vertex so that every
    vertex also receives exactly r."""
    def feasible(r):
        if r == 0:
            return True
        need_in = [r] * g.n
        outs = [sorted(g.out_neighbors[v]) for v in range(g.n)]

        def rec(v):
            if v == g.n:
                return all(x == 0 for x in need_in)
            cands = [w for w in outs[v] if need_in[w] > 0]
            if len(cands) < r:
                return False
            for combo in itertools.combinations(cands, r):
                for w in combo:
                    need_in[w] -= 1
                # remaining vertices must still be able to supply enough
                if rec(v + 1):
                    return True
                for w in combo:
                    need_in[w] += 1
            return False

        return rec(0)

    r = 0
    while feasible(r + 1):
        r += 1
    return r


def test_reg_of_rotational_tournaments():
    for n in (3, 5, 7, 9):
        assert oriented_reg(rotational_tournament(n)) == (n - 1) // 2


def test_reg_of_transitive_tournament():
    g = build_oriented(3, [(0, 1), (0, 2), (1, 2)])
    assert oriented_reg(g) == 0


def test_reg_matches_bruteforce_on_random_tournaments():
    for seed in range(6):
        g = random_oriented("tournament", 6, seed=seed)
        assert oriented_reg(g) == bruteforce_oriented_reg(g)
    for seed in range(2):
        g = random_oriented("tournament", 7, seed=seed)
        assert oriented_reg(g) == bruteforce_oriented_reg(g)


def test_reg_monotone_under_edge_addition():
    rng = random.Random(9)
    for seed in range(5):
        g = random_oriented("tournament", 7, seed=seed)
        edges = sorted(g.edges)
        rng.shuffle(edges)
        sub = build_oriented(g.n, edges[: len(edges) // 2])
        assert oriented_reg(sub) <= oriented_reg(g)


def test_extract_oriented_factor():
    g = rotational_tournament(5)
    whole = extract_oriented_r_factor(g, 2)
    assert whole.edges == g.edges
    one = extract_oriented_r_factor(g, 1)
    assert one.edges <= g.edges
    assert sorted(u for u, _ in one.edges) == sorted(v for _, v in one.edges) == list(range(5))
    with pytest.raises(NoFactorError):
        extract_oriented_r_factor(rotational_tournament(3), 2)


@settings(max_examples=60, deadline=None)
@given(oriented_graphs(max_n=16))
def test_extract_oriented_factor_for_every_r_up_to_reg(g):
    reg = oriented_reg(g)
    for r in range(reg + 1):
        factor = extract_oriented_r_factor(g, r)
        assert factor.r == r and factor.edges <= g.edges
        assert sorted(u for u, _ in factor.edges) == sorted(list(range(g.n)) * r)
        assert sorted(v for _, v in factor.edges) == sorted(list(range(g.n)) * r)
    with pytest.raises(NoFactorError):
        extract_oriented_r_factor(g, reg + 1)


def binary_search_reg(g):
    """reg by binary search over factor tests below the min semi-degree."""
    lo = 0
    hi = min(min(g.out_degree(v) for v in range(g.n)),
             min(g.in_degree(v) for v in range(g.n)))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if has_oriented_r_factor(g, mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def lopsided_graph():
    """Rotational tournaments L on 0..6 and W on 8..14 with L -> 7 -> W -> L
    complete: min semi-degree 4, but an r-factor leaves L only into vertex
    7, by r edges, so 7r <= 21 + r and reg = 3."""
    edges = {(base + i, base + (i + j) % 7) for base in (0, 8)
             for i in range(7) for j in (1, 2, 3)}
    edges |= {(u, 7) for u in range(7)} | {(7, w) for w in range(8, 15)}
    edges |= {(w, u) for w in range(8, 15) for u in range(7)}
    return build_oriented(15, edges)


def test_reg_below_min_semi_degree():
    g = lopsided_graph()
    assert min(min(g.out_degree(v), g.in_degree(v)) for v in range(g.n)) == 4
    assert oriented_reg(g) == binary_search_reg(g) == 3


@settings(max_examples=60, deadline=None)
@given(oriented_graphs())
def test_reg_matches_binary_search(g):
    assert oriented_reg(g) == binary_search_reg(g)


def bottleneck_graph(a, s, d_a, b, d_b):
    """Circulants A (steps 1..d_a) and B (steps 1..d_b) with A -> X -> B ->
    A complete between them, X an independent set of s vertices: A's
    vertices have out-degree d_a + s, but an r-factor takes only r * s
    edges out of A, so reg is at most d_a * a / (a - s), far below the
    min semi-degree when s is near a / 2."""
    xs, bs = range(a, a + s), range(a + s, a + s + b)
    edges = {(i, (i + j) % a) for i in range(a) for j in range(1, d_a + 1)}
    edges |= {(bs[i], bs[(i + j) % b]) for i in range(b) for j in range(1, d_b + 1)}
    edges |= {(u, x) for u in range(a) for x in xs} | {(x, w) for x in xs for w in bs}
    edges |= {(w, u) for w in bs for u in range(a)}
    return build_oriented(a + s + b, edges)


def dinic_reg(g):
    """reg from plain Dinic flows on the factor network, r = min
    semi-degree downwards."""
    r = degree_summary(g).min_semi
    while dinic_flow([r] * g.n, [r] * g.n, sorted(g.edges))[0] != r * g.n:
        r -= 1
    return r


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_reg_far_below_min_semi_degree(data):
    # oriented_reg steps down from the min semi-degree by doubling steps and
    # then bisects; these graphs put reg several steps below it
    a = data.draw(st.integers(4, 16))
    s = data.draw(st.integers(1, a // 2))
    b = data.draw(st.integers(3, 12))
    g = bottleneck_graph(a, s, data.draw(st.integers(1, (a - 1) // 2)), b,
                         data.draw(st.integers(1, (b - 1) // 2)))
    assert oriented_reg(g) == dinic_reg(g)


def networkx_reg(nx, g):
    """Largest r whose source/sink capacities r admit a flow of r * n."""
    r = min(min(g.out_degree(v) for v in range(g.n)),
            min(g.in_degree(v) for v in range(g.n)))
    while r > 0:
        net = nx.DiGraph()
        for v in range(g.n):
            net.add_edge("s", ("out", v), capacity=r)
            net.add_edge(("in", v), "t", capacity=r)
        for u, v in g.edges:
            net.add_edge(("out", u), ("in", v), capacity=1)
        if nx.maximum_flow_value(net, "s", "t") == r * g.n:
            return r
        r -= 1
    return 0


def test_reg_matches_networkx_max_flow(monkeypatch):
    nx = pytest.importorskip("networkx")
    # the greedy pass of the b-matching leaves a deficit on this
    # tournament, so the alternating-path search decides its reg
    deficit = random_oriented("tournament", 61, seed=0)
    graphs = [rotational_tournament(n) for n in (7, 21)] + [lopsided_graph(), deficit]
    graphs += [random_oriented("tournament", n, seed=s) for n in (9, 20, 31) for s in range(3)]
    rng = random.Random(4)
    for g in graphs[:]:
        edges = sorted(g.edges)
        rng.shuffle(edges)
        graphs.append(build_oriented(g.n, edges[: 3 * len(edges) // 4]))
    graphs += [random_oriented("regular", 25, seed=s, r=4) for s in range(2)]
    for g in graphs:
        assert oriented_reg(g) == networkx_reg(nx, g)

    augmented = []
    b_matching = factors._b_matching

    def recording_b_matching(left_caps, right_caps, rows):
        greedy = factors._greedy_b_matching(left_caps, right_caps, rows)[0]
        size, picks = b_matching(left_caps, right_caps, rows)
        augmented.append(size - sum(map(len, greedy)))
        return size, picks

    monkeypatch.setattr(factors, "_b_matching", recording_b_matching)
    oriented_reg(deficit)
    assert augmented and augmented[0] > 0


def failing_b_matching(left_caps, right_caps, rows):
    raise AssertionError("a regular graph needs no b-matching")


@pytest.mark.parametrize("make, r", [
    (lambda: rotational_tournament(401), 200),
    (lambda: random_regular_oriented(51, 10, 3), 10),
], ids=["rotational-401", "regular-51-10"])
def test_regular_graphs_need_no_flow(monkeypatch, make, r):
    g = make()
    monkeypatch.setattr(factors, "_b_matching", failing_b_matching)
    assert oriented_reg(g) == r
    assert has_oriented_r_factor(g, r) and has_oriented_r_factor(g, 1)
    assert not has_oriented_r_factor(g, r + 1)
    assert extract_oriented_r_factor(g, r).edges == g.edges


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_seeded_flow_equals_plain_dinic(data):
    # the greedy-seeded b-matching is as large as a plain Dinic max flow on
    # the same caps, and its picks are edges within the caps
    nl, nr = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
    pairs = [(a, b) for a in range(nl) for b in range(nr)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True))
    left_caps = data.draw(st.lists(st.integers(0, 4), min_size=nl, max_size=nl))
    right_caps = data.draw(st.lists(st.integers(0, 4), min_size=nr, max_size=nr))
    rows = [sorted(b for x, b in edges if x == a) for a in range(nl)]
    size, picks = factors._b_matching(left_caps, right_caps, rows)
    used = [(a, b) for a, mine in enumerate(picks) for b in mine]
    assert size == len(used) == dinic_flow(left_caps, right_caps, edges)[0]
    assert set(used) <= set(edges)
    assert all(len(mine) <= cap for mine, cap in zip(picks, left_caps))
    assert all(sum(b == v for _, b in used) <= cap for v, cap in enumerate(right_caps))
    assert rows == [sorted(b for x, b in edges if x == a) for a in range(nl)]


@settings(max_examples=300, deadline=None)
@given(oriented_graphs(min_n=1, max_n=12), st.integers(0, 2 ** 32 - 1))
def test_random_cycle_factor_against_max_flow(g, seed):
    # sparse draws often have no cycle factor; a unit-capacity Dinic flow
    # gives the maximum matching size as the oracle
    out = [sorted(row) for row in g.out_neighbors]
    succ = random_cycle_factor(out, random.Random(seed))
    size, _ = dinic_flow([1] * g.n, [1] * g.n, sorted(g.edges))
    assert (sorted(succ) == list(range(g.n))) == (size == g.n)
    matched = [b for b in succ if b != -1]
    assert len(matched) == size
    assert len(set(matched)) == len(matched)
    assert all((u, b) in g.edges for u, b in enumerate(succ) if b != -1)
    assert random_cycle_factor(out, random.Random(seed)) == succ
    assert out == [sorted(row) for row in g.out_neighbors]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_maximum_matching_of_rectangular_graphs(data):
    nl, nr = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 8))
    pairs = [(a, b) for a in range(nl) for b in range(nr)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    mt = maximum_matching_of(BipartiteGraph(nl, nr, edges),
                             random.Random(data.draw(st.integers(0, 2 ** 32 - 1))))
    assert mt.pairs <= set(edges)
    assert mt.size == dinic_flow([1] * nl, [1] * nr, edges)[0]


@pytest.mark.parametrize("fallback_only", [False, True])
@pytest.mark.parametrize("nl, nr, draws", [(3, 3, 6_000), (4, 4, 24_000), (2, 3, 6_000)])
def test_maximum_matching_is_uniform_on_complete_graphs(monkeypatch, nl, nr, draws,
                                                        fallback_only):
    # every maximum matching of K_{nl,nr} is equally likely.  With no
    # rejection tries every greedy pick takes the fallback draw, whose law
    # is then checked on its own; on a square K_{m,m} the random scan order
    # would hide a fallback that always takes the first free entry, K_{2,3}
    # does not
    if fallback_only:
        monkeypatch.setattr(factors, "DRAW_TRIES", 0, raising=False)
    rng = random.Random(0)
    graph = BipartiteGraph(nl, nr, {(a, b) for a in range(nl) for b in range(nr)})
    counts = dict.fromkeys(itertools.permutations(range(nr), nl), 0)
    for _ in range(draws):
        pairs = maximum_matching_of(graph, rng).pairs
        counts[tuple(b for _, b in sorted(pairs))] += 1
    p = 1 / len(counts)
    sigma = (draws * p * (1 - p)) ** 0.5
    assert all(abs(c - draws * p) <= 5 * sigma for c in counts.values()), counts


@pytest.mark.parametrize("d", [-1, 4])
def test_random_regular_bipartite_rejects_degree_out_of_range(d):
    with pytest.raises(ROutOfRangeError):
        random_regular_bipartite(3, d, 0)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_random_regular_bipartite_properties(data):
    m = data.draw(st.integers(0, 25))
    d = data.draw(st.integers(0, m))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    b = random_regular_bipartite(m, d, seed)
    assert len(b.edges) == m * d  # the constructor rejects duplicates
    assert all(b.degree_left(a) == d and b.degree_right(a) == d for a in range(m))
    assert random_regular_bipartite(m, d, seed).edges == b.edges
