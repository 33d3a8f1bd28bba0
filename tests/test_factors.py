import hashlib
import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamdec import factors
from hamdec.errors import (
    InvariantViolationError,
    NoFactorError,
    ROutOfRangeError,
    TooLargeError,
)
from hamdec.factors import (
    Matching,
    disjoint_maximum_matchings,
    extract_oriented_r_factor,
    gale_ryser_oracle,
    has_bipartite_r_factor,
    has_oriented_r_factor,
    oriented_reg,
    random_cycle_factor,
    random_regular_bipartite,
)
from hamdec.graphs import (
    BipartiteGraph,
    OrientedGraph,
    degree_summary,
    random_regular_oriented,
    random_tournament,
    rotational_tournament,
    write_edge_list,
)

from hamdec.pathcovers import build_path_cover_family

from conftest import dinic_flow, oriented_graphs


def complete_bipartite(m):
    return BipartiteGraph(m, m, {(a, b) for a in range(m) for b in range(m)})


def eight_cycle():
    # C8 as a bipartite graph with sides of 4: a_i ~ b_i and a_i ~ b_{i-1}
    edges = {(i, i) for i in range(4)} | {(i, (i - 1) % 4) for i in range(4)}
    return BipartiteGraph(4, 4, edges)


def first_matchings(b, d):
    """The first d matchings of :func:`disjoint_maximum_matchings` on b."""
    return list(itertools.islice(disjoint_maximum_matchings(b, random.Random(0)), d))


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
#
# On a d-regular bipartite graph every maximum matching is perfect, and what
# is left after deleting one is (d - 1)-regular, so the first d disjoint
# maximum matchings split the edges into d perfect matchings.

def test_pm_decompose_complete():
    ms = first_matchings(complete_bipartite(3), 3)
    union = set()
    for mt in ms:
        assert mt.size == 3
        assert not (union & mt.pairs)
        union |= mt.pairs
    assert union == set(complete_bipartite(3).edges)


def test_pm_decompose_eight_cycle():
    ms = first_matchings(eight_cycle(), 2)
    assert {frozenset(mt.pairs) for mt in ms} == {
        frozenset({(i, i) for i in range(4)}),
        frozenset({(i, (i - 1) % 4) for i in range(4)}),
    }


def test_pm_decompose_one_regular_returns_itself():
    pm = BipartiteGraph(3, 3, {(0, 1), (1, 2), (2, 0)})
    ms = first_matchings(pm, 2)
    assert ms[0].pairs == pm.edges and ms[1].size == 0


def test_pm_decompose_empty_graph_is_zero_regular():
    empty = BipartiteGraph(0, 0, [])
    assert has_bipartite_r_factor(empty, 0)
    assert first_matchings(empty, 1)[0].size == 0


def test_matching_rejects_repeated_endpoints():
    with pytest.raises(InvariantViolationError):
        Matching(frozenset({(0, 1), (0, 2)}))
    with pytest.raises(InvariantViolationError):
        Matching(frozenset({(0, 2), (1, 2)}))


def test_pm_decompose_random_regular_instances():
    for seed in range(5):
        m, d = 7, 4
        b = random_regular_bipartite(m, d, seed=seed)
        ms = first_matchings(b, d)
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
    g = OrientedGraph(3, [(0, 1), (0, 2), (1, 2)])
    assert oriented_reg(g) == 0


def test_reg_matches_bruteforce_on_random_tournaments():
    for seed in range(6):
        g = random_tournament(6, seed=seed)
        assert oriented_reg(g) == bruteforce_oriented_reg(g)
    for seed in range(2):
        g = random_tournament(7, seed=seed)
        assert oriented_reg(g) == bruteforce_oriented_reg(g)


def test_reg_monotone_under_edge_addition():
    rng = random.Random(9)
    for seed in range(5):
        g = random_tournament(7, seed=seed)
        edges = sorted(g.edges)
        rng.shuffle(edges)
        sub = OrientedGraph(g.n, edges[: len(edges) // 2])
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
        assert factor.n == g.n and factor.edges <= g.edges
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
    return OrientedGraph(15, edges)


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
    return OrientedGraph(a + s + b, edges)


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
    deficit = random_tournament(61, seed=0)
    graphs = [rotational_tournament(n) for n in (7, 21)] + [lopsided_graph(), deficit]
    graphs += [random_tournament(n, seed=s) for n in (9, 20, 31) for s in range(3)]
    rng = random.Random(4)
    for g in graphs[:]:
        edges = sorted(g.edges)
        rng.shuffle(edges)
        graphs.append(OrientedGraph(g.n, edges[: 3 * len(edges) // 4]))
    graphs += [random_regular_oriented(25, 4, seed=s) for s in range(2)]
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


def reference_b_matching(left_caps, right_caps, rows):
    # _b_matching as written when its search tested each vertex for a free
    # head only as it left the queue, scanning the rows of every vertex
    # queued before the one that ends the search
    picks, owners, rest = factors._greedy_b_matching(left_caps, right_caps, rows)
    while True:
        free = {b for b, cap in enumerate(rest) if cap}
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


@st.composite
def b_matching_instances(draw):
    # caps from 0 up and sorted rows of distinct heads, any of which may be
    # empty; rows of at most d heads, d drawn per instance, leave the
    # greedy pass short about once in ten
    rnd = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    nl, nr = draw(st.integers(0, 30)), draw(st.integers(0, 30))
    d = rnd.randint(0, nr)
    rows = [sorted(rnd.sample(range(nr), rnd.randint(0, d))) for _ in range(nl)]
    top = rnd.randint(0, 4)
    return ([rnd.randint(0, top) for _ in range(nl)], [rnd.randint(0, top) for _ in range(nr)],
            rows)


@settings(max_examples=400, deadline=None)
@given(b_matching_instances())
def test_b_matching_equals_reference(instance):
    assert factors._b_matching(*instance) == reference_b_matching(*instance)


@settings(max_examples=400, deadline=None)
@given(b_matching_instances())
def test_b_matching_roots_have_no_free_head_left(instance):
    # at every augmenting search, no unsaturated root has a head with cap
    # left that it does not hold, so the search need not test the roots
    searches = []
    search = factors._augmenting_end

    def checked(rows, picks, owners, free, parent):
        searches.append(all(free.intersection(rows[w]) <= picks[w] for w in parent))
        return search(rows, picks, owners, free, parent)

    with mock.patch.object(factors, "_augmenting_end", checked):
        factors._b_matching(*instance)
    assert all(searches)


def assert_b_matching_equals_reference_near_reg(g):
    reg = oriented_reg(g)
    for r in range(max(reg - 1, 0), reg + 2):
        out_caps = [len(row) - r for row in g.out_neighbors]
        in_caps = [len(row) - r for row in g.in_neighbors]
        if min(out_caps + in_caps) >= 0:
            assert (factors._b_matching(out_caps, in_caps, g.out_neighbors)
                    == reference_b_matching(out_caps, in_caps, g.out_neighbors))


@pytest.mark.parametrize("make", [lopsided_graph, lambda: bottleneck_graph(40, 20, 4, 40, 10)],
                         ids=["lopsided", "bottleneck-40-20-4-40-10"])
def test_b_matching_equals_reference_on_factor_probes(make):
    assert_b_matching_equals_reference_near_reg(make())


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_b_matching_equals_reference_on_bottleneck_graphs(data):
    a = data.draw(st.integers(4, 16))
    s = data.draw(st.integers(1, a // 2))
    b = data.draw(st.integers(3, 12))
    assert_b_matching_equals_reference_near_reg(
        bottleneck_graph(a, s, data.draw(st.integers(1, (a - 1) // 2)), b,
                         data.draw(st.integers(1, (b - 1) // 2))))


# SHA-256 of the repr of every _b_matching call's (size, sorted picks) that
# oriented_reg makes on these graphs, recorded while each search still
# rebuilt its roots and free heads over every vertex
FROZEN_B_MATCHING_DIGEST = "2e778c837c105c60af5bea2c6044df87eb64c745fc438611ba06dcd5b582c3cf"


def test_b_matching_outputs_frozen(monkeypatch):
    calls = []
    b_matching = factors._b_matching

    def recording_b_matching(left_caps, right_caps, rows):
        size, picks = b_matching(left_caps, right_caps, rows)
        calls.append((size, [sorted(mine) for mine in picks]))
        return size, picks

    monkeypatch.setattr(factors, "_b_matching", recording_b_matching)
    graphs = [random_tournament(n, seed=s) for n in (31, 61, 101) for s in range(3)]
    graphs += [lopsided_graph()] + [bottleneck_graph(*args) for args in (
        (12, 5, 3, 9, 2), (40, 20, 4, 40, 10), (30, 12, 5, 20, 4), (100, 50, 10, 100, 25))]
    for g in graphs:
        oriented_reg(g)
    assert len(calls) > len(graphs)
    assert hashlib.sha256(repr(calls).encode()).hexdigest() == FROZEN_B_MATCHING_DIGEST


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


def reference_cycle_factor(out, rng):
    # random_cycle_factor as written with rng.shuffle and rng.choice; the
    # engine draws the same indices from rng.getrandbits inline
    n = len(out)
    succ = [-1] * n
    pred = [-1] * n
    scan = list(range(n))
    rng.shuffle(scan)
    unmatched = []
    for a in scan:
        row = out[a]
        if row:
            for _ in range(factors.DRAW_TRIES):
                b = rng.choice(row)
                if pred[b] < 0:
                    break
            else:
                cands = [b for b in row if pred[b] < 0]
                b = rng.choice(cands) if cands else -1
        else:
            b = -1
        if b == -1:
            unmatched.append(a)
        else:
            succ[a], pred[b] = b, a
    free = {b for b in range(n) if pred[b] < 0}
    for root in unmatched:
        parent = {root: -1}
        queue = [root]
        for a in queue:
            hits = free.intersection(out[a])
            if hits:
                b = rng.choice(sorted(hits))
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


@st.composite
def sorted_rows(draw):
    # rows of distinct heads below n; lengths that are powers of two are
    # where a rejection draw of bit_length(m) bits is most often redrawn.
    # n reaches past 64 and 128, where the shuffle's draws gain a bit, and
    # the rows' lengths mix, so the bit length of a row draw changes from
    # one scanned vertex to the next and also stays the same
    n = draw(st.integers(0, 130))
    rnd = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    lengths = [m for m in (0, 1, 2, 4, 8, 16, 32, 64, 128) if m <= n]
    return [sorted(rnd.sample(range(n), rnd.choice(lengths) if rnd.random() < 0.5
                              else rnd.randint(0, n)))
            for _ in range(n)]


@settings(max_examples=400, deadline=None)
@given(sorted_rows(), st.integers(0, 2 ** 32 - 1))
def test_random_cycle_factor_keeps_the_random_stream(out, seed):
    # the same factor and the same generator state afterwards as the
    # shuffle/choice reference, so every later draw is the same too
    rng, ref_rng = random.Random(seed), random.Random(seed)
    assert random_cycle_factor(out, rng) == reference_cycle_factor(out, ref_rng)
    assert rng.getstate() == ref_rng.getstate()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_first_matching_is_maximum_on_rectangular_graphs(data):
    nl, nr = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 8))
    pairs = [(a, b) for a in range(nl) for b in range(nr)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    mt = next(disjoint_maximum_matchings(BipartiteGraph(nl, nr, edges),
                                         random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))))
    assert mt.pairs <= set(edges)
    assert mt.size == dinic_flow([1] * nl, [1] * nr, edges)[0]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_disjoint_maximum_matchings_peel_the_edges(data):
    nl, nr = data.draw(st.integers(0, 7)), data.draw(st.integers(0, 7))
    pairs = [(a, b) for a in range(nl) for b in range(nr)]
    edges = set(data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    peel = disjoint_maximum_matchings(BipartiteGraph(nl, nr, edges),
                                      random.Random(data.draw(st.integers(0, 2 ** 32 - 1))))
    while edges:
        mt = next(peel)
        assert mt.pairs <= edges
        assert mt.size == dinic_flow([1] * nl, [1] * nr, sorted(edges))[0] > 0
        edges -= mt.pairs
    assert next(peel).size == 0


# SHA-256 of the repr of each search's outputs at seeds 0-3, computed
# before these searches shared one matching routine: the rows and draws of
# every matching, so the path covers built from them, must not change.
# "perfect_matchings" is the first 5 disjoint matchings of a 5-regular
# bipartite graph, "first_matching" three single maximum matchings drawn
# from one generator
FROZEN_MATCHING_DIGESTS = {
    "build_path_cover_family": "28989e511084e057dfb540864917ec718c7f9051863b1f310d287e0b5a40230f",
    "perfect_matchings": "d8c86a10e22f724151ef261a9c82ef0d24cd1dc689e1db723432c434ba6a2f6e",
    "first_matching": "480748849caf0f8b737fed053a721cc9e948c80202da90669852ded3df5cf7b1",
}


def frozen_matching_outputs(name, seed):
    if name == "build_path_cover_family":
        h = random_regular_oriented(40, 8, seed=seed)
        fam, mu = build_path_cover_family(h, b=4, a=14, t=4, seed=seed)
        return [[p.vertices for p in c.paths] for c in fam.covers], fam.limiting_pair, mu
    if name == "perfect_matchings":
        return [sorted(m.pairs) for m in first_matchings(random_regular_bipartite(12, 5, seed), 5)]
    rng = random.Random(seed)
    nl, nr = rng.randint(5, 15), rng.randint(5, 15)
    b = BipartiteGraph(nl, nr, {(a, c) for a in range(nl) for c in range(nr) if rng.random() < 0.3})
    return [sorted(next(disjoint_maximum_matchings(b, rng)).pairs) for _ in range(3)]


@pytest.mark.parametrize("name", sorted(FROZEN_MATCHING_DIGESTS))
def test_matching_outputs_frozen(name):
    outputs = [frozen_matching_outputs(name, seed) for seed in range(4)]
    assert hashlib.sha256(repr(outputs).encode()).hexdigest() == FROZEN_MATCHING_DIGESTS[name]


# SHA-256 of the edge list of each extracted r-factor, computed when the
# factor was still handed over as an edge set: the b-matching's picks, so
# the factors, must not change
FROZEN_FACTOR_DIGESTS = {
    ("tournament-17", "reg"): "5c730078b857f62487e0c6b3bfb7b8e3e62a008780c2cfa3ef2d74f356fe3309",
    ("tournament-17", "reg-3"): "a21cd186a2134a0816fdeccaac1921fd52db57b31b4dcb19b3095a9287454fe7",
    ("tournament-17", "0"): "e8ab96b1cb72fd7278b084ea5c0d37a526fb5b7cddee60f96c69facb6ea10681",
    ("tournament-101", "reg"): "9048e6d1e4843fc8d71fbcd03d27623c7516bf9cd4bfcadd0aa388b3c748d3d5",
    ("tournament-101", "reg-3"): "3891308d86fd94659952d7d89db270f7edcfeee56ce7eff07b8ca8572b8aebc9",
    ("tournament-101", "0"): "875b61cd6a6010cc538184d38fd4a80674bc71b5fc27cb93f4189d0825be038f",
    ("tournament-201", "reg"): "f85d4b88abdb8cadbaf4b512e13c07cb7a77166bed4478abf35546c4e419789a",
    ("tournament-201", "reg-3"): "4a7ca053c77e0a659416df1b3e8d843c2ba214ed11fbd0b6c1505815c02472f0",
    ("tournament-201", "0"): "17e5ecdedcf40e3aee007a9560f9695959464e8b26b314bb5017f5d25eebb247",
    ("bottleneck", "reg"): "480fbdceea555db75817cbb2e6a73ddc605dfda4a0180d4ea4d6ba083caf613b",
    ("lopsided", "reg"): "f5575810d952fb63a68e7664e2f54887f66ed38c561d573363643f38b9a50769",
}


def frozen_factor_graph(name):
    if name == "bottleneck":
        return bottleneck_graph(40, 20, 4, 40, 10)
    if name == "lopsided":
        return lopsided_graph()
    return random_tournament(int(name.removeprefix("tournament-")), 0)


@pytest.mark.parametrize("graph, degree", sorted(FROZEN_FACTOR_DIGESTS))
def test_factor_outputs_frozen(graph, degree):
    g = frozen_factor_graph(graph)
    reg = oriented_reg(g)
    factor = extract_oriented_r_factor(g, {"reg": reg, "reg-3": reg - 3, "0": 0}[degree])
    digest = hashlib.sha256(write_edge_list(factor).encode()).hexdigest()
    assert digest == FROZEN_FACTOR_DIGESTS[graph, degree]


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
        pairs = next(disjoint_maximum_matchings(graph, rng)).pairs
        counts[tuple(b for _, b in sorted(pairs))] += 1
    p = 1 / len(counts)
    sigma = (draws * p * (1 - p)) ** 0.5
    assert all(abs(c - draws * p) <= 5 * sigma for c in counts.values()), counts


@pytest.mark.parametrize("m, d, seed, sha256", [
    (12, 5, 0, "1d8fd69fb45439c14e2978cd9496fcda99277eacab4139174089186a3d1afae7"),
    (40, 10, 1, "f5a321c25bbe125b65d024092e880c2957ed1a46a5037e4f200a59a3e756d564"),
    # 65 edges, just above 64: about half of the 7-bit index draws are redrawn
    (13, 5, 2, "d47ec536374eb455b70c429fb8702449f61f6f5cebd22207b5a1646ac2512955"),
])
def test_random_regular_bipartite_frozen_rows(m, d, seed, sha256):
    rows = random_regular_bipartite(m, d, seed).adj_left
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == sha256


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
    assert all(len(row) == d for row in b.adj_left + b.adj_right)
    assert random_regular_bipartite(m, d, seed).edges == b.edges
