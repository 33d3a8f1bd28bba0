import hashlib

import pytest

from hamdec.errors import InvariantViolationError, KTooLargeError, NotRegularError
from hamdec.factors import extract_oriented_r_factor, oriented_reg
from hamdec.graphs import OrientedGraph, random_tournament, rotational_tournament
from hamdec.partition import SubproblemSpec, build_partition, verify_partition


@pytest.fixture(scope="module")
def split101():
    g = rotational_tournament(101)
    factor = g  # g is its own 50-factor
    specs, report = build_partition(g, factor, k=2, eps=0.3, seed=11)
    return g, factor, specs, report


def test_assignment_probabilities_sum_to_one():
    for k in (2, 3, 4):
        for eps in (0.1, 0.3, 0.7):
            total = (k ** 3 - 2 * k) * ((1 - eps) / (k ** 3 - 2 * k)) + 2 * k * (eps / (2 * k))
            assert total == pytest.approx(1.0)


def test_split_produces_k3_edge_disjoint_spanning_specs(split101):
    g, factor, specs, report = split101
    assert len(specs) == 8
    seen = set()
    for spec in specs:
        edges = spec.all_edges()
        assert not (seen & edges)
        seen |= edges
        assert edges <= g.edges
        assert set(spec.u_vertices) | set(spec.w_vertices) == set(range(101))
        assert not set(spec.u_vertices) & set(spec.w_vertices)
        assert len(spec.w_vertices) in (25, 26)


def test_every_vertex_in_exactly_k_reservoirs(split101):
    _, _, specs, _ = split101
    counts = [0] * 101
    for spec in specs:
        for v in spec.w_vertices:
            counts[v] += 1
    assert all(c == 2 for c in counts)


def test_verifier_reproduces_builder_stats(split101):
    g, factor, specs, report = split101
    stats = verify_partition(g, factor, specs, k=2, eps=0.3)
    assert stats == report.stats


def test_verifier_rejects_duplicated_edge(split101):
    g, factor, specs, _ = split101
    donor = next(s for s in specs if s.inner_edges)
    stolen = next(iter(donor.inner_edges))
    other = next(s for s in specs if s.index != donor.index
                 and stolen[0] in s.u_vertices and stolen[1] in s.u_vertices)
    tampered = [s for s in specs]
    tampered[other.index] = SubproblemSpec(
        index=other.index, u_vertices=other.u_vertices, w_vertices=other.w_vertices,
        inner_edges=other.inner_edges | {stolen},
        cross_edges=other.cross_edges, reservoir_edges=other.reservoir_edges)
    with pytest.raises(InvariantViolationError, match="edge reused across subgraphs"):
        verify_partition(g, factor, tampered, k=2, eps=0.3)


def test_graph_views_number_their_vertex_lists(split101):
    g, _, specs, _ = split101
    spec = specs[0]
    inner = spec.inner_graph
    u = spec.u_vertices
    assert inner.n == len(u)
    assert {(u[x], u[y]) for x, y in inner.edges} == spec.inner_edges
    res = spec.reservoir_graph
    w = spec.w_vertices
    assert res.n == len(w)
    assert {(w[x], w[y]) for x, y in res.edges} == spec.reservoir_edges


def test_deterministic_given_seed():
    g = rotational_tournament(101)
    s1, r1 = build_partition(g, g, k=2, eps=0.3, seed=4)
    s2, r2 = build_partition(g, g, k=2, eps=0.3, seed=4)
    assert [s.all_edges() for s in s1] == [s.all_edges() for s in s2]
    assert r1 == r2


def test_precondition_errors():
    g = rotational_tournament(31)
    factor = extract_oriented_r_factor(g, 15)
    with pytest.raises(KTooLargeError):
        build_partition(g, factor, k=2, eps=0.3, seed=0)  # 8 > 31/8
    big = rotational_tournament(101)
    bad = OrientedGraph(big.n, sorted(g.edges)[:5])
    with pytest.raises(NotRegularError, match="factor is not regular"):
        build_partition(big, bad, k=2, eps=0.3, seed=0)


def test_build_partition_refuses_a_factor_on_fewer_vertices():
    # the cycle 0 -> 1 -> ... -> 99 -> 0 is a 1-regular subgraph of g that
    # misses vertex 100
    g = rotational_tournament(101)
    short = OrientedGraph(100, [(v, (v + 1) % 100) for v in range(100)])
    assert short.edges <= g.edges
    with pytest.raises(NotRegularError, match="factor must be a spanning subgraph of g"):
        build_partition(g, short, k=2, eps=0.3, seed=0)


def frozen_partition_outputs(n):
    g = random_tournament(n, n)
    factor = extract_oriented_r_factor(g, oriented_reg(g) - 3)
    specs, report = build_partition(g, factor, k=2, eps=0.3, seed=n)
    return report, verify_partition(g, factor, specs, k=2, eps=0.3)


# SHA-256 of the repr of the report and the recomputed stats, computed
# before the stats took their degrees from degree summaries
FROZEN_PARTITION_DIGESTS = {
    101: "5c704f67eb333f436effdcc13f52cc17d30c251486c782f888ebe14f51473700",
    129: "f4d73d2e1fbf5b460a3b21e4309b7951f3e62c7c325f916e1b96216be7c84b16",
    201: "81cbc1687274373d166d008e8a5a4a82dbef6eb48874d48b8ea3b8bd04a917e1",
}


@pytest.mark.parametrize("n", sorted(FROZEN_PARTITION_DIGESTS))
def test_partition_outputs_frozen(n):
    outputs = frozen_partition_outputs(n)
    assert hashlib.sha256(repr(outputs).encode()).hexdigest() == FROZEN_PARTITION_DIGESTS[n]


def test_verifier_stats_with_empty_reservoirs():
    # two reservoirs hold every vertex and six hold none: an empty U has
    # inner mean 0 inside its window and cross minimum 0, an empty W has
    # reservoir minimum 0
    g = rotational_tournament(7)
    everyone, none = tuple(range(7)), frozenset()
    step = {j: frozenset((v, (v + j) % 7) for v in range(7)) for j in (1, 2, 3)}
    specs = [SubproblemSpec(0, (), everyone, none, none, step[3]),
             SubproblemSpec(1, (), everyone, none, none, none),
             SubproblemSpec(2, everyone, (), step[1], none, none),
             SubproblemSpec(3, everyone, (), step[2], none, none)]
    specs += [SubproblemSpec(i, everyone, (), none, none, none) for i in range(4, 8)]
    stats = verify_partition(g, g, specs, k=2, eps=0.3)
    assert stats.inner_degree_means == (0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    assert stats.inner_ok == (True,) * 8
    assert stats.cross_min_degrees == (0,) * 8
    assert stats.reservoir_min_semis == (1, 0, 0, 0, 0, 0, 0, 0)
    assert stats.reservoir_ok == (True, False) + (True,) * 6
    # the whole record, as computed before the degree summaries
    assert hashlib.sha256(repr(stats).encode()).hexdigest() == (
        "8bcfe8bc946fa9d2333f522333b3fe25b3ddfcb0e1a0303d18bb9ae30f210b35")


def test_verifier_flags_inner_degrees_outside_their_window():
    # spec 2 leaves vertex 0 without inner edges, below its window; spec 3
    # gives vertex 0 all fifty of its out-edges, above its window
    g = rotational_tournament(101)
    everyone, none = tuple(range(101)), frozenset()
    into0 = frozenset((u, v) for u, v in g.edges if v == 0)
    out0 = frozenset((u, v) for u, v in g.edges if u == 0)
    specs = [SubproblemSpec(0, (), everyone, none, none, into0),
             SubproblemSpec(1, (), everyone, none, none, none),
             SubproblemSpec(2, everyone, (), g.edges - into0 - out0, none, none),
             SubproblemSpec(3, everyone, (), out0, none, none)]
    specs += [SubproblemSpec(i, everyone, (), none, none, none) for i in range(4, 8)]
    stats = verify_partition(g, g, specs, k=2, eps=0.3)
    assert stats.inner_ok == (True, True, False, False, True, True, True, True)
