import pytest

from hamdec.errors import InvariantViolationError, OddOrderError, PartsTooSmallError
from hamdec.factors import Matching
from hamdec.graphs import OrientedGraph, random_regular_oriented
from hamdec.pathcovers import (
    build_path_cover_family,
    complete_digraph_path_decomposition,
    matchings_to_path_cover,
)


def test_complete_digraph_decomposition_b2():
    d = complete_digraph_path_decomposition(2)
    assert set(d.paths) == {(0, 1), (1, 0)}


def test_complete_digraph_decomposition_b4():
    d = complete_digraph_path_decomposition(4)
    d.validate()
    assert len(d.paths) == 4
    covered = set()
    for p in d.paths:
        covered.update(zip(p, p[1:]))
    assert len(covered) == 12


def test_complete_digraph_decomposition_rejects_odd():
    with pytest.raises(OddOrderError):
        complete_digraph_path_decomposition(3)


def test_complete_digraph_decomposition_all_even_orders():
    for b in range(2, 17, 2):
        complete_digraph_path_decomposition(b).validate()


def test_matchings_to_path_cover_perfect_chain():
    parts = [[0, 1], [2, 3], [4, 5]]
    m1 = Matching(frozenset({(0, 2), (1, 3)}))
    m2 = Matching(frozenset({(2, 4), (3, 5)}))
    cover = matchings_to_path_cover(parts, [m1, m2])
    assert cover.size == 2
    assert sorted(p.vertices for p in cover.paths) == [(0, 2, 4), (1, 3, 5)]


def test_matchings_to_path_cover_empty_matchings():
    parts = [[0, 1], [2, 3], [4, 5]]
    empty = Matching(frozenset())
    cover = matchings_to_path_cover(parts, [empty, empty])
    assert cover.size == 6
    assert all(len(p.vertices) == 1 for p in cover.paths)


def test_matchings_to_path_cover_size_arithmetic():
    parts = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    m1 = Matching(frozenset({(0, 3), (1, 4)}))
    m2 = Matching(frozenset({(3, 6), (4, 7), (5, 8)}))
    cover = matchings_to_path_cover(parts, [m1, m2])
    assert cover.size == 9 - (2 + 3)
    # in/out degrees within the union stay <= 1 by construction
    edges = cover.edges()
    for v in range(9):
        assert sum(1 for e in edges if e[0] == v) <= 1
        assert sum(1 for e in edges if e[1] == v) <= 1


def test_matchings_to_path_cover_errors():
    m = Matching(frozenset({(0, 2)}))
    with pytest.raises(InvariantViolationError, match="parts overlap"):
        matchings_to_path_cover([[0, 1], [1, 2]], [m])
    with pytest.raises(InvariantViolationError, match="does not run from part 0 to part 1"):
        matchings_to_path_cover([[0, 1], [2, 3]], [Matching(frozenset({(0, 5)}))])
    host = OrientedGraph(4, [(2, 0)])
    with pytest.raises(InvariantViolationError, match="is not a host edge"):
        matchings_to_path_cover([[0, 1], [2, 3]], [m], host=host)


def test_build_family_on_random_regular():
    h = random_regular_oriented(40, 8, seed=8)
    family, min_union = build_path_cover_family(h, b=4, a=14, t=4, seed=5)
    family.validate(universe=set(range(40)), host=h)
    assert family.t >= 1
    assert all(cov.size <= 14 for cov in family.covers)
    # reported union min semi-degree must match an independent recount
    union = family.union_edges()
    outs = [sum(1 for e in union if e[0] == v) for v in range(40)]
    ins = [sum(1 for e in union if e[1] == v) for v in range(40)]
    assert min_union == min(min(outs), min(ins))


def test_build_family_rejects_odd_b_and_zero_t():
    h = random_regular_oriented(20, 4, seed=1)
    with pytest.raises(OddOrderError):
        build_path_cover_family(h, b=3, a=10, t=2, seed=0)
    family, min_union = build_path_cover_family(h, b=4, a=10, t=0, seed=0)
    assert family.t == 0 and min_union == 0


def test_build_family_rejects_too_many_parts():
    h = random_regular_oriented(20, 4, seed=1)
    with pytest.raises(PartsTooSmallError):
        build_path_cover_family(h, b=12, a=10, t=2, seed=0)


def test_build_family_deterministic():
    h = random_regular_oriented(30, 6, seed=3)
    fam1, mu1 = build_path_cover_family(h, b=4, a=12, t=3, seed=9)
    fam2, mu2 = build_path_cover_family(h, b=4, a=12, t=3, seed=9)
    assert mu1 == mu2
    assert [ [p.vertices for p in c.paths] for c in fam1.covers ] == \
           [ [p.vertices for p in c.paths] for c in fam2.covers ]
