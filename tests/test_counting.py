import collections
import itertools
import math
import random
import re
import struct
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from hamdec import counting
from hamdec.counting import (
    LogCount,
    _count_cycles_in_order,
    _hamilton_cycles,
    _sweep_order,
    bregman_bound,
    count_hamilton_cycles_exact,
    count_hamilton_decompositions_exact,
    count_hamilton_decompositions_ordered,
    decomposition_upper_bound,
    find_hamilton_decomposition,
    permanent,
    sandwich_experiment,
    vdw_bound,
)
from hamdec.errors import EvenOrderError, TooLargeError, VertexOutOfRangeError
from hamdec.factors import random_regular_bipartite
from hamdec.graphs import (
    MAX_N,
    OrientedGraph,
    random_regular_oriented,
    random_tournament,
    rotational_tournament,
)

from conftest import oriented_graphs


def permanent_bruteforce(mat):
    n = len(mat)
    return sum(
        math.prod(mat[i][perm[i]] for i in range(n))
        for perm in itertools.permutations(range(n))
    )


def permanent_subset_dp(mat):
    """Permanent by a DP over column sets: ways[cols] counts the matchings
    of the first popcount(cols) rows onto exactly the columns cols."""
    n = len(mat)
    ways = [0] * (1 << n)
    ways[0] = 1
    for cols in range(1 << n):
        i = bin(cols).count("1")
        if i < n and ways[cols]:
            for j in range(n):
                if mat[i][j] and not cols >> j & 1:
                    ways[cols | 1 << j] += ways[cols]
    return ways[-1]


def ham_cycles_bruteforce(g):
    count = 0
    for perm in itertools.permutations(range(1, g.n)):
        seq = (0,) + perm
        if all(g.has_edge(seq[i], seq[(i + 1) % g.n]) for i in range(g.n)):
            count += 1
    return count


def ham_cycle_edge_sets_bruteforce(g):
    cycles = []
    for perm in itertools.permutations(range(1, g.n)):
        seq = (0,) + perm
        edges = frozenset((seq[i], seq[(i + 1) % g.n]) for i in range(g.n))
        if edges <= g.edges:
            cycles.append(edges)
    return cycles


def decompositions_bruteforce(g, r):
    """r-subsets of pairwise edge-disjoint Hamilton cycles covering E(g)."""
    return sum(
        1 for chosen in itertools.combinations(ham_cycle_edge_sets_bruteforce(g), r)
        if sum(map(len, chosen)) == len(g.edges) and frozenset().union(*chosen) == g.edges)


# -- LogCount -------------------------------------------------------------

def test_logcount_roundtrip():
    for k in (1, 2, 6, 10**9, 2**40):
        lc = LogCount.from_int(k)
        assert abs(lc.value() - k) / k < 1e-9
    z = LogCount.from_int(0)
    assert z.is_zero and z.value() == 0.0


def test_logcount_ordering():
    assert LogCount.from_int(5).leq(LogCount.from_int(6))
    assert LogCount.from_int(0).leq(LogCount.from_int(1))


# -- permanent -------------------------------------------------------------

def test_permanent_small_matrices():
    assert permanent([[1] * 3 for _ in range(3)]).exact == 6
    ident = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert permanent(ident).exact == 1
    g = rotational_tournament(3)
    tri = [[int(g.has_edge(u, v)) for v in range(3)] for u in range(3)]
    assert permanent(tri).exact == 1


def test_permanent_matches_bruteforce():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 6)
        mat = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        assert permanent(mat).exact == permanent_bruteforce(mat)


@pytest.mark.parametrize("n", sorted({1, 2, *range(7, 15), counting.PERMANENT_SPLIT,
                                      counting.PERMANENT_SPLIT + 1, counting.PERMANENT_SPLIT + 2}))
def test_permanent_matches_subset_dp_across_the_split(n):
    # the first PERMANENT_SPLIT columns are precomputed, so larger n walk the
    # rest; an all-ones row or column drives Glynn's row forms up to n
    rng = random.Random(f"perm:{n}")
    for density in (0.3, 0.5, 0.8):
        mat = [[int(rng.random() < density) for _ in range(n)] for _ in range(n)]
        assert permanent(mat).exact == permanent_subset_dp(mat)
        ones_row = mat[:n // 2] + [[1] * n] + mat[n // 2 + 1:]
        assert permanent(ones_row).exact == permanent_subset_dp(ones_row)
        ones_col = [row[:-1] + [1] for row in mat]
        assert permanent(ones_col).exact == permanent_subset_dp(ones_col)


@pytest.mark.parametrize("n", range(7, 15))
def test_permanent_structured_matrices(n):
    ones = [[1] * n for _ in range(n)]
    assert permanent(ones).exact == math.factorial(n)
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    assert permanent(ident).exact == 1
    zero_row = [row[:] for row in ones]
    zero_row[n // 2] = [0] * n
    assert permanent(zero_row).is_zero
    zero_col = [row[:-1] + [0] for row in ones]
    assert permanent(zero_col).is_zero


@pytest.mark.parametrize("n, derangements", [
    (11, 14684570), (12, 176214841), (13, 2290792932), (18, 2355301661033953)])
def test_permanent_of_j_minus_i_counts_derangements(n, derangements):
    closed_form = sum((-1) ** k * math.factorial(n) // math.factorial(k) for k in range(n + 1))
    mat = [[int(i != j) for j in range(n)] for i in range(n)]
    assert permanent(mat).exact == derangements == closed_form


@st.composite
def parity_matrices(draw):
    """A 0/1 matrix of order 1 to 13 whose row sums are all even (so many
    of Glynn's terms are 0), all odd (none is) or mixed, with all-ones rows
    among them, so that row forms reach +-10 (the bytes 0x0A and 0xF6), and
    ones and zeros spelled as ints, bools or floats."""
    n = draw(st.integers(1, 13))
    parity = draw(st.sampled_from(["even", "odd", "mixed"]))
    rows = []
    for _ in range(n):
        row = [1] * n if draw(st.integers(0, 3)) == 0 else draw(
            st.lists(st.integers(0, 1), min_size=n, max_size=n))
        want = {"even": 0, "odd": 1, "mixed": sum(row) & 1}[parity]
        if sum(row) & 1 != want:
            j = draw(st.integers(0, n - 1))
            row[j] ^= 1
        rows.append(row)
    spell = draw(st.sampled_from([(0, 1), (False, True), (0.0, 1.0)]))
    return [[spell[x] for x in row] for row in rows]


@settings(max_examples=120, deadline=None)
@given(parity_matrices())
def test_permanent_matches_subset_dp_hypothesis(mat):
    ints = [[int(x) for x in row] for row in mat]
    assert permanent(mat).exact == permanent_subset_dp(ints)


class Recorder:
    """A ``struct.Struct`` stand-in that records every form it unpacks."""

    def __init__(self, fmt, seen):
        self.unpack = struct.Struct(fmt).iter_unpack
        self.seen = seen

    def iter_unpack(self, data):
        forms = list(self.unpack(data))
        self.seen.extend(forms)
        return iter(forms)


def record_forms(monkeypatch):
    """Route permanent()'s struct through a Recorder; return its record."""
    seen = []
    monkeypatch.setattr(counting, "struct",
                        SimpleNamespace(Struct=lambda fmt: Recorder(fmt, seen)))
    return seen


def test_permanent_hands_struct_only_zero_free_forms_of_sorted_rows(monkeypatch):
    # rows with row sums 11, 2, 7, ... in that order: sorted even sums
    # first, ascending, byte i of every form unpacked has the parity of the
    # i-th sorted row sum and at most its size, and no form is 0
    sums = [11, 2, 7, 4, 12, 3, 6, 1, 9, 8, 5, 10]
    n = len(sums)
    rng = random.Random("sorted-rows")
    mat = [[int(j < k) for j in rng.sample(range(n), n)] for k in sums]
    seen = record_forms(monkeypatch)
    assert permanent(mat).exact == permanent_subset_dp(mat)
    order = sorted(sums, key=lambda k: (k & 1, k))
    assert seen and all(0 not in forms for forms in seen)
    for forms in seen:
        assert all(f % 2 == k % 2 and abs(f) <= k for f, k in zip(forms, order))


@pytest.mark.parametrize("n", [11, 12, 13])
def test_permanent_hands_struct_exactly_the_zero_free_forms(n, monkeypatch):
    # the multiset of forms struct unpacks is that of the zero-free row-form
    # tuples over every sign vector with delta_1 = +1, rows in sorted order
    rng = random.Random(f"zero-free-forms:{n}")
    mat = [[int(rng.random() < 0.5) for _ in range(n)] for _ in range(n - 2)]
    # the form delta_2 + delta_n of this row vanishes in the first packed
    # block (delta_2 = ... = delta_10 = +1) and the last one of the even
    # parity (delta_2 = +1, delta_3 = ... = delta_10 = -1) whenever
    # delta_n = -1, so the regex sees a buffer that starts and ends inside
    # a run of zero blocks with zero-free blocks between them
    mat.append([int(j in (1, n - 1)) for j in range(n)])
    # ten ones off column 2: this form is 10 (the byte 0x0A) in a block
    # where the row above vanishes too (delta_2 = -1, delta_n = +1)
    ten = rng.sample([j for j in range(n) if j != 1], 10)
    mat.append([int(j in ten) for j in range(n)])
    buffers = []
    pattern = re.compile

    def recording(*args):
        findall = pattern(*args).findall

        def record(data):
            buffers.append(data)
            return findall(data)
        return SimpleNamespace(findall=record)

    monkeypatch.setattr(counting, "re", SimpleNamespace(compile=recording))
    seen = record_forms(monkeypatch)
    assert permanent(mat).exact == permanent_subset_dp(mat)
    rows = sorted(mat, key=lambda row: (sum(row) % 2, sum(row)))
    expected = collections.Counter()
    for signs in itertools.product((1, -1), repeat=n - 1):
        delta = (1, *signs)
        forms = tuple(sum(d * a for d, a in zip(delta, row)) for row in rows)
        if 0 not in forms:
            expected[forms] += 1
    assert collections.Counter(seen) == expected
    assert any(10 in forms for forms in seen)
    blocks = [[data[i:i + n] for i in range(0, len(data), n)] for data in buffers]
    assert any(0 in bs[0] and 0 in bs[-1] and any(0 not in b for b in bs) for bs in blocks)
    assert any(0 in b and 10 in b for bs in blocks for b in bs)


@pytest.mark.parametrize("line", ["row", "column"])
def test_permanent_of_a_zero_line_at_the_cap_never_reaches_struct(line, monkeypatch):
    def refuse(fmt):
        raise AssertionError("a zero line reached struct")

    n = counting.PERMANENT_CAP
    mat = [[1] * n for _ in range(n)]
    if line == "row":
        mat[n // 2] = [0] * n
    else:
        mat = [row[:n // 2] + [0] + row[n // 2 + 1:] for row in mat]
    monkeypatch.setattr(counting, "struct", SimpleNamespace(Struct=refuse))
    assert permanent(mat).is_zero


def test_permanent_of_the_rotational_tournament_of_order_21():
    # its cycle factors; the even row sums r = 10 give zero terms to drop
    g = rotational_tournament(21)
    mat = [[int(g.has_edge(u, v)) for v in range(21)] for u in range(21)]
    assert permanent(mat).exact == 16_866_126_115_498


def test_permanent_all_ones_beyond_64_bits():
    # the largest term, at every sign +1, reaches 16^16 = 2^64 here
    assert permanent([[1] * 16 for _ in range(16)]).exact == math.factorial(16)


@pytest.mark.parametrize("n, expected", [(18, 73937006085), (20, 4953176326150)])
def test_permanent_frozen_bench_sized_values(n, expected):
    # recorded with Ryser's formula, before Glynn's replaced it
    rng = random.Random(f"frozen-permanent:{n}")
    mat = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
    assert permanent(mat).exact == expected


def test_permanent_accepts_bool_and_float_entries():
    mat = [[True, False, True], [1.0, 1, 0.0], [False, 1.0, True]]
    ints = [[int(x) for x in row] for row in mat]
    assert permanent(mat).exact == permanent_bruteforce(ints) == 2
    with pytest.raises(ValueError):
        permanent([[0.5, 1], [1, 1]])


def test_permanent_cap():
    with pytest.raises(TooLargeError):
        permanent([[0] * 25 for _ in range(25)])


def test_permanent_dominates_hamilton_count():
    for seed in range(8):
        g = random_tournament(6, seed=seed)
        per = permanent([[int(g.has_edge(u, v)) for v in range(6)] for u in range(6)]).exact
        assert per >= count_hamilton_cycles_exact(g).exact


# -- Bregman ---------------------------------------------------------------

def test_bregman_small_values():
    assert bregman_bound([3, 3, 3]).close_to(LogCount.from_int(6))
    assert bregman_bound([1, 1, 1]).close_to(LogCount.from_int(1))
    assert bregman_bound([0, 2]).is_zero
    # degrees (2, 1): bound 2^(1/2), exact count of that graph is 1
    b = bregman_bound([2, 1])
    assert abs(b.value() - math.sqrt(2)) < 1e-12
    path = [[1, 1], [1, 0]]
    assert permanent(path).exact <= b.value() + 1e-12


def test_bregman_dominates_permanent():
    rng = random.Random(4)
    for _ in range(300):
        n = rng.randint(1, 6)
        mat = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        rows = [sum(r) for r in mat]
        assert permanent(mat).log <= bregman_bound(rows).log + 1e-9


def test_bregman_tight_on_block_diagonal_ones():
    for k in (1, 2, 3, 4):
        blocks = 2
        n = k * blocks
        mat = [[1 if i // k == j // k else 0 for j in range(n)] for i in range(n)]
        exact = permanent(mat)
        bound = bregman_bound([k] * n)
        assert bound.close_to(exact, tol=1e-9)


# -- Van der Waerden --------------------------------------------------------

def test_vdw_small_values():
    assert vdw_bound(3, 3).close_to(LogCount.from_int(6))
    assert vdw_bound(4, 1).log <= 0 + 1e-12  # m!/m^m <= 1
    assert vdw_bound(4, 2).value() == pytest.approx(1.5)
    # the 8-cycle is 2-regular with exactly 2 perfect matchings
    assert vdw_bound(4, 2).value() <= 2


def test_vdw_lower_bounds_regular_instances():
    for seed in range(10):
        m = 5 + seed % 3
        d = 2 + seed % 3
        b = random_regular_bipartite(m, d, seed=seed)
        mat = [[1 if (a, bb) in b.edges else 0 for bb in range(m)] for a in range(m)]
        exact = permanent(mat)
        assert vdw_bound(m, d).log <= exact.log + 1e-9


# -- Hamilton cycle counts ---------------------------------------------------

def test_count_cycles_small():
    assert count_hamilton_cycles_exact(rotational_tournament(3)).exact == 1
    trans = OrientedGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert count_hamilton_cycles_exact(trans).exact == 0


def test_count_cycles_rotational_frozen_values():
    # n = 9, 11, 13 come from an earlier push-style subset DP, not this code
    for n, cycles in ((5, 2), (7, 17), (9, 222), (11, 5109), (13, 166562)):
        assert count_hamilton_cycles_exact(rotational_tournament(n)).exact == cycles


def test_count_cycles_at_the_field_width_limit():
    # the benchmark's references at n = 17, and at the cap n = 20 the count
    # of the plain one-subset-per-entry DP, with 2^9 fields of 57 bits per
    # int (19! is 84% of 2^57)
    assert count_hamilton_cycles_exact(rotational_tournament(17)).exact == 455_248_142
    assert count_hamilton_cycles_exact(random_tournament(17, 0)).exact == 160_433_732
    assert count_hamilton_cycles_exact(random_tournament(20, 0)).exact == 60_436_004_541


def relabeled(g, seed):
    label = random.Random(seed).sample(range(g.n), g.n)
    return OrientedGraph(g.n, [(label[u], label[v]) for u, v in g.edges])


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_count_cycles_matches_enumeration_with_several_low_and_high_vertices(n):
    # each graph also under a seeded random relabeling, counted both after
    # the order search and in its own labels, whose low vertices have back
    # edges
    for seed in range(3):
        for g in (random_tournament(n, seed), random_regular_oriented(n, 2, seed),
                  random_regular_oriented(n, 3, seed)):
            assert count_hamilton_cycles_exact(g).exact == len(_hamilton_cycles(g))
            h = relabeled(g, seed)
            cycles = len(_hamilton_cycles(h))
            assert count_hamilton_cycles_exact(h).exact == cycles
            assert _count_cycles_in_order(h, range(n)) == cycles


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_count_cycles_when_the_low_vertices_need_every_sweep(n):
    # relabel along a Hamilton cycle 0, c_1, ..., c_(n-1) so that it reads
    # 0, l, l - 1, ..., 1, l + 1, ..., n - 1: each low vertex on it is
    # entered from the next higher one, which an ascending sweep updates
    # after it, so each sweep extends the run by one vertex and only the
    # l-th counts this cycle
    low = (n - 1) // 2
    for seed in range(3):
        for g in (random_regular_oriented(n, 3, seed), random_regular_oriented(n, 4, seed)):
            order = _hamilton_cycles(g)[0][0]
            label = {v: low + 1 - i if 1 <= i <= low else i for i, v in enumerate(order)}
            h = OrientedGraph(n, [(label[u], label[v]) for u, v in g.edges])
            assert all(h.has_edge(w + 1, w) for w in range(1, low))
            cycles = len(_hamilton_cycles(h))
            # in h's own labels, not in the order count_hamilton_cycles_exact picks
            assert _count_cycles_in_order(h, range(n)) == cycles
            assert count_hamilton_cycles_exact(h).exact == cycles


@pytest.mark.parametrize("n", [9, 11, 13])
def test_count_cycles_needs_one_sweep_more_than_the_back_edges(n):
    # a Hamilton cycle 0, 1, ..., l - b - 1, l, l - 1, ..., l - b, l + 1, ...,
    # n - 1 whose low run takes all b back edges, plus random edges that add
    # no back edge: the run is complete only after sweep b + 1 < l
    low = (n - 1) // 2
    for back in range(1, low - 1):
        run = [*range(1, low - back), *range(low, low - back - 1, -1)]
        order = [0, *run, *range(low + 1, n)]
        cycle = set(zip(order, order[1:] + [0]))
        for seed in range(3):
            rng = random.Random(seed)
            edges = set(cycle)
            for u, v in itertools.combinations(range(n), 2):
                if (u, v) not in cycle and (v, u) not in cycle and rng.random() < 0.5:
                    edges.add((u, v) if v <= low or rng.random() < 0.5 else (v, u))
            g = OrientedGraph(n, edges)
            assert sum(1 <= v < u <= low for u, v in g.edges) == back
            assert _count_cycles_in_order(g, range(n)) == len(_hamilton_cycles(g))


@pytest.mark.parametrize("n", range(3, 11))
def test_count_cycles_in_random_orders_matches_enumeration(n):
    # seeded random orders of random oriented graphs and tournaments put
    # the earliest back-edge head at every low position it can take, 1 to
    # l - 1 (a head needs a later low in-neighbour)
    low = (n - 1) // 2
    rng = random.Random(f"random-orders:{n}")
    firsts = set()
    for seed in range(12):
        g = random_tournament(n, seed) if seed % 3 == 0 else OrientedGraph(n, {
            (u, v) if rng.random() < 0.5 else (v, u)
            for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.4 + seed / 20})
        cycles = len(_hamilton_cycles(g))
        for _ in range(4):
            order = rng.sample(range(n), n)
            position = {v: i for i, v in enumerate(order)}
            heads = [position[w] for v, w in g.edges
                     if 1 <= position[w] < position[v] <= low]
            if heads:
                firsts.add(min(heads))
            assert _count_cycles_in_order(g, order) == cycles
    assert firsts == set(range(1, low))


def test_sweep_order_finds_no_back_edge_in_rotational_tournaments():
    for n in range(5, 20, 2):
        order, back = _sweep_order(rotational_tournament(n))
        assert sorted(order) == list(range(n)) and back == 0


def test_count_cycles_matches_bruteforce():
    for seed in range(10):
        g = random_tournament(6, seed=seed)
        assert count_hamilton_cycles_exact(g).exact == ham_cycles_bruteforce(g)
    for seed in range(4):
        g = random_regular_oriented(7, 2, seed=seed)
        assert count_hamilton_cycles_exact(g).exact == ham_cycles_bruteforce(g)


def test_count_cycles_with_low_in_degrees_and_edges_into_zero():
    # the rotational tournament of order 7 has the edges 4 -> 0, 5 -> 0 and
    # 6 -> 0 into vertex 0; cut every edge into 4 but 3 -> 4, then every
    # edge into 5 as well
    rot = rotational_tournament(7)
    one = OrientedGraph(7, [e for e in rot.edges if e[1] != 4 or e[0] == 3])
    none = OrientedGraph(7, [e for e in one.edges if e[1] != 5])
    assert one.in_degree(4) == 1 and none.in_degree(5) == 0
    assert count_hamilton_cycles_exact(one).exact == ham_cycles_bruteforce(one) > 0
    assert count_hamilton_cycles_exact(none).exact == ham_cycles_bruteforce(none) == 0
    # a directed 6-cycle: every in-degree is 1, and one edge enters 0
    ring = OrientedGraph(6, [(v, (v + 1) % 6) for v in range(6)])
    assert count_hamilton_cycles_exact(ring).exact == ham_cycles_bruteforce(ring) == 1


@settings(max_examples=60, deadline=None)
@given(oriented_graphs(min_n=1, max_n=8))
def test_count_cycles_matches_bruteforce_hypothesis(g):
    assert count_hamilton_cycles_exact(g).exact == ham_cycles_bruteforce(g)


# -- decomposition counts ----------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(oriented_graphs(max_n=8))
def test_hamilton_cycle_masks_match_orders_and_the_cycle_count(g):
    cycles = _hamilton_cycles(g)
    assert len(cycles) == count_hamilton_cycles_exact(g).exact
    index = {e: i for i, e in enumerate(sorted(g.edges))}
    for order, mask in cycles:
        assert sorted(order) == list(range(g.n))
        steps = zip(order, order[1:] + order[:1])
        assert mask == sum(1 << index[e] for e in steps)


@pytest.mark.parametrize("n, r", [(5, 2), (7, 2), (7, 3), (8, 2), (8, 3)])
def test_decomposition_counts_match_bruteforce(n, r):
    for seed in range(5):
        g = random_regular_oriented(n, r, seed)
        expected = decompositions_bruteforce(g, r)
        assert count_hamilton_decompositions_exact(g).exact == expected
        assert count_hamilton_decompositions_ordered(g).exact == expected
        found = find_hamilton_decomposition(g)
        assert (found is not None) == (expected >= 1)
        if found is not None:
            sets = [frozenset(zip(o, o[1:] + o[:1])) for o in found]
            assert all(len(o) == n for o in found) and len(sets) == r
            assert sum(map(len, sets)) == len(g.edges)
            assert frozenset().union(*sets) == g.edges

def test_decomposition_counts_trivial():
    assert count_hamilton_decompositions_exact(rotational_tournament(3)).exact == 1
    trans = OrientedGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert count_hamilton_decompositions_exact(trans).exact == 0
    edgeless = OrientedGraph(3, [])
    assert count_hamilton_decompositions_exact(edgeless).exact == 1


def test_decomposition_counts_rotational_frozen_values():
    assert count_hamilton_decompositions_exact(rotational_tournament(5)).exact == 1
    assert count_hamilton_decompositions_exact(rotational_tournament(7)).exact == 1


def test_decomposition_strategies_agree():
    for n in (3, 5, 7):
        g = rotational_tournament(n)
        a = count_hamilton_decompositions_exact(g).exact
        b = count_hamilton_decompositions_ordered(g).exact
        assert a == b
    for seed in range(6):
        g = random_regular_oriented(8, 2, seed=seed)
        a = count_hamilton_decompositions_exact(g).exact
        b = count_hamilton_decompositions_ordered(g).exact
        assert a == b


def test_decomposition_cap():
    with pytest.raises(TooLargeError):
        count_hamilton_decompositions_exact(rotational_tournament(11))


def test_decomposition_cap_keeps_every_order_the_two_old_caps_allowed():
    # the old rule: n <= 7, or r <= 2 and n <= 12
    for n in range(3, 13):
        for r in range((n - 1) // 2 + 1):
            if n <= 7 or (r <= 2 and n <= 12):
                counting._check_decomposition_cap(n, r)
    # r^n at the cap itself passes, one step beyond it is refused
    for n, r in ((10, 4), (20, 2), (MAX_N, 1)):
        counting._check_decomposition_cap(n, r)
    for n, r in ((11, 4), (21, 2), (9, 5), (MAX_N + 1, 1)):
        with pytest.raises(TooLargeError):
            counting._check_decomposition_cap(n, r)


def test_decomposition_cap_on_random_4_regular_graphs():
    with pytest.raises(TooLargeError):
        count_hamilton_decompositions_exact(random_regular_oriented(11, 4, 0))
    g = random_regular_oriented(10, 4, 0)
    assert count_hamilton_decompositions_exact(g).exact == 313
    assert len(find_hamilton_decomposition(g)) == 4


@pytest.mark.parametrize("n, error", [(0, EvenOrderError), (4, EvenOrderError),
                                      (1, VertexOutOfRangeError), (11, TooLargeError)])
def test_sandwich_orders_outside_the_caps(n, error):
    with pytest.raises(error):
        sandwich_experiment(n)


@pytest.mark.parametrize("n", [11, 10**8 + 1])
def test_sandwich_refuses_orders_beyond_the_cap_before_building(n, monkeypatch):
    built = []
    monkeypatch.setattr(counting, "rotational_tournament", built.append)
    t0 = time.perf_counter()
    with pytest.raises(TooLargeError):
        sandwich_experiment(n)
    assert time.perf_counter() - t0 < 0.5
    assert not built


def test_sandwich_at_nine():
    # both counts agree, or the sandwich raises
    bounds, payload = sandwich_experiment(9)
    assert payload["exact_count"] == bounds.exact.exact == 144
    assert payload["holds"] and bounds.holds()
    assert math.isfinite(payload["lower_log"])


def test_sandwich_range_follows_the_decomposition_cap(monkeypatch):
    monkeypatch.setattr(counting, "DECOMP_CAP", 4**9 - 1)
    assert sandwich_experiment(7)[1]["exact_count"] == 1
    with pytest.raises(TooLargeError):
        sandwich_experiment(9)


def test_sandwich_enumerates_the_cycles_once_per_route(monkeypatch):
    calls = []

    def recorded(g):
        calls.append(g.n)
        return _hamilton_cycles(g)

    monkeypatch.setattr(counting, "_hamilton_cycles", recorded)
    sandwich_experiment(7)
    assert calls == [7, 7]


def test_cycle_count_cap():
    with pytest.raises(TooLargeError):
        count_hamilton_cycles_exact(rotational_tournament(21))


def test_find_decomposition():
    found = find_hamilton_decomposition(rotational_tournament(5))
    assert found is not None and len(found) == 2
    union = set()
    for order in found:
        edges = {(order[i], order[(i + 1) % 5]) for i in range(5)}
        assert len(order) == 5 and not (union & edges)
        union |= edges
    assert union == set(rotational_tournament(5).edges)
    trans = OrientedGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert find_hamilton_decomposition(trans) is None


def first_cover_by_dfs(g):
    """The first canonical cover met by an unmemoised depth-first search."""
    cycles = _hamilton_cycles(g) if g.edges else []
    through = [[c for c in cycles if c[1] >> i & 1] for i in range(len(g.edges))]

    def first(rest):
        if not rest:
            return []
        low = (rest & -rest).bit_length() - 1
        for order, m in through[low]:
            if m & rest == m:
                tail = first(rest ^ m)
                if tail is not None:
                    return [order] + tail
        return None

    return first((1 << len(g.edges)) - 1)


def test_witness_is_the_first_cover_of_the_depth_first_search():
    graphs = [random_regular_oriented(n, r, seed)
              for n in range(3, 11) for r in range(1, (n - 1) // 2 + 1)
              if r ** n <= counting.DECOMP_CAP for seed in range(6)]
    graphs += [rotational_tournament(n) for n in (3, 5, 7, 9)]
    assert len(graphs) == 124
    found = 0
    for g in graphs:
        witness = find_hamilton_decomposition(g)
        assert witness == first_cover_by_dfs(g)
        assert (witness is None) == (count_hamilton_decompositions_exact(g).exact == 0)
        found += witness is not None
    assert found == 91


# -- iterated upper bound -----------------------------------------------------

def test_decomposition_upper_bound_values():
    assert decomposition_upper_bound(3, 1).value() == pytest.approx(1.0)
    assert decomposition_upper_bound(5, 2).value() == pytest.approx(2 ** 2.5)
    expected = (2 ** 3.5) * (6 ** (7 / 3))
    assert decomposition_upper_bound(7, 3).value() == pytest.approx(expected)


def test_decomposition_upper_bound_dominates_exact():
    for n in (3, 5, 7):
        g = rotational_tournament(n)
        exact = count_hamilton_decompositions_exact(g)
        upper = decomposition_upper_bound(n, (n - 1) // 2)
        assert exact.leq(upper, tol=1e-9)
