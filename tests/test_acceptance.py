"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime (run with `pytest -s tests/test_acceptance.py` to see them).

Every expected value is either computed by an independent oracle inside the
test (permutation enumeration, literal subset inequalities, exact
permanents) or frozen from such an oracle.
"""

import itertools
import random
import time

from conftest import bruteforce_completable, plant_completable_instance

from hamdec.assembly import complete_cover_to_cycle, hamilton_path_between, verify_completed_cycle
from hamdec.counting import (
    bregman_bound,
    count_hamilton_decompositions_exact,
    count_hamilton_decompositions_ordered,
    decomposition_upper_bound,
    permanent,
    vdw_bound,
)
from hamdec.errors import HamdecError
from hamdec.factors import (
    gale_ryser_oracle,
    has_bipartite_r_factor,
    random_regular_bipartite,
)
from hamdec.graphs import BipartiteGraph, OrientedGraph, rotational_tournament
from hamdec.partition import build_partition, verify_partition
from hamdec.pathcovers import complete_digraph_path_decomposition
from hamdec.pipeline import RunConfig, approximate_decomposition, verify_certificate


def _report(num, name, t0, budget, extra=""):
    elapsed = time.perf_counter() - t0
    suffix = f" {extra}" if extra else ""
    print(f"[criterion {num}] {name}: PASS ({elapsed:.1f}s < {budget}s){suffix}")
    assert elapsed < budget


def test_criterion_1_gale_ryser_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(101)
    instances = 0
    while instances < 200:
        m = rng.randint(1, 6)
        edges = {(a, b) for a in range(m) for b in range(m)
                 if rng.random() < rng.choice((0.2, 0.5, 0.8))}
        b = BipartiteGraph(m, m, edges)
        for r in range(m + 1):
            assert has_bipartite_r_factor(b, r) == gale_ryser_oracle(b, r)
        instances += 1
    _report(1, "Gale-Ryser b-matching/inequality equivalence", t0, 10,
            f"({instances} instances, all r)")


def test_criterion_2_bregman_upper_bound():
    t0 = time.perf_counter()
    rng = random.Random(202)
    checked = 0
    while checked < 1000:
        n = rng.randint(1, 8)
        mat = [[1 if rng.random() < rng.choice((0.3, 0.6, 0.9)) else 0
                for _ in range(n)] for _ in range(n)]
        exact = permanent(mat)
        bound = bregman_bound([sum(row) for row in mat])
        assert exact.log <= bound.log + 1e-9
        checked += 1
    for block in (1, 2, 3, 4):
        copies = max(1, 8 // block)
        n = block * copies
        mat = [[1 if i // block == j // block else 0 for j in range(n)]
               for i in range(n)]
        exact = permanent(mat)
        bound = bregman_bound([block] * n)
        assert abs(bound.log - exact.log) <= 1e-9
    _report(2, "Bregman bound dominates exact permanents", t0, 30,
            f"({checked} matrices + tight blocks)")


def test_criterion_3_vdw_lower_bound():
    t0 = time.perf_counter()
    rng = random.Random(303)
    tested = 0

    def pm_count(b):
        m = b.m
        mat = [[1 if (a, bb) in b.edges else 0 for bb in range(m)] for a in range(m)]
        return permanent(mat)

    # complete bipartite graphs: the bound is tight
    for m in range(1, 9):
        b = BipartiteGraph(m, m, {(a, bb) for a in range(m) for bb in range(m)})
        exact = pm_count(b)
        bound = vdw_bound(m, m)
        assert abs(bound.log - exact.log) <= 1e-9
        tested += 1
    # even cycles: 2-regular with exactly two perfect matchings
    for m in range(2, 9):
        edges = {(i, i) for i in range(m)} | {(i, (i - 1) % m) for i in range(m)}
        b = BipartiteGraph(m, m, edges)
        exact = pm_count(b)
        assert exact.exact == 2
        assert vdw_bound(m, 2).log <= exact.log + 1e-9
        tested += 1
    while tested < 200:
        m = rng.randint(2, 8)
        d = rng.randint(1, m)
        b = random_regular_bipartite(m, d, seed=rng.randrange(1 << 30))
        exact = pm_count(b)
        assert vdw_bound(m, d).log <= exact.log + 1e-9
        tested += 1
    _report(3, "Van der Waerden bound below exact matching counts", t0, 30,
            f"({tested} regular instances)")


def test_criterion_4_decomposition_sandwich():
    t0 = time.perf_counter()
    # frozen from permutation brute force at 3-7; at 9 from both counters
    expected_exact = {3: 1, 5: 1, 7: 1, 9: 144}
    for n in (3, 5, 7, 9):
        g = rotational_tournament(n)
        r = (n - 1) // 2
        canonical = count_hamilton_decompositions_exact(g)
        ordered = count_hamilton_decompositions_ordered(g)
        assert canonical.exact == ordered.exact == expected_exact[n]
        upper = decomposition_upper_bound(n, r)
        assert 1 <= canonical.exact
        assert canonical.log <= upper.log + 1e-9
    _report(4, "decomposition sandwich with two agreeing counters", t0, 300)


def test_criterion_5_complete_digraph_path_decomposition():
    t0 = time.perf_counter()
    for b in range(2, 17, 2):
        decomp = complete_digraph_path_decomposition(b)
        assert len(decomp.paths) == b
        seen = set()
        for p in decomp.paths:
            assert sorted(p) == list(range(b))
            for e in zip(p, p[1:]):
                assert e not in seen
                seen.add(e)
        assert seen == {(u, v) for u in range(b) for v in range(b) if u != v}
    _report(5, "complete-digraph Hamilton path decompositions", t0, 1)


def test_criterion_6_cover_completion():
    t0 = time.perf_counter()
    rng = random.Random(606)
    attempted = succeeded = 0
    while attempted < 100:
        a = rng.randint(1, 4)
        w_size = rng.randint(max(8, 5 * a), 24)
        seed = rng.randrange(1 << 30)
        host, paths = plant_completable_instance(seed, w_size, a)
        confirmed = bruteforce_completable(paths, host)
        if confirmed is not True:
            continue
        attempted += 1
        try:
            cycle = complete_cover_to_cycle(paths, host, seed=seed, enforce_margin=False)
        except HamdecError:
            continue
        assert verify_completed_cycle(cycle, paths, host)
        succeeded += 1
    assert succeeded >= 95
    _report(6, "cover completion on confirmed-completable instances", t0, 60,
            f"({succeeded}/{attempted} succeeded)")


def test_criterion_7_pipeline_soundness():
    t0 = time.perf_counter()
    summary = []
    for n in (11, 25, 51, 101):
        g = rotational_tournament(n)
        ks = []
        for seed in range(5):
            cert, report = approximate_decomposition(g, RunConfig(seed=seed))
            ok, violation = verify_certificate(g, cert)
            assert ok, f"n={n} seed={seed}: {violation}"
            assert cert.k <= cert.reg
            if n >= 25:
                assert cert.k >= 1
            ks.append(cert.k)
        summary.append(f"n={n}: k={ks} reg={cert.reg}")
    _report(7, "pipeline soundness over sizes and seeds", t0, 300,
            "; ".join(summary))


def test_criterion_8_partition_mechanics():
    t0 = time.perf_counter()
    k, eps = 2, 0.3
    total = k ** 3
    assert (total - 2 * k) * ((1 - eps) / (total - 2 * k)) + 2 * k * (eps / (2 * k)) == 1.0
    g = rotational_tournament(101)
    specs, report = build_partition(g, g, k=k, eps=eps, seed=8, retry_budget=3)
    assert len(specs) == total
    seen = set()
    for spec in specs:
        edges = spec.all_edges()
        assert not (seen & edges) and edges <= g.edges
        seen |= edges
    counts = [0] * 101
    for spec in specs:
        for v in spec.w_vertices:
            counts[v] += 1
    assert all(c == k for c in counts)
    recomputed = verify_partition(g, g, specs, k=k, eps=eps)
    assert recomputed == report.stats
    _report(8, "partition mechanics at n=101, K=2", t0, 10)


def test_criterion_9_hamilton_connectivity_oracle():
    t0 = time.perf_counter()

    def exists_by_permutations(g, s, t):
        rest = [v for v in range(g.n) if v not in (s, t)]
        for perm in itertools.permutations(rest):
            seq = (s,) + perm + (t,)
            if all(g.has_edge(seq[i], seq[i + 1]) for i in range(len(seq) - 1)):
                return True
        return False

    rng = random.Random(909)
    checked = 0
    while checked < 500:
        n = rng.randint(2, 7)
        p = rng.choice((0.2, 0.4, 0.6, 0.9))
        edges = set()
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    edges.add((u, v) if rng.random() < 0.5 else (v, u))
        g = OrientedGraph(n, edges)
        s, t = rng.sample(range(n), 2)
        found = hamilton_path_between(g, s, t, budget=None, seed=checked)
        assert (found is not None) == exists_by_permutations(g, s, t)
        if found is not None:
            assert found.vertices[0] == s and found.vertices[-1] == t
            assert all(g.has_edge(u, v) for u, v in found.edges())
        checked += 1

    g7 = rotational_tournament(7)
    for s in range(7):
        for t in range(7):
            if s != t:
                path = hamilton_path_between(g7, s, t, budget=None)
                assert path is not None and sorted(path.vertices) == list(range(7))
    _report(9, "exact path search agrees with permutation enumeration", t0, 60,
            f"({checked} random instances + 42 pairs)")
