"""Tests of the benchmark's own checkers and oracles.

    python3 -m pytest -q bench
"""

import hashlib
import itertools
import math
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hamdec  # noqa: E402
import hamdec.graphs  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def brute_permanent(rows):
    n = len(rows)
    return sum(math.prod(rows[i][p[i]] for i in range(n))
               for p in itertools.permutations(range(n)))


def brute_hamilton_cycles(n, edges):
    """Vertex orders starting at 0, each closing back to 0 along edges."""
    found = []
    for rest in itertools.permutations(range(1, n)):
        order = (0,) + rest
        cyc = frozenset((order[i], order[(i + 1) % n]) for i in range(n))
        if cyc <= edges:
            found.append(cyc)
    return found


def brute_decompositions(n, edges):
    cycles = brute_hamilton_cycles(n, edges)

    def count(left):
        if not left:
            return 1
        anchor = min(left)
        return sum(count(left - c) for c in cycles if anchor in c and c <= left)

    return count(frozenset(edges))


def partial_certificate(n):
    g = hamdec.graphs.rotational_tournament(n)
    return g, workloads.rotational_certificate(g, (n - 1) // 4)


def test_constructed_certificates_are_valid():
    for n in (11, 13, 211):
        g = hamdec.graphs.rotational_tournament(n)
        reg = (n - 1) // 2
        for kept in (reg, reg // 2):
            cert = workloads.rotational_certificate(g, kept)
            assert checks.check_certificate(n, set(g.edges), cert.to_json(), reg) is None
            assert cert.k == kept


def test_digest_matches_the_edge_list_format():
    g = hamdec.graphs.random_tournament(9, 3)
    text = hamdec.write_edge_list(g)
    assert checks.edge_list_sha256(9, g.edges) == hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.mark.parametrize("kind", sorted(workloads.TAMPERINGS))
def test_each_tampering_is_rejected(kind):
    g, cert = partial_certificate(13)
    violation, own = workloads.TAMPERINGS[kind]
    bad = workloads.tampered(cert, kind, random.Random(kind))
    assert checks.check_certificate(13, set(g.edges), bad.to_json(), 6) == own
    assert hamdec.verify_certificate(g, bad) == (False, violation)


def test_checker_rejects_k_field_and_too_many_cycles():
    g, cert = partial_certificate(13)
    doc = cert.to_json()
    assert checks.check_certificate(13, set(g.edges), dict(doc, k=doc["k"] + 1), 6) == "k_field"
    # k <= reg is checked against the oracle: an oracle below k rejects
    assert checks.check_certificate(13, set(g.edges), dict(doc, reg=2), 2) == "too_many_cycles"


def workload_graphs(seeds=(0, 1)):
    for n, _ in workloads.ROTATIONAL:
        yield hamdec.graphs.rotational_tournament(n)
    for kind, n, graph_seed in workloads.RANDOM:
        if kind == "tournament":
            yield hamdec.graphs.random_tournament(n, graph_seed)
        else:
            yield hamdec.graphs.random_regular_oriented(n, workloads.REGULAR_DEGREE, graph_seed)
    for n in workloads.VERIFY_SIZES:
        yield hamdec.graphs.rotational_tournament(n)
    for seed in seeds:
        yield hamdec.graphs.random_tournament(workloads.REG_QUERY_SIZE, seed)


def test_reg_oracle_agrees_with_oriented_reg_on_every_workload_instance():
    for g in workload_graphs():
        assert checks.reg_oracle(g.n, set(g.edges)) == hamdec.oriented_reg(g), g


def test_reg_oracle_on_irregular_graphs():
    # a directed 5-cycle plus one chord: the chord's tail has out-degree 2,
    # so the flow search runs and finds the 1-factor
    edges = {(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)}
    assert checks.reg_oracle(5, edges) == 1
    # a transitive triangle has no 1-factor
    assert checks.reg_oracle(3, {(0, 1), (1, 2), (0, 2)}) == 0


def test_permanent_reference():
    rng = random.Random(1)
    for n in range(1, 8):
        rows = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
        assert checks.permanent_reference(rows) == brute_permanent(rows)
        assert checks.permanent_reference([[1] * n] * n) == math.factorial(n)
        assert checks.derangements(n) == brute_permanent(
            [[int(i != j) for j in range(n)] for i in range(n)])
    rows = [[int(i != j) for j in range(20)] for i in range(20)]
    assert checks.permanent_reference(rows) == checks.derangements(20)


def test_hamilton_cycle_reference():
    for n, seed in ((5, 0), (7, 1), (8, 2)):
        g = hamdec.graphs.random_tournament(n, seed)
        assert checks.hamilton_cycle_count_reference(n, g.edges) == len(
            brute_hamilton_cycles(n, g.edges))
    for n, count in checks.ROTATIONAL_HAMILTON_CYCLES.items():
        g = hamdec.graphs.rotational_tournament(n)
        assert checks.hamilton_cycle_count_reference(n, g.edges) == count
    for (n, seed), count in checks.RANDOM_TOURNAMENT_HAMILTON_CYCLES.items():
        g = hamdec.graphs.random_tournament(n, seed)
        assert checks.hamilton_cycle_count_reference(n, g.edges) == count


def test_decomposition_table():
    for n, count in checks.ROTATIONAL_DECOMPOSITIONS.items():
        g = hamdec.graphs.rotational_tournament(n)
        assert brute_decompositions(n, g.edges) == count


def test_reference_seconds_use_the_probes_nearest_a_section():
    sampler = speed.Sampler()
    sampler.times = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    sampler.lengths = [speed.NOMINAL] * 5 + [2 * speed.NOMINAL] * 2
    # probes at nominal speed leave a long section's seconds as they are
    assert sampler.reference_seconds((0.5, 5.5, 4.0)) == pytest.approx(4.0)
    # a short section holds no probe: the five nearest, two at half speed
    assert sampler.reference_seconds((6.4, 6.5, 0.1)) == pytest.approx(0.1 * 4 / 5)


def run_items(items):
    m = run.Measurement()
    m.run(items, 0.0, workloads.CheckFailed)
    return m


def test_broken_certificate_raises_fail_rate(monkeypatch):
    g = hamdec.graphs.rotational_tournament(11)
    items = [workloads.pipeline_item("rotational.n11", g, 0)]
    assert run_items(items).failed == 0

    honest = hamdec.approximate_decomposition

    def loses_a_cycle(graph, config=None):
        cert, report = honest(graph, config)
        broken = hamdec.DecompositionCertificate(
            cert.n, cert.graph_sha256, cert.cycles[1:], cert.leftover, cert.reg)
        report.k = broken.k
        return broken, report

    monkeypatch.setattr(hamdec, "approximate_decomposition", loses_a_cycle)
    m = run_items(items)
    assert m.failed == m.attempted == 1
    assert "leftover_mismatch" in m.failures["rotational.n11"]


def test_verifier_that_accepts_everything_fails_the_tampered_items(monkeypatch):
    items = [i for i in workloads.build("verify", 0) if "tampered" in i.name]
    monkeypatch.setattr(hamdec, "verify_certificate", lambda g, cert: (True, None))
    m = run_items(items)
    assert m.failed == m.attempted == len(workloads.TAMPERINGS)


def test_wrong_count_fails(monkeypatch):
    items = [i for i in workloads.build("counting", 0) if i.name.startswith("permanent")]
    honest = hamdec.permanent
    monkeypatch.setattr(hamdec, "permanent",
                        lambda rows: hamdec.LogCount.from_int(honest(rows).exact + 1))
    m = run_items(items)
    assert m.failed == m.attempted == len(items)
