"""verify_certificate against single faults of pipeline certificates, and
against a set-algebra verifier kept here as the reference oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import hamdec.pipeline
from hamdec.assembly import HamiltonCycle
from hamdec.factors import oriented_reg
from hamdec.graphs import random_regular_oriented, random_tournament, rotational_tournament
from hamdec.pipeline import (
    DecompositionCertificate,
    RunConfig,
    approximate_decomposition,
    graph_digest,
    verify_certificate,
)

from conftest import oriented_graphs


def reference_verify(g, cert):
    """Every certificate invariant checked by set algebra over whole edge
    sets, one cycle at a time; the reference the per-vertex pass must match."""
    if cert.n != g.n:
        return False, "SizeMismatch"
    if cert.graph_sha256 != graph_digest(g):
        return False, "GraphHashMismatch"
    vertices = set(range(g.n))
    edges = g.edges
    used = set()
    for cyc in cert.cycles:
        # (0, 1.0) spans {0, 1} as a set, so the vertices' type is tested too
        if not (all(isinstance(v, int) for v in cyc.order) and cyc.spans(vertices)):
            return False, "NotHamiltonian"
        if not cyc.edges <= edges:
            return False, "UnknownEdge"
        if used & cyc.edges:
            return False, "EdgeReuse"
        used |= cyc.edges
    if cert.leftover & used:
        return False, "LeftoverOverlap"
    if not cert.leftover <= edges:
        return False, "UnknownEdge"
    if used | cert.leftover != edges:
        return False, "LeftoverMismatch"
    if cert.reg != oriented_reg(g):
        return False, "RegMismatch"
    if cert.k > cert.reg:
        return False, "TooManyCycles"
    return True, None


# fault -> the violation it must be reported as
FAULTS = {
    "drop_leftover_edge": "LeftoverMismatch",
    "add_non_edge": "UnknownEdge",
    "cycle_edge_into_leftover": "LeftoverOverlap",
    "repeat_cycle": "EdgeReuse",
    "reverse_cycle": "UnknownEdge",
    "leftover_vertex_out_of_range": "UnknownEdge",
    "cycle_drops_vertex": "NotHamiltonian",
    "cycle_vertex_n": "NotHamiltonian",
    "cycle_vertex_minus_one": "NotHamiltonian",
    "cycle_vertex_wraps": "NotHamiltonian",
    "cycle_float_vertex": "NotHamiltonian",
    "cycle_wound_twice": "NotHamiltonian",
    "reg_off_by_one": "RegMismatch",
}
# faults of one cycle's vertex order
ORDER_FAULTS = ("cycle_drops_vertex", "cycle_vertex_n", "cycle_vertex_minus_one",
                "cycle_vertex_wraps", "cycle_float_vertex", "cycle_wound_twice")


def with_fault(g, cert, fault, rng):
    """cert with the single fault named, or None where cert cannot carry it."""
    n, cycles, leftover, reg = g.n, cert.cycles, cert.leftover, cert.reg
    if fault in ("drop_leftover_edge", "leftover_vertex_out_of_range") and not leftover:
        return None
    if fault in ("cycle_edge_into_leftover", "repeat_cycle", "reverse_cycle", *ORDER_FAULTS
                 ) and not cycles:
        return None
    if fault == "drop_leftover_edge":
        leftover = leftover - {rng.choice(sorted(leftover))}
    elif fault == "add_non_edge":
        edges = g.edges
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (u, v) not in edges]
        leftover = leftover | {rng.choice(pairs)}
    elif fault == "cycle_edge_into_leftover":
        leftover = leftover | {rng.choice(sorted(rng.choice(cycles).edges))}
    elif fault == "repeat_cycle":
        cycles = cycles + (rng.choice(cycles),)
    elif fault == "reverse_cycle":
        # not from_order, which refuses a cycle an earlier fault wound twice
        i = rng.randrange(len(cycles))
        cycles = cycles[:i] + (HamiltonCycle(cycles[i].order[::-1]),) + cycles[i + 1:]
    elif fault in ORDER_FAULTS:
        i = rng.randrange(len(cycles))
        order = list(cycles[i].order)
        if not order:  # earlier faults dropped every vertex
            return None
        j = rng.randrange(len(order))
        if fault == "cycle_drops_vertex":
            del order[j]
        elif fault == "cycle_wound_twice":
            order += order
        else:
            # v - n keeps v's residue, so a verifier indexing by it would wrap
            order[j] = {"cycle_vertex_n": n, "cycle_vertex_minus_one": -1,
                        "cycle_vertex_wraps": order[j] - n,
                        "cycle_float_vertex": float(order[j])}[fault]
        cycles = cycles[:i] + (HamiltonCycle(tuple(order)),) + cycles[i + 1:]
    elif fault == "reg_off_by_one":
        # one below may leave k above reg, but reg is checked first
        reg += 1 if reg == 0 or rng.random() < 0.5 else -1
    else:
        # shifting an endpoint by a multiple of n keeps its residue, so a
        # verifier that let a negative index wrap around would accept it
        u, v = edge = rng.choice(sorted(leftover))
        shift = n * rng.choice((-2, -1, 1))
        moved = (u + shift, v) if rng.random() < 0.5 else (u, v + shift)
        leftover = leftover - {edge} | {moved}
    return DecompositionCertificate(cert.n, cert.graph_sha256, cycles, leftover, reg)


small_graphs = st.one_of(
    oriented_graphs(max_n=14),
    st.builds(rotational_tournament, st.sampled_from([3, 5, 7, 9, 11, 13])),
    st.integers(7, 15).flatmap(lambda n: st.builds(
        random_regular_oriented, st.just(n), st.integers(1, (n - 1) // 2),
        st.integers(0, 100))),
)


@settings(max_examples=150, deadline=None)
@given(small_graphs, st.integers(0, 100), st.sampled_from(sorted(FAULTS)),
       st.integers(0, 2 ** 32 - 1))
def test_each_single_fault_is_rejected_with_its_violation(g, seed, fault, fault_seed):
    cert, _ = approximate_decomposition(g, RunConfig(seed=seed))
    assert verify_certificate(g, cert) == reference_verify(g, cert) == (True, None)
    bad = with_fault(g, cert, fault, random.Random(fault_seed))
    if bad is not None:
        assert verify_certificate(g, bad) == reference_verify(g, bad) == (False, FAULTS[fault])


@settings(max_examples=100, deadline=None)
@given(small_graphs, st.integers(0, 100), st.lists(st.sampled_from(sorted(FAULTS)), max_size=4),
       st.integers(0, 2 ** 32 - 1))
def test_verifier_accepts_exactly_what_the_reference_accepts(g, seed, faults, fault_seed):
    # several faults may be reported in another order, but never accepted
    cert, _ = approximate_decomposition(g, RunConfig(seed=seed))
    rng = random.Random(fault_seed)
    for fault in faults:
        cert = with_fault(g, cert, fault, rng) or cert
    ok, violation = verify_certificate(g, cert)
    assert ok == reference_verify(g, cert)[0]
    assert ok == (violation is None)


def test_negative_leftover_vertex_does_not_wrap_around():
    g = rotational_tournament(9)
    cert, _ = approximate_decomposition(g, RunConfig(seed=0))
    u, v = edge = min(cert.leftover)
    for moved in ((u - 9, v), (u, v - 9), (u + 9, v)):
        bad = DecompositionCertificate(9, cert.graph_sha256, cert.cycles,
                                       cert.leftover - {edge} | {moved}, cert.reg)
        assert verify_certificate(g, bad) == (False, "UnknownEdge")


@pytest.mark.parametrize("move", ["float_tail", "str_tail", "none_tail", "str_head", "none_head"])
def test_leftover_vertex_that_is_not_an_int_is_an_unknown_edge(move):
    # certificates built in Python skip from_json's integer check; the
    # verdict must still come back, not a TypeError
    g = rotational_tournament(11)
    cert, _ = approximate_decomposition(g, RunConfig(seed=0))
    u, v = edge = min(cert.leftover)
    moved = {"float_tail": (float(u), v), "str_tail": (str(u), v), "none_tail": (None, v),
             "str_head": (u, str(v)), "none_head": (u, None)}[move]
    bad = DecompositionCertificate(11, cert.graph_sha256, cert.cycles,
                                   cert.leftover - {edge} | {moved}, cert.reg)
    assert verify_certificate(g, bad) == (False, "UnknownEdge")


def test_cycle_wound_twice_is_not_hamiltonian():
    # a cycle that winds round twice covers every vertex, as a set
    g = rotational_tournament(3)
    twice = HamiltonCycle((0, 1, 2, 0, 1, 2))
    assert not twice.spans({0, 1, 2})
    assert HamiltonCycle((0, 1, 2)).spans({0, 1, 2})
    cert = DecompositionCertificate(3, graph_digest(g), (twice,), frozenset(), 1)
    assert verify_certificate(g, cert) == reference_verify(g, cert) == (False, "NotHamiltonian")


@pytest.mark.parametrize("fault", sorted(set(FAULTS) - {"reg_off_by_one"}))
def test_faults_found_before_the_reg_check_compute_no_reg(fault, monkeypatch):
    # a tournament that is not regular, so its reg takes a b-matching
    g = random_tournament(15, 1)
    cert, _ = approximate_decomposition(g)
    bad = with_fault(g, cert, fault, random.Random(fault))
    calls = []
    monkeypatch.setattr(hamdec.pipeline, "oriented_reg", lambda g: calls.append(g) or 0)
    assert verify_certificate(g, bad) == (False, FAULTS[fault])
    assert calls == []


@pytest.mark.parametrize("g", [random_tournament(15, 1), rotational_tournament(3)],
                         ids=["tournament", "reg_1"])
def test_reg_off_by_one_is_a_reg_mismatch(g):
    # both directions, so one below reg also leaves k above it on the
    # rotational tournament, whose one cycle makes k = reg = 1
    cert, _ = approximate_decomposition(g)
    shifts = set()
    for fault_seed in range(8):
        bad = with_fault(g, cert, "reg_off_by_one", random.Random(fault_seed))
        shifts.add(bad.reg - cert.reg)
        assert verify_certificate(g, bad) == reference_verify(g, bad) == (False, "RegMismatch")
    assert shifts == {-1, 1}


def test_size_mismatch_neither_hashes_nor_computes_reg(monkeypatch):
    g = random_tournament(15, 1)
    cert, _ = approximate_decomposition(g)
    bigger = DecompositionCertificate(16, cert.graph_sha256, cert.cycles, cert.leftover, cert.reg)
    calls = []
    monkeypatch.setattr(hamdec.pipeline, "graph_digest", lambda g: calls.append("digest"))
    monkeypatch.setattr(hamdec.pipeline, "oriented_reg", lambda g: calls.append("reg"))
    assert verify_certificate(g, bigger) == (False, "SizeMismatch")
    assert calls == []
