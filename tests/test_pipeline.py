import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hamdec
from hamdec.counting import sandwich_experiment
from hamdec.errors import FormatError, TooLargeError
from hamdec.graphs import (
    MAX_N,
    OrientedGraph,
    random_regular_oriented,
    random_tournament,
    rotational_tournament,
    write_edge_list,
)
from hamdec.pipeline import (
    DecompositionCertificate,
    RunConfig,
    approximate_decomposition,
    graph_digest,
    verify_certificate,
)
from hamdec.assembly import HamiltonCycle

from conftest import oriented_graphs


def test_triangle_full_decomposition():
    g = rotational_tournament(3)
    cert, report = approximate_decomposition(g, RunConfig(seed=1))
    assert cert.k == cert.reg == 1
    assert not cert.leftover
    assert verify_certificate(g, cert) == (True, None)


def test_transitive_tournament_reg_zero():
    g = OrientedGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    cert, report = approximate_decomposition(g, RunConfig(seed=1))
    assert cert.reg == 0 and cert.k == 0
    assert cert.leftover == g.edges
    assert verify_certificate(g, cert) == (True, None)


def test_rotational5_finds_a_cycle():
    g = rotational_tournament(5)
    cert, report = approximate_decomposition(g, RunConfig(seed=0))
    assert verify_certificate(g, cert) == (True, None)
    # reg = 2 and the unique decomposition exists
    assert cert.k >= 1


def test_random_regular_instance():
    g = random_regular_oriented(21, 6, seed=5)
    cert, report = approximate_decomposition(g, RunConfig(seed=3))
    assert verify_certificate(g, cert) == (True, None)
    assert 0 <= cert.k <= cert.reg


def test_determinism_of_certificates():
    g = rotational_tournament(25)
    c1, _ = approximate_decomposition(g, RunConfig(seed=9))
    c2, _ = approximate_decomposition(g, RunConfig(seed=9))
    assert c1 == c2
    c3, _ = approximate_decomposition(g, RunConfig(seed=10))
    assert c1.graph_sha256 == c3.graph_sha256


def test_certificate_json_roundtrip():
    g = rotational_tournament(11)
    cert, _ = approximate_decomposition(g, RunConfig(seed=2))
    doc = cert.to_json()
    back = DecompositionCertificate.from_json(doc)
    assert back == cert
    assert verify_certificate(g, back) == (True, None)


def test_certificate_with_wrong_k_is_a_format_error():
    doc = approximate_decomposition(rotational_tournament(11), RunConfig(seed=2))[0].to_json()
    doc["k"] += 1
    with pytest.raises(FormatError, match="k field disagrees"):
        DecompositionCertificate.from_json(doc)


def test_verify_catches_edge_reuse():
    g = rotational_tournament(5)
    cyc = HamiltonCycle.from_order([0, 1, 2, 3, 4])
    cert = DecompositionCertificate(
        5, graph_digest(g), (cyc, cyc),
        frozenset(g.edges) - cyc.edges, 2)
    ok, violation = verify_certificate(g, cert)
    assert not ok and violation == "EdgeReuse"


def test_verify_catches_non_hamiltonian():
    g = rotational_tournament(5)
    bad = HamiltonCycle.from_order([0, 1, 2])  # misses two vertices
    cert = DecompositionCertificate(5, graph_digest(g), (bad,),
                                    frozenset(g.edges), 2)
    ok, violation = verify_certificate(g, cert)
    assert not ok and violation == "NotHamiltonian"


def test_verify_catches_hash_and_leftover_mismatch():
    g = rotational_tournament(5)
    cert, _ = approximate_decomposition(g, RunConfig(seed=0))
    wrong_hash = DecompositionCertificate(5, "0" * 64, cert.cycles,
                                          cert.leftover, cert.reg)
    assert verify_certificate(g, wrong_hash) == (False, "GraphHashMismatch")
    if cert.leftover:
        short = DecompositionCertificate(5, cert.graph_sha256, cert.cycles,
                                         frozenset(), cert.reg)
        assert verify_certificate(g, short)[1] == "LeftoverMismatch"


def test_partial_failure_certificates_still_verify():
    # fuzz across seeds and sizes: every emitted certificate verifies
    for seed in range(4):
        for n in (9, 13, 17):
            g = random_tournament(n, seed=seed)
            cert, report = approximate_decomposition(g, RunConfig(seed=seed))
            assert verify_certificate(g, cert) == (True, None)
            assert cert.k <= cert.reg


def test_pipeline_preconditions():
    # the order is capped where the graph is built, before the pipeline runs
    with pytest.raises(TooLargeError):
        approximate_decomposition(OrientedGraph(MAX_N + 1, []))


def test_sandwich_values():
    bounds3, payload3 = sandwich_experiment(3)
    assert payload3["exact_count"] == 1
    assert payload3["upper_log"] == pytest.approx(0.0)
    assert payload3["holds"]

    bounds5, payload5 = sandwich_experiment(5)
    assert payload5["exact_count"] == 1
    assert payload5["lower_log"] == pytest.approx(0.0)
    assert bounds5.upper.value() == pytest.approx(2 ** 2.5)

    bounds7, payload7 = sandwich_experiment(7)
    assert payload7["exact_count"] == 1
    assert payload7["holds"]

    with pytest.raises(TooLargeError):
        sandwich_experiment(11)


def test_one_graph_digest_per_run(monkeypatch):
    digest = hamdec.pipeline.graph_digest
    calls = []

    def counting_digest(g):
        calls.append(g.n)
        return digest(g)

    monkeypatch.setattr(hamdec.pipeline, "graph_digest", counting_digest)
    cert, _ = approximate_decomposition(rotational_tournament(11))
    assert calls == [11]
    assert verify_certificate(rotational_tournament(11), cert) == (True, None)
    assert calls == [11, 11]


def test_one_oriented_reg_per_run(monkeypatch):
    reg = hamdec.pipeline.oriented_reg
    calls = []

    def counting_reg(g):
        calls.append(g.n)
        return reg(g)

    monkeypatch.setattr(hamdec.pipeline, "oriented_reg", counting_reg)
    g = random_tournament(31, 0)
    cert, report = approximate_decomposition(g)
    assert calls == [31] and cert.reg == report.reg
    assert verify_certificate(g, cert) == (True, None)
    assert calls == [31, 31]


def test_reg_row_does_not_time_the_graph_digest(monkeypatch):
    digest = hamdec.pipeline.graph_digest

    def slow_digest(g):
        time.sleep(0.05)
        return digest(g)

    monkeypatch.setattr(hamdec.pipeline, "graph_digest", slow_digest)
    _, report = approximate_decomposition(rotational_tournament(11))
    assert report.stages[0]["name"] == "reg"
    assert report.stages[0]["seconds"] < 0.05


@settings(max_examples=40, deadline=None)
@given(oriented_graphs(), st.integers(0, 1000))
def test_pipeline_invariants_on_random_graphs(g, seed):
    cert, report = approximate_decomposition(g, RunConfig(seed=seed))
    assert verify_certificate(g, cert) == (True, None)
    assert cert.k <= cert.reg == report.reg
    again, _ = approximate_decomposition(g, RunConfig(seed=seed))
    assert again.to_json() == cert.to_json()


def test_patching_quality_floor_rotational_101():
    g = rotational_tournament(101)
    for seed in range(5):
        cert, _ = approximate_decomposition(g, RunConfig(seed=seed))
        assert cert.k / cert.reg >= 0.9, f"seed {seed}: k={cert.k}"


def test_direct_stage_reports_patching_counters():
    cert, report = approximate_decomposition(rotational_tournament(25), RunConfig(seed=0))
    assert [row["name"] for row in report.stages] == ["reg", "direct"]
    direct = report.stages[1]
    assert direct["rounds"] == cert.k
    assert direct["switches"] >= 0 and direct["failures"] >= 0
    assert isinstance(direct["walks"], int) and direct["walks"] >= 0
    assert direct["stop_reason"] == "no cycle factor of the residual is a Hamilton cycle"


# SHA-256 of json.dumps(cert.to_json(), sort_keys=True) for RunConfig seeds
# 0, 1 and 2, computed with the engine that draws each cycle factor by
# factors.random_cycle_factor (a random greedy matching, each pick drawn by
# rejection over sorted residual rows, completed by shortest augmenting
# paths); once every residual degree is at most 2, a Hamilton cycle found
# by the exact walk of assembly.residual_cycle_factors is taken as it is
FROZEN_CERTIFICATES = {
    ("rotational", 11): (
        "e1d2480fb547cac78acf41b922a818d57210a63833d082455407bf0f818d7f45",
        "2fcc0d86ff0d681bed3c25dfcb02085228ba69554392edba215e7b67690b1315",
        "de353cdd4dd80d1405de08a1421ad0a9bd27d21c92a8fa43b9fe848b13bc1df5"),
    ("rotational", 25): (
        "e2d98b359b27b1fd07251f3c399715deb07138e5fc3fdeeb7fea2eaebaf70ba6",
        "e20fd5f2b5a0b917d819057515b752c21bb8ac78411d4d71fa97f91111dd0f96",
        "d4c50ac54b92867912ab341bc68951a3a64f78ba501ed56d9ceaf45bc0db3fee"),
    ("tournament", 13): (   # random_tournament(13, 0)
        "702b7400d15b0cd54d725dcb961c46c2c21bc4bb675b2e2651c231eb84f34429",
        "d98838fda70a96e3fc6aba2b33711b427927a1b1659300b6a4d131b64bbff690",
        "e5d4e928e8fc6b630caa01fd3f7d467cf7a94e8aecce1380876c277c25dc9dd9"),
}


@pytest.mark.parametrize("kind, n", sorted(FROZEN_CERTIFICATES))
def test_certificate_bytes_frozen(kind, n):
    g = rotational_tournament(n) if kind == "rotational" else random_tournament(n, 0)
    for seed, expected in enumerate(FROZEN_CERTIFICATES[kind, n]):
        cert, _ = approximate_decomposition(g, RunConfig(seed=seed))
        text = json.dumps(cert.to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == expected, f"seed {seed}"


def test_certificates_identical_across_hash_seeds(tmp_path):
    gpath = tmp_path / "g.og"
    gpath.write_text(write_edge_list(rotational_tournament(51)))
    src = str(Path(hamdec.__file__).resolve().parents[1])
    texts = set()
    for hash_seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "hamdec.cli", "decompose", str(gpath), "--seed", "0"],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        texts.add(json.dumps(json.loads(proc.stdout)["certificate"]))
    assert len(texts) == 1


# k of each RunConfig seed 0-4 (one seed for the random tournaments); a
# change to the engine may raise an entry but must lower none
GRID_K = {
    ("rotational", 11): (3, 5, 4, 4, 4),
    ("rotational", 25): (10, 11, 11, 10, 10),
    ("rotational", 51): (24, 23, 23, 23, 23),
    ("rotational", 101): (48, 48, 48, 48, 48),
    ("rotational", 151): (74, 74, 73, 73, 73),
    ("rotational", 201): (98, 98, 98, 98, 98),
    ("regular", 81, 4, 0): (1, 1, 2, 3, 2),
    ("regular", 81, 4, 1): (3, 2, 3, 2, 2),
    ("regular", 81, 4, 2): (2, 3, 3, 2, 3),
    ("regular", 151, 30, 0): (28, 28, 29, 28, 29),
    ("regular", 151, 30, 1): (28, 29, 28, 28, 29),
    ("regular", 151, 30, 2): (28, 28, 28, 28, 27),
    ("regular", 41, 6, 0): (4, 4, 5, 4, 5),
    ("tournament", 101, 0): (37,),
    ("tournament", 201, 0): (77,),
}


# runs whose residual reaches degree 2 with a Hamilton cycle among its
# cycle factors: patching takes the cycle the walk finds, then stops when
# no factor of the residual is one
DEGREE_TWO_STALLS = [(("rotational", 151), 0), (("regular", 81, 4, 1), 2),
                     (("regular", 151, 30, 0), 2), (("regular", 151, 30, 1), 4)]


def grid_graph(key):
    kind, *args = key
    return {"rotational": rotational_tournament, "regular": random_regular_oriented,
            "tournament": random_tournament}[kind](*args)


# SHA-256 of json.dumps(cert.to_json(), sort_keys=True) at RunConfig(seed=0)
# for the benchmark's six pipeline instances (bench/workloads.py ROTATIONAL
# and RANDOM), computed before the draw's greedy pass and shuffle were
# rewritten to draw the same words with fewer bytecodes per pick
BENCH_CERTIFICATES = {
    ("rotational", 51): "2599e3aab7612eb80ad5d7133590690b39f77a867b62b280247f70dea960c73e",
    ("rotational", 101): "ed585d108a46e0130e06c2129f9c64be3e333b4cad639dad33dddb0092682b44",
    ("rotational", 201): "abf2f15fc4d90e3216aef0ed41bd1e3b4d45e12baab7120ba41fe856e7663e34",
    ("tournament", 101, 0): "a06cb6740c2a6f3b00e96d78def6682ccb57856671e0c138343572de21b0da6d",
    ("tournament", 201, 0): "09b8e5d065c8cd0f09b8e97efec50786d2abd52d48285e9ed61ca1d7f6a2deca",
    ("regular", 151, 30, 0): "34aaf982e321bd787baf548eda8fa97b45ff24a1ecf83b03915f566524199df0",
}


@pytest.mark.parametrize("key", sorted(BENCH_CERTIFICATES), ids=lambda key: "-".join(map(str, key)))
def test_bench_certificate_bytes_frozen(key):
    cert, _ = approximate_decomposition(grid_graph(key), RunConfig(seed=0))
    text = json.dumps(cert.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == BENCH_CERTIFICATES[key]


def test_no_run_of_the_grid_loses_a_cycle():
    for key, ks in GRID_K.items():
        g = grid_graph(key)
        for seed, k in enumerate(ks):
            cert, _ = approximate_decomposition(g, RunConfig(seed=seed))
            assert cert.k == k, (key, seed)


@pytest.mark.parametrize("key, seed", DEGREE_TWO_STALLS, ids=lambda x: (
    "-".join(map(str, x)) if isinstance(x, tuple) else f"seed{x}"))
def test_patching_takes_the_hamilton_cycle_of_a_degree_two_stall(key, seed):
    g = grid_graph(key)
    cert, report = approximate_decomposition(g, RunConfig(seed=seed))
    assert cert.k == GRID_K[key][seed]
    assert verify_certificate(g, cert) == (True, None)
    assert report.stages[1]["stop_reason"] == (
        "no cycle factor of the residual is a Hamilton cycle")


def test_pipeline_on_1201_vertices():
    # above the default recursion limit, below MAX_N
    n = 1201
    g = OrientedGraph(n, {(v, (v + j) % n) for v in range(n) for j in (1, 2, 5, 11)})
    cert, report = approximate_decomposition(g, RunConfig(seed=0))
    assert cert.reg == 4 and 1 <= cert.k <= 4
    assert not report.hard_failures


def test_pipeline_at_max_n():
    # the largest accepted order, on a 4-regular circulant
    n = MAX_N
    g = OrientedGraph(n, {(v, (v + j) % n) for v in range(n) for j in (1, 3, 7, 19)})
    cert, report = approximate_decomposition(g, RunConfig(seed=0))
    assert cert.reg == 4 and cert.k <= 4
    assert verify_certificate(g, cert) == (True, None)
    assert not report.hard_failures


def test_patching_quality_rotational_401():
    g = rotational_tournament(401)
    cert, _ = approximate_decomposition(g, RunConfig(seed=0))
    assert cert.reg == 200 and cert.k >= 197
