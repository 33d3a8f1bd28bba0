"""The benchmark's workloads: inputs, reference values and checked items.

An item is one call into hamdec's public API (a pipeline instance, a
certificate check, a reg query or an exact count) plus a check of its
output against references from ``checks``, which never call hamdec.

Why each workload:

- rotational: the paper's headline family.  The direct stage in assembly
  takes nearly all the time; n=201 is where it collapses (k=2 of 100).
- random: the same assembly layer on its success path (random tournaments)
  and stalling on sparse regular graphs, with a larger share in factors.
- verify: the user-facing checking path, where assembly never runs and the
  max-flow binary search behind oriented_reg takes nearly all the time.
- counting: exact counters that share no code with the pipeline.

The pipeline instances and the tournament whose Hamilton cycles are
counted are fixed here, not drawn from the run's seed: their cost depends
on the draw by tens of percent, and k/reg must repeat exactly from run to
run.  The seed draws the inputs whose cost does not depend on the draw
(the permanent matrices, the tampered edges, the tournament of the reg
query) and the order of the items in a pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

import hamdec
import hamdec.counting
import hamdec.graphs

import checks

# (n, RunConfig seed)
ROTATIONAL = ((51, 0), (101, 0), (201, 0))
# (generator, n, graph seed); the pipeline runs with the default RunConfig
RANDOM = (("tournament", 101, 0), ("tournament", 201, 0), ("regular", 151, 0))
REGULAR_DEGREE = 30
VERIFY_SIZES = (211, 401)      # prime, so every step v -> v + j is a Hamilton cycle
REG_QUERY_SIZE = 401
PERMANENT_SIZES = (18, 20)
CYCLE_COUNT_SIZE = 17
CYCLE_COUNT_TOURNAMENT_SEED = 0
SANDWICH_SIZES = (3, 5, 7)

# tampering -> (violation verify_certificate reports, violation checks reports)
TAMPERINGS = {
    "size": ("SizeMismatch", "size"),
    "graph_hash": ("GraphHashMismatch", "graph_hash"),
    "not_hamiltonian": ("NotHamiltonian", "not_hamiltonian"),
    "reversed_cycle": ("UnknownEdge", "unknown_edge"),
    "edge_reuse": ("EdgeReuse", "edge_reuse"),
    "leftover_overlap": ("LeftoverOverlap", "leftover_overlap"),
    "leftover_non_edge": ("UnknownEdge", "unknown_edge"),
    "leftover_missing_edge": ("LeftoverMismatch", "leftover_mismatch"),
    "reg_off_by_one": ("RegMismatch", "reg_mismatch"),
}


class CheckFailed(Exception):
    """An output disagrees with the benchmark's reference."""


class SetupError(Exception):
    """A generated input or reference is not what the workload needs."""


@dataclass
class Outcome:
    k: int = 0
    reg: int = 0
    stages: list[dict[str, Any]] = field(default_factory=list)


@dataclass
class Item:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], Outcome]


def build(workload: str, seed: int) -> list[Item]:
    items = BUILDERS[workload](seed)
    random.Random(f"order:{workload}:{seed}").shuffle(items)
    return items


# -- pipeline workloads ---------------------------------------------------


def pipeline_item(name: str, g: hamdec.OrientedGraph, config_seed: int) -> Item:
    edges = set(g.edges)
    reg = checks.reg_oracle(g.n, edges)

    def call():
        return hamdec.approximate_decomposition(g, hamdec.RunConfig(seed=config_seed))

    def check(out) -> Outcome:
        cert, report = out
        if report.hard_failures:
            raise CheckFailed(f"hard failures: {report.hard_failures}")
        doc = cert.to_json()
        violation = checks.check_certificate(g.n, edges, doc, reg)
        if violation is not None:
            raise CheckFailed(f"certificate: {violation}")
        if (report.k, report.reg) != (doc["k"], reg):
            raise CheckFailed("report disagrees with the certificate")
        return Outcome(doc["k"], reg, report.stages)

    return Item(name, call, check)


def rotational_items(seed: int) -> list[Item]:
    return [pipeline_item(f"rotational.n{n}.s{s}", hamdec.graphs.rotational_tournament(n), s)
            for n, s in ROTATIONAL]


def random_items(seed: int) -> list[Item]:
    items = []
    for kind, n, graph_seed in RANDOM:
        if kind == "tournament":
            g = hamdec.graphs.random_tournament(n, graph_seed)
        else:
            g = hamdec.graphs.random_regular_oriented(n, REGULAR_DEGREE, graph_seed)
            outs, ins = checks.degrees(n, g.edges)
            if set(outs) | set(ins) != {REGULAR_DEGREE}:
                raise SetupError(f"{kind} graph n={n} is not {REGULAR_DEGREE}-regular")
        items.append(pipeline_item(f"random.{kind}.n{n}.g{graph_seed}", g, 0))
    return items


# -- verify ------------------------------------------------------------------


def rotational_certificate(g: hamdec.OrientedGraph,
                           kept: int) -> hamdec.DecompositionCertificate:
    """Cycles v -> v + j for j = 1..kept; the other steps form the leftover."""
    n = g.n
    half = (n - 1) // 2
    cycles = tuple(hamdec.HamiltonCycle.from_order([i * j % n for i in range(n)])
                   for j in range(1, kept + 1))
    leftover = frozenset((v, (v + j) % n) for j in range(kept + 1, half + 1) for v in range(n))
    return hamdec.DecompositionCertificate(
        n, checks.edge_list_sha256(n, g.edges), cycles, leftover, half)


def tampered(cert: hamdec.DecompositionCertificate, kind: str,
             rng: random.Random) -> hamdec.DecompositionCertificate:
    """One certificate broken in the way ``kind`` names; cert needs a
    non-empty leftover.  The last cycle is the one broken, so a verifier
    reads the whole cycle list before it can fail, whatever the seed."""
    n, digest, reg = cert.n, cert.graph_sha256, cert.reg
    cycles, leftover = cert.cycles, cert.leftover
    order = cycles[-1].order
    edge = rng.choice(sorted(leftover))
    if kind == "size":
        n += 1
    elif kind == "graph_hash":
        digest = "0" * 64
    elif kind == "not_hamiltonian":
        cycles = cycles[:-1] + (hamdec.HamiltonCycle.from_order(order[:-1]),)
    elif kind == "reversed_cycle":
        cycles = cycles[:-1] + (hamdec.HamiltonCycle.from_order(order[::-1]),)
    elif kind == "edge_reuse":
        cycles = cycles + (cycles[-1],)
    elif kind == "leftover_overlap":
        leftover = leftover | {(order[0], order[1])}
    elif kind == "leftover_non_edge":
        leftover = leftover | {(edge[1], edge[0])}
    elif kind == "leftover_missing_edge":
        leftover = leftover - {edge}
    elif kind == "reg_off_by_one":
        reg -= 1
    else:
        raise ValueError(f"unknown tampering {kind!r}")
    return hamdec.DecompositionCertificate(n, digest, cycles, leftover, reg)


def verify_item(name: str, g: hamdec.OrientedGraph, cert, expected: tuple) -> Item:
    def call():
        return hamdec.verify_certificate(g, cert)

    def check(out) -> Outcome:
        if tuple(out) != expected:
            raise CheckFailed(f"verify_certificate gave {out}, expected {expected}")
        return Outcome(cert.k, cert.reg) if expected[0] else Outcome()

    return Item(name, call, check)


def verify_items(seed: int) -> list[Item]:
    rng = random.Random(f"verify:{seed}")
    items = []
    for n in VERIFY_SIZES:
        g = hamdec.graphs.rotational_tournament(n)
        edges = set(g.edges)
        reg = checks.reg_oracle(n, edges)
        full, partial = rotational_certificate(g, reg), rotational_certificate(g, reg // 2)
        for label, cert in (("full", full), ("partial", partial)):
            if checks.check_certificate(n, edges, cert.to_json(), reg) is not None:
                raise SetupError(f"{label} certificate for n={n} is not valid")
            items.append(verify_item(f"verify.{label}.n{n}", g, cert, (True, None)))
        if n == VERIFY_SIZES[0]:
            for kind, (violation, own) in TAMPERINGS.items():
                bad = tampered(partial, kind, rng)
                if checks.check_certificate(n, edges, bad.to_json(), reg) != own:
                    raise SetupError(f"tampering {kind} is not a {own} violation")
                items.append(verify_item(f"verify.tampered.{kind}", g, bad, (False, violation)))

    g = hamdec.graphs.random_tournament(REG_QUERY_SIZE, seed)
    reg = checks.reg_oracle(g.n, set(g.edges))

    def check(out) -> Outcome:
        if out != reg:
            raise CheckFailed(f"oriented_reg gave {out}, oracle {reg}")
        return Outcome()

    items.append(Item(f"reg.random_tournament.n{REG_QUERY_SIZE}",
                      lambda: hamdec.oriented_reg(g), check))
    return items


# -- counting -----------------------------------------------------------------


def count_item(name: str, call: Callable[[], Any], expected: int) -> Item:
    def check(out) -> Outcome:
        if out.exact != expected:
            raise CheckFailed(f"count {out.exact}, reference {expected}")
        return Outcome()

    return Item(name, call, check)


def sandwich_item(n: int) -> Item:
    """Both decomposition counters and the sandwich at one n; each takes
    under a millisecond, so they are timed as one item."""
    g = hamdec.graphs.rotational_tournament(n)
    r = (n - 1) // 2
    expected = checks.ROTATIONAL_DECOMPOSITIONS[n]
    upper = checks.decomposition_upper_log(n, r)

    def call():
        return (hamdec.count_hamilton_decompositions_exact(g),
                hamdec.counting.count_hamilton_decompositions_ordered(g),
                hamdec.sandwich_experiment(n)[1])

    def check(out) -> Outcome:
        exact, ordered, payload = out
        if not exact.exact == ordered.exact == payload["exact_count"] == expected:
            raise CheckFailed(f"decomposition counts {exact.exact}, {ordered.exact}, "
                              f"{payload['exact_count']}; reference {expected}")
        if abs(payload["upper_log"] - upper) > 1e-9 or not payload["holds"]:
            raise CheckFailed("sandwich upper bound differs from the closed form")
        # the constructive lower bound is one decomposition: k = r cycles
        k = r if payload["lower_log"] is not None else 0
        return Outcome(k, r)

    return Item(f"sandwich.n{n}", call, check)


def counting_items(seed: int) -> list[Item]:
    rng = random.Random(f"counting:{seed}")
    items = []
    for n in PERMANENT_SIZES:
        rows = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
        items.append(count_item(f"permanent.random.n{n}",
                                lambda rows=rows: hamdec.permanent(rows),
                                checks.permanent_reference(rows)))
    # J - I under seeded row and column permutations: the derangement number
    n = PERMANENT_SIZES[0]
    row_perm, col_perm = rng.sample(range(n), n), rng.sample(range(n), n)
    rows = [[int(row_perm[i] != col_perm[j]) for j in range(n)] for i in range(n)]
    items.append(count_item(f"permanent.derangement.n{n}",
                            lambda rows=rows: hamdec.permanent(rows),
                            checks.derangements(n)))

    n = CYCLE_COUNT_SIZE
    rot = hamdec.graphs.rotational_tournament(n)
    items.append(count_item(f"hamilton_cycles.rotational.n{n}",
                            lambda: hamdec.count_hamilton_cycles_exact(rot),
                            checks.ROTATIONAL_HAMILTON_CYCLES[n]))
    # fixed, because the subset DP's time and memory follow the tournament
    tour = hamdec.graphs.random_tournament(n, CYCLE_COUNT_TOURNAMENT_SEED)
    items.append(count_item(
        f"hamilton_cycles.random_tournament.n{n}",
        lambda: hamdec.count_hamilton_cycles_exact(tour),
        checks.RANDOM_TOURNAMENT_HAMILTON_CYCLES[n, CYCLE_COUNT_TOURNAMENT_SEED]))
    items.extend(sandwich_item(n) for n in SANDWICH_SIZES)
    return items


BUILDERS = {"rotational": rotational_items, "random": random_items,
            "verify": verify_items, "counting": counting_items}
