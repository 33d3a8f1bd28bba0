"""Reference checks and oracle values that never call hamdec.

Everything here works on plain data (vertex counts, edge sets, certificate
JSON documents, 0/1 matrices), so a bug in hamdec cannot make its own output
look right.  The max-flow comes from scipy, the exact counts from numpy
routines that use other algorithms than hamdec does, evaluated modulo
several primes and recombined by the Chinese remainder theorem.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

Edge = tuple[int, int]

# Primes below 2**31: residues times a row sum of at most 24 stay inside
# int64, and their product (about 2**93) exceeds every count computed here.
PRIMES = (2147483647, 2147483629, 2147483587)

# Values computed once by the routines below and by brute force
# (see test_checks.py), for inputs that do not depend on the seed.
ROTATIONAL_HAMILTON_CYCLES = {17: 455248142}
RANDOM_TOURNAMENT_HAMILTON_CYCLES = {(17, 0): 160433732}   # (n, generator seed)
ROTATIONAL_DECOMPOSITIONS = {3: 1, 5: 1, 7: 1}


# -- certificates --------------------------------------------------------


def edge_list_sha256(n: int, edges: Iterable[Edge]) -> str:
    """Digest of the 'og <n> <m>' edge-list text that certificates name."""
    ordered = sorted(edges)
    text = "\n".join([f"og {n} {len(ordered)}"] + [f"{u} {v}" for u, v in ordered]) + "\n"
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def check_certificate(n: int, edges: set[Edge], doc: dict, reg: int) -> str | None:
    """First violation of a certificate document, or None when it is valid.

    ``doc`` has the keys of ``DecompositionCertificate.to_json``; ``reg`` is
    the oracle value for the graph (n, edges).
    """
    if doc["n"] != n:
        return "size"
    if doc["graph_sha256"] != edge_list_sha256(n, edges):
        return "graph_hash"
    used: set[Edge] = set()
    for order in doc["cycles"]:
        if len(order) != n or set(order) != set(range(n)):
            return "not_hamiltonian"
        for i in range(n):
            e = (order[i], order[(i + 1) % n])
            if e not in edges:
                return "unknown_edge"
            if e in used:
                return "edge_reuse"
            used.add(e)
    leftover = [tuple(e) for e in doc["leftover"]]
    for e in leftover:
        if e not in edges:
            return "unknown_edge"
        if e in used:
            return "leftover_overlap"
    if len(set(leftover)) != len(leftover) or len(used) + len(leftover) != len(edges):
        return "leftover_mismatch"
    if doc["reg"] != reg:
        return "reg_mismatch"
    if doc["k"] != len(doc["cycles"]):
        return "k_field"
    if len(doc["cycles"]) > reg:
        return "too_many_cycles"
    return None


# -- reg oracle -----------------------------------------------------------


def degrees(n: int, edges: Iterable[Edge]) -> tuple[list[int], list[int]]:
    outs = [0] * n
    ins = [0] * n
    for u, v in edges:
        outs[u] += 1
        ins[v] += 1
    return outs, ins


def has_r_factor(n: int, edges: Sequence[Edge], r: int) -> bool:
    """Whether some spanning sub-digraph has every in- and out-degree r:
    a max-flow from out-copies (supply r) to in-copies (demand r)."""
    src, snk = 2 * n, 2 * n + 1
    rows = [src] * n + [u for u, _ in edges] + [n + v for v in range(n)]
    cols = list(range(n)) + [n + v for _, v in edges] + [snk] * n
    caps = [r] * n + [1] * len(edges) + [r] * n
    net = csr_matrix((np.array(caps, dtype=np.int32), (rows, cols)),
                     shape=(2 * n + 2, 2 * n + 2))
    return maximum_flow(net, src, snk).flow_value == r * n


def reg_oracle(n: int, edges: set[Edge]) -> int:
    """Largest r with an r-factor.  A regular graph is its own factor;
    otherwise test r downwards from the minimum semi-degree."""
    outs, ins = degrees(n, edges)
    top = min(min(outs), min(ins))
    if max(max(outs), max(ins)) == top:
        return top
    ordered = sorted(edges)
    for r in range(top, 0, -1):
        if has_r_factor(n, ordered, r):
            return r
    return 0


# -- exact counts -----------------------------------------------------------


def _primes_above(bound: int) -> tuple[int, ...]:
    """The fewest leading PRIMES whose product exceeds bound."""
    product = 1
    for k, p in enumerate(PRIMES):
        product *= p
        if product > bound:
            return PRIMES[:k + 1]
    raise ValueError(f"{bound} exceeds the product of the moduli")


def _crt(residues: Sequence[int]) -> int:
    value, modulus = 0, 1
    for res, p in zip(residues, PRIMES):  # residues use a prefix of PRIMES
        step = (res - value) * pow(modulus, -1, p) % p
        value += modulus * step
        modulus *= p
    return value


def permanent_reference(rows: Sequence[Sequence[int]]) -> int:
    """Permanent of a 0/1 matrix by Ryser's formula over all column
    subsets, vectorised in blocks and reduced modulo each prime."""
    n = len(rows)
    a = np.array(rows, dtype=np.float64)
    primes = _primes_above(math.factorial(n))
    residues = [0] * len(primes)
    block = 1 << min(n, 14)
    shifts = np.arange(n, dtype=np.int64)
    for start in range(0, 1 << n, block):
        masks = np.arange(start, start + block, dtype=np.int64)
        bits = (masks[:, None] >> shifts) & 1
        sums = (bits.astype(np.float64) @ a.T).astype(np.int64)
        negative = (n - bits.sum(axis=1)) % 2 == 1
        for k, p in enumerate(primes):
            prod = np.ones(block, dtype=np.int64)
            for i in range(n):
                prod = prod * sums[:, i] % p
            residues[k] = (residues[k] + int(prod[~negative].sum())
                           - int(prod[negative].sum())) % p
    return _crt(residues)


def hamilton_cycle_count_reference(n: int, edges: Iterable[Edge]) -> int:
    """Directed Hamilton cycles by inclusion-exclusion: closed walks of
    length n from vertex 0, summed with sign (-1)^|T| over the sets T of
    other vertices the walk must avoid."""
    adj = np.zeros((n, n))
    for u, v in edges:
        adj[u, v] = 1.0
    masks = np.arange(1 << (n - 1), dtype=np.int64)
    avoided = (masks[:, None] >> np.arange(n - 1, dtype=np.int64)) & 1
    allowed = np.ones((len(masks), n))
    allowed[:, 1:] = 1 - avoided
    negative = avoided.sum(axis=1) % 2 == 1
    residues = []
    for p in _primes_above(math.factorial(n - 1)):
        walks = np.zeros((len(masks), n))
        walks[:, 0] = 1.0
        for _ in range(n):
            # entries stay below p * n < 2**53, so float arithmetic is exact
            walks = np.fmod((walks @ adj) * allowed, p)
        closed = walks[:, 0].astype(np.int64)
        residues.append((int(closed[~negative].sum()) - int(closed[negative].sum())) % p)
    return _crt(residues)


def derangements(n: int) -> int:
    """Permanent of J - I: the number of fixed-point-free permutations."""
    d_prev, d = 1, 0  # D(0), D(1)
    for m in range(2, n + 1):
        d_prev, d = d, (m - 1) * (d + d_prev)
    return d if n else 1


def decomposition_upper_log(n: int, r: int) -> float:
    """log of prod_{i=1}^{r} (i!)^(n/i), the iterated matching bound."""
    return sum((n / i) * math.lgamma(i + 1) for i in range(1, r + 1))
