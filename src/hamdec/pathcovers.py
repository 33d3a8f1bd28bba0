"""Path covers of oriented graphs built from chains of bipartite matchings.

The construction: split the vertices into b parts, decompose the complete
digraph on the b part-labels into b directed Hamilton paths (so every ordered
part pair is used exactly once), and for each label path chain one matching
per consecutive part pair.  The union of a chain of matchings is a path cover
whose size is (vertex count) - (matching edges), so large matchings give
small covers.  Families of edge-disjoint covers come from edge-disjoint
matchings on each part pair, each a maximum matching of the edges the
earlier ones left.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import islice, takewhile
from typing import Sequence

from .errors import InvariantViolationError, OddOrderError, PartsTooSmallError
from .factors import Matching, disjoint_maximum_matchings
from .graphs import Edge, OrientedGraph, _equipartition, bipartite_between, degree_summary

# random equipartitions tried; the one whose thinnest part pair is fattest wins
PARTITION_ATTEMPTS = 3


@dataclass(frozen=True)
class DirectedPath:
    """Directed path as a vertex sequence; a single vertex is length 0."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        if not self.vertices:
            raise InvariantViolationError("empty path")
        if len(set(self.vertices)) != len(self.vertices):
            raise InvariantViolationError("path repeats a vertex")

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def end(self) -> int:
        return self.vertices[-1]

    def edges(self) -> list[Edge]:
        return [(self.vertices[i], self.vertices[i + 1])
                for i in range(len(self.vertices) - 1)]


@dataclass(frozen=True)
class PathCover:
    """Vertex-disjoint directed paths covering a vertex set."""

    paths: tuple[DirectedPath, ...]

    @property
    def size(self) -> int:
        return len(self.paths)

    def edges(self) -> set[Edge]:
        out: set[Edge] = set()
        for p in self.paths:
            out.update(p.edges())
        return out

    def validate(self, universe: set[int] | None = None) -> None:
        seen: set[int] = set()
        for p in self.paths:
            if seen & set(p.vertices):
                raise InvariantViolationError("paths share a vertex")
            seen.update(p.vertices)
        if universe is not None and seen != universe:
            raise InvariantViolationError("cover does not span the vertex set")


@dataclass(frozen=True)
class PathCoverFamily:
    """t pairwise edge-disjoint path covers, each of size at most a.

    ``limiting_pair`` records which part pair ran out of matchings first when
    fewer covers than requested could be built.
    """

    covers: tuple[PathCover, ...]
    a: int
    t: int
    limiting_pair: tuple[int, int] | None = field(default=None, compare=False)

    def validate(self, universe: set[int] | None = None,
                 host: OrientedGraph | None = None) -> None:
        if len(self.covers) != self.t:
            raise InvariantViolationError("family length differs from t")
        seen: set[Edge] = set()
        for cov in self.covers:
            cov.validate(universe)
            if cov.size > self.a:
                raise InvariantViolationError(
                    f"cover of size {cov.size} exceeds bound {self.a}")
            es = cov.edges()
            if seen & es:
                raise InvariantViolationError("covers share an edge")
            seen |= es
        if host is not None and not seen <= host.edges:
            raise InvariantViolationError("cover edges leave the host graph")

    def union_edges(self) -> set[Edge]:
        out: set[Edge] = set()
        for cov in self.covers:
            out |= cov.edges()
        return out


@dataclass(frozen=True)
class HamPathDecomposition:
    """b directed Hamilton paths decomposing the complete digraph on [0, b)."""

    b: int
    paths: tuple[tuple[int, ...], ...]

    def validate(self) -> None:
        if len(self.paths) != self.b:
            raise InvariantViolationError("wrong number of paths")
        seen: set[Edge] = set()
        for p in self.paths:
            if sorted(p) != list(range(self.b)):
                raise InvariantViolationError("path is not Hamilton")
            for e in zip(p, p[1:]):
                if e in seen:
                    raise InvariantViolationError(f"edge {e} reused")
                seen.add(e)
        if len(seen) != self.b * (self.b - 1):
            raise InvariantViolationError("ordered pairs not all covered")


def complete_digraph_path_decomposition(b: int) -> HamPathDecomposition:
    """Decompose the complete digraph on b vertices (b even) into b directed
    Hamilton paths.

    Uses the zigzag decomposition of the complete undirected graph on an even
    number of vertices into b/2 Hamilton paths, taking each in both
    orientations.
    """
    if b < 2 or b % 2 == 1:
        raise OddOrderError(f"order must be even and >= 2, got {b}")
    half = b // 2
    offsets = [0]
    for j in range(1, half):
        offsets.extend((j, -j))
    offsets.append(half)
    paths: list[tuple[int, ...]] = []
    for i in range(half):
        forward = tuple((i + off) % b for off in offsets)
        paths.append(forward)
        paths.append(tuple(reversed(forward)))
    decomp = HamPathDecomposition(b, tuple(paths))
    decomp.validate()
    return decomp


def matchings_to_path_cover(parts: Sequence[Sequence[int]],
                            matchings: Sequence[Matching],
                            host: OrientedGraph | None = None) -> PathCover:
    """Union the matchings between consecutive parts into a path cover.

    ``matchings[j]`` must pair vertices of parts[j] with vertices of
    parts[j+1]; each pair (u, v) is read as the directed edge u -> v.  Every
    vertex gets at most one incoming and one outgoing union edge, so the
    union is a disjoint set of directed paths; unmatched vertices become
    length-0 paths.
    """
    if len(matchings) != len(parts) - 1:
        raise InvariantViolationError(
            f"{len(parts)} parts need {len(parts) - 1} matchings, got {len(matchings)}")
    all_vertices: set[int] = set()
    for part in parts:
        pset = set(part)
        if all_vertices & pset:
            raise InvariantViolationError("parts overlap")
        all_vertices |= pset
    nxt: dict[int, int] = {}
    indeg: set[int] = set()
    for j, mt in enumerate(matchings):
        left, right = set(parts[j]), set(parts[j + 1])
        for u, v in mt.pairs:
            if u not in left or v not in right:
                raise InvariantViolationError(
                    f"pair ({u}, {v}) does not run from part {j} to part {j + 1}")
            if host is not None and not host.has_edge(u, v):
                raise InvariantViolationError(f"pair ({u}, {v}) is not a host edge")
            nxt[u] = v
            indeg.add(v)
    paths: list[DirectedPath] = []
    for v in sorted(all_vertices):
        if v in indeg:
            continue
        seq = [v]
        while seq[-1] in nxt:
            seq.append(nxt[seq[-1]])
        paths.append(DirectedPath(tuple(seq)))
    cover = PathCover(tuple(paths))
    cover.validate(all_vertices)
    return cover


def build_path_cover_family(h: OrientedGraph, b: int, a: int, t: int, *,
                            seed: int) -> tuple[PathCoverFamily, int]:
    """A family of up to t edge-disjoint path covers of h, each of size <= a.

    Returns the family (its ``t`` field reports the achieved count, and
    ``limiting_pair`` the part pair that ran dry when short) together with
    the exact minimum semi-degree of the union of all covers.
    """
    n = h.n
    if b < 2 or b % 2 == 1:
        raise OddOrderError(f"part count must be even and >= 2, got {b}")
    if b > n // 2:
        raise PartsTooSmallError(f"b={b} parts on {n} vertices")
    if t == 0:
        return PathCoverFamily((), a=a, t=0), 0

    # Pick the partition whose thinnest ordered part pair is fattest.
    best_parts: list[list[int]] | None = None
    best_score = -1
    for attempt in range(PARTITION_ATTEMPTS):
        rng = random.Random(f"{seed}:partition:{attempt}")
        parts = _equipartition(n, b, rng)
        part_sets = [set(part) for part in parts]
        score = min(
            sum(1 for u in parts[p] for v in h.out_neighbors[u] if v in part_sets[q])
            for p in range(b) for q in range(b) if p != q)
        if score > best_score:
            best_score, best_parts = score, parts
    assert best_parts is not None
    parts = best_parts

    label_paths = complete_digraph_path_decomposition(b).paths
    covers: list[PathCover] = []
    limiting: tuple[int, int] | None = None
    for i, lp in enumerate(label_paths):
        if len(covers) >= t:
            break
        seq = [parts[x] for x in lp]
        base = n - sum(min(len(seq[j]), len(seq[j + 1])) for j in range(b - 1))
        if a < base:
            limiting = (lp[0], lp[1])
            continue
        # Any one pair may eat the whole slack; covers whose matchings land
        # unevenly are filtered by the size bound after assembly.
        chains: list[list[Matching]] = []
        want = t - len(covers)
        for j in range(b - 1):
            # up to ``want`` nonempty matchings of size >= quota; the sizes of
            # repeated maximum matchings never increase as edges go
            quota = max(1, min(len(seq[j]), len(seq[j + 1])) - (a - base))
            bip = bipartite_between(h, seq[j], seq[j + 1])
            rng = random.Random(f"{seed}:{i}:{j}:greedy")
            ms = takewhile(lambda mt: mt.size >= quota,
                           islice(disjoint_maximum_matchings(bip, rng), want))
            # lift side indices back to the vertices of the two parts
            lifted = [Matching(frozenset((seq[j][ai], seq[j + 1][bi]) for ai, bi in mt.pairs))
                      for mt in ms]
            chains.append(lifted)
        counts = [len(c) for c in chains]
        rounds = min(counts)
        if rounds < want:
            jmin = counts.index(min(counts))
            limiting = (lp[jmin], lp[jmin + 1])
        for k in range(rounds):
            cover = matchings_to_path_cover(seq, [c[k] for c in chains], host=h)
            if cover.size <= a:
                covers.append(cover)
            elif limiting is None:
                limiting = (lp[0], lp[1])
            if len(covers) >= t:
                break

    family = PathCoverFamily(tuple(covers), a=a, t=len(covers), limiting_pair=limiting)
    family.validate(universe=set(range(n)), host=h)
    union = family.union_edges()
    min_union = degree_summary(OrientedGraph(n, union)).min_semi
    return family, min_union
