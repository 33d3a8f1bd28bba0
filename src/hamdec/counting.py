"""Exact permanents, matching-count bounds, and Hamilton-cycle/decomposition
counts for tiny oriented graphs.

Counts of interest grow super-exponentially, so results are carried as
natural logarithms (:class:`LogCount`) with the exact integer kept alongside
whenever the instance is small enough to compute it.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Sequence

from .errors import TooLargeError
from .graphs import MAX_N, OrientedGraph, degree_summary, rotational_tournament

PERMANENT_CAP = 24
# columns whose row forms permanent() precomputes for every sign choice
# (column 0's sign fixed: 2^9 forms, packed into two ints by parity)
PERMANENT_SPLIT = 10
HC_COUNT_CAP = 20
# cap on r^n, r-regular order n: it bounds the paths the cycle enumeration visits
DECOMP_CAP = 2**20


@dataclass(frozen=True)
class LogCount:
    """A nonnegative count held as its natural log, -inf meaning exactly 0."""

    log: float
    exact: int | None = None

    @classmethod
    def from_int(cls, value: int) -> "LogCount":
        if value < 0:
            raise ValueError("counts are nonnegative")
        if value == 0:
            return cls(float("-inf"), 0)
        return cls(math.log(value), value)

    @property
    def is_zero(self) -> bool:
        return self.log == float("-inf")

    def value(self) -> float:
        return 0.0 if self.is_zero else math.exp(self.log)

    def leq(self, other: "LogCount", tol: float = 0.0) -> bool:
        return self.log <= other.log + tol

    def close_to(self, other: "LogCount", tol: float = 1e-9) -> bool:
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        return abs(self.log - other.log) <= tol


@dataclass(frozen=True)
class BoundReport:
    """Sandwich of a count: lower <= exact <= upper."""

    lower: LogCount
    exact: LogCount
    upper: LogCount

    def holds(self, tol: float = 1e-9) -> bool:
        return self.lower.leq(self.exact, tol) and self.exact.leq(self.upper, tol)


# -- permanents and bounds ---------------------------------------------


def permanent(matrix: Sequence[Sequence[int]]) -> LogCount:
    """Exact permanent of a 0/1 matrix by Glynn's formula; O(2^(n-1) * n).

    With delta_1 = +1 fixed, the permanent is the sum over the other
    2^(n-1) sign vectors delta of (prod_k delta_k) * prod_i (sum_j delta_j
    a_ij), divided by 2^(n-1); each row form sum_j delta_j a_ij lies in
    [-n, n].  Each column is packed into one int with row i's entry in byte
    i.  The row forms of all sign choices of the first ``PERMANENT_SPLIT``
    columns are precomputed, split by the parity of their minus signs, and
    each parity's forms are laid side by side in one int, n bytes per form.
    Every byte starts at 128, so it stays in [128 - n, 128 + n] and never
    borrows from the next.  The signs of the remaining columns are walked
    in Gray-code order: per step one addition moves every form at once,
    ``^ 0x80...80`` turns each byte into the two's complement of its row
    form, and one precompiled ``struct.Struct`` unpacks the signed forms
    for ``math.prod`` in C.  Entries may be any values equal to 0 or 1
    (such as ``True`` or ``1.0``).

    Most terms are 0 (81-91% of them for random matrices at n = 20), and
    a row form can vanish only when its row has an even number of ones.
    Such terms are dropped before ``struct`` sees them.  The rows are
    sorted (a row permutation leaves the permanent unchanged) so that the
    rows that can vanish come first, even row sums before odd and small
    before large.  When the XOR leaves a zero byte, one precompiled regex
    matches maximal runs of n-byte blocks: a run of zero-free blocks is one
    match, kept whole, and a run of blocks that each hold a zero byte is
    another, kept as b"".  Each alternative consumes whole blocks and every
    block fits one of them, so each match starts on a block boundary.  A
    block joins a zero run through a lookahead that finds a zero byte
    within it; as the leading bytes are the forms that can vanish, that
    search mostly stops within a few bytes.  So ``findall`` returns about
    two items per run of zero-free blocks, not one per block, and
    ``b"".join`` hands ``struct`` exactly the zero-free forms.  ``(?s)``
    lets ``.`` match the byte 0x0A of a form equal to 10, which would
    otherwise shift the blocks.  The pattern has only greedy repeats and a
    lookahead, no possessive quantifier or atomic group (both new in
    Python 3.11), so it compiles under Python 3.10's ``re``.  A matrix
    whose row sums are all odd has no zero term and pays one ``in`` test
    per product, and one with a zero row or column returns 0 before the
    walk.
    """
    n = len(matrix)
    if n > PERMANENT_CAP:
        raise TooLargeError(f"n={n} exceeds permanent cap {PERMANENT_CAP}")
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix must be square")
        if any(x not in (0, 1) for x in row):
            raise ValueError("matrix entries must be 0/1")
    if n == 0:
        return LogCount.from_int(1)
    rows = sorted(([int(x) for x in row] for row in matrix),
                  key=lambda row: (sum(row) % 2, sum(row)))
    cols = [sum(row[j] << (8 * i) for i, row in enumerate(rows)) for j in range(n)]
    # a zero row sorts first; a zero column packs to 0
    if not any(rows[0]) or not all(cols):
        return LogCount.from_int(0)
    b = min(PERMANENT_SPLIT, n)
    even, odd = [cols[0]], []
    for c in cols[1:b]:
        even, odd = ([s + c for s in even] + [s - c for s in odd],
                     [s + c for s in odd] + [s - c for s in even])
    # at n = 1 there is no odd form: one whose rows are all 0 adds nothing
    odd = odd or [0]
    # each parity's forms side by side, n bytes per form
    width, size = 8 * n, n * len(even)
    ones = sum(1 << (width * t) for t in range(len(even)))
    mask = sum(128 << (8 * i) for i in range(n)) * ones
    even, odd = (sum(s << (width * t) for t, s in enumerate(forms)) + mask for forms in (even, odd))
    high = [2 * c * ones for c in cols[b:]]
    base = sum(cols[b:]) * ones
    signed = struct.Struct(f"<{n}b").iter_unpack
    # each maximal run of n-byte blocks that hold no zero form, and b"" for
    # each maximal run of blocks that hold one
    nonzero = re.compile(b"(?s)((?:[^\\x00]{%d})+)|(?:(?=[^\\x00]{0,%d}\\x00).{%d})+"
                         % (n, n - 1, n)).findall

    def products(forms: int) -> int:
        # sum over the packed forms of the product of their signed bytes
        data = ((forms + base) ^ mask).to_bytes(size, "little")
        if b"\x00" in data:
            data = b"".join(nonzero(data))
        return sum(map(math.prod, signed(data)))

    total = 0
    for k in range(1 << len(high)):
        if k:
            j = (k & -k).bit_length() - 1
            base += -high[j] if (k ^ (k >> 1)) >> j & 1 else high[j]
        diff = products(even) - products(odd)
        total += -diff if k & 1 else diff
    perm, rest = divmod(total, 1 << (n - 1))
    if rest:
        raise AssertionError(f"Glynn sum {total} not divisible by 2^{n - 1}; bug")
    return LogCount.from_int(perm)


def bregman_bound(row_degrees: Sequence[int]) -> LogCount:
    """Upper bound on perfect matchings: prod over rows of (d!)^(1/d)."""
    log = 0.0
    for d in row_degrees:
        if d < 0:
            raise ValueError("degrees are nonnegative")
        if d == 0:
            return LogCount.from_int(0)
        log += math.lgamma(d + 1) / d
    return LogCount(log)


def vdw_bound(m: int, d: int) -> LogCount:
    """Lower bound on perfect matchings of a d-regular bipartite graph:
    d^m * m! / m^m."""
    if not 1 <= d <= m:
        raise ValueError(f"need 1 <= d <= m, got d={d}, m={m}")
    log = m * math.log(d) + math.lgamma(m + 1) - m * math.log(m)
    return LogCount(log)


def decomposition_upper_bound(n: int, r: int) -> LogCount:
    """Iterated matching bound on Hamilton decompositions of an r-regular
    oriented graph on n vertices: prod_{i=1}^{r} (i!)^(n/i)."""
    if r < 1 or n < 1:
        raise ValueError("need n >= 1 and r >= 1")
    log = sum((n / i) * math.lgamma(i + 1) for i in range(1, r + 1))
    return LogCount(log)


# -- exact Hamilton-cycle counting -------------------------------------


def count_hamilton_cycles_exact(g: OrientedGraph) -> LogCount:
    """Exact number of directed Hamilton cycles, by a subset DP anchored at
    one vertex whose counts carry half of each vertex subset in bit fields.

    The graph is first relabeled by ``_sweep_order``, which leaves the count
    unchanged: the anchor becomes vertex 0, the l = (n - 1) // 2 low
    vertices become 1..l in their sweep order and the rest l+1..n-1.  The
    order is chosen so that few of the edges between low vertices, the b
    back edges, run from a low vertex to an earlier one; on the rotational
    tournaments b is 0.

    The DP counts, for each subset S of V - {0} and each w in S, the paths
    from 0 through exactly S that end at w; for w outside S, the paths
    through S + {w} ending at w number the sum of those counts over the
    in-neighbours v of w.  The subsets are split.  The high vertices
    l+1..n-1 form the key H of a dict.  The low vertices 1..l index W-bit
    fields of one int per endpoint: under H, field T of ``row[w]`` (T a low
    subset, bit w - 1 for vertex w) counts the paths through T + H ending
    at w, so one addition moves 2^l subsets at once.  Every field, also one
    that a mask below discards, counts at most the orderings of one set of
    at most n - 1 vertices, and so does a sum of one field over distinct
    end vertices.  So no field exceeds (n - 1)!, and with W = bit length of
    (n - 1)! none carries into the next.

    Each target w reads its in-neighbours' entries with one
    ``itemgetter(0, 0, *in-neighbours)``, vertex 0 read at index n:
    ``row[n]`` is the empty path at 0, 1 in field 0 under H = {} and 0
    elsewhere, and ``row[0]`` is always 0, so the two padding indices add
    nothing and make the getter return a tuple even at in-degree 0 or 1.
    The sum skips the zero entries, such as those of high in-neighbours
    outside H, since adding 0 to a long int copies it.

    A low target w stays under H: its sum masked by ``without[w - 1]``,
    all ones at the fields whose subset lacks w, and shifted by
    W * 2^(w - 1) moves field T to field T + {w}.  The low targets are
    swept in place, min(l, b + 1) times.  A path ending at a low vertex
    ends in a run of low vertices entered from 0 or from H, whose entries
    are final before the first sweep; a forward step of the run is counted
    in the same sweep as the step before it, and a back step one sweep
    later.  A simple path takes each back edge at most once, and a run of
    at most l low vertices has at most l - 1 steps, so after min(l, b + 1)
    sweeps every field is final.  Only the first sweep covers all of
    1..l; the later ones start at the earliest back-edge head, the least w
    with a low in-neighbour v > w.  Each target before it has only earlier
    low in-neighbours, so it is final after the first sweep, and sweeping
    it again would change nothing.  A high target w outside H then goes to
    key H + {w}, so the dict is layered by |H| and two layers are held at
    a time.  At the full high key the top field, T = all low vertices, of
    the sum over the in-neighbours of 0 counts the cycles.
    """
    n = g.n
    if n > HC_COUNT_CAP:
        raise TooLargeError(f"n={n} exceeds cycle-count cap {HC_COUNT_CAP}")
    if n < 3:
        return LogCount.from_int(0)
    return LogCount.from_int(_count_cycles_in_order(g, _sweep_order(g)[0]))


def _sweep_order(g: OrientedGraph) -> tuple[list[int], int]:
    """(order, b) for g of order at least 3: the order lists the anchor, the
    l = (n - 1) // 2 low vertices in sweep order and then the others, and b
    counts the edges from a low vertex to an earlier one.

    A low set is swept by decreasing out-degree within it, ties by label.
    From each of three low sets, 1..l and the l vertices of highest and of
    lowest out-degree, a steepest descent swaps one low vertex for one
    other while a swap lowers b; the least b found wins, the earlier start
    on ties.  The anchor is the least vertex outside the low set.
    """
    n = g.n
    low = (n - 1) // 2
    out = [sum(1 << v for v in row) for row in g.out_neighbors]

    def ranked(chosen: int) -> tuple[int, list[int]]:
        vs = sorted((v for v in range(n) if chosen >> v & 1),
                    key=lambda v: -(out[v] & chosen).bit_count())
        back = before = 0
        for v in vs:
            back += (out[v] & before).bit_count()
            before |= 1 << v
        return back, vs

    by_degree = sorted(range(n), key=lambda v: len(g.out_neighbors[v]))
    best: tuple[int, list[int]] | None = None
    for start in (range(1, low + 1), by_degree[-low:], by_degree[:low]):
        chosen = sum(1 << v for v in start)
        back, vs = ranked(chosen)
        while back:
            swap = min(ranked(chosen ^ (1 << v | 1 << u))
                       for v in vs for u in range(n) if not chosen >> u & 1)
            if swap[0] >= back:
                break
            back, vs = swap
            chosen = sum(1 << v for v in vs)
        if best is None or back < best[0]:
            best = back, vs
        if not back:
            break
    back, vs = best
    rest = [v for v in range(n) if v not in vs]
    return [rest[0], *vs, *rest[1:]], back


def _count_cycles_in_order(g: OrientedGraph, order: Sequence[int]) -> int:
    """The Hamilton cycles of g (order at least 3), counted by the DP of
    ``count_hamilton_cycles_exact`` with ``order[i]`` as vertex i and the
    low vertices swept min(l, b + 1) times for this order's b, the later
    sweeps from its earliest back-edge head."""
    n = g.n
    low = (n - 1) // 2
    label = [0] * n
    for i, v in enumerate(order):
        label[v] = i
    ins = [[label[v] for v in g.in_neighbors[u]] for u in order]
    # the head w of each back edge v -> w, in sweep order
    heads = [w for w in range(1, low + 1) for v in ins[w] if w < v <= low]
    width = math.factorial(n - 1).bit_length()
    # without[i]: all-ones fields at the low subsets that lack bit i,
    # doubled up one low vertex at a time
    full, without = (1 << width) - 1, []
    for i in range(low):
        span = width << i
        without = [m | m << span for m in without] + [full]
        full |= full << span
    pick = [itemgetter(0, 0, *(v or n for v in ins[w])) for w in range(n)]
    sweep = [(w, pick[w], without[w - 1], width << (w - 1)) for w in range(1, low + 1)]
    sweep += sweep[min(heads, default=1) - 1:] * (min(low, len(heads) + 1) - 1)
    highs = [(w, 1 << w, pick[w]) for w in range(low + 1, n)]
    layer = {0: [0] * n + [1]}
    while True:
        nxt: dict[int, list[int]] = {}
        for mask, row in layer.items():
            for w, get, keep, shift in sweep:
                row[w] = (sum(filter(None, get(row))) & keep) << shift
            for w, bit, get in highs:
                if mask & bit:
                    continue
                ways = sum(filter(None, get(row)))
                if ways:
                    tgt = nxt.get(mask | bit)
                    if tgt is None:
                        tgt = nxt[mask | bit] = [0] * (n + 1)
                    tgt[w] = ways
        if not nxt:
            break
        layer = nxt
    row = layer.get((1 << n) - (2 << low), [0] * (n + 1))
    return sum(pick[0](row)) >> ((width << low) - width)


# -- exact decomposition counting --------------------------------------

# a Hamilton cycle as its vertex order and its edge mask
_Cycle = tuple[tuple[int, ...], int]


def _hamilton_cycles(g: OrientedGraph) -> list[_Cycle]:
    """Every Hamilton cycle of g once, as (vertex order from 0, edge mask).

    Bit i of a mask stands for the i-th edge in (u, v) order.  One
    iterative depth-first pass from vertex 0 tries out-neighbours in
    ascending order, so the cycles come in lexicographic order.
    """
    n = g.n
    succ = g.out_neighbors
    bit = {e: 1 << i for i, e in enumerate((u, v) for u, row in enumerate(succ) for v in row)}
    cycles: list[_Cycle] = []
    path = [0]
    on_path = [False] * n
    on_path[0] = True
    branches = [iter(succ[0])]
    while branches:
        for v in branches[-1]:
            if not on_path[v]:
                break
        else:
            branches.pop()
            on_path[path.pop()] = False
            continue
        if len(path) + 1 < n:
            on_path[v] = True
            path.append(v)
            branches.append(iter(succ[v]))
        elif (v, 0) in bit:
            order = (*path, v)
            cycles.append((order, sum(bit[e] for e in zip(order, order[1:] + (0,)))))
    return cycles


def _check_decomposition_cap(n: int, r: int) -> None:
    """Raise TooLargeError when r^n exceeds DECOMP_CAP for r-regular order n;
    an order above MAX_N is refused before r^n is formed."""
    if n > MAX_N or r ** n > DECOMP_CAP:
        raise TooLargeError(f"n={n}, degree {r} beyond exact-decomposition caps")


def _regular_cycles(g: OrientedGraph) -> tuple[int, list[_Cycle]] | None:
    """(r, the Hamilton cycles of g) when g is r-regular, else None.  The
    edgeless graph is 0-regular; any other beyond the cap raises."""
    if not g.edges:
        return 0, []
    degrees = degree_summary(g)
    r = degrees.max_semi
    if degrees.min_semi != r:
        return None
    _check_decomposition_cap(g.n, r)
    return r, _hamilton_cycles(g)


def _canonical_covers(g: OrientedGraph) -> tuple[int, list[tuple[int, ...]] | None]:
    """(number of partitions of E(g) into Hamilton cycles, the first or None).

    Counts exact covers of the edge mask by cycle masks in canonical order:
    each next cycle must contain the lowest remaining edge, so every
    partition is counted once.  Counts are memoised on the remaining mask.
    The first cover is read back down the memo: at each step the first
    fitting cycle, in enumeration order, after which the rest has a cover.
    """
    found = _regular_cycles(g)
    if found is None:
        return 0, None
    through = [[c for c in found[1] if c[1] >> i & 1] for i in range(len(g.edges))]
    memo = {0: 1}

    def fitting(rest: int) -> list[_Cycle]:
        # the cycles through rest's lowest edge that lie inside rest
        low = (rest & -rest).bit_length() - 1
        return [c for c in through[low] if c[1] & rest == c[1]]

    def covers(rest: int) -> int:
        if rest not in memo:
            memo[rest] = sum(covers(rest ^ m) for _, m in fitting(rest))
        return memo[rest]

    rest = (1 << len(g.edges)) - 1
    count, first = covers(rest), []
    while count and rest:
        order, m = next(c for c in fitting(rest) if memo[rest ^ c[1]])
        first.append(order)
        rest ^= m
    return count, first if count else None


def count_hamilton_decompositions_exact(g: OrientedGraph) -> LogCount:
    """Number of unordered partitions of E(g) into Hamilton cycles."""
    return LogCount.from_int(_canonical_covers(g)[0])


def count_hamilton_decompositions_ordered(g: OrientedGraph) -> LogCount:
    """Same count via the second route: count ordered sequences of
    edge-disjoint Hamilton cycles exhausting E(g), then divide by r!
    (cycles within one decomposition are distinct as edge sets)."""
    found = _regular_cycles(g)
    if found is None:
        return LogCount.from_int(0)
    r, cycles = found
    masks = [m for _, m in cycles]

    def sequences(rest: int) -> int:
        if not rest:
            return 1
        return sum(sequences(rest ^ m) for m in masks if m & rest == m)

    total = sequences((1 << len(g.edges)) - 1)
    divisor = math.factorial(r)
    if total % divisor != 0:
        raise AssertionError(f"ordered count {total} not divisible by {r}!; bug")
    return LogCount.from_int(total // divisor)


def find_hamilton_decomposition(g: OrientedGraph) -> list[tuple[int, ...]] | None:
    """One full Hamilton decomposition as vertex orders, or None: the first
    cover met by the exact count's canonical search."""
    return _canonical_covers(g)[1]


# -- decomposition-count sandwich at tiny sizes ---------------------------


def sandwich_experiment(n: int) -> tuple[BoundReport, dict[str, Any]]:
    """Exact decomposition count of the rotational tournament of order n,
    sandwiched between a constructive lower bound and the iterated matching
    bound, for any n the cap allows (checked before the tournament is built);
    one canonical search gives the count and the lower bound's witness."""
    r = (n - 1) // 2
    _check_decomposition_cap(n, r)
    g = rotational_tournament(n)
    count, first = _canonical_covers(g)
    exact = LogCount.from_int(count)
    cross = count_hamilton_decompositions_ordered(g)
    if exact.exact != cross.exact:
        raise AssertionError(f"enumeration strategies disagree: {exact.exact} vs {cross.exact}")
    lower = LogCount.from_int(1 if first is not None else 0)
    upper = decomposition_upper_bound(n, r)
    bounds = BoundReport(lower=lower, exact=exact, upper=upper)
    if not bounds.holds(tol=1e-9):
        raise AssertionError(f"sandwich failed at n={n}")
    return bounds, {
        "n": n, "r": r,
        "lower_log": None if lower.is_zero else lower.log,
        "exact_log": None if exact.is_zero else exact.log,
        "upper_log": upper.log,
        "exact_count": exact.exact,
        "holds": True,
    }
