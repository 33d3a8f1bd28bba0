"""Dinic max-flow on integer-capacity networks.

Plain adjacency-list implementation, deliberately dependency-free.  The
augmenting-path search keeps its path on an explicit stack, so path length
is not bounded by the interpreter's recursion limit; the factor networks
of a 2000-vertex graph have 4,002 nodes.
"""

from __future__ import annotations

from collections import deque


class Dinic:
    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.cap: list[int] = []
        self.head: list[list[int]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, capacity: int, flow: int = 0) -> int:
        """Add directed edge u -> v already carrying ``flow`` of its
        ``capacity``; returns its edge id (reverse id is id+1)."""
        eid = len(self.to)
        self.head[u].append(eid)
        self.to.append(v)
        self.cap.append(capacity - flow)
        self.head[v].append(eid + 1)
        self.to.append(u)
        self.cap.append(flow)
        return eid

    def flow_on(self, eid: int) -> int:
        """Flow pushed through edge eid (capacity of its reverse edge)."""
        return self.cap[eid ^ 1]

    def _bfs(self, s: int, t: int) -> bool:
        self.level = [-1] * self.n
        self.level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for eid in self.head[u]:
                v = self.to[eid]
                if self.cap[eid] > 0 and self.level[v] < 0:
                    self.level[v] = self.level[u] + 1
                    q.append(v)
        return self.level[t] >= 0

    def _augment(self, s: int, t: int) -> int:
        """Push flow along one s-t path of the level graph; returns the
        amount pushed, 0 when the level graph has no such path left.

        ``self.it[u]`` points at the first edge of u not yet found dead, so
        each edge is abandoned at most once per phase."""
        head, to, cap, level, it = self.head, self.to, self.cap, self.level, self.it
        path: list[int] = []
        u = s
        while u != t:
            edges = head[u]
            i = it[u]
            while i < len(edges):
                eid = edges[i]
                if cap[eid] > 0 and level[to[eid]] == level[u] + 1:
                    break
                i += 1
            it[u] = i
            if i < len(edges):
                path.append(eid)
                u = to[eid]
            elif path:
                # u is a dead end: retreat and skip the edge that led here
                u = to[path.pop() ^ 1]
                it[u] += 1
            else:
                return 0
        pushed = min(cap[eid] for eid in path)
        for eid in path:
            cap[eid] -= pushed
            cap[eid ^ 1] += pushed
        return pushed

    def max_flow(self, s: int, t: int) -> int:
        """Augment the flow already on the network to a maximum; returns
        the amount added."""
        total = 0
        while self._bfs(s, t):
            self.it = [0] * self.n
            while True:
                pushed = self._augment(s, t)
                if pushed == 0:
                    break
                total += pushed
        return total
