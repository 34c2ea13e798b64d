"""Chorded-cycle certificate search.

A chord of a cycle is an edge of the graph joining two non-consecutive cycle
vertices. The apex searcher looks for a cycle carrying k chords that all meet
one cycle vertex u, by reducing to paths in G - u: a path whose two endpoints
are neighbors of u closes through u to a cycle, and every internal path vertex
adjacent to u contributes one chord at u. The general searcher enumerates
cycles rooted at their least vertex and counts surplus edges inside the cycle
vertex set.

verify_certificate is deliberately a from-scratch checker of the certificate
conditions, sharing no code with the searchers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, GraphError, bits_to_vertices


@dataclass(frozen=True)
class Certificate:
    """A cycle (closed implicitly), its chords, and an optional apex."""

    cycle: tuple[int, ...]
    chords: tuple[tuple[int, int], ...]
    apex: int | None = None

    def to_text(self) -> str:
        parts = [
            "cycle=" + ",".join(str(v) for v in self.cycle),
            "chords=" + ",".join(f"{a}-{b}" for a, b in self.chords),
        ]
        if self.apex is not None:
            parts.append(f"apex={self.apex}")
        return ";".join(parts)


def find_k_chords_at_apex(g: Graph, k: int) -> Certificate | None:
    """First (in DFS order over ascending vertex indices) cycle with k chords
    incident to a common cycle vertex, or None.

    For apex u the cycle is u plus a path in G - u whose endpoints are
    neighbors of u and which has at least k internal vertices in N(u); a
    branch is abandoned once the unvisited N(u) supply cannot reach k chords
    plus the closing endpoint.
    """
    if k < 1:
        raise GraphError(f"need k >= 1, got {k}")
    n = g.n
    if n < k + 3:
        return None
    adj = g.rows
    for u in range(n):
        nu = adj[u]
        if nu.bit_count() < k + 2:
            continue
        path: list[int] = []

        def dfs(v: int, visited: int, hits: int) -> Certificate | None:
            # hits counts internal path vertices (everything before v) in N(u)
            path.append(v)
            try:
                if len(path) >= 2 and (nu >> v & 1) and hits >= k:
                    chords = tuple(
                        (u, w) for w in path[1:-1] if nu >> w & 1
                    )[:k]
                    return Certificate(
                        cycle=(u,) + tuple(path), chords=chords, apex=u
                    )
                supply = (nu & ~visited).bit_count() + (1 if nu >> v & 1 else 0)
                if hits + supply < k + 1:
                    return None
                # v turns internal on extension unless it is the path start
                nhits = hits + (1 if (len(path) >= 2 and nu >> v & 1) else 0)
                step = adj[v] & ~visited  # u is always visited
                while step:
                    low = step & -step
                    step ^= low
                    found = dfs(low.bit_length() - 1, visited | low, nhits)
                    if found is not None:
                        return found
                return None
            finally:
                path.pop()

        for start in bits_to_vertices(nu):
            found = dfs(start, 1 << start | 1 << u, 0)
            if found is not None:
                return found
    return None


def find_chorded_cycle(g: Graph, min_chords: int) -> Certificate | None:
    """First cycle whose vertex set carries at least ``min_chords`` surplus
    edges (edges beyond the cycle itself), with that many chords attached.

    Cycles are enumerated once each: rooted at their least vertex, oriented
    toward the smaller of the root's two cycle neighbors.
    """
    if min_chords < 1:
        raise GraphError(f"need min_chords >= 1, got {min_chords}")
    n = g.n
    adj = g.rows

    def chords_of(path: list[int]) -> tuple[tuple[int, int], ...] | None:
        m = len(path)
        inside = 0
        for v in path:
            inside |= 1 << v
        surplus = sum((adj[v] & inside).bit_count() for v in path) // 2 - m
        if surplus < min_chords:
            return None
        onpath = {v: i for i, v in enumerate(path)}
        out = []
        for i, v in enumerate(path):
            for w in bits_to_vertices(adj[v] & inside):
                j = onpath[w]
                if j <= i:
                    continue
                if j - i in (1, m - 1):
                    continue  # cycle edge, not a chord
                out.append((v, w))
                if len(out) == min_chords:
                    return tuple(out)
        return tuple(out)

    for root in range(n):
        allowed = ~((1 << (root + 1)) - 1)  # only vertices above the root
        path = [root]

        def dfs(v: int, visited: int) -> Certificate | None:
            if len(path) >= 3 and (adj[v] >> root & 1) and path[1] < path[-1]:
                chords = chords_of(path)
                if chords is not None:
                    return Certificate(cycle=tuple(path), chords=chords, apex=None)
            for w in bits_to_vertices(adj[v] & allowed & ~visited):
                path.append(w)
                found = dfs(w, visited | 1 << w)
                path.pop()
                if found is not None:
                    return found
            return None

        found = dfs(root, 1 << root)
        if found is not None:
            return found
    return None


def verify_certificate(
    g: Graph, cert: Certificate, k: int, require_apex: bool
) -> bool:
    """Independent check of the certificate conditions; never raises on a bad
    certificate, just returns False."""
    cyc = cert.cycle
    m = len(cyc)
    if m < 3 or len(set(cyc)) != m:
        return False
    if any(not 0 <= v < g.n for v in cyc):
        return False
    for i in range(m):
        if not g.has_edge(cyc[i], cyc[(i + 1) % m]):
            return False
    pos = {v: i for i, v in enumerate(cyc)}
    seen = set()
    for a, b in cert.chords:
        key = (min(a, b), max(a, b))
        if key in seen:
            return False
        seen.add(key)
        if a not in pos or b not in pos:
            return False
        if not g.has_edge(a, b):
            return False
        gap = abs(pos[a] - pos[b])
        if gap in (0, 1, m - 1):
            return False  # loop or consecutive on the cycle
    if len(cert.chords) < k:
        return False
    if require_apex:
        if cert.apex is None or cert.apex not in pos:
            return False
        if any(cert.apex not in (a, b) for a, b in cert.chords):
            return False
    return True


def longest_cycle(g: Graph) -> tuple[int, tuple[int, ...]] | None:
    """A maximum-length cycle as (length, vertex sequence); None for forests.

    Backtracking over root-canonical paths (root the least cycle vertex); a
    branch stops once its path plus the unvisited vertices of the component
    above the root cannot beat the best cycle so far, so the first cycle of
    each length found is the one kept. This is the python twin of
    ``kernels.longest_cycle``, which runs the same search on the adjacency
    rows of graphs with at most 64 vertices; the search is exponential in
    the worst case, and the property suite draws orders up to 12.
    """
    adj = g.rows
    best: tuple[int, tuple[int, ...]] | None = None
    for mask in g.component_masks():
        if mask.bit_count() < 3:
            continue
        for root in bits_to_vertices(mask):
            path = [root]

            def dfs(v: int, left: int) -> None:
                # left: the component's vertices above the root off the path
                nonlocal best
                if (
                    len(path) >= 3
                    and (adj[v] >> root & 1)
                    and path[1] < path[-1]
                    and (best is None or len(path) > best[0])
                ):
                    best = (len(path), tuple(path))
                reach = len(path) + left.bit_count()
                step = adj[v] & left
                while step and (best is None or reach > best[0]):
                    low = step & -step
                    step ^= low
                    path.append(low.bit_length() - 1)
                    dfs(path[-1], left ^ low)
                    path.pop()

            dfs(root, mask & ~((1 << (root + 1)) - 1))
    return best


def max_path_order(g: Graph) -> int:
    """Most vertices on any path of G (1 for edgeless nonempty graphs).

    A branch stops once its path plus the unvisited vertices of the
    component cannot beat the longest path so far. The python twin of
    ``kernels.max_path_order``.
    """
    if g.n == 0:
        raise GraphError("empty graph has no paths")
    adj = g.rows
    best = 1

    def dfs(v: int, left: int, length: int) -> None:
        # left: the component's vertices off the path
        nonlocal best
        if length > best:
            best = length
        reach = length + left.bit_count()
        step = adj[v] & left
        while step and reach > best:
            low = step & -step
            step ^= low
            dfs(low.bit_length() - 1, left ^ low, length + 1)

    for mask in g.component_masks():
        for start in bits_to_vertices(mask):
            dfs(start, mask & ~(1 << start), 1)
    return best
