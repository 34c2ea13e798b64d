"""Simple undirected graphs over 0..n-1 with bit-set adjacency rows.

Graphs are immutable; "mutating" helpers return new values, so instances can
be shared freely across parallel workers. Adjacency rows are Python ints used
as bit sets, which covers both the fast small-graph regime (rows fit in a
machine word for n <= 64) and the documented cap of n <= 256.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator

MAX_VERTICES = 256


class GraphError(ValueError):
    """Invalid graph construction or query."""


class Graph6Error(GraphError):
    """Malformed graph6 text."""


class Graph:
    __slots__ = ("n", "_adj")

    def __init__(self, n: int, adj: tuple[int, ...]):
        # internal constructor: callers go through make_graph / helpers
        self.n = n
        self._adj = adj

    # -- queries -------------------------------------------------------------

    def adj_bits(self, u: int) -> int:
        return self._adj[u]

    @property
    def rows(self) -> tuple[int, ...]:
        """Every vertex's adjacency row, as a bit set, in vertex order."""
        return self._adj

    def degree(self, u: int) -> int:
        return self._adj[u].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(a.bit_count() for a in self._adj)

    @property
    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self._adj) // 2

    @property
    def min_degree(self) -> int:
        return min((a.bit_count() for a in self._adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._adj[u] >> v & 1)

    def neighbors(self, u: int) -> tuple[int, ...]:
        return tuple(bits_to_vertices(self._adj[u]))

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            rest = self._adj[u] >> (u + 1) << (u + 1)
            out.extend((u, v) for v in bits_to_vertices(rest))
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self._adj == other._adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"

    # -- derived graphs -------------------------------------------------------

    def add_edges(self, pairs: Iterable[tuple[int, int]]) -> "Graph":
        adj = list(self._adj)
        for u, v in pairs:
            _check_pair(self.n, u, v)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return Graph(self.n, tuple(adj))

    def remove_edges(self, pairs: Iterable[tuple[int, int]]) -> "Graph":
        adj = list(self._adj)
        for u, v in pairs:
            _check_pair(self.n, u, v)
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
        return Graph(self.n, tuple(adj))

    # -- connectivity ----------------------------------------------------------

    def component_masks(self, within: int | None = None) -> list[int]:
        """Vertex bit masks of the connected components of the subgraph
        induced on the vertex mask `within` (default: every vertex), ordered
        by least vertex."""
        left = (1 << self.n) - 1 if within is None else within
        comps = []
        while left:
            comp = frontier = left & -left
            while frontier:
                nxt = 0
                for v in bits_to_vertices(frontier):
                    nxt |= self._adj[v]
                frontier = nxt & left & ~comp
                comp |= frontier
            comps.append(comp)
            left &= ~comp
        return comps

    def components(self) -> list[tuple[int, ...]]:
        return [tuple(bits_to_vertices(m)) for m in self.component_masks()]

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.component_masks()) == 1


def bits_to_vertices(bits: int) -> Iterator[int]:
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _check_pair(n: int, u: int, v: int) -> None:
    if not (0 <= u < n and 0 <= v < n):
        raise GraphError(f"vertex out of range: ({u}, {v}) with n={n}")
    if u == v:
        raise GraphError(f"loop edge at vertex {u}")


def make_graph(n: int, edges: Iterable[tuple[int, int]] = ()) -> Graph:
    """Build a graph on vertices 0..n-1; duplicate edges are idempotent."""
    if not 1 <= n <= MAX_VERTICES:
        raise GraphError(f"vertex count {n} outside 1..{MAX_VERTICES}")
    adj = [0] * n
    for u, v in edges:
        _check_pair(n, u, v)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def join(g: Graph, h: Graph) -> Graph:
    """All of g, all of h (shifted), plus every edge between the two."""
    n = g.n + h.n
    if n > MAX_VERTICES:
        raise GraphError(f"join order {n} exceeds {MAX_VERTICES}")
    hi = ((1 << h.n) - 1) << g.n
    lo = (1 << g.n) - 1
    adj = [a | hi for a in g._adj]
    adj += [(a << g.n) | lo for a in h._adj]
    return Graph(n, tuple(adj))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    n = g.n + h.n
    if n > MAX_VERTICES:
        raise GraphError(f"union order {n} exceeds {MAX_VERTICES}")
    adj = list(g._adj) + [a << g.n for a in h._adj]
    return Graph(n, tuple(adj))


def edge_counts(g: Graph, s: Iterable[int], t: Iterable[int]) -> int:
    """e(S, T): edges with one end in S and one in T.

    With S == T this is e(G[S]). Distinct overlapping sets are rejected: every
    use here has either S == T or disjoint sets, and the overlap convention
    would otherwise be a silent choice.
    """
    sm = vertices_to_bits(g.n, s)
    tm = vertices_to_bits(g.n, t)
    if sm == tm:
        return sum((g._adj[v] & sm).bit_count() for v in bits_to_vertices(sm)) // 2
    if sm & tm:
        raise GraphError("edge_counts: distinct S and T must be disjoint")
    return sum((g._adj[v] & tm).bit_count() for v in bits_to_vertices(sm))


def vertices_to_bits(n: int, vs: Iterable[int]) -> int:
    mask = 0
    for v in vs:
        if not 0 <= v < n:
            raise GraphError(f"vertex {v} out of range for n={n}")
        mask |= 1 << v
    return mask


@dataclass(frozen=True)
class ApexPartition:
    """Vertex split around an apex z: its neighborhood Z, the rest W,
    and Z itself split by having neighbors inside Z (Zplus) or not (Z0)."""

    z: int
    Z: frozenset[int]
    W: frozenset[int]
    Z0: frozenset[int]
    Zplus: frozenset[int]


def apex_partition(g: Graph, z: int) -> ApexPartition:
    if not 0 <= z < g.n:
        raise GraphError(f"apex {z} out of range")
    zbits = g._adj[z]
    full = (1 << g.n) - 1
    wbits = full & ~zbits & ~(1 << z)
    z0 = 0
    for v in bits_to_vertices(zbits):
        if not (g._adj[v] & zbits):
            z0 |= 1 << v
    return ApexPartition(
        z=z,
        Z=frozenset(bits_to_vertices(zbits)),
        W=frozenset(bits_to_vertices(wbits)),
        Z0=frozenset(bits_to_vertices(z0)),
        Zplus=frozenset(bits_to_vertices(zbits & ~z0)),
    )


# -- isomorphism ---------------------------------------------------------------


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Pairwise isomorphism by backtracking over degree-refined classes.

    Intended for small orders (n <= 12 or so); an order mismatch is just
    False, not an error.
    """
    return next(_isomorphisms(g, h), None) is not None


def automorphism_count(g: Graph) -> int:
    """|Aut(G)|: the isomorphisms of g onto itself, each found once by the
    same backtracking search as ``is_isomorphic``."""
    return sum(1 for _ in _isomorphisms(g, g))


def _isomorphisms(g: Graph, h: Graph) -> Iterator[tuple[int, ...]]:
    """Every isomorphism of g onto h, as the image of each vertex of g.

    Vertices of g are mapped in a fixed order, most-constrained colors first,
    each onto an unused vertex of h of the same refined color whose
    adjacency to the images so far matches its own adjacency to the vertices
    mapped so far.
    """
    n = g.n
    if n != h.n or g.edge_count != h.edge_count:
        return
    cg, ch = _refine_colors_jointly(g, h)
    if sorted(cg) != sorted(ch):
        return
    by_color: dict[int, list[int]] = {}
    for v in range(n):
        by_color.setdefault(ch[v], []).append(v)
    order = sorted(range(n), key=lambda v: (len(by_color[cg[v]]), v))
    mapping = [-1] * n

    def extend(idx: int, mapped: int, used: int) -> Iterator[tuple[int, ...]]:
        # mapped: the g-vertices order[:idx] as bits; used: their images
        if idx == n:
            yield tuple(mapping)
            return
        u = order[idx]
        # the images of u's neighbours among the mapped vertices
        want = 0
        for w in bits_to_vertices(g._adj[u] & mapped):
            want |= 1 << mapping[w]
        for v in by_color[cg[u]]:
            if not used >> v & 1 and h._adj[v] & used == want:
                mapping[u] = v
                yield from extend(idx + 1, mapped | 1 << u, used | 1 << v)

    yield from extend(0, 0, 0)


def _refine_colors_jointly(g: Graph, h: Graph) -> tuple[list[int], list[int]]:
    """Iterated (color, neighbor-color multiset) refinement with ids shared
    between the two graphs, so equal colors mean equal refinement history.
    Each round splits classes or leaves them all as they are, so it stops
    once the number of classes stops growing."""
    cg = list(g.degrees())
    ch = list(h.degrees())
    gn = [g.neighbors(v) for v in range(g.n)]
    hn = [h.neighbors(v) for v in range(h.n)]
    classes = len(set(cg) | set(ch))
    for _ in range(g.n):
        kg = [(cg[v], tuple(sorted(cg[w] for w in gn[v]))) for v in range(g.n)]
        kh = [(ch[v], tuple(sorted(ch[w] for w in hn[v]))) for v in range(h.n)]
        canon = {k: i for i, k in enumerate(sorted(set(kg) | set(kh)))}
        cg = [canon[k] for k in kg]
        ch = [canon[k] for k in kh]
        if len(canon) == classes:
            break
        classes = len(canon)
    return cg, ch


# -- edge-bitmask conventions ---------------------------------------------------


@functools.cache
def index_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The edge slots of order n: bit b of an edge bitmask is the pair
    ``index_pairs(n)[b]``. Pair (i, j) with i < j is bit j*(j-1)/2 + i:
    increasing j, then i. This is the graph6 bit order, and enumeration in
    ascending mask order is the canonical sweep order for the exhaustive
    verifier. Every mask conversion reads this one table."""
    return tuple((i, j) for j in range(1, n) for i in range(j))


def mask_of(g: Graph) -> int:
    """The edge bitmask of g, the inverse of ``graph_from_mask``."""
    return sum(1 << b for b, (i, j) in enumerate(index_pairs(g.n)) if g.has_edge(i, j))


def graph_from_mask(n: int, mask: int) -> Graph:
    """The graph of order n whose edges are the set bits of mask; GraphError
    for a bit at or past the C(n, 2) edge slots."""
    pairs = index_pairs(n)
    if mask < 0 or mask >> len(pairs):
        raise GraphError(f"mask {mask:#x} has a bit outside the {len(pairs)} "
                         f"edge slots of order {n}")
    adj = [0] * n
    for b in bits_to_vertices(mask):
        i, j = pairs[b]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return Graph(n, tuple(adj))


# -- graph6 ---------------------------------------------------------------------


def graph6_encode(g: Graph) -> str:
    """Standard graph6: the size header, then the edge bitmask packed six
    slots per character, slot 0 first and each character's first slot as
    its high bit, zero-padded to whole characters."""
    n = g.n
    if n <= 62:
        head = chr(63 + n)
    elif n <= 258047:
        head = "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    else:
        raise Graph6Error(f"order {n} too large for graph6")
    width = (n * (n - 1) // 2 + 5) // 6 * 6
    bits = f"{mask_of(g):0{width}b}"[::-1]  # slot b is bits[b]
    return head + "".join(chr(63 + int(bits[k : k + 6], 2)) for k in range(0, width, 6))


def graph6_decode(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise Graph6Error("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(not 0 <= d <= 63 for d in data):
        raise Graph6Error("graph6 byte outside printable range")
    if data[0] < 63:
        n = data[0]
        body = data[1:]
    else:
        if len(data) < 4 or data[1] == 63:
            raise Graph6Error("malformed graph6 long-form header")
        n = data[1] << 12 | data[2] << 6 | data[3]
        body = data[4:]
    if n == 0:
        raise Graph6Error("graph6 order 0 not supported here")
    if n > MAX_VERTICES:
        raise Graph6Error(f"graph6 order {n} exceeds cap {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise Graph6Error(f"graph6 length mismatch: got {len(body)} groups, need {need}")
    bits = "".join(f"{d:06b}" for d in body)  # slot b is bits[b]
    mask = int("0" + bits[::-1], 2)
    if mask >> nbits:
        raise Graph6Error("graph6 trailing padding bits are nonzero")
    return graph_from_mask(n, mask)
