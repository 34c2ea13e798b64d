"""Named graph families: classics, the threshold extremal graphs, and the
catalog of hub-plus-clique-pack competitors used by the verifier.

Vertex conventions for the catalog families (U1..U12, G1..G13):
vertex 0 is the designated hub z, vertex 1 is the outside vertex w, the seed
body follows, and any K4 packs are appended last, each joined fully to z.
The seed edge lists are fixture data transcribed once here; the test suite
pins their orders, sizes and degree sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph, GraphError, disjoint_union, join, make_graph


class FamilyError(GraphError):
    """Family parameters outside their validity range."""


@dataclass(frozen=True)
class BuiltFamily:
    graph: Graph


# -- classics ----------------------------------------------------------------


def complete(n: int) -> Graph:
    _need(n >= 1, f"Complete needs n >= 1, got {n}")
    return make_graph(n, combinations(range(n), 2))


def path(n: int) -> Graph:
    _need(n >= 1, f"Path needs n >= 1, got {n}")
    return make_graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    _need(n >= 3, f"Cycle needs n >= 3, got {n}")
    return make_graph(n, ((i, (i + 1) % n) for i in range(n)))


def star(s: int) -> Graph:
    """K_{1,s}: center 0, leaves 1..s."""
    _need(s >= 1, f"Star needs s >= 1, got {s}")
    return make_graph(s + 1, ((0, i) for i in range(1, s + 1)))


def star_plus(s: int) -> Graph:
    """K+_{1,s}: the star plus one edge between leaves 1 and 2."""
    _need(s >= 2, f"StarPlus needs s >= 2, got {s}")
    return star(s).add_edges([(1, 2)])


def double_star(n1: int, n2: int) -> Graph:
    """S_{n1,n2}: centers 0 and 1 adjacent; 0 carries n1 leaves, 1 carries n2."""
    _need(n1 >= 1 and n2 >= 1, f"DoubleStar needs n1, n2 >= 1, got ({n1}, {n2})")
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(n1)]
    edges += [(1, 2 + n1 + i) for i in range(n2)]
    return make_graph(n1 + n2 + 2, edges)


def complete_multipartite(*parts: int) -> Graph:
    _need(len(parts) >= 1 and all(p >= 1 for p in parts), f"bad parts {parts}")
    n = sum(parts)
    bounds = []
    acc = 0
    for p in parts:
        bounds.append((acc, acc + p))
        acc += p
    edges = []
    for (a0, a1), (b0, b1) in combinations(bounds, 2):
        edges += [(i, j) for i in range(a0, a1) for j in range(b0, b1)]
    return make_graph(n, edges)


def c4_plus() -> Graph:
    """C4 plus one diagonal: cycle 0-1-2-3 with chord 0-2."""
    return make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])


def k11n2_plus(n: int) -> BuiltFamily:
    """K_{1,1,n-2} with one extra edge inside the large class.

    Layout: 0, 1 universal (and adjacent), vertex 0 the apex; 2, 3 the extra
    edge; 4.. the rest.
    """
    _need(n >= 4, f"K11n2Plus needs n >= 4, got {n}")
    g = join(make_graph(2, [(0, 1)]), make_graph(n - 2, [(0, 1)]))
    return BuiltFamily(g)


def k1_join_k4_union_k1() -> BuiltFamily:
    """K1 v (K4 u K1) on 6 vertices, the n = 6 threshold graph; the K1
    joined to the rest is vertex 0, the apex."""
    body = disjoint_union(complete(4), make_graph(1))
    return BuiltFamily(join(make_graph(1), body))


def extremal_graph(n: int) -> BuiltFamily:
    """The unique threshold graph at order n (n = 6 special, else K+_{1,1,n-2})."""
    _need(n >= 6, f"extremal graph defined for n >= 6, got {n}")
    if n == 6:
        return k1_join_k4_union_k1()
    return k11n2_plus(n)


# -- seed graphs U1..U12 -------------------------------------------------------

# (order, edge list) with 0 = z, 1 = w. Transcribed fixture data; do not edit
# without updating the degree-sequence table in the tests.
_U_SEEDS: dict[int, tuple[int, tuple[tuple[int, int], ...]]] = {
    # quad 2-3-4-5 joined to z; w adjacent to all of it
    1: (6, ((2, 3), (3, 4), (4, 5), (5, 2),
            (0, 2), (0, 3), (0, 4), (0, 5),
            (1, 2), (1, 3), (1, 4), (1, 5))),
    # quad plus diagonal 2-4; w adjacent to the two degree-two corners
    2: (6, ((2, 3), (3, 4), (4, 5), (5, 2), (2, 4),
            (0, 2), (0, 3), (0, 4), (0, 5),
            (1, 3), (1, 5))),
    # U1 plus a pendant vertex 6 on z
    3: (7, ((2, 3), (3, 4), (4, 5), (5, 2),
            (0, 2), (0, 3), (0, 4), (0, 5), (0, 6),
            (1, 2), (1, 3), (1, 4), (1, 5))),
    # U2 plus a pendant vertex 6 on z
    4: (7, ((2, 3), (3, 4), (4, 5), (5, 2), (2, 4),
            (0, 2), (0, 3), (0, 4), (0, 5), (0, 6),
            (1, 3), (1, 5))),
    # U1 plus a triangle 6-7-8 joined to z
    5: (9, ((2, 3), (3, 4), (4, 5), (5, 2),
            (6, 7), (7, 8), (8, 6),
            (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8),
            (1, 2), (1, 3), (1, 4), (1, 5))),
    # U2 plus a triangle 6-7-8 joined to z
    6: (9, ((2, 3), (3, 4), (4, 5), (5, 2), (2, 4),
            (6, 7), (7, 8), (8, 6),
            (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8),
            (1, 3), (1, 5))),
    # w inside a K4 (w,2,3,4); triangle 5-6-7; z joined to 2,3,4,5,6,7
    7: (8, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
            (5, 6), (6, 7), (7, 5),
            (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7))),
    # w inside a K4 (w,2,3,4); vertex 5 adjacent to z and w; z joined to 2,3,4
    8: (6, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
            (0, 2), (0, 3), (0, 4), (0, 5), (1, 5))),
    # star core: center 2, leaves 3,4,5, extra edge 3-4; z joined to all of it;
    # w adjacent to every leaf
    9: (6, ((2, 3), (2, 4), (2, 5), (3, 4),
            (0, 2), (0, 3), (0, 4), (0, 5),
            (1, 3), (1, 4), (1, 5))),
    # same with four leaves; w adjacent to the edge pair and one plain leaf
    10: (7, ((2, 3), (2, 4), (2, 5), (2, 6), (3, 4),
             (0, 2), (0, 3), (0, 4), (0, 5), (0, 6),
             (1, 3), (1, 4), (1, 5))),
    # same with five leaves
    11: (8, ((2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 4),
             (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7),
             (1, 3), (1, 4), (1, 5))),
}


def u_graph(i: int, s: int | None = None) -> BuiltFamily:
    """Seed graph U_i; U12 takes the fan width s and has order s + 3... + w."""
    if i == 12:
        _need(s is not None and s >= 3, f"U12 needs s >= 3, got {s}")
        return BuiltFamily(_u12(s))
    _need(i in _U_SEEDS, f"unknown seed index {i}")
    _need(s is None, f"U{i} takes no s parameter")
    n, edges = _U_SEEDS[i]
    return BuiltFamily(make_graph(n, edges))


def _u12(s: int) -> Graph:
    # star center 2 with leaves 3..s+2; z adjacent to center and leaves;
    # w adjacent to every leaf
    leaves = range(3, s + 3)
    edges = [(2, v) for v in leaves]
    edges += [(0, 2)] + [(0, v) for v in leaves]
    edges += [(1, v) for v in leaves]
    return make_graph(s + 3, edges)


def u_order(i: int, s: int | None = None) -> int:
    if i == 12:
        _need(s is not None and s >= 3, f"U12 needs s >= 3, got {s}")
        return s + 3
    _need(i in _U_SEEDS, f"unknown seed index {i}")
    return _U_SEEDS[i][0]


def _with_k4_packs(g: Graph, z: int, packs: int) -> Graph:
    for _ in range(packs):
        base = g.n
        g = disjoint_union(g, complete(4))
        g = g.add_edges((z, base + t) for t in range(4))
    return g


def g_graph(i: int, n: int, s: int | None = None) -> BuiltFamily:
    """Catalog graph G_i on n vertices: U_i with (n - |U_i|)/4 K4 packs on z.

    G13 is K_{3,n-3} plus one edge inside the 3-class (no packs; apex is a
    vertex of the 3-class covering everything but one other class vertex).
    """
    if i == 13:
        _need(n >= 7, f"G13 needs n >= 7, got {n}")
        g = complete_multipartite(3, n - 3).add_edges([(0, 1)])
        return BuiltFamily(g)
    if i == 12:
        _need(s is not None and s >= 3, f"G12 needs s >= 3, got {s}")
        _need(n >= s + 7, f"G12 needs n >= s + 7, got n={n}, s={s}")
        base = u_order(12, s)
        _need((n - base) % 4 == 0, f"G12 needs n == s + 3 (mod 4), got n={n}, s={s}")
        built = u_graph(12, s)
        return BuiltFamily(_with_k4_packs(built.graph, 0, (n - base) // 4))
    _need(s is None, f"G{i} takes no s parameter")
    base = u_order(i)
    _need(n >= 7 and n >= base, f"G{i} needs n >= max(7, {base}), got {n}")
    _need((n - base) % 4 == 0, f"G{i} needs n == {base % 4} (mod 4), got {n}")
    built = u_graph(i)
    return BuiltFamily(_with_k4_packs(built.graph, 0, (n - base) // 4))


# -- hub joined to K4 packs plus a small remainder ------------------------------


def k1_join_k4s(n: int) -> BuiltFamily:
    """K1 v ((n-1)/4) K4; requires n == 1 (mod 4)."""
    _need(n >= 5 and n % 4 == 1, f"K1JoinK4s needs n == 1 (mod 4), n >= 5, got {n}")
    g = _with_k4_packs(make_graph(1), 0, (n - 1) // 4)
    return BuiltFamily(g)


def k1_join_k1_k4s(n: int) -> BuiltFamily:
    """K1 v (K1 u ((n-2)/4) K4); requires n == 2 (mod 4)."""
    _need(n >= 6 and n % 4 == 2, f"K1JoinK1K4s needs n == 2 (mod 4), n >= 6, got {n}")
    g = join(make_graph(1), make_graph(1))
    return BuiltFamily(_with_k4_packs(g, 0, (n - 2) // 4))


def k1_join_k2_k4s(n: int) -> BuiltFamily:
    """K1 v (K2 u ((n-3)/4) K4); requires n == 3 (mod 4)."""
    _need(n >= 7 and n % 4 == 3, f"K1JoinK2K4s needs n == 3 (mod 4), n >= 7, got {n}")
    g = join(make_graph(1), make_graph(2, [(0, 1)]))
    return BuiltFamily(_with_k4_packs(g, 0, (n - 3) // 4))


def k1_join_star_plus_k4s(n: int, s: int) -> BuiltFamily:
    """K1 v (K+_{1,s} u ((n-s-2)/4) K4); requires 2 <= s <= n - 6.

    Layout: apex 0; star center 1; leaves 2..s+1 with extra edge 2-3;
    K4 packs appended.
    """
    _need(s >= 2, f"K1JoinStarPlusK4s needs s >= 2, got {s}")
    _need(n >= s + 6, f"K1JoinStarPlusK4s needs n >= s + 6, got n={n}, s={s}")
    _need((n - s - 2) % 4 == 0,
          f"K1JoinStarPlusK4s needs n == s + 2 (mod 4), got n={n}, s={s}")
    g = join(make_graph(1), star_plus(s))
    return BuiltFamily(_with_k4_packs(g, 0, (n - s - 2) // 4))


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise FamilyError(msg)


# -- string registry for the CLI -------------------------------------------------

_REGISTRY = {
    "Complete": (complete, ("n",)),
    "Path": (path, ("n",)),
    "Cycle": (cycle, ("n",)),
    "Star": (star, ("s",)),
    "StarPlus": (star_plus, ("s",)),
    "DoubleStar": (double_star, ("n1", "n2")),
    "C4Plus": (c4_plus, ()),
    "K11n2Plus": (k11n2_plus, ("n",)),
    "K1JoinK4UnionK1": (k1_join_k4_union_k1, ()),
    "Extremal": (extremal_graph, ("n",)),
    "K1JoinK4s": (k1_join_k4s, ("n",)),
    "K1JoinK1K4s": (k1_join_k1_k4s, ("n",)),
    "K1JoinK2K4s": (k1_join_k2_k4s, ("n",)),
    "K1JoinStarPlusK4s": (k1_join_star_plus_k4s, ("n", "s")),
}


def family_names() -> list[str]:
    names = sorted(_REGISTRY)
    names.append("CompleteMultipartite (parts=a,b,...)")
    names.sort()
    names += [f"U{i}" for i in range(1, 12)] + ["U12 (s=...)"]
    names += [f"G{i} (n=...)" for i in range(1, 12)]
    names += ["G12 (n=...,s=...)", "G13 (n=...)"]
    return names


def build_family(spec: str) -> BuiltFamily:
    """Build from a CLI spec string like ``G12:n=10,s=3`` or ``Cycle:n=9``."""
    name, _, paramstr = spec.partition(":")
    name = name.strip()

    if name == "CompleteMultipartite":
        # class sizes separated by commas: CompleteMultipartite:parts=2,2,2
        key, _, raw = paramstr.partition("=")
        if key.strip() != "parts" or not raw.strip():
            raise FamilyError("CompleteMultipartite needs parts=a,b,...")
        try:
            sizes = [int(p) for p in raw.split(",")]
        except ValueError as exc:
            raise FamilyError(f"non-integer class size in {spec!r}") from exc
        return BuiltFamily(complete_multipartite(*sizes))

    params: dict[str, int] = {}
    if paramstr.strip():
        for item in paramstr.split(","):
            key, _, val = item.partition("=")
            if not val:
                raise FamilyError(f"bad family parameter {item!r} in {spec!r}")
            try:
                params[key.strip()] = int(val)
            except ValueError as exc:
                raise FamilyError(f"non-integer parameter in {spec!r}") from exc

    if name.startswith("U") and name[1:].isdigit():
        i = int(name[1:])
        return u_graph(i, params.get("s"))
    if name.startswith("G") and name[1:].isdigit():
        i = int(name[1:])
        if "n" not in params:
            raise FamilyError(f"{name} needs n=...")
        return g_graph(i, params["n"], params.get("s"))

    if name not in _REGISTRY:
        raise FamilyError(f"unknown family {name!r}")
    fn, argnames = _REGISTRY[name]
    missing = [a for a in argnames if a not in params]
    extra = [a for a in params if a not in argnames]
    if missing or extra:
        raise FamilyError(
            f"{name} takes parameters {argnames}; missing {missing}, extra {extra}"
        )
    out = fn(*(params[a] for a in argnames))
    return out if isinstance(out, BuiltFamily) else BuiltFamily(out)
