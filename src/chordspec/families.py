"""Named graph families: classics, the threshold extremal graphs, and the
catalog of hub-plus-clique-pack competitors used by the verifier.

Every catalog family but G13 is a small base graph plus (n - |base|)/4 K4
packs, each joined fully to vertex 0, and exists exactly at the orders
n >= its minimum with n == |base| (mod 4); ``_with_k4_packs`` applies that
one rule for all of them. For U1..U12 and G1..G12, vertex 0 is the
designated hub z, vertex 1 is the outside vertex w, the seed body follows,
and the packs come last. The seed edge lists are fixture data transcribed
once here; the test suite pins their orders, sizes and degree sequences.

``_REGISTRY`` has one row per family name, U_i and G_i included: its builder
and the parameters it takes. ``build_family`` and ``family_names`` read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
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


@cache  # the base of K1JoinStarPlusK4s, asked for at every order tried
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


@cache  # the appendix asks for each base at every order it tries
def u_graph(i: int, s: int | None = None) -> BuiltFamily:
    """Seed graph U_i; U12 takes the fan width s and has order s + 3."""
    if i == 12:
        _need(s is not None and s >= 3, f"U12 needs s >= 3, got {s}")
        # star center 2 with leaves 3..s+2; z adjacent to center and leaves;
        # w adjacent to every leaf
        leaves = range(3, s + 3)
        edges = [(0, 2)] + [(u, v) for v in leaves for u in (0, 1, 2)]
        return BuiltFamily(make_graph(s + 3, edges))
    _need(i in _U_SEEDS, f"unknown seed index {i}")
    _need(s is None, f"U{i} takes no s parameter")
    n, edges = _U_SEEDS[i]
    return BuiltFamily(make_graph(n, edges))


def _with_k4_packs(name: str, base: Graph, n: int, min_n: int) -> BuiltFamily:
    """base plus (n - |base|)/4 K4 packs joined to vertex 0, refusing every n
    below min_n (which is at least |base|) or not == |base| (mod 4)."""
    _need(n >= min_n and (n - base.n) % 4 == 0,
          f"{name} needs n >= {min_n} and n == {base.n % 4} (mod 4), got {n}")
    g = base
    for first in range(base.n, n, 4):
        g = disjoint_union(g, complete(4)).add_edges((0, first + t) for t in range(4))
    return BuiltFamily(g)


def g_graph(i: int, n: int, s: int | None = None) -> BuiltFamily:
    """Catalog graph G_i on n vertices: U_i with (n - |U_i|)/4 K4 packs on z,
    at n >= 7 (n >= s + 7 for G12).

    G13 is K_{3,n-3} plus one edge inside the 3-class (no packs; apex is a
    vertex of the 3-class covering everything but one other class vertex).
    """
    if i == 13:
        _need(s is None, "G13 takes no s parameter")
        _need(n >= 7, f"G13 needs n >= 7, got {n}")
        return BuiltFamily(complete_multipartite(3, n - 3).add_edges([(0, 1)]))
    base = u_graph(i, s).graph
    return _with_k4_packs(f"G{i}", base, n, base.n + 4 if i == 12 else max(7, base.n))


# -- hub joined to K4 packs plus a small remainder ------------------------------


def k1_join_k4s(n: int) -> BuiltFamily:
    """K1 v ((n-1)/4) K4; requires n == 1 (mod 4), n >= 5."""
    return _with_k4_packs("K1JoinK4s", make_graph(1), n, 5)


def k1_join_k1_k4s(n: int) -> BuiltFamily:
    """K1 v (K1 u ((n-2)/4) K4); requires n == 2 (mod 4), n >= 6."""
    return _with_k4_packs("K1JoinK1K4s", complete(2), n, 6)


def k1_join_k2_k4s(n: int) -> BuiltFamily:
    """K1 v (K2 u ((n-3)/4) K4); requires n == 3 (mod 4), n >= 7."""
    return _with_k4_packs("K1JoinK2K4s", complete(3), n, 7)


def k1_join_star_plus_k4s(n: int, s: int) -> BuiltFamily:
    """K1 v (K+_{1,s} u ((n-s-2)/4) K4); requires s >= 2, n >= s + 6 and
    n == s + 2 (mod 4).

    Layout: apex 0; star center 1; leaves 2..s+1 with extra edge 2-3;
    K4 packs appended.
    """
    return _with_k4_packs("K1JoinStarPlusK4s", join(make_graph(1), star_plus(s)),
                          n, s + 6)


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise FamilyError(msg)


# -- string registry for the CLI -------------------------------------------------

# name -> (builder, parameter names), in the order `family --list` prints.
_REGISTRY = {
    "C4Plus": (c4_plus, ()),
    "Complete": (complete, ("n",)),
    "CompleteMultipartite": (complete_multipartite, ("parts",)),
    "Cycle": (cycle, ("n",)),
    "DoubleStar": (double_star, ("n1", "n2")),
    "Extremal": (extremal_graph, ("n",)),
    "K11n2Plus": (k11n2_plus, ("n",)),
    "K1JoinK1K4s": (k1_join_k1_k4s, ("n",)),
    "K1JoinK2K4s": (k1_join_k2_k4s, ("n",)),
    "K1JoinK4UnionK1": (k1_join_k4_union_k1, ()),
    "K1JoinK4s": (k1_join_k4s, ("n",)),
    "K1JoinStarPlusK4s": (k1_join_star_plus_k4s, ("n", "s")),
    "Path": (path, ("n",)),
    "Star": (star, ("s",)),
    "StarPlus": (star_plus, ("s",)),
}
_REGISTRY |= {f"U{i}": (partial(u_graph, i), ("s",) if i == 12 else ())
              for i in range(1, 13)}
_REGISTRY |= {f"G{i}": (partial(g_graph, i), ("n", "s") if i == 12 else ("n",))
              for i in range(1, 14)}

_LIST_PARAM = "parts"  # the one parameter that takes a comma-separated list


def family_names() -> list[str]:
    """Every registered family, with the parameters its spec takes."""
    names = []
    for name, (_, argnames) in _REGISTRY.items():
        shown = ",".join("parts=a,b,..." if a == _LIST_PARAM else f"{a}=..."
                         for a in argnames)
        names.append(f"{name} ({shown})" if shown else name)
    return names


def build_family(spec: str) -> BuiltFamily:
    """Build from a CLI spec string like ``G12:n=10,s=3``, ``Cycle:n=9`` or
    ``CompleteMultipartite:parts=2,2,2``. The family must take exactly the
    parameters given, each once."""
    name, _, paramstr = spec.partition(":")
    name = name.strip()
    if name not in _REGISTRY:
        raise FamilyError(f"unknown family {name!r}")
    fn, argnames = _REGISTRY[name]

    params: dict[str, list[int]] = {}
    key = None
    for item in paramstr.split(",") if paramstr.strip() else ():
        if "=" in item:
            key, _, val = item.partition("=")
            key = key.strip()
            if key in params:
                raise FamilyError(f"parameter {key!r} given twice in {spec!r}")
            params[key] = []
        elif key == _LIST_PARAM:
            val = item
        else:
            raise FamilyError(f"bad family parameter {item!r} in {spec!r}")
        try:
            params[key].append(int(val))
        except ValueError as exc:
            raise FamilyError(f"non-integer parameter in {spec!r}") from exc

    missing = [a for a in argnames if a not in params]
    extra = [a for a in params if a not in argnames]
    if missing or extra:
        raise FamilyError(
            f"{name} takes parameters {argnames}; missing {missing}, extra {extra}"
        )
    out = fn(*(v for a in argnames for v in params[a]))
    return out if isinstance(out, BuiltFamily) else BuiltFamily(out)
