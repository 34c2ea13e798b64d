"""Closed-form characteristic polynomials and equitable-partition fixtures for
the catalog families.

``FIXTURES`` is the one table of catalog items 1..18. Each entry ties a
catalog family builder to the block partition of its vertex set (under the
builders' fixed vertex layout), whose integer quotient matrix is
``quotient_template`` in n (and the fan width s), and whose characteristic
polynomial is the closed form ``g<item>``. The builders alone decide at
which orders (n, s) a graph exists, and ``fixture_graphs`` yields the graphs
they accept. The template/polynomial identities hold at every integer order,
not just those, and are checked at the ``template_keys``: every order from
the entry's ``template_min_n`` on, at the widths ``Fixture.widths`` gives.
The fan-width chains compare (n, s) with (n, s + 4), over ``fan_chain`` of
either set of keys. ``threshold_partition`` and
``threshold_quotient_template`` do the same for the threshold family.

Polynomial ids: ``g`` (threshold family K+_{1,1,n-2}), ``g1``..``g18``
(catalog quotients), ``f`` (the degree-4 cofactor of g7), ``h1`` and ``h2``
(the fan-width difference polynomials g12(x,s) - g12(x,s+4) and
g18(x,s) - g18(x,s+4), computed as differences).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .families import (
    BuiltFamily,
    FamilyError,
    g_graph,
    k1_join_k1_k4s,
    k1_join_k2_k4s,
    k1_join_k4s,
    k1_join_star_plus_k4s,
    u_graph,
)
from .polynomials import IntPolynomial


class AppendixError(ValueError):
    """Unknown polynomial id or parameters out of range."""


def _poly(*ascending: int) -> IntPolynomial:
    return IntPolynomial(ascending)


def appendix_polynomial(pid: str, n: int, s: int | None = None) -> IntPolynomial:
    """Closed-form polynomial ``pid`` with n (and s) substituted, exactly."""
    pid = pid.lower()
    if pid == "g":
        _rng(n >= 6, f"g needs n >= 6, got {n}")
        return _poly(-24, 4 * n + 12, -(n + 6), 1)
    if pid == "f":
        _rng(n >= 7, f"f needs n >= 7, got {n}")
        return _poly(75 * n - 180, 42 - 60 * n, 14 * n + 40, -(n + 13), 1)
    if pid == "h1":
        _rng(s is not None and s >= 3 and n >= 7, f"h1 needs n >= 7, s >= 3")
        return appendix_polynomial("g12", n, s) - appendix_polynomial("g12", n, s + 4)
    if pid == "h2":
        _rng(s is not None and s >= 3 and n >= 7, f"h2 needs n >= 7, s >= 3")
        return appendix_polynomial("g18", n, s) - appendix_polynomial("g18", n, s + 4)
    if not pid.startswith("g"):
        raise AppendixError(f"unknown polynomial id {pid!r}")
    try:
        idx = int(pid[1:])
    except ValueError as exc:
        raise AppendixError(f"unknown polynomial id {pid!r}") from exc
    if idx in (12, 18):
        _rng(s is not None and s >= 3, f"{pid} needs s >= 3, got {s}")
    else:
        _rng(s is None, f"{pid} takes no s parameter")
    _rng(n >= 7, f"{pid} needs n >= 7, got {n}")

    if idx == 1:
        return _poly(120 * n - 272, -(80 * n - 24), 16 * n + 58, -(n + 15), 1)
    if idx == 2:
        return _poly(-600 * n + 1480, 520 * n - 452, -(160 * n + 260),
                     21 * n + 133, -(n + 20), 1)
    if idx == 3:
        return _poly(-132 * n + 288, 214 * n - 288, -(98 * n + 48),
                     17 * n + 75, -(n + 16), 1)
    if idx == 4:
        # (x - 1) times a degree-5 cofactor; the cofactor is the exact CP
        # factor of the 6x6 quotient template B4 (it differs from g3 by
        # 6x^2 - 60x + 132)
        cof = _poly(-132 * n + 420, 214 * n - 348, -(98 * n + 42),
                    17 * n + 75, -(n + 16), 1)
        return _poly(-1, 1) * cof
    if idx == 5:
        return _poly(-120 * n + 392, 200 * n - 356, -(96 * n + 28),
                     17 * n + 73, -(n + 16), 1)
    if idx == 6:
        return _poly(660 * n - 1572, 1920 - 1202 * n, 704 * n - 114,
                     -(183 * n + 417), 22 * n + 155, -(n + 21), 1)
    if idx == 7:
        return _poly(-6, 1) * appendix_polynomial("f", n)
    if idx == 8:
        return _poly(-216 * n + 624, 276 * n - 384, -(112 * n + 84),
                     18 * n + 88, -(n + 17), 1)
    if idx == 9:
        return _poly(618 * n - 1524, 1612 - 1051 * n, 620 * n - 91,
                     -(167 * n + 358), 21 * n + 140, -(n + 20), 1)
    if idx == 10:
        return _poly(-1440 * n + 4256, 3174 * n - 6322, 2307 - 2643 * n,
                     1073 * n + 739, -(227 * n + 731), 24 * n + 197,
                     -(n + 23), 1)
    if idx == 11:
        return _poly(-1644 * n + 5872, 3628 * n - 8328, 2952 - 2995 * n,
                     1192 * n + 841, -(245 * n + 824), 25 * n + 214,
                     -(n + 24), 1)
    if idx == 12:
        assert s is not None
        return _poly(
            6 * s**3 - (6 * n - 2) * s**2 - (12 * n - 36) * s,
            (7 * n - 14) * s**2 + (32 * n - 44) * s + 18 * n - 54,
            -((n + 6) * s**2 + (17 * n + 2) * s + 27 * n - 39),
            s**2 + (2 * n + 15) * s + 10 * n + 11,
            -(n + 2 * s + 9),
            1,
        )
    if idx == 13:
        return _poly(4 * n**2 - 24 * n + 36, -(n**3 - 4 * n**2 + 7 * n - 12),
                     3 * n**2 - 8 * n + 3, -(3 * n - 4), 1)
    if idx == 14:
        return _poly(6 * n - 6, -(n + 6), 1)
    if idx == 15:
        return _poly(-6 * n + 12, 7 * n, -(n + 7), 1)
    if idx == 16:
        return _poly(-18 * n + 26, 9 * n + 12, -(n + 9), 1)
    if idx == 17:
        return _poly(-30 * n + 36, 11 * n + 24, -(n + 11), 1)
    if idx == 18:
        assert s is not None
        return _poly(
            24 * s**2 - 48 * s - 24 * n * s - 72 * n + 144,
            -(6 * s**2 - 34 * n * s - 96 * n + 24),
            -(56 * n + 26 * s + 11 * n * s + 52),
            13 * n + 11 * s + n * s + 50,
            -(n + s + 13),
            1,
        )
    raise AppendixError(f"unknown polynomial id {pid!r}")


def _rng(cond: bool, msg: str) -> None:
    if not cond:
        raise AppendixError(msg)


# -- quotient matrix templates -----------------------------------------------------


def threshold_quotient_template(n: int) -> list[list[int]]:
    """3x3 integer quotient of K+_{1,1,n-2} over blocks
    {two universal} {edge pair} {rest}; charpoly is ``g``."""
    _rng(n >= 6, f"threshold template needs n >= 6, got {n}")
    return [[n, 2, n - 4], [2, 4, 0], [2, 0, 2]]


def threshold_partition(n: int) -> list[list[int]]:
    """The blocks of ``threshold_quotient_template(n)`` in ``k11n2_plus(n)``."""
    return [[0, 1], [2, 3], list(range(4, n))]


def quotient_template(item: int, n: int, s: int | None = None) -> list[list[int]]:
    """Integer quotient template for fixture ``item`` (1..18) at order n."""
    t = {
        1: [[n - 2, 4, n - 6, 0], [1, 6, 0, 1], [1, 0, 7, 0], [0, 4, 0, 4]],
        2: [[n - 2, 3, 4, n - 9, 0], [1, 5, 0, 0, 0], [1, 0, 6, 0, 1],
            [1, 0, 0, 7, 0], [0, 0, 4, 0, 4]],
        3: [[n - 2, 2, 2, n - 6, 0], [1, 5, 2, 0, 0], [1, 2, 4, 0, 1],
            [1, 0, 0, 7, 0], [0, 0, 2, 0, 2]],
        4: [[n - 2, 1, 2, 2, n - 7, 0], [1, 1, 0, 0, 0, 0], [1, 0, 5, 2, 0, 0],
            [1, 0, 2, 4, 0, 1], [1, 0, 0, 0, 7, 0], [0, 0, 0, 2, 0, 2]],
        5: [[n - 2, 1, 4, n - 7, 0], [1, 1, 0, 0, 0], [1, 0, 6, 0, 1],
            [1, 0, 0, 7, 0], [0, 0, 4, 0, 4]],
        6: [[n - 2, 3, 2, 2, n - 9, 0], [1, 5, 0, 0, 0, 0], [1, 0, 4, 2, 0, 1],
            [1, 0, 2, 5, 0, 0], [1, 0, 0, 0, 7, 0], [0, 0, 2, 0, 0, 2]],
        7: [[n - 2, 3, 3, n - 8, 0], [1, 6, 0, 0, 1], [1, 0, 5, 0, 0],
            [1, 0, 0, 7, 0], [0, 3, 0, 0, 3]],
        8: [[n - 2, 1, 3, n - 6, 0], [1, 2, 0, 0, 1], [1, 0, 6, 0, 1],
            [1, 0, 0, 7, 0], [0, 1, 3, 0, 4]],
        9: [[n - 2, 2, 1, 1, n - 6, 0], [1, 5, 1, 0, 0, 1], [1, 2, 4, 1, 0, 0],
            [1, 0, 1, 3, 0, 1], [1, 0, 0, 0, 7, 0], [0, 2, 0, 1, 0, 3]],
        10: [[n - 2, 2, 1, 1, 1, n - 7, 0], [1, 5, 1, 0, 0, 0, 1],
             [1, 2, 5, 1, 1, 0, 0], [1, 0, 1, 2, 0, 0, 0], [1, 0, 1, 0, 3, 0, 1],
             [1, 0, 0, 0, 0, 7, 0], [0, 2, 0, 0, 1, 0, 3]],
        11: [[n - 2, 2, 1, 2, 1, n - 8, 0], [1, 5, 1, 0, 0, 0, 1],
             [1, 2, 6, 2, 1, 0, 0], [1, 0, 1, 2, 0, 0, 0], [1, 0, 1, 0, 3, 0, 1],
             [1, 0, 0, 0, 0, 7, 0], [0, 2, 0, 0, 1, 0, 3]],
        13: [[n - 2, n - 3, 1, 0], [1, 3, 1, 1], [1, n - 3, n - 2, 0],
             [0, n - 3, 0, n - 3]],
        14: [[n - 1, n - 1], [1, 7]],
        15: [[n - 1, 1, n - 2], [1, 1, 0], [1, 0, 7]],
        16: [[n - 1, 2, n - 3], [1, 3, 0], [1, 0, 7]],
        17: [[n - 1, 3, n - 4], [1, 5, 0], [1, 0, 7]],
    }
    if item == 12:
        _rng(s is not None and s >= 3, "item 12 needs s >= 3")
        return [[n - 2, s, 1, n - s - 3, 0], [1, 3, 1, 0, 1], [1, s, s + 1, 0, 0],
                [1, 0, 0, 7, 0], [0, s, 0, 0, s]]
    if item == 18:
        _rng(s is not None and s >= 3, "item 18 needs s >= 3")
        return [[n - 1, 1, 2, s - 2, n - s - 2], [1, s + 1, 2, s - 2, 0],
                [1, 1, 4, 0, 0], [1, 1, 0, 2, 0], [1, 0, 0, 0, 7]]
    if item not in t:
        raise AppendixError(f"no quotient template for item {item}")
    return t[item]


# -- fixtures: family <-> partition <-> template <-> polynomial ----------------------


@dataclass(frozen=True)
class Fixture:
    """Catalog item ``item``: ``build(n, s)`` is its graph and ``partition(n, s)``
    the nonempty blocks of its equitable partition, in template order. The
    orders at which the graph exists are the builder's to decide; the
    template identities are checked at every order from ``template_min_n``
    on, at fan widths 3..n - s_gap for the two fan families."""

    item: int
    build: Callable[[int, int | None], BuiltFamily]
    partition: Callable[[int, int | None], list[list[int]]]
    # first order whose graph has every template block nonempty (one K4 pack,
    # at fan width 3 for the fan families), and at least 7, where the closed
    # forms start; item 13 has no pack block
    template_min_n: int
    s_gap: int | None = None

    @property
    def poly_id(self) -> str:
        return f"g{self.item}"

    def widths(self, n: int) -> list[int | None]:
        """The fan widths checked at order n; [None] for the families without one."""
        return [None] if self.s_gap is None else list(range(3, n - self.s_gap + 1))


def _packs(first: int, n: int) -> list[list[int]]:
    """The K4-pack block, vertices first..n-1, when there is one."""
    return [list(range(first, n))] if first < n else []


def _seed(item: int, seed: int, *groups: list[int]) -> Fixture:
    """G_seed: the seed's groups with the pack block just before w's, the last."""
    order = u_graph(seed).graph.n
    return Fixture(
        item, lambda n, s: g_graph(seed, n),
        lambda n, s: [list(b) for b in (*groups[:-1], *_packs(order, n), groups[-1])],
        template_min_n=order + 4,
    )


def _hub(item: int, build: Callable[[int], BuiltFamily], *groups: list[int]) -> Fixture:
    """A hub joined to K4 packs and a small remainder: its groups, then the packs."""
    order = sum(map(len, groups))
    return Fixture(
        item, lambda n, s: build(n),
        lambda n, s: [list(b) for b in (*groups, *_packs(order, n))],
        template_min_n=max(order + 4, 7),
    )


FIXTURES: list[Fixture] = [
    # quotient fixtures 1..11 pair with the seed whose structure matches the
    # template block pattern (the seed index is not always the item index:
    # items 2, 3 and 5 pair with seeds 5, 2 and 3)
    _seed(1, 1, [0], [2, 3, 4, 5], [1]),
    _seed(2, 5, [0], [6, 7, 8], [2, 3, 4, 5], [1]),
    _seed(3, 2, [0], [2, 4], [3, 5], [1]),
    _seed(4, 4, [0], [6], [2, 4], [3, 5], [1]),
    _seed(5, 3, [0], [6], [2, 3, 4, 5], [1]),
    _seed(6, 6, [0], [6, 7, 8], [3, 5], [2, 4], [1]),
    _seed(7, 7, [0], [2, 3, 4], [5, 6, 7], [1]),
    _seed(8, 8, [0], [5], [2, 3, 4], [1]),
    _seed(9, 9, [0], [3, 4], [2], [5], [1]),
    _seed(10, 10, [0], [3, 4], [2], [6], [5], [1]),
    _seed(11, 11, [0], [3, 4], [2], [6, 7], [5], [1]),
    # z, the s leaves, the star center, the packs, w
    Fixture(12, lambda n, s: g_graph(12, n, s),
            lambda n, s: [[0], list(range(3, s + 3)), [2], *_packs(s + 3, n), [1]],
            template_min_n=10, s_gap=3),
    # the 3-class {0, 1, 2} with edge 0-1, and the big class 3..n-1
    Fixture(13, lambda n, s: g_graph(13, n),
            lambda n, s: [[0], list(range(3, n)), [1], [2]], template_min_n=7),
    _hub(14, k1_join_k4s, [0]),
    _hub(15, k1_join_k1_k4s, [0], [1]),
    _hub(16, k1_join_k2_k4s, [0], [1, 2]),
    _hub(17, lambda n: k1_join_star_plus_k4s(n, 2), [0], [1, 2, 3]),
    # apex, star center, the edge pair, the plain leaves, the packs
    Fixture(18, k1_join_star_plus_k4s,
            lambda n, s: [[0], [1], [2, 3], list(range(4, s + 2)), *_packs(s + 2, n)],
            template_min_n=9, s_gap=2),
]


def template_keys(fx: Fixture, n_lo: int, n_hi: int) -> list[tuple[int, int | None]]:
    """The (n, s) at which fx's template identity is checked within [n_lo, n_hi]."""
    return [(n, s) for n in range(max(n_lo, fx.template_min_n), n_hi + 1)
            for s in fx.widths(n)]


def fan_chain(keys) -> list[tuple[int, int]]:
    """The (n, s) among keys whose (n, s + 4) is among them too: the pairs
    a fan-width chain compares."""
    keys = list(keys)
    have = set(keys)
    return [(n, s) for n, s in keys if (n, s + 4) in have]


def fixture_graphs(fx: Fixture, n_lo: int, n_hi: int):
    """Yield (n, s, graph) for every order n in [n_lo, n_hi] and width s in
    fx.widths(n) at which fx's builder accepts, ascending, building each
    graph once."""
    for n in range(n_lo, n_hi + 1):
        for s in fx.widths(n):
            try:
                built = fx.build(n, s)
            except FamilyError:
                continue
            yield n, s, built.graph
