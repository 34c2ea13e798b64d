"""Closed-form characteristic polynomials and equitable-partition fixtures for
the catalog families.

Each fixture ties together: a catalog family builder, the block partition of
its vertex set (under the builders' fixed vertex layout), the integer quotient
matrix as a template in n (and s), and the closed-form characteristic
polynomial of that template. The template/polynomial identities hold for every
integer n large enough to keep entries nonnegative, not just orders where the
graph itself exists, and the fixture tests exploit that.

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
    g_graph,
    k1_join_k1_k4s,
    k1_join_k2_k4s,
    k1_join_k4s,
    k1_join_star_plus_k4s,
        u_order,
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
    item: int
    poly_id: str
    # builder(n, s) -> BuiltFamily; partition(n, s) -> blocks (only nonempty ones)
    build: Callable[[int, int | None], BuiltFamily]
    partition: Callable[[int, int | None], list[list[int]]]
    order_mod4: int  # valid graph orders: n ≡ order_mod4 (mod 4)
    min_graph_n: int  # smallest order with a valid (possibly pack-free) graph
    template_min_n: int  # smallest n with all template entries nonnegative
    takes_s: bool = False


def _seed_partition(groups: list[list[int]], seed_order: int, n: int) -> list[list[int]]:
    """Append the K4-pack block (vertices seed_order..n-1) when nonempty."""
    blocks = [list(b) for b in groups if b]
    pack = list(range(seed_order, n))
    out = [blocks[0]]
    rest = blocks[1:]
    # pack block sits immediately before the w block by template convention
    out.extend(rest[:-1])
    if pack:
        out.append(pack)
    out.append(rest[-1])
    return out


def _fix_u(item: int, ui: int, groups: list[list[int]]) -> Fixture:
    seed = u_order(ui)

    def build(n: int, s: int | None) -> BuiltFamily:
        return g_graph(ui, n)

    def partition(n: int, s: int | None) -> list[list[int]]:
        return _seed_partition(groups, seed, n)

    return Fixture(
        item=item,
        poly_id=f"g{item}",
        build=build,
        partition=partition,
        order_mod4=seed % 4,
        min_graph_n=max(7, seed),
        template_min_n=seed + 4,
    )


def _fix_pack(item: int, builder, remainder_groups: list[list[int]],
              remainder_order: int) -> Fixture:
    def build(n: int, s: int | None) -> BuiltFamily:
        return builder(n)

    def partition(n: int, s: int | None) -> list[list[int]]:
        blocks = [list(b) for b in remainder_groups]
        pack = list(range(remainder_order, n))
        if pack:
            blocks.append(pack)
        return blocks

    return Fixture(
        item=item,
        poly_id=f"g{item}",
        build=build,
        partition=partition,
        order_mod4=remainder_order % 4,
        min_graph_n=max(remainder_order + 4, 7),
        template_min_n=max(remainder_order + 4, 7),
    )


def _g12_fixture() -> Fixture:
    def build(n: int, s: int | None) -> BuiltFamily:
        assert s is not None
        return g_graph(12, n, s)

    def partition(n: int, s: int | None) -> list[list[int]]:
        assert s is not None
        leaves = list(range(3, s + 3))
        blocks = [[0], leaves, [2]]
        pack = list(range(s + 3, n))
        if pack:
            blocks.append(pack)
        blocks.append([1])
        return blocks

    return Fixture(
        item=12, poly_id="g12", build=build, partition=partition, order_mod4=-1,
        min_graph_n=10, template_min_n=10, takes_s=True,
    )


def _g13_fixture() -> Fixture:
    def build(n: int, s: int | None) -> BuiltFamily:
        return g_graph(13, n)

    def partition(n: int, s: int | None) -> list[list[int]]:
        # layout: 3-class {0,1,2} with edge (0,1); big class 3..n-1
        return [[0], list(range(3, n)), [1], [2]]

    return Fixture(
        item=13, poly_id="g13", build=build, partition=partition, order_mod4=-1,
        min_graph_n=7, template_min_n=7,
    )


def _g18_fixture() -> Fixture:
    def build(n: int, s: int | None) -> BuiltFamily:
        assert s is not None
        return k1_join_star_plus_k4s(n, s)

    def partition(n: int, s: int | None) -> list[list[int]]:
        assert s is not None
        # apex 0; star center 1; edge pair 2,3; plain leaves 4..s+1; packs after
        blocks = [[0], [1], [2, 3]]
        plain = list(range(4, s + 2))
        if plain:
            blocks.append(plain)
        pack = list(range(s + 2, n))
        if pack:
            blocks.append(pack)
        return blocks

    return Fixture(
        item=18, poly_id="g18", build=build, partition=partition, order_mod4=-1,
        min_graph_n=9, template_min_n=9, takes_s=True,
    )


def _build_fixtures() -> list[Fixture]:
    fx = [
        # quotient fixtures 1..11 pair with the seed whose structure matches
        # the template block pattern (the seed index is not always the item
        # index: items 2, 3 and 5 pair with seeds 5, 2 and 3)
        _fix_u(1, 1, [[0], [2, 3, 4, 5], [1]]),
        _fix_u(2, 5, [[0], [6, 7, 8], [2, 3, 4, 5], [1]]),
        _fix_u(3, 2, [[0], [2, 4], [3, 5], [1]]),
        _fix_u(4, 4, [[0], [6], [2, 4], [3, 5], [1]]),
        _fix_u(5, 3, [[0], [6], [2, 3, 4, 5], [1]]),
        _fix_u(6, 6, [[0], [6, 7, 8], [3, 5], [2, 4], [1]]),
        _fix_u(7, 7, [[0], [2, 3, 4], [5, 6, 7], [1]]),
        _fix_u(8, 8, [[0], [5], [2, 3, 4], [1]]),
        _fix_u(9, 9, [[0], [3, 4], [2], [5], [1]]),
        _fix_u(10, 10, [[0], [3, 4], [2], [6], [5], [1]]),
        _fix_u(11, 11, [[0], [3, 4], [2], [6, 7], [5], [1]]),
        _g12_fixture(),
        _g13_fixture(),
        _fix_pack(14, k1_join_k4s, [[0]], 1),
        _fix_pack(15, k1_join_k1_k4s, [[0], [1]], 2),
        _fix_pack(16, k1_join_k2_k4s, [[0], [1, 2]], 3),
        _fix_pack(17, lambda n: k1_join_star_plus_k4s(n, 2), [[0], [1, 2, 3]], 4),
        _g18_fixture(),
    ]
    return fx


FIXTURES: list[Fixture] = _build_fixtures()


def fixture_orders(fx: Fixture, n_lo: int, n_hi: int):
    """Valid (n, s) pairs for building fx's graph within [n_lo, n_hi]."""
    out = []
    if not fx.takes_s:
        for n in range(max(n_lo, fx.min_graph_n), n_hi + 1):
            if fx.order_mod4 < 0 or n % 4 == fx.order_mod4:
                out.append((n, None))
        return out
    for n in range(max(n_lo, fx.min_graph_n), n_hi + 1):
        for s in range(3, n):
            if fx.item == 12 and not (n >= s + 7 and (n - s - 3) % 4 == 0):
                continue
            if fx.item == 18 and not (n >= s + 6 and (n - s - 2) % 4 == 0):
                continue
            out.append((n, s))
    return out
