"""Closed-form characteristic polynomials and equitable-partition fixtures for
the catalog families.

``FIXTURES`` is the one table of catalog items 1..18. Each entry ties a
catalog family to the block partition of its vertex set (under the
builders' fixed vertex layout), whose integer quotient matrix is
``quotient_template`` in n (and the fan width s), and whose characteristic
polynomial is the closed form ``g<item>``. The family's order rule
(``families.has_order``) alone decides at which orders (n, s) a graph
exists, and ``fixture_graphs`` builds the graphs at those orders only. The
template/polynomial identities hold at every integer order, not just those,
and are checked at the ``template_keys``: every order from
the entry's ``template_min_n`` on, at the widths ``Fixture.widths`` gives.
The fan-width chains compare (n, s) with (n, s + 4), over ``fan_chain`` of
either set of keys. ``threshold_partition`` and
``threshold_quotient_template`` do the same for the threshold family.

Polynomial ids: ``g`` (threshold family K+_{1,1,n-2}), ``g1``..``g18``
(catalog quotients), ``f`` (the degree-4 cofactor of g7), ``h1`` and ``h2``
(the fan-width difference polynomials g12(x,s) - g12(x,s+4) and
g18(x,s) - g18(x,s+4), computed as differences).

The checks of this data live here too: ``verify_appendix`` runs the
``APPENDIX_BLOCKS`` over a range of orders, and ``equitable_quotient_fixtures``
and ``threshold_family_lower_bound`` are the property suite's fixed checks.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .families import catalog_graph, has_order, k11n2_plus, u_graph
from .graphs import graph6_encode
from .polynomials import LESS, IntPolynomial, compare_largest_roots
from .spectral import charpoly_int_matrices, perron_roots, q_indices, quotient_matrix
from .verifier import Report, VerifierError, _order


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
    """Integer quotient template for fixture ``item`` (1..18) at order n;
    only the asked-for template is built."""
    if item == 1:
        return [[n - 2, 4, n - 6, 0], [1, 6, 0, 1], [1, 0, 7, 0], [0, 4, 0, 4]]
    if item == 2:
        return [[n - 2, 3, 4, n - 9, 0], [1, 5, 0, 0, 0], [1, 0, 6, 0, 1],
                [1, 0, 0, 7, 0], [0, 0, 4, 0, 4]]
    if item == 3:
        return [[n - 2, 2, 2, n - 6, 0], [1, 5, 2, 0, 0], [1, 2, 4, 0, 1],
                [1, 0, 0, 7, 0], [0, 0, 2, 0, 2]]
    if item == 4:
        return [[n - 2, 1, 2, 2, n - 7, 0], [1, 1, 0, 0, 0, 0], [1, 0, 5, 2, 0, 0],
                [1, 0, 2, 4, 0, 1], [1, 0, 0, 0, 7, 0], [0, 0, 0, 2, 0, 2]]
    if item == 5:
        return [[n - 2, 1, 4, n - 7, 0], [1, 1, 0, 0, 0], [1, 0, 6, 0, 1],
                [1, 0, 0, 7, 0], [0, 0, 4, 0, 4]]
    if item == 6:
        return [[n - 2, 3, 2, 2, n - 9, 0], [1, 5, 0, 0, 0, 0], [1, 0, 4, 2, 0, 1],
                [1, 0, 2, 5, 0, 0], [1, 0, 0, 0, 7, 0], [0, 0, 2, 0, 0, 2]]
    if item == 7:
        return [[n - 2, 3, 3, n - 8, 0], [1, 6, 0, 0, 1], [1, 0, 5, 0, 0],
                [1, 0, 0, 7, 0], [0, 3, 0, 0, 3]]
    if item == 8:
        return [[n - 2, 1, 3, n - 6, 0], [1, 2, 0, 0, 1], [1, 0, 6, 0, 1],
                [1, 0, 0, 7, 0], [0, 1, 3, 0, 4]]
    if item == 9:
        return [[n - 2, 2, 1, 1, n - 6, 0], [1, 5, 1, 0, 0, 1], [1, 2, 4, 1, 0, 0],
                [1, 0, 1, 3, 0, 1], [1, 0, 0, 0, 7, 0], [0, 2, 0, 1, 0, 3]]
    if item == 10:
        return [[n - 2, 2, 1, 1, 1, n - 7, 0], [1, 5, 1, 0, 0, 0, 1],
                [1, 2, 5, 1, 1, 0, 0], [1, 0, 1, 2, 0, 0, 0], [1, 0, 1, 0, 3, 0, 1],
                [1, 0, 0, 0, 0, 7, 0], [0, 2, 0, 0, 1, 0, 3]]
    if item == 11:
        return [[n - 2, 2, 1, 2, 1, n - 8, 0], [1, 5, 1, 0, 0, 0, 1],
                [1, 2, 6, 2, 1, 0, 0], [1, 0, 1, 2, 0, 0, 0], [1, 0, 1, 0, 3, 0, 1],
                [1, 0, 0, 0, 0, 7, 0], [0, 2, 0, 0, 1, 0, 3]]
    if item == 12:
        _rng(s is not None and s >= 3, "item 12 needs s >= 3")
        return [[n - 2, s, 1, n - s - 3, 0], [1, 3, 1, 0, 1], [1, s, s + 1, 0, 0],
                [1, 0, 0, 7, 0], [0, s, 0, 0, s]]
    if item == 13:
        return [[n - 2, n - 3, 1, 0], [1, 3, 1, 1], [1, n - 3, n - 2, 0],
                [0, n - 3, 0, n - 3]]
    if item == 14:
        return [[n - 1, n - 1], [1, 7]]
    if item == 15:
        return [[n - 1, 1, n - 2], [1, 1, 0], [1, 0, 7]]
    if item == 16:
        return [[n - 1, 2, n - 3], [1, 3, 0], [1, 0, 7]]
    if item == 17:
        return [[n - 1, 3, n - 4], [1, 5, 0], [1, 0, 7]]
    if item == 18:
        _rng(s is not None and s >= 3, "item 18 needs s >= 3")
        return [[n - 1, 1, 2, s - 2, n - s - 2], [1, s + 1, 2, s - 2, 0],
                [1, 1, 4, 0, 0], [1, 1, 0, 2, 0], [1, 0, 0, 0, 7]]
    raise AppendixError(f"no quotient template for item {item}")


# -- fixtures: family <-> partition <-> template <-> polynomial ----------------------


@dataclass(frozen=True)
class Fixture:
    """Catalog item ``item``: its graph at (n, s) is the catalog family
    ``family``'s at order n and fan width s (``family_s`` for a family whose
    width the item fixes), and ``partition(n, s)`` the nonempty blocks of its
    equitable partition, in template order. The orders at which the graph
    exists are the family's to decide; the template identities are checked
    at every order from ``template_min_n`` on, at fan widths 3..n - s_gap for
    the two fan families."""

    item: int
    family: str
    partition: Callable[[int, int | None], list[list[int]]]
    # first order whose graph has every template block nonempty (one K4 pack,
    # at fan width 3 for the fan families), and at least 7, where the closed
    # forms start; item 13 has no pack block
    template_min_n: int
    s_gap: int | None = None
    family_s: int | None = None

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
        item, f"G{seed}",
        lambda n, s: [list(b) for b in (*groups[:-1], *_packs(order, n), groups[-1])],
        template_min_n=order + 4,
    )


def _hub(item: int, family: str, *groups: list[int], family_s: int | None = None) -> Fixture:
    """A hub joined to K4 packs and a small remainder: its groups, then the packs."""
    order = sum(map(len, groups))
    return Fixture(
        item, family,
        lambda n, s: [list(b) for b in (*groups, *_packs(order, n))],
        template_min_n=max(order + 4, 7), family_s=family_s,
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
    Fixture(12, "G12",
            lambda n, s: [[0], list(range(3, s + 3)), [2], *_packs(s + 3, n), [1]],
            template_min_n=10, s_gap=3),
    # the 3-class {0, 1, 2} with edge 0-1, and the big class 3..n-1
    Fixture(13, "G13",
            lambda n, s: [[0], list(range(3, n)), [1], [2]], template_min_n=7),
    _hub(14, "K1JoinK4s", [0]),
    _hub(15, "K1JoinK1K4s", [0], [1]),
    _hub(16, "K1JoinK2K4s", [0], [1, 2]),
    _hub(17, "K1JoinStarPlusK4s", [0], [1, 2, 3], family_s=2),
    # apex, star center, the edge pair, the plain leaves, the packs
    Fixture(18, "K1JoinStarPlusK4s",
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
    fx.widths(n) at which fx's family has a graph, ascending, building each
    graph once. The family's order rule is asked first, so an order it
    refuses builds nothing and raises nothing."""
    for n in range(n_lo, n_hi + 1):
        for s in fx.widths(n):
            width = fx.family_s if s is None else s
            if has_order(fx.family, n, width):
                yield n, s, catalog_graph(fx.family, n, width)


# -- the appendix checks -----------------------------------------------------------


def _threshold_bound_fraction(n: int) -> Fraction:
    return Fraction(n + 2) - Fraction(4, n + 2)


def _quotient_roots(quotients: list) -> list[float | None]:
    """The Perron root of each quotient, from one batched call, aligned with
    quotients: None where the quotient is None (a partition not equitable)."""
    roots = iter(perron_roots([qm for qm in quotients if qm is not None]))
    return [None if qm is None else next(roots) for qm in quotients]


class AppendixRun:
    """What the blocks of ``verify_appendix`` share over the orders n_lo..n_hi.

    Each block is a module-level function of the run, in ``APPENDIX_BLOCKS``
    order, that returns its details, adds to ``examined`` and
    ``counterexamples``, and fills in what the later blocks read.
    """

    def __init__(self, n_lo: int, n_hi: int):
        self.n_lo, self.n_hi = n_lo, n_hi
        self.orders = range(n_lo, n_hi + 1)
        self.examined = 0
        self.counterexamples: list[str] = []
        # the threshold family's graph, once per order, and the quotient
        # template of each fixture graph, once per (item, n, s)
        self.thr_graph = {n: k11n2_plus(n).graph for n in self.orders}
        self.template = functools.cache(quotient_template)
        # from appendix_identities: the closed forms by (item, n, s), and the
        # threshold templates and their characteristic polynomials by order
        self.closed_form: dict = {}
        self.thr_template: dict[int, list[list[int]]] = {}
        self.thr_charpoly: dict = {}
        # from appendix_fixtures: each fixture graph with its index by
        # (item, n, s), and by order the threshold, the threshold graph's
        # quotient and the quotient's Perron root (both None when not equitable)
        self.fixture_q: dict = {}
        self.thr: dict[int, float] = {}
        self.thr_quotient: dict[int, list[list[int]] | None] = {}
        self.thr_radius: dict[int, float | None] = {}


def appendix_identities(run: AppendixRun) -> list[dict]:
    """(b) template/polynomial identities, for every integer order in range.
    One batched call gives these polynomials and those of the threshold
    templates, which appendix_threshold_bound checks; the closed forms serve
    appendix_fan_chains too."""
    poly_keys = [(fx, n, s) for fx in FIXTURES
                 for n, s in template_keys(fx, run.n_lo, run.n_hi)]
    run.closed_form = {(fx.item, n, s): appendix_polynomial(fx.poly_id, n, s)
                       for fx, n, s in poly_keys}
    run.thr_template = {n: threshold_quotient_template(n) for n in run.orders}
    polys = charpoly_int_matrices(
        [run.template(fx.item, n, s) for fx, n, s in poly_keys]
        + list(run.thr_template.values())
    )
    poly_bad = [key for key, got in zip(run.closed_form, polys) if got != run.closed_form[key]]
    run.thr_charpoly = dict(zip(run.orders, polys[len(poly_keys):]))
    return [
        {
            "name": "template_charpoly_identities",
            "passed": not poly_bad,
            "checked": len(poly_keys),
            "failures": poly_bad[:10],
        }
    ]


def appendix_fixtures(run: AppendixRun) -> list[dict]:
    """(a) + (c): graph-level checks at every valid order in range. One
    batched call gives every fixture graph's index and each order's
    threshold, and one more the Perron roots of the fixture graphs' and the
    threshold graphs' equitable quotients; appendix_fan_chains reuses each
    graph with its index, and appendix_threshold_bound each order's
    threshold, quotient and root."""
    fixtures = [(fx, n, s, g) for fx in FIXTURES
                for n, s, g in fixture_graphs(fx, run.n_lo, run.n_hi)]
    qs = q_indices([g for *_, g in fixtures] + list(run.thr_graph.values()))
    run.thr = dict(zip(run.orders, qs[len(fixtures):]))
    run.fixture_q = {(fx.item, n, s): (g, qv) for (fx, n, s, g), qv in zip(fixtures, qs)}
    quotients = [quotient_matrix(g, fx.partition(n, s)) for fx, n, s, g in fixtures]
    run.thr_quotient = {n: quotient_matrix(run.thr_graph[n], threshold_partition(n))
                        for n in run.orders}
    roots = _quotient_roots(quotients + list(run.thr_quotient.values()))
    equit_bad = []
    ineq_bad = []
    lam_bad = []
    for (fx, n, s, g), qv, qm, lam in zip(fixtures, qs, quotients, roots):
        run.examined += 1
        if qm is None:
            equit_bad.append((fx.item, n, s))
            run.counterexamples.append(graph6_encode(g))
            continue
        tmpl = run.template(fx.item, n, s)
        if len(qm) == len(tmpl) and qm != tmpl:
            equit_bad.append((fx.item, n, s, "template-mismatch"))
        if abs(lam - qv) > 1e-8:
            lam_bad.append((fx.item, n, s, lam - qv))
        # strict index inequality against the threshold family
        if _order(g, qv, run.thr_graph[n], run.thr[n]) != LESS:
            ineq_bad.append((fx.item, n, s))
            run.counterexamples.append(graph6_encode(g))
    run.thr_radius = dict(zip(run.orders, roots[len(fixtures):]))
    return [
        {
            "name": "equitable_partitions",
            "passed": not equit_bad,
            "checked": len(fixtures),
            "failures": equit_bad[:10],
        },
        {
            "name": "quotient_radius_matches_index",
            "passed": not lam_bad,
            "tolerance": 1e-8,
            "failures": lam_bad[:10],
        },
        {
            "name": "index_below_threshold_family",
            "passed": not ineq_bad,
            "failures": ineq_bad[:10],
        },
    ]


def appendix_threshold_bound(run: AppendixRun) -> list[dict]:
    """(d) threshold family lower bound, exact rational identity included."""
    bound_bad = []
    for n in run.orders:
        run.examined += 1
        pt = _threshold_bound_fraction(n)
        gpoly = appendix_polynomial("g", n)
        val = gpoly(pt)
        want = -Fraction(
            8 * n**3 + 32 * n**2 + 96 * n + 192, n**3 + 6 * n**2 + 12 * n + 8
        )
        if val != want or val >= 0:
            bound_bad.append((n, "g-value"))
        if run.thr_charpoly[n] != gpoly:
            bound_bad.append((n, "template"))
        qm = run.thr_quotient[n]
        if qm != run.thr_template[n]:
            bound_bad.append((n, "partition"))
        if not run.thr[n] > float(pt):
            bound_bad.append((n, "bound"))
        if qm is None or abs(run.thr_radius[n] - run.thr[n]) > 1e-8:
            bound_bad.append((n, "radius"))
    return [
        {
            "name": "threshold_family_bound",
            "passed": not bound_bad,
            "checked": run.n_hi - run.n_lo + 1,
            "failures": bound_bad[:10],
        }
    ]


def appendix_fan_chains(run: AppendixRun) -> list[dict]:
    """(e) fan-width monotone chains, exact on the closed forms and by _order
    on the fixture graphs whose width s + 4 exists too. The two families get
    separate entries: the star-fan chain (g12) holds on the whole range,
    while the hub-star-pack chain (g18) is genuinely false for small s, and
    the report says so rather than papering over it.

    One batched call gives the Perron roots of the templates whose closed
    forms a chain compares, and they serve as the comparison's float
    estimates: appendix_identities checks each closed form against its
    template's characteristic polynomial, and a wrong estimate would only
    send a pair to the Sturm chains."""
    chains = [(fx, fan_chain(template_keys(fx, run.n_lo, run.n_hi)))
              for fx in FIXTURES if fx.s_gap is not None]
    keys = list(dict.fromkeys(
        (fx.item, n, t) for fx, closed in chains for n, s in closed for t in (s, s + 4)))
    root = dict(zip(keys, perron_roots([run.template(*key) for key in keys])))
    details = []
    for fx, closed in chains:
        chain_bad = []
        for n, s in closed:
            a = run.closed_form[fx.item, n, s]
            b = run.closed_form[fx.item, n, s + 4]
            if compare_largest_roots(a, b, (root[fx.item, n, s], root[fx.item, n, s + 4])) != LESS:
                chain_bad.append([n, s])
        graphs = fan_chain((n, s) for item, n, s in run.fixture_q if item == fx.item)
        for n, s in graphs:
            if _order(*run.fixture_q[fx.item, n, s], *run.fixture_q[fx.item, n, s + 4]) != LESS:
                chain_bad.append([n, s, "graphs"])
        details.append(
            {
                "name": f"fan_width_monotone_chain_{fx.poly_id}",
                "passed": not chain_bad,
                "checked": len(closed) + len(graphs),
                "violations": chain_bad,
            }
        )
    return details


APPENDIX_BLOCKS = (appendix_identities, appendix_fixtures, appendix_threshold_bound,
                   appendix_fan_chains)


def verify_appendix(n_lo: int, n_hi: int) -> Report:
    """Quotient fixtures for all catalog families across a range of orders:
    equitable partitions, template identities, closed-form characteristic
    polynomials, strict index inequalities against the threshold family, and
    the fan-width monotone chains. The details are those of the
    ``APPENDIX_BLOCKS``, run in order on one ``AppendixRun``."""
    if not (7 <= n_lo <= n_hi <= 30):
        raise VerifierError("verify_appendix needs 7 <= n_lo <= n_hi <= 30")
    t0 = time.perf_counter()
    run = AppendixRun(n_lo, n_hi)
    details = [detail for block in APPENDIX_BLOCKS for detail in block(run)]
    return Report(
        task="appendix",
        params={"n_lo": n_lo, "n_hi": n_hi},
        graphs_examined=run.examined,
        counterexamples=sorted(set(run.counterexamples)),
        details=details,
        wall_time_ms=(time.perf_counter() - t0) * 1000,
    )


# -- the property suite's fixed checks on the appendix data ---------------------------


def equitable_quotient_fixtures() -> dict:
    """Equitable quotient fixtures share the index: the smallest valid order
    of every catalog fixture, plus the threshold family partition."""
    cases = [
        (fx.item, g, fx.partition(n, s))
        for fx in FIXTURES
        for n, s, g in [next(fixture_graphs(fx, 7, 30))]
    ] + [
        (("threshold", n), k11n2_plus(n).graph, threshold_partition(n))
        for n in (7, 12, 19)
    ]
    roots = _quotient_roots([quotient_matrix(g, blocks) for _, g, blocks in cases])
    bad = [label for (label, _, _), lam, qv in zip(cases, roots,
                                                   q_indices([g for _, g, _ in cases]))
           if lam is None or abs(lam - qv) > 1e-8]
    return {"name": "equitable_quotient_fixtures", "passed": not bad,
            "checked": len(cases), "failures": bad}


def threshold_family_lower_bound() -> dict:
    """The threshold family beats n + 2 - 4/(n+2) for 6 <= n <= 40."""
    bad = []
    for n, qv in zip(range(6, 41), q_indices([k11n2_plus(n).graph for n in range(6, 41)])):
        pt = _threshold_bound_fraction(n)
        if not qv > float(pt):
            bad.append(n)
        if appendix_polynomial("g", n)(pt) >= 0:
            bad.append((n, "sign"))
    return {"name": "threshold_family_lower_bound", "passed": not bad,
            "range": [6, 40], "failures": bad}
