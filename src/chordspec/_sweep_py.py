"""Pure-Python implementation of the sweep kernels.

Mirrors the compiled extension's interface. The pass over a mask range
(classify, with a chord test or None) visits the degree-sorted masks of the
range by the compiled kernel's depth-first search and counts each with its
weight; degree_skips applies classify's degree filter (``_degree_skip``) to
a list of labeled masks; the per-graph calls take adjacency rows and defer
to the reference searchers in chords.py, and perron_order certifies numpy
``eigh``'s top pair by the rule the compiled kernel applies to its Jacobi
pair.

Soundness contract: a graph may only be dropped when its signless Laplacian
index is provably below the lower cut. Cheap degree bounds (q <= 2*maxdeg
and q <= max over edges of d(u)+d(v)) go first; the graphs that pass them
get one batched dense eigenvalue computation (``spectral.q_indices``) per
block, and a cut decides only when the index clears it by CUT_MARGIN.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from . import chords
from .graphs import Graph, arrangement_count, bits_to_vertices, graph_from_mask
from .spectral import q_indices, signless_laplacian

IS_COMPILED = False

MAXN = 11  # edge bitmasks fit 64 bits up to n = 11, as in the compiled kernel
MAXROWS = 64  # adjacency rows fit 64 bits, as in the compiled kernel
CUT_MARGIN = 1e-9  # a cut decides only when the index clears it by this
PERRON_MAXN = 16  # perron_order decides on graphs of at most this order
PERRON_MARGIN = 1e-9  # a Perron entry order must clear its bound by this
_BLOCK = 1 << 14  # graphs per batched eigensolve


def classify(n: int, lo: int, hi: int, lo_cut: float, hi_cut: float, test):
    """Sort the degree-sorted edge bitmasks in [lo, hi) by their index
    against lo_cut <= hi_cut.

    A mask is degree-sorted when its graph has d(0) >= d(1) >= ... >=
    d(n-1) >= 1; it stands for the n! / prod_d m_d! labeled graphs (m_d
    vertices of degree d) that relabelling it onto each arrangement of its
    degrees gives, its weight (``graphs.arrangement_count``). test is
    (name, k) naming a detector of this module, "apex_has_config" or
    "chorded_has", or None for no test. Returns (no_isolated, hits, rest):
    no_isolated is the weighted count of the sorted masks; of those, hits is
    the weighted count of the ones whose index is above hi_cut + CUT_MARGIN
    and whose graph passes test (none when test is None), masks with an
    index below lo_cut - CUT_MARGIN are dropped, and rest lists every other
    sorted mask, ascending. So over a whole order no_isolated is the number
    of labeled graphs without isolated vertices. ValueError when a cut is
    NaN, TypeError for a malformed test.
    """
    if not 1 <= n <= MAXN:
        raise ValueError(f"kernels support 1..{MAXN} vertices, got {n}")
    total = 1 << n * (n - 1) // 2
    if not 0 <= lo <= hi <= total:
        raise ValueError(f"range [{lo}, {hi}) outside [0, {total}]")
    if not lo_cut <= hi_cut:
        raise ValueError(f"need lo_cut <= hi_cut, got {lo_cut!r} > {hi_cut!r}")
    detector = k = None
    if test is not None:
        if not (isinstance(test, tuple) and len(test) == 2 and isinstance(test[0], str)):
            raise TypeError(f"test must be a (name, k) tuple or None, got {test!r}")
        name, k = test
        if name not in _DETECTORS:
            raise ValueError(f"no kernel test {test!r}")
        detector, k = _DETECTORS[name], _chord_count(k, "k")
    no_isolated = hits = 0
    rest: list[int] = []
    pending: list[tuple[int, Graph, int]] = []  # (mask, graph, weight) for the index

    def decide_pending():
        nonlocal hits
        for (mask, g, weight), q in zip(pending, q_indices([g for _, g, _ in pending])):
            if q < lo_cut - CUT_MARGIN:
                continue
            if detector is not None and q > hi_cut + CUT_MARGIN and detector(g, k):
                hits += weight
            else:
                rest.append(mask)
        pending.clear()

    for mask, rows, degs in _sorted_graphs(n, lo, hi):
        weight = arrangement_count(degs)
        no_isolated += weight
        if _degree_skip(n, rows, degs, lo_cut):
            continue
        pending.append((mask, Graph(n, rows), weight))
        if len(pending) == _BLOCK:
            decide_pending()
    if pending:
        decide_pending()
    return no_isolated, hits, rest


def _degree_skip(n: int, rows, degs, cut) -> bool:
    """Whether a degree bound puts the index below cut: q <= 2 max degree,
    and q <= max over edges ij of d(i) + d(j). The degrees need not be
    sorted; the graph needs an edge."""
    return 2 * max(degs) < cut or max(
        degs[i] + degs[j] for i in range(n) for j in bits_to_vertices(rows[i])) < cut


def degree_skips(n: int, masks: list, cut: float) -> tuple[int, list[int]]:
    """(how many, the candidates) of the labeled edge bitmasks whose graph
    has no isolated vertex and is skipped by classify's degree filter at
    cut. The candidates are those masks, in draw order, whose
    Collatz-Wielandt bound U = max_v (Qd)_v / d_v at the degree vector d
    reaches L*, the first largest Rayleigh bound d'Qd / d'd among them by
    float quotient, (Qd)_v = d_v^2 + the sum of v's neighbour degrees: every
    other one has q <= U < L* <= the index of the graph at L*. ValueError
    for n outside 1..MAXN, a mask outside [0, 2^C(n,2)) or a NaN cut,
    TypeError when masks is not a list of ints."""
    if not 1 <= n <= MAXN:
        raise ValueError(f"kernels support 1..{MAXN} vertices, got {n}")
    if math.isnan(cut):
        raise ValueError("cut is NaN")
    if not isinstance(masks, list):
        raise TypeError(f"masks must be a list, got {type(masks).__name__}")
    skipped = []  # (mask, degrees, Qd) of each skipped graph, in draw order
    best = None  # (L*, its d'Qd, its d'd)
    for mask in masks:
        if not isinstance(mask, int):  # as the compiled kernel, which reads ints only
            raise TypeError(f"mask is not an int: {mask!r}")
        rows = graph_from_mask(n, mask).rows  # GraphError is a ValueError
        degs = [row.bit_count() for row in rows]
        if min(degs) == 0 or not _degree_skip(n, rows, degs, cut):
            continue
        qd = [d * d + sum(degs[u] for u in bits_to_vertices(row)) for d, row in zip(degs, rows)]
        dqd, dd = sum(map(operator.mul, degs, qd)), sum(d * d for d in degs)
        if best is None or dqd / dd > best[0]:
            best = dqd / dd, dqd, dd
        skipped.append((mask, degs, qd))
    return len(skipped), [mask for mask, degs, qd in skipped
                          if any(x * best[2] >= best[1] * d for d, x in zip(degs, qd))]


@functools.cache
def _row_values(j: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """(r, its popcount, its set bits) for every value r of row j, ascending."""
    return tuple((r, r.bit_count(), tuple(bits_to_vertices(r))) for r in range(1 << j))


def _sorted_graphs(n: int, lo: int, hi: int):
    """(mask, rows, degrees) of every degree-sorted mask of order n in
    [lo, hi), in ascending mask order, by the compiled kernel's search: row
    j of a mask, its bits [C(j,2), C(j+1,2)), holds the edges from j down to
    0..j-1, and the rows are fixed from n-1 down. Once row j is set, d(j) is
    final: a row value is pruned when d(j) is below d(j + 1) (below 1 for
    j = n - 1), or when some vertex i < j can no longer reach d(j), as it
    gains at most j - 1 more edges, one from each other vertex below j.
    Subtrees outside [lo, hi) are skipped."""
    adj = [0] * n
    degs = [0] * n

    def place(j, prefix):
        shift, more = j * (j - 1) // 2, j - 1
        partial = degs[j]
        floor = degs[j + 1] if j + 1 < n else 1
        needs = {}  # d(j) -> need(d(j)); degs[:j] is the same at every r below

        def need(d):
            # the vertices i < j that reach d only through an edge from j,
            # as bits; -1 when one cannot reach d at all
            bits = 0
            for i in range(j):
                if degs[i] + 1 + more < d:
                    return -1
                if degs[i] + more < d:
                    bits |= 1 << i
            return bits

        first = max(lo - prefix, 0) >> shift
        for r, count, ends in _row_values(j)[first:(hi - prefix - 1 >> shift) + 1]:
            d = partial + count
            if d < floor:
                continue
            if (bits := needs.get(d)) is None:
                bits = needs[d] = need(d)
            if bits < 0 or r & bits != bits:
                continue
            adj[j] ^= r
            degs[j] = d
            for i in ends:
                adj[i] ^= 1 << j
                degs[i] += 1
            base = prefix | r << shift
            if j:
                yield from place(j - 1, base)
            else:
                yield base, tuple(adj), tuple(degs)
            for i in ends:
                adj[i] ^= 1 << j
                degs[i] -= 1
            adj[j] ^= r
        degs[j] = partial

    if lo < hi:
        yield from place(n - 1, 0)


def _chord_count(k, what: str) -> int:
    """k as an int of at least 1 (a k past every graph's chord count is
    allowed: the tests answer no); TypeError for a k that is not an int."""
    if (k := operator.index(k)) < 1:
        raise ValueError(f"need {what} >= 1, got {k}")
    return k


def _has_apex(g: Graph, k: int) -> bool:
    return chords.find_k_chords_at_apex(g, k) is not None


def _has_chorded(g: Graph, min_chords: int) -> bool:
    # three chords at one vertex are three chords on one cycle, and the apex
    # search is the faster of the two, so it goes first when min_chords <= 3
    return ((min_chords <= 3 and _has_apex(g, 3))
            or chords.find_chorded_cycle(g, min_chords) is not None)


_DETECTORS = {"apex_has_config": _has_apex, "chorded_has": _has_chorded}


def apex_has_config(rows, k: int) -> bool:
    """Whether some cycle has k chords at a common vertex."""
    return _has_apex(_graph_of_rows(rows), _chord_count(k, "k"))


def chorded_has(rows, min_chords: int) -> bool:
    """Whether some cycle carries at least min_chords chords."""
    return _has_chorded(_graph_of_rows(rows), _chord_count(min_chords, "min_chords"))


def _graph_of_rows(rows) -> Graph:
    """The graph whose adjacency rows (vertex bitmasks) these are; ValueError
    unless they are the rows of a simple graph on at most MAXROWS vertices
    (TypeError for a row that is not an int)."""
    rows = tuple(rows)
    n = len(rows)
    if n > MAXROWS:
        raise ValueError(f"kernels support up to {MAXROWS} vertices, got {n}")
    for v, row in enumerate(rows):
        if not isinstance(row, int):
            raise TypeError(f"row {v} is not an int: {row!r}")
        if not 0 <= row < 1 << n or row >> v & 1:
            raise ValueError(f"row {v} = {row} is not a row of a simple graph on {n} vertices")
    for v, row in enumerate(rows):
        for w in bits_to_vertices(row):
            if not rows[w] >> v & 1:
                raise ValueError(f"rows are not symmetric: {v} lists {w}")
    return Graph(n, rows)


def longest_cycle(rows) -> tuple[int, tuple[int, ...]] | None:
    """The first longest cycle in search order as (length, vertex sequence);
    None for forests."""
    return chords.longest_cycle(_graph_of_rows(rows))


def max_path_order(rows) -> int:
    """Most vertices on any path; ValueError for the empty graph."""
    return chords.max_path_order(_graph_of_rows(rows))


def perron_order(rows, u, v) -> int:
    """The sign of x_u - x_v for the Perron vector x of Q(G), as 1 or -1,
    when ``_certified_order`` certifies it from numpy ``eigh``'s top pair; 0
    on any doubt, and for a disconnected graph or one of more than
    PERRON_MAXN vertices. ValueError for rows that are not those of a simple
    graph, u == v or a vertex outside the graph."""
    g = _graph_of_rows(rows)
    u, v = operator.index(u), operator.index(v)
    for name, x in (("u", u), ("v", v)):
        if not 0 <= x < g.n:
            raise ValueError(f"{name} = {x} is not a vertex of a graph on {g.n} vertices")
    if u == v:
        raise ValueError(f"need u != v, got {u} twice")
    if g.n > PERRON_MAXN or not g.is_connected():
        return 0
    q = signless_laplacian(g).astype(float)
    w, vecs = np.linalg.eigh(q)
    # eigh's values are those of a matrix within rounding of Q, which the
    # certificate's slack covers: lambda_2 <= w[-2] + slack
    return _certified_order(q, vecs[:, -1], float(w[-2]), u, v)


def _certified_order(q: np.ndarray, y: np.ndarray, upper2: float, u: int, v: int) -> int:
    """The sign of x_u - x_v for the unit Perron vector x of the connected
    graph's Q (so x > 0 and its eigenvalue is simple), read off an
    approximate top eigenvector y when a Davis-Kahan bound certifies it,
    else 0. upper2 bounds the second eigenvalue lambda_2 of Q from above, up
    to rounding.

    With y a unit vector, rho = y'Qy and r = Qy - rho y, every eigenvalue
    but the largest lies at distance at least delta = rho - lambda_2 from
    rho, so the angle phi between y and the line of x has
    sin phi <= |r| / delta (Davis and Kahan, SIAM J. Numer. Anal. 7, 1970),
    and y oriented along x is within eta = sqrt(2) |r| / delta of x. When
    eta sqrt(n) < 1, that orientation is the one with a positive entry sum
    (x has entry sum at least |x| = 1), and then |y_u - y_v - (x_u - x_v)|
    <= 2 eta. A slack of 1e-12 (1 + |Q|_F) widens |r| and the bound on
    lambda_2 against rounding; the sign counts once it clears 2 eta by
    PERRON_MARGIN. The compiled kernel applies the same rule to its Jacobi
    pair."""
    n = len(y)
    slack = 1e-12 * (1.0 + float(np.sqrt((q * q).sum())))
    y = y / np.sqrt(y @ y)
    if y.sum() < 0:
        y = -y
    qy = q @ y
    rho = float(y @ qy)
    delta = rho - (upper2 + slack)
    if not delta > 0:
        return 0
    eta = np.sqrt(2.0) * (float(np.sqrt(((qy - rho * y) ** 2).sum())) + slack) / delta
    if not eta * np.sqrt(n) < 1:
        return 0
    d = float(y[u] - y[v])
    if not abs(d) > 2 * eta + PERRON_MARGIN:
        return 0
    return 1 if d > 0 else -1
