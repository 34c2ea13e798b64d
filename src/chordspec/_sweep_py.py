"""Pure-Python implementation of the sweep kernels.

Mirrors the compiled extension's interface. The pass over a mask range
(classify, with a chord test or None) visits the degree-sorted masks of the
range by the compiled kernel's depth-first search and counts each with its
weight; degree_skips applies classify's degree filter (``_degree_skip``) to
a list of labeled masks; the per-graph calls take adjacency rows and defer
to the reference searchers in chords.py, and perron_order certifies numpy
``eigh``'s top pair by the rule the compiled kernel applies to its Jacobi
pair. sample_rows replays the property suite's random graph draw,
sample_range replays ``random.Random.sample`` over a range, slot_rows reads
a list of edge slots, component_count counts components, eta_check applies
spectral's eta rule, and structural_violations holds the checks of its
structural claims (classify_component and the two claims), which the
compiled kernel restates on 64-bit rows.

Soundness contract: a graph may only be dropped when its signless Laplacian
index is provably below the lower cut. Cheap degree bounds (q <= 2*maxdeg
and q <= max over edges of d(u)+d(v)) go first; the graphs that pass them
get one batched dense eigenvalue computation (``_stacked_indices``, which
q_indices runs on the rows it checks) per block, and a cut decides only
when the index clears it by CUT_MARGIN.
"""

from __future__ import annotations

import functools
import math
import operator
import struct

from . import chords, spectral  # a module only: spectral imports kernels, which may import this
from .graphs import Graph, apex_partition, arrangement_count, bits_to_vertices, graph_from_mask

IS_COMPILED = False

MAXN = 11  # edge bitmasks fit 64 bits up to n = 11, as in the compiled kernel
MAXROWS = 64  # adjacency rows fit 64 bits, as in the compiled kernel
CUT_MARGIN = 1e-9  # a cut decides only when the index clears it by this
PERRON_MAXN = 16  # perron_order decides on graphs of at most this order
PERRON_MARGIN = 1e-9  # a Perron entry order must clear its bound by this
SAMPLE_MAXN = MAXROWS * (MAXROWS - 1) // 2  # sample_range's largest range: 64 vertices' slots
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
    NaN, TypeError for a malformed test or a cut that is not a real number
    (``_real``); n, lo and hi are read by ``_int``.
    """
    n = _int(n, "n", 1, MAXN)
    total = 1 << n * (n - 1) // 2
    lo = _int(lo, "lo", 0, total)
    hi = _int(hi, "hi", lo, total)
    cuts = _real(lo_cut), _real(hi_cut)
    if not cuts[0] <= cuts[1]:
        raise ValueError(f"need lo_cut <= hi_cut, got {lo_cut!r} > {hi_cut!r}")
    lo_cut, hi_cut = cuts
    detector = k = None
    if test is not None:
        if not (isinstance(test, tuple) and len(test) == 2 and isinstance(test[0], str)):
            raise TypeError(f"test must be a (name, k) tuple or None, got {test!r}")
        name, k = test[0], _int(test[1], "k", 1)
        if name not in _DETECTORS:
            raise ValueError(f"no kernel test {test!r}")
        detector = _DETECTORS[name]
    no_isolated = hits = 0
    rest: list[int] = []
    pending: list[tuple[int, Graph, int]] = []  # (mask, graph, weight) for the index

    def decide_pending():
        nonlocal hits
        for (mask, g, weight), q in zip(pending, _stacked_indices([g for _, g, _ in pending])):
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
    n = _int(n, "n", 1, MAXN)
    if math.isnan(cut):
        raise ValueError("cut is NaN")
    if not isinstance(masks, list):
        raise TypeError(f"masks must be a list, got {type(masks).__name__}")
    top = (1 << n * (n - 1) // 2) - 1
    skipped = []  # (mask, degrees, Qd) of each skipped graph, in draw order
    best = None  # (L*, its d'Qd, its d'd)
    for i, mask in enumerate(masks):
        if not isinstance(mask, int):  # as the compiled kernel, which reads ints only
            raise TypeError(f"mask {i} is not an int: {mask!r}")
        rows = graph_from_mask(n, _int(mask, "mask", 0, top)).rows
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


def _int(x, what: str, lo: int, hi: int | None = None) -> int:
    """x as an int in [lo, hi], or of at least lo when hi is None (a chord
    count past every graph's chords is allowed: the tests answer no), else
    ValueError, and TypeError for an x that is not an int; the compiled
    kernel's rule and messages."""
    i = operator.index(x)
    if hi is None and i < lo:
        raise ValueError(f"need {what} >= {lo}, got {x!r}")
    if hi is not None and not lo <= i <= hi:
        raise ValueError(f"need {what} in [{lo}, {hi}], got {x!r}")
    return i


def _real(x) -> float:
    """x as a float by the compiled kernel's rule (CPython's
    ``PyFloat_AsDouble``, which ``math.ldexp`` applies to its first
    argument): a float, an int, or an object with ``__float__`` or
    ``__index__``; anything else, a str included, is a TypeError with the
    compiled kernel's message."""
    return math.ldexp(x, 0)


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
    return _has_apex(_graph_of_rows(rows), _int(k, "k", 1))


def chorded_has(rows, min_chords: int) -> bool:
    """Whether some cycle carries at least min_chords chords."""
    return _has_chorded(_graph_of_rows(rows), _int(min_chords, "min_chords", 1))


def _graph_of_rows(rows) -> Graph:
    """The graph whose adjacency rows (vertex bitmasks) these are; ValueError
    unless they are the rows of a simple graph on at most MAXROWS vertices
    (TypeError for rows that are not iterable or a row that is not an int)."""
    try:
        rows = iter(rows)
    except TypeError:  # the compiled kernel's message
        raise TypeError("rows must be a sequence") from None
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


def q_indices(rows_list) -> list[float]:
    """The index q of each graph, in input order: ``_stacked_indices`` of the
    graphs ``_graph_of_rows`` reads, each of at least one vertex."""
    try:
        rows_list = tuple(iter(rows_list))
    except TypeError:  # the compiled kernel's message
        raise TypeError("rows_list must be a sequence") from None
    graphs = []
    for t, rows in enumerate(rows_list):
        graphs.append(_graph_of_rows(rows))
        if not graphs[-1].n:
            raise ValueError(f"graph {t} has no vertices")
    return _stacked_indices(graphs)


def _stacked_indices(graphs: list[Graph]) -> list[float]:
    """The index of each graph, of any order but at least one vertex, from one
    batched ``eigvalsh`` per order, which solves each stacked Q on its own."""
    eigvalsh = spectral._numpy().linalg.eigvalsh
    out = [0.0] * len(graphs)
    by_order: dict[int, list[int]] = {}
    for t, g in enumerate(graphs):
        by_order.setdefault(g.n, []).append(t)
    for n, slots in by_order.items():
        stack = spectral._stacked_laplacians(n, [graphs[t] for t in slots])
        for t, q in zip(slots, eigvalsh(stack)[:, -1].tolist()):
            out[t] = q
    return out


def component_count(rows) -> int:
    """The number of connected components."""
    return len(_graph_of_rows(rows).component_masks())


def eta_check(rows) -> tuple[bool, int, int]:
    """(violated, num, den) by the one eta rule, ``spectral._eta_counts`` at
    every vertex and ``spectral._largest_eta`` over them: whether some v has
    n d + 2 e(N(v)) < d^2 + S (d = d(v), S its neighbours' degree sum), where
    the counting form eta(v) <= n + 2 e(N(v)) / d fails, and the largest eta
    (d^2 + S) / d as num / den, (0, 0) on an edgeless graph."""
    g = _graph_of_rows(rows)
    counts = [spectral._eta_counts(g, v) for v in range(g.n)]
    return (any(g.n * d + twice_inner < d * d + degree_sum
                for d, degree_sum, twice_inner in counts), *spectral._largest_eta(counts))


def longest_cycle(rows) -> tuple[int, tuple[int, ...]] | None:
    """The first longest cycle in search order as (length, vertex sequence);
    None for forests."""
    return chords.longest_cycle(_graph_of_rows(rows))


def max_path_order(rows) -> int:
    """Most vertices on any path; ValueError for the empty graph."""
    g = _graph_of_rows(rows)
    if g.n == 0:  # a plain ValueError, as the compiled kernel raises
        raise ValueError("empty graph has no paths")
    return chords.max_path_order(g)


def perron_order(rows, u, v) -> int:
    """The sign of x_u - x_v for the Perron vector x of Q(G), as 1 or -1,
    when ``_certified_order`` certifies it from numpy ``eigh``'s top pair; 0
    on any doubt, and for a disconnected graph or one of more than
    PERRON_MAXN vertices. ValueError for rows that are not those of a simple
    graph, u == v or a vertex outside the graph."""
    g = _graph_of_rows(rows)
    u, v = _int(u, "u", 0, g.n - 1), _int(v, "v", 0, g.n - 1)
    if u == v:
        raise ValueError(f"need u != v, got {u} twice")
    if g.n > PERRON_MAXN or component_count(g.rows) > 1:
        return 0
    q = spectral.signless_laplacian(g).astype(float)
    w, vecs = spectral._numpy().linalg.eigh(q)
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
    np = spectral._numpy()
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


def _getrandbits(getrandbits, bits: int) -> int:
    """getrandbits(bits); TypeError for a value that is not an int, ValueError
    for one outside [0, 2^bits)."""
    r = getrandbits(bits)
    if not isinstance(r, int):
        raise TypeError(f"getrandbits must return an int, got {r!r}")
    if not 0 <= r < 1 << bits:
        raise ValueError(f"getrandbits({bits}) returned a value outside [0, 2^{bits})")
    return r


def _randbelow(getrandbits, n: int) -> int:
    """A draw from [0, n), n >= 1, by CPython's
    ``Random._randbelow_with_getrandbits``: getrandbits(n.bit_length())
    until the value is below n."""
    r = n
    while r >= n:
        r = _getrandbits(getrandbits, n.bit_length())
    return r


def sample_range(getrandbits, n: int, k: int) -> list[int]:
    """``Random.sample(range(n), k)`` of the generator whose bound
    ``getrandbits`` method this is, n in [0, SAMPLE_MAXN] and k in [0, n]:
    CPython's algorithm with the same ``_randbelow`` draws, so the sample
    and the generator's state afterwards are those of the call. A pool of
    the n values when n is at most the set size rule's bound, else a set of
    the values drawn so far. An error getrandbits raises propagates; one that
    is not callable or returns something other than an int is a
    TypeError."""
    if not callable(getrandbits):
        raise TypeError(f"getrandbits must be callable, got {getrandbits!r}")
    n = _int(n, "n", 0, SAMPLE_MAXN)
    k = _int(k, "k", 0, n)
    setsize = 21  # CPython's rule: a small set less an empty list, plus a big set's table
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    result = []
    if n <= setsize:
        pool = list(range(n))
        for i in range(k):
            j = _randbelow(getrandbits, n - i)
            result.append(pool[j])
            pool[j] = pool[n - i - 1]
        return result
    selected = set()
    for _ in range(k):
        j = _randbelow(getrandbits, n)
        while j in selected:
            j = _randbelow(getrandbits, n)
        selected.add(j)
        result.append(j)
    return result


def sample_rows(getrandbits, n_lo: int, n_hi: int, strata) -> tuple[int, ...]:
    """The rows of ``properties._sample``'s graph by the generator draws of
    its loop: randint(n_lo, n_hi) as n_lo + _randbelow(n_hi - n_lo + 1),
    choice(strata) as p = strata[_randbelow(len(strata))], and the random()
    values of the slots, in ``index_pairs`` order, from one getrandbits(64
    slots): slot t's from the low and high words a and b of its bits [64t,
    64t + 64), as ((a >> 5) 2^26 + (b >> 6)) / 2^53, an edge below p."""
    if not callable(getrandbits):
        raise TypeError(f"getrandbits must be callable, got {getrandbits!r}")
    n_lo = _int(n_lo, "n_lo", 0, MAXROWS)
    n_hi = _int(n_hi, "n_hi", n_lo, MAXROWS)
    if not isinstance(strata, tuple) or not strata:
        raise TypeError(f"strata must be a nonempty tuple of reals, got {strata!r}")
    strata = [_real(p) for p in strata]
    n = n_lo + _randbelow(getrandbits, n_hi - n_lo + 1)
    p = strata[_randbelow(getrandbits, len(strata))]
    mask, bits = 0, 32 * n * (n - 1)
    if bits:
        words = _getrandbits(getrandbits, bits).to_bytes(bits // 8, "little")
        mask = sum(1 << t for t, (a, b) in enumerate(struct.iter_unpack("<II", words))
                   if ((a >> 5) * 67108864 + (b >> 6)) / 9007199254740992 < p)
    return graph_from_mask(n, mask).rows


def slot_rows(n: int, slots: list) -> tuple[int, ...]:
    """The adjacency rows of the graph on n vertices, n in [0, MAXROWS], whose
    edges are the listed edge slots, each an int in [0, C(n,2)): the graph of
    the edge bitmask with those bits set. TypeError when slots is not a list
    of ints."""
    n = _int(n, "n", 0, MAXROWS)
    if not isinstance(slots, list):
        raise TypeError(f"slots must be a list, got {type(slots).__name__}")
    mask = 0
    for k, b in enumerate(slots):
        if not isinstance(b, int):  # as the compiled kernel, which reads ints only
            raise TypeError(f"slot {k} is not an int: {b!r}")
        mask |= 1 << _int(b, "slot", 0, n * (n - 1) // 2 - 1)
    return graph_from_mask(n, mask).rows


# the claim-1 caps, in the order structural_violations takes them
CLAIM_CAPS = ("big_star_center", "double_star", "star_plus", "c4_plus", "k4")


def classify_component(g: Graph, comp: int) -> dict | None:
    """Catalog type of the connected subgraph induced on the vertex mask comp
    (vertices keep their labels): star, double_star, star_plus, c4, c4_plus
    or k4; None when the component falls outside the catalog. A single
    vertex (center) is named by its label, a vertex group by its mask."""
    m = comp.bit_count()
    by_deg = [0] * m  # by_deg[d]: the vertices with d neighbours in comp
    e = 0
    for v in bits_to_vertices(comp):
        d = (g.rows[v] & comp).bit_count()
        by_deg[d] |= 1 << v
        e += d
    e //= 2
    top = by_deg[m - 1]  # the vertices joined to every other one
    center = (top & -top).bit_length() - 1  # the least of them, if any

    if e == m - 1:  # tree
        if top:
            return {"kind": "star", "s": m - 1, "center": center,
                    "leaves": comp & ~(1 << center)}
        centers = comp & ~by_deg[1]  # a tree on m >= 2 vertices has none isolated
        if centers.bit_count() == 2 and g.has_edge(*bits_to_vertices(centers)):
            return {"kind": "double_star", "centers": centers,
                    "leaves": by_deg[1], "total_leaves": m - 2}
        return None
    if e == m:  # unicyclic
        if m == 3:
            return {"kind": "star_plus", "s": 2, "center": None, "pendants": 0}
        if m == 4 and by_deg[2] == comp:
            return {"kind": "c4"}
        pair = by_deg[2]  # m >= 4, so a center (m - 1 neighbours) is not in it
        if top and pair.bit_count() == 2 and g.has_edge(*bits_to_vertices(pair)):
            return {"kind": "star_plus", "s": m - 1, "center": center,
                    "pair": pair, "pendants": by_deg[1]}
        return None
    if m == 4 and e == 5:
        return {"kind": "c4_plus", "deg2": by_deg[2], "deg3": by_deg[3]}
    if m == 4 and e == 6:
        return {"kind": "k4"}
    return None


def _claim1_violated(g: Graph, w: int, comp: int, info: dict, caps: dict) -> bool:
    """Whether w breaks a claim-1 cap against this component."""
    nbr = g.rows[w] & comp
    d = nbr.bit_count()
    if d == 0:
        return False
    kind = info["kind"]
    if kind == "star":  # a big star whose center w reaches
        return (info["s"] >= 3 and bool(nbr >> info["center"] & 1)
                and d > caps["big_star_center"])
    if kind == "double_star":
        return info["total_leaves"] >= 3 and (
            d > caps["double_star"] or (nbr & info["leaves"]).bit_count() > 1)
    if kind == "star_plus":
        return info["s"] >= 3 and (
            d > caps["star_plus"] or (nbr & info["pendants"]).bit_count() > 1
            or (bool(nbr >> info["center"] & 1) and d != 1))
    if kind == "c4_plus":  # two contacts must be the degree-two pair
        return d > caps["c4_plus"] or (d == 2 and nbr & info["deg3"] != 0)
    return kind == "k4" and d > caps["k4"]  # c4 carries no cap


def _claim2_violated(g: Graph, w: int, comps: list[tuple[int, dict]], z0: int) -> bool:
    """Whether w breaks claim 2 against the catalog components comps of an
    apex whose isolated class is z0."""
    row = g.rows[w]
    hits = [info for comp, info in comps if row & comp]
    nonstar = [info for info in hits if info["kind"] != "star"]
    if not nonstar:
        return False
    if len(hits) > 1:  # neighbours in a second component beside a non-star one
        return True
    if not row & z0:
        return False
    info = nonstar[0]  # an isolated-class neighbour next to ...
    if info["kind"] in ("c4", "c4_plus", "k4"):  # ... a quad-bearing component
        return True
    if info["kind"] == "star_plus":  # ... an off-center contact with a big star-plus
        return info["s"] >= 3 and not row >> info["center"] & 1
    # ... a double-star leaf contact
    return info["kind"] == "double_star" and row & info["leaves"] != 0


def structural_violations(rows, caps) -> tuple[int, int]:
    """(cap violations, catalog violations) of the structural claims over
    every apex of the graph: each component of G[Z+] must be a catalog type,
    and each vertex of W must respect the claim-1 caps and claim 2. caps
    holds the claim-1 caps in CLAIM_CAPS order, a tuple of ints of at least
    0: TypeError for another length or type, ValueError for a negative cap
    or rows that are not those of a simple graph."""
    g = _graph_of_rows(rows)
    if not (isinstance(caps, tuple) and len(caps) == len(CLAIM_CAPS)):
        raise TypeError(f"caps must be a tuple of {len(CLAIM_CAPS)} ints, got {caps!r}")
    caps = {name: _int(cap, name, 0) for name, cap in zip(CLAIM_CAPS, caps)}
    cap_viol = 0
    catalog_viol = 0
    for z in range(g.n):
        z0, zplus, w_mask = apex_partition(g, z)
        comps = []
        for comp in g.component_masks(within=zplus):
            info = classify_component(g, comp)
            if info is None:
                catalog_viol += 1
                continue
            comps.append((comp, info))
        for w in bits_to_vertices(w_mask):
            for comp, info in comps:
                cap_viol += _claim1_violated(g, w, comp, info, caps)
            cap_viol += _claim2_violated(g, w, comps, z0)
    return cap_viol, catalog_viol
