"""Signless Laplacian spectra: the index q(G), Perron vectors, the degree-based
eta bound, equitable quotient matrices and their Perron roots, and exact
characteristic polynomials.

Numeric route: ``q_indices`` is the one float index routine, for graphs
given as ``Graph`` values of any orders: one ``kernels.q_indices`` call, and
the python kernel's batched ``eigvalsh`` above the kernels' 64 vertices and
whenever the python kernel runs.
The verifier uses it for every index it compares or reports (the
thresholds, the masks the sweep kernel leaves for the exact rules, the
graphs the prefilter spot check re-checks); ``appendix`` for its fixture
and threshold graphs; and ``properties`` for the samples of the suite's
lemmas.
``q_index`` is one dense ``eigh`` of the whole Q for a vector as well: the
absolute value of the top eigenvector, which is the Perron vector when the
graph is connected. ``q_index_texts``, the CLI's printed digits, takes one
``eigh`` per component and makes an exact Collatz-Wielandt enclosure of
the index from the refined top eigenvector; the enclosure settles the
correct rounding unless a rounding midpoint lies inside it, and only then
is the characteristic polynomial built.

Quotients: ``quotient_matrix`` reads an equitable quotient's row sums off
the adjacency bit rows, with no matrix built, and ``perron_roots`` gives the
Perron roots of many small nonnegative matrices, quotients or templates,
from one batched ``eigvals`` per matrix size.

Exact route: integer characteristic polynomials by the Faddeev-LeVerrier
recurrence, for many matrices at once (``charpoly_int_matrices``: one loop
per matrix size over the stacked matrices, in int64 where a proven bound
rules out overflow, else on Python ints), and Sturm-chain root isolation,
used to resolve orderings and roundings that floats cannot.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import kernels
from .graphs import Graph, GraphError, bits_to_vertices
from .polynomials import EQUAL, IntPolynomial, compare_largest_roots, round_largest_root


def _numpy():
    """numpy, imported on the first call: the package's one numpy import.
    Importing numpy takes about 60 ms, and neither the compiled kernel's
    theorem nor its corollary at orders up to 7 calls a numpy function, so
    only the code that does pays for it."""
    import numpy

    return numpy


@dataclass(frozen=True)
class SpectralResult:
    q: float
    vector: tuple[float, ...]
    residual: float


def _stacked_laplacians(n: int, graphs: Sequence[Graph]) -> np.ndarray:
    """Q = A + D of graphs of order n, stacked as (k, n, n) integers.

    A comes from the adjacency bit rows: each row as little-endian bytes,
    all of them unpacked to bits in one numpy call (rows fit in 32 bytes up
    to ``MAX_VERTICES = 256``); D is the row sums of A.
    """
    np = _numpy()
    width = (n + 7) // 8
    data = b"".join([row.to_bytes(width, "little") for g in graphs for row in g.rows])
    bits = np.frombuffer(data, dtype=np.uint8).reshape(len(graphs), n, width)
    q = np.unpackbits(bits, axis=2, count=n, bitorder="little").astype(np.int64)
    q.reshape(len(graphs), n * n)[:, :: n + 1] = q.sum(axis=2)
    return q


def signless_laplacian(g: Graph) -> np.ndarray:
    """Q(G) = A(G) + D(G) as an integer array."""
    return _stacked_laplacians(g.n, [g])[0]


def q_index(g: Graph) -> SpectralResult:
    """Largest signless Laplacian eigenvalue with a unit top eigenvector.

    One dense symmetric eigensolve (numpy ``eigh``) of the whole Q; the
    vector is the absolute value of its top eigenvector and the residual is
    max |Qx - qx|. On a connected graph the top eigenvalue is simple and the
    vector is the Perron vector; on a disconnected one it is some unit
    nonnegative top eigenvector, which may spread over the components that
    share the index.
    """
    np = _numpy()
    Q = signless_laplacian(g).astype(float)
    w, v = np.linalg.eigh(Q)
    q, x = float(w[-1]), np.abs(v[:, -1])
    residual = float(np.max(np.abs(Q @ x - q * x)))
    return SpectralResult(q=q, vector=tuple(x.tolist()), residual=residual)


def q_indices(graphs: Sequence[Graph]) -> list[float]:
    """The index q of every graph, in input order: ``kernels.q_indices`` on
    the rows of the graphs of at most ``kernels.MAXROWS`` (64) vertices, and
    the python kernel's ``_sweep_py._stacked_indices`` on larger ones, and
    on every graph when the python kernel runs: its ``q_indices`` would only
    check again the rows of each ``Graph``, valid by construction. Agrees
    with ``q_index(g).q`` to rounding; a graph needs at least one vertex."""
    limit = kernels.MAXROWS if kernels.IS_COMPILED else 0
    small = [g.rows for g in graphs if g.n <= limit]
    if len(small) == len(graphs):
        return kernels.q_indices(small)
    from . import _sweep_py  # only for the python kernel or a graph above the row limit

    qs = iter(kernels.q_indices(small))
    big = iter(_sweep_py._stacked_indices([g for g in graphs if g.n > limit]))
    return [next(big) if g.n > limit else next(qs) for g in graphs]


def _eta_counts(g: Graph, v: int) -> tuple[int, int, int]:
    """(d(v), the sum of v's neighbour degrees, 2 e(N(v))), from one walk of
    v's neighbourhood. With S the sum, eta(v) = (d^2 + S) / d."""
    rows = g.rows
    nb = rows[v]
    degree_sum = twice_inner = 0
    for u in bits_to_vertices(nb):
        degree_sum += rows[u].bit_count()
        twice_inner += (rows[u] & nb).bit_count()
    return nb.bit_count(), degree_sum, twice_inner


def _largest_eta(counts: Iterable[tuple[int, int, int]]) -> tuple[int, int]:
    """(d^2 + S, d) of the largest eta among the ``_eta_counts`` with d > 0,
    compared by cross-multiplication; (0, 0) when there is none."""
    best_num, best_den = 0, 0
    for d, degree_sum, _ in counts:
        if d:
            num = d * d + degree_sum
            if not best_den or num * best_den > best_num * d:
                best_num, best_den = num, d
    return best_num, best_den


def eta(g: Graph, v: int) -> Fraction:
    """d(v) + (sum of neighbor degrees) / d(v), exactly."""
    d, degree_sum, _ = _eta_counts(g, v)
    if d == 0:
        raise GraphError(f"eta undefined on isolated vertex {v}")
    return Fraction(d * d + degree_sum, d)


def max_eta(g: Graph) -> Fraction:
    """The largest eta(v) over the non-isolated vertices; only the winner
    becomes a Fraction."""
    num, den = _largest_eta(_eta_counts(g, v) for v in range(g.n))
    if not den:
        raise GraphError("max_eta undefined on an edgeless graph")
    return Fraction(num, den)


# -- quotient matrices ----------------------------------------------------------


def quotient_matrix(g: Graph, blocks: Sequence[Iterable[int]]) -> list[list[int]] | None:
    """The quotient of Q(G) over a vertex partition, as integer rows, when
    the partition is equitable; None when it is not.

    Equitable means every vertex of block i has the same Q row sum into block
    j, for all i, j; that sum is entry (i, j), and the quotient then shares
    the index q(G). The row sums are read off the adjacency bit rows: for u
    in block i, entry j is the number of u's neighbours in block j, plus
    d(u) when j = i (the degree part of Q). Vertices of one block with the
    same neighbour counts have the same degree, so only the counts are
    compared with those of the block's first vertex.
    """
    tblocks = tuple(tuple(sorted(b)) for b in blocks)
    seen: set[int] = set()
    count = 0
    for b in tblocks:
        if not b:
            raise GraphError("empty block in partition")
        seen.update(b)
        count += len(b)
    if count != g.n or seen != set(range(g.n)):
        raise GraphError("blocks do not partition the vertex set")

    rows = g.rows
    masks = [sum(1 << v for v in b) for b in tblocks]
    out = []
    for i, b in enumerate(tblocks):
        first = [(rows[b[0]] & mask).bit_count() for mask in masks]
        for u in b[1:]:
            if [(rows[u] & mask).bit_count() for mask in masks] != first:
                return None
        first[i] += rows[b[0]].bit_count()  # the degree part of Q
        out.append(first)
    return out


def perron_roots(matrices: Sequence[Sequence[Sequence[int]]]) -> list[float]:
    """The Perron root of each nonnegative square matrix, such as a
    quotient, in input order: the largest real part among its eigenvalues,
    from one ``eigvals`` per matrix size over the stacked floats. Each value
    is the one an ``eigvals`` call on that matrix alone gives."""
    np = _numpy()
    out = [0.0] * len(matrices)
    groups: dict[int, list[int]] = {}
    for t, rows in enumerate(matrices):
        groups.setdefault(len(rows), []).append(t)
    for slots in groups.values():
        stack = np.array([matrices[t] for t in slots], dtype=float)
        for t, root in zip(slots, np.linalg.eigvals(stack).real.max(axis=1).tolist()):
            out[t] = root
    return out


# -- exact characteristic polynomials ---------------------------------------------


def _int_entries(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """The entries of a square matrix as Python ints; ValueError when it is
    not square or an entry is not an integer (a float or a Fraction is never
    truncated)."""
    m = len(rows)
    if any(len(r) != m for r in rows):
        raise ValueError("matrix is not square")
    try:
        return [[operator.index(c) for c in r] for r in rows]
    except TypeError:
        raise ValueError("matrix entries must be integers") from None


def _int_stack(stack: Sequence[Sequence[Sequence[int]]], m: int) -> tuple[np.ndarray, int]:
    """The group of m x m matrices as one (k, m, m) integer array, int64 or
    Python ints, with the largest absolute row sum B in it (at least 1), by
    the per-group validation ``charpoly_int_matrices`` describes."""
    np = _numpy()
    try:
        A = np.array(stack)
    except (ValueError, TypeError, OverflowError):
        A = None
    if (A is not None and A.shape == (len(stack), m, m) and A.size
            and A.dtype.kind in "biu"
            and max(-int(A.min()), int(A.max())) * m < 2**62):
        A = A.astype(np.int64)
        return A, max(1, int(np.abs(A).sum(axis=2).max()))
    entries = [_int_entries(rows) for rows in stack]
    bound = max([1] + [sum(map(abs, r)) for rows in entries for r in rows])
    return np.array(entries, dtype=object).reshape(len(stack), m, m), bound


def _faddeev_leverrier(A: np.ndarray) -> np.ndarray:
    """Coefficients, ascending, of det(xI - A) for each matrix of a stacked
    (k, m, m) integer array: row t holds those of A[t]. One loop over the
    stack, in the array's own dtype; M_1 = I, so A M_1 is A itself."""
    np = _numpy()
    k, m, _ = A.shape
    coeffs = np.zeros((k, m + 1), dtype=A.dtype)
    coeffs[:, m] = 1
    AM = A.copy()
    for j in range(1, m + 1):
        if j > 1:
            AM = A @ AM
        diag = AM.reshape(k, m * m)[:, :: m + 1]
        tr = diag.sum(axis=1)
        assert not (tr % j).any(), "Faddeev-LeVerrier trace must divide exactly"
        c = tr // -j
        coeffs[:, m - j] = c
        diag += c[:, None]
    return coeffs


def charpoly_int_matrices(matrices: Sequence[Sequence[Sequence[int]]]) -> list[IntPolynomial]:
    """det(xI - A) for each integer matrix, in input order, by Faddeev-LeVerrier.

    The matrices are grouped by size m, and each group runs one recurrence
    over its stacked (k, m, m) array: M_1 = I, c_(m-j) = -tr(A M_j) / j (an
    exact division, asserted), M_(j+1) = A M_j + c_(m-j) I.

    Each group is validated by one ``np.array`` call, not entry by entry: a
    stack of shape (k, m, m) with an integer or bool dtype and every |entry|
    below 2^62/m is used as it is. Any other group (object, float or str
    entries, a ragged or non-square member, entries at or above 2^62/m) goes
    through ``_int_entries`` matrix by matrix, so a float or a Fraction is
    refused with the same ValueError, and big ints stay exact.

    A group runs in int64 when m 2^(m+1) B^m < 2^63, where B is the largest
    absolute row sum in the group, or 1 if that is smaller; otherwise it runs
    on Python ints (``dtype=object``). B itself cannot overflow: on the int64
    path every |entry| is below 2^62/m, so every absolute row sum is below
    2^62, and on the other path it is a Python int. Either path finds the
    same B, so the int64/object choice does not depend on the path. The
    bound covers every intermediate value. Each eigenvalue has |lambda| <= B,
    so |c_(m-i)| = |e_i(lambda)| <= C(m, i) B^i, and each entry of A^p is at
    most B^p in absolute value. M_j = sum over i < j of c_(m-i) A^(j-1-i), so
    each entry of M_j is at most B^(j-1) sum_i C(m, i) = 2^m B^(j-1). An
    entry of A M_j sums A_at (M_j)_tb over t: each product and partial sum is
    at most sum_t |A_at| 2^m B^(j-1) <= 2^m B^j. The trace and its partial
    sums are at most m 2^m B^j, and a diagonal entry plus c_(m-j) at most
    2^(m+1) B^j. As j <= m and B >= 1, all are at most m 2^(m+1) B^m.
    """
    np = _numpy()
    out: list[IntPolynomial | None] = [None] * len(matrices)
    groups: dict[int, list[int]] = {}
    for t, rows in enumerate(matrices):
        groups.setdefault(len(rows), []).append(t)
    for m, slots in groups.items():
        A, bound = _int_stack([matrices[t] for t in slots], m)
        A = A.astype(object if m * 2 ** (m + 1) * bound**m >= 2**63 else np.int64)
        for t, cs in zip(slots, _faddeev_leverrier(A).tolist()):
            out[t] = IntPolynomial(cs)
    return out


def charpoly_int_matrix(rows: Sequence[Sequence[int]]) -> IntPolynomial:
    """det(xI - A) for one integer matrix: ``charpoly_int_matrices([rows])``."""
    return charpoly_int_matrices([rows])[0]


def charpoly_graph(g: Graph) -> IntPolynomial:
    """Exact characteristic polynomial of Q(G)."""
    Q = signless_laplacian(g)
    return charpoly_int_matrix(Q.tolist())


def _dyadic(values: Iterable[float]) -> tuple[list[int], int]:
    """Integers N and a shift e with values[i] = N[i] / 2^e exactly."""
    ratios = [v.as_integer_ratio() for v in values]
    e = max(den.bit_length() for _, den in ratios) - 1
    return [num << (e + 1 - den.bit_length()) for num, den in ratios], e


def _enclosed_rounding(Q: list[list[int]], w: np.ndarray, V: np.ndarray,
                       places: int) -> int | None:
    """The largest eigenvalue rho of the nonnegative symmetric integer
    matrix Q times 10^places, correctly rounded to an integer k, from the
    float eigenpairs (w ascending, V by columns) of Q; None when the
    enclosure below cannot settle it.

    For any positive x, min_i (Qx)_i / x_i <= rho <= max_i (Qx)_i / x_i
    (Collatz-Wielandt). x = X / 2^e with X integer, so every ratio is exact.
    With d = 10^places, k = floor(rho d + 1/2) has no tie, since rho is an
    integer or irrational; so min_i floor(r_i d + 1/2) <= k <= max_i
    ceil(r_i d + 1/2) - 1, and the two ends agree exactly when no rounding
    midpoint lies in the enclosure. x starts as |top eigenvector|, whose
    float error widens the enclosure by about its own size over its least
    entry; each of up to two refinements takes the exact residual
    r = Qx - w_top x to floats and subtracts the sum over the other
    eigenpairs of v_j (v_j . r) / (w_j - w_top), which shrinks that error by
    a factor of about the float precision times ||Q|| over the spectral
    gap. Whatever the floats did, the enclosure is exact; they only decide
    its width.
    """
    np = _numpy()
    theta = float(w[-1])
    tn, td = theta.as_integer_ratio()
    others, gaps = V[:, :-1], w[:-1] - theta
    if len(gaps) and gaps.max() >= 0:
        return None
    X, e = _dyadic(np.abs(V[:, -1]).tolist())
    twice_d = 2 * 10**places
    for step in range(3):
        Y = [sum(map(operator.mul, row, X)) for row in Q]
        if min(X) > 0:
            nums = [twice_d * y + x for y, x in zip(Y, X)]
            low = min(num // (2 * x) for num, x in zip(nums, X))
            if low == max((num - 1) // (2 * x) for num, x in zip(nums, X)):
                return low
        if step == 2:
            return None
        r = np.array([(y * td - tn * x) / (td << e) for y, x in zip(Y, X)])
        C, f = _dyadic((others @ ((others.T @ r) / gaps)).tolist())
        e, X = max(e, f), [(x << max(0, f - e)) - (c << max(0, e - f)) for x, c in zip(X, C)]


def q_index_texts(graphs: Sequence[Graph], places: int = 12) -> list[str]:
    """Every graph's index as decimal text, correctly rounded to ``places``
    decimals, in input order.

    The index of a graph is the largest of its components' (0 for a single
    vertex), and rounding is monotone, so the rounded index is the largest
    rounded component index. Each component of two or more vertices gets one
    dense ``eigh`` (batched per order) of its Q; ``_enclosed_rounding`` turns
    the top eigenvector into an exact enclosure of the index, which settles
    the digits unless a rounding midpoint lies inside it. Only the
    components left then go to the exact characteristic polynomial (one
    ``charpoly_int_matrices`` call for all of them), on which
    ``round_largest_root`` steps from the float to the correct rounding."""
    np = _numpy()
    ks = [0] * len(graphs)
    parts: dict[int, list[tuple[int, np.ndarray]]] = {}
    for t, g in enumerate(graphs):
        Q = signless_laplacian(g)
        for mask in g.component_masks():
            if mask & (mask - 1):
                vs = list(bits_to_vertices(mask))
                parts.setdefault(len(vs), []).append((t, Q[np.ix_(vs, vs)]))
    left = []
    for items in parts.values():
        ws, vs = np.linalg.eigh(np.array([Q for _, Q in items], dtype=float))
        for (t, Q), w, V in zip(items, ws, vs):
            rows = Q.tolist()
            k = _enclosed_rounding(rows, w, V, places)
            if k is None:
                left.append((t, rows, float(w[-1])))
            else:
                ks[t] = max(ks[t], k)
    for (t, _, q), p in zip(left, charpoly_int_matrices([rows for _, rows, _ in left])):
        ks[t] = max(ks[t], round_largest_root(p, q, places))
    scale = 10**places
    return [f"{k // scale}.{k % scale:0{places}d}" for k in ks]


def q_exact_compare(g: Graph, h: Graph) -> int:
    """Exact ordering of q(G) vs q(H): LESS, EQUAL or GREATER.

    Goes through integer characteristic polynomials of Q and Sturm-chain
    isolation of the largest roots, so exact ties (including equality between
    non-isomorphic graphs) are decided correctly. Equal graphs (the same
    adjacency rows, hence the same Q) are EQUAL with no polynomial built; a
    relabelled copy still goes through the polynomials. No float estimates
    are passed: the sweeps call this only on pairs inside the tie band, where
    a sign certificate between the two roots would have to decline.
    """
    if g == h:
        return EQUAL
    return compare_largest_roots(charpoly_graph(g), charpoly_graph(h))

