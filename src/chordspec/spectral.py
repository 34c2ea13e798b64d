"""Signless Laplacian spectra: the index q(G), Perron vectors, the degree-based
eta bound, equitable quotient matrices and their Perron roots, and exact
characteristic polynomials.

Numeric route: ``q_indices`` is the one float index routine, for graphs
given as ``Graph`` values of any orders: one batched ``eigvalsh`` per order
over Q stacked from the adjacency rows, as ``signless_laplacian`` builds it.
The python sweep kernel uses it for the graphs its degree bounds keep, and
the verifier and the CLI for every index they compare, report or print (the
thresholds, the masks the sweep kernel leaves for the exact rules, the
graphs the prefilter spot check re-checks, the appendix fixtures, the
property suite's lemmas). ``q_index`` is one dense ``eigh`` of the whole Q
for a vector as well: the absolute value of the top eigenvector, which is
the Perron vector when the graph is connected.

Quotients: ``quotient_matrix`` reads an equitable quotient's row sums off
the adjacency bit rows, with no matrix built, and ``perron_roots`` gives the
Perron roots of many small nonnegative matrices, quotients or templates,
from one batched ``eigvals`` per matrix size.

Exact route: integer characteristic polynomials by the Faddeev-LeVerrier
recurrence, for many matrices at once (``charpoly_int_matrices``: one loop
per matrix size over the stacked matrices, in int64 where a proven bound
rules out overflow, else on Python ints), and Sturm-chain root isolation,
used to resolve orderings that floats cannot.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .graphs import Graph, GraphError, bits_to_vertices
from .polynomials import (
    EQUAL,
    GREATER,
    LESS,
    IntPolynomial,
    compare_largest_roots,
)


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
    Q = signless_laplacian(g).astype(float)
    w, v = np.linalg.eigh(Q)
    q, x = float(w[-1]), np.abs(v[:, -1])
    residual = float(np.max(np.abs(Q @ x - q * x)))
    return SpectralResult(q=q, vector=tuple(x.tolist()), residual=residual)


def q_indices(graphs: Sequence[Graph]) -> list[float]:
    """The index q of every graph, in input order, from one batched
    ``eigvalsh`` per order over the graphs' stacked Q. Agrees with
    ``q_index(g).q`` to rounding; a graph needs at least one vertex."""
    out = [0.0] * len(graphs)
    by_order: dict[int, list[int]] = {}
    for t, g in enumerate(graphs):
        by_order.setdefault(g.n, []).append(t)
    for n, slots in by_order.items():
        stack = _stacked_laplacians(n, [graphs[t] for t in slots])
        for t, q in zip(slots, np.linalg.eigvalsh(stack)[:, -1].tolist()):
            out[t] = q
    return out


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


def _faddeev_leverrier(A: np.ndarray) -> np.ndarray:
    """Coefficients, ascending, of det(xI - A) for each matrix of a stacked
    (k, m, m) integer array: row t holds those of A[t]. One loop over the
    stack, in the array's own dtype; M_1 = I, so A M_1 is A itself."""
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

    A group runs in int64 when m 2^(m+1) B^m < 2^63, where B is the largest
    absolute row sum in the group, or 1 if that is smaller; otherwise it runs
    on Python ints (``dtype=object``). The bound covers every intermediate
    value. Each eigenvalue has |lambda| <= B, so |c_(m-i)| = |e_i(lambda)| <=
    C(m, i) B^i, and each entry of A^p is at most B^p in absolute value.
    M_j = sum over i < j of c_(m-i) A^(j-1-i), so each entry of M_j is at
    most B^(j-1) sum_i C(m, i) = 2^m B^(j-1). An entry of A M_j sums
    A_at (M_j)_tb over t: each product and partial sum is at most
    sum_t |A_at| 2^m B^(j-1) <= 2^m B^j. The trace and its partial sums are
    at most m 2^m B^j, and a diagonal entry plus c_(m-j) at most
    2^(m+1) B^j. As j <= m and B >= 1, all are at most m 2^(m+1) B^m.
    """
    out: list[IntPolynomial | None] = [None] * len(matrices)
    groups: dict[int, list[int]] = {}
    entries = [_int_entries(rows) for rows in matrices]
    for t, rows in enumerate(entries):
        groups.setdefault(len(rows), []).append(t)
    for m, slots in groups.items():
        stack = [entries[t] for t in slots]
        bound = max([1] + [sum(map(abs, r)) for rows in stack for r in rows])
        exact = m * 2 ** (m + 1) * bound**m >= 2**63
        A = np.array(stack, dtype=object if exact else np.int64).reshape(len(slots), m, m)
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


def q_exact_compare(g: Graph, h: Graph) -> int:
    """Exact ordering of q(G) vs q(H): LESS, EQUAL or GREATER.

    Goes through integer characteristic polynomials of Q and Sturm-chain
    isolation of the largest roots, so exact ties (including equality between
    non-isomorphic graphs) are decided correctly. Equal graphs (the same
    adjacency rows, hence the same Q) are EQUAL with no polynomial built; a
    relabelled copy still goes through the polynomials.
    """
    if g == h:
        return EQUAL
    return compare_largest_roots(charpoly_graph(g), charpoly_graph(h))


__all__ = [
    "EQUAL",
    "GREATER",
    "LESS",
    "SpectralResult",
    "charpoly_graph",
    "charpoly_int_matrices",
    "charpoly_int_matrix",
    "eta",
    "max_eta",
    "perron_roots",
    "q_exact_compare",
    "q_index",
    "q_indices",
    "quotient_matrix",
    "signless_laplacian",
]
