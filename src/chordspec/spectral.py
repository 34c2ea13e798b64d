"""Signless Laplacian spectra: the index q(G), Perron vectors, the degree-based
eta bound, partition quotient matrices, and exact characteristic polynomials.

Numeric route: one dense symmetric eigensolve (numpy ``eigh``) per connected
component; the Perron vector is the absolute value of the top eigenvector,
which is simple on a connected component. ``MaskBatch`` is the batched form
for many labeled graphs of one order given as edge bitmasks: degrees, the
edge-degree-sum bound, stacked Q and one batched ``eigvalsh``, as numpy
arrays; the python sweep kernel and the verifier's prefilter spot check use
it. ``q_indices`` is the batched index of graphs given as ``Graph`` values,
of any orders: one batched ``eigvalsh`` per order over Q stacked from the
adjacency rows, as ``signless_laplacian`` builds it; the verifier uses it for
every index that only needs its float value (the masks the sweep kernel
leaves for the exact rules, the appendix fixtures, the property suite's
lemmas). Exact route: integer characteristic polynomials by the
Faddeev-LeVerrier recurrence, for many matrices at once
(``charpoly_int_matrices``: one loop per matrix size over the stacked
matrices, in int64 where a proven bound rules out overflow, else on Python
ints), and Sturm-chain root isolation, used to resolve orderings that floats
cannot.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .graphs import Graph, GraphError, index_pairs
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
    """Largest signless Laplacian eigenvalue with its Perron vector.

    One dense symmetric eigensolve per connected component; the max is taken,
    the first component winning a tie. The returned vector is the Perron
    vector of the achieving component embedded in R^n (zero elsewhere), and
    the residual is max |Qx - qx| over that component. A connected graph is
    its own component: Q goes to the eigensolver as it is.
    """
    Q = signless_laplacian(g).astype(float)
    comps = g.components()
    best_q = -1.0
    for comp in comps:
        sub = Q if len(comps) == 1 else Q[np.ix_(comp, comp)]
        w, v = np.linalg.eigh(sub)
        if w[-1] > best_q + 1e-15:
            best_q, best_comp, best_sub = float(w[-1]), comp, sub
            best_x = np.abs(v[:, -1])
    residual = float(np.max(np.abs(best_sub @ best_x - best_q * best_x)))
    if len(comps) > 1:
        full = np.zeros(g.n)
        full[list(best_comp)] = best_x
        best_x = full
    return SpectralResult(q=best_q, vector=tuple(best_x.tolist()), residual=residual)


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


@functools.cache
def _edge_slots(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The two end vertices of every edge slot of order n, as index arrays,
    and the (slot, vertex) incidence matrix; read-only, as they are shared."""
    pairs = index_pairs(n)
    i = np.array([u for u, _ in pairs], dtype=np.intp)
    j = np.array([v for _, v in pairs], dtype=np.intp)
    slots = np.arange(len(pairs))
    incident = np.zeros((len(pairs), n), dtype=np.int64)
    incident[slots, i] = incident[slots, j] = 1
    for a in (i, j, incident):
        a.setflags(write=False)
    return i, j, incident


@dataclass(frozen=True, eq=False)
class MaskBatch:
    """Labeled graphs of order n given by edge bitmasks, as numpy arrays.

    Bit b of a mask is the edge ``index_pairs(n)[b]``, as in
    ``graphs.graph_from_mask``. ``bits`` is (k, C(n,2)) and ``degrees`` is
    (k, n), one row per mask; ``batch[keep]`` selects rows without
    recomputing them.
    """

    n: int
    masks: np.ndarray
    bits: np.ndarray
    degrees: np.ndarray

    @classmethod
    def of(cls, n: int, masks) -> "MaskBatch":
        masks = np.asarray(masks, dtype=np.int64)
        i, _, incident = _edge_slots(n)
        bits = (masks[:, None] >> np.arange(len(i))) & 1
        return cls(n, masks, bits, bits @ incident)

    def __getitem__(self, keep) -> "MaskBatch":
        return MaskBatch(self.n, self.masks[keep], self.bits[keep], self.degrees[keep])

    def max_edge_degree_sums(self) -> np.ndarray:
        """Max over the edges uv of d(u) + d(v), an upper bound on q; 0 for
        an edgeless graph."""
        i, j, _ = _edge_slots(self.n)
        sums = (self.degrees[:, i] + self.degrees[:, j]) * self.bits
        return sums.max(axis=1, initial=0)

    def degree_cut(self, cut: float) -> tuple[np.ndarray, np.ndarray]:
        """(no_isolated, reach): the rows whose graph has no isolated vertex,
        and those of them whose degree bounds on q, 2 max degree and the
        largest edge-degree sum, both reach cut. A graph of the first set
        outside the second has q < cut."""
        no_isolated = self.degrees.min(axis=1) >= 1
        reach = no_isolated & (2 * self.degrees.max(axis=1) >= cut)
        if reach.any():
            reach &= self.max_edge_degree_sums() >= cut
        return no_isolated, reach

    def signless_laplacians(self) -> np.ndarray:
        """The stacked Q = A + D, (k, n, n) integers."""
        i, j, _ = _edge_slots(self.n)
        diag = np.arange(self.n)
        q = np.zeros((len(self.masks), self.n, self.n), dtype=np.int64)
        q[:, i, j] = q[:, j, i] = self.bits
        q[:, diag, diag] = self.degrees
        return q

    def top_eigenvalues(self) -> np.ndarray:
        """The index q of every graph, from one batched ``eigvalsh``."""
        return np.linalg.eigvalsh(self.signless_laplacians())[:, -1]


def _eta_terms(g: Graph, v: int) -> tuple[int, int]:
    """(d(v)^2 + sum of neighbor degrees, d(v)): eta(v) as a numerator and a
    positive denominator."""
    d = g.degree(v)
    if d == 0:
        raise GraphError(f"eta undefined on isolated vertex {v}")
    return d * d + sum(g.degree(u) for u in g.neighbors(v)), d


def eta(g: Graph, v: int) -> Fraction:
    """d(v) + (sum of neighbor degrees) / d(v), exactly."""
    return Fraction(*_eta_terms(g, v))


def max_eta(g: Graph) -> Fraction:
    """The largest eta(v) over the non-isolated vertices; the terms compare by
    cross-multiplication and only the winner becomes a Fraction."""
    best_num, best_den = 0, 0
    for v in range(g.n):
        if g.degree(v) > 0:
            num, den = _eta_terms(g, v)
            if not best_den or num * best_den > best_num * den:
                best_num, best_den = num, den
    if not best_den:
        raise GraphError("max_eta undefined on an edgeless graph")
    return Fraction(best_num, best_den)


# -- quotient matrices ----------------------------------------------------------


@dataclass(frozen=True)
class QuotientMatrix:
    blocks: tuple[tuple[int, ...], ...]
    entries: tuple[tuple[Fraction, ...], ...]
    equitable: bool

    def spectral_radius(self) -> float:
        """Perron root of the (nonnegative) quotient matrix."""
        ev = np.linalg.eigvals(np.array([[float(e) for e in row] for row in self.entries]))
        return float(np.max(ev.real))


def quotient_matrix(g: Graph, blocks: Sequence[Iterable[int]]) -> QuotientMatrix:
    """Block-averaged Q(G) over a vertex partition, with an equitability flag.

    Equitable means every vertex of block i has the same Q row sum into block
    j, for all i, j; in that case the quotient shares the index q(G). All
    those row sums come from one integer product of Q with the 0/1
    block-membership matrix.
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

    member = np.zeros((g.n, len(tblocks)), dtype=np.int64)
    for j, b in enumerate(tblocks):
        member[b, j] = 1
    into = signless_laplacian(g) @ member  # into[u, j]: row sum of u into block j
    sums = member.T @ into
    firsts = into[[b[0] for b in tblocks]]
    equitable = bool((into == member @ firsts).all())
    entries = tuple(
        tuple(Fraction(c, len(b)) for c in row) for b, row in zip(tblocks, sums.tolist())
    )
    return QuotientMatrix(blocks=tblocks, entries=entries, equitable=equitable)


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
    non-isomorphic graphs) are decided correctly. Equal graphs share one
    polynomial.
    """
    p = charpoly_graph(g)
    return compare_largest_roots(p, p if h == g else charpoly_graph(h))


__all__ = [
    "EQUAL",
    "GREATER",
    "LESS",
    "MaskBatch",
    "QuotientMatrix",
    "SpectralResult",
    "charpoly_graph",
    "charpoly_int_matrices",
    "charpoly_int_matrix",
    "eta",
    "max_eta",
    "q_exact_compare",
    "q_index",
    "q_indices",
    "quotient_matrix",
    "signless_laplacian",
]
