"""Brute-force oracles for the test suite.

These deliberately recompute everything from definitions: cycles are
enumerated generically and chord counts are read off the adjacency relation
per cycle, with no shared code or reformulation from the searchers under
test. The permutation-based enumerator cross-validates the DFS enumerator on
tiny graphs so the faster one can be trusted at n = 7, 8.
``oracle_compare_largest_roots`` bisects in ``Fraction`` arithmetic with
Horner evaluation at every point, on Sturm chains, gcds and squarefree parts
built by rational long division, sharing no remainder, evaluation or
bisection code with the integer routines under test.
``oracle_prefilter_spot_check`` and ``oracle_charpoly_int_matrix`` are the
earlier per-graph and nested-list forms of the verifier's spot check and of
``spectral.charpoly_int_matrix``, kept as references for the batched ones;
``MaskBatch`` holds labeled graphs of one order given as edge bitmasks as
numpy arrays (degrees, the degree filters, the integer bounds at the degree
vector, stacked Q and one batched ``eigvalsh``), the earlier numpy form of
the spot check's degree filter and the reference for
``kernels.degree_skips``; ``oracle_spot_check_solving_all`` is the earlier
batched spot check on it, which eigensolves every skipped graph, and
``oracle_degree_vector_bounds`` the Collatz-Wielandt and Rayleigh bounds at
the degree vector in ``Fraction`` arithmetic, the references for the spot
check that eigensolves only the graphs those bounds cannot put below the
sample's maximum;
``oracle_signless_laplacian`` and ``oracle_quotient_matrix`` are the earlier
per-neighbour and per-entry forms of ``spectral.signless_laplacian`` and
``spectral.quotient_matrix``; ``oracle_q_index`` is the earlier
per-component form of ``spectral.q_index``, which cuts every component, even
the only one, out of Q and embeds the winner's vector in R^n.
``oracle_automorphism_count`` tries all n! vertex permutations.
``oracle_graph6_encode`` and ``oracle_graph6_decode`` are the earlier
bit-by-bit graph6 codec, the reference for ``graphs.graph6_encode`` and
``graph6_decode``, which pack the edge bitmask.
``mask_from_graph`` (through ``edge_index``) inverts
``graphs.graph_from_mask`` by the closed-form bit position of each edge, and
``induced_subgraph`` relabels an induced subgraph; both check the package's
own mask and component routines.
``oracle_fixture_orders``, ``oracle_template_keys`` and ``oracle_fan_chain``
restate, per catalog item, the orders and fan widths that the appendix
fixtures once spelled out field by field, as references for the single
fixture table that decides them now.
``oracle_classify_labeled`` is the kernel's earlier plain pass, one labeled
mask after another with unweighted counts, the reference for the
degree-sorted weighted ``kernels.classify``; ``sorted_mask`` relabels a
mask onto its degree-sorted form by a stable sort of its degrees.
``oracle_sample`` is the property suite's earlier per-slot sampler in
Python, the reference for ``kernels.sample_rows``, and ``oracle_slot_rows``
the dense draw's earlier per-slot loop, the reference for
``kernels.slot_rows``.
``replay_counterexample`` re-checks one recorded counterexample through the
rule of the sweep that reported it, on the verifier's own float index.
``body_text`` is a stored report body's JSON text without its wall time,
keys in the order they were written, so that comparing two pins key order.
``count_roots_above`` and ``count_roots_in_interval`` are Sturm root counts
on the package's own integer chains; they check the float index against the
exact roots and are not themselves under test.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, lcm

import numpy as np

from chordspec.chords import find_chorded_cycle, find_k_chords_at_apex
from chordspec.graphs import (
    Graph,
    bits_to_vertices,
    graph6_decode,
    graph_from_mask,
    index_pairs,
    make_graph,
)
from chordspec import polynomials, verifier
from chordspec.polynomials import EQUAL, GREATER, LESS, IntPolynomial, root_bound
from chordspec.spectral import SpectralResult, q_index, signless_laplacian


def cycles_by_permutation(g: Graph):
    """Every simple cycle as a canonical vertex tuple, via permutations."""
    seen = set()
    for size in range(3, g.n + 1):
        for subset in combinations(range(g.n), size):
            first = subset[0]
            for rest in permutations(subset[1:]):
                cyc = (first,) + rest
                if rest[0] > rest[-1]:
                    continue  # one orientation per cycle
                if all(
                    g.has_edge(cyc[i], cyc[(i + 1) % size]) for i in range(size)
                ):
                    seen.add(cyc)
    return seen


def cycles_by_dfs(g: Graph):
    """Every simple cycle as a canonical vertex tuple (root = least vertex,
    second < last), via depth-first path extension. Lazy, so callers that
    stop at the first witness do not pay for the full enumeration."""
    n = g.n
    for root in range(n):
        path = [root]

        def extend(v: int, visited: int):
            for w in g.neighbors(v):
                if w <= root:
                    if w == root and len(path) >= 3 and path[1] < path[-1]:
                        yield tuple(path)
                    continue
                if visited >> w & 1:
                    continue
                path.append(w)
                yield from extend(w, visited | 1 << w)
                path.pop()

        yield from extend(root, 1 << root)


def oracle_apex_chords(g: Graph, k: int) -> bool:
    """Some cycle has >= k chords incident to one of its vertices: for each
    cycle and each on-cycle vertex u, the chords at u are u's edges into the
    cycle minus its two cycle neighbors."""
    for cyc in cycles_by_dfs(g):
        m = len(cyc)
        members = set(cyc)
        for i, u in enumerate(cyc):
            inside = sum(1 for v in members if v != u and g.has_edge(u, v))
            if inside - 2 >= k:
                return True
    return False


def oracle_chorded(g: Graph, min_chords: int) -> bool:
    """Some cycle carries >= min_chords chords in total."""
    for cyc in cycles_by_dfs(g):
        m = len(cyc)
        members = list(cyc)
        e = sum(
            1
            for a, b in combinations(members, 2)
            if g.has_edge(a, b)
        )
        if e - m >= min_chords:
            return True
    return False


def oracle_longest_cycle_length(g: Graph) -> int | None:
    best = None
    for cyc in cycles_by_dfs(g):
        if best is None or len(cyc) > best:
            best = len(cyc)
    return best


def oracle_longest_path_order(g: Graph) -> int:
    """Most vertices on a path, by brute permutation extension."""
    best = 1
    n = g.n

    def extend(v: int, visited: int, length: int):
        nonlocal best
        best = max(best, length)
        for w in g.neighbors(v):
            if not visited >> w & 1:
                extend(w, visited | 1 << w, length + 1)

    for start in range(n):
        extend(start, 1 << start, 1)
    return best


def oracle_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    ge = {(min(u, v), max(u, v)) for u, v in g.edges()}
    he = {(min(a, b), max(a, b)) for a, b in h.edges()}
    for perm in permutations(range(h.n)):
        if all(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) in he for u, v in ge
        ):
            return True
    return False


def oracle_automorphism_count(g: Graph) -> int:
    """|Aut(G)| by brute force over all n! permutations; tiny n only."""
    edges = {(min(u, v), max(u, v)) for u, v in g.edges()}
    return sum(
        1
        for perm in permutations(range(g.n))
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in edges for u, v in edges)
    )


def edge_index(i: int, j: int) -> int:
    """The bit of the edge ij in an edge bitmask (``graphs.index_pairs``
    order), from the closed form j(j-1)/2 + i for i < j."""
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


def mask_from_graph(g: Graph) -> int:
    """The edge bitmask of g, the inverse of ``graphs.graph_from_mask``."""
    return sum(1 << edge_index(u, v) for u, v in g.edges())


def induced_subgraph(g: Graph, vertices) -> Graph:
    """The subgraph induced on the nonempty `vertices`, relabelled by their
    sorted order."""
    vs = sorted(set(vertices))
    pos = {v: i for i, v in enumerate(vs)}
    return make_graph(len(vs), [(pos[u], pos[v]) for u, v in g.edges() if u in pos and v in pos])


def oracle_graph6_encode(g: Graph) -> str:
    """graph6 one bit at a time: the size header, then the upper-triangle
    bits in column order, padded with zeros and packed six per character."""
    n = g.n
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = val << 1 | b
        chars.append(chr(63 + val))
    return head + "".join(chars)


def oracle_graph6_decode(text: str) -> Graph:
    """The inverse of ``oracle_graph6_encode`` on well-formed text, one bit
    at a time."""
    data = [ord(c) - 63 for c in text.strip()]
    if data[0] < 63:
        n, body = data[0], data[1:]
    else:
        n, body = data[1] << 12 | data[2] << 6 | data[3], data[4:]
    bits = [(d >> s) & 1 for d in body for s in (5, 4, 3, 2, 1, 0)]
    edges = []
    b = 0
    for j in range(1, n):
        for i in range(j):
            if bits[b]:
                edges.append((i, j))
            b += 1
    return make_graph(n, edges)


def is_connected(g: Graph) -> bool:
    """Whether g is connected, a graph on at most one vertex included: a
    walk from vertex 0 over ``g.neighbors`` reaches every vertex."""
    if g.n <= 1:
        return True
    seen, todo = {0}, [0]
    while todo:
        for v in g.neighbors(todo.pop()):
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return len(seen) == g.n


def oracle_q_index(g: Graph) -> SpectralResult:
    """q(G), Perron vector and residual with one eigensolve per component,
    each component cut out of Q and its vector embedded in R^n."""
    Q = signless_laplacian(g).astype(float)
    best_q = -1.0
    for comp in (tuple(bits_to_vertices(m)) for m in g.component_masks()):
        sub = Q[np.ix_(comp, comp)]
        w, v = np.linalg.eigh(sub)
        if w[-1] > best_q + 1e-15:
            best_q, best_comp, best_sub = float(w[-1]), comp, sub
            best_x = np.abs(v[:, -1])
    residual = float(np.max(np.abs(best_sub @ best_x - best_q * best_x)))
    full = np.zeros(g.n)
    full[list(best_comp)] = best_x
    return SpectralResult(q=best_q, vector=tuple(full.tolist()), residual=residual)


def oracle_q(g: Graph) -> float:
    """Index via the dense symmetric eigensolver, straight from A + D."""
    a = np.zeros((g.n, g.n))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    q = a + np.diag(a.sum(axis=1))
    return float(np.linalg.eigvalsh(q)[-1])


def oracle_signless_laplacian(g: Graph) -> np.ndarray:
    """Q(G) = A(G) + D(G), one neighbour at a time."""
    n = g.n
    q = np.zeros((n, n), dtype=np.int64)
    for u in range(n):
        for v in g.neighbors(u):
            q[u, v] = 1
        q[u, u] = g.degree(u)
    return q


def oracle_quotient_matrix(g: Graph, blocks) -> tuple[tuple[tuple[Fraction, ...], ...], bool]:
    """(entries, equitable) of the block-averaged Q(G), one entry at a time:
    entry (i, j) averages over block i the Q row sums into block j, and the
    partition is equitable when those sums agree within every block."""
    Q = oracle_signless_laplacian(g)
    tblocks = [sorted(b) for b in blocks]
    entries = []
    equitable = True
    for bi in tblocks:
        row = []
        for bj in tblocks:
            sums = [int(Q[u, bj].sum()) for u in bi]
            if any(s != sums[0] for s in sums):
                equitable = False
            row.append(Fraction(sum(sums), len(bi)))
        entries.append(tuple(row))
    return tuple(entries), equitable


def _frac_rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Remainder of a by b over the rationals (both nonempty, b nonzero)."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(r) - 1 >= db and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < db:
            break
        q = r[-1] / lb
        shift = len(r) - 1 - db
        for i, c in enumerate(b):
            r[shift + i] -= q * c
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return r


def _frac_primitive(fr) -> IntPolynomial:
    """Clear denominators and content; keep the sign of the leading coefficient."""
    if not fr:
        return IntPolynomial([])
    den = 1
    for c in fr:
        den = lcm(den, c.denominator)
    ints = [int(c * den) for c in fr]
    g = 0
    for c in ints:
        g = gcd(g, c)
    return IntPolynomial([c // g for c in ints])


def oracle_poly_gcd(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """Primitive gcd with positive leading coefficient, by rational Euclid."""
    a = [Fraction(c) for c in p.coeffs]
    b = [Fraction(c) for c in q.coeffs]
    while b:
        a, b = b, _frac_rem(a, b)
    g = _frac_primitive(a)
    if not g.is_zero and g.leading < 0:
        g = -g
    return g


def oracle_squarefree_part(p: IntPolynomial) -> IntPolynomial:
    """p / gcd(p, p') by rational long division, primitive with leading > 0;
    p itself, up to sign, when the gcd is constant."""
    if p.degree <= 0:
        raise ValueError("constant polynomial has no squarefree part")
    g = oracle_poly_gcd(p, p.derivative())
    if g.degree == 0:
        q = p
    else:
        num = [Fraction(c) for c in p.coeffs]
        den = [Fraction(c) for c in g.coeffs]
        quot: list[Fraction] = [Fraction(0)] * (len(num) - len(den) + 1)
        r = list(num)
        while len(r) >= len(den) and any(r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) < len(den):
                break
            k = len(r) - len(den)
            c = r[-1] / den[-1]
            quot[k] = c
            for i, d in enumerate(den):
                r[k + i] -= c * d
            r.pop()
        q = _frac_primitive(quot)
    if q.leading < 0:
        q = -q
    return q


def oracle_sturm_chain(p: IntPolynomial) -> list[IntPolynomial]:
    """p, p', then the negated primitive parts of the rational remainders."""
    chain = [p, p.derivative()]
    a = [Fraction(c) for c in chain[0].coeffs]
    b = [Fraction(c) for c in chain[1].coeffs]
    while b:
        r = _frac_rem(a, b)
        if not r:
            break
        nxt = -_frac_primitive(r)
        chain.append(nxt)
        a, b = b, [Fraction(c) for c in nxt.coeffs]
    return chain


def _frac_variations(chain, x: Fraction) -> int:
    signs = [s for s in ((v > 0) - (v < 0) for v in (q(x) for q in chain)) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _frac_count_between(chain, a: Fraction, b: Fraction) -> int:
    return _frac_variations(chain, a) - _frac_variations(chain, b)


def _frac_nonroot(p: IntPolynomial, x: Fraction, lo: Fraction, hi: Fraction) -> Fraction:
    step = (hi - lo) / (1 << 20)
    while p(x) == 0:
        x += step
        step /= 2
        if not lo < x < hi:
            raise ArithmeticError("failed to dodge a polynomial root")
    return x


def _frac_halve(p: IntPolynomial, chain, bracket):
    """The half of the bracket (lo, hi, V(lo), V(hi)) of the largest root of
    the squarefree p that holds it, with the variation counts of its ends.
    No root lies above hi, so a midpoint with more variations than hi has
    one above it; the chain is evaluated once, at the midpoint moved off
    any root."""
    lo, hi, vlo, vhi = bracket
    mid = _frac_nonroot(p, (lo + hi) / 2, lo, hi)
    vmid = _frac_variations(chain, mid)
    return (mid, hi, vmid, vhi) if vmid > vhi else (lo, mid, vlo, vmid)


def _frac_isolate(p: IntPolynomial, width: Fraction, chain):
    """(lo, hi, V(lo), V(hi)) around the largest root of the squarefree p,
    no wider than width and with no other root inside, bisected from the
    Cauchy bound; None when p has no real root."""
    bound = root_bound(p)
    bracket = (-bound, bound, _frac_variations(chain, -bound), _frac_variations(chain, bound))
    if bracket[2] == bracket[3]:
        return None
    while bracket[2] - bracket[3] > 1 or bracket[1] - bracket[0] > width:
        bracket = _frac_halve(p, chain, bracket)
    return bracket


def _sturm_variations(chain, x: Fraction) -> int:
    return polynomials._variations(polynomials._values_at(chain, x.numerator, x.denominator))


def count_roots_above(p: IntPolynomial, a) -> int:
    """Distinct real roots of p strictly greater than a; a may be a root."""
    chain = polynomials._squarefree_chain(p)
    return _sturm_variations(chain, Fraction(a)) - polynomials._variations_at_inf(chain)


def count_roots_in_interval(p: IntPolynomial, a, b) -> int:
    """Distinct real roots of p in the open interval (a, b); a and b may be
    roots. With zero signs skipped, V(a) - V(b) counts the roots of the
    squarefree part in (a, b], also when a is a root."""
    chain = polynomials._squarefree_chain(p)
    b = Fraction(b)
    between = _sturm_variations(chain, Fraction(a)) - _sturm_variations(chain, b)
    return between - (chain[0](b) == 0)


@functools.cache
def _oracle_isolated(coeffs: tuple[int, ...]):
    """(p*, its Sturm chain, a bracket of its largest root no wider than
    1/1024, or None) for the polynomial p with these coefficients, p* its
    squarefree part. Cached for the test process by coefficient tuple, so a
    polynomial shared by several compared pairs is isolated once; the
    bracket is a tuple (lo, hi, V(lo), V(hi)) of two Fractions and their
    variation counts, which each comparison narrows in local copies only."""
    sp = oracle_squarefree_part(IntPolynomial(coeffs))
    chain = oracle_sturm_chain(sp)
    return sp, chain, _frac_isolate(sp, Fraction(1, 1024), chain)


def oracle_compare_largest_roots(p: IntPolynomial, q: IntPolynomial) -> int:
    """Exact ordering of the largest real roots of p and q, deciding
    equality through the common-root factor gcd(p*, q*)."""
    sp, cp, bp = _oracle_isolated(p.coeffs)
    sq, cq, bq = _oracle_isolated(q.coeffs)
    g = oracle_poly_gcd(sp, sq)
    gchain = oracle_sturm_chain(g) if g.degree >= 1 else None
    if bp is None or bq is None:
        raise ValueError("polynomial without real roots")
    while True:
        (ap, hp, *_), (aq, hq, *_) = bp, bq
        if hp <= aq:
            return LESS
        if hq <= ap:
            return GREATER
        lo, hi = max(ap, aq), min(hp, hq)
        if gchain is not None and lo < hi:
            if _frac_count_between(gchain, lo, hi) >= 1:
                return EQUAL
        bp = _frac_halve(sp, cp, bp)
        bq = _frac_halve(sq, cq, bq)


def oracle_round_largest_root(p: IntPolynomial, places: int) -> int:
    """The largest real root of p times 10^places, rounded to the nearest
    integer: the cached Fraction bracket is halved until both its ends
    round to the same integer, which then is the root's rounding too."""
    sp, chain, bracket = _oracle_isolated(p.coeffs)
    d, half = 10**places, Fraction(1, 2)
    while math.floor(bracket[0] * d + half) != math.floor(bracket[1] * d + half):
        bracket = _frac_halve(sp, chain, bracket)
    return math.floor(bracket[0] * d + half)


def oracle_charpoly_int_matrix(rows) -> IntPolynomial:
    """det(xI - A) by Faddeev-LeVerrier over nested lists of Python ints."""
    m = len(rows)
    if any(len(r) != m for r in rows):
        raise ValueError("matrix is not square")
    A = [[int(c) for c in r] for r in rows]
    coeffs = [0] * (m + 1)
    coeffs[m] = 1
    M = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    for k in range(1, m + 1):
        AM = [
            [sum(A[i][t] * M[t][j] for t in range(m)) for j in range(m)]
            for i in range(m)
        ]
        tr = sum(AM[i][i] for i in range(m))
        assert tr % k == 0, "Faddeev-LeVerrier trace must divide exactly"
        c = -(tr // k)
        coeffs[m - k] = c
        for i in range(m):
            AM[i][i] += c
        M = AM
    return IntPolynomial(coeffs)


def oracle_prefilter_spot_check(n: int, thr: float, seed: int = 20240601) -> dict:
    """The verifier's prefilter spot check one drawn graph at a time: same
    draws, same skip rules, ``q_index`` per skipped graph."""
    nbits = n * (n - 1) // 2
    total = 1 << nbits
    rng = random.Random(seed)
    sample = min(max(total // 100, 100), 20000)
    pairs = index_pairs(n)
    checked = 0
    worst = -math.inf
    ok = True
    for _ in range(sample):
        mask = rng.randrange(total)
        g = graph_from_mask(n, mask)
        degs = g.degrees()
        if min(degs) == 0:
            continue
        skipped = 2 * max(degs) < thr
        if not skipped:
            esum = max(degs[i] + degs[j] for b, (i, j) in enumerate(pairs) if mask >> b & 1)
            skipped = esum < thr
        if not skipped:
            continue
        checked += 1
        qv = q_index(g).q
        worst = max(worst, qv)
        if qv >= thr:
            ok = False
    return {
        "name": "prefilter_spot_check",
        "passed": ok,
        "skipped_sampled": checked,
        "max_q_among_skipped": None if checked == 0 else round(worst, 9),
    }


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

    def _edge_degree_sums(self) -> np.ndarray:
        """d(u) + d(v) at each edge slot uv that holds an edge, 0 at the
        others: (k, C(n,2))."""
        i, j, _ = _edge_slots(self.n)
        return (self.degrees[:, i] + self.degrees[:, j]) * self.bits

    def max_edge_degree_sums(self) -> np.ndarray:
        """Max over the edges uv of d(u) + d(v), an upper bound on q; 0 for
        an edgeless graph."""
        return self._edge_degree_sums().max(axis=1, initial=0)

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

    def degree_vector_bounds(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(Qd, d'Qd, d'd): the integers of two bounds on q at the degree
        vector d, which is positive when no vertex is isolated. Qd is (k, n):
        (Qd)_v = d_v^2 + S_v, with S_v the sum of v's neighbour degrees, so
        q <= max_v (Qd)_v / d_v (Collatz-Wielandt, the eta bound). d'Qd is
        the sum over the edges uv of (d_u + d_v)^2 and d'd the sum of the
        d_v^2, so q >= d'Qd / d'd (Rayleigh)."""
        _, _, incident = _edge_slots(self.n)
        sums = self._edge_degree_sums()
        return (sums @ incident, (sums * sums).sum(axis=1),
                (self.degrees * self.degrees).sum(axis=1))

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


def oracle_spot_check_solving_all(n: int, thr: float, seed: int = 20240601):
    """The verifier's prefilter spot check with every skipped graph
    eigensolved: same draws (``randrange``), same skip rules, one batched
    ``eigvalsh`` over all of them. Returns (the check's result, the
    (mask, index) of each skipped graph drawn, in draw order)."""
    total = 1 << n * (n - 1) // 2
    rng = random.Random(seed)
    sample = min(max(total // 100, 100), 20000)
    batch = MaskBatch.of(n, [rng.randrange(total) for _ in range(sample)])
    no_isolated, reach = batch.degree_cut(thr)
    skipped = batch[no_isolated & ~reach]
    top = skipped.top_eigenvalues()
    result = {
        "name": "prefilter_spot_check",
        "passed": bool((top < thr).all()),
        "skipped_sampled": len(top),
        "max_q_among_skipped": round(float(top.max()), 9) if len(top) else None,
    }
    return result, list(zip(skipped.masks.tolist(), top.tolist()))


def oracle_degree_vector_bounds(g: Graph) -> tuple[Fraction, Fraction]:
    """(U, L) for a graph without isolated vertices, at its degree vector
    d: U = max_v (Qd)_v / d_v >= q (Collatz-Wielandt) and L = d'Qd / d'd
    <= q (Rayleigh), from the entries of Q = D + A one by one."""
    d = g.degrees()
    Q = [[d[u] if u == v else int(g.has_edge(u, v)) for v in range(g.n)] for u in range(g.n)]
    Qd = [sum(Q[u][v] * d[v] for v in range(g.n)) for u in range(g.n)]
    upper = max(Fraction(Qd[u], d[u]) for u in range(g.n))
    lower = Fraction(sum(d[u] * Qd[u] for u in range(g.n)), sum(x * x for x in d))
    return upper, lower


def oracle_classify_labeled(n: int, lo: int, hi: int, lo_cut: float, hi_cut: float, test):
    """``kernels.classify``'s earlier plain pass over every labeled mask in
    [lo, hi), not only the degree-sorted ones, with unweighted counts:
    (masks of graphs without isolated vertices, hits, the other masks not
    dropped, ascending). A graph is dropped when its degree bounds or its
    batched eigenvalue put the index below lo_cut - 1e-9, and a hit when the
    index is above hi_cut + 1e-9 and the reference searcher for test, a
    (name, k) pair or None, finds the configuration."""
    searcher = None
    if test is not None:
        name, k = test
        searcher = {"apex_has_config": find_k_chords_at_apex,
                    "chorded_has": find_chorded_cycle}[name]
    no_isolated = hits = 0
    rest = []
    for start in range(lo, hi, 1 << 14):
        batch = MaskBatch.of(n, np.arange(start, min(start + (1 << 14), hi), dtype=np.int64))
        ok, cand = batch.degree_cut(lo_cut)
        no_isolated += int(ok.sum())
        if not cand.any():
            continue
        kept = batch[cand]
        top = kept.top_eigenvalues()
        above = top >= lo_cut - 1e-9
        for mask, q in zip(kept.masks[above].tolist(), top[above].tolist()):
            if (searcher is not None and q > hi_cut + 1e-9
                    and searcher(graph_from_mask(n, mask), k) is not None):
                hits += 1
            else:
                rest.append(mask)
    return no_isolated, hits, rest


def oracle_sample(rng: random.Random, n_lo: int, n_hi: int) -> Graph:
    """The property suite's earlier sampler, a per-slot loop in Python: an
    order drawn from n_lo..n_hi, an edge probability p from the strata 0.2,
    0.4, 0.6 and 0.8 (``properties._P_STRATA``), then one ``rng.random()`` per
    edge slot, in ``index_pairs`` order, each slot an edge when the value is
    below p. The reference for ``properties._sample`` and
    ``kernels.sample_rows``, which must give the same graph and leave the
    generator in the same state."""
    n = rng.randint(n_lo, n_hi)
    p = rng.choice((0.2, 0.4, 0.6, 0.8))
    rand = rng.random
    adj = [0] * n
    for i, j in index_pairs(n):
        if rand() < p:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return Graph(n, tuple(adj))


def oracle_slot_rows(n: int, slots) -> tuple[int, ...]:
    """The rows of the graph on n vertices whose edges are the edge slots
    listed, ``index_pairs(n)[b]`` for each slot b: the per-slot loop of the
    property suite's earlier dense draw."""
    pairs = index_pairs(n)
    adj = [0] * n
    for b in slots:
        i, j = pairs[b]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return tuple(adj)


def body_text(report_json: str) -> str:
    """A report's JSON text without its wall_time_ms, keys in their order."""
    body = json.loads(report_json)
    body.pop("wall_time_ms", None)
    return json.dumps(body, indent=2)


def replay_counterexample(task: str, g6: str, params: dict) -> bool:
    """Re-check a recorded counterexample in isolation through the rule of
    the sweep that reported it; True means it still violates the condition
    it was reported for. VerifierError for a task or order no sweep runs."""
    g = graph6_decode(g6)
    ext, _, _, rule = verifier._sweep_rule(task, g.n, params)
    # the sweeps skip graphs with an isolated vertex; the index is the
    # sweep's own float, from the batched eigensolve the tail uses
    return g.min_degree > 0 and rule(g, verifier.q_indices([g])[0], ext) == "counterexample"


def sorted_mask(n: int, mask: int) -> int:
    """The mask of the graph relabelled so that its degrees do not increase,
    vertices of equal degree keeping their order: the degree-sorted mask
    whose images (``graphs.arrangement_images``) include this one."""
    g = graph_from_mask(n, mask)
    order = sorted(range(n), key=lambda v: -g.degree(v))
    pos = {v: i for i, v in enumerate(order)}
    return sum(1 << edge_index(pos[u], pos[v]) for u, v in g.edges())


# The catalog fixtures' orders as the appendix first stated them, per item:
# (min_graph_n, order_mod4, template_min_n). The graph exists at the orders
# n >= min_graph_n with n == order_mod4 (mod 4), every order for -1; the fan
# families 12 and 18 take the widths s by the rules in oracle_fixture_orders.
_FIXTURE_ORDERS = {
    1: (7, 2, 10), 2: (9, 1, 13), 3: (7, 2, 10), 4: (7, 3, 11), 5: (7, 3, 11),
    6: (9, 1, 13), 7: (8, 0, 12), 8: (7, 2, 10), 9: (7, 2, 10), 10: (7, 3, 11),
    11: (8, 0, 12), 12: (10, -1, 10), 13: (7, -1, 7), 14: (7, 1, 7),
    15: (7, 2, 7), 16: (7, 3, 7), 17: (8, 0, 8), 18: (9, -1, 9),
}


def oracle_fixture_orders(item: int, n_lo: int, n_hi: int) -> list:
    """The (n, s) within [n_lo, n_hi] at which catalog item's graph exists."""
    min_graph_n, order_mod4, _ = _FIXTURE_ORDERS[item]
    out = []
    for n in range(max(n_lo, min_graph_n), n_hi + 1):
        if item not in (12, 18):
            if order_mod4 < 0 or n % 4 == order_mod4:
                out.append((n, None))
            continue
        for s in range(3, n):
            if item == 12 and not (n >= s + 7 and (n - s - 3) % 4 == 0):
                continue
            if item == 18 and not (n >= s + 6 and (n - s - 2) % 4 == 0):
                continue
            out.append((n, s))
    return out


def oracle_template_keys(item: int, n_lo: int, n_hi: int) -> list:
    """The (n, s) within [n_lo, n_hi] at which catalog item's template
    identity is checked: every order from template_min_n, at the widths
    3..n - 3 for item 12 and 3..n - 2 for item 18."""
    out = []
    for n in range(max(n_lo, _FIXTURE_ORDERS[item][2]), n_hi + 1):
        svals = [None]
        if item in (12, 18):
            svals = list(range(3, (n - 3 if item == 12 else n - 2) + 1))
        out += [(n, s) for s in svals]
    return out


def oracle_fan_chain(item: int, n_lo: int, n_hi: int) -> list:
    """The (n, s) within [n_lo, n_hi] whose closed forms at s and s + 4 the
    fan-width chain of item 12 or 18 compares."""
    nmin_off = {12: 7, 18: 6}[item]
    return [(n, s) for n in range(n_lo, n_hi + 1) for s in range(3, n - nmin_off + 1)]
