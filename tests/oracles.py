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
``oracle_signless_laplacian`` and ``oracle_quotient_matrix`` are the earlier
per-neighbour and per-entry forms of ``spectral.signless_laplacian`` and
``spectral.quotient_matrix``; ``oracle_q_index`` is the earlier form of
``spectral.q_index``, which cuts every component, even the only one, out of Q.
``oracle_automorphism_count`` tries all n! vertex permutations.
``oracle_graph6_encode`` and ``oracle_graph6_decode`` are the earlier
bit-by-bit graph6 codec, the reference for ``graphs.graph6_encode`` and
``graph6_decode``, which pack the edge bitmask.
``mask_from_graph`` (through ``edge_index``) inverts
``graphs.graph_from_mask`` by the closed-form bit position of each edge, and
``induced_subgraph`` relabels an induced subgraph; both check the package's
own mask and component routines.
``oracle_isolate_largest_root`` is the Fraction bisection that
``oracle_compare_largest_roots`` runs, to a requested width.
``oracle_fixture_orders``, ``oracle_template_keys`` and ``oracle_fan_chain``
restate, per catalog item, the orders and fan widths that the appendix
fixtures once spelled out field by field, as references for the single
fixture table that decides them now.
``count_roots_above`` and ``count_roots_in_interval`` are Sturm root counts
on the package's own integer chains; they check the float index against the
exact roots and are not themselves under test.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, lcm

import numpy as np

from chordspec.graphs import Graph, graph_from_mask, index_pairs, make_graph
from chordspec import polynomials
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


def oracle_q_index(g: Graph) -> SpectralResult:
    """q(G), Perron vector and residual with one eigensolve per component,
    each component cut out of Q and its vector embedded in R^n."""
    Q = signless_laplacian(g).astype(float)
    best_q = -1.0
    for comp in g.components():
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


def _frac_count_above(chain, a: Fraction) -> int:
    signs = [s for s in ((q.leading > 0) - (q.leading < 0) for q in chain) if s]
    at_inf = sum(1 for u, v in zip(signs, signs[1:]) if u != v)
    return _frac_variations(chain, a) - at_inf


def _frac_nonroot(p: IntPolynomial, x: Fraction, lo: Fraction, hi: Fraction) -> Fraction:
    step = (hi - lo) / (1 << 20)
    while p(x) == 0:
        x += step
        step /= 2
        if not lo < x < hi:
            raise ArithmeticError("failed to dodge a polynomial root")
    return x


def _frac_halve(p: IntPolynomial, chain, lo: Fraction, hi: Fraction):
    mid = _frac_nonroot(p, (lo + hi) / 2, lo, hi)
    if _frac_count_above(chain, mid) > 0:
        return mid, hi
    return lo, mid


def _frac_isolate(p: IntPolynomial, width: Fraction):
    chain = oracle_sturm_chain(p)
    bound = root_bound(p)
    lo, hi = -bound, bound
    if _frac_count_between(chain, lo, hi) == 0:
        return None
    while _frac_count_between(chain, lo, hi) > 1 or hi - lo > width:
        lo, hi = _frac_halve(p, chain, lo, hi)
    return lo, hi


def oracle_isolate_largest_root(p: IntPolynomial, width: Fraction):
    """Open rational interval (a, b) no wider than width around the largest
    real root of p, with no other root in it; None when p has no real root."""
    return _frac_isolate(oracle_squarefree_part(p), width)


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


def oracle_compare_largest_roots(p: IntPolynomial, q: IntPolynomial) -> int:
    """Exact ordering of the largest real roots of p and q, deciding
    equality through the common-root factor gcd(p*, q*)."""
    sp, sq = oracle_squarefree_part(p), oracle_squarefree_part(q)
    g = oracle_poly_gcd(sp, sq)
    gchain = oracle_sturm_chain(g) if g.degree >= 1 else None
    cp, cq = oracle_sturm_chain(sp), oracle_sturm_chain(sq)
    bp = _frac_isolate(sp, Fraction(1, 1024))
    bq = _frac_isolate(sq, Fraction(1, 1024))
    if bp is None or bq is None:
        raise ValueError("polynomial without real roots")
    (ap, hp), (aq, hq) = bp, bq
    while True:
        if hp <= aq:
            return LESS
        if hq <= ap:
            return GREATER
        lo, hi = max(ap, aq), min(hp, hq)
        if gchain is not None and lo < hi:
            if _frac_count_between(gchain, lo, hi) >= 1:
                return EQUAL
        ap, hp = _frac_halve(sp, cp, ap, hp)
        aq, hq = _frac_halve(sq, cq, aq, hq)


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
