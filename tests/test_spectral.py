import random
from fractions import Fraction

import numpy as np
import pytest

from chordspec import _sweep_py, kernels, polynomials, spectral
from chordspec.appendix import (
    FIXTURES,
    fixture_graphs,
    quotient_template,
    template_keys,
    threshold_quotient_template,
)
from chordspec.families import (
    complete,
    complete_multipartite,
    cycle,
    double_star,
    extremal_graph,
    k1_join_k4_union_k1,
    k11n2_plus,
    path,
    star,
)
from chordspec.graphs import disjoint_union, graph6_encode, graph_from_mask, join, make_graph
from chordspec.polynomials import EQUAL, GREATER, LESS
from chordspec.properties import _eta_violated
from chordspec.spectral import (
    charpoly_graph,
    charpoly_int_matrices,
    charpoly_int_matrix,
    eta,
    max_eta,
    perron_roots,
    q_exact_compare,
    q_index,
    q_index_texts,
    q_indices,
    quotient_matrix,
    signless_laplacian,
)
from oracles import (
    MaskBatch,
    count_roots_above,
    count_roots_in_interval,
    is_connected,
    oracle_charpoly_int_matrix,
    oracle_q,
    oracle_q_index,
    oracle_quotient_matrix,
    oracle_round_largest_root,
    oracle_signless_laplacian,
)


def random_graph(rng, n, p=0.5):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return make_graph(n, edges)


def test_signless_laplacian_entries():
    assert signless_laplacian(make_graph(2, [(0, 1)])).tolist() == [[1, 1], [1, 1]]
    c3 = signless_laplacian(complete(3))
    assert c3.tolist() == [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
    s = signless_laplacian(star(2))
    assert s.tolist() == [[2, 1, 1], [1, 1, 0], [1, 0, 1]]


def test_q_index_trivial_values():
    assert q_index(make_graph(2, [(0, 1)])).q == pytest.approx(2, abs=1e-11)
    for n in (3, 5, 9, 12):
        assert q_index(cycle(n)).q == pytest.approx(4, abs=1e-10)
    assert q_index(make_graph(1)).q == 0.0


def test_q_index_reference_values():
    # four-decimal reference values for the catalog graphs
    cases = [
        (k1_join_k4_union_k1().graph, 8.2749),
        (k11n2_plus(6).graph, 7.7588),
        (join(make_graph(1), double_star(1, 2)), 7.1156),
        (k11n2_plus(7).graph, 8.7355),
    ]
    for g, want in cases:
        assert q_index(g).q == pytest.approx(want, abs=5e-4)


def test_q_index_result_contract():
    rng = random.Random(11)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 10), rng.choice((0.3, 0.6)))
        res = q_index(g)
        assert res.residual <= 1e-12
        assert all(x >= 0 for x in res.vector)
        assert np.linalg.norm(res.vector) == pytest.approx(1.0, abs=1e-12)
        assert res.q == pytest.approx(oracle_q(g), abs=1e-9)


def _assert_unit_top_eigenvector(g, res):
    # a unit nonnegative vector x with |Qx - qx| <= 1e-12, checked on Q
    # afresh rather than read from res.residual
    x = np.array(res.vector)
    assert res.residual <= 1e-12
    assert (x >= 0).all()
    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(signless_laplacian(g) @ x - res.q * x)) <= 1e-12


def test_q_index_disconnected_takes_component_max():
    # one eigensolve of the whole Q: the index is the largest component's,
    # and the vector a unit top eigenvector of the whole graph
    for g, want in (
        (disjoint_union(complete(4), cycle(5)), 6.0),  # clique beats the cycle
        (disjoint_union(complete(4), complete(4)), 6.0),  # equal components
        (disjoint_union(make_graph(1), cycle(5)), 4.0),  # an isolated vertex
    ):
        res = q_index(g)
        assert res.q == pytest.approx(want, abs=1e-10)
        _assert_unit_top_eigenvector(g, res)


def test_q_index_matches_the_per_component_route_bit_for_bit():
    # a connected graph's Q goes to the eigensolver as it is, as the
    # per-component route cuts out its one component: the values must be
    # equal bit for bit. A disconnected graph is solved whole, so its index
    # agrees with the component maximum to rounding and its vector is a
    # unit top eigenvector
    rng = random.Random(57)
    connected = 0
    for _ in range(400):
        g = random_graph(rng, rng.randint(1, 12), rng.choice((0.2, 0.5, 0.8)))
        want = oracle_q_index(g)
        if is_connected(g):
            connected += 1
            assert q_index(g) == want
        else:
            res = q_index(g)
            assert res.q == pytest.approx(want.q, rel=0, abs=1e-12)
            _assert_unit_top_eigenvector(g, res)
    assert connected >= 200 and 400 - connected >= 100


def test_q_indices_match_q_index(monkeypatch):
    # through each kernel: seeded graphs at orders 1..12, edgeless, sparse
    # (disconnected, with isolated vertices) and dense; one call per order,
    # then one batch that spans every order in shuffled order, then one
    # across the kernels' 64-vertex row limit, at 64, 65 and 256 vertices
    for _, impl in kernels.implementations():
        monkeypatch.setattr(kernels, "q_indices", impl.q_indices)
        monkeypatch.setattr(kernels, "IS_COMPILED", impl.IS_COMPILED)
        rng = random.Random(59)
        graphs = []
        for n in range(1, 13):
            batch = [make_graph(n), disjoint_union(make_graph(1), complete(n - 1)) if n > 1
                     else make_graph(1)]
            batch += [random_graph(rng, n, rng.choice((0.1, 0.2, 0.5, 0.8))) for _ in range(25)]
            want = [q_index(g).q for g in batch]
            assert q_indices(batch) == pytest.approx(want, rel=0, abs=1e-12)
            graphs += batch
        assert sum(not is_connected(g) for g in graphs) >= 50
        assert sum(0 in g.degrees() for g in graphs) >= 50
        rng.shuffle(graphs)
        got = q_indices(graphs)
        assert got == pytest.approx([q_index(g).q for g in graphs], rel=0, abs=1e-12)
        # the oracle builds its own Q, one edge at a time
        assert got == pytest.approx([oracle_q(g) for g in graphs], rel=0, abs=1e-12)
        assert q_indices([]) == []
        large = [random_graph(rng, n, p)
                 for n, p in ((64, 0.5), (65, 0.5), (65, 0.05), (256, 0.1))]
        mixed = large + [complete(64), complete(65)] + graphs[:30]
        rng.shuffle(mixed)
        want = [q_index(g).q for g in mixed]
        assert q_indices(mixed) == pytest.approx(want, rel=0, abs=1e-12)
        want = [oracle_q(g) for g in large[2:]]
        assert q_indices(large[2:]) == pytest.approx(want, rel=0, abs=1e-12)


def test_q_indices_on_the_python_kernel_check_no_rows(monkeypatch):
    # a Graph's rows are valid by construction, so on the python kernel
    # q_indices solves the graphs without the kernel's q_indices, which reads
    # every graph back through _graph_of_rows first, and gives its floats bit
    # for bit; above 64 vertices, those _stacked_indices gives alone
    rng = random.Random(60)
    small = [random_graph(rng, n, p) for n in (1, 2, 5, 8, 12, 30, 64) for p in (0.1, 0.5, 0.9)]
    large = [random_graph(rng, n, 0.3) for n in (65, 65, 90)]
    graphs = small + large
    rng.shuffle(graphs)
    want = dict(zip(small, _sweep_py.q_indices([g.rows for g in small])))
    want.update((g, _sweep_py._stacked_indices([g])[0]) for g in large)
    monkeypatch.setattr(kernels, "IS_COMPILED", False)
    monkeypatch.setattr(kernels, "q_indices", _sweep_py.q_indices)

    def no_row_check(rows):
        raise AssertionError("q_indices re-checked a Graph's rows")

    monkeypatch.setattr(_sweep_py, "_graph_of_rows", no_row_check)
    assert [q.hex() for q in q_indices(graphs)] == [want[g].hex() for g in graphs]


def test_eta_examples():
    assert eta(complete(3), 0) == 4
    assert eta(star(3), 0) == 4
    assert eta(star(3), 1) == 4
    assert eta(path(3), 1) == 3
    with pytest.raises(Exception):
        eta(make_graph(2), 0)


def test_quotient_matrix_examples():
    b = quotient_matrix(k11n2_plus(7).graph, [[0, 1], [2, 3], [4, 5, 6]])
    assert b == [
        [7, 2, 3],
        [2, 4, 0],
        [2, 0, 2],
    ]
    assert all(type(e) is int for row in b for e in row)
    assert quotient_matrix(complete(5), [list(range(5))]) == [[8]]
    assert quotient_matrix(path(3), [[0, 2], [1]]) == [[1, 1], [2, 2]]
    # the rows follow the blocks in the given order
    assert quotient_matrix(path(3), [[1], [2, 0]]) == [[2, 2], [1, 1]]
    # a lopsided split is not equitable
    assert quotient_matrix(path(3), [[0, 1], [2]]) is None


def test_perron_root_examples():
    assert perron_roots([[[8]]])[0] == 8.0
    assert perron_roots([[[1, 1], [2, 2]]])[0] == pytest.approx(3.0)
    b = quotient_matrix(k11n2_plus(7).graph, [[0, 1], [2, 3], [4, 5, 6]])
    assert abs(perron_roots([b])[0] - q_index(k11n2_plus(7).graph).q) < 1e-8
    # mixed sizes, shuffled, and no matrix at all: each root is the one
    # eigvals gives on that matrix alone, bit for bit, in input order
    matrices = [quotient_template(fx.item, n, s) for n in (7, 15, 22)
                for fx in FIXTURES for _, s in template_keys(fx, n, n)]
    matrices += [[[8]], [[1, 1], [2, 2]], [[0, 1], [1, 0]], b]
    random.Random(5).shuffle(matrices)
    assert len({len(m) for m in matrices}) >= 5
    want = [np.linalg.eigvals(np.array(m, dtype=float)).real.max() for m in matrices]
    got = perron_roots(matrices)
    assert got == want and all(type(r) is float for r in got)
    assert perron_roots([]) == []


def _random_partition(rng, n):
    k = rng.randint(1, min(n, 6))
    labels = list(range(k)) + [rng.randrange(k) for _ in range(n - k)]
    rng.shuffle(labels)
    return [[v for v in range(n) if labels[v] == b] for b in range(k)]


def test_signless_laplacian_and_quotients_match_per_entry_oracles():
    """Seeded random graphs with random, discrete and fixture partitions, and
    random graphs and cycles (even/odd split) at orders 63, 64, 65, 130 and
    256, around the byte boundaries of the adjacency rows."""
    rng = random.Random(808)
    cases = []
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 12), rng.choice((0.2, 0.5, 0.8)))
        cases += [(g, _random_partition(rng, g.n)), (g, [[v] for v in range(g.n)])]
    for fx in FIXTURES:
        for n, s, g in fixture_graphs(fx, 7, 12):
            blocks = [list(b) for b in fx.partition(n, s)]
            cases.append((g, blocks))
            if len(blocks) > 1 and len(blocks[0]) > 1:
                blocks[1].append(blocks[0].pop())  # usually no longer equitable
                cases.append((g, blocks))
    for n in (63, 64, 65, 130, 256):
        g = random_graph(rng, n, 0.3)
        cases += [(g, _random_partition(rng, n)), (g, _random_partition(rng, n))]
        cases.append((cycle(n), [list(range(0, n, 2)), list(range(1, n, 2))]))
    equitable = 0
    for g, blocks in cases:
        q = signless_laplacian(g)
        assert q.dtype == np.int64 and np.array_equal(q, oracle_signless_laplacian(g))
        qm = quotient_matrix(g, blocks)
        entries, oracle_equitable = oracle_quotient_matrix(g, blocks)
        assert (qm is not None) == oracle_equitable, (g, blocks)
        if qm is not None:
            assert qm == [list(row) for row in entries], (g, blocks)
            equitable += 1
    assert equitable > 300 and len(cases) - equitable > 150, (equitable, len(cases))


def test_quotient_partition_validation():
    with pytest.raises(Exception):
        quotient_matrix(path(3), [[0, 1]])
    with pytest.raises(Exception):
        quotient_matrix(path(3), [[0, 1], [1, 2]])


def test_charpoly_examples():
    ident = charpoly_int_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert ident.coeffs == (-1, 3, -3, 1)  # (x-1)^3
    b = quotient_matrix(k11n2_plus(7).graph, [[0, 1], [2, 3], [4, 5, 6]])
    p = charpoly_int_matrix(b)
    assert p.coeffs == (-24, 40, -13, 1)
    assert str(p) == "x^3 - 13x^2 + 40x - 24"


def test_charpoly_int_matrix_matches_nested_list_oracle():
    rng = random.Random(4242)
    for _ in range(500):
        m = rng.randint(1, 10)
        bound = rng.choice((1, 9, 10**6, 10**12))
        rows = [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(m)]
        assert charpoly_int_matrix(rows) == oracle_charpoly_int_matrix(rows)
    templates = []
    for n in range(7, 23):
        templates.append(threshold_quotient_template(n))
        for fx in FIXTURES:
            templates.extend(quotient_template(fx.item, n, s)
                             for _, s in template_keys(fx, n, n))
    for rows in templates:
        assert charpoly_int_matrix(rows) == oracle_charpoly_int_matrix(rows)
    assert charpoly_int_matrix([]) == oracle_charpoly_int_matrix([])
    for bad in ([[1, 2]], [[1, 2], [3]], [[1], [2]]):
        with pytest.raises(ValueError):
            charpoly_int_matrix(bad)


def _largest_int64_row_sum(m):
    """The largest B with m 2^(m+1) B^m < 2^63: the int64 guard's edge."""
    def fits(b):
        return m * 2 ** (m + 1) * b**m < 2**63

    b = int((2**63 / (m * 2 ** (m + 1))) ** (1 / m))
    while not fits(b):
        b -= 1
    while fits(b + 1):
        b += 1
    return b


def _matrix_with_row_sums(rng, m, b):
    """An m x m integer matrix, signs mixed, whose every row has absolute
    sum exactly b."""
    rows = []
    for _ in range(m):
        cuts = sorted(rng.randint(0, b) for _ in range(m - 1))
        parts = [hi - lo for lo, hi in zip([0] + cuts, cuts + [b])]
        rows.append([rng.choice((-1, 1)) * x for x in parts])
    return rows


def test_charpoly_int_matrices_match_the_oracle_in_shuffled_batches(monkeypatch):
    dtypes = []
    run = spectral._faddeev_leverrier
    monkeypatch.setattr(
        spectral, "_faddeev_leverrier", lambda A: dtypes.append((A.shape[1], A.dtype)) or run(A)
    )
    assert charpoly_int_matrices([]) == [] and dtypes == []
    rng = random.Random(4243)
    for _ in range(40):
        batch = [[]]
        for _ in range(rng.randint(1, 30)):
            m = rng.randint(0, 10)
            bound = rng.choice((1, 9, 22, 10**6, 10**12))
            batch.append([[rng.randint(-bound, bound) for _ in range(m)] for _ in range(m)])
        rng.shuffle(batch)
        dtypes.clear()
        assert charpoly_int_matrices(batch) == [oracle_charpoly_int_matrix(r) for r in batch]
        # one recurrence per matrix size
        assert sorted(m for m, _ in dtypes) == sorted({len(r) for r in batch})
    # entries up to 10^12 overflow int64 products: those groups run on
    # Python ints, while a group of small entries stays in int64
    for m in range(2, 11):
        big = [[rng.randint(-(10**12), 10**12) for _ in range(m)] for _ in range(m)]
        small = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
        for rows, want in ((big, object), (small, np.int64)):
            dtypes.clear()
            assert charpoly_int_matrices([rows]) == [oracle_charpoly_int_matrix(rows)]
            assert dtypes == [(m, np.dtype(want))], (m, dtypes)
    # just under the guard the group runs in int64 and is still exact; one
    # more in the row sum, and it runs on Python ints
    for m in range(1, 9):
        edge = _largest_int64_row_sum(m)
        for b, want in ((edge, np.int64), (edge + 1, object)):
            batch = [_matrix_with_row_sums(rng, m, b) for _ in range(3)]
            batch.append([[b if j == (i + 1) % m else 0 for j in range(m)] for i in range(m)])
            dtypes.clear()
            assert charpoly_int_matrices(batch) == [oracle_charpoly_int_matrix(r) for r in batch]
            assert dtypes == [(m, np.dtype(want))], (m, b, dtypes)


def test_charpoly_int_matrices_reject_non_square_and_non_integer_members():
    good = [[2, 1], [1, 2]]
    for bad in ([[1, 2]], [[1, 2], [3]], [[1], [2]]):
        with pytest.raises(ValueError):
            charpoly_int_matrices([good, bad])
    # a float or a Fraction entry is refused, never truncated
    for entry in (1.5, Fraction(3, 2), Fraction(2), 2.0, np.float64(2.0)):
        with pytest.raises(ValueError):
            charpoly_int_matrix([[entry]])
        with pytest.raises(ValueError):
            charpoly_int_matrices([good, [[1, entry], [entry, 1]]])
    # ints, bools and numpy integers are integers
    want = oracle_charpoly_int_matrix(good)
    assert charpoly_int_matrix([[True, 1], [np.int64(1), np.uint8(2)]]) == \
        oracle_charpoly_int_matrix([[1, 1], [1, 2]])
    assert charpoly_int_matrix(np.array(good)) == want
    assert charpoly_int_matrices([np.array(good, dtype=np.int32), good]) == [want, want]


def test_charpoly_int_matrices_keep_entries_an_int64_stack_cannot_hold_exact():
    # a group whose entries reach 2^62/m, or that numpy stacks as uint64 or
    # as float64 (2^63 beside a negative entry), goes entry by entry on
    # Python ints; just below 2^62/m the group is summed in int64
    for m in (1, 2, 3, 5):
        edge = -(-(2**62) // m)  # the least |entry| sent entry by entry
        for x in (edge - 1, edge, -edge, 2**63 - 1, 2**63, -(2**63), 2**64 + 1):
            rows = [[x if i == j else (-1) ** (i + j) for j in range(m)] for i in range(m)]
            assert charpoly_int_matrices([rows]) == [oracle_charpoly_int_matrix(rows)], (m, x)
    big = np.array([[2**64 - 1, 1], [1, 0]], dtype=np.uint64)
    assert charpoly_int_matrix(big) == oracle_charpoly_int_matrix([[2**64 - 1, 1], [1, 0]])
    identity = oracle_charpoly_int_matrix([[1, 0], [0, 1]])
    assert charpoly_int_matrix(np.eye(2, dtype=bool)) == identity


def test_charpoly_matches_numpy_roots():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(2, 7)
        g = random_graph(rng, n)
        p = charpoly_graph(g)
        roots = np.roots(list(reversed(p.coeffs)))
        assert max(roots.real) == pytest.approx(oracle_q(g), abs=1e-8)


def test_q_exact_compare_examples():
    assert q_exact_compare(complete(4), complete(4)) == EQUAL
    assert q_exact_compare(k11n2_plus(6).graph, k1_join_k4_union_k1().graph) == LESS
    assert q_exact_compare(cycle(5), cycle(7)) == EQUAL
    assert q_exact_compare(complete(5), complete(4)) == GREATER


def _count_polynomials(monkeypatch):
    """Record the rows of every characteristic polynomial spectral builds."""
    built = []
    monkeypatch.setattr(spectral, "charpoly_int_matrix",
                        lambda rows: built.append(rows) or charpoly_int_matrix(rows))
    return built


def test_q_exact_compare_of_a_graph_with_itself_builds_no_polynomial(monkeypatch):
    # equal rows mean the same Q, hence the same index; an equal graph built
    # apart is settled as the very same object is
    built = _count_polynomials(monkeypatch)
    g = extremal_graph(7).graph
    assert q_exact_compare(g, g) == EQUAL
    assert q_exact_compare(g, make_graph(7, g.edges())) == EQUAL
    assert built == []


def test_q_exact_compare_of_a_relabelled_copy_goes_through_the_polynomials(monkeypatch):
    built = _count_polynomials(monkeypatch)
    g = extremal_graph(7).graph
    perm = (3, 6, 0, 5, 1, 4, 2)
    copy = make_graph(7, [(perm[u], perm[v]) for u, v in g.edges()])
    assert copy != g
    assert q_exact_compare(g, copy) == q_exact_compare(copy, g) == EQUAL
    assert len(built) == 4


def test_q_index_agrees_with_exact_roots():
    """Numeric index sits within 1e-9 of the exact largest eigenvalue: the
    only root of the squarefree characteristic polynomial above q - 1e-9 lies
    inside (q - 1e-9, q + 1e-9)."""
    rng = random.Random(2024)
    trials = 10**4
    for _ in range(trials):
        n = rng.randint(2, 7)
        g = random_graph(rng, n, rng.choice((0.3, 0.5, 0.8)))
        if not is_connected(g):
            continue
        qv = q_index(g).q
        sf = polynomials._squarefree_chain(charpoly_graph(g))[0]
        lo = Fraction(round((qv - 1e-9) * 10**12), 10**12)
        hi = Fraction(round((qv + 1e-9) * 10**12), 10**12)
        if sf(lo) == 0 or sf(hi) == 0:  # endpoint collision: widen a notch
            lo -= Fraction(1, 10**13)
            hi += Fraction(1, 10**13)
        assert count_roots_above(sf, hi) == 0
        assert count_roots_in_interval(sf, lo, hi) == 1


def test_eta_bounds_q_on_random_graphs():
    rng = random.Random(31)
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 10), rng.choice((0.4, 0.7)))
        if g.min_degree == 0:
            continue
        assert q_index(g).q <= float(max_eta(g)) + 1e-10
    for g in (cycle(8), complete(6), complete_multipartite(2, 5)):
        assert q_index(g).q == pytest.approx(float(max_eta(g)), abs=1e-9)


def _eta_slack(g, v):
    """d (n + 2 e(N(v)) / d - eta(v)) from the counts the property suite
    reads: the counting form of the eta bound holds at v when it is not
    negative."""
    d, degree_sum, twice_inner = spectral._eta_counts(g, v)
    return g.n * d + twice_inner - d * d - degree_sum


def test_integer_eta_matches_the_fraction_route():
    # eta and max_eta compare integer terms and build one Fraction; the
    # property suite's counting form of the bound is an integer slack
    rng = random.Random(303)
    for _ in range(300):
        g = random_graph(rng, rng.randint(2, 10), rng.choice((0.2, 0.4, 0.6, 0.8)))
        if g.min_degree == 0:
            continue
        etas = []
        for v in range(g.n):
            d = g.degree(v)
            want = Fraction(d) + Fraction(sum(g.degree(u) for u in g.neighbors(v)), d)
            assert eta(g, v) == want
            etas.append(want)
            nb = g.neighbors(v)
            inner = sum(1 for i in nb for j in nb if i < j and g.has_edge(i, j))
            assert Fraction(_eta_slack(g, v), d) == g.n + Fraction(2 * inner, d) - want
        assert max_eta(g) == max(etas)
    # the slack is 0 exactly when the bound is tight, as on cliques
    assert all(_eta_slack(complete(5), v) == 0 for v in range(5))


def test_eta_check_matches_the_fraction_route(monkeypatch):
    # the property suite's one-walk eta check against max_eta and a slack
    # taken from the adjacency relation, at the float index and on both
    # sides of the bound's float edge
    rng = random.Random(304)
    cases = [complete(5), cycle(7), complete_multipartite(2, 5)]
    while len(cases) < 300:
        g = random_graph(rng, rng.randint(2, 10), rng.choice((0.2, 0.4, 0.6, 0.8)))
        if g.min_degree > 0:
            cases.append(g)
    flagged = 0
    for g in cases:
        slack_ok = True
        for v in range(g.n):
            nb = g.neighbors(v)
            inner = sum(1 for i in nb for j in nb if i < j and g.has_edge(i, j))
            num = g.degree(v) ** 2 + sum(g.degree(u) for u in nb)
            slack_ok &= g.n * g.degree(v) + 2 * inner >= num
        edge = float(max_eta(g)) + 1e-10
        for q in (q_index(g).q, edge, np.nextafter(edge, 0), np.nextafter(edge, np.inf)):
            want = q > float(max_eta(g)) + 1e-10 or not slack_ok
            assert _eta_violated(g, float(q)) == want, (g, q)
            flagged += want
    assert flagged == len(cases)  # only the step above the edge breaks the bound
    # a vertex that breaks the counting form is a violation at any index:
    # mutations of the one eta rule, which the twin kernel calls
    monkeypatch.setattr(kernels, "eta_check", _sweep_py.eta_check)
    g = cycle(5)
    monkeypatch.setattr(spectral, "_eta_counts", lambda g, v: (1, g.n, 0))
    assert _eta_violated(g, 0.0)
    monkeypatch.setattr(spectral, "_eta_counts", lambda g, v: (1, g.n - 1, 0))
    assert not _eta_violated(g, float(g.n)) and _eta_violated(g, g.n + 1e-9)


def test_mask_batch_matches_per_graph_routines():
    """MaskBatch against graph_from_mask, signless_laplacian and q_index:
    every mask at orders 1..5, and 2,000 seeded masks at orders 6, 7 and 8
    drawn at edge densities 0.15, 0.5 and 0.85."""
    rng = random.Random(606)
    cases = [(n, range(1 << n * (n - 1) // 2)) for n in range(1, 6)]
    for n in (6, 7, 8):
        nbits = n * (n - 1) // 2
        masks = []
        for _ in range(2000):
            p = rng.choice((0.15, 0.5, 0.85))
            masks.append(sum(1 << b for b in range(nbits) if rng.random() < p))
        cases.append((n, masks))
    isolated = disconnected = 0
    for n, masks in cases:
        batch = MaskBatch.of(n, masks)
        assert batch.masks.tolist() == list(masks)
        esums = batch.max_edge_degree_sums()
        stacked = batch.signless_laplacians()
        top = batch.top_eigenvalues()
        for r, mask in enumerate(masks):
            g = graph_from_mask(n, mask)
            degs = g.degrees()
            isolated += min(degs) == 0
            disconnected += not is_connected(g)
            assert tuple(batch.degrees[r].tolist()) == degs
            assert esums[r] == max((degs[u] + degs[v] for u, v in g.edges()), default=0)
            assert np.array_equal(stacked[r], signless_laplacian(g))
            assert abs(top[r] - q_index(g).q) <= 1e-12
        keep = np.arange(len(masks)) % 3 == 1
        part = batch[keep]
        assert part.masks.tolist() == batch.masks[keep].tolist()
        assert np.array_equal(part.bits, batch.bits[keep])
        assert np.array_equal(part.degrees, batch.degrees[keep])
    assert isolated > 1000 and disconnected > 1000


def test_q_index_texts_round_the_atlas_indices_near_a_midpoint_exactly(monkeypatch):
    # the atlas graphs whose float index lies within 0.05 of a unit in the
    # 12th decimal of a rounding midpoint, where a float's rounding can go
    # either way: each printed index is the exact largest root of the
    # oracle's characteristic polynomial rounded, on the enclosure route and
    # on the characteristic polynomial route alike
    nx = pytest.importorskip("networkx")
    graphs = [make_graph(a.number_of_nodes(), list(a.edges()))
              for a in nx.graph_atlas_g() if a.number_of_nodes()]
    floats = q_indices(graphs)
    near = [t for t, q in enumerate(floats) if abs((q * 10**12) % 1 - 0.5) < 0.05]
    assert len(near) >= 20
    expected = []
    for t in near:
        q = oracle_charpoly_int_matrix(oracle_signless_laplacian(graphs[t]).tolist())
        k = oracle_round_largest_root(q, 12)
        expected.append(f"{k // 10**12}.{k % 10**12:012d}")
    exact_calls = []
    monkeypatch.setattr(spectral, "round_largest_root",
                        lambda *a: exact_calls.append(a) or polynomials.round_largest_root(*a))
    texts = q_index_texts(graphs)
    assert exact_calls == []  # the refined enclosure settles the whole atlas
    assert [texts[t] for t in near] == expected
    # and every atlas index the float rounds unambiguously prints as before
    for g, q, text in zip(graphs, floats, texts):
        if abs((q * 10**12) % 1 - 0.5) > 0.05:
            assert text == f"{q:.12f}", graph6_encode(g)
    monkeypatch.setattr(spectral, "_enclosed_rounding", lambda *a: None)
    assert q_index_texts([graphs[t] for t in near]) == expected
    assert len(exact_calls) >= len(near)


def test_q_index_texts_settle_large_graphs_without_the_polynomial(monkeypatch):
    # orders whose characteristic polynomial takes seconds: the refined
    # enclosure settles each index, within a unit of the float, and a
    # disconnected graph prints its largest component's index
    def no_polynomial(*args):
        raise AssertionError("characteristic polynomial route taken")

    monkeypatch.setattr(spectral, "round_largest_root", no_polynomial)
    rng = random.Random(20261020)
    graphs = [random_graph(rng, n, p) for n, p in
              ((60, 0.5), (120, 0.05), (120, 0.5), (256, 0.02), (256, 0.9))]
    texts = q_index_texts(graphs)
    for q, text in zip(q_indices(graphs), texts):
        assert abs(Fraction(text) - Fraction(q)) <= Fraction(1, 10**11)
    small = random_graph(rng, 30, 0.3)
    pair = [disjoint_union(small, graphs[0]), disjoint_union(graphs[0], small)]
    assert q_index_texts(pair) == [texts[0]] * 2
    sparse = [make_graph(5, [(3, 4)]), make_graph(3)]
    assert q_index_texts(sparse) == ["2.000000000000", "0.000000000000"]
