import math
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordspec import graphs
from chordspec.families import (
    complete,
    complete_multipartite,
    cycle,
    extremal_graph,
    path,
    star,
)
from chordspec.graphs import (
    Graph6Error,
    GraphError,
    apex_partition,
    arrangement_count,
    arrangement_images,
    automorphism_count,
    bits_to_vertices,
    disjoint_union,
    edge_counts,
    graph6_decode,
    graph6_encode,
    graph_from_mask,
    index_pairs,
    is_isomorphic,
    join,
    make_graph,
    mask_of,
)
from chordspec.spectral import q_index
from oracles import (
    edge_index,
    oracle_classify_labeled,
    sorted_mask,
    induced_subgraph,
    mask_from_graph,
    oracle_automorphism_count,
    oracle_graph6_decode,
    oracle_graph6_encode,
    oracle_isomorphic,
)


def random_graph(rng, n, p=0.5):
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return make_graph(n, edges)


def test_make_graph_examples():
    k3 = make_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert k3.edge_count == 3
    empty = make_graph(2, [])
    assert empty.edge_count == 0
    dup = make_graph(4, [(0, 1), (0, 1)])
    assert dup.edge_count == 1  # idempotent duplicates


def test_make_graph_errors():
    with pytest.raises(GraphError):
        make_graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        make_graph(3, [(1, 1)])
    with pytest.raises(GraphError):
        make_graph(0, [])


def test_symmetry_invariants_after_construction():
    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 12))
        for u in range(g.n):
            assert not g.has_edge(u, u)
            for v in g.neighbors(u):
                assert g.has_edge(v, u)
        assert g.edge_count * 2 == sum(g.degrees())


def test_join_examples():
    k1 = make_graph(1)
    k4k1 = disjoint_union(complete(4), make_graph(1))
    j = join(k1, k4k1)
    assert j.n == 6 and j.edge_count == 11
    assert join(k1, k1).edge_count == 1  # K2


@given(st.integers(1, 8), st.integers(1, 8), st.randoms())
@settings(max_examples=60, deadline=None)
def test_join_union_cardinalities(a, b, rnd):
    g = random_graph(rnd, a)
    h = random_graph(rnd, b)
    j = join(g, h)
    u = disjoint_union(g, h)
    assert j.n == u.n == a + b
    assert j.edge_count == g.edge_count + h.edge_count + a * b
    assert u.edge_count == g.edge_count + h.edge_count
    assert u.degrees()[:a] == g.degrees()
    assert u.degrees()[a:] == h.degrees()


def test_union_examples():
    two_k4 = disjoint_union(complete(4), complete(4))
    assert two_k4.n == 8 and two_k4.edge_count == 12
    assert disjoint_union(make_graph(1), make_graph(1)).edge_count == 0
    c4k3 = disjoint_union(cycle(4), complete(3))
    assert c4k3.n == 7 and c4k3.edge_count == 7


def test_component_masks_within_a_vertex_mask():
    # the components of the subgraph induced on `within` are those of the
    # oracle's induced_subgraph, relabelled back to g's vertices, in the
    # same order
    rng = random.Random(17)
    isolated = 0
    for _ in range(400):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.choice((0.1, 0.3, 0.5)))
        within = rng.getrandbits(n)
        kept = [v for v in range(n) if within >> v & 1]
        want = []
        if kept:
            for comp in induced_subgraph(g, kept).component_masks():
                want.append(sum(1 << kept[i] for i in bits_to_vertices(comp)))
        got = g.component_masks(within)
        assert got == want
        isolated += sum(1 for m in got if m.bit_count() == 1)
        assert g.component_masks(0) == []
        assert g.component_masks(None) == g.component_masks()
        assert g.component_masks((1 << n) - 1) == g.component_masks()
    assert isolated > 100


def test_edge_counts():
    k4 = complete(4)
    assert edge_counts(k4, range(4), range(4)) == 6
    k33 = complete_multipartite(3, 3)
    assert edge_counts(k33, [0, 1, 2], [3, 4, 5]) == 9
    c6 = cycle(6)
    assert edge_counts(c6, [0, 1, 2], [3, 4, 5]) == 2
    with pytest.raises(GraphError):
        edge_counts(k4, [0, 1], [1, 2])


def test_apex_partition_examples():
    from chordspec.families import k11n2_plus

    g = k11n2_plus(6).graph
    z0, zplus, w = apex_partition(g, 0)
    assert not w
    assert (z0 | zplus).bit_count() == 5
    # the second universal vertex sits inside Z and touches everything there,
    # so no neighbor of the apex is isolated within Z
    assert z0 == 0
    assert zplus == g.rows[0]

    # a single hub over (edge + two isolated) does leave two vertices
    # isolated inside the neighborhood
    hub = join(make_graph(1), make_graph(4, [(0, 1)]))
    z0, zplus, w = apex_partition(hub, 0)
    assert not w and (z0 | zplus).bit_count() == 4 and z0.bit_count() == 2
    assert z0 == 0b11000 and zplus == 0b00110

    s = star(4)
    z0, zplus, w = apex_partition(s, 0)
    assert not w and z0 == s.rows[0] and not zplus

    c5 = cycle(5)
    z0, zplus, w = apex_partition(c5, 0)
    assert (z0 | zplus).bit_count() == 2 and w.bit_count() == 2 and z0 == c5.rows[0]
    with pytest.raises(GraphError):
        apex_partition(c5, 5)


def test_apex_partition_partitions_vertices():
    rng = random.Random(5)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 10))
        z = rng.randrange(g.n)
        z0, zplus, w = apex_partition(g, z)
        nbhd = g.rows[z]
        assert nbhd | w | 1 << z == (1 << g.n) - 1
        assert not (nbhd | 1 << z) & w
        assert z0 | zplus == nbhd
        assert not z0 & zplus
        for v in range(g.n):
            if z0 >> v & 1:
                assert not g.rows[v] & nbhd
            if zplus >> v & 1:
                assert g.rows[v] & nbhd


def test_is_isomorphic_examples():
    assert is_isomorphic(cycle(4), complete_multipartite(2, 2))
    assert not is_isomorphic(star(3), path(4))
    from chordspec.families import k11n2_plus

    built = join(make_graph(2, [(0, 1)]), make_graph(4, [(0, 1)]))
    assert is_isomorphic(built, k11n2_plus(6).graph)
    # regular graphs, which colour refinement cannot split: only the
    # backtracking, one vertex per image, tells them apart
    assert not is_isomorphic(cycle(6), disjoint_union(cycle(3), cycle(3)))
    assert not is_isomorphic(cycle(8), disjoint_union(cycle(4), cycle(4)))


def test_is_isomorphic_against_bruteforce():
    rng = random.Random(99)
    agree = 0
    for _ in range(1000):
        n = rng.randint(1, 6)
        g = random_graph(rng, n, rng.choice((0.3, 0.5, 0.7)))
        if rng.random() < 0.5:
            perm = list(range(n))
            rng.shuffle(perm)
            h = make_graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
        else:
            h = random_graph(rng, n, rng.choice((0.3, 0.5, 0.7)))
        assert is_isomorphic(g, h) == oracle_isomorphic(g, h)
        agree += 1
    assert agree == 1000


def test_is_isomorphic_searches_only_distinct_graphs(monkeypatch):
    # a graph and an equal one are isomorphic by the identity, with no
    # search; a relabelled copy and a graph of the same degrees are still
    # searched, and agree with the brute-force oracle
    searched = []
    search = graphs._isomorphisms
    monkeypatch.setattr(graphs, "_isomorphisms",
                        lambda g, h: searched.append((g, h)) or search(g, h))
    g = extremal_graph(7).graph
    assert is_isomorphic(g, g) and is_isomorphic(g, make_graph(7, g.edges()))
    assert searched == []
    perm = (3, 6, 0, 5, 1, 4, 2)
    copy = make_graph(7, [(perm[u], perm[v]) for u, v in g.edges()])
    assert copy != g
    assert is_isomorphic(g, copy) and oracle_isomorphic(g, copy)
    assert searched == [(g, copy)]
    c6, two_triangles = cycle(6), disjoint_union(cycle(3), cycle(3))
    assert not is_isomorphic(c6, two_triangles) and not oracle_isomorphic(c6, two_triangles)
    assert searched == [(g, copy), (c6, two_triangles)]


def _mask_orbit(n, mask):
    """Every relabelling of the order-n edge mask, as a set of masks."""
    edges = [pair for b, pair in enumerate(index_pairs(n)) if mask >> b & 1]
    return {
        sum(1 << edge_index(perm[i], perm[j]) for i, j in edges)
        for perm in permutations(range(n))
    }


def test_automorphism_count_on_every_graph_to_order_6():
    # every labeled graph up to order 5 against the brute-force count
    for n in range(1, 6):
        for mask in range(1 << n * (n - 1) // 2):
            g = graph_from_mask(n, mask)
            assert automorphism_count(g) == oracle_automorphism_count(g), (n, mask)
    # order 6, one isomorphism class at a time: the least mask of the class
    # and a relabelled copy, both against the brute force count and the
    # orbit-stabiliser count 6!/|orbit|
    rng = random.Random(6)
    seen = set()
    classes = 0
    for mask in range(1 << 15):
        if mask in seen:
            continue
        orbit = _mask_orbit(6, mask)
        seen |= orbit
        classes += 1
        want = math.factorial(6) // len(orbit)
        for m in (mask, rng.choice(sorted(orbit))):
            g = graph_from_mask(6, m)
            assert automorphism_count(g) == oracle_automorphism_count(g) == want, m
    assert classes == 156 and len(seen) == 1 << 15


def test_automorphism_count_on_seeded_graphs_and_threshold_orbits():
    rng = random.Random(78)
    for n, count in ((7, 12), (8, 3)):
        for _ in range(count):
            g = random_graph(rng, n, rng.choice((0.3, 0.5, 0.7)))
            assert automorphism_count(g) == oracle_automorphism_count(g)
    # groups known in closed form: S3 x S4 and the dihedral group of order 16
    assert automorphism_count(complete_multipartite(3, 4)) == 6 * 24
    assert automorphism_count(cycle(8)) == 16
    for n, orbit in ((6, 30), (7, 210), (8, 420)):
        assert math.factorial(n) // automorphism_count(extremal_graph(n).graph) == orbit


def test_graph6_fixed_examples():
    assert graph6_encode(complete(3)) == "Bw"
    assert graph6_encode(path(3)) == "Bg"
    assert graph6_decode("Bw") == complete(3)
    assert graph6_decode(">>graph6<<Bw") == complete(3)


@given(st.integers(1, 20), st.randoms())
@settings(max_examples=200, deadline=None)
def test_graph6_roundtrip(n, rnd):
    g = random_graph(rnd, n)
    assert graph6_decode(graph6_encode(g)) == g


def test_graph6_roundtrip_thousand_random():
    rng = random.Random(2468)
    for _ in range(1000):
        g = random_graph(rng, rng.randint(1, 20), rng.choice((0.2, 0.5, 0.8)))
        assert graph6_decode(graph6_encode(g)) == g


def test_graph6_long_form_roundtrip():
    rng = random.Random(3)
    g = random_graph(rng, 70, 0.1)
    s = graph6_encode(g)
    assert s.startswith("~")
    assert graph6_decode(s) == g
    # boundary: 62 is the last short-header order, 63 the first long one
    g62 = random_graph(rng, 62, 0.05)
    assert not graph6_encode(g62).startswith("~")
    assert graph6_decode(graph6_encode(g62)) == g62
    g63 = random_graph(rng, 63, 0.05)
    assert graph6_encode(g63).startswith("~")
    assert graph6_decode(graph6_encode(g63)) == g63


def test_graph6_matches_the_bitwise_codec():
    # every labeled graph to order 6, then seeded graphs around the one-word
    # order, the short/long header boundary and the order cap
    for n in range(1, 7):
        for mask in range(1 << n * (n - 1) // 2):
            g = graph_from_mask(n, mask)
            text = graph6_encode(g)
            assert text == oracle_graph6_encode(g), (n, mask)
            assert graph6_decode(text) == g
    rng = random.Random(20261018)
    for n in (7, 30, 62, 63, 256):
        for p in (0.0, 0.1, 0.5, 1.0):
            g = random_graph(rng, n, p)
            text = graph6_encode(g)
            assert text == oracle_graph6_encode(g), (n, p)
            assert graph6_decode(text) == oracle_graph6_decode(text) == g


def _graph6_of_edge_mask(g):
    """graph6 text packed slot by slot from the edge-list bitmask
    (oracles.mask_from_graph), each character's first slot its high bit."""
    n, mask = g.n, mask_from_graph(g)
    head = chr(63 + n) if n <= 62 else "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    chars = []
    for k in range(0, n * (n - 1) // 2, 6):
        value = 0
        for b in range(k, k + 6):
            value = value << 1 | mask >> b & 1
        chars.append(chr(63 + value))
    return head + "".join(chars)


def test_graph6_reads_the_mask_off_the_rows():
    # mask_of reads the rows, not the edge slots one by one: every labeled
    # graph to order 6, a seeded graph of every order up to the last short
    # header, and one past it
    for n in range(1, 7):
        for mask in range(1 << n * (n - 1) // 2):
            g = graph_from_mask(n, mask)
            assert mask_of(g) == mask_from_graph(g) == mask
            assert graph6_encode(g) == _graph6_of_edge_mask(g), (n, mask)
    rng = random.Random(20261019)
    for n in [*range(7, 63), 100]:
        g = random_graph(rng, n, rng.choice((0.1, 0.5, 0.9)))
        assert mask_of(g) == mask_from_graph(g)
        assert graph6_encode(g) == _graph6_of_edge_mask(g), n
    assert graph6_encode(g).startswith("~")


def test_index_pairs_is_one_table_per_order():
    assert index_pairs(4) == ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))
    assert index_pairs(7) is index_pairs(7)
    assert all(b == edge_index(i, j) for b, (i, j) in enumerate(index_pairs(12)))


def test_graph_from_mask_refuses_bits_past_its_slots():
    for n in range(1, 9):
        nbits = n * (n - 1) // 2
        assert graph_from_mask(n, (1 << nbits) - 1).edge_count == nbits
        for bad in (1 << nbits, 1 << nbits + 5 | 1, -1):
            with pytest.raises(GraphError):
                graph_from_mask(n, bad)


def test_graph6_malformed():
    with pytest.raises(Graph6Error):
        graph6_decode("")
    with pytest.raises(Graph6Error):
        graph6_decode("B")  # truncated body
    with pytest.raises(Graph6Error):
        graph6_decode("Bww")  # trailing junk
    with pytest.raises(Graph6Error):
        graph6_decode("B\x1f")  # byte below 63
    # nonzero padding bits: n=3 has 3 data bits, pad must be zero
    bad = chr(63 + 3) + chr(63 + 0b111111)
    with pytest.raises(Graph6Error):
        graph6_decode(bad)


def test_mask_conversions_roundtrip():
    rng = random.Random(1)
    for _ in range(100):
        n = rng.randint(1, 10)
        nbits = n * (n - 1) // 2
        mask = rng.randrange(1 << nbits)
        g = graph_from_mask(n, mask)
        assert mask_from_graph(g) == mask_of(g) == mask


def test_arrangement_images_of_the_order_6_threshold_graph():
    # K5 plus a pendant edge, mask 2047, degrees (5, 4, 4, 4, 4, 1): its
    # images are 6! / (1! 4! 1!) = 30 distinct labeled graphs, each a copy of
    # it, and exactly the 30 masks the plain labeled pass leaves at order 6
    # with the theorem's cuts
    g = graph_from_mask(6, 2047)
    ext = extremal_graph(6).graph
    assert g.degrees() == (5, 4, 4, 4, 4, 1) and is_isomorphic(g, ext)
    images = arrangement_images(g)
    assert arrangement_count(g.degrees()) == len(images) == 30
    assert len(set(images)) == 30 and g in images
    assert all(oracle_isomorphic(h, g) for h in images)
    q = q_index(ext).q
    _, _, rest = oracle_classify_labeled(6, 0, 1 << 15, q - 1e-8, q + 1e-8,
                                         ("apex_has_config", 3))
    assert sorted(mask_of(h) for h in images) == rest


def test_arrangement_images_partition_the_labeled_graphs():
    # over every degree-sorted graph of orders 1..5 (isolated vertices
    # allowed), the images number the weights, are copies of their graph
    # with its degrees rearranged, and together are every labeled graph once;
    # a regular graph is its only image
    for n in range(1, 6):
        masks = range(1 << n * (n - 1) // 2)
        sorted_masks = [m for m in masks if sorted_mask(n, m) == m]
        seen = []
        for m in sorted_masks:
            g = graph_from_mask(n, m)
            images = arrangement_images(g)
            assert len(images) == arrangement_count(g.degrees())
            for h in images:
                assert sorted(h.degrees()) == sorted(g.degrees()) and is_isomorphic(h, g)
                assert sorted_mask(n, mask_of(h)) == m
            seen += [mask_of(h) for h in images]
        assert sorted(seen) == list(masks)
    assert arrangement_images(cycle(5)) == [cycle(5)]
    assert arrangement_count((2,) * 5) == 1 and arrangement_count((3, 1, 1, 1)) == 4
    assert arrangement_count(()) == 1
