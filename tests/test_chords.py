import random

from chordspec.chords import (
    Certificate,
    find_chorded_cycle,
    find_k_chords_at_apex,
    longest_cycle,
    verify_certificate,
)
from chordspec.families import (
    c4_plus,
    complete,
    cycle,
    double_star,
    k1_join_k4_union_k1,
    k11n2_plus,
    path,
    star,
)
from chordspec.graphs import graph_from_mask, join, make_graph
from oracles import (
    cycles_by_dfs,
    cycles_by_permutation,
    oracle_apex_chords,
    oracle_chorded,
    oracle_longest_cycle_length,
)


def random_graph(rng, n, p=0.5):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return make_graph(n, edges)


def test_oracle_cycle_enumerators_agree():
    rng = random.Random(17)
    for _ in range(120):
        g = random_graph(rng, rng.randint(3, 6), rng.choice((0.3, 0.5, 0.8)))
        assert set(cycles_by_dfs(g)) == cycles_by_permutation(g)
    assert set(cycles_by_dfs(complete(5))) == cycles_by_permutation(complete(5))


def test_apex_search_fixed_cases():
    assert find_k_chords_at_apex(complete(5), 3) is None
    cert = find_k_chords_at_apex(complete(6), 3)
    assert cert is not None and cert.apex is not None
    assert verify_certificate(complete(6), cert, 3, True)
    assert find_k_chords_at_apex(k11n2_plus(7).graph, 3) is None
    assert find_k_chords_at_apex(k1_join_k4_union_k1().graph, 3) is None
    hubbed_path = join(make_graph(1), path(5))
    cert = find_k_chords_at_apex(hubbed_path, 3)
    assert cert is not None and cert.apex == 0
    assert verify_certificate(hubbed_path, cert, 3, True)


def test_apex_search_explicit_k6_witness():
    cert = find_k_chords_at_apex(complete(6), 3)
    # deterministic first witness in DFS order
    assert cert.cycle[0] == cert.apex == 0
    assert len(cert.chords) == 3
    assert all(a == 0 for a, _ in cert.chords)


def test_chorded_cycle_fixed_cases():
    got = find_chorded_cycle(c4_plus(), 1)
    assert got is not None and verify_certificate(c4_plus(), got, 1, False)
    assert find_chorded_cycle(complete(4), 3) is None
    two = find_chorded_cycle(complete(4), 2)
    assert two is not None and verify_certificate(complete(4), two, 2, False)


def test_threshold_graph_has_three_chords_but_never_at_one_vertex():
    # the threshold graph carries a 5-cycle through both universal vertices
    # and the inner edge with three chords total (two at each universal
    # vertex), e.g. cycle 0-2-3-1-4 with chords 0-1, 0-3, 1-2; no vertex
    # collects three chords on any cycle. The brute-force oracle agrees.
    g = k11n2_plus(7).graph
    cert = find_chorded_cycle(g, 3)
    assert cert is not None
    assert verify_certificate(g, cert, 3, False)
    assert oracle_chorded(g, 3)
    assert find_k_chords_at_apex(g, 3) is None
    assert not oracle_apex_chords(g, 3)
    # but four chords on one cycle are out of reach
    assert find_chorded_cycle(g, 4) is None


def test_wang_zhai_bridge_on_hubbed_paths():
    for m in range(2, 9):
        g = join(make_graph(1), path(m))
        for k in range(1, 4):
            found = find_k_chords_at_apex(g, k) is not None
            assert found == (m >= k + 2), (m, k)


def test_monotone_in_k():
    rng = random.Random(4)
    for _ in range(200):
        g = random_graph(rng, rng.randint(4, 8))
        for k in (3, 2):
            if find_k_chords_at_apex(g, k) is not None:
                assert find_k_chords_at_apex(g, k - 1) is not None


def test_searchers_sound_on_random_graphs():
    rng = random.Random(12)
    for _ in range(400):
        g = random_graph(rng, rng.randint(3, 9), rng.choice((0.3, 0.5, 0.7)))
        for k in (1, 2, 3):
            cert = find_k_chords_at_apex(g, k)
            if cert is not None:
                assert verify_certificate(g, cert, k, True)
            gen = find_chorded_cycle(g, k)
            if gen is not None:
                assert verify_certificate(g, gen, k, False)


def test_exhaustive_oracle_equivalence_small():
    # every labeled graph on up to five vertices, both detectors
    for n in range(3, 6):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = graph_from_mask(n, mask)
            assert (find_k_chords_at_apex(g, 3) is not None) == \
                oracle_apex_chords(g, 3), (n, mask)
            assert (find_chorded_cycle(g, 3) is not None) == \
                oracle_chorded(g, 3), (n, mask)


def test_verify_certificate_rejects_corruptions():
    g = complete(6)
    cert = find_k_chords_at_apex(g, 3)
    assert verify_certificate(g, cert, 3, True)
    # consecutive pair posed as a chord
    bad = Certificate(cycle=cert.cycle, chords=((0, 1),) + cert.chords[1:], apex=0)
    assert not verify_certificate(g, bad, 3, True)
    # chordless cycle fails any positive requirement
    c5 = cycle(5)
    naked = Certificate(cycle=(0, 1, 2, 3, 4), chords=(), apex=None)
    assert not verify_certificate(c5, naked, 1, False)
    assert verify_certificate(c5, naked, 0, False)
    # broken cycle edge
    torn = Certificate(cycle=(0, 2, 1, 3, 4), chords=(), apex=None)
    assert not verify_certificate(c5, torn, 0, False)
    # duplicated chord
    dup = Certificate(cycle=cert.cycle, chords=(cert.chords[0],) * 3, apex=0)
    assert not verify_certificate(g, dup, 3, True)
    # apex off the cycle
    sub = Certificate(cycle=(1, 2, 3, 4), chords=((1, 3),), apex=0)
    assert not verify_certificate(g, sub, 1, True)


def test_certificate_text_form():
    cert = Certificate(cycle=(0, 1, 2, 3, 4, 5), chords=((0, 2), (0, 3), (0, 4)),
                       apex=0)
    assert cert.to_text() == "cycle=0,1,2,3,4,5;chords=0-2,0-3,0-4;apex=0"
    bare = Certificate(cycle=(0, 1, 2), chords=(), apex=None)
    assert bare.to_text() == "cycle=0,1,2;chords="


def test_longest_cycle():
    for n in (3, 5, 8):
        length, cyc = longest_cycle(cycle(n))
        assert length == n
    assert longest_cycle(star(4)) is None
    assert longest_cycle(path(6)) is None
    length, cyc = longest_cycle(k1_join_k4_union_k1().graph)
    assert length == 5
    rng = random.Random(31)
    for _ in range(150):
        g = random_graph(rng, rng.randint(3, 8), rng.choice((0.3, 0.6)))
        got = longest_cycle(g)
        want = oracle_longest_cycle_length(g)
        assert (got[0] if got else None) == want
        if got:
            length, cyc = got
            assert len(set(cyc)) == length
            assert all(g.has_edge(cyc[i], cyc[(i + 1) % length])
                       for i in range(length))


def test_double_star_is_configuration_free_when_hubbed():
    g = join(make_graph(1), double_star(1, 2))
    assert find_k_chords_at_apex(g, 3) is None
