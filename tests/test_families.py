import hashlib
import re

import pytest

from chordspec.families import (
    BuiltFamily,
    FamilyError,
    build_family,
    c4_plus,
    complete,
    complete_multipartite,
    cycle,
    double_star,
    extremal_graph,
    family_names,
    g_graph,
    k1_join_k1_k4s,
    k1_join_k2_k4s,
    k1_join_k4_union_k1,
    k1_join_k4s,
    k1_join_star_plus_k4s,
    k11n2_plus,
    path,
    star,
    star_plus,
    u_graph,
)
from chordspec import families
from chordspec.graphs import graph6_encode, is_isomorphic, join, make_graph

# hand-derived (order, size, sorted degree sequence) for the seed graphs
SEED_TABLE = {
    1: (6, 12, (4, 4, 4, 4, 4, 4)),
    2: (6, 11, (4, 4, 4, 4, 4, 2)),
    3: (7, 13, (5, 4, 4, 4, 4, 4, 1)),
    4: (7, 12, (5, 4, 4, 4, 4, 2, 1)),
    5: (9, 18, (7, 4, 4, 4, 4, 4, 3, 3, 3)),
    6: (9, 17, (7, 4, 4, 4, 4, 3, 3, 3, 2)),
    7: (8, 15, (6, 4, 4, 4, 3, 3, 3, 3)),
    8: (6, 11, (4, 4, 4, 4, 4, 2)),
    9: (6, 11, (4, 4, 4, 4, 3, 3)),
    10: (7, 13, (5, 5, 4, 4, 3, 3, 2)),
    11: (8, 15, (6, 6, 4, 4, 3, 3, 2, 2)),
}


def test_seed_fixture_table():
    for i, (n, e, degs) in SEED_TABLE.items():
        g = u_graph(i).graph
        assert g.n == n
        assert g.edge_count == e
        assert tuple(sorted(g.degrees(), reverse=True)) == degs
        # hub and outside vertex are never adjacent in a seed
        assert not g.has_edge(0, 1)


def test_u12_structure():
    built = u_graph(12, s=4)
    g = built.graph
    assert g.n == 7 and g.edge_count == 13
    assert g.degree(0) == 5  # hub: center plus every leaf
    assert g.degree(1) == 4  # outside vertex: every leaf
    assert g.degree(2) == 5  # center: hub plus every leaf
    assert all(g.degree(v) == 3 for v in range(3, 7))
    with pytest.raises(FamilyError):
        u_graph(12)
    with pytest.raises(FamilyError):
        u_graph(12, s=2)


def test_classic_families():
    assert complete(4).edge_count == 6
    assert path(5).edge_count == 4
    assert cycle(5).edge_count == 5
    assert star(4).degrees() == (4, 1, 1, 1, 1)
    assert is_isomorphic(star_plus(2), complete(3))
    s = double_star(2, 3)
    assert s.n == 7 and s.edge_count == 6
    assert sorted(s.degrees(), reverse=True) == [4, 3, 1, 1, 1, 1, 1]
    assert c4_plus().edge_count == 5
    assert complete_multipartite(2, 2, 2).edge_count == 12


def test_k11n2_plus():
    built = k11n2_plus(6)
    g = built.graph
    assert g.n == 6 and g.edge_count == 10
    assert tuple(sorted(g.degrees(), reverse=True)) == (5, 5, 3, 3, 2, 2)
    direct = join(make_graph(2, [(0, 1)]), make_graph(4, [(0, 1)]))
    assert is_isomorphic(direct, g)


def test_extremal_graphs():
    e6 = extremal_graph(6)
    assert is_isomorphic(e6.graph, k1_join_k4_union_k1().graph)
    e9 = extremal_graph(9)
    assert is_isomorphic(e9.graph, k11n2_plus(9).graph)


@pytest.mark.parametrize("i", range(1, 12))
def test_g_graphs_grow_by_quads(i):
    base = u_graph(i).graph.n
    for packs in (0, 1, 2):
        n = base + 4 * packs
        if n < 7:
            continue
        built = g_graph(i, n)
        g = built.graph
        assert g.n == n
        # the hub reaches everything except the outside vertex
        assert g.degree(0) == n - 2
        assert not g.has_edge(0, 1)
        seed_e = SEED_TABLE[i][1]
        assert g.edge_count == seed_e + packs * 10  # 6 quad edges + 4 spokes


def test_g_graph_parameter_validation():
    with pytest.raises(FamilyError):
        g_graph(1, 11)  # 11 - 6 is not a multiple of 4
    with pytest.raises(FamilyError):
        g_graph(3, 8)
    with pytest.raises(FamilyError):
        g_graph(12, 10)  # missing s
    with pytest.raises(FamilyError):
        g_graph(12, 9, s=3)  # needs n >= s + 7
    with pytest.raises(FamilyError):
        g_graph(12, 11, s=3)  # 11 - 6 not a multiple of 4
    with pytest.raises(FamilyError):
        g_graph(13, 9, s=5)  # G13 has no fan width


def test_g12_matches_quotient_row_sums():
    built = g_graph(12, 10, s=3)
    g = built.graph
    assert g.n == 10
    assert g.degree(0) == 8  # hub row sum: s + 1 + (n - s - 3) = n - 2
    assert g.degree(1) == 3  # outside vertex: one edge per leaf
    assert g.degree(2) == 4  # center: hub + 3 leaves
    assert g.edge_count == 10 + 10  # seed 3s+1 edges plus one quad pack


def test_g13():
    g = g_graph(13, 7).graph
    assert g.n == 7 and g.edge_count == 13  # 3*4 + 1
    degs = sorted(g.degrees(), reverse=True)
    assert degs == [5, 5, 4, 3, 3, 3, 3]


def test_quad_pack_families():
    # edges: (n - 1) hub spokes + remainder edges + 6 per quad pack
    g = k1_join_k4s(9).graph
    assert g.n == 9 and g.edge_count == 8 + 12
    g = k1_join_k1_k4s(10).graph
    assert g.n == 10 and g.edge_count == 9 + 12
    g = k1_join_k2_k4s(7).graph
    assert g.n == 7 and g.edge_count == 6 + 1 + 6
    g = k1_join_star_plus_k4s(9, 3).graph
    assert g.n == 9 and g.edge_count == 8 + 4 + 6
    for bad in ((k1_join_k4s, 8), (k1_join_k1_k4s, 9), (k1_join_k2_k4s, 8)):
        with pytest.raises(FamilyError):
            bad[0](bad[1])
    with pytest.raises(FamilyError):
        k1_join_star_plus_k4s(9, 4)  # 9 - 6 not a multiple of 4


def test_build_family_strings():
    assert build_family("Complete:n=5").graph.edge_count == 10
    assert build_family("Cycle:n=9").graph.n == 9
    b = build_family("G12:n=10,s=3")
    assert b.graph.n == 10
    assert build_family("K11n2Plus:n=7").graph.n == 7
    assert build_family("CompleteMultipartite:parts=2,2,2").graph.edge_count == 12
    assert build_family("K1JoinK4UnionK1").graph.n == 6
    assert build_family("DoubleStar:n1=1,n2=2").graph.n == 5
    with pytest.raises(FamilyError):
        build_family("Nonsense:n=4")
    with pytest.raises(FamilyError):
        build_family("Cycle:m=9")
    with pytest.raises(FamilyError):
        build_family("Cycle:n=x")
    assert any(name.startswith("G12") for name in family_names())


@pytest.mark.parametrize("spec, word", [
    ("U3:n=99", "extra ['n']"),
    ("G13:n=9,s=5", "extra ['s']"),
    ("G5:n=13,x=1", "extra ['x']"),
    ("U12:s=4,n=7", "extra ['n']"),
    ("Cycle:n=9,n=10", "given twice"),
    ("CompleteMultipartite:parts=2,parts=3", "given twice"),
    ("Cycle:n=9,5", "bad family parameter"),
])
def test_build_family_refuses_parameters_the_family_does_not_take(spec, word):
    with pytest.raises(FamilyError, match=re.escape(word)):
        build_family(spec)


def test_family_names_list_every_registered_spec_with_its_parameters():
    names = family_names()
    assert names[:3] == ["C4Plus", "Complete (n=...)", "CompleteMultipartite (parts=a,b,...)"]
    assert names[15:17] == ["U1", "U2"]
    assert names[26:29] == ["U12 (s=...)", "G1 (n=...)", "G2 (n=...)"]
    assert names[-2:] == ["G12 (n=...,s=...)", "G13 (n=...)"]
    assert len(names) == 15 + 12 + 13


def _catalog_cases():
    """(builder, args) for every builder at n <= 30 and s <= 27."""
    for n in range(31):
        for name in ("complete", "path", "cycle", "k11n2_plus", "extremal_graph",
                     "k1_join_k4s", "k1_join_k1_k4s", "k1_join_k2_k4s"):
            yield name, (n,)
        for i in (*range(1, 12), 13):
            yield "g_graph", (i, n)
        for s in range(28):
            yield "g_graph", (12, n, s)
            yield "k1_join_star_plus_k4s", (n, s)
            yield "double_star", (n, s)
    for s in range(28):
        yield "star", (s,)
        yield "star_plus", (s,)
        yield "u_graph", (12, s)
    for i in range(1, 12):
        yield "u_graph", (i,)
    yield "c4_plus", ()
    yield "k1_join_k4_union_k1", ()


CATALOG_DIGEST = "0cdedcb6f65d0435c69b22e38dba856dbcff4c85c0d11f641e270961399c43c4"


def test_every_catalog_graph_is_pinned():
    # a digest over (builder, args, graph6 or "refused"): every builder
    # returns the same graph, vertex labels included, and refuses the same
    # parameters
    trace = hashlib.sha256()
    count = 0
    for name, args in _catalog_cases():
        try:
            out = getattr(families, name)(*args)
            val = graph6_encode(getattr(out, "graph", out))
        except FamilyError:
            val = "refused"
        trace.update(f"{name}{args}={val}\n".encode())
        count += 1
    assert count == 3321
    assert trace.hexdigest() == CATALOG_DIGEST


def test_built_family_type():
    assert isinstance(build_family("Star:s=3"), BuiltFamily)
