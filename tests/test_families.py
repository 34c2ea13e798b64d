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
    u_order,
)
from chordspec.graphs import is_isomorphic, join, make_graph

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
        assert g.n == n == u_order(i)
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
    base = u_order(i)
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


def test_built_family_type():
    assert isinstance(build_family("Star:s=3"), BuiltFamily)
