import hashlib
import importlib.util
import json
import math
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from chordspec import chords, kernels, spectral, verifier
from chordspec.appendix import FIXTURES, fan_chain, fixture_graphs
from chordspec.families import (
    complete,
    cycle,
    double_star,
    extremal_graph,
    k11n2_plus,
    star,
    star_plus,
)
from chordspec.graphs import (
    Graph,
    apex_partition,
    bits_to_vertices,
    disjoint_union,
    graph6_decode,
    graph6_encode,
    graph_from_mask,
    join,
    make_graph,
    mask_of,
)
from chordspec.spectral import q_index
from chordspec.verifier import (
    DEFAULT_CLAIM_CAPS,
    Report,
    VerifierError,
    _prefilter_spot_check,
    _structural_violations,
    build_claim_probe,
    classify_component,
    property_suite,
    replay_counterexample,
    report_diff,
    verify_appendix,
    verify_corollary,
    verify_theorem_main,
)
from oracles import mask_from_graph, oracle_prefilter_spot_check


def labeled_graphs(n):
    """Every labeled graph on n vertices, in ascending edge-bitmask order,
    as the sweep enumerates them."""
    return [graph_from_mask(n, m) for m in range(1 << n * (n - 1) // 2)]


def test_enumerate_counts():
    for n in (1, 2, 3, 4, 5):
        graphs = labeled_graphs(n)
        assert len(graphs) == 1 << (n * (n - 1) // 2)
        assert len({frozenset(g.edges()) for g in graphs}) == len(graphs)
    assert sum(1 for g in labeled_graphs(3) if g.min_degree >= 1) == 4
    assert sum(1 for g in labeled_graphs(4) if g.edge_count >= 5) == 7  # C(6,5) + C(6,6)
    assert sum(1 for g in labeled_graphs(4) if g.edge_count <= 1) == 7


def test_enumerate_ascending_mask_order():
    masks = [mask_from_graph(g) for g in labeled_graphs(4)]
    assert masks == sorted(masks) == list(range(64))


THR6 = q_index(extremal_graph(6).graph).q
THR7 = q_index(extremal_graph(7).graph).q


# The paper's thresholds are irrational, so a strict cut and a non-strict one
# skip the same graphs there; the integer cuts 7 and 8 tell them apart.
@pytest.mark.parametrize("n, thr", [
    (6, THR6), (6, THR6 - 0.5), (6, THR6 + 0.3), (7, THR7), (6, 7.0), (6, 8.0),
], ids=["n6", "n6-0.5", "n6+0.3", "n7", "n6-cut7", "n6-cut8"])
def test_prefilter_spot_check_matches_per_graph_oracle(n, thr):
    assert _prefilter_spot_check(n, thr) == oracle_prefilter_spot_check(n, thr)


def test_report_json_roundtrip_and_diff():
    rep = verify_theorem_main(6)
    back = Report.from_json(rep.to_json())
    assert report_diff(rep, back) == []
    other = verify_theorem_main(6, threshold_offset=-0.5)
    diffs = report_diff(rep, other)
    assert diffs and any("counterexamples" in d for d in diffs)


def _without_isolated_vertices(n):
    """Labeled graphs on n vertices without isolated vertices, by
    inclusion-exclusion: sum_k (-1)^k C(n,k) 2^C(n-k,2)."""
    return sum((-1) ** k * math.comb(n, k) * 2 ** math.comb(n - k, 2) for k in range(n + 1))


def test_theorem_n6_fixture():
    rep = verify_theorem_main(6)
    assert rep.passed
    assert rep.extremal_hits == 30
    assert rep.counterexamples == []
    assert rep.graphs_examined == _without_isolated_vertices(6)


@pytest.mark.parametrize("task, n, jobs", [
    ("theorem", 6, 2),
    ("theorem", 7, 1),
    ("corollary", 7, 2),
])
def test_sweeps_examine_every_graph_without_isolated_vertices(task, n, jobs):
    # a chunking or range bug in the sweep, serial or pooled, would miss or
    # double-count masks
    assert [_without_isolated_vertices(k) for k in (6, 7, 8)] == [27449, 1887284, 252522481]
    run = verify_theorem_main if task == "theorem" else verify_corollary
    rep = run(n, jobs=jobs)
    assert rep.passed
    assert rep.graphs_examined == _without_isolated_vertices(n)


@pytest.mark.parametrize("n, test", [
    (6, ("apex_has_config", 3)),
    (7, ("apex_has_config", 3)),
    (7, ("chorded_has", 3)),
], ids=["theorem-6", "theorem-7", "corollary-7"])
def test_rest_indices_match_q_index(n, test):
    # the one batched eigensolve over the graphs of the masks the kernel
    # leaves gives the same float index as q_index on each graph
    thr = q_index(extremal_graph(n).graph).q
    _, _, rest = verifier._sweep_classified(n, thr, test, 1)
    assert len(rest) == {6: 30, 7: 210}[n]
    graphs = [graph_from_mask(n, mask) for mask in rest]
    for g, qv in zip(graphs, verifier.q_indices(graphs), strict=True):
        assert abs(qv - q_index(g).q) <= 1e-12


def _count_tail_calls(monkeypatch, kernel_test, searcher):
    """Count the verifier's calls of q_index, q_exact_compare,
    graph_from_mask and is_isomorphic, every characteristic polynomial built
    for an exact comparison, and the kernel chord test and the reference
    searcher as the verifier calls them (the python kernel calls the
    searchers too, through its own reference): (counts by name, adjacency
    rows the kernel test saw, graphs the searcher saw)."""
    calls = {}
    for module, name in ((verifier, "q_index"), (verifier, "q_exact_compare"),
                         (verifier, "graph_from_mask"), (verifier, "is_isomorphic"),
                         (spectral, "charpoly_int_matrix")):
        calls[name] = 0
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    tested, searched = [], []
    test = getattr(kernels, kernel_test)
    monkeypatch.setattr(kernels, kernel_test,
                        lambda rows, k: tested.append(rows) or test(rows, k))
    search = getattr(chords, searcher)
    monkeypatch.setattr(verifier, "chords", SimpleNamespace(
        **{searcher: lambda g, k: searched.append(g) or search(g, k)}))
    return calls, tested, searched


def test_theorem_settles_its_ties_without_per_tie_eigensolves(monkeypatch):
    # the sweep's tie band at order 6 is the 30 labeled copies of the
    # threshold graph; each is matched by isomorphism and takes the verdict
    # of the threshold graph itself, which is decided once: one exact
    # comparison, one kernel apex test and one searcher call. The only
    # q_index call is the one for the threshold, and the exact comparison of
    # the threshold graph with itself builds one polynomial
    calls, tested, searched = _count_tail_calls(
        monkeypatch, "apex_has_config", "find_k_chords_at_apex")
    assert verify_theorem_main(6).extremal_hits == 30
    assert calls == {"q_index": 1, "q_exact_compare": 1, "graph_from_mask": 30,
                     "is_isomorphic": 31, "charpoly_int_matrix": 1}
    assert tested == [extremal_graph(6).graph.rows]
    assert searched == [extremal_graph(6).graph]


def test_corollary_settles_its_ties_once(monkeypatch):
    # at order 7 the corollary's tie band is the 210 copies of the threshold
    # graph: one exact comparison decides that the class sits on the
    # threshold, where no chord test runs
    calls, tested, searched = _count_tail_calls(
        monkeypatch, "chorded_has", "find_chorded_cycle")
    assert verify_corollary(7).extremal_hits == 210
    assert calls == {"q_index": 1, "q_exact_compare": 1, "graph_from_mask": 210,
                     "is_isomorphic": 211, "charpoly_int_matrix": 1}
    assert tested == searched == []


@pytest.mark.parametrize("offset", [0.0, -0.5])
def test_replay_agrees_with_the_tail_on_every_leftover_mask(offset):
    # replay runs the sweep's own rule: over every mask the kernel leaves at
    # order 6, it reports exactly the counterexamples the tail reports
    params = {"threshold_offset": offset}
    thr = q_index(extremal_graph(6).graph).q + offset
    _, _, rest = verifier._sweep_classified(6, thr, ("apex_has_config", 3), 1)
    found = set(verify_theorem_main(6, threshold_offset=offset).counterexamples)
    assert len(found) == {0.0: 0, -0.5: 15}[offset]
    replayed = {g6 for g6 in (graph6_encode(graph_from_mask(6, m)) for m in rest)
                if replay_counterexample("theorem", g6, params)}
    assert replayed == found


def test_replay_refuses_orders_its_task_does_not_sweep():
    for task, n in (("theorem", 5), ("theorem", 9), ("corollary", 6), ("corollary", 9)):
        with pytest.raises(VerifierError):
            replay_counterexample(task, graph6_encode(complete(n)), {})
    with pytest.raises(VerifierError):
        replay_counterexample("appendix", graph6_encode(complete(7)), {})


def test_theorem_deterministic_modulo_wall_time():
    a = verify_theorem_main(6).to_json_dict()
    b = verify_theorem_main(6).to_json_dict()
    a.pop("wall_time_ms")
    b.pop("wall_time_ms")
    assert a == b


def test_theorem_mutation_flips_to_fail():
    rep = verify_theorem_main(6, threshold_offset=-0.5)
    assert not rep.passed
    assert rep.counterexamples
    for g6 in rep.counterexamples:
        assert replay_counterexample("theorem", g6, {"threshold_offset": -0.5})
        # each recorded counterexample is a real graph without the config
        g = graph6_decode(g6)
        assert g.n == 6 and g.min_degree >= 1


def test_theorem_rejects_bad_order():
    with pytest.raises(VerifierError):
        verify_theorem_main(9)
    with pytest.raises(VerifierError):
        verify_corollary(6)


def test_classify_component_catalog():
    g = star(4)
    info = classify_component(g, 0b11111)
    assert info["kind"] == "star"
    assert info["s"] == 4 and info["center"] == 0 and info["leaves"] == 0b11110
    ds = double_star(2, 3)
    info = classify_component(ds, 0b1111111)
    assert info["kind"] == "double_star" and info["total_leaves"] == 5
    assert info["centers"].bit_count() == 2 and ds.has_edge(*bits_to_vertices(info["centers"]))
    assert info["leaves"] == 0b1111111 & ~info["centers"]
    sp = star_plus(4)
    info = classify_component(sp, 0b11111)
    assert info["kind"] == "star_plus" and info["s"] == 4
    assert info["pair"] == 0b110
    assert info["center"] == 0 and info["pendants"] == 0b11000
    assert classify_component(complete(3), 0b111)["kind"] == "star_plus"
    assert classify_component(cycle(4), 0b1111)["kind"] == "c4"
    from chordspec.families import c4_plus

    info = classify_component(c4_plus(), 0b1111)
    assert info["kind"] == "c4_plus"
    assert info["deg2"].bit_count() == 2 and info["deg3"] == 0b1111 & ~info["deg2"]
    assert classify_component(complete(4), 0b1111)["kind"] == "k4"
    # a single vertex and a single edge are stars, centered on the least vertex
    assert classify_component(make_graph(3), 0b100) == {
        "kind": "star", "s": 0, "center": 2, "leaves": 0}
    assert classify_component(make_graph(3, [(1, 2)]), 0b110) == {
        "kind": "star", "s": 1, "center": 1, "leaves": 0b100}
    # outside the catalog: paths on five vertices, cycles on five vertices
    from chordspec.families import path

    assert classify_component(path(5), 0b11111) is None
    assert classify_component(cycle(5), 0b11111) is None
    bull = make_graph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4)])
    assert classify_component(bull, 0b11111) is None


def test_classify_component_keeps_labels():
    g = disjoint_union(make_graph(2), star_plus(3))
    info = classify_component(g, 0b111100)
    assert info["kind"] == "star_plus" and info["center"] == 2
    assert info["pair"] == 0b011000 and info["pendants"] == 0b100000


def test_claim_probes_match_hand_analysis():
    # at-cap probes are configuration-free; one-past-cap probes are not
    from chordspec.chords import find_k_chords_at_apex

    for kind, cap in DEFAULT_CLAIM_CAPS.items():
        assert find_k_chords_at_apex(build_claim_probe(kind, cap), 3) is None
        assert find_k_chords_at_apex(build_claim_probe(kind, cap + 1), 3) is not None


def test_structural_claims_hold_on_threshold_graph():
    """All neighborhood caps hold on the threshold graph itself, vacuously at
    a universal apex (empty W) and substantively at low-degree apexes."""
    g = k11n2_plus(7).graph
    assert _structural_violations(g, DEFAULT_CLAIM_CAPS) == (0, 0)
    assert not apex_partition(g, 0)[2] and not apex_partition(g, 1)[2]  # universal
    assert any(apex_partition(g, z)[2] for z in range(g.n))


# sha256 of the per-graph (cap, catalog) violation counts below, taken from
# the claim checks as they stood when apex partitions were still vertex sets
STRUCTURAL_COUNTS = "1beabc5aaf92bf3667ee6d9e13cb016c8f76dcb6fe047011d87bf9c4a80bc1fd"


def test_structural_violation_counts_are_pinned():
    """The claim checks, counted on 1,500 seeded draws of order 3..11 under
    the default caps and under every cap at 0, 1 and 2; the tighter caps
    make nearly every claim-1 and claim-2 branch fire."""
    settings = [dict(DEFAULT_CLAIM_CAPS)] + [
        dict.fromkeys(DEFAULT_CLAIM_CAPS, cap) for cap in (0, 1, 2)]
    rng = random.Random(20261019)
    graphs = [verifier._sample(rng, 3, 11) for _ in range(1500)]
    counts = [[_structural_violations(g, caps) for g in graphs] for caps in settings]
    assert sum(a + b for row in counts for a, b in row) == 18658
    assert hashlib.sha256(json.dumps(counts).encode()).hexdigest() == STRUCTURAL_COUNTS


def test_property_suite_deterministic():
    a = property_suite(seed=7, trials=120).to_json_dict()
    b = property_suite(seed=7, trials=120).to_json_dict()
    a.pop("wall_time_ms")
    b.pop("wall_time_ms")
    assert a == b


# sha256 of the draw trace of property_suite(seed=7, trials=25), hashed as below
PROPERTY_DRAWS_SEED7 = "9628d6accc6326b31cbd86288bc339409a727d82b76a1bb4074171c7bae98e61"
# sha256 of the Perron shift's (graph, shifted graph) pairs in the same run
PERRON_SHIFTS_SEED7 = "42f61ae22628055178ffe02ce3e11e48de3704718bc8331fb4d79a0ea2de1188"


def test_property_suite_draws_are_pinned(monkeypatch):
    """A passing report does not show which graphs the lemmas drew, so the
    draws are pinned here: a digest of the generator state and the graph at
    every `_sample` call (the structural claims' draws included), every
    graph the structural claims' apex test sees and every graph the
    verifier hands the configuration searcher; and a digest of the pairs the
    Perron shift checks."""
    assert _property_draws_digest(monkeypatch) == (
        True, PROPERTY_DRAWS_SEED7, PERRON_SHIFTS_SEED7)


def test_a_flipped_perron_order_moves_the_draw_digest(monkeypatch):
    # the Perron shift takes its orientation from kernels.perron_order when
    # that certifies one. Either orientation of a non-twin pair moves a
    # different edge set (or, on one side, none, and the draw is redrawn), so
    # flipping any one certified sign changes the pairs the shift checks; the
    # first one also changes the generator state of every later draw. A
    # flipped shift may lower the index, so the suite may fail
    perron_order = kernels.perron_order
    for target in range(40):
        certified = []

        def flip_one(rows, u, v):
            order = perron_order(rows, u, v)
            if order:
                certified.append((rows, u, v))
                if len(certified) == target + 1:
                    return -order
            return order

        with monkeypatch.context() as patch:
            patch.setattr(kernels, "perron_order", flip_one)
            _, draws, shifts = _property_draws_digest(patch)
        assert len(certified) > target
        assert shifts != PERRON_SHIFTS_SEED7, target
        assert target or draws != PROPERTY_DRAWS_SEED7


def _property_draws_digest(monkeypatch):
    """(passed, the digests that PROPERTY_DRAWS_SEED7 and PERRON_SHIFTS_SEED7
    pin) of property_suite(seed=7, trials=25). Only the verifier's
    own calls are traced: the python kernel's apex test reaches the
    configuration searcher too, untraced, so both kernels give one digest."""
    trace, shifts = hashlib.sha256(), hashlib.sha256()
    sample = verifier._sample
    trials = verifier._trials
    apex_has_config = kernels.apex_has_config
    find = chords.find_k_chords_at_apex

    def traced_sample(rng, n_lo, n_hi):
        trace.update(repr(rng.getstate()).encode())
        g = sample(rng, n_lo, n_hi)
        trace.update(graph6_encode(g).encode())
        return g

    def traced_apex(rows, k):
        # the digest names the graph by its order and edge bitmask
        n = len(rows)
        trace.update(f"apex {n} {mask_of(Graph(n, rows))} {k}".encode())
        return apex_has_config(rows, k)

    def traced_find(g, k):
        trace.update(f"find {graph6_encode(g)} {k}".encode())
        return find(g, k)

    def traced_trials(rng, count, draw, check, *args):
        def traced_check(samples):
            for g, shifted in samples:
                shifts.update(f"{graph6_encode(g)} {graph6_encode(shifted)}\n".encode())
            return check(samples)

        shift = draw.__name__ == "draw_shift"
        return trials(rng, count, draw, traced_check if shift else check, *args)

    monkeypatch.setattr(verifier, "_sample", traced_sample)
    monkeypatch.setattr(verifier, "_trials", traced_trials)
    monkeypatch.setattr(kernels, "apex_has_config", traced_apex)
    monkeypatch.setattr(verifier, "chords", SimpleNamespace(
        **{**vars(chords), "find_k_chords_at_apex": traced_find}))
    passed = property_suite(seed=7, trials=25).passed
    return passed, trace.hexdigest(), shifts.hexdigest()


def test_property_suite_rejects_a_longest_cycle_that_is_not_a_cycle(monkeypatch):
    # the kernel's cycle is a witness the suite checks before using it: with
    # one cycle vertex swapped for a vertex off the cycle and not adjacent to
    # the vertex before it, the suite must not count the sample
    longest_cycle = kernels.longest_cycle
    corrupted = []

    def swapped(rows):
        found = longest_cycle(rows)
        if found is None:
            return found
        c, cyc = found
        off = [w for w in range(len(rows)) if w not in cyc and not rows[cyc[0]] >> w & 1]
        if not off:
            return found
        corrupted.append(rows)
        return c, (cyc[0], off[0]) + cyc[2:]

    monkeypatch.setattr(kernels, "longest_cycle", swapped)
    with pytest.raises(VerifierError, match="longest_cycle"):
        property_suite(seed=7, trials=150)
    assert len(corrupted) == 1


def test_property_suite_passes_and_counts():
    rep = property_suite(seed=3, trials=150)
    assert rep.passed
    names = [d["name"] for d in rep.details]
    assert names == [
        "edge_monotonicity",
        "perron_shift",
        "equitable_quotient_fixtures",
        "eta_upper_bound",
        "longest_cycle_edge_bound",
        "edge_count_forces_configuration",
        "path_free_edge_bound",
        "threshold_family_lower_bound",
        "structural_claims",
        "claim_boundary_battery",
    ]


def test_property_suite_cap_mutation_flips():
    rep = property_suite(seed=3, trials=60, claim_caps={"k4": 2})
    assert not rep.passed
    battery = next(d for d in rep.details if d["name"] == "claim_boundary_battery")
    assert not battery["passed"]
    assert rep.params["claim_caps"]["k4"] == 2


def test_appendix_report_structure():
    rep = verify_appendix(7, 12)
    by_name = {d["name"]: d for d in rep.details}
    assert by_name["template_charpoly_identities"]["passed"]
    assert by_name["equitable_partitions"]["passed"]
    assert by_name["quotient_radius_matches_index"]["passed"]
    assert by_name["index_below_threshold_family"]["passed"]
    assert by_name["threshold_family_bound"]["passed"]
    assert by_name["fan_width_monotone_chain_g12"]["passed"]
    with pytest.raises(VerifierError):
        verify_appendix(6, 12)
    with pytest.raises(VerifierError):
        verify_appendix(7, 31)


def test_appendix_computes_each_index_once(monkeypatch):
    # the threshold graphs and the fixture graphs each reach q_index once per
    # call, also where the fan-width chains revisit a fixture graph
    seen = []
    index = verifier.q_index
    monkeypatch.setattr(verifier, "q_index", lambda g: seen.append(g) or index(g))
    for _ in range(2):
        seen.clear()
        verify_appendix(7, 14)
        assert seen and len(seen) == len(set(seen))


def test_appendix_builds_each_template_once(monkeypatch):
    # the identity block and the equitable-partition block share one
    # template per (item, n, s) within a call
    seen = []
    template = verifier.quotient_template
    monkeypatch.setattr(
        verifier, "quotient_template", lambda *key: seen.append(key) or template(*key)
    )
    for _ in range(2):
        seen.clear()
        verify_appendix(7, 14)
        assert seen and len(seen) == len(set(seen))


def test_appendix_batches_its_polynomials_and_fixture_indices(monkeypatch):
    # every template polynomial comes from at most two batched calls, and
    # every fixture graph's index from one q_indices call; q_index is left
    # for the threshold family's graphs
    batches, index_batches, single = [], [], []
    charpolys, q_indices, q_index_ = (
        verifier.charpoly_int_matrices, verifier.q_indices, verifier.q_index)
    monkeypatch.setattr(verifier, "charpoly_int_matrices",
                        lambda ms: batches.append(len(ms)) or charpolys(ms))
    monkeypatch.setattr(verifier, "q_indices",
                        lambda gs: index_batches.append(list(gs)) or q_indices(gs))
    monkeypatch.setattr(verifier, "q_index", lambda g: single.append(g) or q_index_(g))
    report = verify_appendix(7, 14)
    assert 1 <= len(batches) <= 2
    # (b)'s templates and (d)'s eight threshold templates
    checked = next(d["checked"] for d in report.details
                   if d["name"] == "template_charpoly_identities")
    assert sum(batches) == checked + 8
    fixtures = [g for fx in FIXTURES for *_, g in fixture_graphs(fx, 7, 14)]
    assert index_batches == [fixtures]
    assert single == [k11n2_plus(n).graph for n in range(7, 15)]


def test_appendix_builds_each_closed_form_once(monkeypatch):
    # the fan-width chains read their closed forms from the identity block
    seen = []
    closed_form = verifier.appendix_polynomial
    monkeypatch.setattr(
        verifier, "appendix_polynomial", lambda *key: seen.append(key) or closed_form(*key)
    )
    verify_appendix(7, 14)
    assert seen and len(seen) == len(set(seen))


def test_appendix_graph_chain_decides_float_ties_exactly(monkeypatch):
    # one g12 pair's float indices forced 5e-10 apart in the wrong order:
    # inside the tie band, so the exact comparison orders the pair, and the
    # chain still holds
    fx = next(fx for fx in FIXTURES if fx.poly_id == "g12")
    built = {(n, s): g for n, s, g in fixture_graphs(fx, 14, 14)}
    n, s = fan_chain(built)[0]
    narrow, wide = built[n, s], built[n, s + 4]
    indices = verifier.q_indices

    def forced(graphs):
        qs = indices(graphs)
        q_narrow = qs[graphs.index(narrow)]
        return [q_narrow - 5e-10 if g == wide else q for g, q in zip(graphs, qs)]

    monkeypatch.setattr(verifier, "q_indices", forced)
    by_name = {d["name"]: d for d in verify_appendix(14, 14).details}
    assert not by_name["quotient_radius_matches_index"]["passed"]  # forced indeed
    assert by_name["fan_width_monotone_chain_g12"]["passed"]


def test_appendix_flags_the_false_g18_chain():
    """The hub-star-pack fan-width chain is genuinely non-monotone for small
    fan width (first violation at order 19); the report must say so instead
    of going vacuously green."""
    rep = verify_appendix(7, 21)
    chain = next(
        d for d in rep.details if d["name"] == "fan_width_monotone_chain_g18"
    )
    assert not chain["passed"]
    assert [19, 3] in chain["violations"]
    assert [21, 3, "graphs"] in chain["violations"]
    # below the first violating order the chain holds and the report passes
    clean = verify_appendix(7, 18)
    chain_small = next(
        d for d in clean.details if d["name"] == "fan_width_monotone_chain_g18"
    )
    assert chain_small["passed"]
    assert clean.passed


def test_corollary_n7_counts_extremal_exception():
    rep = verify_corollary(7)
    assert rep.passed
    assert rep.extremal_hits == 210


def test_corollary_min_chords_4_still_passes():
    # computed outcome: every order-7 graph strictly above the threshold
    # carries a cycle with four chords, so the stricter run stays green
    rep = verify_corollary(7, min_chords=4)
    assert rep.passed
    assert rep.extremal_hits == 210


def test_corollary_counterexamples_replay():
    # at six chords the corollary fails at order 7: 2,310 graphs above the
    # threshold have no cycle with six chords. A fixed-stride sample of them
    # must reproduce in isolation
    params = {"min_chords": 6}
    rep = verify_corollary(7, **params)
    assert not rep.passed and len(rep.counterexamples) == 2310
    assert all(replay_counterexample("corollary", g6, params)
               for g6 in rep.counterexamples[::77])
    # a labeled copy of the threshold graph sits on the threshold, and K7
    # has a cycle with six chords: neither is a counterexample
    perm = (3, 6, 0, 5, 1, 4, 2)
    copy = make_graph(7, [(perm[u], perm[v]) for u, v in extremal_graph(7).graph.edges()])
    for g in (copy, complete(7)):
        assert not replay_counterexample("corollary", graph6_encode(g), params)


def test_jobs_parallel_matches_serial():
    a = verify_theorem_main(6).to_json_dict()
    b = verify_theorem_main(6, jobs=2).to_json_dict()
    a.pop("wall_time_ms")
    b.pop("wall_time_ms")
    assert a == b


def test_jobs_are_capped_at_the_usable_cpus(monkeypatch):
    """A job count far above the CPUs asks the pool for no more worker
    threads than there are CPUs, as more cannot sweep at once. The fake pool
    maps in the calling thread and starts none."""
    import concurrent.futures
    import os

    workers = []

    class FakePool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", FakePool)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    a = verify_theorem_main(6).to_json_dict()
    b = verify_theorem_main(6, jobs=10**6).to_json_dict()
    a.pop("wall_time_ms")
    b.pop("wall_time_ms")
    assert a == b
    assert all(1 < w <= cpus for w in workers) and len(workers) == (cpus > 1)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
EXPECTED = PERFBENCH / "expected"


def test_benchmark_layers_resolve():
    # the benchmark's tracer looks every LAYERS entry up by name, so each
    # must stay a callable of its chordspec module; the script is loaded,
    # not run
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.LAYERS
    for module, fn in bench.LAYERS:
        target = getattr(importlib.import_module(f"chordspec.{module}"), fn, None)
        assert callable(target), f"{module}.{fn}"


@pytest.mark.parametrize("stored, run", [
    ("properties-seed7.json", lambda: property_suite(7, 150)),
    ("appendix-7-22.json", lambda: verify_appendix(7, 22)),  # g18 chain fails
    ("theorem-n6.json", lambda: verify_theorem_main(6)),
], ids=["properties-seed7", "appendix-7-22", "theorem-n6"])
def test_reports_reproduce_stored_bodies(stored, run):
    # every key of the stored benchmark report except wall_time_ms, so a
    # moved RNG draw or a changed count fails here, not only in a benchmark run
    got = json.loads(run().to_json())
    got.pop("wall_time_ms")
    assert got == json.loads((EXPECTED / stored).read_text())
