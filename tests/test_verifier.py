import hashlib
import importlib.util
import json
import math
import random
import sys
import zlib
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from chordspec import (
    _sweep_py,
    appendix,
    chords,
    kernels,
    polynomials,
    properties,
    spectral,
    verifier,
)
from chordspec.appendix import FIXTURES, fan_chain, fixture_graphs, verify_appendix
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
    arrangement_count,
    arrangement_images,
    bits_to_vertices,
    disjoint_union,
    graph6_decode,
    graph6_encode,
    graph_from_mask,
    join,
    make_graph,
    mask_of,
)
from chordspec.polynomials import EQUAL
from chordspec.spectral import q_index
from chordspec.properties import (
    DEFAULT_CLAIM_CAPS,
    _P_STRATA,
    build_claim_probe,
    property_suite,
)
from chordspec.verifier import (
    Report,
    VerifierError,
    _prefilter_spot_check,
    report_diff,
    verify_corollary,
    verify_theorem_main,
)
from oracles import (
    body_text,
    is_connected,
    mask_from_graph,
    oracle_compare_largest_roots,
    oracle_degree_vector_bounds,
    oracle_prefilter_spot_check,
    oracle_sample,
    oracle_spot_check_solving_all,
    replay_counterexample,
)

IMPLEMENTATIONS = kernels.implementations()
DEFAULT_CAPS = tuple(DEFAULT_CLAIM_CAPS.values())
classify_component = _sweep_py.classify_component


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
THR8 = q_index(extremal_graph(8).graph).q

# The paper's thresholds are irrational, so a strict cut and a non-strict one
# skip the same graphs there; the integer cuts 7 and 8 tell them apart.
SPOT_CHECK_CUTS = pytest.mark.parametrize("n, thr", [
    (6, THR6), (6, THR6 - 0.5), (6, THR6 + 0.3), (7, THR7), (6, 7.0), (6, 8.0),
    (8, THR8),
], ids=["n6", "n6-0.5", "n6+0.3", "n7", "n6-cut7", "n6-cut8", "n8"])


@SPOT_CHECK_CUTS
def test_prefilter_spot_check_matches_per_graph_oracle(n, thr):
    assert _prefilter_spot_check(n, thr) == oracle_prefilter_spot_check(n, thr)


# the skipped graphs the spot check eigensolves at the theorem's thresholds
SPOT_CHECK_SOLVED = {6: 5, 7: 184, 8: 314}


@SPOT_CHECK_CUTS
def test_spot_check_eigensolves_every_graph_that_can_hold_the_maximum(monkeypatch, n, thr):
    # through each kernel twin's degree_skips, against the check that
    # eigensolves every skipped graph: the same result, every skipped graph
    # at the maximum among those eigensolved, and the eigensolved ones
    # exactly the candidates, those whose Collatz-Wielandt bound U reaches
    # L*, the largest Rayleigh bound L of the sample (both at the degree
    # vector, in Fractions). A weaker prune (L* from a smaller L, or 2 max
    # degree for U) eigensolves more graphs and fails here
    want, skipped = oracle_spot_check_solving_all(n, thr)
    assert skipped, "no skipped graph drawn"
    top = max(q for _, q in skipped)
    bounds = {mask: oracle_degree_vector_bounds(graph_from_mask(n, mask)) for mask, _ in skipped}
    lstar = max(lower for _, lower in bounds.values())
    verifier._spot_check_draws.cache_clear()
    for _, impl in kernels.implementations():
        solved = []

        def counted(*args, impl=impl):
            count, candidates = impl.degree_skips(*args)
            solved.extend(candidates)
            return count, candidates

        monkeypatch.setattr(kernels, "degree_skips", counted)
        assert _prefilter_spot_check(n, thr) == want
        assert {mask for mask, q in skipped if q >= top - 1e-9} <= set(solved)
        assert sorted(solved) == sorted(mask for mask, _ in skipped if bounds[mask][0] >= lstar)
        if thr in (THR6, THR7, THR8):
            assert len(solved) == SPOT_CHECK_SOLVED[n]


# crc32 of the default-seed draws at orders 6, 7 and 8, written as decimal
# masks joined by commas: a faster draw must give these same masks, or the
# stored bodies that rest on them change
SPOT_CHECK_DRAWS_CRC32 = {6: 0x03D39C7A, 7: 0xAC267C33, 8: 0x19FA1B88}


@pytest.mark.parametrize("n", [6, 7, 8])
@pytest.mark.parametrize("seed", [20240601, 7])
def test_spot_check_draws_are_the_seeded_randrange_sample(n, seed):
    # drawn once per (n, seed) and kept as a tuple, which no caller can
    # change in the cache; the same masks as fresh randrange draws, cached
    # or not
    verifier._spot_check_draws.cache_clear()
    total = 1 << n * (n - 1) // 2
    rng = random.Random(seed)
    fresh = [rng.randrange(total) for _ in range(min(max(total // 100, 100), 20000))]
    for _ in range(2):
        draws = verifier._spot_check_draws(n, seed)
        assert type(draws) is tuple and list(draws) == fresh
    if seed == 20240601:
        assert zlib.crc32(",".join(map(str, draws)).encode()) == SPOT_CHECK_DRAWS_CRC32[n]


@pytest.mark.parametrize("n", [6, 7])
def test_a_second_theorem_call_draws_nothing(monkeypatch, n):
    # the first call of a process draws the sample, 327 masks at order 6
    # and 20,000 at order 7; a later call draws none and reports the same
    # body, its spot check still run on the kernel at its own cut
    verifier._spot_check_draws.cache_clear()
    randrange = random.Random.randrange
    drawn = []
    monkeypatch.setattr(random.Random, "randrange",
                        lambda self, *args: drawn.append(args) or randrange(self, *args))
    skips = kernels.degree_skips
    checked = []
    monkeypatch.setattr(kernels, "degree_skips",
                        lambda *args: checked.append(args) or skips(*args))
    first = verify_theorem_main(n)
    assert len(drawn) == {6: 327, 7: 20000}[n] and len(checked) == 1
    drawn.clear()
    second = verify_theorem_main(n)
    assert drawn == [] and len(checked) == 2 and checked[0] == checked[1]
    assert all(type(masks) is list for _, masks, _ in checked)
    assert report_diff(first, second) == []


def test_spot_check_sees_the_degree_filter_that_ran(monkeypatch):
    # the python twin's degree filter, loosened to skip every graph whose
    # degree bounds stay below two above the cut, skips graphs above the
    # threshold: the spot check, which runs that filter, must then fail
    monkeypatch.setattr(kernels, "degree_skips", _sweep_py.degree_skips)
    assert _prefilter_spot_check(6, THR6)["passed"]
    skip = _sweep_py._degree_skip
    monkeypatch.setattr(_sweep_py, "_degree_skip",
                        lambda n, rows, degs, cut: skip(n, rows, degs, cut + 2))
    got = _prefilter_spot_check(6, THR6)
    assert not got["passed"] and got["max_q_among_skipped"] >= THR6, got


def test_report_json_roundtrip_and_diff():
    rep = verify_theorem_main(6)
    back = Report.from_json(rep.to_json())
    assert report_diff(rep, back) == []
    other = verify_theorem_main(6, threshold_offset=-0.5)
    diffs = report_diff(rep, other)
    assert diffs and any("counterexamples" in d for d in diffs)
    # report_diff compares values, so a body whose keys moved reads clean
    # there; the stored-body tests compare body_text, which sees the move
    moved = Report.from_json(rep.to_json())
    moved.details[0] = dict(reversed(moved.details[0].items()))
    assert report_diff(rep, moved) == []
    assert body_text(moved.to_json()) != body_text(rep.to_json())


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
    # a unit or range bug in the sweep would miss or double-count masks:
    # order 6 runs serially at any job count, order 7 serially at jobs 1 and
    # as its 63 top-row units on threads at jobs 2
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
    # leaves gives the same float index as q_index on each graph; the kernel
    # leaves one sorted mask, the threshold graph, which weighs its 30 or
    # 210 labeled copies
    thr = q_index(extremal_graph(n).graph).q
    _, _, rest = verifier._sweep_classified(n, thr, test, 1)
    graphs = [graph_from_mask(n, mask) for mask in rest]
    assert [arrangement_count(g.degrees()) for g in graphs] == [{6: 30, 7: 210}[n]]
    for g, qv in zip(graphs, verifier.q_indices(graphs), strict=True):
        assert abs(qv - q_index(g).q) <= 1e-12


def test_threshold_leftover_reads_the_threshold_bit_for_bit(monkeypatch):
    # the threshold and the tail's leftovers come from the same routine:
    # the float index the tail's batch gives the threshold graph's own
    # leftover is the threshold itself, so the graph sits in the tie band
    # at distance 0 from it, not at a rounding error's
    index = verifier.q_indices
    solved = []

    def recorded(graphs):
        qs = index(graphs)
        solved.append((list(graphs), qs))
        return qs

    for n in (6, 7):
        ext, thr, test, rule = verifier._sweep_rule("theorem", n, {})
        rest = verifier._sweep_classified(n, thr, test, 1)[2]
        solved.clear()
        monkeypatch.setattr(verifier, "q_indices", recorded)
        verifier._tail(n, rest, ext, thr, rule)
        monkeypatch.undo()
        [(graphs, qs)] = solved
        own = [qv for g, qv in zip(graphs, qs) if g == ext]
        assert [qv.hex() for qv in own] == [verifier._threshold_constants(n)[1].hex()]


def _patch_bindings(monkeypatch, fn, wrapper):
    """Patch every chordspec module global bound to fn with wrapper, so that
    a call is seen whichever module makes it."""
    for name, module in list(sys.modules.items()):
        if name.startswith("chordspec"):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)


def test_no_sweep_or_appendix_call_reaches_q_index(monkeypatch):
    # every float index a sweep or the appendix compares comes from
    # q_indices, the thresholds too: with the threshold constants emptied,
    # no call reaches q_index, through any module's binding
    verifier._threshold_constants.cache_clear()
    index = spectral.q_index
    indexed = []
    _patch_bindings(monkeypatch, index, lambda g: indexed.append(g) or index(g))
    assert verify_theorem_main(6).passed
    assert verify_corollary(7).passed
    verify_appendix(7, 14)
    assert indexed == []


def _count_tail_calls(monkeypatch, kernel_test, searcher):
    """Count the verifier's calls of q_indices, q_exact_compare,
    graph_from_mask and is_isomorphic, every characteristic polynomial built
    for an exact comparison, and the kernel chord test and the reference
    searcher as the verifier calls them (the python kernel calls the
    searchers too, through its own reference): (counts by name, adjacency
    rows the kernel test saw, graphs the searcher saw)."""
    calls = {}
    for module, name in ((verifier, "q_indices"), (verifier, "q_exact_compare"),
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


def _reset(calls, *seen):
    """Zero the counts and empty the lists of _count_tail_calls, for a
    second run in the same process."""
    calls.update(dict.fromkeys(calls, 0))
    for items in seen:
        items.clear()


def test_theorem_settles_its_ties_without_per_tie_eigensolves(monkeypatch):
    # the sweep's tie band at order 6 is one sorted mask that weighs the 30
    # labeled copies of the threshold graph; it takes the rule once: one
    # exact comparison, one kernel apex test, one searcher call and the
    # rule's closing isomorphism test with the threshold graph. Each run
    # makes one batched q_indices call for the tail and one for the spot
    # check; the threshold's call is made by the first run of the process
    # and read by later runs. The leftover mask has the
    # threshold graph's own rows, so that isomorphism test and the exact
    # comparison of the threshold graph with itself are settled by
    # equality, with no polynomial built. The spot check builds the graphs
    # it eigensolves with graph_from_mask too, on every run, though only the
    # first draws its sample
    verifier._threshold_constants.cache_clear()
    verifier._spot_check_draws.cache_clear()
    calls, tested, searched = _count_tail_calls(
        monkeypatch, "apex_has_config", "find_k_chords_at_apex")
    for q_indices_calls in (3, 2):
        _reset(calls, tested, searched)
        assert verify_theorem_main(6).extremal_hits == 30
        assert calls == {"q_indices": q_indices_calls, "q_exact_compare": 1,
                         "graph_from_mask": 1 + SPOT_CHECK_SOLVED[6], "is_isomorphic": 1,
                         "charpoly_int_matrix": 0}
        assert tested == [extremal_graph(6).graph.rows]
        assert searched == [extremal_graph(6).graph]


def test_corollary_settles_its_ties_once(monkeypatch):
    # at order 7 the corollary's tie band is one sorted mask that weighs the
    # 210 copies of the threshold graph: one exact comparison, of the
    # threshold graph with itself and so settled with no polynomial, decides
    # that the class sits on the threshold, where no chord test runs and
    # one isomorphism test, settled by equality, names it extremal. Each
    # run makes one batched q_indices call for the tail; the threshold's
    # call is made by the first run of the process only
    verifier._threshold_constants.cache_clear()
    calls, tested, searched = _count_tail_calls(
        monkeypatch, "chorded_has", "find_chorded_cycle")
    for q_indices_calls in (2, 1):
        _reset(calls, tested, searched)
        assert verify_corollary(7).extremal_hits == 210
        assert calls == {"q_indices": q_indices_calls, "q_exact_compare": 1,
                         "graph_from_mask": 1, "is_isomorphic": 1,
                         "charpoly_int_matrix": 0}
        assert tested == searched == []


@pytest.mark.parametrize("task", ["theorem", "corollary"])
def test_order_8_decides_its_class_of_ties_once(monkeypatch, task):
    # at order 8 the kernel leaves 31 sorted masks: the threshold graph's
    # (its 420 labeled copies) and the 30 sorted labelings of one graph
    # with degrees 5,5,5,5,5,5,1,1 whose index ties the threshold exactly.
    # All 31 sit in the tie band, and each is matched by isomorphism to the
    # first leftover there of its class, which alone takes the rule: the
    # rule runs twice, once for the threshold graph and once for the tie.
    # The first tie compares exactly with the threshold graph, building a
    # pair of polynomials and comparing their largest roots, beside the
    # threshold graph's comparison with itself, settled by equality
    # (deciding each leftover on its own made 30 comparisons). Isomorphism
    # tests: 29 tied labelings matched to the first, the threshold graph's
    # one test against the tie, and the rule's closing test with the
    # threshold graph (the corollary's ties, on the threshold, make one more).
    # Each run makes one batched q_indices call for the tail, and the
    # theorem one more for its spot check; the threshold's call is made by
    # the first run of the process only. The theorem's spot check builds
    # the graphs it eigensolves with graph_from_mask too, on every run,
    # though only the first draws its sample
    _, thr, test, _ = verifier._sweep_rule(task, 8, {})
    searcher = {"theorem": "find_k_chords_at_apex", "corollary": "find_chorded_cycle"}[task]
    rest = verifier._sweep_classified(8, thr, test, 1)[2]
    assert sorted({graph_from_mask(8, mask).degrees() for mask in rest}) == [
        (5, 5, 5, 5, 5, 5, 1, 1), (7, 7, 3, 3, 2, 2, 2, 2)] and len(rest) == 31
    verifier._threshold_constants.cache_clear()
    verifier._spot_check_draws.cache_clear()
    calls, tested, searched = _count_tail_calls(monkeypatch, test[0], searcher)
    compare = spectral.compare_largest_roots
    compared = []
    monkeypatch.setattr(spectral, "compare_largest_roots",
                        lambda p, q: compared.append((p, q)) or compare(p, q))
    rule_name = f"_{task}_rule"
    rule = getattr(verifier, rule_name)
    ruled = []
    monkeypatch.setattr(verifier, rule_name,
                        lambda g, *args, **kwargs: ruled.append(g) or rule(g, *args, **kwargs))
    ext = extremal_graph(8).graph
    spot_check = 1 if task == "theorem" else 0
    for q_indices_calls in (2 + spot_check, 1 + spot_check):
        _reset(calls, tested, searched, compared, ruled)
        rep = verify_theorem_main(8) if task == "theorem" else verify_corollary(8)
        assert rep.passed and rep.extremal_hits == 420
        assert len(compared) == 1 and compared[0][0] != compared[0][1]
        assert [g.degrees() for g in ruled] == [
            (5, 5, 5, 5, 5, 5, 1, 1), (7, 7, 3, 3, 2, 2, 2, 2)]
        assert calls == {"q_indices": q_indices_calls, "q_exact_compare": 2,
                         "graph_from_mask":
                             31 + (SPOT_CHECK_SOLVED[8] if task == "theorem" else 0),
                         "is_isomorphic": 31 if task == "theorem" else 32,
                         "charpoly_int_matrix": 2}
        if task == "theorem":
            # the tie, first in mask order, is configured by the kernel and
            # the threshold graph is extremal
            assert tested[1] == ext.rows and len(tested) == 2
            assert searched == [ext]
        else:
            assert tested == searched == []


def test_only_identical_pairs_reach_the_sturm_brackets(monkeypatch):
    # the traffic that compare_largest_roots's plain bisection rests on: the
    # theorem at order 6 compares only the threshold graph with itself, which
    # q_exact_compare settles with no polynomial, so no pair reaches it; the
    # sign certificate settles each of the appendix's 196 fan-chain pairs at
    # orders 7..22, with no bracket; and every pair that reaches the
    # brackets (_bracket_largest_root) is identical
    compare = polynomials.compare_largest_roots
    bracket = polynomials._bracket_largest_root
    bracketed = []
    calls = []  # (p == q, brackets built) per comparison

    def counted(p, q, estimates=None):
        before = len(bracketed)
        verdict = compare(p, q, estimates)
        calls.append((p == q, len(bracketed) - before))
        return verdict

    monkeypatch.setattr(polynomials, "_bracket_largest_root",
                        lambda p: bracketed.append(p) or bracket(p))
    _patch_bindings(monkeypatch, compare, counted)
    traffic = {}
    for task, run in (("theorem", lambda: verify_theorem_main(6)),
                      ("appendix", lambda: verify_appendix(7, 22)),
                      ("properties", lambda: property_suite(7, 150))):
        calls.clear()
        bracketed.clear()
        run()
        traffic[task] = list(calls)
        assert sum(built for _, built in calls) == len(bracketed), task
        assert all(same for same, built in calls if built), (task, calls)
    assert traffic["theorem"] == []
    assert traffic["appendix"] == [(False, 0)] * 196


def test_sweep_ties_are_identical_pairs_or_the_order_8_tie(monkeypatch):
    # the traffic that q_exact_compare's passing no estimates rests on: the
    # theorem at orders 6, 7 and 8 and the corollary at 7 and 8 make 7 exact
    # comparisons. Five are of the threshold graph with itself, settled by
    # equal rows; the other two, one per task at order 8, are of the
    # threshold graph with the tie band's graph of degrees
    # 5,5,5,5,5,5,1,1, whose index equals the threshold's. No pair is
    # separated, so no sign certificate could settle one, and none is tried.
    # A change that sends separated pairs into the tie band fails here,
    # rather than bisecting them
    compare = verifier.q_exact_compare
    compared, certified = [], []

    def counted(g, h):
        verdict = compare(g, h)
        compared.append((g, h, verdict))
        return verdict

    monkeypatch.setattr(verifier, "q_exact_compare", counted)
    certify = polynomials._certified_below
    monkeypatch.setattr(polynomials, "_certified_below",
                        lambda *args: certified.append(args) or certify(*args))
    for n in (6, 7, 8):
        assert verify_theorem_main(n).passed
    for n in (7, 8):
        assert verify_corollary(n).passed
    assert certified == []
    assert len(compared) == 7
    assert [g.n for g, h, _ in compared if g == h] == [6, 7, 8, 7, 8]
    ties = [(g, h, verdict) for g, h, verdict in compared if g != h]
    assert len(ties) == 2
    ext = extremal_graph(8).graph
    for g, h, verdict in ties:
        assert sorted([g.degrees(), h.degrees()]) == [
            (5, 5, 5, 5, 5, 5, 1, 1), (7, 7, 3, 3, 2, 2, 2, 2)]
        assert ext in (g, h)
        assert verdict == EQUAL == oracle_compare_largest_roots(
            spectral.charpoly_graph(g), spectral.charpoly_graph(h))


@pytest.mark.parametrize("offset", [0.0, -0.5, -2.0])
def test_replay_agrees_with_the_tail_on_every_leftover_mask(monkeypatch, offset):
    # replay runs the sweep's own rule on the sweep's own float index: over
    # every labeled graph the sorted masks the kernel leaves at order 6
    # stand for, it reports exactly the counterexamples the tail reports
    params = {"threshold_offset": offset}
    _, thr, test, _ = verifier._sweep_rule("theorem", 6, params)
    _, _, rest = verifier._sweep_classified(6, thr, test, 1)
    found = set(verify_theorem_main(6, threshold_offset=offset).counterexamples)
    assert len(found) == {0.0: 0, -0.5: 15, -2.0: 8895}[offset]
    labeled = [graph6_encode(h) for m in rest for h in arrangement_images(graph_from_mask(6, m))]
    assert len(labeled) == {0.0: 30, -0.5: 45, -2.0: 8925}[offset]
    # the replays compute the threshold's index once between them, not once
    # a replay, and each replay its graph's index alone
    verifier._threshold_constants.cache_clear()
    index = verifier.q_indices
    indexed = []
    monkeypatch.setattr(verifier, "q_indices",
                        lambda gs: indexed.append(list(gs)) or index(gs))
    replayed = {g6 for g6 in labeled if replay_counterexample("theorem", g6, params)}
    assert replayed == found
    assert indexed == [[extremal_graph(6).graph]] + [[graph6_decode(g6)] for g6 in labeled]


@pytest.mark.parametrize("n, offset", [(6, -2.0), (7, -0.5), (8, 0.0)])
def test_tail_decides_as_each_leftover_alone(n, offset):
    # below a lowered threshold the kernel leaves many classes (204 sorted
    # masks with 29 degree sequences at order 6, 25 with 10 at order 7),
    # none in the tie band; at order 8 the 30 tied labelings of one graph
    # share one verdict. Either way the tail gives the weighted counts and
    # the counterexamples, in order, that the rule gives each leftover alone
    ext, thr, test, rule = verifier._sweep_rule("theorem", n, {"threshold_offset": offset})
    _, _, rest = verifier._sweep_classified(n, thr, test, 1)
    counts, counterexamples = Counter(), []
    for mask in rest:
        g = graph_from_mask(n, mask)
        verdict = rule(g, q_index(g).q, ext)
        counts[verdict] += arrangement_count(g.degrees())
        if verdict == "counterexample":
            counterexamples += [graph6_encode(h) for h in arrangement_images(g)]
    if offset:
        assert counts["counterexample"] and counts["extremal"]
    else:
        assert counts == {"extremal": 420, "configured": 840}
    assert verifier._tail(n, rest, ext, thr, rule) == (counts, counterexamples)


def _dropped_last_factor(degrees):
    # arrangement_count without the factor m! of the last run of m equal
    # (sorted) degrees
    return arrangement_count(degrees) * math.factorial(degrees.count(degrees[-1]))


# the kernel's weight without the factor of its last run of equal degrees,
# and its prune with the bound i in place of the j - 1 edges that a vertex
# i < j can still gain: (source text, its replacement), or for the python
# weight the function that replaces arrangement_count in the twin
MUTANTS = {
    ("compiled", "weight"): ("weight /= factorial[i - start];",
                             "if (i < n) weight /= factorial[i - start];"),
    ("compiled", "prune"): ("+ more >= d", "+ i >= d"),
    ("python", "weight"): _dropped_last_factor,
    ("python", "prune"): ("+ more <", "+ i <"),
}


def _mutant_classify(kernel, mutation, tmp_path):
    """classify of the kernel built from its source with the mutation."""
    edit = MUTANTS[kernel, mutation]
    if kernel == "compiled":
        if kernels.compiler() is None:
            pytest.skip("no C compiler on PATH")
        source = kernels.SOURCE.read_text()
        assert edit[0] in source
        mutant = tmp_path / "_sweep.c"
        mutant.write_text(source.replace(*edit))
        return kernels.build(mutant, tmp_path / "cache").classify
    source = Path(_sweep_py.__file__).read_text()
    if callable(edit):
        edit = ("from .graphs import Graph, apex_partition, arrangement_count,",
                "from .graphs import Graph, apex_partition,")
    assert edit[0] in source
    module = SimpleNamespace(__name__="chordspec._sweep_mutant", __package__="chordspec",
                             arrangement_count=MUTANTS[kernel, mutation])
    exec(compile(source.replace(*edit), "_sweep_mutant.py", "exec"), vars(module))
    return module.classify


@pytest.mark.parametrize("kernel, mutation", sorted(MUTANTS),
                         ids=[f"{k}-{m}" for k, m in sorted(MUTANTS)])
def test_sweep_coverage_check_catches_a_kernel_mutation(kernel, mutation, monkeypatch, tmp_path):
    # the sweep's weighted count of graphs without isolated vertices must be
    # the closed form: a kernel that drops a weight factor or prunes graphs
    # it must visit fails the run, at each swept order it is run on
    monkeypatch.setattr(kernels, "classify", _mutant_classify(kernel, mutation, tmp_path))
    for n, test in ((6, ("apex_has_config", 3)), (7, ("chorded_has", 3))):
        thr = q_index(extremal_graph(n).graph).q
        with pytest.raises(VerifierError, match="without isolated vertices"):
            verifier._sweep_classified(n, thr, test, 1)
    monkeypatch.undo()
    assert verifier._sweep_classified(6, THR6, ("apex_has_config", 3), 1)[0] == 27449


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


def _claims_agree_with_the_twin(g, comp):
    """The graph g with a new apex z joined to the vertex mask comp, so that
    comp is a component of G[Z+] at z when it has an edge, with a vertex of W
    on each vertex of comp and one on all of comp. Each kernel's structural
    violations of that graph, at the default caps and at every cap 0, 1 and
    2, equal those of the python twin, whose classify_component the catalog
    tests pin."""
    z, ws = g.n, range(g.n + 1, g.n + 2 + comp.bit_count())
    edges = g.edges() + [(z, v) for v in bits_to_vertices(comp)]
    edges += zip(ws, bits_to_vertices(comp))
    edges += [(ws[-1], v) for v in bits_to_vertices(comp)]
    rows = make_graph(ws[-1] + 1, edges).rows
    for caps in (DEFAULT_CAPS, (0,) * 5, (1,) * 5, (2,) * 5):
        for label, impl in IMPLEMENTATIONS:
            assert impl.structural_violations(rows, caps) == \
                _sweep_py.structural_violations(rows, caps), (label, g.rows, comp, caps)


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
    # each kernel reads each of these components as the twin does
    for g, comp in ((star(4), 0b11111), (ds, 0b1111111), (sp, 0b11111),
                    (complete(3), 0b111), (cycle(4), 0b1111), (c4_plus(), 0b1111),
                    (complete(4), 0b1111), (make_graph(3, [(1, 2)]), 0b110),
                    (path(5), 0b11111), (cycle(5), 0b11111), (bull, 0b11111)):
        _claims_agree_with_the_twin(g, comp)


def test_classify_component_keeps_labels():
    g = disjoint_union(make_graph(2), star_plus(3))
    info = classify_component(g, 0b111100)
    assert info["kind"] == "star_plus" and info["center"] == 2
    assert info["pair"] == 0b011000 and info["pendants"] == 0b100000
    _claims_agree_with_the_twin(g, 0b111100)


def test_claim_probes_match_hand_analysis():
    # at-cap probes are configuration-free; one-past-cap probes are not
    from chordspec.chords import find_k_chords_at_apex

    for kind, cap in DEFAULT_CLAIM_CAPS.items():
        assert find_k_chords_at_apex(build_claim_probe(kind, cap), 3) is None
        assert find_k_chords_at_apex(build_claim_probe(kind, cap + 1), 3) is not None


def test_default_caps_are_in_the_kernels_order():
    assert tuple(DEFAULT_CLAIM_CAPS) == _sweep_py.CLAIM_CAPS


def test_structural_claims_hold_on_threshold_graph():
    """All neighborhood caps hold on the threshold graph itself, vacuously at
    a universal apex (empty W) and substantively at low-degree apexes, on
    both kernels."""
    g = k11n2_plus(7).graph
    for label, impl in IMPLEMENTATIONS:
        assert impl.structural_violations(g.rows, DEFAULT_CAPS) == (0, 0), label
    assert not apex_partition(g, 0)[2] and not apex_partition(g, 1)[2]  # universal
    assert any(apex_partition(g, z)[2] for z in range(g.n))


# sha256 of the per-graph (cap, catalog) violation counts below, taken from
# the claim checks as they stood when apex partitions were still vertex sets
STRUCTURAL_COUNTS = "1beabc5aaf92bf3667ee6d9e13cb016c8f76dcb6fe047011d87bf9c4a80bc1fd"


def test_structural_violation_counts_are_pinned():
    """The claim checks of each kernel, counted on 1,500 seeded draws of
    order 3..11 under the default caps and under every cap at 0, 1 and 2;
    the tighter caps make nearly every claim-1 and claim-2 branch fire."""
    settings = [DEFAULT_CAPS, (0,) * 5, (1,) * 5, (2,) * 5]
    rng = random.Random(20261019)
    graphs = [oracle_sample(rng, 3, 11) for _ in range(1500)]
    for label, impl in IMPLEMENTATIONS:
        counts = [[impl.structural_violations(g.rows, caps) for g in graphs]
                  for caps in settings]
        assert sum(a + b for row in counts for a, b in row) == 18658, label
        digest = hashlib.sha256(json.dumps(counts).encode()).hexdigest()
        assert digest == STRUCTURAL_COUNTS, label


@pytest.mark.parametrize(
    "impl", [impl for _, impl in IMPLEMENTATIONS],
    ids=[label for label, _ in IMPLEMENTATIONS],
)
def test_sample_draws_as_the_per_slot_loop(impl, monkeypatch):
    # _sample through each kernel's sample_rows against the per-slot loop it
    # replays: the same graph and the same generator state after every draw,
    # over 300 seeds, two draws at each order 1..12, whose edge probabilities
    # cover every stratum at every order
    class Logged(random.Random):
        def choice(self, seq):
            self.chosen = super().choice(seq)
            return self.chosen

    seen = set()
    monkeypatch.setattr(kernels, "sample_rows", impl.sample_rows)
    for seed in range(300):
        rng, ref = random.Random(seed), Logged(seed)
        for n in range(1, 13):
            for _ in range(2):
                assert properties._sample(rng, n, n) == oracle_sample(ref, n, n), (seed, n)
                assert rng.getstate() == ref.getstate(), (seed, n)
                seen.add((n, ref.chosen))
        assert properties._sample(rng, 3, 11) == oracle_sample(ref, 3, 11), seed
        assert rng.getstate() == ref.getstate(), seed
    assert seen == {(n, p) for n in range(1, 13) for p in _P_STRATA}
    # and orders 0 to 64, whose slots take up to 129,024 bits in one draw
    rng, ref = random.Random(64), random.Random(64)
    for _ in range(40):
        assert properties._sample(rng, 0, 64) == oracle_sample(ref, 0, 64)
        assert rng.getstate() == ref.getstate()
    # the order's draw and the stratum's take randint's and choice's bit
    # counts and draw again a value at or above the bound; order 3 draws
    # its three slots' 192 bits at once
    asked, values = [], iter((3, 1, 3, 2, 0))
    take = lambda bits: asked.append(bits) or next(values)  # noqa: E731
    assert impl.sample_rows(take, 2, 4, (0.2, 0.4, 0.6)) == (0b110, 0b101, 0b011)
    assert asked == [2, 2, 2, 2, 192]


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
# sha256 of edge monotonicity's (graph, graph plus one edge) pairs in the same
# run: rng.choice makes the same generator calls whatever order the non-edges
# are listed in, so only this pins which edge the lemma adds
MONOTONE_PAIRS_SEED7 = "3d16d480b50a9757ecb5c073584f68f4f853a78487113bed7a591f8de0bc5426"


def test_property_suite_draws_are_pinned(monkeypatch):
    """A passing report does not show which graphs the lemmas drew, so the
    draws are pinned here: a digest of the generator state and the graph at
    every `_sample` call (the structural claims' draws included), every
    graph the structural claims' apex test sees and every graph the
    verifier hands the configuration searcher; and a digest of the pairs the
    Perron shift checks and of those edge monotonicity checks."""
    assert _property_draws_digest(monkeypatch) == (
        True, PROPERTY_DRAWS_SEED7, PERRON_SHIFTS_SEED7, MONOTONE_PAIRS_SEED7)


def test_a_flipped_perron_order_moves_the_draw_digest(monkeypatch):
    # the Perron shift takes its orientation from kernels.perron_order when
    # that certifies one. The pairs it is asked about are not nested, so each
    # orientation moves a nonempty edge set of its own, and flipping any one
    # certified sign changes the pairs the shift checks; the first one also
    # changes the generator state of every later draw. Every certified call
    # of the unflipped run is flipped in turn. A flipped shift may lower the
    # index, so the suite may fail
    perron_order = kernels.perron_order
    certified = []

    def record(rows, u, v):
        order = perron_order(rows, u, v)
        if order:
            certified.append((rows, u, v))
        return order

    with monkeypatch.context() as patch:
        patch.setattr(kernels, "perron_order", record)
        _property_draws_digest(patch)
    calls = len(certified)
    assert calls > 0
    for target in range(calls):
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
            _, draws, shifts, _ = _property_draws_digest(patch)
        assert len(certified) > target
        assert shifts != PERRON_SHIFTS_SEED7, target
        assert target or draws != PROPERTY_DRAWS_SEED7


def _property_draws_digest(monkeypatch):
    """(passed, the digests that PROPERTY_DRAWS_SEED7, PERRON_SHIFTS_SEED7
    and MONOTONE_PAIRS_SEED7 pin) of property_suite(seed=7, trials=25). Only
    the verifier's own calls are traced: the python kernel's apex test
    reaches the configuration searcher too, untraced, so both kernels give
    one digest."""
    trace, shifts, monotone = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    sample = properties._sample
    check_shift, check_monotone = properties.check_shift, properties.check_monotone
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

    def traced(check, digest):
        def check_pairs(samples):
            for g, h in samples:
                digest.update(f"{graph6_encode(g)} {graph6_encode(h)}\n".encode())
            return check(samples)
        return check_pairs

    monkeypatch.setattr(properties, "_sample", traced_sample)
    monkeypatch.setattr(properties, "check_shift", traced(check_shift, shifts))
    monkeypatch.setattr(properties, "check_monotone", traced(check_monotone, monotone))
    monkeypatch.setattr(kernels, "apex_has_config", traced_apex)
    monkeypatch.setattr(properties, "chords", SimpleNamespace(
        **{**vars(chords), "find_k_chords_at_apex": traced_find}))
    passed = property_suite(seed=7, trials=25).passed
    return passed, trace.hexdigest(), shifts.hexdigest(), monotone.hexdigest()


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


def test_q_index_serves_only_the_perron_shift_fallback(monkeypatch):
    # the suite's float indices all come from q_indices; q_index is called
    # only where a vector is needed: by draw_shift, on a connected graph,
    # right after the kernel's perron_order left that graph's pair undecided
    perron_order = kernels.perron_order
    last_order = []

    def recorded_order(rows, u, v):
        order = perron_order(rows, u, v)
        last_order[:] = [(rows, order)]
        return order

    index = spectral.q_index
    indexed = []

    def recorded_index(g):
        indexed.append((sys._getframe(1).f_code.co_name, g, list(last_order)))
        return index(g)

    monkeypatch.setattr(kernels, "perron_order", recorded_order)
    _patch_bindings(monkeypatch, index, recorded_index)
    assert property_suite(7, 25).passed
    assert indexed
    for caller, g, order in indexed:
        assert caller == "draw_shift"
        assert is_connected(g)
        assert order == [(g.rows, 0)]


def test_a_nested_pair_has_the_larger_perron_entry_on_the_larger_side():
    # the rule draw_shift skips its eigensolve on: for S = N(u) - v and T =
    # N(v) - u with T a proper subset of S on a connected graph,
    # (q + [uv] - d_u)(x_u - x_v) = (d_u - d_v) x_v + sum over S - T of x_w
    # > 0 and q > d_u, so x_u > x_v. Every connected graph of the networkx
    # atlas (orders 2..7), every ordered pair of that kind
    nx = pytest.importorskip("networkx")
    nested = 0
    for atlas_graph in nx.graph_atlas_g():
        n = atlas_graph.number_of_nodes()
        if n < 2 or not nx.is_connected(atlas_graph):
            continue
        g = make_graph(n, list(atlas_graph.edges()))
        x = q_index(g).vector
        for u in range(n):
            for v in range(n):
                su, sv = g.rows[u] & ~(1 << v), g.rows[v] & ~(1 << u)
                if u != v and su & sv == sv != su:
                    assert x[u] > x[v], (g.rows, u, v)
                    nested += 1
    assert nested == 7838


def test_perron_shift_sends_no_nested_pair_to_perron_order(monkeypatch):
    # draw_shift redraws a nested pair (one of N(u) - v and N(v) - u holds
    # the other) before any eigensolve, so perron_order sees none; the pairs
    # it leaves undecided, and so the q_index fallbacks, are those of the
    # draws before the nested pairs skipped it: one at seed 7, 25 trials
    perron_order = kernels.perron_order
    seen = []

    def recorded_order(rows, u, v):
        order = perron_order(rows, u, v)
        seen.append((rows, u, v, order))
        return order

    index = spectral.q_index
    indexed = []
    monkeypatch.setattr(kernels, "perron_order", recorded_order)
    _patch_bindings(monkeypatch, index, lambda g: indexed.append(g) or index(g))
    assert property_suite(7, 25).passed
    assert len(seen) == 25
    for rows, u, v, _ in seen:
        su, sv = rows[u] & ~(1 << v), rows[v] & ~(1 << u)
        assert su & sv not in (su, sv), (rows, u, v)
    assert len(indexed) == sum(order == 0 for *_, order in seen) == 1


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


# (check, a sample that violates its lemma, a patch that makes it violate)
LEMMA_VIOLATIONS = [
    # the larger graph first: K4 and K4 minus an edge
    ("check_monotone", (complete(4), complete(4).remove_edges([(0, 1)])), None),
    ("check_shift", (cycle(5), cycle(5)), None),  # nothing shifted
    # eta(v) = 4 on C5, below a patched index of 25
    ("check_eta", cycle(5), (properties, "q_indices", lambda graphs: [25.0] * len(graphs))),
    ("check_longest_cycle", (complete(5), (3, (0, 1, 2))), None),  # a triangle of K5
    ("check_configured", cycle(10), None),
    # K3 read as holding no path on three vertices
    ("check_path_free", complete(3), (kernels, "max_path_order", lambda rows: 2)),
    # the outside vertex, in W of the hub, meets the K4 once: over a k4 cap of 0
    ("check_structure", build_claim_probe("k4", 1), None),
]


@pytest.mark.parametrize("check, sample, patch", LEMMA_VIOLATIONS,
                         ids=[case[0] for case in LEMMA_VIOLATIONS])
def test_each_lemma_check_returns_a_violating_sample(check, sample, patch, monkeypatch):
    # each randomized lemma's check, called outside the suite on one sample
    # that violates the lemma, returns the sample's graph. Where the lemma
    # holds on every graph, a patched index or path order makes it violate
    if patch:
        monkeypatch.setattr(*patch)
    graph = sample[0] if isinstance(sample, tuple) else sample
    if check != "check_structure":
        assert getattr(properties, check)([sample]) == [graph]
        return
    tally = {"cap_violations": 0, "catalog_violations": 0}
    assert properties.check_structure([sample], tally, DEFAULT_CAPS) == []
    assert tally == {"cap_violations": 0, "catalog_violations": 0}
    caps = tuple({**DEFAULT_CLAIM_CAPS, "k4": 0}.values())
    assert properties.check_structure([sample], tally, caps) == [graph]
    assert tally["cap_violations"] > 0 and tally["catalog_violations"] == 0


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
    # the threshold graphs and the fixture graphs each reach q_indices once
    # per call, also where the fan-width chains revisit a fixture graph
    seen = []
    index = appendix.q_indices
    monkeypatch.setattr(appendix, "q_indices", lambda gs: seen.extend(gs) or index(gs))
    for _ in range(2):
        seen.clear()
        verify_appendix(7, 14)
        assert seen and len(seen) == len(set(seen))


def test_appendix_builds_each_template_once(monkeypatch):
    # the identity block and the equitable-partition block share one
    # template per (item, n, s) within a call
    seen = []
    template = appendix.quotient_template
    monkeypatch.setattr(
        appendix, "quotient_template", lambda *key: seen.append(key) or template(*key)
    )
    for _ in range(2):
        seen.clear()
        verify_appendix(7, 14)
        assert seen and len(seen) == len(set(seen))


def test_appendix_batches_its_polynomials_and_fixture_indices(monkeypatch):
    # every template polynomial comes from at most two batched calls, every
    # fixture graph's index and each order's threshold from one q_indices
    # call, and every Perron root from at most two perron_roots calls; the
    # fan-width chains take their estimates from those roots, so q_index is
    # not called
    batches, index_batches, root_batches, single = [], [], [], []
    charpolys, q_indices, q_index_, perron_roots = (
        appendix.charpoly_int_matrices, appendix.q_indices, spectral.q_index,
        appendix.perron_roots)
    monkeypatch.setattr(appendix, "charpoly_int_matrices",
                        lambda ms: batches.append(len(ms)) or charpolys(ms))
    monkeypatch.setattr(appendix, "q_indices",
                        lambda gs: index_batches.append(list(gs)) or q_indices(gs))
    _patch_bindings(monkeypatch, q_index_, lambda g: single.append(g) or q_index_(g))
    monkeypatch.setattr(appendix, "perron_roots",
                        lambda ms: root_batches.append(list(ms)) or perron_roots(ms))
    report = verify_appendix(7, 22)
    assert 1 <= len(batches) <= 2
    # (b)'s templates and (d)'s sixteen threshold templates
    checked = next(d["checked"] for d in report.details
                   if d["name"] == "template_charpoly_identities")
    assert sum(batches) == checked + 16
    fixtures = [g for fx in FIXTURES for *_, g in fixture_graphs(fx, 7, 22)]
    assert index_batches == [fixtures + [k11n2_plus(n).graph for n in range(7, 23)]]
    assert single == []
    assert 1 <= len(root_batches) <= 2
    # each fixture graph's and each threshold graph's quotient is equitable,
    # and its Perron root comes from those calls
    assert sum(map(len, root_batches)) >= len(fixtures) + 16
    root_batches.clear()
    assert appendix.equitable_quotient_fixtures()["passed"]
    assert len(root_batches) == 1


def test_appendix_builds_each_closed_form_once(monkeypatch):
    # the fan-width chains read their closed forms from the identity block
    seen = []
    closed_form = appendix.appendix_polynomial
    monkeypatch.setattr(
        appendix, "appendix_polynomial", lambda *key: seen.append(key) or closed_form(*key)
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
    indices = appendix.q_indices

    def forced(graphs):
        qs = indices(graphs)
        q_narrow = qs[graphs.index(narrow)]
        return [q_narrow - 5e-10 if g == wide else q for g, q in zip(graphs, qs)]

    monkeypatch.setattr(appendix, "q_indices", forced)
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
    # jobs=2 sweeps the 63 top-row units of order 7 on threads
    a = verify_theorem_main(7).to_json_dict()
    b = verify_theorem_main(7, jobs=2).to_json_dict()
    a.pop("wall_time_ms")
    b.pop("wall_time_ms")
    assert a == b


def _fake_pool(monkeypatch):
    """Replace the sweep's thread pool by one that maps in the calling
    thread and starts none; returns the max_workers of each pool built and
    the items each map call is given."""
    import concurrent.futures

    workers, mapped = [], []

    class FakePool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            mapped.append(list(items))
            return map(fn, mapped[-1])

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", FakePool)
    return workers, mapped


def test_jobs_are_capped_at_the_usable_cpus(monkeypatch):
    """A job count far above the CPUs asks the pool for no more worker
    threads than there are CPUs, as more cannot sweep at once. Order 7 is
    swept by top-row units, so it still builds a pool when there is more
    than one CPU."""
    import os

    workers, _ = _fake_pool(monkeypatch)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    a = verify_theorem_main(7).to_json_dict()
    b = verify_theorem_main(7, jobs=10**6).to_json_dict()
    a.pop("wall_time_ms")
    b.pop("wall_time_ms")
    assert a == b
    assert all(1 < w <= cpus for w in workers) and len(workers) == (cpus > 1)


def _counted_classify(monkeypatch):
    """Wrap kernels.classify; returns the (lo, hi) of each call."""
    ranges, classify = [], kernels.classify

    def counted(n, lo, hi, *rest):
        ranges.append((lo, hi))
        return classify(n, lo, hi, *rest)

    monkeypatch.setattr(kernels, "classify", counted)
    return ranges


def test_order_6_sweeps_in_one_call_and_builds_no_pool(monkeypatch):
    # order 6 is swept in one classify call in the calling thread at any job
    # count, even with CPUs to spare, and gives the serial body
    workers, _ = _fake_pool(monkeypatch)
    monkeypatch.setattr(verifier, "_usable_cpus", lambda: 8)
    ranges = _counted_classify(monkeypatch)
    a = verify_theorem_main(6).to_json_dict()
    a.pop("wall_time_ms")
    for jobs in (2, 10**6):
        b = verify_theorem_main(6, jobs=jobs).to_json_dict()
        b.pop("wall_time_ms")
        assert a == b
    assert workers == []
    assert ranges == [(0, 1 << 15)] * 3


def test_order_7_pool_maps_the_top_row_units_in_order(monkeypatch):
    # unit r covers the masks whose row 6 is r: [r, r + 1) * 2^15 for
    # r = 1 .. 63, handed to the pool in ascending r; row 6 = 0 is skipped
    workers, mapped = _fake_pool(monkeypatch)
    monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
    ranges = _counted_classify(monkeypatch)
    thr = verifier._threshold_constants(7)[1]
    serial = verifier._sweep_classified(7, thr, ("apex_has_config", 3), 1)
    assert verifier._sweep_classified(7, thr, ("apex_has_config", 3), 2) == serial
    units = [(r << 15, r + 1 << 15) for r in range(1, 64)]
    assert workers == [2] and mapped == [units]
    assert ranges == [(0, 1 << 21)] + units


def test_a_dropped_unit_fails_the_closed_form_count(monkeypatch):
    # a unit whose result is lost (here the last, where vertex 6 meets every
    # other vertex) leaves the weighted count short of the closed form
    classify = kernels.classify

    def dropping(n, lo, hi, *rest):
        out = classify(n, lo, hi, *rest)
        return (0, 0, []) if hi == 1 << 21 else out

    monkeypatch.setattr(kernels, "classify", dropping)
    monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
    thr = verifier._threshold_constants(7)[1]
    with pytest.raises(VerifierError, match="without isolated vertices"):
        verifier._sweep_classified(7, thr, ("apex_has_config", 3), 2)


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
    # the stored benchmark report's JSON text, keys in order, except
    # wall_time_ms, so a moved RNG draw, a changed count or a moved key fails
    # here, not only in a benchmark run
    assert body_text(run().to_json()) == body_text((EXPECTED / stored).read_text())
