"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
tolerance and runtime budget is pinned here.
"""

import random
import time
from pathlib import Path

from chordspec.appendix import verify_appendix
from chordspec.chords import find_chorded_cycle, find_k_chords_at_apex
from chordspec.families import (
    c4_plus,
    complete,
    double_star,
    g_graph,
    k1_join_k1_k4s,
    k1_join_k2_k4s,
    k1_join_k4_union_k1,
    k1_join_k4s,
    k11n2_plus,
)
from chordspec.graphs import make_graph
from chordspec.graphs import disjoint_union, graph_from_mask, join
from chordspec.properties import property_suite
from chordspec.spectral import q_index
from chordspec.verifier import (
    Report,
    report_diff,
    verify_corollary,
    verify_theorem_main,
)
from oracles import body_text, oracle_apex_chords, oracle_chorded, replay_counterexample

SEED = 20260810
# report bodies of the property suite runs below, compared as JSON text
# without wall_time_ms, so that a moved key fails as a changed value does
GOLDEN = Path(__file__).resolve().parent / "golden"


def _assert_golden(rep, stored: str) -> None:
    text = (GOLDEN / stored).read_text()
    assert body_text(rep.to_json()) == body_text(text), report_diff(Report.from_json(text), rep)


def _line(name: str, ok: bool, extra: str = "") -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {extra}".rstrip())


def test_criterion_1_reference_value_regression():
    """Every four-decimal reference index reproduces within 5e-4, under 1s."""
    k1 = make_graph(1)
    cases = [
        ("K1v(K4uK1)", k1_join_k4_union_k1().graph, 8.2749),
        ("K+114", k11n2_plus(6).graph, 7.7588),
        ("K1v(C4+uK1)", join(k1, disjoint_union(c4_plus(), make_graph(1))), 7.7264),
        ("K1vS12", join(k1, double_star(1, 2)), 7.1156),
        ("K1v(K3uK2)",
         join(k1, disjoint_union(complete(3), make_graph(2, [(0, 1)]))), 7.0),
        ("G10@7", g_graph(10, 7).graph, 8.2351),
        ("K+115", k11n2_plus(7).graph, 8.7355),
        ("G11@8", g_graph(11, 8).graph, 9.0478),
        ("K+116", k11n2_plus(8).graph, 9.7324),
        ("K1v2K4", k1_join_k4s(9).graph, 10.3723),
        ("K+117", k11n2_plus(9).graph, 10.7381),
        ("K1v(K1u2K4)", k1_join_k1_k4s(10).graph, 11.0666),
        ("K+118", k11n2_plus(10).graph, 11.7474),
        ("K1v(K2uK4)", k1_join_k2_k4s(7).graph, 8.7016),
    ]
    t0 = time.perf_counter()
    bad = []
    for label, g, want in cases:
        got = q_index(g).q
        if abs(got - want) > 5e-4:
            bad.append((label, got, want))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 1.0
    _line("1-reference-values", ok, f"({len(cases)} values, {elapsed:.2f}s)")
    assert not bad, bad
    assert elapsed < 1.0, elapsed


def test_criterion_2_theorem_exhaustive():
    """Orders 6 and 7 verify with zero counterexamples; 30 extremal hits at
    order 6; order-7 runtime within 10 minutes single-threaded."""
    t0 = time.perf_counter()
    r6 = verify_theorem_main(6)
    r7 = verify_theorem_main(7)
    elapsed = time.perf_counter() - t0
    ok = (
        r6.passed
        and r7.passed
        and not r6.counterexamples
        and not r7.counterexamples
        and r6.extremal_hits == 30
        and elapsed < 600
    )
    _line(
        "2-theorem-exhaustive",
        ok,
        f"(n=6 hits={r6.extremal_hits}, n=7 hits={r7.extremal_hits}, "
        f"{r6.graphs_examined + r7.graphs_examined} graphs, {elapsed:.1f}s)",
    )
    assert r6.passed and r6.extremal_hits == 30
    assert r7.passed and not r7.counterexamples
    assert elapsed < 600


def test_criterion_3_corollary_exhaustive():
    t0 = time.perf_counter()
    rep = verify_corollary(7)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and not rep.counterexamples and elapsed < 900
    _line("3-corollary", ok, f"({rep.graphs_examined} graphs, {elapsed:.1f}s)")
    assert rep.passed and not rep.counterexamples
    assert elapsed < 900


def test_criterion_4_appendix_identity_suite():
    """Template charpolys equal the closed forms exactly, all fixture
    partitions are equitable with |lambda(B) - q| <= 1e-8, and every strict
    index inequality against the threshold family holds; within 2 minutes."""
    t0 = time.perf_counter()
    rep = verify_appendix(7, 30)
    elapsed = time.perf_counter() - t0
    by_name = {d["name"]: d for d in rep.details}
    required = [
        "template_charpoly_identities",
        "equitable_partitions",
        "quotient_radius_matches_index",
        "index_below_threshold_family",
        "threshold_family_bound",
    ]
    ok = all(by_name[k]["passed"] for k in required) and elapsed < 120
    _line(
        "4-appendix-identities",
        ok,
        f"({by_name['template_charpoly_identities']['checked']} identities, "
        f"{by_name['equitable_partitions']['checked']} partitions, "
        f"{elapsed:.1f}s)",
    )
    for k in required:
        assert by_name[k]["passed"], (k, by_name[k])
    assert elapsed < 120
    # the fan-width chains are not part of this criterion; the report is
    # expected to flag the hub-star-pack chain as false (see the verifier
    # tests that pin the exact violation set)
    assert by_name["fan_width_monotone_chain_g12"]["passed"]


def test_criterion_5_detector_oracle_equivalence():
    """Both detectors agree with the brute-force cycle-enumeration oracle on
    every graph with n <= 6 and on 1e5 seeded random graphs with n in 7..8."""
    t0 = time.perf_counter()
    disagreements = 0
    examined = 0
    for n in range(3, 7):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = graph_from_mask(n, mask)
            examined += 1
            if (find_k_chords_at_apex(g, 3) is not None) != oracle_apex_chords(g, 3):
                disagreements += 1
            if (find_chorded_cycle(g, 3) is not None) != oracle_chorded(g, 3):
                disagreements += 1
    rng = random.Random(SEED)
    for _ in range(10**5):
        n = rng.randint(7, 8)
        p = rng.choice((0.2, 0.4, 0.6, 0.8))
        nbits = n * (n - 1) // 2
        mask = 0
        for b in range(nbits):
            if rng.random() < p:
                mask |= 1 << b
        g = graph_from_mask(n, mask)
        examined += 1
        if (find_k_chords_at_apex(g, 3) is not None) != oracle_apex_chords(g, 3):
            disagreements += 1
        if (find_chorded_cycle(g, 3) is not None) != oracle_chorded(g, 3):
            disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0
    _line(
        "5-detector-oracle-equivalence",
        ok,
        f"({examined} graphs, {disagreements} disagreements, {elapsed:.1f}s)",
    )
    assert disagreements == 0


def test_criterion_6_lemma_property_suites():
    """1e4 seeded trials per randomized suite, zero violations."""
    t0 = time.perf_counter()
    rep = property_suite(seed=SEED, trials=10**4)
    elapsed = time.perf_counter() - t0
    counts = {
        d["name"]: d.get("trials", d.get("checked", d.get("range")))
        for d in rep.details
    }
    ok = rep.passed and not rep.counterexamples
    _line("6-lemma-property-suites", ok, f"({counts}, {elapsed:.1f}s)")
    for d in rep.details:
        assert d["passed"], d
    assert not rep.counterexamples
    _assert_golden(rep, "properties-seed20260810-trials10000.json")


def test_criterion_7_mutation_sensitivity():
    """Lowering the order-6 threshold by 0.5 and corrupting the K4 claim cap
    must both flip their reports to fail (and the counterexamples must
    reproduce in isolation)."""
    lowered = verify_theorem_main(6, threshold_offset=-0.5)
    replays = all(
        replay_counterexample("theorem", g6, {"threshold_offset": -0.5})
        for g6 in lowered.counterexamples
    )
    corrupted = property_suite(seed=SEED, trials=200, claim_caps={"k4": 2})
    clean = property_suite(seed=SEED, trials=200)
    ok = (
        not lowered.passed
        and bool(lowered.counterexamples)
        and replays
        and not corrupted.passed
        and clean.passed
    )
    _line(
        "7-mutation-sensitivity",
        ok,
        f"(threshold counterexamples={len(lowered.counterexamples)}, "
        f"battery fails under k4->2, clean run passes)",
    )
    assert not lowered.passed and lowered.counterexamples and replays
    assert not corrupted.passed
    assert clean.passed
    _assert_golden(corrupted, "properties-seed20260810-trials200-k4cap2.json")
