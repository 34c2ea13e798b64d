"""The randomized property suite: the lemmas behind the proof, checked on
seeded samples, plus fixed checks.

The samples are stratified over edge probabilities {0.2, 0.4, 0.6, 0.8};
identical (task, params, seed) inputs produce identical reports except for
wall_time_ms. The two fixed checks that read the appendix's data live in
``appendix``.
"""

from __future__ import annotations

import functools
import random
import time

from . import chords, kernels
from .appendix import equitable_quotient_fixtures, threshold_family_lower_bound
from .families import (
    c4_plus,
    complete,
    complete_multipartite,
    cycle,
    double_star,
    star,
    star_plus,
)
from .graphs import (
    Graph,
    bits_to_vertices,
    disjoint_union,
    edge_counts,
    graph6_encode,
    join,
    make_graph,
)
from .polynomials import LESS
from .spectral import max_eta, q_index, q_indices
from .verifier import Report, VerifierError, _order

# the claim-1 caps, in the order kernels.structural_violations takes them
DEFAULT_CLAIM_CAPS = {
    "big_star_center": 2,  # w adjacent to the center of a star with >= 3 leaves
    "double_star": 3,
    "star_plus": 3,  # star-plus-one-edge with >= 3 leaves
    "c4_plus": 2,
    "k4": 1,
}

_P_STRATA = (0.2, 0.4, 0.6, 0.8)


def _sample(rng: random.Random, n_lo: int, n_hi: int) -> Graph:
    """A graph of order rng.randint(n_lo, n_hi) whose edge slots, in
    ``index_pairs`` order, are each an edge when one rng.random() is below p
    = rng.choice(_P_STRATA): the draws ``kernels.sample_rows`` replays."""
    rows = kernels.sample_rows(rng.getrandbits, n_lo, n_hi, _P_STRATA)
    return Graph(len(rows), rows)


# -- Claim-1 boundary probes ---------------------------------------------------------

_PROBE_PRIORITY = {
    # the body graph, joined fully to the hub, and the order in which the
    # outside vertex picks up neighbors as the allowed degree grows
    "big_star_center": (star(3), (0, 1, 2, 3)),  # center first, then leaves
    "double_star": (double_star(1, 2), (0, 1, 2, 3)),  # centers, then leaves
    "star_plus": (star_plus(3), (1, 2, 3, 0)),  # edge pair, pendant, center
    "c4_plus": (c4_plus(), (1, 3, 0, 2)),  # degree-two corners first
    "k4": (complete(4), (0, 1, 2, 3)),
}


def build_claim_probe(kind: str, w_degree: int) -> Graph:
    """Hub joined to one catalog body, plus an outside vertex adjacent to the
    first w_degree body vertices in the kind's priority order."""
    body, priority = _PROBE_PRIORITY[kind]
    if w_degree > len(priority):
        raise VerifierError(f"probe degree {w_degree} exceeds body of {kind}")
    hub_plus_body = join(make_graph(1), body)  # hub is vertex 0, body 1..
    g = disjoint_union(hub_plus_body, make_graph(1))  # outside vertex is last
    w = g.n - 1
    return g.add_edges((w, 1 + priority[t]) for t in range(w_degree))


def claim_boundary_battery(caps: dict) -> dict:
    """At the stated cap the probe must be configuration-free; one past the
    cap the detector must find the configuration."""
    failures = []
    for kind, cap in caps.items():
        at_cap = build_claim_probe(kind, cap)
        above = build_claim_probe(kind, cap + 1)
        if chords.find_k_chords_at_apex(at_cap, 3) is not None:
            failures.append(f"{kind}: configuration already at degree {cap}")
        cert = chords.find_k_chords_at_apex(above, 3)
        if cert is None or not chords.verify_certificate(above, cert, 3, True):
            failures.append(f"{kind}: no configuration at degree {cap + 1}")
    # fixed sub-rule boundaries (not cap-parameterized); probe layout is
    # hub 0, body 1..4, outside vertex 5
    center_only = build_claim_probe("star_plus", 0).add_edges([(5, 1)])
    if chords.find_k_chords_at_apex(center_only, 3) is not None:
        failures.append("star-plus center-only contact should be free")
    center_pendant = center_only.add_edges([(5, 4)])
    if chords.find_k_chords_at_apex(center_pendant, 3) is None:
        failures.append("star-plus center+pendant contact should configure")
    mixed = build_claim_probe("c4_plus", 0).add_edges([(5, 1), (5, 2)])
    if chords.find_k_chords_at_apex(mixed, 3) is None:
        failures.append("c4-plus mixed-degree contact should configure")
    return {
        "name": "claim_boundary_battery",
        "passed": not failures,
        "failures": failures,
    }


# -- the suite's lemmas ----------------------------------------------------------------
#
# Each randomized lemma is a draw and a check. draw(rng) makes every
# generator call of one trial and returns its sample, or None to redraw;
# check(samples) takes the samples of up to _TRIAL_BATCH trials, in draw
# order, so that it can batch their eigensolves, and returns the violating
# graphs among them.


def _eta_violated(g: Graph, q: float) -> bool:
    """Whether g, of float index q, breaks the eta bound or its counting form
    eta(v) <= n + 2 e(N(v)) / d(v). ``kernels.eta_check`` decides the form
    and gives the largest eta(v) as num / den, which rounds the same quotient
    as float(max_eta(g)); the bound is q <= num / den, up to 1e-10.
    """
    violated, num, den = kernels.eta_check(g.rows)
    return violated or q > num / den + 1e-10


# Adding an edge never lowers the index, and strictly raises it when the
# larger graph is connected.
def draw_with_non_edge(rng: random.Random):
    g = _sample(rng, 4, 10)
    # (i, j), i < j, ascending: the bits of i's complemented row above i
    non_edges = [(i, j) for i, row in enumerate(g.rows)
                 for j in bits_to_vertices(~row & ((1 << g.n) - (2 << i)))]
    return (g, g.add_edges([rng.choice(non_edges)])) if non_edges else None


def check_monotone(samples) -> list[Graph]:
    qs = q_indices([g for g, _ in samples] + [bigger for _, bigger in samples])
    bad = []
    for (g, bigger), q0, q1 in zip(samples, qs, qs[len(samples):]):
        ok = q1 >= q0 - 1e-10
        if ok and kernels.component_count(bigger.rows) <= 1:
            ok = _order(g, q0, bigger, q1) == LESS
        if not ok:
            bad.append(g)
    return bad


# Shifting a neighbor set from v onto a vertex with the larger Perron entry
# strictly raises the index.
def draw_shift(rng: random.Random):
    # redraw until the trial admits a nonempty shift set
    g = _sample(rng, 4, 10)
    rows = g.rows
    if kernels.component_count(rows) > 1:
        return None
    u, v = kernels.sample_range(rng.getrandbits, g.n, 2)
    su, sv = rows[u] & ~(1 << v), rows[v] & ~(1 << u)
    if su & sv in (su, sv):
        # nested: when N(v) - u lies inside N(u) - v, x_u >= x_v (equal on
        # twins), so u takes the shift and v has no neighbour off N[u] to
        # give; the same holds the other way round
        return None
    # u takes the larger Perron entry: the kernel's certified order, else
    # the order of eigh's vector
    order = kernels.perron_order(rows, u, v)
    if order == 0:
        x = q_index(g).vector
        order = -1 if x[u] < x[v] else 1
    if order < 0:
        u, v = v, u
    # nonempty, since neither side's set holds the other's
    pool = list(bits_to_vertices(rows[v] & ~rows[u] & ~(1 << u)))
    moved = [pool[j] for j in kernels.sample_range(rng.getrandbits, len(pool),
                                                   rng.randint(1, len(pool)))]
    return g, g.remove_edges((v, w) for w in moved).add_edges((u, w) for w in moved)


def check_shift(samples) -> list[Graph]:
    qs = q_indices([h for pair in samples for h in pair])
    return [g for (g, shifted), q0, q1 in zip(samples, qs[::2], qs[1::2])
            if _order(g, q0, shifted, q1) != LESS]


# The index is at most the largest degree-average eta(v), with equality on
# cycles, cliques and complete bipartite graphs. Also the counting form:
# eta(v) <= n + 2 e(neighborhood) / d(v).
def draw_without_isolated(rng: random.Random):
    g = _sample(rng, 4, 10)
    return g if g.min_degree > 0 else None


def check_eta(samples) -> list[Graph]:
    return [g for g, q in zip(samples, q_indices(samples)) if _eta_violated(g, q)]


def eta_equality_failures() -> list[str]:
    """The graphs on which the eta bound should be an equality and is not."""
    equalities = [("cycle9", cycle(9)), ("cycle6", cycle(6)), ("clique7", complete(7)),
                  ("bipartite3x4", complete_multipartite(3, 4)),
                  ("bipartite2x5", complete_multipartite(2, 5))]
    return [label for (label, g), qv in zip(equalities, q_indices([g for _, g in equalities]))
            if abs(qv - float(max_eta(g))) > 1e-9]


# At most c(n-c)/2 edges avoid a longest cycle (c its length).
def draw_cyclic(rng: random.Random):
    g = _sample(rng, 4, 12)
    # quick cyclicity screen before the heavier search
    if g.edge_count > g.n - kernels.component_count(g.rows):
        found = kernels.longest_cycle(g.rows)
        if found is not None:
            c, cyc = found
            # the kernel's cycle is a witness: check it before using it
            if c != len(cyc) or not chords.verify_certificate(
                    g, chords.Certificate(cyc, ()), 0, False):
                raise VerifierError(
                    f"longest_cycle kernel returned {found!r}, not a cycle of "
                    f"{graph6_encode(g)}")
            return g, found
    return None


def check_longest_cycle(samples) -> list[Graph]:
    return [g for g, (c, cyc) in samples
            if 2 * (g.edge_count - edge_counts(g, cyc, cyc)) > c * (g.n - c)]


# Above 4n - 16 edges the three-chord apex configuration is unavoidable
# (orders 10..14).
def draw_dense(rng: random.Random) -> Graph:
    n = rng.randint(10, 14)
    slots = n * (n - 1) // 2
    e = rng.randint(4 * n - 15, slots)
    return Graph(n, kernels.slot_rows(n, kernels.sample_range(rng.getrandbits, slots, e)))


def check_configured(samples) -> list[Graph]:
    bad = []
    for g in samples:
        cert = chords.find_k_chords_at_apex(g, 3)
        if cert is None or not chords.verify_certificate(g, cert, 3, True):
            bad.append(g)
    return bad


# Without a path on k+2 vertices there are at most nk/2 edges, with equality
# on disjoint unions of (k+1)-cliques.
def draw_any(rng: random.Random) -> Graph:
    return _sample(rng, 3, 12)


def check_path_free(samples) -> list[Graph]:
    bad = []
    for g in samples:
        k = kernels.max_path_order(g.rows) - 1
        if k >= 1 and 2 * g.edge_count > g.n * k:
            bad.append(g)
    return bad


def path_free_equality_failures() -> list[str]:
    """The clique unions on which the path bound should be an equality and is
    not."""
    bad = []
    for k, copies in ((2, 3), (3, 2), (4, 2)):
        g = complete(k + 1)
        for _ in range(copies - 1):
            g = disjoint_union(g, complete(k + 1))
        if 2 * g.edge_count != g.n * k or kernels.max_path_order(g.rows) != k + 1:
            bad.append(f"{copies}x clique{k + 1}")
    return bad


# The structural claims on configuration-free samples; check_structure also
# adds each sample's counts to the runner's tally.
def draw_free(rng: random.Random):
    g = _sample(rng, 4, 10)
    return None if kernels.apex_has_config(g.rows, 3) else g


def check_structure(samples, tally: dict, caps: tuple[int, ...]) -> list[Graph]:
    """caps: the claim-1 caps, in DEFAULT_CLAIM_CAPS order."""
    bad = []
    for g in samples:
        cap_here, catalog_here = kernels.structural_violations(g.rows, caps)
        tally["cap_violations"] += cap_here
        tally["catalog_violations"] += catalog_here
        if cap_here or catalog_here:
            bad.append(g)
    return bad


_TRIAL_BATCH = 1024  # samples checked at once; bounds the samples a run holds


def _run_lemma(name: str, rng_seed: int, trials: int, draw, check,
               tally: dict | None = None, **equality_failures):
    """One lemma's seeded trials, as (its detail, trials run, violating
    graphs). A trial is skipped after 30 draws in a row return None. The
    detail counts the violating graphs, or, with a tally, holds the tally's
    counts, which check(samples, tally) adds to. A lemma fails on a
    violating graph or on any equality failure."""
    rng, used, bad = random.Random(rng_seed), 0, []
    for start in range(0, trials, _TRIAL_BATCH):
        samples = []
        for _ in range(min(_TRIAL_BATCH, trials - start)):
            for _attempt in range(30):
                sample = draw(rng)
                if sample is not None:
                    samples.append(sample)
                    break
        used += len(samples)
        bad += check(samples) if tally is None else check(samples, tally)
    counts = {"violations": len(bad)} if tally is None else tally
    return ({"name": name, "passed": not bad and not any(equality_failures.values()),
             "trials": used, **counts, **equality_failures}, used, bad)


def property_suite(seed: int, trials: int, *, claim_caps: dict | None = None) -> Report:
    """Randomized checks of the supporting lemmas plus the structural claims
    on configuration-free samples, and three fixed checks. Seeded and
    deterministic. Each randomized lemma is a module-level draw and check
    that _run_lemma runs on a generator of its own, seeded seed * 37 + the
    lemma's salt; each fixed check is a module-level function, here or in
    ``appendix``, that returns its detail. The report's details are theirs,
    in this order, its graphs examined the trials run and its
    counterexamples the violating graphs."""
    if trials < 1:
        raise VerifierError("trials must be >= 1")
    caps = {**DEFAULT_CLAIM_CAPS, **(claim_caps or {})}
    t0 = time.perf_counter()
    base, cap_values = seed * 37, tuple(caps[name] for name in DEFAULT_CLAIM_CAPS)
    runs = [
        _run_lemma("edge_monotonicity", base + 101, trials, draw_with_non_edge, check_monotone),
        _run_lemma("perron_shift", base + 202, trials, draw_shift, check_shift),
        (equitable_quotient_fixtures(), 0, []),
        _run_lemma("eta_upper_bound", base + 303, trials, draw_without_isolated, check_eta,
                   equality_failures=eta_equality_failures()),
        _run_lemma("longest_cycle_edge_bound", base + 404, trials, draw_cyclic,
                   check_longest_cycle),
        _run_lemma("edge_count_forces_configuration", base + 505, trials, draw_dense,
                   check_configured),
        _run_lemma("path_free_edge_bound", base + 606, trials, draw_any, check_path_free,
                   equality_failures=path_free_equality_failures()),
        (threshold_family_lower_bound(), 0, []),
        _run_lemma("structural_claims", base + 707, trials, draw_free,
                   functools.partial(check_structure, caps=cap_values),
                   tally={"cap_violations": 0, "catalog_violations": 0}),
        (claim_boundary_battery(caps), 0, []),
    ]
    params: dict = {"seed": seed, "trials": trials}
    if claim_caps:
        params["claim_caps"] = dict(sorted(caps.items()))
    return Report(
        task="properties",
        params=params,
        graphs_examined=sum(used for _, used, _ in runs),
        counterexamples=sorted({graph6_encode(g) for *_, bad in runs for g in bad}),
        details=[detail for detail, *_ in runs],
        wall_time_ms=(time.perf_counter() - t0) * 1000,
    )
