#!/usr/bin/env python3
"""Benchmark the compiled sweep kernels (sweep, survivor classification,
apex detector, longest cycle, longest path, Perron entry order, the property
suite's random graphs (against the random.Random loop they replay too), its
samples of a range (against random.sample too), its dense draws' edge slot
rows, component counts, its eta checks and its structural claims, and the
float indices of batches of random graphs) against the pure-Python
fallback, the theorem's prefilter spot check at orders 6 to 8 (with the
skipped graphs it eigensolves; its first call, which draws the
sample, against the later ones), the theorem's and the corollary's Python
tails on the tie band the kernel leaves at orders 6 to 8, `verify theorem
--n 6` through the CLI in one process (its first call, which builds the
parser and the order's threshold constants and draws the spot check's
sample, against the later ones), exact characteristic polynomials (one matrix a call and
batched), the exact largest-root comparison (with the pairs its sign certificate settles and
those left to the Sturm chains, and exact ties between distinct
polynomials at orders 6 and 7, with the bracket halvings they take),
`verify appendix` over orders 7..22 whole and then block by block, and one
end-to-end property suite at 10,000 trials, then each of its lemmas and
fixed checks on its own.

The sweeps visit only the degree-sorted masks of their range (852 at order
6, 15,822 at order 7 and 585,786 at order 8), so their rates are sorted
graphs per second. The sweep and the theorem's classify pass run over the
whole of orders 7 and 8 on both implementations, whose results must agree,
and on 1 and 2 worker threads, next to the CPUs this process may use, with
the order cut into the verifier's top-row units; so does the theorem's
whole order-8 sweep (`_sweep_classified` with 1 and 2 jobs). On a 2-vCPU
VM the fallback takes 10.8 to 11.4 s for each order-8 pass (`sweep_range`
and `classify`) and 12.8 to 12.9 s for the threaded-units pass.

Usage: python benchmarks/bench_kernels.py
"""

from __future__ import annotations

import functools
import io
import math
import random
import statistics
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stderr, redirect_stdout

from chordspec import cli, kernels, polynomials
from chordspec.appendix import (
    APPENDIX_BLOCKS,
    FIXTURES,
    AppendixRun,
    appendix_polynomial,
    equitable_quotient_fixtures,
    fan_chain,
    fixture_graphs,
    quotient_template,
    template_keys,
    threshold_family_lower_bound,
    threshold_quotient_template,
    verify_appendix,
)
from chordspec.families import extremal_graph
from chordspec.graphs import (
    arrangement_count,
    arrangement_images,
    disjoint_union,
    graph_from_mask,
    is_isomorphic,
    make_graph,
)
from chordspec.polynomials import EQUAL, LESS, compare_largest_roots
from chordspec.properties import (
    DEFAULT_CLAIM_CAPS,
    _P_STRATA,
    _run_lemma,
    _sample,
    check_configured,
    check_eta,
    check_longest_cycle,
    check_monotone,
    check_path_free,
    check_shift,
    check_structure,
    claim_boundary_battery,
    draw_any,
    draw_cyclic,
    draw_dense,
    draw_free,
    draw_shift,
    draw_with_non_edge,
    draw_without_isolated,
    eta_equality_failures,
    path_free_equality_failures,
    property_suite,
)
from chordspec.spectral import (
    charpoly_graph,
    charpoly_int_matrices,
    charpoly_int_matrix,
    perron_roots,
    q_index,
    signless_laplacian,
)
from chordspec.verifier import (
    _SWEPT_ORDERS,
    TIE_BAND,
    _prefilter_spot_check,
    _spot_check_draws,
    _sweep_classified,
    _sweep_rule,
    _tail,
    _threshold_constants,
    _top_row_units,
    _usable_cpus,
    verify_theorem_main,
)


def time_call(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


@functools.cache
def sorted_count(n, lo, hi):
    """The degree-sorted masks in [lo, hi), the ones classify visits: its
    leftovers with both cuts at -inf and no test."""
    return len(kernels.classify(n, lo, hi, -math.inf, -math.inf, None)[2])


def bench_sweep(impls, n, lo, hi, floor):
    print(f"sweep n={n} masks=[{lo}, {hi}) floor={floor:.4f}, "
          f"{sorted_count(n, lo, hi)} sorted")
    base = None
    for label, impl in impls:
        dt, (cnt, _, surv) = time_call(impl.classify, n, lo, hi, floor, floor, None)
        rate = sorted_count(n, lo, hi) / dt
        print(f"  {label:9s} {dt:8.3f}s  {rate:10.0f} sorted graphs/s  "
              f"no-isolated={cnt} survivors={len(surv)}")
        if base is None:
            base = (cnt, surv)
        else:
            assert base == (cnt, surv), "implementations disagree"


def bench_classify(impls, n, lo, hi, thr):
    """classify on the masks in [lo, hi), as the theorem runs it."""
    print(f"classify n={n} masks=[{lo}, {hi}), cuts threshold +- {TIE_BAND}")
    base = None
    for label, impl in impls:
        dt, out = time_call(impl.classify, n, lo, hi, thr - TIE_BAND, thr + TIE_BAND,
                            ("apex_has_config", 3))
        print(f"  {label:9s} {dt:8.3f}s  {sorted_count(n, lo, hi) / dt:10.0f} sorted graphs/s  "
              f"no-isolated={out[0]} hits={out[1]} rest={len(out[2])}")
        if base is None:
            base = out
        else:
            assert base == out, "implementations disagree"


def bench_classify_threads(label, impl, n, thr):
    """classify on the whole of order n, as the theorem runs it, cut into
    its top-row units, which 1 and then 2 worker threads take in turn: wall
    and CPU time of each, and the speed-up of 2 threads over 1."""
    cuts = thr - TIE_BAND, thr + TIE_BAND
    units = _top_row_units(n)

    def unit(bounds):
        return impl.classify(n, *bounds, *cuts, ("apex_has_config", 3))

    print(f"classify n={n} in {len(units)} top-row units, {label}, "
          f"usable CPUs={_usable_cpus()}")
    base = None
    for workers in (1, 2):
        cpu0, t0 = time.process_time(), time.perf_counter()
        with ThreadPoolExecutor(max_workers=workers) as pool:
            out = list(pool.map(unit, units))
        dt, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        if base is None:
            base = dt, out
        else:
            assert base[1] == out, "thread counts disagree"
        print(f"  threads={workers} {dt:8.3f}s  cpu {cpu:6.2f}s  "
              f"{sorted_count(n, 0, 1 << n * (n - 1) // 2) / dt:10.0f} sorted graphs/s  "
              f"speed-up {base[0] / dt:4.2f}")


def bench_sweep_jobs(n=8, min_seconds=1.0):
    """The theorem's whole kernel sweep at order n (_sweep_classified) with 1
    and 2 jobs, repeated for min_seconds each: median time a call. Above
    order 6 its jobs=2 line times the threads, one kernel pass a top-row
    unit; order 6 runs serially at any job count."""
    thr = _threshold_constants(n)[1]
    split = f"{len(_top_row_units(n))} top-row units" if n > 6 else "one call at any jobs"
    print(f"theorem sweep n={n} (_sweep_classified), {split}, usable CPUs={_usable_cpus()}")
    base = None
    for jobs in (1, 2):
        times = []

        def one_call():
            t0 = time.perf_counter()
            out = _sweep_classified(n, thr, ("apex_has_config", 3), jobs)
            times.append(time.perf_counter() - t0)
            return out

        calls, _, out = repeat_for(min_seconds, one_call)
        print(f"  jobs={jobs} {statistics.median(times) * 1e3:8.2f} ms a call (median of {calls})")
        if base is None:
            base = out
        else:
            assert base == out, "job counts disagree"


def bench_detector(impls, trials=20000, seed=7):
    """apex_has_config on the adjacency rows of random graphs, built before
    the clock starts."""
    print(f"apex detector, {trials} random order-7/8 graphs")
    rng = random.Random(seed)
    rows = []
    for _ in range(trials):
        n = rng.randint(7, 8)
        rows.append(graph_from_mask(n, rng.getrandbits(n * (n - 1) // 2)).rows)
    base = None
    for label, impl in impls:
        t0 = time.perf_counter()
        hits = sum(1 for r in rows if impl.apex_has_config(r, 3))
        dt = time.perf_counter() - t0
        print(f"  {label:9s} {dt:8.2f}s  {trials / dt:9.0f} graphs/s  hits={hits}")
        if base is None:
            base = hits
        else:
            assert base == hits, "implementations disagree"


def bench_row_searches(impls, draws=3000, seed=7):
    """longest_cycle and max_path_order on the property suite's own random
    graphs of orders 4..12 (each edge present with probability 0.2 to 0.8)."""
    rng = random.Random(seed)
    rows = [_sample(rng, 4, 12).rows for _ in range(draws)]
    print(f"longest cycle and longest path, {draws} random order-4..12 graphs")
    for name in ("longest_cycle", "max_path_order"):
        base = None
        for label, impl in impls:
            search = getattr(impl, name)
            t0 = time.perf_counter()
            out = [search(r) for r in rows]
            dt = time.perf_counter() - t0
            print(f"  {name:15s} {label:9s} {dt:8.3f}s  {draws / dt:9.0f} graphs/s")
            if base is None:
                base = out
            else:
                assert base == out, "implementations disagree"


def bench_perron_order(impls, draws=3000, seed=7):
    """perron_order on the pairs the Perron shift sends it: connected random
    graphs of orders 4..10 and a random pair of vertices that is not nested
    (neither of N(u) - v and N(v) - u holds the other). Every decided sign
    must be the order of eigh's Perron entries (q_index)."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < draws:
        g = _sample(rng, 4, 10)
        u, v = rng.sample(range(g.n), 2)
        su, sv = g.rows[u] & ~(1 << v), g.rows[v] & ~(1 << u)
        if kernels.component_count(g.rows) <= 1 and su & sv not in (su, sv):
            cases.append((g, u, v))
    print(f"Perron entry order, {draws} connected random order-4..10 graphs, "
          f"pairs not nested")
    for label, impl in impls:
        t0 = time.perf_counter()
        out = [impl.perron_order(g.rows, u, v) for g, u, v in cases]
        dt = time.perf_counter() - t0
        print(f"  {label:9s} {dt:8.3f}s  {draws / dt:9.0f} graphs/s  "
              f"undecided={out.count(0) / draws:.1%}")
        for (g, u, v), order in zip(cases, out):
            if order:
                x = q_index(g).vector
                assert order == (1 if x[u] > x[v] else -1), (g.rows, u, v, order)


def bench_sample_range(impls, draws=10000, seed=7):
    """sample_range on the suite's own samples, against random.sample on a
    generator seeded alike: the dense draws' edge slots (4n - 15 to C(n,2) of
    C(n,2), n in 10..14), the Perron shift's pair of 4..10 vertices and a
    moved set of 1..10 from a pool of 1..10. Each must give random.sample's
    samples and leave its generator in the same state."""
    picks = random.Random(seed)
    cases = []
    for _ in range(draws):
        n = picks.randint(10, 14)
        slots = n * (n - 1) // 2
        pool = picks.randint(1, 10)
        cases += [(slots, picks.randint(4 * n - 15, slots)), (picks.randint(4, 10), 2),
                  (pool, picks.randint(1, pool))]
    print(f"range samples, {len(cases)} dense-slot, pair and moved-set samples "
          f"({sum(k for _, k in cases)} values)")
    rng = random.Random(seed)
    sample = rng.sample
    t0 = time.perf_counter()
    base = [sample(range(n), k) for n, k in cases]
    dt = time.perf_counter() - t0
    print(f"  {'random.sample':13s} {dt:8.3f}s  {len(cases) / dt:9.0f} samples/s")
    base = base, rng.getstate()
    for label, impl in impls:
        rng = random.Random(seed)
        getrandbits, sample_range = rng.getrandbits, impl.sample_range
        t0 = time.perf_counter()
        out = [sample_range(getrandbits, n, k) for n, k in cases]
        dt = time.perf_counter() - t0
        print(f"  {label:13s} {dt:8.3f}s  {len(cases) / dt:9.0f} samples/s")
        assert base == (out, rng.getstate()), "sample_range is not random.sample"


def bench_sample_rows(impls, draws=10000, seed=7):
    """sample_rows on the property suite's own draws, _sample's orders 4..10
    and edge probabilities from _P_STRATA, against the loop of random.Random
    calls it replays (randint, choice, then one random() per edge slot in
    index_pairs order) on a generator seeded alike: each implementation must
    give the loop's graphs and leave its generator in the same state."""
    rng = random.Random(seed)
    randint, choice, rand = rng.randint, rng.choice, rng.random
    t0 = time.perf_counter()
    base = []
    for _ in range(draws):
        n, p = randint(4, 10), choice(_P_STRATA)
        adj = [0] * n
        for j in range(1, n):
            for i in range(j):
                if rand() < p:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        base.append(tuple(adj))
    dt = time.perf_counter() - t0
    print(f"random graphs, {draws} draws of orders 4..10 "
          f"({sum(len(r) * (len(r) - 1) // 2 for r in base)} edge slots)")
    print(f"  {'random.Random':13s} {dt:8.3f}s  {draws / dt:9.0f} graphs/s")
    base = base, rng.getstate()
    for label, impl in impls:
        rng = random.Random(seed)
        getrandbits, sample_rows = rng.getrandbits, impl.sample_rows
        t0 = time.perf_counter()
        out = [sample_rows(getrandbits, 4, 10, _P_STRATA) for _ in range(draws)]
        dt = time.perf_counter() - t0
        print(f"  {label:13s} {dt:8.3f}s  {draws / dt:9.0f} graphs/s")
        assert base == (out, rng.getstate()), "sample_rows is not the random.Random loop"


def bench_eta_check(impls, draws=10000, seed=7):
    """eta_check on the eta bound's own samples: the graphs of orders 4..10
    without isolated vertices that property_suite(seed) draws for it; both
    implementations must agree."""
    rng = random.Random(seed * 37 + 303)
    rows = []
    while len(rows) < draws:
        g = draw_without_isolated(rng)
        if g is not None:
            rows.append(g.rows)
    print(f"eta checks, {draws} order-4..10 graphs without isolated vertices")
    base = None
    for label, impl in impls:
        t0 = time.perf_counter()
        out = [impl.eta_check(r) for r in rows]
        dt = time.perf_counter() - t0
        print(f"  {label:9s} {dt:8.3f}s  {draws / dt:9.0f} graphs/s  "
              f"violated={sum(v for v, _, _ in out)}")
        if base is None:
            base = out
        else:
            assert base == out, "implementations disagree"


def bench_q_indices(impls, graphs=300, seed=7, orders=(6, 10, 22, 40)):
    """q_indices on a batch of random graphs of each order (p drawn from the
    property suite's strata), one call a batch, best of five; both
    implementations must agree within 1e-12."""
    rng = random.Random(seed * 37 + 909)
    print(f"float indices, {graphs} random graphs an order, one call a batch")
    for n in orders:
        rows = [kernels.sample_rows(rng.getrandbits, n, n, _P_STRATA) for _ in range(graphs)]
        base = None
        for label, impl in impls:
            dt = min(time_call(impl.q_indices, rows)[0] for _ in range(5))
            out = impl.q_indices(rows)
            print(f"  {label:9s} n={n:<3d} {dt * 1e3:8.3f} ms  {graphs / dt:9.0f} graphs/s")
            if base is None:
                base = out
            else:
                assert max(abs(a - b) for a, b in zip(base, out)) <= 1e-12, \
                    "implementations disagree"


def bench_slot_rows(impls, draws=10000, seed=7):
    """slot_rows on the dense draws' own slot lists: an order of 10..14 and
    4n - 15 to C(n,2) slots from rng.sample, as draw_dense draws them for
    property_suite(seed); both implementations must give the same graphs."""
    rng = random.Random(seed * 37 + 505)
    cases = []
    for _ in range(draws):
        n = rng.randint(10, 14)
        slots = n * (n - 1) // 2
        cases.append((n, rng.sample(range(slots), rng.randint(4 * n - 15, slots))))
    print(f"edge slot rows, {draws} dense order-10..14 draws "
          f"({sum(len(drawn) for _, drawn in cases)} slots)")
    base = None
    for label, impl in impls:
        t0 = time.perf_counter()
        out = [impl.slot_rows(n, drawn) for n, drawn in cases]
        dt = time.perf_counter() - t0
        print(f"  {label:9s} {dt:8.3f}s  {draws / dt:9.0f} graphs/s")
        if base is None:
            base = out
        else:
            assert base == out, "implementations disagree"


def bench_component_count(impls, draws=10000, seed=7):
    """component_count on the property suite's own random graphs of orders
    4..12, those of the Perron shift, edge monotonicity and the longest-cycle
    bound, which test connectivity; both implementations must agree."""
    rng = random.Random(seed)
    rows = [_sample(rng, 4, 12).rows for _ in range(draws)]
    print(f"component counts, {draws} random order-4..12 graphs")
    base = None
    for label, impl in impls:
        t0 = time.perf_counter()
        out = [impl.component_count(r) for r in rows]
        dt = time.perf_counter() - t0
        print(f"  {label:9s} {dt:8.3f}s  {draws / dt:9.0f} graphs/s  "
              f"connected={out.count(1) / draws:.1%}")
        if base is None:
            base = out
        else:
            assert base == out, "implementations disagree"


def bench_structural(impls, draws=10000, seed=7):
    """structural_violations on the structural claims' own draws: the
    configuration-free graphs of orders 4..10 that property_suite(seed)
    checks, at the default caps."""
    rng = random.Random(seed * 37 + 707)
    rows = []
    while len(rows) < draws:
        g = _sample(rng, 4, 10)
        if not kernels.apex_has_config(g.rows, 3):
            rows.append(g.rows)
    caps = tuple(DEFAULT_CLAIM_CAPS.values())
    print(f"structural claims, {draws} configuration-free order-4..10 graphs")
    base = None
    for label, impl in impls:
        t0 = time.perf_counter()
        out = [impl.structural_violations(r, caps) for r in rows]
        dt = time.perf_counter() - t0
        print(f"  {label:9s} {dt:8.3f}s  {draws / dt:9.0f} graphs/s  "
              f"violations={sum(map(sum, out))}")
        if base is None:
            base = out
        else:
            assert base == out, "implementations disagree"


def bench_property_suite(seed=7, trials=10000):
    """One whole property suite, as `verify properties` runs it, then each of
    its details on its own: the same module-level lemma runs and fixed
    checks, with the same generator seeds, in the suite's order, whose
    details must equal the suite's."""
    dt, report = time_call(property_suite, seed, trials)
    print(f"property suite seed={seed} trials={trials}: {dt:.2f}s  "
          f"graphs examined={report.graphs_examined}")
    assert report.passed
    base, caps = seed * 37, tuple(DEFAULT_CLAIM_CAPS.values())
    calls = [
        lambda: _run_lemma("edge_monotonicity", base + 101, trials, draw_with_non_edge,
                           check_monotone),
        lambda: _run_lemma("perron_shift", base + 202, trials, draw_shift, check_shift),
        equitable_quotient_fixtures,
        lambda: _run_lemma("eta_upper_bound", base + 303, trials, draw_without_isolated,
                           check_eta, equality_failures=eta_equality_failures()),
        lambda: _run_lemma("longest_cycle_edge_bound", base + 404, trials, draw_cyclic,
                           check_longest_cycle),
        lambda: _run_lemma("edge_count_forces_configuration", base + 505, trials,
                           draw_dense, check_configured),
        lambda: _run_lemma("path_free_edge_bound", base + 606, trials, draw_any,
                           check_path_free, equality_failures=path_free_equality_failures()),
        threshold_family_lower_bound,
        lambda: _run_lemma("structural_claims", base + 707, trials, draw_free,
                           functools.partial(check_structure, caps=caps),
                           tally={"cap_violations": 0, "catalog_violations": 0}),
        lambda: claim_boundary_battery(dict(DEFAULT_CLAIM_CAPS)),
    ]
    details = []
    for call in calls:
        dt, out = time_call(call)
        detail = out if isinstance(out, dict) else out[0]
        details.append(detail)
        print(f"  {detail['name']:32s} {dt:8.3f}s")
    assert details == report.details, "the lemmas alone disagree with the suite"


def bench_appendix(n_lo=7, n_hi=22, min_seconds=1.0):
    """`verify appendix` over orders n_lo..n_hi, whole (verify_appendix) and
    block by block: the same module-level blocks run in order on one fresh
    AppendixRun, whose details must equal the whole call's. Then two layers
    alone: building every fixture graph of the range (fixture_graphs), and
    the characteristic polynomials of the identity block's templates (one
    charpoly_int_matrices call). Medians over repeated calls for at least
    min_seconds each."""
    times = []

    def one_call():
        t0 = time.perf_counter()
        report = verify_appendix(n_lo, n_hi)
        times.append(time.perf_counter() - t0)
        return report

    calls, _, report = repeat_for(min_seconds, one_call)
    print(f"appendix {n_lo}..{n_hi}: whole call {statistics.median(times) * 1e3:.2f} ms "
          f"(median of {calls}), graphs examined={report.graphs_examined}")
    block_times = {block.__name__: [] for block in APPENDIX_BLOCKS}

    def one_run():
        run, details = AppendixRun(n_lo, n_hi), []
        for block in APPENDIX_BLOCKS:
            dt, out = time_call(block, run)
            block_times[block.__name__].append(dt)
            details += out
        return run, details

    _, _, (run, details) = repeat_for(min_seconds, one_run)
    for name, dts in block_times.items():
        print(f"  {name:26s} {statistics.median(dts) * 1e3:8.2f} ms")
    assert details == report.details, "the blocks alone disagree with the whole call"
    assert sorted(set(run.counterexamples)) == report.counterexamples
    templates = appendix_templates(n_lo, n_hi)
    for label, size, layer in (
        ("fixture_graphs", "graphs", lambda: [g for fx in FIXTURES
                                              for *_, g in fixture_graphs(fx, n_lo, n_hi)]),
        ("charpoly_int_matrices", "templates", lambda: charpoly_int_matrices(templates)),
    ):
        dts = []

        def one_layer_call():
            dt, out = time_call(layer)
            dts.append(dt)
            return out

        calls, _, out = repeat_for(min_seconds, one_layer_call)
        print(f"  {label:26s} {statistics.median(dts) * 1e3:8.2f} ms "
              f"({len(out)} {size}, median of {calls})")


def repeat_for(min_seconds, fn):
    """Call fn until min_seconds have passed: (calls, seconds, last result)."""
    calls = 0
    t0 = time.perf_counter()
    while True:
        out = fn()
        calls += 1
        dt = time.perf_counter() - t0
        if dt >= min_seconds:
            return calls, dt, out


def bench_spot_check(impls, min_seconds=1.0):
    """The theorem's prefilter spot check at orders 6, 7 and 8, where it
    draws 327, 20,000 and 20,000 masks (1% of 2^C(n,2), at least 100 and at
    most 20,000), through each kernel's degree_skips: how many of the graphs
    the degree filters skip it eigensolves (the candidates), the first call,
    which draws the sample (the draws cache is emptied first), and the
    median time of the later calls, which reuse it. Both kernels must give
    the same result."""
    for n in _SWEPT_ORDERS["theorem"]:
        thr = _threshold_constants(n)[1]
        draws = list(_spot_check_draws(n))
        results = set()
        for _, impl in impls:
            skipped, candidates = impl.degree_skips(n, draws, thr)
            results.add((skipped, tuple(candidates)))
        assert len(results) == 1, "implementations disagree"
        print(f"prefilter spot check n={n}: {len(draws)} draws, {skipped} skipped by "
              f"the degree filters, {len(candidates)} eigensolved")
        outs = []
        for label, impl in impls:
            times = []

            def one_call():
                t0 = time.perf_counter()
                out = _prefilter_spot_check(n, thr)
                times.append(time.perf_counter() - t0)
                return out

            kernels.degree_skips, chosen = impl.degree_skips, kernels.degree_skips
            try:
                _spot_check_draws.cache_clear()
                outs.append(one_call())
                first = times.pop()
                calls, _, out = repeat_for(min_seconds, one_call)
            finally:
                kernels.degree_skips = chosen
            print(f"  {label:9s} first call {first * 1e3:8.2f} ms, later calls "
                  f"{statistics.median(times) * 1e3:8.2f} ms (median of {calls})")
            assert out["passed"] and out["skipped_sampled"] == skipped, out
            outs.append(out)
        assert all(out == outs[0] for out in outs), outs


def cold_caches():
    """Forget the memoised Sturm chains, so a pass pays for them as a single
    verify call does."""
    polynomials._squarefree_chain.cache_clear()


def bench_tie_tail(n, min_seconds=1.0):
    """The theorem's and the corollary's Python tails (``_tail``) on the
    sorted masks the kernel leaves at order n, for each task that sweeps n:
    the tie band, decided once per isomorphism class. At orders 6 and 7 it
    is the threshold graph's one sorted mask, which weighs its labeled
    copies; at order 8 also the 30 sorted labelings of one graph that ties
    the threshold exactly. Each pass starts from cold caches."""
    orbit = _threshold_constants(n)[2]
    for task in ("theorem", "corollary"):
        if n not in _SWEPT_ORDERS[task]:
            continue
        ext, thr, test, rule = _sweep_rule(task, n, {})
        _, _, rest = _sweep_classified(n, thr, test, 1)

        def one_pass():
            cold_caches()
            return _tail(n, rest, ext, thr, rule)

        calls, dt, (verdicts, counterexamples) = repeat_for(min_seconds, one_pass)
        weight = sum(arrangement_count(graph_from_mask(n, mask).degrees()) for mask in rest)
        print(f"{task} tie tail n={n}: {weight} masks in {len(rest)} sorted")
        print(f"  {calls * len(rest) / dt:9.0f} sorted masks/s  ({calls} passes, {dt:.2f}s)")
        assert (verdicts["extremal"] == orbit and sum(verdicts.values()) == weight
                and not counterexamples), verdicts


def bench_cli(min_seconds=1.0):
    """`verify theorem --n 6` through ``cli.main`` in this process, its
    report discarded: the first call, which builds the parser and the
    order's threshold constants and draws its spot check's sample (the three
    caches are emptied first), the median
    of the later calls, which reuse them, and the median of
    ``verify_theorem_main(6)`` alone, repeated for min_seconds each."""
    argv = ["verify", "theorem", "--n", "6"]

    def one_cli_call():
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main(argv)
            times.append(time.perf_counter() - t0)
        assert code == 0, code

    cli.build_parser.cache_clear()
    _threshold_constants.cache_clear()
    _spot_check_draws.cache_clear()
    times = []
    one_cli_call()
    first = times.pop()
    calls, _, _ = repeat_for(min_seconds, one_cli_call)
    later = statistics.median(times)
    times = []

    def one_verify_call():
        t0 = time.perf_counter()
        report = verify_theorem_main(6)
        times.append(time.perf_counter() - t0)
        assert report.passed

    verify_calls, _, _ = repeat_for(min_seconds, one_verify_call)
    print(f"cli verify theorem --n 6: first call {first * 1e3:.2f} ms, later calls "
          f"{later * 1e3:.2f} ms (median of {calls}), verify_theorem_main(6) alone "
          f"{statistics.median(times) * 1e3:.2f} ms (median of {verify_calls})")


def appendix_templates(n_lo=7, n_hi=22):
    """The integer quotient templates verify_appendix expands: the threshold
    template and every fixture's template (each fan width s) per order."""
    out = []
    for n in range(n_lo, n_hi + 1):
        out.append(threshold_quotient_template(n))
        for fx in FIXTURES:
            out.extend(quotient_template(fx.item, n, s) for _, s in template_keys(fx, n, n))
    return out


def bench_charpoly(label, matrices, min_seconds=1.0):
    """Whole passes over the matrices for at least min_seconds, first one
    charpoly_int_matrix call per matrix, then one charpoly_int_matrices call
    per pass; both must give the same polynomials, which are returned."""
    orders = sorted({len(m) for m in matrices})
    print(f"  {label}: {len(matrices)} matrices (orders {orders[0]}..{orders[-1]})")
    results = []
    for how, one_pass in (
        ("one at a time", lambda: [charpoly_int_matrix(m) for m in matrices]),
        ("batched", lambda: charpoly_int_matrices(matrices)),
    ):
        calls, dt, polys = repeat_for(min_seconds, one_pass)
        print(f"    {how:13s} {calls * len(matrices) / dt:9.1f} matrices/s  "
              f"({calls} passes, {dt:.2f}s)")
        results.append(polys)
    assert results[0] == results[1], "batched and one-at-a-time polynomials differ"
    return results[1]


def appendix_pairs(n_lo=7, n_hi=22):
    """The fan-width chain pairs verify_appendix compares, g12 then g18, and
    the estimates it passes with each: the Perron roots of the two
    templates, from one batched call."""
    keys = [(fx, n, s) for fx in FIXTURES if fx.s_gap is not None
            for n, s in fan_chain(template_keys(fx, n_lo, n_hi))]
    pairs = [(appendix_polynomial(fx.poly_id, n, s), appendix_polynomial(fx.poly_id, n, s + 4))
             for fx, n, s in keys]
    roots = perron_roots([quotient_template(fx.item, n, t)
                          for fx, n, s in keys for t in (s, s + 4)])
    return pairs, list(zip(roots[::2], roots[1::2]))


def tie_graphs(n=6):
    """The labeled graphs of the sorted masks the theorem's kernel pass
    leaves at order n: the tie band, every labeled copy of the threshold
    graph."""
    ext, thr, _ = _threshold_constants(n)
    _, _, rest = kernels.classify(n, 0, 1 << (n * (n - 1) // 2), thr - TIE_BAND,
                                  thr + TIE_BAND, ("apex_has_config", 3))
    graphs = [h for mask in rest for h in arrangement_images(graph_from_mask(n, mask))]
    assert all(is_isomorphic(g, ext) for g in graphs)
    return graphs


def tie_pairs(n=6):
    """(charpoly of a tie graph, charpoly of the extremal graph plus an
    isolated vertex) per tie: the second is x times the first, a distinct
    polynomial with the same largest root, so every pair is an exact tie
    that compare_largest_roots settles through the common-factor gcd."""
    target = charpoly_graph(disjoint_union(extremal_graph(n).graph, make_graph(1)))
    return [(charpoly_graph(g), target) for g in tie_graphs(n)]


def count_calls(fn, names):
    """Call fn once with the named chordspec.polynomials functions, or
    methods such as ``_Bracket.halve``, counted; returns the call count per
    name."""
    counts = dict.fromkeys(names, 0)
    owners = {}
    for name in names:
        owner, _, attr = name.rpartition(".")
        owners[name] = (getattr(polynomials, owner) if owner else polynomials), attr
    originals = {name: getattr(*owners[name]) for name in names}

    def counted(name):
        def call(*args):
            counts[name] += 1
            return originals[name](*args)
        return call

    for name in names:
        setattr(*owners[name], counted(name))
    try:
        fn()
    finally:
        for name, original in originals.items():
            setattr(*owners[name], original)
    return counts


def bench_exact(label, pairs, estimates=None, min_seconds=1.0):
    """Whole passes of compare_largest_roots over the pairs for at least
    min_seconds, each pair with its float estimates when a list of them is
    given, as its caller passes them, and the polynomial evaluations
    (``_values_at``, the sign certificate's and the Sturm chains'),
    pseudo-divisions (``_divide``) and bracket halvings (``_Bracket.halve``)
    of one pass; every pass starts from cold caches. Also counts the pairs
    the sign certificate settles and those that go to the Sturm bracket
    path (``_bracket_largest_root``), which takes identical polynomials too.
    Returns the verdict counts of one pass and the pass's call counts."""
    compared = list(zip(pairs, estimates or [None] * len(pairs)))

    def one_pass():
        cold_caches()
        return Counter(compare_largest_roots(a, b, e) for (a, b), e in compared)

    passes, dt, verdicts = repeat_for(min_seconds, one_pass)
    counts = count_calls(one_pass, ("_values_at", "_divide", "_Bracket.halve"))
    cold_caches()
    chained = sum(
        count_calls(lambda: compare_largest_roots(a, b, e), ("_bracket_largest_root",))[
            "_bracket_largest_root"] > 0
        for (a, b), e in compared
    )
    print(f"  {label:18s} {len(pairs):4d} pairs  {passes * len(pairs) / dt:9.1f} pairs/s"
          f"  ({passes} passes, {dt:.2f}s)  per pair: "
          f"{counts['_values_at'] / len(pairs):.2f} evaluations, "
          f"{counts['_divide'] / len(pairs):.2f} divisions, "
          f"{counts['_Bracket.halve'] / len(pairs):.2f} halvings")
    print(f"  {'':18s} settled by the certificate: {len(pairs) - chained}, "
          f"to the chain: {chained}")
    return verdicts, counts


def main() -> None:
    impls = kernels.implementations()
    print("available kernels:", ", ".join(label for label, _ in impls))
    # sweep floors at the lower edge of the tie band, where classify cuts
    floor6 = _threshold_constants(6)[1] - TIE_BAND
    bench_sweep(impls, 6, 0, 1 << 15, floor6)
    for n in (7, 8):
        thr = _threshold_constants(n)[1]
        total = 1 << n * (n - 1) // 2
        bench_sweep(impls, n, 0, total, thr - TIE_BAND)
        bench_classify(impls, n, 0, total, thr)
        for label, impl in impls:
            bench_classify_threads(label, impl, n, thr)
    bench_sweep_jobs()
    bench_detector(impls)
    bench_row_searches(impls)
    bench_perron_order(impls)
    bench_sample_rows(impls)
    bench_sample_range(impls)
    bench_slot_rows(impls)
    bench_component_count(impls)
    bench_eta_check(impls)
    bench_q_indices(impls)
    bench_structural(impls)
    bench_spot_check(impls)
    bench_tie_tail(6)
    bench_tie_tail(7)
    bench_tie_tail(8)
    bench_cli()

    print("exact characteristic polynomials (charpoly_int_matrix, charpoly_int_matrices)")
    templates = appendix_templates()
    ties = [signless_laplacian(g).tolist() for g in tie_graphs(6)]
    polys = bench_charpoly("appendix 7..22 + order-6 ties", templates + ties)
    assert polys[0] == appendix_polynomial("g", 7), polys[0]
    # the ties are the 30 labeled copies of the threshold graph
    assert len(ties) == 30
    assert set(polys[len(templates):]) == {charpoly_graph(extremal_graph(6).graph)}
    # the theorem's ties take one matrix a call: Q of order 6, and of order 7
    # for the threshold graph's polynomial
    bench_charpoly("order-6 ties", ties)
    bench_charpoly("order-7 threshold graph", [signless_laplacian(extremal_graph(7).graph)])

    print("exact largest-root comparison (compare_largest_roots)")
    # the appendix pairs with the Perron roots verify_appendix passes, the
    # ties with no estimates, as q_exact_compare passes none
    pairs, estimates = appendix_pairs()
    appendix, _ = bench_exact("appendix 7..22", pairs, estimates)
    # the g18 chain fails at (n, 3) for n = 19..22, as verify appendix pins
    assert len(pairs) == 196 and len(pairs) - appendix[LESS] == 4, appendix
    pairs, estimates = appendix_pairs(7, 30)
    appendix, _ = bench_exact("appendix 7..30", pairs, estimates)
    assert len(pairs) == 484 and sum(appendix.values()) == 484, appendix
    for n, copies in ((6, 30), (7, 210)):
        ties, counts = bench_exact(f"order-{n} ties", tie_pairs(n))
        assert ties == Counter({EQUAL: copies}) and counts["_divide"] > 0, (ties, counts)

    bench_appendix()
    bench_property_suite()


if __name__ == "__main__":
    main()
