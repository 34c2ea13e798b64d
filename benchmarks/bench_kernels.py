#!/usr/bin/env python3
"""Benchmark the compiled sweep kernels (sweep, survivor classification,
apex detector, longest cycle, longest path and Perron entry order) against
the pure-Python fallback, the theorem's prefilter spot check, the theorem's
and the corollary's Python tails on the tie band the kernel leaves, exact
characteristic polynomials (one matrix a call and batched), the exact
largest-root comparison (with the pairs its sign certificate settles and
those left to the Sturm chains, and exact ties between distinct
polynomials), and one end-to-end property suite at 10,000 trials. The
threaded sweeps run on 1 and 2 worker threads, next to the CPUs this
process may use: the theorem's whole order-6 sweep (`_sweep_classified`
with 1 and 2 jobs) and the order-8 slice below, cut into pieces.

Usage: python benchmarks/bench_kernels.py [--full]

--full adds a complete order-7 sweep for both implementations (the fallback
takes a couple of minutes there; the default compares on order 6 plus an
order-7 slice). The theorem's classify pass is also timed on an order-8
slice of 2^22 masks, [40 * 2^22, 41 * 2^22), with the compiled kernel only.
"""

from __future__ import annotations

import argparse
import random
import statistics
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

from chordspec import kernels, polynomials
from chordspec.appendix import (
    FIXTURES,
    appendix_polynomial,
    fan_chain,
    quotient_template,
    template_keys,
    threshold_quotient_template,
)
from chordspec.families import extremal_graph, k11n2_plus, k1_join_k4_union_k1
from chordspec.graphs import disjoint_union, graph_from_mask, is_isomorphic, make_graph
from chordspec.polynomials import EQUAL, LESS, compare_largest_roots
from chordspec.spectral import (
    charpoly_graph,
    charpoly_int_matrices,
    charpoly_int_matrix,
    q_index,
    signless_laplacian,
)
from chordspec.verifier import (
    _SWEPT_ORDERS,
    TIE_BAND,
    _prefilter_spot_check,
    _sample,
    _sweep_classified,
    _sweep_rule,
    _tail,
    _usable_cpus,
    property_suite,
)


def time_call(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def bench_sweep(impls, n, lo, hi, floor):
    print(f"sweep n={n} masks=[{lo}, {hi}) floor={floor:.4f}")
    base = None
    for label, impl in impls:
        dt, (cnt, _, surv) = time_call(impl.classify, n, lo, hi, floor, floor, None)
        rate = (hi - lo) / dt / 1e6
        print(f"  {label:9s} {dt:8.2f}s  {rate:7.2f} Mmask/s  "
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
        print(f"  {label:9s} {dt:8.2f}s  {(hi - lo) / dt / 1e6:7.2f} Mmask/s  "
              f"no-isolated={out[0]} hits={out[1]} rest={len(out[2])}")
        if base is None:
            base = out
        else:
            assert base == out, "implementations disagree"


def bench_classify_threads(label, impl, n, lo, hi, thr, pieces=8):
    """classify on the masks in [lo, hi), as the theorem runs it, cut into
    pieces that 1 and then 2 worker threads take in turn: wall and CPU time
    of each, and the speed-up of 2 threads over 1."""
    cuts = thr - TIE_BAND, thr + TIE_BAND
    bounds = [lo + (hi - lo) * i // pieces for i in range(pieces + 1)]

    def piece(b):
        return impl.classify(n, b[0], b[1], *cuts, ("apex_has_config", 3))

    print(f"classify n={n} masks=[{lo}, {hi}) in {pieces} pieces, {label}, "
          f"usable CPUs={_usable_cpus()}")
    base = None
    for workers in (1, 2):
        cpu0, t0 = time.process_time(), time.perf_counter()
        with ThreadPoolExecutor(max_workers=workers) as pool:
            out = list(pool.map(piece, zip(bounds, bounds[1:])))
        dt, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        if base is None:
            base = dt, out
        else:
            assert base[1] == out, "thread counts disagree"
        print(f"  threads={workers} {dt:8.2f}s  cpu {cpu:6.2f}s  {(hi - lo) / dt / 1e6:7.2f} "
              f"Mmask/s  speed-up {base[0] / dt:4.2f}")


def bench_sweep_jobs(n=6, min_seconds=1.0):
    """The theorem's whole kernel sweep at order n (_sweep_classified) with 1
    and 2 jobs, repeated for min_seconds each: median time a call."""
    thr = q_index(extremal_graph(n).graph).q
    print(f"theorem sweep n={n} (_sweep_classified), usable CPUs={_usable_cpus()}")
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
    """perron_order on the Perron shift's own draws: connected random graphs
    of orders 4..10 and a random pair of vertices that are not twins. Every
    decided sign must be the order of eigh's Perron entries (q_index)."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < draws:
        g = _sample(rng, 4, 10)
        u, v = rng.sample(range(g.n), 2)
        if g.is_connected() and g.rows[u] & ~(1 << v) != g.rows[v] & ~(1 << u):
            cases.append((g, u, v))
    print(f"Perron entry order, {draws} connected random order-4..10 graphs")
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


def bench_property_suite(seed=7, trials=10000):
    """One whole property suite, as `verify properties` runs it."""
    dt, report = time_call(property_suite, seed, trials)
    print(f"property suite seed={seed} trials={trials}: {dt:.2f}s  "
          f"graphs examined={report.graphs_examined}")
    assert report.passed


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


def bench_spot_check(min_seconds=1.0):
    """The theorem's prefilter spot check at order 7, where it draws 20,000
    masks (1% of 2^21, capped at 20,000)."""
    n, draws = 7, 20000
    thr = q_index(extremal_graph(n).graph).q
    calls, dt, out = repeat_for(min_seconds, lambda: _prefilter_spot_check(n, thr))
    print(f"prefilter spot check n={n}: {draws} draws, {out['skipped_sampled']} "
          f"skipped by the degree filters")
    print(f"  {calls * draws / dt:9.0f} masks/s  ({calls} calls, {dt:.2f}s)")
    assert out["passed"], out


def cold_caches():
    """Forget the memoised Sturm chains, so a pass pays for them as a single
    verify call does."""
    polynomials._squarefree_chain.cache_clear()


def bench_tie_tail(n, min_seconds=1.0):
    """The theorem's and the corollary's Python tails (``_tail``) on the
    masks the kernel leaves at order n, for each task that sweeps n: the tie
    band, which is the labeled copies of the threshold graph, all settled by
    one verdict. Each pass starts from cold caches."""
    for task, test in (("theorem", ("apex_has_config", 3)), ("corollary", ("chorded_has", 3))):
        if n not in _SWEPT_ORDERS[task]:
            continue
        ext, thr, rule = _sweep_rule(task, n, {})
        _, _, rest = _sweep_classified(n, thr, test, 1)

        def one_pass():
            cold_caches()
            return _tail(n, rest, ext, rule)

        calls, dt, (verdicts, counterexamples) = repeat_for(min_seconds, one_pass)
        print(f"{task} tie tail n={n}: {len(rest)} masks")
        print(f"  {calls * len(rest) / dt:9.0f} masks/s  ({calls} passes, {dt:.2f}s)")
        assert verdicts == {"extremal": len(rest)} and not counterexamples, verdicts


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
    """The fan-width chain pairs verify_appendix compares, g12 then g18."""
    return [
        (appendix_polynomial(fx.poly_id, n, s), appendix_polynomial(fx.poly_id, n, s + 4))
        for fx in FIXTURES if fx.s_gap is not None
        for n, s in fan_chain(template_keys(fx, n_lo, n_hi))
    ]


def tie_graphs(n=6):
    """The graphs of the masks the theorem's kernel pass leaves at order n:
    the tie band, every labeled copy of the threshold graph."""
    ext = extremal_graph(n).graph
    thr = q_index(ext).q
    _, _, rest = kernels.classify(n, 0, 1 << (n * (n - 1) // 2), thr - TIE_BAND,
                                  thr + TIE_BAND, ("apex_has_config", 3))
    graphs = [graph_from_mask(n, mask) for mask in rest]
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
    """Call fn once with the named chordspec.polynomials functions counted;
    returns the call count per name."""
    counts = dict.fromkeys(names, 0)
    originals = {name: getattr(polynomials, name) for name in names}

    def counted(name):
        def call(*args):
            counts[name] += 1
            return originals[name](*args)
        return call

    for name in names:
        setattr(polynomials, name, counted(name))
    try:
        fn()
    finally:
        for name, original in originals.items():
            setattr(polynomials, name, original)
    return counts


def bench_exact(label, pairs, min_seconds=1.0):
    """Whole passes of compare_largest_roots over the pairs for at least
    min_seconds, and the polynomial evaluations (``_values_at``, the sign
    certificate's and the Sturm chains') and pseudo-divisions (``_divide``)
    of one pass; every pass starts from cold caches. Also counts the pairs
    the sign certificate settles and those that go to the Sturm bracket
    path (``_bracket_largest_root``), which takes identical polynomials too.
    Returns the verdict counts of one pass and the pass's call counts."""

    def one_pass():
        cold_caches()
        return Counter(compare_largest_roots(a, b) for a, b in pairs)

    passes, dt, verdicts = repeat_for(min_seconds, one_pass)
    counts = count_calls(one_pass, ("_values_at", "_divide"))
    cold_caches()
    chained = sum(
        count_calls(lambda: compare_largest_roots(a, b), ("_bracket_largest_root",))[
            "_bracket_largest_root"] > 0
        for a, b in pairs
    )
    print(f"  {label:18s} {len(pairs):4d} pairs  {passes * len(pairs) / dt:9.1f} pairs/s"
          f"  ({passes} passes, {dt:.2f}s)  per pair: "
          f"{counts['_values_at'] / len(pairs):.2f} evaluations, "
          f"{counts['_divide'] / len(pairs):.2f} divisions")
    print(f"  {'':18s} settled by the certificate: {len(pairs) - chained}, "
          f"to the chain: {chained}")
    return verdicts, counts


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--full", action="store_true",
                    help="also run the complete order-7 sweep on both paths")
    args = ap.parse_args()

    impls = kernels.implementations()
    print("available kernels:", ", ".join(label for label, _ in impls))
    # sweep floors at the lower edge of the tie band, where classify cuts
    floor6 = q_index(k1_join_k4_union_k1().graph).q - TIE_BAND
    thr7 = q_index(k11n2_plus(7).graph).q
    floor7 = thr7 - TIE_BAND

    bench_sweep(impls, 6, 0, 1 << 15, floor6)
    bench_sweep(impls, 7, 0, 1 << 18, floor7)
    if args.full:
        bench_sweep(impls, 7, 0, 1 << 21, floor7)
    bench_classify(impls, 7, 0, 1 << 18, thr7)
    # an order-8 slice of 2^22 masks, compiled only: the python kernel would
    # take about 25 s there
    compiled = [(label, impl) for label, impl in impls if label == "compiled"]
    if compiled:
        thr8 = q_index(k11n2_plus(8).graph).q
        bench_classify(compiled, 8, 40 << 22, 41 << 22, thr8)
        bench_classify_threads(*compiled[0], 8, 40 << 22, 41 << 22, thr8)
    bench_sweep_jobs(6)
    bench_detector(impls)
    bench_row_searches(impls)
    bench_perron_order(impls)
    bench_spot_check()
    bench_tie_tail(6)
    bench_tie_tail(7)

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
    pairs = appendix_pairs()
    appendix, _ = bench_exact("appendix 7..22", pairs)
    # the g18 chain fails at (n, 3) for n = 19..22, as verify appendix pins
    assert len(pairs) == 196 and len(pairs) - appendix[LESS] == 4, appendix
    pairs = appendix_pairs(7, 30)
    appendix, _ = bench_exact("appendix 7..30", pairs)
    assert len(pairs) == 484 and sum(appendix.values()) == 484, appendix
    ties, counts = bench_exact("order-6 ties", tie_pairs(6))
    assert ties == Counter({EQUAL: 30}) and counts["_divide"] > 0, (ties, counts)

    bench_property_suite()


if __name__ == "__main__":
    main()
