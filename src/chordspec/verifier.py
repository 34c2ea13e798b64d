"""Exhaustive and randomized verification runs with machine-readable reports.

The exhaustive tasks sweep every graph on n vertices without isolated
vertices through one kernel pass over the edge-bitmask range, or one pass
per value of the top row on worker threads. The kernel visits only the
degree-sorted masks, d(0) >= ... >= d(n-1) >= 1, and counts each with its
weight n! / prod_d m_d!, the labeled graphs it stands for: every count a
report holds is invariant under relabelling, so the weighted counts are
those of every labeled graph, which the sweep checks against the closed
form. The kernel drops a graph only when its index is provably below the
1e-8 tie band around the threshold, and counts one whose index is provably
above the band and that passes the task's chord test. Only the sorted masks
left over reach Python, which decides each once and counts its verdict with
its weight: float eigenvalues (one batched eigensolve over all of them) away
from the threshold, exact characteristic-polynomial comparison inside the
band, the reference searchers when the kernel's test finds nothing. A
counterexample is listed as every labeled graph it stands for.

The randomized suites are seeded and stratified over edge probabilities
{0.2, 0.4, 0.6, 0.8}; identical (task, params, seed) inputs produce identical
reports except for wall_time_ms.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import time
from collections import Counter
from dataclasses import dataclass, field, fields
from fractions import Fraction

from . import chords, kernels, spectral
from .appendix import (
    FIXTURES,
    appendix_polynomial,
    fan_chain,
    fixture_graphs,
    quotient_template,
    template_keys,
    threshold_partition,
    threshold_quotient_template,
)
from .families import (
    c4_plus,
    complete,
    complete_multipartite,
    cycle,
    double_star,
    extremal_graph,
    k11n2_plus,
    star,
    star_plus,
)
from .graphs import (
    Graph,
    arrangement_count,
    arrangement_images,
    automorphism_count,
    bits_to_vertices,
    disjoint_union,
    edge_counts,
    graph6_decode,
    graph6_encode,
    graph_from_mask,
    is_isomorphic,
    join,
    make_graph,
)
from .polynomials import EQUAL, GREATER, LESS, compare_largest_roots
from .spectral import (
    charpoly_int_matrices,
    max_eta,
    perron_roots,
    q_exact_compare,
    q_index,
    q_indices,
    quotient_matrix,
)

TIE_BAND = 1e-8  # float gaps below this are resolved exactly


class VerifierError(ValueError):
    """Unsupported verification parameters, or a malformed report."""


@dataclass
class Report:
    task: str
    params: dict
    graphs_examined: int = 0
    counterexamples: list[str] = field(default_factory=list)
    extremal_hits: int = 0
    details: list[dict] = field(default_factory=list)
    wall_time_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.counterexamples and all(
            d.get("passed", True) for d in self.details
        )

    def to_json_dict(self) -> dict:
        return {
            "task": self.task,
            "params": self.params,
            "graphs_examined": self.graphs_examined,
            "counterexamples": list(self.counterexamples),
            "extremal_hits": self.extremal_hits,
            "details": self.details,
            "wall_time_ms": round(self.wall_time_ms, 3),
            "passed": self.passed,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    def to_table(self) -> str:
        lines = [
            f"task: {self.task}  params: {self.params}",
            f"graphs examined: {self.graphs_examined}   extremal hits: "
            f"{self.extremal_hits}   counterexamples: {len(self.counterexamples)}",
        ]
        for d in self.details:
            mark = "ok " if d.get("passed", True) else "FAIL"
            extra = {k: v for k, v in d.items() if k not in ("name", "passed")}
            lines.append(f"  [{mark}] {d['name']}  {extra}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    @staticmethod
    def from_json(text: str | bytes) -> "Report":
        """The report a to_json text (or its UTF-8 bytes) holds;
        VerifierError when the text is not JSON or not a report, or a field
        has the wrong JSON type."""
        try:
            raw = json.loads(text)
        except ValueError as exc:  # not JSON, or bytes that are not UTF-8
            raise VerifierError(f"report is not JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise VerifierError("report is not a JSON object")
        for f in fields(Report):
            if f.name not in raw:
                raise VerifierError(f"report has no {f.name!r} field")
            kind, item = _REPORT_FIELD_TYPES[f.name]
            value = raw[f.name]
            if not _of_json_type(value, kind) or (
                    item and not all(_of_json_type(v, item) for v in value)):
                raise VerifierError(f"report field {f.name!r} has the wrong JSON type")
        return Report(**{f.name: raw[f.name] for f in fields(Report)})


# the JSON type of each report field, and of the items of a list field
_REPORT_FIELD_TYPES = {
    "task": (str, None),
    "params": (dict, None),
    "graphs_examined": (int, None),
    "counterexamples": (list, str),
    "extremal_hits": (int, None),
    "details": (list, dict),
    "wall_time_ms": ((int, float), None),
}


def _of_json_type(value, kind) -> bool:
    # JSON's true and false are no numbers, though Python's bool is an int
    return isinstance(value, kind) and not isinstance(value, bool)


def report_diff(a: Report, b: Report) -> list[str]:
    """Differences between two reports, ignoring wall time."""
    da, db = a.to_json_dict(), b.to_json_dict()
    da.pop("wall_time_ms")
    db.pop("wall_time_ms")
    out = []
    for key in da:
        if da[key] != db[key]:
            out.append(f"{key}: {da[key]!r} != {db[key]!r}")
    return out


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _without_isolated_vertices(n: int) -> int:
    """The labeled graphs on n vertices without isolated vertices, by
    inclusion-exclusion: sum_k (-1)^k C(n,k) 2^C(n-k,2)."""
    return sum((-1) ** k * math.comb(n, k) * 2 ** math.comb(n - k, 2) for k in range(n + 1))


def _top_row_units(n: int) -> list[tuple[int, int]]:
    """The mask ranges a threaded sweep of order n classifies, one for each
    value r >= 1 of row n-1, in ascending r: [r, r + 1) * 2^C(n-1,2). Row
    n-1 = 0 leaves vertex n-1 isolated, so its range holds no sorted mask."""
    size = 1 << (n - 1) * (n - 2) // 2
    return [(r * size, (r + 1) * size) for r in range(1, 1 << n - 1)]


def _sweep_classified(n: int, thr: float, test: tuple[str, int], jobs: int):
    """Every mask of order n through kernels.classify, cut at the tie band
    around thr: (graphs without isolated vertices, hits, the ascending
    degree-sorted masks left for the Python rules), the counts weighted.
    With jobs > 1 an order above 6 is swept by jobs worker threads, one
    kernel pass for each of its _top_row_units, whose leftovers, joined in
    unit order, stay ascending. The compiled classify releases the GIL for
    its pass, so the threads sweep at once; the python twin holds the GIL
    outside numpy, so its threads mostly take turns. jobs is capped at the
    CPUs this process may run on. VerifierError for jobs below 1, and when
    the weighted count of graphs without isolated vertices is not the closed
    form's: a range, unit, prune or weight fault."""
    if jobs < 1:
        raise VerifierError(f"jobs must be >= 1, got {jobs}")
    jobs = min(jobs, _usable_cpus())
    cuts = thr - TIE_BAND, thr + TIE_BAND
    # order 6 sweeps in the calling thread at any jobs: one call takes about
    # 0.15 ms, its 31 units on a pool of two threads about 0.9 ms
    if jobs == 1 or n <= 6:
        results = [kernels.classify(n, 0, 1 << n * (n - 1) // 2, *cuts, test)]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(lambda unit: kernels.classify(n, *unit, *cuts, test),
                                    _top_row_units(n)))
    no_isolated, expected = sum(r[0] for r in results), _without_isolated_vertices(n)
    if no_isolated != expected:
        raise VerifierError(f"the order-{n} sweep counted {no_isolated} graphs "
                            f"without isolated vertices, not {expected}")
    rest = [mask for _, _, left in results for mask in left]
    return no_isolated, sum(r[1] for r in results), rest


def _order(g: Graph, qg: float, h: Graph, qh: float, exact: bool = True) -> int:
    """q(g) against q(h), whose float values are qg and qh: LESS or GREATER
    by floats outside the tie band; inside it the exact order when exact,
    else EQUAL."""
    if qg < qh - TIE_BAND:
        return LESS
    if qg > qh + TIE_BAND:
        return GREATER
    return q_exact_compare(g, h) if exact else EQUAL


SPOT_CHECK_SEED = 20240601


@functools.cache
def _spot_check_draws(n: int, seed: int = SPOT_CHECK_SEED) -> tuple[int, ...]:
    """The labeled masks the prefilter spot check draws at order n, by
    ``randrange``: 1% of the 2^C(n,2), at least 100 and at most 20,000. They
    depend on (n, seed) alone, so each sample is drawn once per process, on
    first use; only the sample is kept here, never a verdict."""
    total = 1 << n * (n - 1) // 2
    rng = random.Random(seed)
    return tuple(rng.randrange(total) for _ in range(min(max(total // 100, 100), 20000)))


def _prefilter_spot_check(n: int, thr: float) -> dict:
    """Re-check a seeded sample of cheaply skipped graphs by full eigenvalue
    computation: everything the 2*maxdeg / edge-degree-sum filters drop must
    really sit below the threshold. Reports the skipped graphs drawn and
    their largest index. The kernel that ran the sweep applies its own
    degree filter to the draws (``kernels.degree_skips``) and returns the
    skipped graphs that can hold their largest index; only those are
    eigensolved, in one batch. eigvalsh decides each matrix on its own, so
    the maximum is the float a solve over every skipped graph gives. The
    sample is drawn once per process (``_spot_check_draws``); every call
    checks it afresh at its own cut."""
    skipped, candidates = kernels.degree_skips(n, list(_spot_check_draws(n)), thr)
    top = q_indices([graph_from_mask(n, mask) for mask in candidates])
    return {
        "name": "prefilter_spot_check",
        "passed": all(q < thr for q in top),
        "skipped_sampled": skipped,
        "max_q_among_skipped": round(max(top), 9) if top else None,
    }


# -- Theorem and corollary sweeps ---------------------------------------------------


def _theorem_rule(g: Graph, qv: float, ext: Graph, thr: float, exact: bool) -> str:
    """The theorem's verdict on g, of float index qv: "below" the threshold
    thr (ties with it decided exactly when exact), "configured" by the
    kernel's apex test, "mismatch" when only the reference searcher finds the
    configuration, "extremal" for a copy of ext, else "counterexample"."""
    if _order(g, qv, ext, thr, exact) == LESS:
        return "below"
    if kernels.apex_has_config(g.rows, 3):
        return "configured"
    if chords.find_k_chords_at_apex(g, 3) is not None:
        return "mismatch"
    return "extremal" if is_isomorphic(g, ext) else "counterexample"


def _corollary_rule(g: Graph, qv: float, ext: Graph, thr: float, min_chords: int) -> str:
    """The corollary's verdict on g: "below" the threshold thr; at it
    (decided exactly) "extremal" for a copy of ext, the stated exception,
    else "equal", which the bound q <= thr already allows; above it
    "chorded" when the kernel's test or the reference searcher finds a cycle
    with min_chords chords, else "counterexample"."""
    order = _order(g, qv, ext, thr)
    if order == LESS:
        return "below"
    if order == EQUAL:
        return "extremal" if is_isomorphic(g, ext) else "equal"
    if (kernels.chorded_has(g.rows, min_chords)
            or chords.find_chorded_cycle(g, min_chords) is not None):
        return "chorded"
    return "counterexample"


_SWEPT_ORDERS = {"theorem": (6, 7, 8), "corollary": (7, 8)}


@functools.cache
def _threshold_constants(n: int) -> tuple[Graph, float, int]:
    """(ext, q, orbit) at a swept order n: the extremal graph, its float
    index and its n! / |Aut(ext)| labeled copies. They depend on n alone, so
    each order's are built once per process, on first use; only the inputs
    of a sweep are kept here, never a verdict."""
    ext = extremal_graph(n).graph
    return ext, q_indices([ext])[0], math.factorial(n) // automorphism_count(ext)


def _sweep_rule(task: str, n: int, params: dict):
    """(ext, thr, test, rule) of the theorem or corollary sweep at order n
    with the report's params: the extremal graph, the threshold, the
    kernel's chord test as (name, k) and the task's rule as rule(g, qv,
    ext). The order is validated before its threshold constants are read,
    and the params (the theorem's threshold_offset, the corollary's
    min_chords) are applied on every call. VerifierError for a task, order
    or parameter that no sweep runs."""
    if n not in _SWEPT_ORDERS.get(task, ()):
        raise VerifierError(f"no {task} sweep at order {n}")
    ext, thr, _ = _threshold_constants(n)
    if task == "theorem":
        offset = params.get("threshold_offset", 0.0)
        if not math.isfinite(offset):
            raise VerifierError(f"threshold_offset must be finite, got {offset}")
        thr += offset
        return (ext, thr, ("apex_has_config", 3),
                functools.partial(_theorem_rule, thr=thr, exact=offset == 0.0))
    min_chords = params.get("min_chords", 3)
    if min_chords < 1:
        raise VerifierError(f"min_chords must be >= 1, got {min_chords}")
    return (ext, thr, ("chorded_has", min_chords),
            functools.partial(_corollary_rule, thr=thr, min_chords=min_chords))


def _tail(n: int, rest: list[int], ext: Graph, thr: float, rule) -> tuple[Counter, list[str]]:
    """The task's rule on the degree-sorted masks the kernel left, each
    with its float index (one batched eigensolve over all of them). Inside
    the tie band around the threshold thr, where the rule's verdict depends
    on the graph alone (an exact comparison, or none), a leftover isomorphic
    to an earlier one there takes that one's verdict, so each class of ties
    is decided once; the threshold graph's own leftover is one of them at
    an unshifted threshold. Returns (the count of each verdict, each mask
    weighted by the labeled graphs it stands for, and the counterexamples
    as graph6: every labeled graph a counterexample mask stands for, its
    image under each arrangement of its degrees)."""
    graphs = [graph_from_mask(n, mask) for mask in rest]
    tied = []  # (graph, verdict) of the first leftover of each class of ties
    counts = Counter()
    counterexamples = []
    for g, qv in zip(graphs, q_indices(graphs)):
        if not thr - TIE_BAND <= qv <= thr + TIE_BAND:
            verdict = rule(g, qv, ext)
        else:
            verdict = next((v for h, v in tied if is_isomorphic(g, h)), None)
            if verdict is None:
                verdict = rule(g, qv, ext)
                tied.append((g, verdict))
        counts[verdict] += arrangement_count(g.degrees())
        if verdict == "counterexample":
            counterexamples += [graph6_encode(h) for h in arrangement_images(g)]
    return counts, counterexamples


def verify_theorem_main(
    n: int, *, threshold_offset: float = 0.0, jobs: int = 1
) -> Report:
    """Exhaustive check at order n: every labeled graph without isolated
    vertices whose index reaches the threshold either carries three chords at
    a common cycle vertex or is the unique extremal graph."""
    t0 = time.perf_counter()
    ext, thr, test, rule = _sweep_rule("theorem", n, {"threshold_offset": threshold_offset})
    # the kernel counts the graphs clearly above the threshold that carry the
    # configuration; the tie band and the rest get the rule
    no_isolated, configured, rest = _sweep_classified(n, thr, test, jobs)
    verdicts, counterexamples = _tail(n, rest, ext, thr, rule)
    configured += verdicts["configured"] + verdicts["mismatch"]
    extremal_hits = verdicts["extremal"]
    orbit = _threshold_constants(n)[2]
    details = [
        {"name": "threshold", "passed": True, "q_threshold": round(thr, 9)},
        {
            "name": "no_counterexamples",
            "passed": not counterexamples,
            "configured_graphs": configured,
        },
        {
            "name": "kernel_agrees_with_searcher",
            "passed": verdicts["mismatch"] == 0,
            "mismatches": verdicts["mismatch"],
        },
        {
            "name": "extremal_orbit_count",
            "passed": extremal_hits == orbit,
            "hits": extremal_hits,
            "expected_orbit": orbit,
        },
        _prefilter_spot_check(n, thr),
    ]
    return Report(
        task="theorem",
        params={"n": n, "threshold_offset": threshold_offset},
        graphs_examined=no_isolated,
        counterexamples=sorted(counterexamples),
        extremal_hits=extremal_hits,
        details=details,
        wall_time_ms=(time.perf_counter() - t0) * 1000,
    )


def verify_corollary(n: int, *, min_chords: int = 3, jobs: int = 1) -> Report:
    """Exhaustive check at order n: a graph without isolated vertices and
    without a cycle carrying min_chords chords cannot beat the threshold
    index unless it is the extremal graph."""
    t0 = time.perf_counter()
    ext, thr, test, rule = _sweep_rule("corollary", n, {"min_chords": min_chords})
    # the kernel counts the graphs clearly above the threshold with a chorded
    # cycle; the tie band and the rest get the rule
    no_isolated, chorded, rest = _sweep_classified(n, thr, test, jobs)
    verdicts, counterexamples = _tail(n, rest, ext, thr, rule)

    details = [
        {"name": "threshold", "passed": True, "q_threshold": round(thr, 9)},
        {
            "name": "no_counterexamples",
            "passed": not counterexamples,
            "chorded_graphs": chorded + verdicts["chorded"],
        },
    ]
    return Report(
        task="corollary",
        params={"n": n, "min_chords": min_chords},
        graphs_examined=no_isolated,
        counterexamples=sorted(counterexamples),
        extremal_hits=verdicts["extremal"],
        details=details,
        wall_time_ms=(time.perf_counter() - t0) * 1000,
    )


def replay_counterexample(task: str, g6: str, params: dict) -> bool:
    """Re-check a recorded counterexample in isolation through the rule of
    the sweep that reported it; True means it still violates the condition
    it was reported for. VerifierError for a task or order no sweep runs."""
    g = graph6_decode(g6)
    ext, _, _, rule = _sweep_rule(task, g.n, params)
    # the sweeps skip graphs with an isolated vertex; the index is the
    # sweep's own float, from the batched eigensolve the tail uses
    return g.min_degree > 0 and rule(g, q_indices([g])[0], ext) == "counterexample"


# -- appendix identities --------------------------------------------------------------


def _threshold_bound_fraction(n: int) -> Fraction:
    return Fraction(n + 2) - Fraction(4, n + 2)


class AppendixRun:
    """What the blocks of ``verify_appendix`` share over the orders n_lo..n_hi.

    Each block is a module-level function of the run, in ``APPENDIX_BLOCKS``
    order, that returns its details, adds to ``examined`` and
    ``counterexamples``, and fills in what the later blocks read.
    """

    def __init__(self, n_lo: int, n_hi: int):
        self.n_lo, self.n_hi = n_lo, n_hi
        self.orders = range(n_lo, n_hi + 1)
        self.examined = 0
        self.counterexamples: list[str] = []
        # the threshold family's graph, once per order, and the quotient
        # template of each fixture graph, once per (item, n, s)
        self.thr_graph = {n: k11n2_plus(n).graph for n in self.orders}
        self.template = functools.cache(quotient_template)
        # from appendix_identities: the closed forms by (item, n, s), and the
        # threshold templates and their characteristic polynomials by order
        self.closed_form: dict = {}
        self.thr_template: dict[int, list[list[int]]] = {}
        self.thr_charpoly: dict = {}
        # from appendix_fixtures: each fixture graph with its index by
        # (item, n, s), and by order the threshold, the threshold graph's
        # quotient (None when not equitable) and the quotient's Perron root
        self.fixture_q: dict = {}
        self.thr: dict[int, float] = {}
        self.thr_quotient: dict[int, list[list[int]] | None] = {}
        self.thr_radius: dict[int, float] = {}


def appendix_identities(run: AppendixRun) -> list[dict]:
    """(b) template/polynomial identities, for every integer order in range.
    One batched call gives these polynomials and those of the threshold
    templates, which appendix_threshold_bound checks; the closed forms serve
    appendix_fan_chains too."""
    poly_keys = [(fx, n, s) for fx in FIXTURES
                 for n, s in template_keys(fx, run.n_lo, run.n_hi)]
    run.closed_form = {(fx.item, n, s): appendix_polynomial(fx.poly_id, n, s)
                       for fx, n, s in poly_keys}
    run.thr_template = {n: threshold_quotient_template(n) for n in run.orders}
    polys = charpoly_int_matrices(
        [run.template(fx.item, n, s) for fx, n, s in poly_keys]
        + list(run.thr_template.values())
    )
    poly_bad = [key for key, got in zip(run.closed_form, polys) if got != run.closed_form[key]]
    run.thr_charpoly = dict(zip(run.orders, polys[len(poly_keys):]))
    return [
        {
            "name": "template_charpoly_identities",
            "passed": not poly_bad,
            "checked": len(poly_keys),
            "failures": poly_bad[:10],
        }
    ]


def appendix_fixtures(run: AppendixRun) -> list[dict]:
    """(a) + (c): graph-level checks at every valid order in range. One
    batched call gives every fixture graph's index and each order's
    threshold, and one more the Perron roots of the fixture graphs' and the
    threshold graphs' equitable quotients; appendix_fan_chains reuses each
    graph with its index, and appendix_threshold_bound each order's
    threshold, quotient and root."""
    fixtures = [(fx, n, s, g) for fx in FIXTURES
                for n, s, g in fixture_graphs(fx, run.n_lo, run.n_hi)]
    qs = q_indices([g for *_, g in fixtures] + list(run.thr_graph.values()))
    run.thr = dict(zip(run.orders, qs[len(fixtures):]))
    run.fixture_q = {(fx.item, n, s): (g, qv) for (fx, n, s, g), qv in zip(fixtures, qs)}
    quotients = [quotient_matrix(g, fx.partition(n, s)) for fx, n, s, g in fixtures]
    run.thr_quotient = {n: quotient_matrix(run.thr_graph[n], threshold_partition(n))
                        for n in run.orders}
    # the Perron roots of the equitable quotients, read in this order below
    radii = iter(perron_roots(
        [qm for qm in quotients + list(run.thr_quotient.values()) if qm is not None]))
    equit_bad = []
    ineq_bad = []
    lam_bad = []
    for (fx, n, s, g), qv, qm in zip(fixtures, qs, quotients):
        run.examined += 1
        if qm is None:
            equit_bad.append((fx.item, n, s))
            run.counterexamples.append(graph6_encode(g))
            continue
        tmpl = run.template(fx.item, n, s)
        if len(qm) == len(tmpl) and qm != tmpl:
            equit_bad.append((fx.item, n, s, "template-mismatch"))
        lam = next(radii)
        if abs(lam - qv) > 1e-8:
            lam_bad.append((fx.item, n, s, lam - qv))
        # strict index inequality against the threshold family
        if _order(g, qv, run.thr_graph[n], run.thr[n]) != LESS:
            ineq_bad.append((fx.item, n, s))
            run.counterexamples.append(graph6_encode(g))
    run.thr_radius = {n: next(radii) for n, qm in run.thr_quotient.items() if qm is not None}
    return [
        {
            "name": "equitable_partitions",
            "passed": not equit_bad,
            "checked": len(fixtures),
            "failures": equit_bad[:10],
        },
        {
            "name": "quotient_radius_matches_index",
            "passed": not lam_bad,
            "tolerance": 1e-8,
            "failures": lam_bad[:10],
        },
        {
            "name": "index_below_threshold_family",
            "passed": not ineq_bad,
            "failures": ineq_bad[:10],
        },
    ]


def appendix_threshold_bound(run: AppendixRun) -> list[dict]:
    """(d) threshold family lower bound, exact rational identity included."""
    bound_bad = []
    for n in run.orders:
        run.examined += 1
        pt = _threshold_bound_fraction(n)
        gpoly = appendix_polynomial("g", n)
        val = gpoly(pt)
        want = -Fraction(
            8 * n**3 + 32 * n**2 + 96 * n + 192, n**3 + 6 * n**2 + 12 * n + 8
        )
        if val != want or val >= 0:
            bound_bad.append((n, "g-value"))
        if run.thr_charpoly[n] != gpoly:
            bound_bad.append((n, "template"))
        qm = run.thr_quotient[n]
        if qm != run.thr_template[n]:
            bound_bad.append((n, "partition"))
        if not run.thr[n] > float(pt):
            bound_bad.append((n, "bound"))
        if qm is None or abs(run.thr_radius[n] - run.thr[n]) > 1e-8:
            bound_bad.append((n, "radius"))
    return [
        {
            "name": "threshold_family_bound",
            "passed": not bound_bad,
            "checked": run.n_hi - run.n_lo + 1,
            "failures": bound_bad[:10],
        }
    ]


def appendix_fan_chains(run: AppendixRun) -> list[dict]:
    """(e) fan-width monotone chains, exact on the closed forms and by _order
    on the fixture graphs whose width s + 4 exists too. The two families get
    separate entries: the star-fan chain (g12) holds on the whole range,
    while the hub-star-pack chain (g18) is genuinely false for small s, and
    the report says so rather than papering over it.

    One batched call gives the Perron roots of the templates whose closed
    forms a chain compares, and they serve as the comparison's float
    estimates: appendix_identities checks each closed form against its
    template's characteristic polynomial, and a wrong estimate would only
    send a pair to the Sturm chains."""
    chains = [(fx, fan_chain(template_keys(fx, run.n_lo, run.n_hi)))
              for fx in FIXTURES if fx.s_gap is not None]
    keys = list(dict.fromkeys(
        (fx.item, n, t) for fx, closed in chains for n, s in closed for t in (s, s + 4)))
    root = dict(zip(keys, perron_roots([run.template(*key) for key in keys])))
    details = []
    for fx, closed in chains:
        chain_bad = []
        for n, s in closed:
            a = run.closed_form[fx.item, n, s]
            b = run.closed_form[fx.item, n, s + 4]
            if compare_largest_roots(a, b, (root[fx.item, n, s], root[fx.item, n, s + 4])) != LESS:
                chain_bad.append([n, s])
        graphs = fan_chain((n, s) for item, n, s in run.fixture_q if item == fx.item)
        for n, s in graphs:
            if _order(*run.fixture_q[fx.item, n, s], *run.fixture_q[fx.item, n, s + 4]) != LESS:
                chain_bad.append([n, s, "graphs"])
        details.append(
            {
                "name": f"fan_width_monotone_chain_{fx.poly_id}",
                "passed": not chain_bad,
                "checked": len(closed) + len(graphs),
                "violations": chain_bad,
            }
        )
    return details


APPENDIX_BLOCKS = (appendix_identities, appendix_fixtures, appendix_threshold_bound,
                   appendix_fan_chains)


def verify_appendix(n_lo: int, n_hi: int) -> Report:
    """Quotient fixtures for all catalog families across a range of orders:
    equitable partitions, template identities, closed-form characteristic
    polynomials, strict index inequalities against the threshold family, and
    the fan-width monotone chains. The details are those of the
    ``APPENDIX_BLOCKS``, run in order on one ``AppendixRun``."""
    if not (7 <= n_lo <= n_hi <= 30):
        raise VerifierError("verify_appendix needs 7 <= n_lo <= n_hi <= 30")
    t0 = time.perf_counter()
    run = AppendixRun(n_lo, n_hi)
    details = [detail for block in APPENDIX_BLOCKS for detail in block(run)]
    return Report(
        task="appendix",
        params={"n_lo": n_lo, "n_hi": n_hi},
        graphs_examined=run.examined,
        counterexamples=sorted(set(run.counterexamples)),
        details=details,
        wall_time_ms=(time.perf_counter() - t0) * 1000,
    )


# -- randomized property suites ---------------------------------------------------


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
    """A graph of order n_lo..n_hi whose edges are present with a probability
    drawn from _P_STRATA: one ``rng.random()`` per edge slot, in
    ``index_pairs`` order, made by ``kernels.random_rows``."""
    n = rng.randint(n_lo, n_hi)
    p = rng.choice(_P_STRATA)
    return Graph(n, kernels.random_rows(n, rng.random, p))


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
    """Whether g, of float index q, breaks the eta bound or its counting form.

    With d = d(v) and S the sum of v's neighbour degrees, eta(v) = (d^2 + S)
    / d. The bound is q <= max eta(v) over the non-isolated v, up to 1e-10;
    the largest term is the one ``max_eta`` picks, and num / den rounds the
    same quotient as float(max_eta(g)). The counting form, eta(v) <= n +
    2 e(N(v)) / d, holds at v exactly when n d + 2 e(N(v)) >= d^2 + S. Each
    neighbourhood is walked once.
    """
    counts = [spectral._eta_counts(g, v) for v in range(g.n)]
    if any(g.n * d + twice_inner < d * d + degree_sum for d, degree_sum, twice_inner in counts):
        return True
    num, den = spectral._largest_eta(counts)
    return q > num / den + 1e-10


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


# -- the suite's fixed checks ----------------------------------------------------------


def equitable_quotient_fixtures() -> dict:
    """Equitable quotient fixtures share the index: the smallest valid order
    of every catalog fixture, plus the threshold family partition."""
    cases = [
        (fx.item, g, fx.partition(n, s))
        for fx in FIXTURES
        for n, s, g in [next(fixture_graphs(fx, 7, 30))]
    ] + [
        (("threshold", n), k11n2_plus(n).graph, threshold_partition(n))
        for n in (7, 12, 19)
    ]
    quotients = [quotient_matrix(g, blocks) for _, g, blocks in cases]
    # the Perron roots of the equitable quotients, read in case order
    radii = iter(perron_roots([qm for qm in quotients if qm is not None]))
    bad = [label for (label, _, _), qm, qv in zip(cases, quotients,
                                                  q_indices([g for _, g, _ in cases]))
           if qm is None or abs(next(radii) - qv) > 1e-8]
    return {"name": "equitable_quotient_fixtures", "passed": not bad,
            "checked": len(cases), "failures": bad}


def threshold_family_lower_bound() -> dict:
    """The threshold family beats n + 2 - 4/(n+2) for 6 <= n <= 40."""
    bad = []
    for n, qv in zip(range(6, 41), q_indices([k11n2_plus(n).graph for n in range(6, 41)])):
        pt = _threshold_bound_fraction(n)
        if not qv > float(pt):
            bad.append(n)
        if appendix_polynomial("g", n)(pt) >= 0:
            bad.append((n, "sign"))
    return {"name": "threshold_family_lower_bound", "passed": not bad,
            "range": [6, 40], "failures": bad}


def property_suite(seed: int, trials: int, *, claim_caps: dict | None = None) -> Report:
    """Randomized checks of the supporting lemmas plus the structural claims
    on configuration-free samples, and three fixed checks. Seeded and
    deterministic. Each randomized lemma is a module-level draw and check
    that _run_lemma runs on a generator of its own, seeded seed * 37 + the
    lemma's salt; each fixed check is a module-level function that returns
    its detail. The report's details are theirs, in this order, its graphs
    examined the trials run and its counterexamples the violating graphs."""
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
