"""Exhaustive and randomized verification runs with machine-readable reports.

The exhaustive tasks sweep every graph on n vertices without isolated
vertices through one kernel pass per chunk of the edge-bitmask range. The
kernel visits only the degree-sorted masks, d(0) >= ... >= d(n-1) >= 1, and
counts each with its weight n! / prod_d m_d!, the labeled graphs it stands
for: every count a report holds is invariant under relabelling, so the
weighted counts are those of every labeled graph, which the sweep checks
against the closed form. The kernel drops a graph only when its index is
provably below the 1e-8 tie band around the threshold, and counts one whose
index is provably above the band and that passes the task's chord test.
Only the sorted masks left over reach Python, which decides each once and
counts its verdict with its weight: float eigenvalues (one batched
eigensolve over all of them) away from the threshold, exact
characteristic-polynomial comparison inside the band, the reference
searchers when the kernel's test finds nothing. A counterexample is listed
as every labeled graph it stands for.

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
    apex_partition,
    arrangement_count,
    arrangement_images,
    automorphism_count,
    bits_to_vertices,
    disjoint_union,
    edge_counts,
    graph6_decode,
    graph6_encode,
    graph_from_mask,
    index_pairs,
    is_isomorphic,
    join,
    make_graph,
)
from .polynomials import EQUAL, GREATER, LESS, compare_largest_roots
from .spectral import (
    charpoly_int_matrices,
    max_eta,
    perron_root,
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


# masks per kernel pass: the unit of work of a sweep's worker threads, and
# the size up to which an order (n <= 6) is one chunk, swept serially
CHUNK = 1 << 20


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _without_isolated_vertices(n: int) -> int:
    """The labeled graphs on n vertices without isolated vertices, by
    inclusion-exclusion: sum_k (-1)^k C(n,k) 2^C(n-k,2)."""
    return sum((-1) ** k * math.comb(n, k) * 2 ** math.comb(n - k, 2) for k in range(n + 1))


def _sweep_classified(n: int, thr: float, test: tuple[str, int], jobs: int):
    """Every mask of order n through kernels.classify, cut at the tie band
    around thr, in chunks of CHUNK masks: (graphs without isolated vertices,
    hits, the ascending degree-sorted masks left for the Python rules), the
    counts weighted. The chunks go to jobs worker threads when jobs > 1 and
    the order spans more than one chunk; a one-chunk order (n <= 6) runs in
    the calling thread, as a pool would cost more than its sweep. The
    compiled classify releases the GIL for its pass, so the threads sweep at
    once; the python twin holds the GIL outside numpy, so its threads mostly
    take turns. jobs is capped at the CPUs this process may run on.
    VerifierError for jobs below 1, and when the weighted count of graphs
    without isolated vertices is not the closed form's: a range, chunking,
    prune or weight fault."""
    if jobs < 1:
        raise VerifierError(f"jobs must be >= 1, got {jobs}")
    jobs = min(jobs, _usable_cpus())
    total = 1 << n * (n - 1) // 2
    lo_cut, hi_cut = thr - TIE_BAND, thr + TIE_BAND

    def classify_chunk(lo):
        return kernels.classify(n, lo, min(lo + CHUNK, total), lo_cut, hi_cut, test)

    starts = range(0, total, CHUNK)
    if jobs <= 1 or len(starts) <= 1:
        results = [classify_chunk(lo) for lo in starts]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(classify_chunk, starts))
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


def verify_appendix(n_lo: int, n_hi: int) -> Report:
    """Quotient fixtures for all catalog families across a range of orders:
    equitable partitions, template identities, closed-form characteristic
    polynomials, strict index inequalities against the threshold family, and
    the fan-width monotone chains."""
    if not (7 <= n_lo <= n_hi <= 30):
        raise VerifierError("verify_appendix needs 7 <= n_lo <= n_hi <= 30")
    t0 = time.perf_counter()
    details: list[dict] = []
    counterexamples: list[str] = []
    examined = 0

    # the threshold family's graph, once per order, and the quotient
    # template of each fixture graph, once per (item, n, s)
    orders = range(n_lo, n_hi + 1)
    thr_graph = {n: k11n2_plus(n).graph for n in orders}
    template = functools.cache(quotient_template)

    # (b) template/polynomial identities, for every integer order in range;
    # one batched call gives these polynomials and those of (d)'s threshold
    # templates. The closed forms, keyed by (item, n, s), serve (e) too
    poly_keys = [(fx, n, s) for fx in FIXTURES for n, s in template_keys(fx, n_lo, n_hi)]
    closed_form = {(fx.item, n, s): appendix_polynomial(fx.poly_id, n, s)
                   for fx, n, s in poly_keys}
    thr_template = {n: threshold_quotient_template(n) for n in orders}
    polys = charpoly_int_matrices(
        [template(fx.item, n, s) for fx, n, s in poly_keys] + list(thr_template.values())
    )
    poly_bad = [key for key, got in zip(closed_form, polys) if got != closed_form[key]]
    thr_charpoly = dict(zip(orders, polys[len(poly_keys):]))
    details.append(
        {
            "name": "template_charpoly_identities",
            "passed": not poly_bad,
            "checked": len(poly_keys),
            "failures": poly_bad[:10],
        }
    )

    # (a) + (c): graph-level checks at every valid order in range; one
    # batched call gives every fixture graph's index and each order's
    # threshold, and (e) reuses each graph with its index
    fixtures = [
        (fx, n, s, g) for fx in FIXTURES for n, s, g in fixture_graphs(fx, n_lo, n_hi)
    ]
    qs = q_indices([g for *_, g in fixtures] + list(thr_graph.values()))
    thr = dict(zip(orders, qs[len(fixtures):]))
    fixture_q = {(fx.item, n, s): (g, qv) for (fx, n, s, g), qv in zip(fixtures, qs)}
    equit_bad = []
    ineq_bad = []
    lam_bad = []
    for (fx, n, s, g), qv in zip(fixtures, qs):
        examined += 1
        blocks = fx.partition(n, s)
        qm = quotient_matrix(g, blocks)
        if qm is None:
            equit_bad.append((fx.item, n, s))
            counterexamples.append(graph6_encode(g))
            continue
        tmpl = template(fx.item, n, s)
        if len(blocks) == len(tmpl) and qm != tmpl:
            equit_bad.append((fx.item, n, s, "template-mismatch"))
        lam = perron_root(qm)
        if abs(lam - qv) > 1e-8:
            lam_bad.append((fx.item, n, s, lam - qv))
        # strict index inequality against the threshold family
        if _order(g, qv, thr_graph[n], thr[n]) != LESS:
            ineq_bad.append((fx.item, n, s))
            counterexamples.append(graph6_encode(g))
    details.append(
        {
            "name": "equitable_partitions",
            "passed": not equit_bad,
            "checked": len(fixtures),
            "failures": equit_bad[:10],
        }
    )
    details.append(
        {
            "name": "quotient_radius_matches_index",
            "passed": not lam_bad,
            "tolerance": 1e-8,
            "failures": lam_bad[:10],
        }
    )
    details.append(
        {
            "name": "index_below_threshold_family",
            "passed": not ineq_bad,
            "failures": ineq_bad[:10],
        }
    )

    # (d) threshold family lower bound, exact rational identity included
    bound_bad = []
    for n in orders:
        examined += 1
        pt = _threshold_bound_fraction(n)
        gpoly = appendix_polynomial("g", n)
        val = gpoly(pt)
        want = -Fraction(
            8 * n**3 + 32 * n**2 + 96 * n + 192, n**3 + 6 * n**2 + 12 * n + 8
        )
        if val != want or val >= 0:
            bound_bad.append((n, "g-value"))
        tq = thr_template[n]
        if thr_charpoly[n] != gpoly:
            bound_bad.append((n, "template"))
        qm = quotient_matrix(thr_graph[n], threshold_partition(n))
        if qm != tq:
            bound_bad.append((n, "partition"))
        if not thr[n] > float(pt):
            bound_bad.append((n, "bound"))
        if qm is None or abs(perron_root(qm) - thr[n]) > 1e-8:
            bound_bad.append((n, "radius"))
    details.append(
        {
            "name": "threshold_family_bound",
            "passed": not bound_bad,
            "checked": n_hi - n_lo + 1,
            "failures": bound_bad[:10],
        }
    )

    # (e) fan-width monotone chains, exact on the closed forms and by _order
    # on the fixture graphs whose width s + 4 exists too. The two families
    # get separate entries: the star-fan chain (g12) holds on the whole
    # range, while the hub-star-pack chain (g18) is genuinely false for
    # small s, and the report says so rather than papering over it.
    for fx in FIXTURES:
        if fx.s_gap is None:
            continue
        chain_bad = []
        closed = fan_chain(template_keys(fx, n_lo, n_hi))
        for n, s in closed:
            a = closed_form[fx.item, n, s]
            b = closed_form[fx.item, n, s + 4]
            if compare_largest_roots(a, b) != LESS:
                chain_bad.append([n, s])
        graphs = fan_chain((n, s) for item, n, s in fixture_q if item == fx.item)
        for n, s in graphs:
            if _order(*fixture_q[fx.item, n, s], *fixture_q[fx.item, n, s + 4]) != LESS:
                chain_bad.append([n, s, "graphs"])
        details.append(
            {
                "name": f"fan_width_monotone_chain_{fx.poly_id}",
                "passed": not chain_bad,
                "checked": len(closed) + len(graphs),
                "violations": chain_bad,
            }
        )

    return Report(
        task="appendix",
        params={"n_lo": n_lo, "n_hi": n_hi},
        graphs_examined=examined,
        counterexamples=sorted(set(counterexamples)),
        details=details,
        wall_time_ms=(time.perf_counter() - t0) * 1000,
    )


# -- randomized property suites ---------------------------------------------------


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
    ``index_pairs`` order. The adjacency rows are built as the slots are
    drawn, not from an edge mask afterwards: the property suite draws
    thousands of graphs, and going through ``graph_from_mask`` takes about
    twice as long a draw."""
    n = rng.randint(n_lo, n_hi)
    p = rng.choice(_P_STRATA)
    rand = rng.random
    adj = [0] * n
    for i, j in index_pairs(n):
        if rand() < p:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return Graph(n, tuple(adj))


def classify_component(g: Graph, comp: int) -> dict | None:
    """Catalog type of the connected subgraph induced on the vertex mask comp
    (vertices keep their labels): star, double_star, star_plus, c4, c4_plus
    or k4; None when the component falls outside the catalog. A single
    vertex (center) is named by its label, a vertex group by its mask."""
    m = comp.bit_count()
    by_deg = [0] * m  # by_deg[d]: the vertices with d neighbours in comp
    e = 0
    for v in bits_to_vertices(comp):
        d = (g.rows[v] & comp).bit_count()
        by_deg[d] |= 1 << v
        e += d
    e //= 2
    top = by_deg[m - 1]  # the vertices joined to every other one
    center = (top & -top).bit_length() - 1  # the least of them, if any

    if e == m - 1:  # tree
        if top:
            return {"kind": "star", "s": m - 1, "center": center,
                    "leaves": comp & ~(1 << center)}
        centers = comp & ~by_deg[1]  # a tree on m >= 2 vertices has none isolated
        if centers.bit_count() == 2 and g.has_edge(*bits_to_vertices(centers)):
            return {"kind": "double_star", "centers": centers,
                    "leaves": by_deg[1], "total_leaves": m - 2}
        return None
    if e == m:  # unicyclic
        if m == 3:
            return {"kind": "star_plus", "s": 2, "center": None, "pendants": 0}
        if m == 4 and by_deg[2] == comp:
            return {"kind": "c4"}
        pair = by_deg[2]  # m >= 4, so a center (m - 1 neighbours) is not in it
        if top and pair.bit_count() == 2 and g.has_edge(*bits_to_vertices(pair)):
            return {"kind": "star_plus", "s": m - 1, "center": center,
                    "pair": pair, "pendants": by_deg[1]}
        return None
    if m == 4 and e == 5:
        return {"kind": "c4_plus", "deg2": by_deg[2], "deg3": by_deg[3]}
    if m == 4 and e == 6:
        return {"kind": "k4"}
    return None


def _claim1_violation(g: Graph, w: int, comp: int, info: dict, caps: dict) -> str | None:
    """The first violated degree cap for w against this component, if any."""
    nbr = g.rows[w] & comp
    d = nbr.bit_count()
    if d == 0:
        return None
    kind = info["kind"]
    if kind == "star":
        if info["s"] >= 3 and nbr >> info["center"] & 1:
            if d > caps["big_star_center"]:
                return f"big star with center hit: degree {d}"
        return None
    if kind == "double_star":
        if info["total_leaves"] < 3:
            return None
        if d > caps["double_star"]:
            return f"double star: degree {d}"
        leaf_hits = (nbr & info["leaves"]).bit_count()
        if leaf_hits > 1:
            return f"double star: {leaf_hits} leaf neighbors"
        return None
    if kind == "star_plus":
        if info["s"] < 3:
            return None
        if d > caps["star_plus"]:
            return f"star-plus: degree {d}"
        pendant_hits = (nbr & info["pendants"]).bit_count()
        if pendant_hits > 1:
            return f"star-plus: {pendant_hits} pendant neighbors"
        if nbr >> info["center"] & 1 and d != 1:
            return f"star-plus: center hit with degree {d}"
        return None
    if kind == "c4_plus":
        if d > caps["c4_plus"]:
            return f"c4-plus: degree {d}"
        if d == 2 and nbr & info["deg3"]:
            return "c4-plus: degree-2 contact off the degree-two pair"
        return None
    if kind == "k4":
        if d > caps["k4"]:
            return f"k4: degree {d}"
        return None
    return None  # c4 and small stars carry no cap


def _claim2_violation(g: Graph, w: int, comps: list[tuple[int, dict]], z0: int) -> str | None:
    row = g.rows[w]
    hits = [info for comp, info in comps if row & comp]
    nonstar = [info for info in hits if info["kind"] != "star"]
    if not nonstar:
        return None
    if len(hits) > 1:
        return "neighbors in a second component beside a non-star one"
    if not row & z0:
        return None
    info = nonstar[0]
    kind = info["kind"]
    if kind in ("c4", "c4_plus", "k4"):
        return "isolated-class neighbor next to a quad-bearing component"
    if kind == "star_plus" and info["s"] >= 3 and not row >> info["center"] & 1:
        return "isolated-class neighbor next to an off-center star-plus contact"
    if kind == "double_star" and row & info["leaves"]:
        return "isolated-class neighbor next to a double-star leaf contact"
    return None


def _structural_violations(g: Graph, caps: dict) -> tuple[int, int]:
    """(cap violations, catalog violations) of the structural claims over
    every apex of g: each component of G[Z+] must be a catalog type, and
    each vertex of W must respect the claim-1 caps and claim 2."""
    cap_viol = 0
    catalog_viol = 0
    for z in range(g.n):
        z0, zplus, w_mask = apex_partition(g, z)
        comps = []
        for comp in g.component_masks(within=zplus):
            info = classify_component(g, comp)
            if info is None:
                catalog_viol += 1
                continue
            comps.append((comp, info))
        for w in bits_to_vertices(w_mask):
            for comp, info in comps:
                if _claim1_violation(g, w, comp, info, caps) is not None:
                    cap_viol += 1
            if _claim2_violation(g, w, comps, z0) is not None:
                cap_viol += 1
    return cap_viol, catalog_viol


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


def _battery_details(caps: dict) -> dict:
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


# -- the suite runner ------------------------------------------------------------------


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


_TRIAL_BATCH = 1024  # samples checked at once; bounds the samples a run holds


def _trials(rng: random.Random, trials: int, draw, check):
    """Run seeded trials: draw(rng) makes every generator call of one trial
    and returns its sample, or None to redraw (the trial is skipped after 30
    draws in a row return None). check(samples) takes the samples
    of up to _TRIAL_BATCH trials, in draw order, so that it can batch their
    eigensolves, and returns the violating graphs among them. Returns
    (trials run, violating graphs)."""
    used = 0
    bad = []
    for start in range(0, trials, _TRIAL_BATCH):
        samples = []
        for _ in range(min(_TRIAL_BATCH, trials - start)):
            for _attempt in range(30):
                sample = draw(rng)
                if sample is not None:
                    samples.append(sample)
                    break
        used += len(samples)
        bad += check(samples)
    return used, bad


def property_suite(seed: int, trials: int, *, claim_caps: dict | None = None) -> Report:
    """Randomized checks of the supporting lemmas plus the structural claims
    on configuration-free samples. Seeded and deterministic."""
    if trials < 1:
        raise VerifierError("trials must be >= 1")
    caps = dict(DEFAULT_CLAIM_CAPS)
    if claim_caps:
        caps.update(claim_caps)
    t0 = time.perf_counter()
    details: list[dict] = []
    counterexamples: list[str] = []
    examined = 0

    def lemma(name: str, salt: int, draw, check, **equality_failures) -> None:
        """One lemma's seeded trials, recorded as its detail entry."""
        nonlocal examined
        used, bad = _trials(random.Random(seed * 37 + salt), trials, draw, check)
        examined += used
        counterexamples.extend(graph6_encode(g) for g in bad)
        details.append(
            {"name": name, "passed": not bad and not any(equality_failures.values()),
             "trials": used, "violations": len(bad), **equality_failures}
        )

    # Adding an edge never lowers the index, and strictly raises it when
    # the larger graph is connected.
    def draw_with_non_edge(rng):
        g = _sample(rng, 4, 10)
        non_edges = [
            (i, j) for i in range(g.n) for j in range(i + 1, g.n) if not g.has_edge(i, j)
        ]
        return (g, g.add_edges([rng.choice(non_edges)])) if non_edges else None

    def check_monotone(samples):
        qs = q_indices([g for g, _ in samples] + [bigger for _, bigger in samples])
        bad = []
        for (g, bigger), q0, q1 in zip(samples, qs, qs[len(samples):]):
            ok = q1 >= q0 - 1e-10
            if ok and bigger.is_connected():
                ok = _order(g, q0, bigger, q1) == LESS
            if not ok:
                bad.append(g)
        return bad

    lemma("edge_monotonicity", 101, draw_with_non_edge, check_monotone)

    # Shifting a neighbor set from v onto a vertex with the larger Perron
    # entry strictly raises the index.
    def draw_shift(rng):
        # redraw until the trial admits a nonempty shift set
        g = _sample(rng, 4, 10)
        if not g.is_connected():
            return None
        u, v = rng.sample(range(g.n), 2)
        rows = g.rows
        if rows[u] & ~(1 << v) == rows[v] & ~(1 << u):
            # twins: N(u) - v = N(v) - u leaves no shift set either way
            return None
        # u takes the larger Perron entry: the kernel's certified order,
        # else the order of eigh's vector
        order = kernels.perron_order(rows, u, v)
        if order == 0:
            x = q_index(g).vector
            order = -1 if x[u] < x[v] else 1
        if order < 0:
            u, v = v, u
        pool = [w for w in g.neighbors(v) if w != u and not g.has_edge(u, w)]
        if not pool:
            return None
        moved = rng.sample(pool, rng.randint(1, len(pool)))
        shifted = g.remove_edges((v, w) for w in moved).add_edges(
            (u, w) for w in moved
        )
        return g, shifted

    def check_shift(samples):
        qs = q_indices([h for pair in samples for h in pair])
        return [g for (g, shifted), q0, q1 in zip(samples, qs[::2], qs[1::2])
                if _order(g, q0, shifted, q1) != LESS]

    lemma("perron_shift", 202, draw_shift, check_shift)

    # Equitable quotient fixtures share the index (smallest valid order of
    # every catalog fixture, plus the threshold family partition).
    cases = [
        (fx.item, g, fx.partition(n, s))
        for fx in FIXTURES
        for n, s, g in [next(fixture_graphs(fx, 7, 30))]
    ] + [
        (("threshold", n), k11n2_plus(n).graph, threshold_partition(n))
        for n in (7, 12, 19)
    ]
    bad = []
    for (label, g, blocks), qv in zip(cases, q_indices([g for _, g, _ in cases])):
        qm = quotient_matrix(g, blocks)
        if qm is None or abs(perron_root(qm) - qv) > 1e-8:
            bad.append(label)
    details.append(
        {"name": "equitable_quotient_fixtures", "passed": not bad,
         "checked": len(cases), "failures": bad}
    )

    # The index is at most the largest degree-average eta(v), with equality
    # on cycles, cliques and complete bipartite graphs. Also the counting
    # form: eta(v) <= n + 2 e(neighborhood) / d(v).
    def draw_without_isolated(rng):
        g = _sample(rng, 4, 10)
        return g if g.min_degree > 0 else None

    def check_eta(samples):
        return [g for g, q in zip(samples, q_indices(samples)) if _eta_violated(g, q)]

    eq_bad = []
    equalities = [("cycle9", cycle(9)), ("cycle6", cycle(6)), ("clique7", complete(7)),
                  ("bipartite3x4", complete_multipartite(3, 4)),
                  ("bipartite2x5", complete_multipartite(2, 5))]
    for (label, g), qv in zip(equalities, q_indices([g for _, g in equalities])):
        if abs(qv - float(max_eta(g))) > 1e-9:
            eq_bad.append(label)
    lemma("eta_upper_bound", 303, draw_without_isolated, check_eta,
          equality_failures=eq_bad)

    # At most c(n-c)/2 edges avoid a longest cycle (c its length).
    def draw_cyclic(rng):
        g = _sample(rng, 4, 12)
        # quick cyclicity screen before the heavier search
        if g.edge_count > g.n - len(g.component_masks()):
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

    def check_longest_cycle(samples):
        bad = []
        for g, (c, cyc) in samples:
            if 2 * (g.edge_count - edge_counts(g, cyc, cyc)) > c * (g.n - c):
                bad.append(g)
        return bad

    lemma("longest_cycle_edge_bound", 404, draw_cyclic, check_longest_cycle)

    # Above 4n - 16 edges the three-chord apex configuration is
    # unavoidable (orders 10..14).
    def draw_dense(rng):
        n = rng.randint(10, 14)
        pairs = index_pairs(n)
        e = rng.randint(4 * n - 15, len(pairs))
        adj = [0] * n
        for b in rng.sample(range(len(pairs)), e):
            i, j = pairs[b]
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return Graph(n, tuple(adj))

    def check_configured(samples):
        bad = []
        for g in samples:
            cert = chords.find_k_chords_at_apex(g, 3)
            if cert is None or not chords.verify_certificate(g, cert, 3, True):
                bad.append(g)
        return bad

    lemma("edge_count_forces_configuration", 505, draw_dense, check_configured)

    # Without a path on k+2 vertices there are at most nk/2 edges, with
    # equality on disjoint unions of (k+1)-cliques.
    def check_path_free(samples):
        bad = []
        for g in samples:
            k = kernels.max_path_order(g.rows) - 1
            if k >= 1 and 2 * g.edge_count > g.n * k:
                bad.append(g)
        return bad

    eq_bad2 = []
    for k, copies in ((2, 3), (3, 2), (4, 2)):
        g = complete(k + 1)
        for _ in range(copies - 1):
            g = disjoint_union(g, complete(k + 1))
        if 2 * g.edge_count != g.n * k or kernels.max_path_order(g.rows) != k + 1:
            eq_bad2.append(f"{copies}x clique{k + 1}")
    lemma("path_free_edge_bound", 606, lambda rng: _sample(rng, 3, 12), check_path_free,
          equality_failures=eq_bad2)

    # Threshold family beats n + 2 - 4/(n+2) for 6 <= n <= 40.
    bound_bad = []
    for n, qv in zip(range(6, 41), q_indices([k11n2_plus(n).graph for n in range(6, 41)])):
        pt = _threshold_bound_fraction(n)
        if not qv > float(pt):
            bound_bad.append(n)
        if appendix_polynomial("g", n)(pt) >= 0:
            bound_bad.append((n, "sign"))
    details.append(
        {"name": "threshold_family_lower_bound", "passed": not bound_bad,
         "range": [6, 40], "failures": bound_bad}
    )

    # Structural claims on configuration-free samples.
    def draw_free(rng):
        g = _sample(rng, 4, 10)
        return None if kernels.apex_has_config(g.rows, 3) else g

    claim_viol = catalog_viol = 0

    def check_structure(samples):
        nonlocal claim_viol, catalog_viol
        bad = []
        for g in samples:
            cap_here, catalog_here = _structural_violations(g, caps)
            claim_viol += cap_here
            catalog_viol += catalog_here
            if cap_here or catalog_here:
                bad.append(g)
        return bad

    used, bad = _trials(random.Random(seed * 37 + 707), trials, draw_free, check_structure)
    examined += used
    counterexamples.extend(graph6_encode(g) for g in bad)
    details.append(
        {"name": "structural_claims", "passed": claim_viol == 0 and catalog_viol == 0,
         "trials": used, "cap_violations": claim_viol,
         "catalog_violations": catalog_viol}
    )
    details.append(_battery_details(caps))

    params: dict = {"seed": seed, "trials": trials}
    if claim_caps:
        params["claim_caps"] = dict(sorted(caps.items()))
    return Report(
        task="properties",
        params=params,
        graphs_examined=examined,
        counterexamples=sorted(set(counterexamples)),
        details=details,
        wall_time_ms=(time.perf_counter() - t0) * 1000,
    )
