"""Exhaustive verification runs, and the machine-readable report every task
gives.

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

The appendix task lives in ``appendix`` and the property suite in
``properties``; both return a ``Report`` and order float indices by
``_order``.
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

from . import chords, kernels
from .families import extremal_graph
from .graphs import (
    Graph,
    arrangement_count,
    arrangement_images,
    automorphism_count,
    graph6_decode,
    graph6_encode,
    graph_from_mask,
    is_isomorphic,
)
from .polynomials import EQUAL, GREATER, LESS
from .spectral import q_exact_compare, q_indices

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
    eigensolved, in one batch. ``q_indices`` decides each graph on its own,
    so the maximum is the float a solve over every skipped graph gives. The
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
