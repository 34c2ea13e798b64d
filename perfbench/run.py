#!/usr/bin/env python3
"""chordspec benchmark: time to a checked verdict on four `verify` workloads.

Run from the repository root (the package is imported from ``src/``, the
kernel is whatever ``chordspec.kernels`` selects):

    python3 perfbench/run.py --workload theorem-n6 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one process each

Each run drives the real CLI in-process, ``chordspec.cli.main(argv)``, in a
closed loop: one verify call after another until ``--seconds`` have passed
(at least one call). Every report is checked against the expected verdict
(see ``check_report``). The last line of standard output is one JSON object:
``correct``, ``attempted`` (verify calls made), ``failed`` (calls whose report
did not match) and ``metrics``.

``--trace 0`` gives the end-to-end metrics:

- ``wall_s``: mean time from the ``cli.main`` call to the finished report;
- ``setup_s``: median, over SETUP_SAMPLES fresh processes (half before the
  calls, half after), of importing chordspec, selecting the kernel and
  building the threshold graph;
- ``peak_rss_mb``: the larger of this process's and its children's peak RSS.

Both times are in reference seconds: scaled by the speed of a fixed
reference loop timed between the calls, and around each set-up sample, which
cancels the host's drift (see ``reference_loop``). The raw times are printed
above the result.

``fail_frac`` (failed / attempted) is printed with them; the final JSON
carries it as ``failed`` and ``attempted``.

``--trace 1`` gives the per-layer metrics. The run first times untraced calls
for half the budget, then traced calls for the other half. The tracer wraps
the public functions listed in LAYERS from outside, at every module global
that binds them: the verifier imports most of them by name, so
``verifier.q_exact_compare`` is patched as well as ``spectral.q_exact_compare``.
A layer's ``self_s`` is its time minus the time of wrapped calls nested in it;
``verifier.self_s`` is the call's wall time minus all outermost spans.

Pool workers (``--jobs 2``) are forked from the traced process, but their spans
stay in the workers and are not collected: on ``theorem-n6-j2`` the sweep and
the wait for it show up in ``verifier.self_s``, and the workers' CPU time in
``verifier.children_cpu_s``.

The layer -> metric -> workload map, with each layer's bypass control, is
LAYERS below. The expected reports in ``perfbench/expected/`` are the reports
of the code this benchmark was written against, with ``wall_time_ms`` removed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED = Path(__file__).resolve().parent / "expected"

# The kernel the recorded baselines were measured with. A run on another
# kernel is flagged, so a silent fall back to (or away from) the python
# kernel is not read as a regression or a gain.
RECORDED_KERNEL = "python"

PROPERTY_TRIALS = 150
SEED_STRIDE = 1000
MIN_TRIAL_SHARE = 0.9
SETUP_SAMPLES = 6

# name -> (CLI arguments after "verify", jobs, stored report body); {seed}
# is the run's seed.
#
# The order-7 sweeps are not workloads: with the python kernel, on a 2-vCPU
# Xeon VM, one `theorem --n 7` call takes about 45 s and
# `corollary --n 7 --jobs 2` about 31 s. A run of one such call cannot
# cancel the host's drift (see reference_loop), and the 92 runs of a full
# comparison (4 + 22 per workload) would take well over an hour.
WORKLOADS = {
    # Exhaustive theorem sweep at order 6: 32,768 masks, 27,449 graphs
    # without isolated vertices, 30 exact ties. Serial kernel sweep, float
    # index per survivor, exact tie-breaking.
    "theorem-n6": ("theorem --n 6 --jobs 1", 1, "theorem-n6"),
    # The same sweep through the process pool: chunking, pickled survivors,
    # sort and merge in the parent. The report is the same at any --jobs.
    "theorem-n6-j2": ("theorem --n 6 --jobs 2", 2, "theorem-n6"),
    # Seeded lemma suites: q_index power iteration and the chords searchers
    # on orders 3-14; never calls kernels.sweep_range.
    "properties": ("properties --seed {seed} --trials %d" % PROPERTY_TRIALS, 1,
                   "properties-seed{seed}"),
    # Appendix closed forms at orders 7..22: exact largest-root comparisons,
    # no sweep, no enumeration. The g18 fan-width chain fails from order 19
    # on, pinned, with one graph-level violation (order 21). Order 30, about
    # 11 s a call, leaves one or two calls a run, too few to cancel the
    # host's drift (see reference_loop).
    "appendix-7-22": ("appendix --n-lo 7 --n-hi 22", 1, "appendix-7-22"),
}

# Wrapped layers: (module, function) -> (metrics emitted, workloads whose
# wall_s the layer should move, control workload). Each "calls" counter is
# nonzero on the workloads it is mapped to (see selftest.py). The control
# makes no call to the layer, except signless_laplacian, which properties
# reaches only through quotient_matrix (21 calls, under a millisecond): a
# change to the layer should leave the control's wall_s unchanged.
# kernels.sweep_range runs in the pool workers on theorem-n6-j2, where its
# spans are not collected, so it is mapped to theorem-n6 only.
LAYERS = {
    ("kernels", "sweep_range"): (
        ("self_s", "calls", "masks_per_s", "survivor_frac"),
        ("theorem-n6",), "properties"),
    ("kernels", "apex_has_config"): (
        ("self_s", "calls", "hit_frac"),
        ("theorem-n6", "theorem-n6-j2"), "appendix-7-22"),
    # Only `verify corollary` calls these, for a graph above the threshold
    # without the apex configuration. At order 7 there is none (a traced
    # `corollary --n 7 --jobs 2` counted 143,431 apex hits in 143,431
    # calls), and no workload runs the corollary: they read 0.
    ("kernels", "chorded_has"): (("self_s", "calls"), (), "theorem-n6"),
    ("graphs", "graph_from_mask"): (
        ("self_s", "calls"), ("theorem-n6", "theorem-n6-j2"), "appendix-7-22"),
    ("graphs", "is_isomorphic"): (
        ("self_s", "calls"), ("theorem-n6", "theorem-n6-j2"), "appendix-7-22"),
    ("spectral", "signless_laplacian"): (
        ("self_s", "calls"), ("theorem-n6", "theorem-n6-j2"), "properties"),
    ("spectral", "q_index"): (
        ("self_s", "calls"), ("properties", "appendix-7-22"), "theorem-n6"),
    ("spectral", "q_exact_compare"): (
        ("self_s", "calls", "equal_frac"),
        ("theorem-n6", "theorem-n6-j2"), "appendix-7-22"),
    ("spectral", "charpoly_int_matrix"): (
        ("self_s", "calls"), ("appendix-7-22", "theorem-n6", "theorem-n6-j2"),
        "properties"),
    ("spectral", "quotient_matrix"): (
        ("self_s", "calls"), ("appendix-7-22", "properties"), "theorem-n6"),
    ("spectral", "max_eta"): (("self_s",), ("properties",), "theorem-n6"),
    ("polynomials", "compare_largest_roots"): (
        ("self_s", "calls"), ("appendix-7-22", "theorem-n6", "theorem-n6-j2"),
        "properties"),
    # The theorem workloads call it through the python kernel's
    # apex_has_config, and directly for the 30 extremal graphs.
    ("chords", "find_k_chords_at_apex"): (
        ("self_s", "calls"), ("properties", "theorem-n6", "theorem-n6-j2"),
        "appendix-7-22"),
    ("chords", "find_chorded_cycle"): (("self_s", "calls"), (), "theorem-n6"),
    ("chords", "longest_cycle"): (
        ("self_s", "calls"), ("properties",), "theorem-n6"),
    ("chords", "max_path_order"): (
        ("self_s", "calls"), ("properties",), "theorem-n6"),
    ("chords", "verify_certificate"): (
        ("self_s", "calls"), ("properties",), "theorem-n6"),
    ("appendix", "appendix_polynomial"): (
        ("self_s", "calls"), ("appendix-7-22",), "theorem-n6"),
    ("appendix", "quotient_template"): (
        ("self_s", "calls"), ("appendix-7-22",), "theorem-n6"),
}

# Metrics of the verify call itself rather than of one wrapped function.
VERIFIER_METRICS = (
    "verifier.self_s",
    "verifier.children_cpu_s",
    "verifier.parallel_eff",
    "trace.overhead_frac",
)

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "fail_frac": "ratio",
    "self_s": "s", "children_cpu_s": "s", "calls": "count", "masks_per_s": "1/s",
    "survivor_frac": "ratio", "hit_frac": "ratio", "equal_frac": "ratio",
    "parallel_eff": "ratio", "overhead_frac": "ratio",
}


def layer_name(module: str, fn: str) -> str:
    return f"{module}.{fn}"


def per_layer_metric_names() -> list[str]:
    names = [
        f"{layer_name(*key)}.{m}" for key, (metrics, _, _) in LAYERS.items()
        for m in metrics
    ]
    return names + list(VERIFIER_METRICS)


def unit_of(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[-1]]


def verify_argv(workload: str, seed: int) -> list[str]:
    return ["verify"] + WORKLOADS[workload][0].format(seed=seed).split()


# -- verdict check ------------------------------------------------------------


def expected_body(workload: str, seed: int) -> dict | None:
    """The stored report body for this workload (and seed, for properties)."""
    path = EXPECTED / f"{WORKLOADS[workload][2].format(seed=seed)}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def check_report(code: int, report: dict | None, expected: dict | None,
                 requested: tuple[int, int] | None = None) -> list[str]:
    """Why a verify call's result does not match the expected verdict;
    empty if it does.

    With a stored body (`expected`), the report must reproduce it exactly,
    every key except wall_time_ms, and exit 0 on a pass or 1 on the expected
    failure. Without one, `requested` = (seed, trials) of a properties run:
    the suite must pass with the requested trial counts (at least
    MIN_TRIAL_SHARE of them where a suite may skip a trial).
    """
    if report is None:
        return [f"no JSON report (exit code {code})"]
    problems = []
    if expected is not None:
        got = {k: v for k, v in report.items() if k != "wall_time_ms"}
        for key in sorted(set(expected) | set(got)):
            if expected.get(key) != got.get(key):
                problems.append(f"{key}: expected {expected.get(key)!r}, "
                                f"got {got.get(key)!r}")
        want_code = 0 if expected.get("passed") else 1
    elif requested is not None:
        seed, trials = requested
        want_code = 0
        if report.get("task") != "properties":
            problems.append(f"task: {report.get('task')!r}")
        if report.get("params") != {"seed": seed, "trials": trials}:
            problems.append(f"params: {report.get('params')!r}")
        if not report.get("passed") or report.get("counterexamples"):
            problems.append("properties suite did not pass")
        # Suites that redraw an inadmissible sample skip the trial after 30
        # draws (perron_shift does so about once in 6,000 trials), so a count
        # may fall a little short of the request but never exceed it.
        for d in report.get("details", []):
            if "trials" in d and not MIN_TRIAL_SHARE * trials <= d["trials"] <= trials:
                problems.append(f"{d['name']}: {d['trials']} trials, "
                                f"requested {trials}")
    else:
        return ["no stored report body"]
    if code != want_code:
        problems.append(f"exit code {code}, expected {want_code}")
    return problems


# -- one verify call ------------------------------------------------------------


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_verify(argv: list[str]) -> tuple[int, dict | None, float, float]:
    """(exit code, parsed report, wall seconds, children CPU seconds)."""
    from chordspec import cli

    out = io.StringIO()
    cpu0 = _children_cpu()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Exception:  # a crash is a failed call; the run goes on
        traceback.print_exc()
        code = -1
    wall = time.perf_counter() - t0
    cpu = _children_cpu() - cpu0
    try:
        report = json.loads(out.getvalue())
    except json.JSONDecodeError:
        report = None
    return code, report, wall, cpu


# -- tracing --------------------------------------------------------------------


class _Stat:
    __slots__ = ("self_s", "calls", "extra")

    def __init__(self) -> None:
        self.self_s = 0.0
        self.calls = 0
        self.extra: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + value


def _observe_sweep(stat: _Stat, args, result) -> None:
    _, lo, hi, _ = args[:4]
    no_isolated, survivors = result
    stat.add("masks", hi - lo)
    stat.add("no_isolated", no_isolated)
    stat.add("survivors", len(survivors))


def _observe_apex(stat: _Stat, args, result) -> None:
    stat.add("hits", bool(result))


def _observe_exact(stat: _Stat, args, result) -> None:
    from chordspec.polynomials import EQUAL

    stat.add("equal", result == EQUAL)


_OBSERVERS = {
    ("kernels", "sweep_range"): _observe_sweep,
    ("kernels", "apex_has_config"): _observe_apex,
    ("spectral", "q_exact_compare"): _observe_exact,
}


class Tracer:
    """Wraps the LAYERS functions at every chordspec module global bound to
    them, for the duration of a ``with`` block, and accumulates self time,
    calls and the observers' counts per layer.

    Spans are aggregated as they close rather than kept: the order-7 sweeps
    make hundreds of thousands of them.
    """

    def __init__(self) -> None:
        self.stats = {key: _Stat() for key in LAYERS}
        self.root_s = 0.0  # summed duration of outermost spans
        self._stack: list[float] = []  # child time inside each open span
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, key, fn):
        stat = self.stats[key]
        observe = _OBSERVERS.get(key)
        stack = self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stat.self_s += dt - stack.pop()
                stat.calls += 1
                if stack:
                    stack[-1] += dt
                else:
                    self.root_s += dt
            if observe is not None:
                observe(stat, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self) -> "Tracer":
        import importlib

        # Import every module first, so that no module binds an original
        # after the patching below.
        importlib.import_module("chordspec.cli")
        originals = {key: getattr(importlib.import_module(f"chordspec.{key[0]}"), key[1])
                     for key in LAYERS}
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "chordspec"
                                         or name.startswith("chordspec."))]
        for key, original in originals.items():
            wrapper = self._wrap(key, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def layer_metrics(tracer: Tracer, wall: float, children_cpu: float,
                  jobs: int) -> dict[str, float]:
    """Per-layer metrics of one traced verify call (trace.overhead_frac is
    added by the caller, which has the untraced times)."""
    out: dict[str, float] = {}
    for key, (metrics, _, _) in LAYERS.items():
        stat = tracer.stats[key]
        name = layer_name(*key)
        ex = stat.extra
        values = {
            "self_s": stat.self_s,
            "calls": stat.calls,
            "masks_per_s": ex.get("masks", 0.0) / stat.self_s if stat.self_s else 0.0,
            "survivor_frac": (ex.get("survivors", 0.0) / ex["no_isolated"]
                              if ex.get("no_isolated") else 0.0),
            "hit_frac": ex.get("hits", 0.0) / stat.calls if stat.calls else 0.0,
            "equal_frac": ex.get("equal", 0.0) / stat.calls if stat.calls else 0.0,
        }
        for m in metrics:
            out[f"{name}.{m}"] = values[m]
    out["verifier.self_s"] = wall - tracer.root_s
    out["verifier.children_cpu_s"] = children_cpu
    out["verifier.parallel_eff"] = children_cpu / (jobs * wall)
    return out


# -- set-up time -----------------------------------------------------------------

_SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
from chordspec import kernels
from chordspec.families import extremal_graph
kernels.IS_COMPILED, extremal_graph(7).graph
print(time.perf_counter() - t0)
"""


def setup_samples(samples: int) -> list[tuple[float, float]]:
    """(set-up time timed inside a fresh interpreter, mean reference time
    just before and after it), `samples` times."""
    out = []
    for _ in range(samples):
        refs = time_reference(SETUP_REF_SECONDS)
        stdout = subprocess.run(
            [sys.executable, "-c", _SETUP_SNIPPET.format(src=str(SRC))],
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        refs += time_reference(SETUP_REF_SECONDS)
        out.append((float(stdout), statistics.fmean(refs)))
    return out


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


# -- run metadata -----------------------------------------------------------------


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, check=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_metadata(workload: str, seed: int, trace: int) -> dict:
    import numpy

    from chordspec import kernels

    kernel = "compiled" if kernels.IS_COMPILED else "python"
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "argv": verify_argv(workload, seed),
        "kernel": kernel,
        "kernel_recorded": RECORDED_KERNEL,
        "kernel_differs": kernel != RECORDED_KERNEL,
        "jobs": WORKLOADS[workload][1],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


# -- host speed reference ----------------------------------------------------------
#
# The host's speed drifts: on a shared 2-vCPU machine the same verify call
# took anywhere from 0.35 s to 0.69 s within one hour, in phases lasting
# seconds to minutes, and set-up time moved with it. Raw times of one run
# therefore say more about the host than about the program. The benchmark
# times a fixed reference loop, which shares no code with chordspec,
# interleaved with the calls, and reports times in reference seconds:
# raw time * REF_SECONDS / mean reference time (of the run for wall_s, of
# the passes around each sample for setup_s). A change to the program moves
# only the numerator. The raw times are printed as well.

REF_SECONDS = 0.03  # the reference loop's time at the reference host speed
REF_SHARE = 0.25  # reference timing after a call, as a share of the call
SETUP_REF_SECONDS = 0.1  # reference timing on each side of a set-up sample


def reference_loop() -> float:
    """Time one pass of a fixed loop doing the kinds of work the verifier
    does: exact fraction sums, dict updates and small symmetric eigenvalue
    problems."""
    import numpy as np

    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 3000):
        acc += Fraction(i % 7, i)
    counts: dict[int, int] = {}
    for i in range(60000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    ones = np.ones((7, 7))
    for i in range(400):
        np.linalg.eigvalsh(ones + i)
    return time.perf_counter() - t0


def time_reference(seconds: float) -> list[float]:
    """Reference passes for at least `seconds` (at least one pass)."""
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        times.append(reference_loop())
    return times


# -- the measured loop -------------------------------------------------------------


class Run:
    """Verify calls of one workload, with their checks.

    Call i of a properties run uses seed + SEED_STRIDE * i, so that one run
    spreads over several inputs and its time depends less on one seed's
    draws; call 0 uses the run's own seed. The other workloads have fixed
    inputs.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.jobs = WORKLOADS[workload][1]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, index: int, tracer: Tracer | None = None,
             argv: list[str] | None = None) -> tuple[float, float]:
        """(wall, children CPU) of the index-th call; `argv` overrides the
        workload's arguments (the self-test uses it for a wrong run)."""
        properties = self.workload == "properties"
        seed = self.seed + SEED_STRIDE * index if properties else self.seed
        if argv is None:
            argv = verify_argv(self.workload, seed)
        with tracer if tracer is not None else nullcontext():
            code, report, wall, cpu = run_verify(argv)
        self.attempted += 1
        problems = check_report(code, report, expected_body(self.workload, seed),
                                (seed, PROPERTY_TRIALS) if properties else None)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return wall, cpu

    def loop(self, seconds: float, traced: bool = False):
        """Calls until `seconds` have passed (at least one), with one pass of
        the reference loop before the first call and passes for REF_SHARE of
        each call's wall time after it.

        Returns (samples, reference times): a sample is the call's wall time,
        or with `traced` its per-layer metrics plus "wall_s".
        """
        refs = time_reference(0.0)
        samples: list = []
        start = time.perf_counter()
        while not samples or time.perf_counter() - start < seconds:
            tracer = Tracer() if traced else None
            wall, cpu = self.call(len(samples), tracer)
            samples.append(wall if tracer is None else
                           layer_metrics(tracer, wall, cpu, self.jobs) | {"wall_s": wall})
            refs += time_reference(REF_SHARE * wall)
        return samples, refs


def measure(workload: str, seed: int, seconds: float, trace: int):
    """(metrics, run, detail lines)."""
    run = Run(workload, seed)
    if not trace:
        setup = setup_samples(SETUP_SAMPLES // 2)
        walls, refs = run.loop(seconds)
        setup += setup_samples(SETUP_SAMPLES - len(setup))
        scale = REF_SECONDS / statistics.fmean(refs)
        metrics = {
            "wall_s": statistics.fmean(walls) * scale,
            "setup_s": statistics.median(t * REF_SECONDS / ref for t, ref in setup),
            "peak_rss_mb": peak_rss_mb(),
        }
        lines = [
            f"raw wall per call: {len(walls)} calls, mean {statistics.fmean(walls):.6g} s, "
            f"median {statistics.median(walls):.6g} s, min {min(walls):.6g} s, "
            f"max {max(walls):.6g} s",
            f"raw setup: median {statistics.median(t for t, _ in setup):.6g} s "
            f"of {len(setup)}",
            f"reference loop: {len(refs)} passes, mean {statistics.fmean(refs):.6g} s; "
            f"times below are scaled by {scale:.6g}",
        ]
        return metrics, run, lines
    walls, refs = run.loop(seconds / 2)
    samples, traced_refs = run.loop(seconds / 2, traced=True)
    # Counts come from the first traced call, so they repeat exactly between
    # runs whatever the number of calls; layer times are raw medians.
    metrics = {name: (samples[0][name] if name.endswith(".calls")
                      else statistics.median(s[name] for s in samples))
               for name in per_layer_metric_names()
               if name != "trace.overhead_frac"}
    untraced = statistics.fmean(walls) / statistics.fmean(refs)
    traced = (statistics.fmean(s["wall_s"] for s in samples)
              / statistics.fmean(traced_refs))
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    lines = [f"untraced calls: {len(walls)}, traced calls: {len(samples)}"]
    return metrics, run, lines


def _print_result(metrics: dict[str, float], run: Run) -> None:
    out = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(out))


def main_one(args) -> int:
    meta = run_metadata(args.workload, args.seed, args.trace)
    print("meta " + json.dumps(meta), flush=True)
    if meta["kernel_differs"]:
        print(f"WARNING: kernel {meta['kernel']} ran; the recorded baseline "
              f"used {RECORDED_KERNEL}", flush=True)
    metrics, run, lines = measure(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    for name, value in metrics.items():
        print(f"{name:44s} {value:.6g} {unit_of(name)}")
    print(f"{'fail_frac':44s} {run.failed / run.attempted:.6g} {unit_of('fail_frac')} "
          f"({run.failed} of {run.attempted})")
    for problem in dict.fromkeys(run.problems):
        print(f"MISMATCH: {problem}")
    _print_result(metrics, run)
    return 0 if run.failed == 0 else 1


def main_all(args) -> int:
    """Every workload, each in a fresh process; a summary table at the end."""
    rows = []
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)],
            capture_output=True, text=True,
        )
        print(f"== {workload} (exit {proc.returncode})")
        print(proc.stdout, end="")
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode != 0 or result is None:
            status = 1
        rows.append((workload, result))
    print("== summary")
    for workload, result in rows:
        if result is None:
            print(f"{workload:18s} no result")
            continue
        cells = [f"{k}={v['value']:.6g} {v['unit']}"
                 for k, v in result["metrics"].items() if "." not in k]
        cells.append(f"fail_frac={result['failed'] / result['attempted']:.6g} ratio")
        print(f"{workload:18s} " + "  ".join(cells))
    return status


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "chordspec" / "cli.py").is_file():
        print(f"perfbench: no chordspec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return main_all(args)
    return main_one(args)


if __name__ == "__main__":
    sys.exit(main())
