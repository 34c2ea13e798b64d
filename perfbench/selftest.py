#!/usr/bin/env python3
"""Fast self-test of the benchmark harness, at tiny sizes.

Run from the repository root:

    python3 perfbench/selftest.py      # about ten seconds

It checks that
- BENCHMARK.json names exactly the metrics run.py emits, and a run emits them;
- each ``.calls`` counter is nonzero on every workload LAYERS maps it to
  (theorem n=6 at one and two jobs, properties with a few trials, appendix
  7..10), which catches a wrapper patched into the wrong namespace;
- the self times plus ``verifier.self_s`` sum to the traced wall time;
- the verdict check counts a wrong report as failed: a theorem run at n=6
  with --threshold-offset -0.5 against the stored theorem body, and a passing
  appendix report against the stored (failing) appendix body.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

import run

# Tiny stand-ins for the workloads LAYERS maps layers to. Appendix 7..10 is
# the smallest range whose fan-width chains call compare_largest_roots.
TINY = {
    "theorem-n6": run.verify_argv("theorem-n6", 0),
    "theorem-n6-j2": run.verify_argv("theorem-n6-j2", 0),
    "properties": ["verify", "properties", "--seed", "11", "--trials", "5"],
    "appendix-7-22": ["verify", "appendix", "--n-lo", "7", "--n-hi", "10"],
}


def check(cond: bool, msg: str, failures: list[str]) -> None:
    print(("ok   " if cond else "FAIL ") + msg)
    if not cond:
        failures.append(msg)


def check_benchmark_json(failures: list[str]) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END),
          "BENCHMARK.json end_to_end names match run.END_TO_END", failures)
    check([m["name"] for m in spec["per_layer"]] == run.per_layer_metric_names(),
          "BENCHMARK.json per_layer names match run.py", failures)
    check(all(run.unit_of(m["name"]) == m["unit"]
              for m in spec["end_to_end"] + spec["per_layer"]),
          "BENCHMARK.json units match run.py", failures)
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads match run.WORKLOADS", failures)


def check_emitted(failures: list[str]) -> None:
    """One short run of each mode through the command line."""
    for trace, names in ((0, list(run.END_TO_END)), (1, run.per_layer_metric_names())):
        proc = subprocess.run(
            [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload",
             "theorem-n6", "--seed", "1", "--seconds", "0", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        check(proc.returncode == 0 and result["correct"] and result["failed"] == 0,
              f"trace {trace}: run passes its verdict check", failures)
        check(list(result["metrics"]) == names,
              f"trace {trace}: every named metric is emitted", failures)
        check(all(isinstance(v["value"], (int, float)) and v["unit"] == run.unit_of(k)
                  for k, v in result["metrics"].items()),
              f"trace {trace}: values are numbers with their units", failures)


def check_traced(workload: str, argv: list[str], failures: list[str]) -> None:
    tracer = run.Tracer()
    with tracer:
        code, report, wall, cpu = run.run_verify(argv)
    check(report is not None and code in (0, 1), f"{workload}: report produced",
          failures)
    jobs = int(argv[argv.index("--jobs") + 1]) if "--jobs" in argv else 1
    metrics = run.layer_metrics(tracer, wall, cpu, jobs)
    for key, (_, workloads, _) in run.LAYERS.items():
        name = f"{run.layer_name(*key)}.calls"
        if workload in workloads and name in metrics:
            check(metrics[name] > 0, f"{workload}: {name} = {metrics[name]}", failures)
    self_sum = sum(s.self_s for s in tracer.stats.values()) + metrics["verifier.self_s"]
    check(math.isclose(self_sum, wall, rel_tol=1e-9, abs_tol=1e-9),
          f"{workload}: self times sum to wall_s ({self_sum:.6f} vs {wall:.6f})",
          failures)
    check(all(s.self_s >= 0 for s in tracer.stats.values()),
          f"{workload}: no negative self time", failures)
    # the tracer restores every patched name on exit
    from chordspec import verifier

    check(not hasattr(verifier.q_exact_compare, "__wrapped__"),
          f"{workload}: wrappers removed after the traced call", failures)


def check_verdicts(failures: list[str]) -> None:
    bad = run.Run("theorem-n6", 1)
    bad.call(0, argv=TINY["theorem-n6"] + ["--threshold-offset", "-0.5"])
    check(bad.failed == 1 and bad.attempted == 1,
          "theorem n=6 with --threshold-offset -0.5 counts as failed", failures)

    good = run.Run("theorem-n6", 1)
    good.call(0)
    check(good.failed == 0, "theorem n=6 matches its stored body", failures)

    code, report, _, _ = run.run_verify(TINY["appendix-7-22"])
    check(bool(run.check_report(code, report, run.expected_body("appendix-7-22", 0))),
          "a passing appendix report does not match the stored failing body",
          failures)

    code, report, _, _ = run.run_verify(TINY["properties"])
    check(not run.check_report(code, report, None, requested=(11, 5)),
          "properties at a seed without a stored body passes its trial counts",
          failures)
    check(bool(run.check_report(code, report, None, requested=(11, 4))),
          "properties with the wrong trial count does not pass", failures)


def main() -> int:
    if not (run.SRC / "chordspec").is_dir():
        print("selftest: no chordspec sources", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    failures: list[str] = []
    check_benchmark_json(failures)
    check_emitted(failures)
    for workload, argv in TINY.items():
        check_traced(workload, argv, failures)
    check_verdicts(failures)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
