#!/usr/bin/env python3
"""Benchmark the compiled sweep kernels against the pure-Python fallback.

Usage: python benchmarks/bench_kernels.py [--full]

--full adds a complete order-7 sweep for both implementations (the fallback
takes a couple of minutes there; the default compares on order 6 plus an
order-7 slice).
"""

from __future__ import annotations

import argparse
import random
import time

from chordspec import kernels
from chordspec.families import k11n2_plus, k1_join_k4_union_k1
from chordspec.spectral import q_index


def time_call(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def bench_sweep(impls, n, lo, hi, floor):
    print(f"sweep n={n} masks=[{lo}, {hi}) floor={floor:.4f}")
    base = None
    for label, impl in impls:
        dt, (cnt, surv) = time_call(impl.sweep_range, n, lo, hi, floor)
        rate = (hi - lo) / dt / 1e6
        print(f"  {label:9s} {dt:8.2f}s  {rate:7.2f} Mmask/s  "
              f"no-isolated={cnt} survivors={len(surv)}")
        if base is None:
            base = (cnt, surv)
        else:
            assert base == (cnt, surv), "implementations disagree"


def bench_detector(impls, trials=20000, seed=7):
    print(f"apex detector, {trials} random order-7/8 graphs")
    rng = random.Random(seed)
    cases = []
    for _ in range(trials):
        n = rng.randint(7, 8)
        mask = rng.getrandbits(n * (n - 1) // 2)
        cases.append((n, mask))
    base = None
    for label, impl in impls:
        t0 = time.perf_counter()
        hits = sum(1 for n, m in cases if impl.apex_has_config(n, m, 3))
        dt = time.perf_counter() - t0
        print(f"  {label:9s} {dt:8.2f}s  {trials / dt:9.0f} graphs/s  hits={hits}")
        if base is None:
            base = hits
        else:
            assert base == hits, "implementations disagree"


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--full", action="store_true",
                    help="also run the complete order-7 sweep on both paths")
    args = ap.parse_args()

    impls = kernels.implementations()
    print("available kernels:", ", ".join(label for label, _ in impls))
    floor6 = q_index(k1_join_k4_union_k1().graph).q - 1e-6
    floor7 = q_index(k11n2_plus(7).graph).q - 1e-6

    bench_sweep(impls, 6, 0, 1 << 15, floor6)
    bench_sweep(impls, 7, 0, 1 << 18, floor7)
    if args.full:
        bench_sweep(impls, 7, 0, 1 << 21, floor7)
    bench_detector(impls)


if __name__ == "__main__":
    main()
