import functools
import importlib.machinery
import importlib.util
import inspect
import math
import os
import random
import re
import shutil
import subprocess
import sys
import threading
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from chordspec import _sweep_py, appendix, kernels, spectral, verifier
from chordspec.appendix import verify_appendix
from chordspec.chords import find_chorded_cycle, find_k_chords_at_apex
from chordspec.families import complete, extremal_graph, path
from chordspec.graphs import arrangement_count, disjoint_union, graph_from_mask, make_graph
from chordspec.polynomials import EQUAL
from chordspec.properties import property_suite
from chordspec.spectral import q_index
from chordspec.verifier import (
    TIE_BAND,
    _spot_check_draws,
    _threshold_constants,
    _without_isolated_vertices,
)
from oracles import (
    MaskBatch,
    count_roots_above,
    cycles_by_dfs,
    is_connected,
    oracle_apex_chords,
    oracle_classify_labeled,
    oracle_degree_vector_bounds,
    oracle_longest_path_order,
    oracle_q,
    oracle_sample,
    oracle_slot_rows,
    sorted_mask,
)

IMPLEMENTATIONS = kernels.implementations()
PACKAGE = Path(kernels.__file__).parent


@pytest.fixture
def compiled():
    # only a missing compiler skips: with one on PATH, a kernel that did not
    # build is a failure
    if kernels.compiler() is None:
        pytest.skip("no C compiler on PATH")
    impl = dict(kernels.implementations()).get("compiled")
    assert impl is not None, "a C compiler is on PATH but the kernel did not build"
    return impl


def _python(code, *args, pythonpath=PACKAGE.parent, **env):
    """Start code in a fresh interpreter that imports chordspec from
    pythonpath; the caller collects it with communicate()."""
    return subprocess.Popen(
        [sys.executable, "-c", code, *map(str, args)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(pythonpath), **env},
    )


def test_compiled_extension_is_active_by_default(compiled):
    assert kernels.IS_COMPILED != bool(os.environ.get("CHORDSPEC_NO_EXT"))
    labels = [name for name, _ in kernels.implementations()]
    assert labels == ["compiled", "python"]


def test_no_ext_setting_forces_the_python_kernel():
    proc = _python("from chordspec import kernels; print(kernels.IS_COMPILED)",
                   CHORDSPEC_NO_EXT="1")
    assert (proc.communicate(timeout=300), proc.returncode) == (("False\n", ""), 0)


def test_edited_source_gets_a_new_cache_entry(compiled, tmp_path):
    source, cache = tmp_path / "_sweep.c", tmp_path / "cache"
    shutil.copy(kernels.SOURCE, source)
    first = Path(kernels.build(source, cache).__file__)
    built_at = first.stat().st_mtime_ns
    # unchanged source: the cached file is loaded, not rebuilt
    assert Path(kernels.build(source, cache).__file__) == first
    assert first.stat().st_mtime_ns == built_at
    source.write_text(source.read_text() + "\n/* edited */\n")
    second = kernels.build(source, cache)
    assert Path(second.__file__) != first
    # the build of the edited source replaces the old one
    assert list(cache.iterdir()) == [Path(second.__file__)]
    assert (second.classify(5, 0, 1024, 6.0, 6.0, None)
            == _sweep_py.classify(5, 0, 1024, 6.0, 6.0, None))


def test_cached_file_that_will_not_load_is_compiled_again(compiled, tmp_path):
    name = Path(kernels.build(kernels.SOURCE, tmp_path / "first").__file__).name
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / name).write_bytes(b"not a shared object")
    module = kernels.build(kernels.SOURCE, cache)
    assert Path(module.__file__) == cache / name
    assert (module.classify(5, 0, 1024, 6.0, 6.0, None)
            == _sweep_py.classify(5, 0, 1024, 6.0, 6.0, None))
    assert sorted(cache.iterdir()) == [cache / name]


def test_an_extension_beside_a_source_that_fails_to_build_is_not_loaded(compiled, tmp_path):
    # a working kernel module in the package, as an in-place setup.py build
    # left it, next to an edited source that no longer compiles: the import
    # must not load the stale module
    package = tmp_path / "src" / "chordspec"
    shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("*.so", "__pycache__"))
    stale = Path(kernels.build(kernels.SOURCE, tmp_path / "stale").__file__)
    shutil.copy(stale, package / f"_sweep{importlib.machinery.EXTENSION_SUFFIXES[0]}")
    (package / "_sweep.c").write_text("#error edited into a broken source\n")
    proc = _python("from chordspec import kernels; print(kernels.IS_COMPILED)",
                   pythonpath=tmp_path / "src")
    assert (proc.communicate(timeout=300), proc.returncode) == (("False\n", ""), 0)


def test_concurrent_builds_into_one_empty_cache_both_load(compiled, tmp_path):
    cache = tmp_path / "cache"
    code = ("import sys; from pathlib import Path; from chordspec import kernels; "
            "m = kernels.build(kernels.SOURCE, Path(sys.argv[1])); "
            "print(m.classify(5, 0, 1024, 6.0, 6.0, None))")
    procs = [_python(code, cache, CHORDSPEC_NO_EXT="1") for _ in range(2)]
    outs = [proc.communicate(timeout=300) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], outs
    want = f"{_sweep_py.classify(5, 0, 1024, 6.0, 6.0, None)}\n"
    assert [out for out, _ in outs] == [want, want]
    # one build in place, no temporary file left behind
    assert len(list(cache.iterdir())) == 1


def test_without_a_compiler_the_import_falls_back_to_python(tmp_path):
    # a copy of the package, so neither the repository's build cache nor an
    # extension built in place is found
    shutil.copytree(PACKAGE, tmp_path / "src" / "chordspec",
                    ignore=shutil.ignore_patterns("*.so", "__pycache__"))
    proc = _python("from chordspec import kernels; print(kernels.IS_COMPILED, kernels.compiler())",
                   pythonpath=tmp_path / "src", PATH=str(tmp_path / "no-compiler"))
    assert (proc.communicate(timeout=300), proc.returncode) == (("False None\n", ""), 0)
    assert not (tmp_path / "build").exists()


@pytest.mark.parametrize("n", (4, 5, 6))
def test_sweep_implementations_agree(compiled, n):
    nbits = n * (n - 1) // 2
    total = 1 << nbits
    for floor in (3.0, 5.5, 7.2):
        got_c = compiled.classify(n, 0, total, floor, floor, None)
        got_py = _sweep_py.classify(n, 0, total, floor, floor, None)
        assert got_c[0] == got_py[0]
        assert got_c[2] == got_py[2]


@pytest.mark.parametrize(
    "impl", [impl for _, impl in IMPLEMENTATIONS],
    ids=[label for label, _ in IMPLEMENTATIONS],
)
def test_sweep_soundness_never_drops_high_q(impl):
    # every no-isolated graph with q >= floor must be among the survivors,
    # which are degree-sorted: through its sorted form
    n = 5
    total = 1 << 10
    floor = 6.0
    _, _, survivors = impl.classify(n, 0, total, floor, floor, None)
    surv = set(survivors)
    for mask in range(total):
        g = graph_from_mask(n, mask)
        if g.min_degree == 0:
            continue
        if oracle_q(g) >= floor:
            assert sorted_mask(n, mask) in surv, mask


def test_sweep_range_is_classify_without_a_test():
    # the one sweep_range, over the kernel that runs
    for floor in (3.0, 6.0):
        no_isolated, hits, rest = kernels.classify(5, 0, 1024, floor, floor, None)
        assert hits == 0
        assert kernels.sweep_range(5, 0, 1024, floor) == (no_isolated, rest)
    with pytest.raises(ValueError):
        kernels.sweep_range(5, 0, 1024, math.nan)


def test_apex_kernel_matches_searcher_exhaustively(compiled):
    for n in (4, 5):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = graph_from_mask(n, mask)
            want = find_k_chords_at_apex(g, 3) is not None
            assert compiled.apex_has_config(g.rows, 3) == want
            assert _sweep_py.apex_has_config(g.rows, 3) == want


def test_apex_kernel_matches_searcher_random_n7(compiled):
    rng = random.Random(55)
    for _ in range(3000):
        mask = rng.randrange(1 << 21)
        g = graph_from_mask(7, mask)
        want = find_k_chords_at_apex(g, 3) is not None
        assert compiled.apex_has_config(g.rows, 3) == want


@pytest.mark.parametrize(
    "impl", [impl for _, impl in IMPLEMENTATIONS],
    ids=[label for label, _ in IMPLEMENTATIONS],
)
def test_chorded_kernel_matches_searcher(impl):
    # chorded_has runs the apex search first for m <= 3; the searcher does not
    rng = random.Random(56)
    for _ in range(1500):
        n = rng.randint(4, 8)
        mask = rng.randrange(1 << (n * (n - 1) // 2))
        g = graph_from_mask(n, mask)
        for m in (1, 2, 3, 4):
            want = find_chorded_cycle(g, m) is not None
            assert impl.chorded_has(g.rows, m) == want, (n, mask, m)


# n outside 1..11, or not 0 <= lo <= hi <= 2^C(n,2)
BAD_RANGES = [(0, 0, 1), (12, 0, 1), (5, -3, 2), (5, 3, 2), (5, 0, 1025), (5, 0, 1 << 70)]


# rows that are not those of a simple graph on at most 64 vertices
BAD_ROWS = [
    [0] * 65,
    [1 << 1, 0],  # 0 lists 1, 1 does not list 0
    [1 << 2, 0],  # vertex 2 does not exist
    [1],  # a loop
    [-1, 0],
    [1 << 64],
    [0b010, 0b101, 0b000],  # 1 lists 2, 2 lists nothing
]
# arguments that are not lists, whose type a kernel names by its __name__
NOT_LISTS = (np.array([1]), type("Masks", (), {})(), type("a.b", (), {})())
# the 64-cycle, and the 64-cycle with three chords at vertex 0
RING64 = [1 << (v + 1) % 64 | 1 << (v - 1) % 64 for v in range(64)]
FAN64 = [row | (v in (10, 20, 30)) for v, row in enumerate(RING64)]
FAN64[0] |= 1 << 10 | 1 << 20 | 1 << 30
# K4 on 0..3 joined to vertex 4, and a pendant on vertex v % 4 at each v >= 5
K4_FRINGE64 = make_graph(64, [(i, j) for i in range(5) for j in range(i + 1, 5)]
                         + [(v, v % 4) for v in range(5, 64)]).rows


@pytest.mark.parametrize(
    "impl", [impl for _, impl in IMPLEMENTATIONS],
    ids=[label for label, _ in IMPLEMENTATIONS],
)
def test_kernel_guards(impl):
    # n in 1..11; sweep ranges 0 <= lo <= hi <= 2^C(n,2); a floor that is a
    # number; the rows of a simple graph on at most 64 vertices; a chord
    # count that is an int of at least 1
    for n, lo, hi in BAD_RANGES:
        with pytest.raises(ValueError):
            impl.classify(n, lo, hi, 5.0, 5.0, None)
    with pytest.raises(ValueError):  # a NaN floor is no cut
        impl.classify(5, 0, 1024, math.nan, math.nan, None)
    k5, k6 = complete(5).rows, complete(6).rows
    for detector in (impl.apex_has_config, impl.chorded_has):
        for rows in BAD_ROWS:
            with pytest.raises(ValueError):
                detector(rows, 3)
        for rows in ([0.0], [0, None], 5, None):  # a row that is not an int, no rows
            with pytest.raises(TypeError):
                detector(rows, 3)
        # k below 1 is refused before any search, also on K6, which has
        # three chords at a vertex; so is a k that is not an int
        for rows in (k5, k6):
            for k in (0, -1, -(1 << 70)):
                with pytest.raises(ValueError):
                    detector(rows, k)
            with pytest.raises(TypeError):
                detector(rows, 3.0)
        # more chords than any graph of the kernel has: no
        assert not detector(k6, 1 << 70)
        assert not detector(FAN64, 1 << 70)
        assert not detector([], 3)
    # the bounds themselves are accepted
    assert impl.classify(5, 1023, 1024, 5.0, 5.0, None) == (1, 0, [1023])
    assert impl.classify(5, 7, 7, 5.0, 5.0, None) == (0, 0, [])
    assert impl.classify(1, 0, 1, 0.0, 0.0, None) == (0, 0, [])
    assert impl.apex_has_config(k6, 3)
    assert impl.chorded_has(k5, 3)
    assert not impl.chorded_has([0], 1)
    # 64 vertices, the most rows take
    assert not impl.apex_has_config(RING64, 1)
    assert not impl.chorded_has(RING64, 1)
    assert impl.apex_has_config(FAN64, 3) and not impl.apex_has_config(FAN64, 4)
    assert impl.chorded_has(FAN64, 3) and not impl.chorded_has(FAN64, 4)
    # a malformed classify test: a tuple of the wrong length or with a name
    # that is not a str, or a k that is not an int
    k6_mask = (1 << 15) - 1
    for test in (("apex_has_config",), ("apex_has_config", 3, 1), (3, 3),
                 ("apex_has_config", 3.0), ("chorded_has", 3.0)):
        with pytest.raises(TypeError):
            impl.classify(6, k6_mask, k6_mask + 1, 5.0, 6.0, test)
    # a k past every graph's chord count runs and finds no hit
    for name in ("apex_has_config", "chorded_has"):
        assert impl.classify(6, k6_mask, k6_mask + 1, 5.0, 6.0, (name, 1 << 70)) \
            == (1, 0, [k6_mask])


# The sorted sweep skips the subtrees of its search outside its range, so
# ranges that start mid-way, and ranges that cross a multiple of a large
# power of two, the edge of a subtree of the top rows, are checked at orders
# 7 and 8 with the theorem's cuts: (n, lo, hi, the multiple crossed). Both
# hold degree-sorted masks that the pass counts as hits or leaves over.
SLICE7 = (7, 123457, 123457 + (1 << 16), 1 << 17)
SLICE8 = (8, (40 << 22) - 5 - (1 << 19), (40 << 22) + (1 << 19), 5 << 25)


def _theorem_cuts(n):
    thr = oracle_q(extremal_graph(n).graph)
    return thr - TIE_BAND, thr + TIE_BAND


# (lo_cut, hi_cut) per order. Equal cuts at an exact index put its graphs on
# a tie: q(C4) = 4, q(K_{1,4}) = 5, q(K4) = 6 and q(K2 join 2K2) = 8 are
# integers, and order 6 also uses the theorem's threshold with and without
# the verifier's tie band; order 7, swept only on SLICE7, uses the band.
THR6 = oracle_q(extremal_graph(6).graph)
CUTS = {
    4: [(4.0, 4.0), (6.0, 6.0), (3.5, 5.0)],
    5: [(5.0, 5.0), (4.0, 6.0), (6.0, 6.0)],
    6: [(THR6, THR6), _theorem_cuts(6), (8.0, 8.0)],
    7: [_theorem_cuts(7)],
}
TESTS = [("apex_has_config", 3), ("chorded_has", 3), ("chorded_has", 2)]
SEARCHERS = {"apex_has_config": find_k_chords_at_apex, "chorded_has": find_chorded_cycle}


def _classify_masks(n, lo_cut):
    # every labeled mask at orders 4 and 5; at order 6 the labeled survivors
    # of the plain pass a little below the lower cut, the only graphs a pass
    # at lo_cut can keep or count
    total = 1 << n * (n - 1) // 2
    if n < 6:
        return list(range(total))
    return oracle_classify_labeled(n, 0, total, lo_cut - 1e-6, lo_cut - 1e-6, None)[2]


@pytest.mark.parametrize("n", (4, 5, 6))
@pytest.mark.parametrize(
    "impl", [impl for _, impl in IMPLEMENTATIONS],
    ids=[label for label, _ in IMPLEMENTATIONS],
)
def test_classify_is_sound_against_the_oracle(impl, n):
    total = 1 << n * (n - 1) // 2
    no_isolated = sum(graph_from_mask(n, mask).min_degree > 0 for mask in range(total))
    for lo_cut, hi_cut in CUTS[n]:
        masks = _classify_masks(n, lo_cut)
        graphs = [graph_from_mask(n, mask) for mask in masks]
        indices = [oracle_q(g) for g in graphs]
        for name, k in TESTS:
            counted, hits, rest = impl.classify(n, 0, total, lo_cut, hi_cut, (name, k))
            assert counted == no_isolated
            kept = set(rest)
            assert rest == sorted(kept) and kept <= set(masks)  # ascending
            found = 0
            for mask, g, q in zip(masks, graphs, indices):
                # the pass over [m, m + 1), m the mask's sorted form, decides
                # the graph as the pass over the whole range did, and counts
                # it with its weight w
                m, w = sorted_mask(n, mask), arrangement_count(g.degrees())
                alone = impl.classify(n, m, m + 1, lo_cut, hi_cut, (name, k))
                assert (alone[2] == [m]) == (m in kept), mask
                if g.min_degree == 0:
                    assert alone == (0, 0, []), mask
                    continue
                if any(abs(q - cut) < 1e-12 for cut in (lo_cut, hi_cut)):
                    # a tie with a cut is never decided by floats
                    assert m in kept, (mask, q)
                if alone == (w, w, []):
                    found += 1
                    assert q > hi_cut and SEARCHERS[name](g, k) is not None, mask
                elif alone == (w, 0, []):
                    assert q < lo_cut, (mask, q)
                else:
                    assert alone == (w, 0, [m]), (mask, alone)
            assert found == hits, (lo_cut, hi_cut, name, k)


@pytest.mark.parametrize("n", (4, 5, 6))
@pytest.mark.parametrize(
    "impl", [impl for _, impl in IMPLEMENTATIONS],
    ids=[label for label, _ in IMPLEMENTATIONS],
)
def test_sorted_pass_weighs_as_the_plain_labeled_pass(impl, n):
    # over a whole order the sorted pass counts, with weights, what the
    # plain pass over every labeled mask counts, and leaves over the sorted
    # forms of the masks the plain pass leaves, which they weigh
    total = 1 << n * (n - 1) // 2
    for cuts in CUTS[n]:
        for test in TESTS + [None]:
            no_isolated, hits, rest = impl.classify(n, 0, total, *cuts, test)
            labeled = oracle_classify_labeled(n, 0, total, *cuts, test)
            assert (no_isolated, hits) == labeled[:2], (cuts, test)
            assert set(rest) == {sorted_mask(n, mask) for mask in labeled[2]}
            weights = [arrangement_count(graph_from_mask(n, mask).degrees()) for mask in rest]
            assert sum(weights) == len(labeled[2]), (cuts, test)


@pytest.mark.parametrize(
    "n, lo, hi", [(n, 0, 1 << n * (n - 1) // 2) for n in (4, 5, 6, 7)] + [SLICE7[:3]],
    ids=("4", "5", "6", "7", "7-slice"),
)
def test_classify_implementations_agree(compiled, n, lo, hi):
    for lo_cut, hi_cut in CUTS[n]:
        for test in TESTS:
            assert (compiled.classify(n, lo, hi, lo_cut, hi_cut, test)
                    == _sweep_py.classify(n, lo, hi, lo_cut, hi_cut, test))


def _in_pieces(impl, n, bounds, lo_cut, hi_cut, test):
    """classify over consecutive ranges, the results added up."""
    parts = [impl.classify(n, lo, hi, lo_cut, hi_cut, test)
             for lo, hi in zip(bounds, bounds[1:])]
    return (sum(p[0] for p in parts), sum(p[1] for p in parts),
            [mask for p in parts for mask in p[2]])


@pytest.mark.parametrize("n, lo, hi, edge", (SLICE7, SLICE8), ids=("n7", "n8"))
def test_classify_over_a_range_equals_its_pieces(compiled, n, lo, hi, edge):
    # singletons and short pieces at both ends, and one piece that starts
    # just before the edge and crosses it
    bounds = [lo, lo + 1, lo + 3, edge - 1, edge + 2, hi - 1, hi]
    cuts = _theorem_cuts(n)
    for test in (("apex_has_config", 3), None):
        whole = compiled.classify(n, lo, hi, *cuts, test)
        assert whole[1] + len(whole[2]) > 0
        assert _in_pieces(compiled, n, bounds, *cuts, test) == whole


def _units_equal_the_whole_order(impl, n):
    # the threaded sweep's top-row units follow each other up to the end of
    # the order; the range they skip, row n-1 = 0, holds no sorted mask, so
    # their counts added up and their leftovers joined in unit order are the
    # one pass over the whole order
    units = verifier._top_row_units(n)
    bounds = [lo for lo, _ in units] + [1 << n * (n - 1) // 2]
    assert units == list(zip(bounds, bounds[1:])) and bounds[0] == 1 << (n - 1) * (n - 2) // 2
    cuts = _theorem_cuts(n)
    for test in (("apex_has_config", 3), ("chorded_has", 3), None):
        whole = impl.classify(n, 0, bounds[-1], *cuts, test)
        assert whole[0] > 0 and whole[1] + len(whole[2]) > 0
        assert impl.classify(n, 0, bounds[0], *cuts, test) == (0, 0, [])
        assert _in_pieces(impl, n, bounds, *cuts, test) == whole


@pytest.mark.parametrize("n", (6, 7))
@pytest.mark.parametrize(
    "impl", [impl for _, impl in IMPLEMENTATIONS],
    ids=[label for label, _ in IMPLEMENTATIONS],
)
def test_top_row_units_equal_the_whole_order(impl, n):
    _units_equal_the_whole_order(impl, n)


def test_top_row_units_equal_the_whole_of_order_8(compiled):
    _units_equal_the_whole_order(compiled, 8)


def _interleaved(classify, n, lo, hi, lo_cut, hi_cut, test, pieces=8):
    """classify over [lo, hi) cut into pieces, the even ones on one thread
    and the odd ones on another, started at once; the results added up in
    range order. Self-contained: the sanitized child runs its source."""
    import threading

    bounds = [lo + (hi - lo) * i // pieces for i in range(pieces + 1)]
    parts = [None] * pieces
    start = threading.Barrier(2)

    def run(first):
        start.wait()
        for i in range(first, pieces, 2):
            parts[i] = classify(n, bounds[i], bounds[i + 1], lo_cut, hi_cut, test)

    threads = [threading.Thread(target=run, args=(first,)) for first in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return (sum(p[0] for p in parts), sum(p[1] for p in parts),
            [mask for p in parts for mask in p[2]])


@pytest.mark.parametrize(
    "impl", [impl for _, impl in IMPLEMENTATIONS],
    ids=[label for label, _ in IMPLEMENTATIONS],
)
def test_classify_from_two_threads_equals_the_serial_pass(impl):
    n, lo, hi, _ = SLICE7
    cuts = _theorem_cuts(n)
    for test in (("apex_has_config", 3), None):
        serial = impl.classify(n, lo, hi, *cuts, test)
        assert serial[1] + len(serial[2]) > 0
        assert _interleaved(impl.classify, n, lo, hi, *cuts, test) == serial


def test_classify_releases_the_gil(compiled):
    # while a worker thread is inside the compiled pass over all of order 8,
    # this thread keeps running Python, and stamps the time every thousand
    # loop turns. Were the GIL held, this thread could run only for a switch
    # interval at either end of the call: no stamp would fall in the middle
    # half of a call more than 8 intervals long
    n = 8
    cuts = _theorem_cuts(n)
    span = []

    def work():
        span.append(time.perf_counter())
        compiled.classify(n, 0, 1 << 28, *cuts, ("apex_has_config", 3))
        span.append(time.perf_counter())

    worker = threading.Thread(target=work)
    stamps = []
    worker.start()
    while worker.is_alive():
        stamps.append(time.perf_counter())
        for _ in range(1000):
            pass
    worker.join()
    t0, t1 = span
    quarter = (t1 - t0) / 4
    assert t1 - t0 > 8 * sys.getswitchinterval()
    assert any(t0 + quarter < t < t1 - quarter for t in stamps)


def test_classify_lists_more_leftovers_than_its_first_buffer_holds(compiled):
    # cuts at -inf drop nothing and, with no test, count no hit: every one of
    # the 15,822 degree-sorted masks of order 7 is left over, many times the
    # compiled pass's first buffer of 1024 masks, and they weigh the
    # 1,887,284 graphs without isolated vertices
    cut = -math.inf
    whole = compiled.classify(7, 0, 1 << 21, cut, cut, None)
    assert whole == (1887284, 0, whole[2]) and len(whole[2]) == 15822
    assert whole == _sweep_py.classify(7, 0, 1 << 21, cut, cut, None)


@functools.cache
def _atlas_configuration_free(n):
    """sum n! / |Aut G| over the graphs G of the networkx atlas on n
    vertices without isolated vertices and without three chords at a
    common cycle vertex (brute-force oracle): the labeled such graphs."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    total = 0
    for atlas_graph in nx.graph_atlas_g():
        if atlas_graph.number_of_nodes() != n or min(d for _, d in atlas_graph.degree()) == 0:
            continue
        if oracle_apex_chords(make_graph(n, list(atlas_graph.edges())), 3):
            continue
        automorphisms = sum(1 for _ in GraphMatcher(atlas_graph, atlas_graph).isomorphisms_iter())
        total += math.factorial(n) // automorphisms
    return total


@pytest.mark.parametrize("n", (6, 7))
@pytest.mark.parametrize(
    "impl", [impl for _, impl in IMPLEMENTATIONS],
    ids=[label for label, _ in IMPLEMENTATIONS],
)
def test_weighted_leftovers_count_the_atlas_configuration_free_graphs(impl, n):
    # with both cuts at 0.0 every graph is above them, so the apex test
    # counts each configured graph as a hit and leaves the others over: the
    # leftovers, weighted, are the labeled configuration-free graphs without
    # isolated vertices, which the atlas counts by its classes
    want = {6: 24371, 7: 1131262}[n]
    assert _atlas_configuration_free(n) == want
    total = 1 << n * (n - 1) // 2
    no_isolated, hits, rest = impl.classify(n, 0, total, 0.0, 0.0, ("apex_has_config", 3))
    free = sum(arrangement_count(graph_from_mask(n, mask).degrees()) for mask in rest)
    assert (no_isolated, free, hits) == (_without_isolated_vertices(n), want,
                                         no_isolated - want)


@pytest.mark.parametrize(
    "impl", [impl for _, impl in IMPLEMENTATIONS],
    ids=[label for label, _ in IMPLEMENTATIONS],
)
def test_classify_guards(impl):
    good = ("apex_has_config", 3)
    for n, lo, hi in BAD_RANGES:
        with pytest.raises(ValueError):
            impl.classify(n, lo, hi, 5.0, 5.0, good)
    for lo_cut, hi_cut in ((6.0, 5.0), (math.nan, 5.0), (5.0, math.nan)):
        with pytest.raises(ValueError):  # lo_cut above hi_cut, or not a number
            impl.classify(5, 1023, 1024, lo_cut, hi_cut, good)
    for test in (("q_index", 3), ("apex_has_config", 0), ("chorded_has", -1)):
        with pytest.raises(ValueError):
            impl.classify(5, 1023, 1024, 5.0, 5.0, test)
    with pytest.raises(TypeError):
        impl.classify(5, 1023, 1024, 5.0, 5.0, "apex_has_config")
    # cuts that are not real numbers, also on an empty range
    for lo_cut, hi_cut in (("5", "6"), ("5", 6.0), (5.0, None)):
        with pytest.raises(TypeError):
            impl.classify(5, 7, 7, lo_cut, hi_cut, None)
    # K6 (q = 10) has three chords at a vertex: a hit above the cuts, a drop
    # below them and left over on a tie; an empty range is empty
    k6 = (1 << 15) - 1
    assert impl.classify(6, k6, k6 + 1, 5.0, 6.0, good) == (1, 1, [])
    assert impl.classify(6, k6, k6 + 1, 11.0, 11.0, good) == (1, 0, [])
    assert impl.classify(6, k6, k6 + 1, 10.0, 10.0, good) == (1, 0, [k6])
    assert impl.classify(5, 7, 7, 5.0, 5.0, good) == (0, 0, [])


def _oracle_degree_skips(n, masks, cut):
    # the MaskBatch oracle's skip rule, then U >= L* in Fractions, with L*
    # the first largest Rayleigh bound by float quotient
    batch = MaskBatch.of(n, masks)
    no_isolated, reach = batch.degree_cut(cut)
    skipped = batch.masks[no_isolated & ~reach].tolist()
    bounds = [oracle_degree_vector_bounds(graph_from_mask(n, mask)) for mask in skipped]
    lstar = max((lower for _, lower in bounds), key=float, default=None)
    return len(skipped), [mask for mask, (upper, _) in zip(skipped, bounds) if upper >= lstar]


def _degree_skip_cases():
    # every mask at orders 1..5; at orders 6..8, 1,500 seeded masks at edge
    # densities 0.15, 0.5 and 0.85, in draw order with repeats
    rng = random.Random(3141)
    for n in range(1, 6):
        yield n, list(range(1 << n * (n - 1) // 2)), (2.0, 3.0, 4.5, 6.0, 7.5)
    for n in (6, 7, 8):
        nbits = n * (n - 1) // 2
        masks = []
        for _ in range(1500):
            p = rng.choice((0.15, 0.5, 0.85))
            masks.append(sum(1 << b for b in range(nbits) if rng.random() < p))
        masks += masks[:50]
        thr = oracle_q(extremal_graph(n).graph)
        yield n, masks, (thr, thr - 0.5, 7.0, 8.0)


@pytest.mark.parametrize(
    "impl", [impl for _, impl in IMPLEMENTATIONS],
    ids=[label for label, _ in IMPLEMENTATIONS],
)
def test_degree_skips_match_the_oracle(impl):
    # the skipped graphs are those without isolated vertices that the degree
    # filter drops, and the candidates, in draw order, those whose
    # Collatz-Wielandt bound reaches L*
    seen = Counter()
    for n, masks, cuts in _degree_skip_cases():
        for cut in cuts:
            got = impl.degree_skips(n, masks, cut)
            assert got == _oracle_degree_skips(n, masks, cut), (n, cut)
            seen[n >= 6] += 0 < len(got[1]) < got[0]
    # at both sizes, cuts whose candidates are a proper part of the skipped
    assert seen[False] >= 5 and seen[True] >= 5, seen


@pytest.mark.parametrize(
    "impl", [impl for _, impl in IMPLEMENTATIONS],
    ids=[label for label, _ in IMPLEMENTATIONS],
)
def test_degree_skips_guards(impl):
    # n in 1..11; a list of ints in [0, 2^C(n,2)); a cut that is a number
    for n in (0, 12, -1):
        with pytest.raises(ValueError):
            impl.degree_skips(n, [0], 5.0)
    for masks in ([-1], [1 << 10], [3, 1 << 70], [0, -(1 << 70)]):
        with pytest.raises(ValueError):
            impl.degree_skips(5, masks, 5.0)
    with pytest.raises(ValueError):
        impl.degree_skips(5, [1023], math.nan)
    # a numpy array and instances of classes of their own too, one whose
    # __name__ holds a dot: both kernels name the type by its __name__
    for masks in ((1023,), range(4), 1023, None, *NOT_LISTS):
        with pytest.raises(TypeError, match=f"got {re.escape(type(masks).__name__)}$"):
            impl.degree_skips(5, masks, 5.0)
    for masks in ([1.0], [1023, "1"], [np.int64(1023)]):
        with pytest.raises(TypeError):
            impl.degree_skips(5, masks, 5.0)
    with pytest.raises(TypeError):
        impl.degree_skips(5, [1023], "5.0")
    # the bounds are accepted: one vertex, the last mask of order 11, no
    # masks; K5 (q = 8) is skipped only above 8, where it is the candidate
    assert impl.degree_skips(1, [0], 5.0) == (0, [])
    assert impl.degree_skips(11, [(1 << 55) - 1], 5.0) == (0, [])
    assert impl.degree_skips(5, [], 5.0) == (0, [])
    assert impl.degree_skips(5, [1023, 1023], 8.0) == (0, [])
    assert impl.degree_skips(5, [1023, 1023], 8.5) == (2, [1023, 1023])
    assert impl.degree_skips(5, [1023], math.inf) == (1, [1023])


def test_kernel_benchmark_runs_on_order_5(capsys, monkeypatch):
    # benchmarks/bench_kernels.py uses private verifier, appendix and
    # property-suite names and the kernel signatures: load it without
    # running main, then run its sweep and classify benches on order 5
    # (classify also in its 15 top-row units over 1 and 2 threads), its apex
    # detector, edge slot, component count, eta check and structural claim
    # benches on 200 graphs and its float index bench on 20 graphs an order,
    # whose asserts compare the implementations or the thread counts, its
    # random graph bench on 200 draws and its range
    # sample bench on 600 samples, whose asserts compare each implementation
    # with the random.Random calls it replays,
    # one call of its order-6 sweep with 1 and 2 jobs, whose asserts compare
    # the job counts, its Perron entry order bench on 200 graphs, whose
    # asserts check each decided sign against eigh, one pass of its order-6
    # and order-8 tie tails, whose asserts check the verdicts, two calls of
    # its spot check (the first drawing the sample, the second reusing it) at
    # orders 6, 7 and 8 through each kernel, whose asserts check that the
    # check passes and that the kernels and the calls agree, one call each of
    # its order-6 CLI timings, whose asserts check the exit codes and
    # verdicts, one pass of its exact order-6 ties, which must reach the gcd,
    # one pass of its appendix pairs at orders 7..12 with the estimates
    # verify_appendix passes, which the certificate must settle with no chain,
    # expand its appendix templates at orders 7..8, time verify_appendix(7, 8)
    # block by block, then its fixture graphs and its template polynomials
    # alone, and the property suite's details one by one
    spec = importlib.util.spec_from_file_location(
        "bench_kernels", PACKAGE.parents[1] / "benchmarks" / "bench_kernels.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    bench.bench_sweep(IMPLEMENTATIONS, 5, 0, 1 << 10, 6.0)
    bench.bench_classify(IMPLEMENTATIONS, 5, 0, 1 << 10, 6.0)
    bench.bench_detector(IMPLEMENTATIONS, trials=200)
    bench.bench_perron_order(IMPLEMENTATIONS, draws=200)
    bench.bench_sample_rows(IMPLEMENTATIONS, draws=200)
    bench.bench_sample_range(IMPLEMENTATIONS, draws=200)
    bench.bench_slot_rows(IMPLEMENTATIONS, draws=200)
    bench.bench_component_count(IMPLEMENTATIONS, draws=200)
    bench.bench_eta_check(IMPLEMENTATIONS, draws=200)
    bench.bench_structural(IMPLEMENTATIONS, draws=200)
    out = capsys.readouterr().out
    for label, _ in IMPLEMENTATIONS:
        assert out.count(f"  {label} ") == 10, out
    assert "range samples, 600 dense-slot, pair and moved-set samples" in out, out
    assert out.count("  random.sample ") == 1 and out.count("  random.Random ") == 1, out
    assert "edge slot rows, 200 dense order-10..14 draws" in out, out
    assert "component counts, 200 random order-4..12 graphs" in out, out
    # one float index line an order and implementation
    bench.bench_q_indices(IMPLEMENTATIONS, graphs=20)
    out = capsys.readouterr().out
    for label, _ in IMPLEMENTATIONS:
        assert [int(n) for n in re.findall(rf"^  {label} +n=(\d+) ", out, re.M)] == [6, 10, 22, 40]
    for label, impl in IMPLEMENTATIONS:
        bench.bench_classify_threads(label, impl, 5, 6.0)
    bench.bench_sweep_jobs(6, min_seconds=0)
    out = capsys.readouterr().out
    assert out.count("  threads=2 ") == len(IMPLEMENTATIONS) and "  jobs=2 " in out, out
    assert out.count("classify n=5 in 15 top-row units, ") == len(IMPLEMENTATIONS), out
    assert "theorem sweep n=6 (_sweep_classified), one call at any jobs, " in out, out
    bench.bench_tie_tail(6, min_seconds=0)
    assert "theorem tie tail n=6: 30 masks" in capsys.readouterr().out
    bench.bench_tie_tail(8, min_seconds=0)
    out = capsys.readouterr().out
    for task in ("theorem", "corollary"):
        assert f"{task} tie tail n=8: 1260 masks in 31 sorted" in out, out
    bench.bench_spot_check(IMPLEMENTATIONS, min_seconds=0)
    out = capsys.readouterr().out
    for n, draws, skipped, solved in ((6, 327, 242, 5), (7, 20000, 9357, 184),
                                      (8, 20000, 7632, 314)):
        assert (f"spot check n={n}: {draws} draws, {skipped} skipped by the degree "
                f"filters, {solved} eigensolved") in out, out
    for label, _ in IMPLEMENTATIONS:
        assert len(re.findall(rf"^  {label} +first call +[0-9.]+ ms, later calls +[0-9.]+ ms "
                              rf"\(median of 1\)$", out, re.M)) == 3, out
    bench.bench_cli(min_seconds=0)
    out = capsys.readouterr().out
    assert re.fullmatch(r"cli verify theorem --n 6: first call [0-9.]+ ms, later calls "
                        r"[0-9.]+ ms \(median of 1\), verify_theorem_main\(6\) alone "
                        r"[0-9.]+ ms \(median of 1\)\n", out), out
    ties, counts = bench.bench_exact("order-6 ties", bench.tie_pairs(6), min_seconds=0)
    assert ties == {EQUAL: 30} and counts["_divide"] > 0, (ties, counts)
    pairs, estimates = bench.appendix_pairs(7, 12)
    compared = []
    compare = appendix.compare_largest_roots
    with monkeypatch.context() as patch:
        patch.setattr(appendix, "compare_largest_roots",
                      lambda a, b, e: compared.append(((a, b), e)) or compare(a, b, e))
        verify_appendix(7, 12)
    assert compared == list(zip(pairs, estimates)) and len(pairs) == 16
    capsys.readouterr()
    bench.bench_exact("appendix 7..12", pairs, estimates, min_seconds=0)
    assert "settled by the certificate: 16, to the chain: 0" in capsys.readouterr().out
    # the templates it times are verify_appendix's, plus one threshold
    # template per order
    checked = next(d["checked"] for d in verify_appendix(7, 8).details
                   if d["name"] == "template_charpoly_identities")
    assert len(bench.appendix_templates(7, 8)) == checked + 2
    # verify_appendix(7, 8) whole, then block by block, whose assert compares
    # the blocks' details with the whole call's: one line a block
    capsys.readouterr()
    bench.bench_appendix(7, 8, min_seconds=0)
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"appendix 7\.\.8: whole call [0-9.]+ ms \(median of 1\), "
                        r"graphs examined=11", lines[0]), lines
    assert [line.split()[0] for line in lines[1:]] == [
        "appendix_identities", "appendix_fixtures", "appendix_threshold_bound",
        "appendix_fan_chains", "fixture_graphs", "charpoly_int_matrices"], lines
    # the two layers alone: the 9 fixture graphs (the 11 graphs examined less
    # the two threshold graphs), and the identity block's templates with one
    # threshold template per order
    assert re.fullmatch(r"  fixture_graphs +[0-9.]+ ms \(9 graphs, median of 1\)",
                        lines[5]), lines
    assert re.fullmatch(rf"  charpoly_int_matrices +[0-9.]+ ms \({checked + 2} templates, "
                        rf"median of 1\)", lines[6]), lines
    # the property suite at 50 trials, then each detail of it on its own,
    # whose assert compares the details with the suite's: one line a detail
    capsys.readouterr()
    bench.bench_property_suite(7, 50)
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[1:]] == [
        d["name"] for d in property_suite(7, 50).details], lines


# -- longest cycle and longest path on adjacency rows ------------------------------


def random_graph(rng, n, p=0.5):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return make_graph(n, edges)


def random_forest(rng, n):
    """Each vertex joins one earlier vertex, or starts a new tree (an
    isolated vertex unless a later one joins it)."""
    return make_graph(n, [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.7])


def _row_kernel_inputs():
    # every labeled graph of order 1..6, then seeded orders 7..12: sparse and
    # dense random graphs (sparse ones are often disconnected, with isolated
    # vertices), forests, and disjoint unions of two random graphs
    for n in range(1, 7):
        for mask in range(1 << n * (n - 1) // 2):
            yield graph_from_mask(n, mask)
    rng = random.Random(58)
    for n in range(7, 13):
        for _ in range(60):
            yield random_graph(rng, n, rng.choice((0.1, 0.2, 0.4, 0.6, 0.8)))
            yield random_forest(rng, n)
            cut = rng.randint(1, n - 1)
            yield disjoint_union(random_graph(rng, cut, 0.6), random_graph(rng, n - cut, 0.6))


def test_row_kernels_match_the_python_twin(compiled):
    for g in _row_kernel_inputs():
        assert compiled.longest_cycle(g.rows) == _sweep_py.longest_cycle(g.rows), g.rows
        assert compiled.max_path_order(g.rows) == _sweep_py.max_path_order(g.rows), g.rows


@pytest.mark.parametrize(
    "impl", [impl for _, impl in IMPLEMENTATIONS],
    ids=[label for label, _ in IMPLEMENTATIONS],
)
def test_row_kernel_guards(impl):
    # at most 64 vertices; every row a set of other vertices, symmetric
    searches = (impl.longest_cycle, impl.max_path_order, impl.component_count, impl.eta_check)
    for rows in BAD_ROWS:
        for search in searches:
            with pytest.raises(ValueError):
                search(rows)
    with pytest.raises(ValueError):
        impl.max_path_order([])
    for rows in (None, 5, [None]):
        for search in searches:
            with pytest.raises(TypeError):
                search(rows)
    assert impl.longest_cycle([]) is None
    assert impl.component_count([]) == 0 and impl.component_count([0]) == 1
    # the bound itself is accepted: the 64-cycle, and a tuple of rows
    assert impl.longest_cycle(RING64) == (64, tuple(range(64)))
    assert impl.max_path_order(tuple(RING64)) == 64
    assert impl.component_count(RING64) == 1 and impl.component_count((0,) * 64) == 64
    assert impl.eta_check([]) == (False, 0, 0) and impl.eta_check((0,) * 64) == (False, 0, 0)
    assert impl.eta_check(RING64) == (False, 8, 2)


@pytest.mark.parametrize(
    "impl", [impl for _, impl in IMPLEMENTATIONS],
    ids=[label for label, _ in IMPLEMENTATIONS],
)
def test_perron_order_guards(impl):
    # the rows of a simple graph, two distinct vertices of it
    for rows in BAD_ROWS:
        with pytest.raises(ValueError):
            impl.perron_order(rows, 0, 1)
    p5 = path(5).rows
    for u, v in ((2, 2), (-1, 0), (0, 5), (5, 0), (0, 1 << 70)):
        with pytest.raises(ValueError):
            impl.perron_order(p5, u, v)
    with pytest.raises(ValueError):
        impl.perron_order([], 0, 1)
    with pytest.raises(TypeError):
        impl.perron_order(p5, 1.0, 2)
    # on the path, the Perron entries rise towards the middle
    assert impl.perron_order(p5, 2, 0) == 1 and impl.perron_order(p5, 0, 1) == -1
    assert impl.perron_order(p5, 0, 4) == 0  # mirror images: a tie
    # no decision on a disconnected graph or above 16 vertices; 16 decide
    assert impl.perron_order(disjoint_union(path(3), path(4)).rows, 3, 4) == 0
    assert impl.perron_order(path(17).rows, 8, 0) == 0
    assert impl.perron_order(RING64, 0, 1) == impl.perron_order(FAN64, 0, 1) == 0
    assert impl.perron_order(path(16).rows, 7, 0) == 1


def _boom(*bits):
    raise ZeroDivisionError("rand failed")


@pytest.mark.parametrize(
    "impl", [impl for _, impl in IMPLEMENTATIONS],
    ids=[label for label, _ in IMPLEMENTATIONS],
)
def test_sample_rows_guards(impl):
    # orders 0 <= n_lo <= n_hi <= 64, a nonempty tuple of real strata, a
    # callable getrandbits that returns an int in [0, 2^bits), for the
    # order's and the stratum's draws and for the slots' one draw; an error
    # getrandbits raises propagates
    zero = lambda bits: 0  # noqa: E731
    strata = (0.2, 0.4, 0.6, 0.8)
    for n_lo, n_hi in ((-1, 3), (0, 65), (4, 3), (65, 65), (1 << 70, 1 << 70), (3, 1 << 70)):
        with pytest.raises(ValueError):
            impl.sample_rows(zero, n_lo, n_hi, strata)
    slots_only = lambda value: lambda bits: value if bits > 8 else 0  # noqa: E731
    for args in ((None, 3, 3, strata), (5, 3, 3, strata), (zero, 3.0, 3, strata),
                 (zero, 3, 3.0, strata), (zero, 3, 3, ()), (zero, 3, 3, [0.5]),
                 (zero, 3, 3, 0.5), (zero, 3, 3, None), (zero, 3, 3, ("0.5",)),
                 (zero, 3, 3, (0.5, None)), (lambda bits: 0.0, 3, 3, strata),
                 (lambda bits: "0", 3, 3, strata), (lambda bits: np.int64(0), 3, 3, strata),
                 (slots_only(0.0), 3, 3, strata), (slots_only(None), 3, 3, strata)):
        with pytest.raises(TypeError):
            impl.sample_rows(*args)
    for value in (-1, 2, 1 << 70):
        with pytest.raises(ValueError):
            impl.sample_rows(lambda bits: value, 3, 3, strata)
    for value in (-1, 1 << 192):
        with pytest.raises(ValueError):
            impl.sample_rows(slots_only(value), 3, 3, strata)
    with pytest.raises(ZeroDivisionError, match="rand failed"):
        impl.sample_rows(_boom, 3, 3, strata)
    boom_on_slots = lambda bits: _boom() if bits > 8 else 0  # noqa: E731
    with pytest.raises(ZeroDivisionError, match="rand failed"):
        impl.sample_rows(boom_on_slots, 3, 3, strata)
    # orders 0 and 1 draw no slots
    assert impl.sample_rows(boom_on_slots, 0, 0, strata) == ()
    assert impl.sample_rows(boom_on_slots, 1, 1, strata) == (0,)
    # every slot's value is 0.0 on a zero draw: an edge above p = 0, none at
    # p = 0, at the bounds; p may be an int or a numpy float
    k64 = tuple(((1 << 64) - 1) ^ (1 << v) for v in range(64))
    assert impl.sample_rows(zero, 64, 64, (0.5,)) == k64
    assert impl.sample_rows(zero, 64, 64, (0,)) == (0,) * 64
    assert impl.sample_rows(zero, 3, 3, (np.float64(1e-300),)) == (0b110, 0b101, 0b011)
    # a slot's low 32-bit word gives its value's high 27 bits: its bit 31 is
    # 0.5, an edge only above p = 0.5; bit 31 of the high word is 2^-28, an
    # edge at p = 0.5. The largest value, 1 - 2^-53, is an edge at p = 1
    # and not at the float below it
    for value, p, edge in ((1 << 31, 0.5, False), (1 << 31, np.nextafter(0.5, 1), True),
                           (1 << 63, 0.5, True), (1 << 63, 2.0 ** -28, False),
                           ((1 << 64) - 1, 1, True), ((1 << 64) - 1, np.nextafter(1, 0), False)):
        assert impl.sample_rows(slots_only(value), 2, 2, (p,)) == ((2, 1) if edge else (0, 0))


# (n, k) of the sample_range cases: k = 0 and k = n; the Perron shift's
# pairs and moved sets and the dense draws' slots; CPython's set size rule
# at k <= 5 (21) and at k = 6, 22 and 86 (85, 277 and 1,045), with n on
# both sides, where n <= the bound draws from a pool and n above it from a
# set; and the largest n, C(64, 2)
SAMPLE_CASES = ((0, 0), (1, 0), (1, 1), (7, 7), (10, 2), (9, 4), (45, 25), (91, 91),
                (21, 5), (22, 5), (30, 1), (2016, 3), (85, 6), (86, 6), (277, 22),
                (278, 22), (1045, 86), (1046, 86), (2016, 2016))


@pytest.mark.parametrize(
    "impl", [impl for _, impl in IMPLEMENTATIONS],
    ids=[label for label, _ in IMPLEMENTATIONS],
)
def test_sample_range_replays_random_sample(impl):
    # the sample and the generator's state afterwards are those of
    # random.Random(seed).sample(range(n), k), over 200 seeds; a Python
    # release that changes sample's algorithm fails here
    for seed in range(200):
        for n, k in SAMPLE_CASES:
            if n > 300 and seed % 20:  # the large cases at every 20th seed
                continue
            rng, ref = random.Random(seed), random.Random(seed)
            assert impl.sample_range(rng.getrandbits, n, k) == ref.sample(range(n), k), \
                (seed, n, k)
            assert rng.getstate() == ref.getstate(), (seed, n, k)
    # the pool path draws from [0, n - i) with (n - i).bit_length() bits; a
    # value at or above the bound is drawn again, and the set path draws
    # again a value it holds
    asked = []
    assert impl.sample_range(lambda bits: asked.append(bits) or 0, 5, 5) == [0, 4, 3, 2, 1]
    assert asked == [3, 3, 2, 2, 1]
    values = iter((7, 6, 2, 5, 31, 5, 9))
    assert impl.sample_range(lambda bits: next(values), 7, 2) == [6, 2]
    assert impl.sample_range(lambda bits: next(values), 30, 2) == [5, 9]


@pytest.mark.parametrize(
    "impl", [impl for _, impl in IMPLEMENTATIONS],
    ids=[label for label, _ in IMPLEMENTATIONS],
)
def test_sample_range_guards(impl):
    # n in [0, C(64,2)], k in [0, n], a callable getrandbits that returns an
    # int in [0, 2^bits); an error getrandbits raises propagates
    zero = lambda bits: 0  # noqa: E731
    for n, k in ((-1, 0), (2017, 0), (1 << 70, 0), (3, 4), (3, -1), (0, 1), (3, 1 << 70)):
        with pytest.raises(ValueError):
            impl.sample_range(zero, n, k)
    for args in ((zero, 3.0, 1), (zero, 3, 1.0), (None, 3, 1), (5, 3, 1),
                 (lambda bits: 0.0, 3, 1), (lambda bits: "0", 3, 1),
                 (lambda bits: np.int64(0), 3, 1), (lambda bits: None, 3, 1)):
        with pytest.raises(TypeError):
            impl.sample_range(*args)
    for value in (-1, 4, 1 << 70):
        with pytest.raises(ValueError):
            impl.sample_range(lambda bits: value, 3, 1)
    with pytest.raises(ZeroDivisionError, match="rand failed"):
        impl.sample_range(_boom, 3, 1)
    # no draw for k = 0; the bounds are accepted. Each pool draw is the
    # first value, and the last value moves into its vacancy
    assert impl.sample_range(_boom, 0, 0) == [] and impl.sample_range(_boom, 5, 0) == []
    assert impl.sample_range(zero, 5, 5) == [0, 4, 3, 2, 1]
    assert impl.sample_range(zero, 2016, 2016)[:3] == [0, 2015, 2014]


@pytest.mark.parametrize(
    "impl", [impl for _, impl in IMPLEMENTATIONS],
    ids=[label for label, _ in IMPLEMENTATIONS],
)
def test_slot_rows_guards(impl):
    # an order in [0, 64] and a list of ints in [0, C(n,2)); a repeated slot
    # is one edge
    for n in (-1, 65, 1 << 70):
        with pytest.raises(ValueError):
            impl.slot_rows(n, [])
    for n, slots in ((3, [3]), (3, [0, -1]), (3, [1 << 70]), (0, [0]), (1, [0]),
                     (64, [2016])):
        with pytest.raises(ValueError):
            impl.slot_rows(n, slots)
    for n, slots in ((3.0, []), (3, [1.0]), (3, [0, "1"]), (3, [np.int64(1)]), (3, [None])):
        with pytest.raises(TypeError):
            impl.slot_rows(n, slots)
    for slots in ((0,), range(3), None, *NOT_LISTS):
        with pytest.raises(TypeError, match=f"got {re.escape(type(slots).__name__)}$"):
            impl.slot_rows(3, slots)
    # the bounds are accepted: no vertex, one vertex, every slot of order 64
    assert impl.slot_rows(0, []) == () and impl.slot_rows(1, []) == (0,)
    assert impl.slot_rows(3, [0, 1, 2]) == (0b110, 0b101, 0b011)
    assert impl.slot_rows(3, [2, 2]) == (0, 0b100, 0b010)
    assert impl.slot_rows(64, list(range(2016))) == complete(64).rows
    assert impl.slot_rows(64, [2015]) == (0,) * 62 + (1 << 63, 1 << 62)


@pytest.mark.parametrize(
    "impl", [impl for _, impl in IMPLEMENTATIONS],
    ids=[label for label, _ in IMPLEMENTATIONS],
)
def test_slot_rows_match_the_per_slot_loop(impl):
    # over seeds and orders 0..14 (the dense draws take 10..14): no slot,
    # every slot and a random number of them, in random order
    for seed in range(40):
        rng = random.Random(seed)
        for n in range(15):
            slots = n * (n - 1) // 2
            for e in (0, rng.randint(0, slots), slots):
                drawn = rng.sample(range(slots), e)
                assert impl.slot_rows(n, drawn) == oracle_slot_rows(n, drawn), (seed, n)


@pytest.mark.parametrize(
    "impl", [impl for _, impl in IMPLEMENTATIONS],
    ids=[label for label, _ in IMPLEMENTATIONS],
)
def test_component_count_is_the_number_of_component_masks(impl):
    # every graph of the networkx atlas (orders 1..7), then seeded graphs of
    # orders 1..64, sparse ones with many components and forests (order 0
    # is a guard case)
    nx = pytest.importorskip("networkx")
    graphs = [make_graph(a.number_of_nodes(), list(a.edges()))
              for a in nx.graph_atlas_g() if a.number_of_nodes()]
    rng = random.Random(64)
    for n in range(1, 65):
        for p in (0.0, 1 / n, 2 / n, 0.3):
            graphs.append(random_graph(rng, n, p))
        graphs.append(random_forest(rng, n))
    for g in graphs:
        assert impl.component_count(g.rows) == len(g.component_masks()), g.rows


@pytest.mark.parametrize(
    "impl", [impl for _, impl in IMPLEMENTATIONS],
    ids=[label for label, _ in IMPLEMENTATIONS],
)
def test_structural_violations_guards(impl):
    # the rows of a simple graph on at most 64 vertices; caps a tuple of
    # five ints of at least 0
    caps = (2, 3, 3, 2, 1)
    for rows in BAD_ROWS:
        with pytest.raises(ValueError):
            impl.structural_violations(rows, caps)
    for rows in (5, None, [0.0]):
        with pytest.raises(TypeError):
            impl.structural_violations(rows, caps)
    k6 = complete(6).rows
    for bad in ((2, 3, 3, 2), caps + (1,), list(caps), None, dict.fromkeys(range(5), 1),
                (2, 3, 3, 2, 1.0), (2, 3, 3, None, 1)):
        with pytest.raises(TypeError):
            impl.structural_violations(k6, bad)
    for bad in ((2, 3, 3, 2, -1), (-(1 << 70), 3, 3, 2, 1)):
        with pytest.raises(ValueError):
            impl.structural_violations(k6, bad)
    # the bounds are accepted: no vertex, 64 vertices, caps past every degree.
    # K4 on 0..3 joined to 4, with 59 pendants on the K4: at 4 and at each
    # K4 vertex G[Z+] is a K4 and the pendants off it touch it once, which
    # only a k4 cap of 0 forbids
    assert impl.structural_violations([], caps) == (0, 0)
    assert impl.structural_violations(RING64, caps) == (0, 0)
    assert impl.structural_violations(FAN64, (1 << 70,) * 5) == (0, 0)
    assert impl.structural_violations(K4_FRINGE64, caps) == (0, 0)
    assert impl.structural_violations(K4_FRINGE64, (1, 1, 1, 1, 0)) == (236, 0)
    # K6: at every apex G[Z+] is one K5, outside the catalog, and W is empty
    assert impl.structural_violations(k6, caps) == (0, 6)
    assert impl.structural_violations(k6, (0,) * 5) == (0, 6)


class _Twins:
    """A kernel whose every call runs on both implementations and gives the
    compiled one's result or error; `differ` collects the calls on which the
    two return different values or raise different errors."""

    def __init__(self, compiled):
        self.compiled, self.calls, self.differ = compiled, 0, []

    def __getattr__(self, name):
        def call(*args):
            outcomes = []
            for impl in (self.compiled, _sweep_py):
                try:
                    outcomes.append(getattr(impl, name)(*args))
                except Exception as exc:
                    outcomes.append(exc)
            self.calls += 1
            seen = [(type(out), str(out)) if isinstance(out, Exception) else out
                    for out in outcomes]
            if seen[0] != seen[1]:
                self.differ.append((name, args, *seen))
            if isinstance(outcomes[0], Exception):
                raise outcomes[0]
            return outcomes[0]
        return call


def test_guards_raise_the_same_error_on_both_kernels(compiled):
    # every call of the guard tests, bad or good, raises the same exception
    # type with the same message on both kernels, or returns the same value
    twins = _Twins(compiled)
    for guards in (test_kernel_guards, test_classify_guards, test_degree_skips_guards,
                   test_row_kernel_guards, test_perron_order_guards,
                   test_sample_rows_guards, test_sample_range_guards,
                   test_slot_rows_guards, test_structural_violations_guards,
                   test_q_indices_guards):
        guards(twins)
    assert twins.calls > 100
    assert twins.differ == [], "\n".join(map(repr, twins.differ))


@pytest.mark.parametrize(
    "impl", [impl for _, impl in IMPLEMENTATIONS],
    ids=[label for label, _ in IMPLEMENTATIONS],
)
def test_perron_order_agrees_with_q_index_on_every_small_graph(impl):
    # every connected graph of 2..7 vertices in the networkx atlas, every
    # ordered pair of its vertices: a decided sign is the order of
    # q_index's Perron entries; twins (N(u) - v = N(v) - u) share their
    # entry and get 0; and every pair whose entries differ by 1e-6 is decided:
    # the 34,322 ordered pairs with distinct entries, which differ by at
    # least 1.3e-3 on these graphs
    nx = pytest.importorskip("networkx")
    decided = 0
    for atlas_graph in nx.graph_atlas_g():
        n = atlas_graph.number_of_nodes()
        if n < 2 or not nx.is_connected(atlas_graph):
            continue
        g = make_graph(n, list(atlas_graph.edges()))
        x = q_index(g).vector
        for u in range(n):
            for v in range(n):
                if u == v:
                    continue
                order = impl.perron_order(g.rows, u, v)
                if g.rows[u] & ~(1 << v) == g.rows[v] & ~(1 << u):
                    assert order == 0, (g.rows, u, v)
                elif order:
                    assert order == (1 if x[u] > x[v] else -1), (g.rows, u, v)
                    decided += 1
                else:
                    assert abs(x[u] - x[v]) < 1e-6, (g.rows, u, v)
    assert decided == 34322


@pytest.mark.parametrize(
    "impl", [impl for _, impl in IMPLEMENTATIONS],
    ids=[label for label, _ in IMPLEMENTATIONS],
)
def test_longest_cycle_is_the_first_longest_in_search_order(impl):
    # cycles_by_dfs lists the cycles of a connected graph in the searcher's
    # own order (least root first, neighbours ascending), so the pruned
    # search must return the first of the longest ones there
    rng = random.Random(32)
    checked = 0
    while checked < 200:
        g = random_graph(rng, rng.randint(3, 10), rng.choice((0.3, 0.45, 0.6)))
        if not is_connected(g):
            continue
        cycles = list(cycles_by_dfs(g))
        want = max(cycles, key=len) if cycles else None
        assert impl.longest_cycle(g.rows) == (None if want is None else (len(want), want))
        checked += 1


@pytest.mark.parametrize(
    "impl", [impl for _, impl in IMPLEMENTATIONS],
    ids=[label for label, _ in IMPLEMENTATIONS],
)
def test_max_path_order(impl):
    for n in (1, 2, 5, 9):
        assert impl.max_path_order(path(n).rows) == n
    assert impl.max_path_order(complete(4).rows) == 4
    assert impl.max_path_order(disjoint_union(complete(3), complete(3)).rows) == 3
    assert impl.max_path_order(make_graph(3).rows) == 1
    rng = random.Random(77)
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 8), rng.choice((0.3, 0.6)))
        assert impl.max_path_order(g.rows) == oracle_longest_path_order(g)


@pytest.mark.parametrize(
    "impl", [impl for _, impl in IMPLEMENTATIONS],
    ids=[label for label, _ in IMPLEMENTATIONS],
)
def test_eta_check_is_the_spectral_eta_rule(impl):
    # (violated, num, den) from spectral._eta_counts and _largest_eta, on
    # every graph of the networkx atlas (1 to 7 vertices), on seeded graphs
    # of 1..64 vertices and on the cliques K1..K64, where the counting form
    # n d + 2 e(N(v)) >= d^2 + S holds with equality at every vertex, so
    # that a strict comparison turned lax fails here
    nx = pytest.importorskip("networkx")
    graphs = [make_graph(a.number_of_nodes(), list(a.edges()))
              for a in nx.graph_atlas_g() if a.number_of_nodes()]
    rng = random.Random(44)
    graphs += [random_graph(rng, n, rng.choice((0.1, 0.3, 0.5, 0.8)))
               for n in range(1, 65) for _ in range(3)]
    graphs += [complete(n) for n in range(1, 65)]
    tight = 0
    for g in graphs:
        counts = [spectral._eta_counts(g, v) for v in range(g.n)]
        slack = [g.n * d + twice_inner - d * d - degree_sum
                 for d, degree_sum, twice_inner in counts]
        tight += sum(s == 0 and d > 0 for s, (d, _, _) in zip(slack, counts))
        want = (min(slack, default=0) < 0, *spectral._largest_eta(counts))
        assert impl.eta_check(g.rows) == want, g.rows
    assert tight == 2775  # tight vertices, 2,079 of them in the cliques


@pytest.mark.parametrize(
    "impl", [impl for _, impl in IMPLEMENTATIONS],
    ids=[label for label, _ in IMPLEMENTATIONS],
)
def test_q_indices_match_the_eigensolver_and_the_exact_root(impl):
    # every graph of the networkx atlas (1 to 7 vertices), then seeded
    # graphs of each order 1..64: edgeless, random, with an isolated vertex,
    # disconnected (two random parts) and complete, up to K64; all in one
    # call, each within 1e-12 of oracle_q and the value it gets in a call of
    # its own. On the atlas each value is also within 1e-12 of the largest
    # root of the exact characteristic polynomial: the Sturm chain of its
    # squarefree part counts a root above q - 1e-12 and none above q + 1e-12
    nx = pytest.importorskip("networkx")
    atlas = [make_graph(a.number_of_nodes(), list(a.edges()))
             for a in nx.graph_atlas_g() if a.number_of_nodes()]
    rng = random.Random(45)
    seeded = []
    for n in range(1, 65):
        seeded += [make_graph(n), random_graph(rng, n, rng.choice((0.1, 0.3, 0.5, 0.8))),
                   complete(n)]
        if n > 1:
            cut = rng.randint(1, n - 1)
            seeded += [disjoint_union(make_graph(1), random_graph(rng, n - 1, 0.5)),
                       disjoint_union(random_graph(rng, cut, 0.6),
                                      random_graph(rng, n - cut, 0.6))]
    graphs = atlas + seeded
    got = impl.q_indices([g.rows for g in graphs])
    assert got == pytest.approx([oracle_q(g) for g in graphs], rel=0, abs=1e-12)
    assert got == [impl.q_indices([g.rows])[0] for g in graphs]
    tol = Fraction(1, 10**12)
    polys = spectral.charpoly_int_matrices([spectral.signless_laplacian(g).tolist()
                                            for g in atlas])
    for g, q, p in zip(atlas, got, polys):
        assert count_roots_above(p, Fraction(q) - tol) >= 1, g.rows
        assert count_roots_above(p, Fraction(q) + tol) == 0, g.rows


@pytest.mark.parametrize(
    "impl", [impl for _, impl in IMPLEMENTATIONS],
    ids=[label for label, _ in IMPLEMENTATIONS],
)
def test_q_indices_guards(impl):
    # a sequence of the rows of simple graphs of 1 to 64 vertices, each
    # graph's rows read by the rule of every per-graph call
    for rows_list in (None, 5):
        with pytest.raises(TypeError):
            impl.q_indices(rows_list)
    for rows in BAD_ROWS:  # asymmetric rows, a vertex's own bit, 65 vertices
        with pytest.raises(ValueError):
            impl.q_indices([[0], rows])
    for rows in ([0.0], [0, None], 5, None):  # a row that is not an int, no rows
        with pytest.raises(TypeError):
            impl.q_indices([[0], rows])
    with pytest.raises(ValueError):  # a graph without a vertex has no index
        impl.q_indices([[0], []])
    assert impl.q_indices([]) == [] and impl.q_indices(()) == []
    # exact indices: no edge, 64 isolated vertices, and two disjoint edges
    assert impl.q_indices([[0], (0,) * 64, (2, 1, 8, 4)]) == [0.0, 0.0, 2.0]


def test_kernel_builds_without_warnings(compiled, tmp_path):
    # the build command of the first import with gcc's common warnings as
    # errors; unused parameters are the `self` of each module function
    so = tmp_path / f"_sweep{importlib.machinery.EXTENSION_SUFFIXES[0]}"
    build = subprocess.run(
        [*kernels.compiler(), "-Wall", "-Wextra", "-Wno-unused-parameter", "-Werror",
         str(kernels.SOURCE), "-o", str(so)], capture_output=True, text=True)
    assert build.returncode == 0, build.stderr


# -- the compiled kernel under the undefined-behaviour sanitizer ------------------

# Loads the kernel built at argv[1] and prints what each call listed in the
# file argv[2], one (name, args) a line, returns, or the name of the error it
# raises; a call named "interleaved" is _interleaved over the kernel's
# classify, one named "seeded_rows" (seed, n_lo, n_hi, strata) is
# sample_rows(getrandbits, n_lo, n_hi, strata) and one named
# "seeded_sample" (seed, n, k) is sample_range(getrandbits, n, k), each with
# the getrandbits method of random.Random(seed); both also print the
# generator's next draw. The spot check's draws are too long for one
# argument, and a line at a time keeps the parse small.
SANITIZED_CHILD = inspect.getsource(_interleaved) + """
import ast, importlib.util, random, sys
spec = importlib.util.spec_from_file_location("_sweep", sys.argv[1])
kernel = importlib.util.module_from_spec(spec)
spec.loader.exec_module(kernel)

def seeded_rows(seed, n_lo, n_hi, strata):
    rng = random.Random(seed)
    return kernel.sample_rows(rng.getrandbits, n_lo, n_hi, strata), rng.random()

def seeded_sample(seed, n, k):
    rng = random.Random(seed)
    return kernel.sample_range(rng.getrandbits, n, k), rng.random()

seeded = {"seeded_rows": seeded_rows, "seeded_sample": seeded_sample}
for line in open(sys.argv[2]):
    name, args = ast.literal_eval(line)
    call = (lambda *a: _interleaved(kernel.classify, *a)) if name == "interleaved" \
        else seeded.get(name) or getattr(kernel, name)
    try:
        print(repr(call(*args)))
    except (TypeError, ValueError) as exc:
        print(type(exc).__name__)
"""


def test_kernel_has_no_undefined_behaviour(compiled, tmp_path):
    # a trap aborts the process, so each build runs in a child of its own
    so = tmp_path / f"_sweep{importlib.machinery.EXTENSION_SUFFIXES[0]}"
    build = subprocess.run(
        [*kernels.compiler(), "-fsanitize=undefined", "-fno-sanitize-recover=all",
         str(kernels.SOURCE), "-o", str(so)], capture_output=True, text=True)
    assert build.returncode == 0, build.stderr
    calls = []
    for n, lo, hi in ((6, 0, 1 << 15), (7, 0, 1 << 21), SLICE8[:3]):
        cuts = _theorem_cuts(n)
        for test in (("apex_has_config", 3), ("chorded_has", 3), None):
            calls.append(("classify", (n, lo, hi, *cuts, test)))
        # the same pass from two threads at once, next to the serial one
        calls.append(("interleaved", calls[-3][1]))
    for rows in (RING64, FAN64, *BAD_ROWS):
        for name in ("apex_has_config", "chorded_has"):
            calls.append((name, (rows, 3)))
        calls += [("longest_cycle", (rows,)), ("max_path_order", (rows,)),
                  ("perron_order", (rows, 0, 1)), ("component_count", (rows,))]
    # graphs the Jacobi eigensolve runs on, up to its 16 vertices
    for rows in (path(16).rows, complete(7).rows, extremal_graph(10).graph.rows):
        calls.append(("perron_order", (rows, 0, 5)))
    # the spot check's own draws at the theorem's thresholds and 0.5 below,
    # and the bad inputs
    for n in (6, 7, 8):
        thr = _threshold_constants(n)[1]
        for cut in (thr, thr - 0.5):
            calls.append(("degree_skips", (n, list(_spot_check_draws(n)), cut)))
    for args in ((12, [0], 5.0), (5, [-1], 5.0), (5, [1 << 10], 5.0), (5, (0,), 5.0),
                 (11, [(1 << 55) - 1], 5.0), (5.0, [0], 5.0)):
        calls.append(("degree_skips", args))
    # each branch of the int rule: a chord count that saturates and one far
    # below 1, n above 11 or a float, hi below lo, a vertex below 0 or at n
    k6, k6_mask = complete(6).rows, (1 << 15) - 1
    for k in (1 << 70, -(1 << 70)):
        calls += [("apex_has_config", (k6, k)), ("chorded_has", (k6, k)),
                  ("classify", (6, k6_mask, k6_mask + 1, 5.0, 6.0, ("apex_has_config", k))),
                  ("classify", (6, k6_mask, k6_mask + 1, 5.0, 6.0, ("chorded_has", k)))]
    for n, lo, hi in ((12, 0, 1), (5.0, 0, 1024), (5, 3, 2)):
        calls.append(("classify", (n, lo, hi, 5.0, 5.0, None)))
    calls += [("perron_order", (path(5).rows, -1, 0)), ("perron_order", (path(5).rows, 0, 5))]
    # the structural claims on the 64-vertex graphs, the bad rows and the
    # seeded draws of the pinned counts, at the default caps and every cap
    # 0, 1 and 2, and bad caps
    rng = random.Random(20261019)
    draws = [oracle_sample(rng, 3, 11).rows for _ in range(300)]
    for caps in ((2, 3, 3, 2, 1), (0,) * 5, (1,) * 5, (2,) * 5):
        for rows in (RING64, FAN64, K4_FRINGE64, *BAD_ROWS, *draws):
            calls.append(("structural_violations", (rows, caps)))
    for caps in ((2, 3, 3, 2), (2, 3, 3, 2, -1), (1 << 70,) * 5, (2, 3, 3, 2, 1.0)):
        calls.append(("structural_violations", (complete(6).rows, caps)))
    # component counts of the same draws and of orders 0 and 1; edge slots
    # at orders 0 and 1, the dense draws' 10..14 and 64, and bad slots
    calls += [("component_count", (rows,)) for rows in ([], [0], *draws)]
    for n in (0, 1, *range(10, 15), 64):
        slots = n * (n - 1) // 2
        calls += [("slot_rows", (n, rng.sample(range(slots), rng.randint(0, slots)))),
                  ("slot_rows", (n, list(range(slots))))]
    for args in ((0, [0]), (1, [0]), (64, [2016]), (64, [2015, -1]), (3, [1 << 70]),
                 (65, []), (3.0, []), (3, (0,)), (3, [0, 1.0])):
        calls.append(("slot_rows", args))
    # random graphs through a seeded generator at orders 0..12 and 64 and
    # the suite's ranges, and bad orders and strata
    strata = (0.2, 0.4, 0.6, 0.8)
    for seed in range(20):
        for n_lo, n_hi in (*((n, n) for n in (*range(13), 64)), (3, 12), (0, 64)):
            calls.append(("seeded_rows", (seed, n_lo, n_hi, strata)))
    for n_lo, n_hi, p in ((-1, 3, strata), (0, 65, strata), (4, 3, strata), (3.0, 3, strata),
                          (3, 3, ()), (3, 3, [0.5]), (3, 3, ("0.5",))):
        calls.append(("seeded_rows", (1, n_lo, n_hi, p)))
    # the eta rule on the 64-vertex graphs, the bad rows and the draws
    calls += [("eta_check", (rows,)) for rows in (RING64, FAN64, K4_FRINGE64, *BAD_ROWS,
                                                  complete(64).rows, [], *draws)]
    # samples of a range through a seeded generator on both paths, and bad
    # ranges and sizes
    for seed in range(10):
        calls += [("seeded_sample", (seed, n, k)) for n, k in SAMPLE_CASES]
    for n, k in ((-1, 0), (2017, 0), (3, 4), (3, -1), (3.0, 1), (3, 1 << 70)):
        calls.append(("seeded_sample", (1, n, k)))
    # float indices: the seeded draws, seeded graphs of up to 64 vertices,
    # the 64-vertex graphs and K64 in one call, and bad rows lists
    rng = random.Random(20261022)
    graphs = [oracle_sample(rng, 1, 64).rows for _ in range(60)]
    calls.append(("q_indices", ([*draws, *graphs, RING64, FAN64, K4_FRINGE64,
                                 complete(64).rows, [0]],)))
    for rows_list in (None, [[0], []], *([[0], rows] for rows in BAD_ROWS)):
        calls.append(("q_indices", (rows_list,)))
    listed = tmp_path / "calls.txt"
    listed.write_text("".join(f"{call!r}\n" for call in calls))
    runs = [_python(SANITIZED_CHILD, path, listed)
            for path in (so, Path(compiled.__file__))]
    (sanitized, sanitized_err), (regular, _) = [run.communicate(timeout=300) for run in runs]
    assert [run.returncode for run in runs] == [0, 0], sanitized_err
    assert sanitized == regular and len(sanitized.splitlines()) == len(calls)
    lines = sanitized.splitlines()
    pairs = [i for i, (name, _) in enumerate(calls) if name == "interleaved"]
    assert len(pairs) == 3 and all(lines[i] == lines[i - 3] for i in pairs)
