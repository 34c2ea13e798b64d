"""Pure-Python implementation of the sweep kernels.

Mirrors the compiled extension's interface. The pass over a mask range
(classify, with a chord test or None) is vectorized with numpy over blocks
of edge bitmasks; the per-graph detectors and the longest-cycle and
longest-path searches defer to the reference searchers in chords.py.

Soundness contract: a mask may only be dropped when its signless Laplacian
index is provably below the lower cut. Cheap degree bounds (q <= 2*maxdeg
and q <= max over edges of d(u)+d(v)) go first; the remainder gets one
batched dense eigenvalue computation per block of masks, and a cut decides
only when the index clears it by CUT_MARGIN. The mask arithmetic (bits,
degrees, the degree bounds, stacked Q, batched eigvalsh) is
``spectral.MaskBatch``, shared with the verifier's prefilter spot check.
"""

from __future__ import annotations

import numpy as np

from . import chords
from .graphs import Graph, bits_to_vertices, graph_from_mask
from .spectral import MaskBatch

IS_COMPILED = False

MAXN = 11  # edge bitmasks fit 64 bits up to n = 11, as in the compiled kernel
MAXROWS = 64  # adjacency rows fit 64 bits, as in the compiled kernel
CUT_MARGIN = 1e-9  # a cut decides only when the index clears it by this
_BLOCK = 1 << 14


def _mask_count(n: int) -> int:
    """2^C(n,2), the number of edge bitmasks; ValueError unless 1 <= n <= MAXN."""
    if not 1 <= n <= MAXN:
        raise ValueError(f"kernels support 1..{MAXN} vertices, got {n}")
    return 1 << n * (n - 1) // 2


def _check_mask(n: int, mask: int) -> None:
    total = _mask_count(n)
    if not 0 <= mask < total:
        raise ValueError(f"mask {mask} outside [0, {total - 1}]")


def _sweep(n: int, lo: int, hi: int, lo_cut: float, hi_cut: float, detector, k: int):
    """One pass over the masks in [lo, hi): (no_isolated, hits, rest), as
    classify returns it; detector None counts no hits."""
    total = _mask_count(n)
    if not 0 <= lo <= hi <= total:
        raise ValueError(f"range [{lo}, {hi}) outside [0, {total}]")
    if not lo_cut <= hi_cut:
        raise ValueError(f"need lo_cut <= hi_cut, got {lo_cut!r} > {hi_cut!r}")
    no_isolated = hits = 0
    rest: list[int] = []
    for start in range(lo, hi, _BLOCK):
        batch = MaskBatch.of(n, np.arange(start, min(start + _BLOCK, hi), dtype=np.int64))
        ok, cand = batch.degree_cut(lo_cut)
        no_isolated += int(ok.sum())
        if not cand.any():
            continue
        kept = batch[cand]
        top = kept.top_eigenvalues()
        above = top >= lo_cut - CUT_MARGIN
        for mask, q in zip(kept.masks[above].tolist(), top[above].tolist()):
            if detector is not None and q > hi_cut + CUT_MARGIN and detector(n, mask, k):
                hits += 1
            else:
                rest.append(mask)
    return no_isolated, hits, rest


def classify(n: int, lo: int, hi: int, lo_cut: float, hi_cut: float, test):
    """Sort the edge bitmasks in [lo, hi) by their index against
    lo_cut <= hi_cut.

    test is (name, k) naming a detector of this module, "apex_has_config" or
    "chorded_has", or None for no test. Returns (no_isolated, hits, rest):
    no_isolated counts the masks of graphs without isolated vertices; of
    those, hits counts the ones whose index is above hi_cut + CUT_MARGIN and
    whose graph passes test (none when test is None), masks with an index
    below lo_cut - CUT_MARGIN are dropped, and rest lists every other mask,
    ascending. ValueError when a cut is NaN.
    """
    if test is None:
        return _sweep(n, lo, hi, lo_cut, hi_cut, None, 0)
    if not isinstance(test, tuple):
        raise TypeError(f"test must be a (name, k) tuple or None, got {test!r}")
    name, k = test
    if name not in ("apex_has_config", "chorded_has"):
        raise ValueError(f"no kernel test {test!r}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    detector = apex_has_config if name == "apex_has_config" else chorded_has
    return _sweep(n, lo, hi, lo_cut, hi_cut, detector, k)


def apex_has_config(n: int, mask: int, k: int) -> bool:
    """Whether some cycle has k chords at a common vertex."""
    _check_mask(n, mask)
    return chords.find_k_chords_at_apex(graph_from_mask(n, mask), k) is not None


def chorded_has(n: int, mask: int, min_chords: int) -> bool:
    """Whether some cycle carries at least min_chords chords. Three chords
    at one vertex are three chords on one cycle, and the apex search is the
    faster of the two, so it goes first when min_chords <= 3."""
    _check_mask(n, mask)
    if min_chords < 1:
        raise ValueError(f"need min_chords >= 1, got {min_chords}")
    g = graph_from_mask(n, mask)
    if min_chords <= 3 and chords.find_k_chords_at_apex(g, 3) is not None:
        return True
    return chords.find_chorded_cycle(g, min_chords) is not None


def _graph_of_rows(rows) -> Graph:
    """The graph whose adjacency rows (vertex bitmasks) these are; ValueError
    unless they are the rows of a simple graph on at most MAXROWS vertices."""
    rows = tuple(rows)
    n = len(rows)
    if n > MAXROWS:
        raise ValueError(f"kernels support up to {MAXROWS} vertices, got {n}")
    for v, row in enumerate(rows):
        if not 0 <= row < 1 << n or row >> v & 1:
            raise ValueError(f"row {v} = {row} is not a row of a simple graph on {n} vertices")
    for v, row in enumerate(rows):
        for w in bits_to_vertices(row):
            if not rows[w] >> v & 1:
                raise ValueError(f"rows are not symmetric: {v} lists {w}")
    return Graph(n, rows)


def longest_cycle(rows) -> tuple[int, tuple[int, ...]] | None:
    """The first longest cycle in search order as (length, vertex sequence);
    None for forests."""
    return chords.longest_cycle(_graph_of_rows(rows))


def max_path_order(rows) -> int:
    """Most vertices on any path; ValueError for the empty graph."""
    return chords.max_path_order(_graph_of_rows(rows))
