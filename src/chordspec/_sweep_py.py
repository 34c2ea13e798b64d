"""Pure-Python implementation of the sweep kernels.

Mirrors the compiled extension's interface. The exhaustive q-sweep is
vectorized with numpy over blocks of edge bitmasks; the per-graph detectors
defer to the reference searcher in chords.py.

Soundness contract of sweep_range: a mask may only be dropped when its
signless Laplacian index is provably below q_floor. Cheap degree bounds
(q <= 2*maxdeg and q <= max over edges of d(u)+d(v)) go first; the remainder
is decided by one batched dense eigenvalue computation per block of masks,
with comfortable float margin.
"""

from __future__ import annotations

import numpy as np

from . import chords
from .graphs import graph_from_mask, index_pairs

IS_COMPILED = False

MAXN = 11  # edge bitmasks fit 64 bits up to n = 11, as in the compiled kernel
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


def sweep_range(n: int, lo: int, hi: int, q_floor: float):
    """Scan edge bitmasks in [lo, hi), 0 <= lo <= hi <= 2^C(n,2).

    Returns (no_isolated_count, survivors): survivors are the masks of graphs
    without isolated vertices whose index is not provably below q_floor.
    """
    total = _mask_count(n)
    if not 0 <= lo <= hi <= total:
        raise ValueError(f"range [{lo}, {hi}) outside [0, {total}]")
    pairs = index_pairs(n)
    nbits = len(pairs)
    incident = np.zeros((n, nbits), dtype=bool)
    for b, (i, j) in enumerate(pairs):
        incident[i, b] = incident[j, b] = True
    iarr = np.array([i for i, _ in pairs])
    jarr = np.array([j for _, j in pairs])

    no_isolated = 0
    survivors: list[int] = []
    diag = np.arange(n)
    for start in range(lo, hi, _BLOCK):
        stop = min(start + _BLOCK, hi)
        masks = np.arange(start, stop, dtype=np.int64)
        bits = (masks[:, None] >> np.arange(nbits)) & 1  # (block, nbits)
        deg = bits @ incident.T.astype(np.int64)  # (block, n)
        ok = deg.min(axis=1) >= 1
        no_isolated += int(ok.sum())
        cand = ok & (2 * deg.max(axis=1) >= q_floor)
        if cand.any():
            # max over present edges of d(i)+d(j); absent edges contribute 0
            cand &= ((deg[:, iarr] + deg[:, jarr]) * bits).max(axis=1) >= q_floor
        if cand.any():
            # stacked Q = A + D of the remaining candidates, one batched solve
            q = np.zeros((int(cand.sum()), n, n))
            q[:, iarr, jarr] = q[:, jarr, iarr] = bits[cand]
            q[:, diag, diag] = deg[cand]
            top = np.linalg.eigvalsh(q)[:, -1]
            survivors.extend(masks[cand][top >= q_floor].tolist())
    return no_isolated, survivors


def apex_has_config(n: int, mask: int, k: int) -> bool:
    """Whether some cycle has k chords at a common vertex."""
    _check_mask(n, mask)
    return chords.find_k_chords_at_apex(graph_from_mask(n, mask), k) is not None


def chorded_has(n: int, mask: int, min_chords: int) -> bool:
    """Whether some cycle carries at least min_chords chords."""
    _check_mask(n, mask)
    return chords.find_chorded_cycle(graph_from_mask(n, mask), min_chords) is not None
