"""Hot-kernel dispatch: the compiled kernel when it builds, else the
pure-Python twin in ``_sweep_py``.

Both export the same functions: ``classify``, one pass over the
degree-sorted masks of an edge-bitmask range, d(0) >= ... >= d(n-1) >= 1,
found by a pruned depth-first search over the rows of the mask, that drops
the graphs provably below a cut and counts those provably above it that
pass a chord test (or none, given no test), each counted with its weight
n! / prod_d m_d! (m_d vertices of degree d), the labeled graphs it stands
for, and that lists the sorted masks it leaves; ``degree_skips``, which
applies classify's degree filter to a list of labeled masks and returns how
many graphs it skips and the skipped masks that can hold their largest
index (the prefilter spot check's re-check of that filter); and, on one
graph's adjacency rows (up to 64 vertices), the chord tests
``apex_has_config`` (k chords at one cycle vertex) and ``chorded_has`` (a
cycle with at least min_chords chords, which tries the apex search first
for min_chords <= 3), the searches ``longest_cycle`` and
``max_path_order``, and ``perron_order(rows, u, v)``: the sign of
x_u - x_v for the Perron vector x of Q(G) as 1 or -1 when a Davis-Kahan
bound certifies it, else 0 (on a tie or a small gap, for a disconnected
graph and above 16 vertices); ``q_indices(rows_list)``, the index q of each
graph of a sequence of adjacency rows, a list of floats in input order, each
graph solved on its own; and, for the property suite, with
getrandbits a generator's bound ``getrandbits`` method, and each draw
leaving the generator as the Python calls it replays leave it,
``sample_rows(getrandbits, n_lo, n_hi, strata)``, the rows of
``properties._sample``'s graph: its order drawn as ``randint(n_lo, n_hi)``,
p as ``choice(strata)``, and each edge slot, in ``graphs.index_pairs``
order, an edge when its ``random()`` value, all read from one
``getrandbits(64 * slots)``, is below p, ``sample_range(getrandbits, n,
k)``, ``Random.sample(range(n), k)`` by the same path and ``_randbelow``
draws, ``slot_rows(n, slots)``, the rows of the graph on n vertices whose
edges are the listed edge slots (bit positions of an edge bitmask),
``component_count(rows)``, a graph's number of connected components,
``eta_check(rows)``, (violated, num, den) by the one eta rule of
``spectral._eta_counts`` and ``_largest_eta`` (violated: some v has
n d + 2 e(N(v)) < d^2 + S; num / den: the largest eta), and
``structural_violations(rows, caps)``, the (cap, catalog) violation counts
of the structural claims over every apex, with caps the claim-1 caps as a
tuple in ``properties.DEFAULT_CLAIM_CAPS`` order. ``sweep_range`` below is
the pass with no test.

Both read every int argument by one rule: n in [1, 11] for a sweep and in
[0, 64] for ``slot_rows``, n_lo in [0, 64] and n_hi in [n_lo, 64], a
range's lo in [0, 2^C(n,2)] and its hi in [lo, 2^C(n,2)], a listed mask in
[0, 2^C(n,2)), an edge slot in [0, C(n,2)), a sampled range's n in [0,
C(64,2)] and its k in [0, n], a vertex in [0, n), a chord count of at
least 1 (a count above every graph's chords answers no) and a claim cap of
at least 0; anything else is a ValueError, and an argument that is not an
int a TypeError, with the same message from both. So is every other bad
argument: rows or a rows_list that are not a sequence (TypeError), rows
not those of a simple graph on at most 64 vertices, or on none in a
rows_list (ValueError), masks or slots that are not a list, a cut or a
stratum that is not a real number, strata that are not a nonempty tuple,
caps that are not a tuple of five, and a getrandbits that is not callable
or returns something other than an int (TypeError), where a type is named
by its ``__name__``; a getrandbits(b) value outside [0, 2^b) is a
ValueError. An error that getrandbits raises propagates.

The compiled ``classify`` releases the GIL for its pass, so threads that
classify different ranges run at once; it holds the GIL again only to build
the list of masks it leaves. The twin runs unchanged on threads too, but
holds the GIL outside numpy.

On first import the C source ``_sweep.c`` is compiled with the interpreter's
own compiler command into ``build/kernel/`` at the repository root. The file
name carries a hash of the source, so an edited source never loads a stale
build; later imports load the cached file, and a cached file that will not
load is compiled again. A fresh build removes the builds of other sources.
This is the only way the compiled kernel is built: without a compiler, or
when the build fails, the twin runs and nothing is raised. Set
CHORDSPEC_NO_EXT=1 to force the twin.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.machinery
import importlib.util
import os
import shutil
import zlib
from pathlib import Path

from . import _sweep_py

SOURCE = Path(__file__).with_name("_sweep.c")
CACHE = Path(__file__).resolve().parents[2] / "build" / "kernel"


def compiler() -> list[str] | None:
    """The interpreter's command that compiles and links a C file into an
    extension module, or None when its compiler is not on PATH."""
    import shlex
    import sysconfig

    cmd = shlex.split(sysconfig.get_config_var("LDSHARED") or "")
    if not cmd or shutil.which(cmd[0]) is None:
        return None
    return [*cmd, sysconfig.get_config_var("CCSHARED") or "-fPIC", "-O3",
            "-I" + sysconfig.get_paths()["include"]]


def _load(so: Path):
    spec = importlib.util.spec_from_file_location("chordspec._sweep", so)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build(source: Path = SOURCE, cache: Path = CACHE):
    """The compiled kernel from `source`: the build of the same source in
    `cache` when it loads, else a fresh one compiled into `cache`; None when
    that cannot be done. Each process compiles to a file of its own and
    renames it into place, so processes building at once all load a complete
    file."""
    try:
        # zlib's two 32-bit checksums, not hashlib: zlib is loaded already,
        # while hashlib maps OpenSSL, about 3.5 MB of RSS in every process
        code = source.read_bytes()
        key = f"{zlib.crc32(code):08x}{zlib.adler32(code):08x}"
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        so = cache / f"_sweep-{key}{suffix}"
        if so.exists():
            with contextlib.suppress(ImportError):
                return _load(so)
        import subprocess

        cmd = compiler()
        if cmd is None:
            return None
        so.parent.mkdir(parents=True, exist_ok=True)
        tmp = so.with_name(f"{so.name}.{os.getpid()}.tmp")
        try:
            if subprocess.run([*cmd, str(source), "-o", str(tmp)], capture_output=True).returncode:
                return None
            os.replace(tmp, so)
        finally:
            tmp.unlink(missing_ok=True)
        module = _load(so)
        # remove the builds of other sources; temporary files of running
        # builds end in .tmp and are left alone
        with contextlib.suppress(OSError):
            for old in cache.glob(f"_sweep-*{suffix}"):
                if old != so:
                    old.unlink()
        return module
    except (OSError, ImportError):
        return None


_compiled = functools.cache(build)
_impl = _sweep_py if os.environ.get("CHORDSPEC_NO_EXT") else _compiled() or _sweep_py

IS_COMPILED: bool = _impl.IS_COMPILED
apex_has_config = _impl.apex_has_config
chorded_has = _impl.chorded_has
classify = _impl.classify
component_count = _impl.component_count
degree_skips = _impl.degree_skips
eta_check = _impl.eta_check
longest_cycle = _impl.longest_cycle
max_path_order = _impl.max_path_order
perron_order = _impl.perron_order
q_indices = _impl.q_indices
sample_range = _impl.sample_range
sample_rows = _impl.sample_rows
slot_rows = _impl.slot_rows
structural_violations = _impl.structural_violations


def sweep_range(n: int, lo: int, hi: int, q_floor: float):
    """(no_isolated, survivors) over the degree-sorted edge bitmasks in
    [lo, hi): no_isolated is their weighted count, so over a whole order the
    number of labeled graphs without isolated vertices, and the survivors
    are the sorted masks, ascending, whose index is not provably below
    q_floor. ValueError when q_floor is NaN."""
    no_isolated, _, survivors = classify(n, lo, hi, q_floor, q_floor, None)
    return no_isolated, survivors


def implementations():
    """Both kernel implementations, labelled; compiled is absent when it
    does not build."""
    out = [("python", _sweep_py)]
    if _compiled() is not None:
        out.insert(0, ("compiled", _compiled()))
    return out
