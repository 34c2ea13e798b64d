"""Hot-kernel dispatch: the compiled extension when available, else the
pure-Python twin. Set CHORDSPEC_NO_EXT=1 to force the fallback (used by the
benchmark and the cross-implementation tests)."""

from __future__ import annotations

import os

if os.environ.get("CHORDSPEC_NO_EXT"):
    from . import _sweep_py as _impl
else:
    try:
        from . import _sweep as _impl  # type: ignore[attr-defined]
    except ImportError:
        from . import _sweep_py as _impl

IS_COMPILED: bool = _impl.IS_COMPILED
sweep_range = _impl.sweep_range
apex_has_config = _impl.apex_has_config
chorded_has = _impl.chorded_has


def implementations():
    """Both kernel implementations, labelled; compiled may be absent."""
    from . import _sweep_py

    out = [("python", _sweep_py)]
    try:
        from . import _sweep  # type: ignore[attr-defined]

        out.insert(0, ("compiled", _sweep))
    except ImportError:
        pass
    return out
