"""A store of computed trace polynomials that nothing reads.

``cached_trace_poly`` is ``trace_poly`` on the caller's engine, whose memo
serves repeats, and stores the f_w it returns in a map from canonical word
text to ``TriPoly``.  ``save`` writes the map atomically as JSON: a
version-stamped header, then per entry one string of integer terms
``i,j,k,c;...``, the exponents of s, u and t and the coefficient, in
sorted order.  Nothing reads the file back.  So that ``save`` never
overwrites a file, ``TraceCache(path)`` refuses a path where a file or
link is already there.  The command line does not use the cache; the
benchmark's classify workload does.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Optional

from .trace import TraceEngine, TraceResult, trace_poly
from .tripoly import TriPoly
from .words import Word, canonicalize

CACHE_VERSION = "tracelab-cache-2"


def _canonical_key(w: Word) -> str:
    if w.is_empty:
        return "1"
    canon, _ = canonicalize(w)
    return str(canon)


def _encode(f: TriPoly) -> str:
    return ";".join(f"{i},{j},{k},{c}" for (i, j, k), c in sorted(f.terms()))


class TraceCache:
    """Word-text -> polynomial map with atomic JSON persistence."""

    def __init__(self, path: str | os.PathLike):
        # save cannot replace a directory and reports one itself; it would replace a link
        if os.path.islink(path) or (os.path.exists(path) and not os.path.isdir(path)):
            raise ValueError(f"{path} already exists; refusing to overwrite it")
        self.path = path
        self.entries: dict[str, TriPoly] = {}
        self.dirty = False

    def lookup(self, w: Word) -> Optional[TriPoly]:
        return self.entries.get(_canonical_key(w))

    def store(self, w: Word, f: TriPoly) -> None:
        key = _canonical_key(w)
        if self.entries.get(key) != f:
            self.entries[key] = f
            self.dirty = True

    def save(self) -> None:
        """Write the file atomically, one entry at a time."""
        if not self.dirty:
            return
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(f'{{"version": "{CACHE_VERSION}", "entries": {{')
                sep = "\n"
                for key in sorted(self.entries):
                    fh.write(f"{sep}{json.dumps(key)}: {json.dumps(_encode(self.entries[key]))}")
                    sep = ",\n"
                fh.write("\n}}\n")
            os.replace(tmp, self.path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        self.dirty = False


def cached_trace_poly(
    w: Word,
    cache: TraceCache,
    engine: Optional[TraceEngine] = None,
) -> TraceResult:
    """trace_poly on the given engine, or on its shared default, with f stored in the cache.

    Nothing is read from the cache: the engine's memo serves repeats, and
    trace_poly's one checked read of f_w covers every call.
    """
    result = trace_poly(w, engine=engine)
    cache.store(w, result.f)
    return result
