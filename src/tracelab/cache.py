"""Persistent cache of computed trace polynomials.

Entries map canonical word text to polynomial text and round-trip through
the rendering format; a version-stamped header invalidates stale files.
An existing file that is not a cache of any version (unparsable, or with
no version stamp) is refused rather than overwritten.  The default
location comes from the TRACELAB_CACHE environment variable.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Optional

from .trace import TraceEngine, TraceResult, _trace_result, trace_poly
from .tripoly import TriPoly
from .words import Word, canonicalize

CACHE_VERSION = "tracelab-cache-1"


def _canonical_key(w: Word) -> str:
    if w.is_empty:
        return "1"
    canon, _ = canonicalize(w)
    return str(canon)


class TraceCache:
    """Word-text -> polynomial-text map with atomic JSON persistence."""

    def __init__(self, path: Optional[str] = None):
        if path is None:
            path = os.environ.get("TRACELAB_CACHE") or None
        self.path = path
        self.entries: dict[str, str] = {}
        self.dirty = False
        if self.path and os.path.exists(self.path):
            self._load()

    def _load(self) -> None:
        """Read the file; ValueError when it is not a cache, so that save keeps it."""
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError:
            return  # unreadable, such as a directory: save reports it
        except ValueError:  # unparsable JSON or text
            data = None
        if not isinstance(data, dict) or "version" not in data:
            raise ValueError(f"{self.path} exists and is not a trace cache; refusing to overwrite it")
        if data["version"] != CACHE_VERSION:
            return  # a cache of another version: start fresh
        entries = data.get("entries", {})
        if isinstance(entries, dict):
            self.entries = {str(k): str(v) for k, v in entries.items()}

    def lookup(self, w: Word) -> Optional[TriPoly]:
        text = self.entries.get(_canonical_key(w))
        if text is None:
            return None
        try:
            return TriPoly.parse(text, None)
        except ValueError:
            return None

    def store(self, w: Word, f: TriPoly) -> None:
        key = _canonical_key(w)
        text = f.render()
        if self.entries.get(key) != text:
            self.entries[key] = text
            self.dirty = True

    def save(self) -> None:
        if not self.path or not self.dirty:
            return
        payload = {
            "version": CACHE_VERSION,
            "entries": dict(sorted(self.entries.items())),
        }
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=0, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, self.path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        self.dirty = False

    def __len__(self) -> int:
        return len(self.entries)


def cached_trace_poly(
    w: Word,
    cache: TraceCache,
    engine: Optional[TraceEngine] = None,
) -> TraceResult:
    """trace_poly with a read-through/write-through cache.

    Hits reconstruct the result from the stored polynomial text and pass
    trace_poly's checks; an entry that fails them is treated as a miss and
    overwritten, like an unparsable one.  A hit is also put into the
    engine's memo, if one is given, so later work on that engine (such as
    classify_global) reads f instead of recomputing it.  A differential
    test asserts hits never change any output versus cold runs.
    """
    f = cache.lookup(w)
    if f is not None:
        result = _trace_result(w, f)
        if result is not None:
            if engine is not None:
                engine.remember(result)
            return result
    result = trace_poly(w, engine=engine)
    cache.store(w, result.f)
    return result
