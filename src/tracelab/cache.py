"""Persistent cache of computed trace polynomials.

In memory the cache maps canonical word text to the ``TriPoly`` f_w, so a
request neither renders nor parses text.  On disk each entry is one
string of integer terms ``i,j,k,c;...``: the exponents of s, u and t and
the coefficient, in sorted order.  Entries are decoded when the file is
loaded; one that does not decode is dropped, so it is a miss, and one
that fails trace_poly's checks is a miss too; either is overwritten.  An
entry read from the file is also checked once, on its first hit: f at one
fixed point mod the prime 2^61 - 1 must equal the trace of the word's 2x2
product there, or the entry is a miss and is overwritten.  Entries stored
in this process are not checked.  A version-stamped header invalidates files of
another version, which start fresh.  An existing file that is not a cache
of any version (unparsable, or with no version stamp) is refused rather
than overwritten.  The command line does not use the cache; the
benchmark's classify workload does.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Optional

from .trace import TraceEngine, TraceResult, _trace_result, trace_poly
from .tripoly import TriPoly, _pack, _power
from .words import Y, Word, canonicalize, parse

CACHE_VERSION = "tracelab-cache-2"

# A loaded entry is checked at (s, u, t) = (tr X, tr XY, tr Y) for this
# pair (a, b, c, d) of matrices [[a, b], [c, d]] of SL(2, Z/P).
_CHECK_P = (1 << 61) - 1
_CHECK_PAIR = (
    (744178403107771585, 1, 166376123609578148, 1667998515441752381),
    (277365861038063687, 1, 1057260767796058391, 1083917740600856738),
)


def _canonical_key(w: Word) -> str:
    if w.is_empty:
        return "1"
    canon, _ = canonicalize(w)
    return str(canon)


def _encode(f: TriPoly) -> str:
    return ";".join(f"{i},{j},{k},{c}" for (i, j, k), c in sorted(f.terms()))


def _decode(text) -> Optional[TriPoly]:
    """The polynomial an entry encodes, or None when it encodes none."""
    if not isinstance(text, str):
        return None
    coeffs = {}
    try:
        for term in text.split(";"):
            i, j, k, c = map(int, term.split(","))
            coeffs[_pack(i, j, k)] = c
    except ValueError:  # a non-integer field, the wrong field count or an exponent out of range
        return None
    return TriPoly(coeffs)


def _mat_mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    P = _CHECK_P
    return ((a * e + b * g) % P, (a * f + b * h) % P, (c * e + d * g) % P, (c * f + d * h) % P)


def _trace_at(w: Word) -> int:
    """tr w(X, Y) mod P at the check pair; a block by square-and-multiply."""
    m = (1, 0, 0, 1)
    for g, e in w.blocks:
        a, b, c, d = _CHECK_PAIR[g == Y]
        base = (a, b, c, d) if e > 0 else (d, -b, -c, a)  # the inverse, det 1
        m = _mat_mul(m, _power(base, abs(e), _mat_mul))
    return (m[0] + m[3]) % _CHECK_P


def _powers(z: int, n: int) -> list:
    row = [1]
    for _ in range(n):
        row.append(row[-1] * z % _CHECK_P)
    return row


def _value_at(f: TriPoly, point) -> int:
    """f at the point (s, u, t) mod P: each u-block at (s, t), then Horner's rule in u."""
    s, u, t = point
    ps, pt = _powers(s, f.deg("s")), _powers(t, f.deg("t"))
    blocks = [0] * (f.deg("u") + 1)
    for (i, j, k), c in f.terms():
        blocks[j] += c * ps[i] * pt[k]
    total = 0
    for block in reversed(blocks):
        total = (total * u + block) % _CHECK_P
    return total


_CHECK_POINT = tuple(_trace_at(parse(text)) for text in ("x", "xy", "y"))  # (s, u, t)


def _agrees(w: Word, f: TriPoly) -> bool:
    """Whether f equals tr w(X, Y) at the check point: a mismatch proves f != f_w."""
    return _value_at(f, _CHECK_POINT) == _trace_at(w)


class TraceCache:
    """Word-text -> polynomial map with atomic JSON persistence."""

    def __init__(self, path: str | os.PathLike):
        self.path = path
        self.entries: dict[str, TriPoly] = {}
        self._unchecked: set[str] = set()  # keys read from the file and not yet hit
        self.dirty = False
        if os.path.exists(self.path):
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
            for key, text in entries.items():
                f = _decode(text)
                if f is not None:
                    self.entries[key] = f
            self._unchecked = set(self.entries)

    def lookup(self, w: Word) -> Optional[TriPoly]:
        """The entry of w's canonical key; one read from the file is checked on its first hit."""
        key = _canonical_key(w)
        f = self.entries.get(key)
        if f is not None and key in self._unchecked:
            self._unchecked.discard(key)
            if not _agrees(w, f):
                del self.entries[key]
                return None
        return f

    def store(self, w: Word, f: TriPoly) -> None:
        key = _canonical_key(w)
        self._unchecked.discard(key)
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

    def __len__(self) -> int:
        return len(self.entries)


def cached_trace_poly(
    w: Word,
    cache: TraceCache,
    engine: Optional[TraceEngine] = None,
) -> TraceResult:
    """trace_poly with a read-through/write-through cache.

    Hits pass trace_poly's checks, and a hit read from the file passes the
    check at one point too; an entry that fails either is treated as a
    miss and overwritten, like one that does not decode.  A miss is traced
    on the given engine, or on trace_poly's shared default.  A differential
    test asserts hits never change any output versus cold runs.
    """
    f = cache.lookup(w)
    if f is not None:
        result = _trace_result(w, f)
        if result is not None:
            return result
    result = trace_poly(w, engine=engine)
    cache.store(w, result.f)
    return result
