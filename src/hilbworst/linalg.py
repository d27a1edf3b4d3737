"""Sparse exact linear algebra over the rationals.

Vectors are dicts mapping orderable keys to nonzero rationals (``int`` or
``Fraction``).  EchelonSpan keeps one normalized row per pivot key and can
optionally track, for every inserted row, an exact expression in terms of
the original input vectors; reducing a query vector then yields either a
zero residual together with an explicit certificate (the query as a
rational combination of the inputs) or a nonzero residual, which is a proof
of non-membership.

Inside the span an integral value is held as an ``int`` and any other value
as a ``Fraction``; most entries of the spans built in this package are
integers, and int arithmetic is exact and far cheaper.  Values returned by
``reduce`` are always ``Fraction``s.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush


def _exact(x):
    """A rational as an int when it is integral, else as a Fraction."""
    return x.numerator if x.denominator == 1 else x


def _add_multiple(acc: dict, c, vec: dict) -> None:
    """acc -= c*vec in place, dropping zeros."""
    for k, x in vec.items():
        nv = acc.get(k, 0) - c * x
        if not nv:
            del acc[k]
        elif type(nv) is int or nv.denominator != 1:
            acc[k] = nv
        else:
            acc[k] = nv.numerator


def _divide(vec: dict, c) -> dict:
    """vec / c, exactly, with integral values as ints (vec itself when c
    is 1)."""
    if c == 1:
        return vec
    if c == -1:
        return {k: -x for k, x in vec.items()}
    return {k: _exact(Fraction(x, c)) for k, x in vec.items()}


class EchelonSpan:
    """Incremental row echelon basis of sparse exact vectors."""

    def __init__(self, track: bool = False, keysort=None):
        self._rows: dict = {}  # pivot key -> row (pivot coefficient 1)
        self._combos: dict = {}  # pivot key -> {tag: coefficient}
        self._track = track
        self._key = keysort if keysort is not None else (lambda k: k)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivots(self):
        return self._rows.keys()

    def reduce(self, vec: dict):
        """Return (residual, used) with vec = sum(used[tag]*input) + residual.

        `used` is None unless the span tracks combinations.
        """
        v, used = self._reduce(vec)
        residual = {k: Fraction(c) for k, c in v.items()}
        if used is not None:
            used = {tag: Fraction(c) for tag, c in used.items()}
        return residual, used

    def _reduce(self, vec: dict):
        """``reduce`` with values in the internal int-or-Fraction form.

        Eliminates the hit of least sort key first.  A row's other keys all
        sort after its pivot, so an elimination only brings in keys that sort
        after the one eliminated, and a key's sort key is computed only when
        it enters the vector as a hit.
        """
        rows, key = self._rows, self._key
        v = {k: _exact(c) for k, c in vec.items() if c}
        used: dict | None = {} if self._track else None
        heap = [(key(k), k) for k in v if k in rows]
        heap.sort()
        while heap:
            p = heappop(heap)[1]
            c = v.get(p)
            if c is None:
                continue  # cancelled since it was queued
            row = rows[p]
            for k in row:
                if k in rows and k not in v:
                    heappush(heap, (key(k), k))
            _add_multiple(v, c, row)  # row[p] is 1, so p cancels
            if used is not None:
                _add_multiple(used, -c, self._combos[p])
        return v, used

    def insert(self, vec: dict, tag=None) -> bool:
        """Add a vector to the span; False if it was already contained."""
        residual, used = self._reduce(vec)
        if not residual:
            return False
        p = min(residual, key=self._key)
        c = residual[p]
        self._rows[p] = _divide(residual, c)
        if self._track:
            combo = {tag: 1}
            _add_multiple(combo, 1, used)
            self._combos[p] = _divide(combo, c)
        return True
