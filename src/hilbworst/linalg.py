"""Sparse exact linear algebra over the rationals.

Vectors are dicts mapping orderable keys to nonzero rationals (``int`` or
``Fraction``).  Pivots are taken least key first, in the keys' own order or
in the order of a sort key.  EchelonSpan keeps one normalized row per pivot
key and tracks, for every inserted row, an exact expression in terms of the
original input vectors; reducing a query vector then yields either a zero
residual together with an explicit certificate (the query as a rational
combination of the inputs) or a nonzero residual, which is a proof of
non-membership.

``pivot_keys`` answers the one question that needs no certificate, which
keys lead the rows of an echelon basis.  It eliminates fraction-free, in
integers, and never normalizes a pivot to 1.

Inside the span every value is held in the form ``poly.exact`` gives it, the
form of a ``Poly`` coefficient: an ``int`` when it is integral and a
``Fraction`` otherwise; most entries of the spans built in this package are
integers, and int arithmetic is exact and far cheaper.  Values returned by
``reduce`` are always ``Fraction``s.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .poly import exact


def _add_multiple(acc: dict, c, vec: dict) -> None:
    """acc -= c*vec in place, dropping zeros."""
    for k, x in vec.items():
        nv = acc.get(k, 0) - c * x
        if nv:
            acc[k] = nv if type(nv) is int else exact(nv)
        else:
            del acc[k]


def _divide(vec: dict, c) -> dict:
    """vec / c, exactly, with integral values as ints (vec itself when c
    is 1)."""
    if c == 1:
        return vec
    if c == -1:
        return {k: -x for k, x in vec.items()}
    return {k: exact(Fraction(x, c)) for k, x in vec.items()}


class EchelonSpan:
    """Incremental row echelon basis of sparse exact vectors, each row with
    its combination of the inserted vectors."""

    def __init__(self, keysort=None):
        self._rows: dict = {}  # pivot key -> row (pivot coefficient 1)
        self._combos: dict = {}  # pivot key -> {tag: coefficient}
        self._key = keysort  # None: the keys' own order

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivots(self):
        return self._rows.keys()

    def reduce(self, vec: dict):
        """Return (residual, used) with vec = sum(used[tag]*input) + residual."""
        v, used = self._reduce(vec)
        residual = {k: Fraction(c) for k, c in v.items()}
        return residual, {tag: Fraction(c) for tag, c in used.items()}

    def _reduce(self, vec: dict):
        """``reduce`` with values in the internal ``exact`` form.

        Eliminates the least hit first.  A row's other keys all sort after
        its pivot, so an elimination only brings in keys that sort after the
        one eliminated.  With a sort key, the heap holds (sort key, key)
        pairs, and a key's sort key is computed only when it enters the
        vector as a hit.
        """
        rows, key = self._rows, self._key
        v = {k: c if type(c) is int else exact(c) for k, c in vec.items() if c}
        used: dict = {}
        if key is None:
            heap = [k for k in v if k in rows]
        else:
            heap = [(key(k), k) for k in v if k in rows]
        heapify(heap)
        while heap:
            p = heappop(heap)
            if key is not None:
                p = p[1]
            c = v.get(p)
            if c is None:
                continue  # cancelled since it was queued
            row = rows[p]
            for k in row:
                if k in rows and k not in v:
                    heappush(heap, k if key is None else (key(k), k))
            _add_multiple(v, c, row)  # row[p] is 1, so p cancels
            _add_multiple(used, -c, self._combos[p])
        return v, used

    def insert(self, vec: dict, tag=None) -> bool:
        """Add a vector to the span; False if it was already contained."""
        residual, used = self._reduce(vec)
        if not residual:
            return False
        p = min(residual) if self._key is None else min(residual, key=self._key)
        c = residual[p]
        self._rows[p] = _divide(residual, c)
        combo = {tag: 1}
        _add_multiple(combo, 1, used)
        self._combos[p] = _divide(combo, c)
        return True


def _primitive(vec: dict) -> dict:
    """The nonzero entries of a rational vector, scaled to coprime ints."""
    den = lcm(*(x.denominator for x in vec.values()))
    v = {k: x.numerator * (den // x.denominator) for k, x in vec.items() if x}
    content = gcd(*v.values())
    return v if content == 1 else {k: x // content for k, x in v.items()}


def pivot_keys(rows) -> set:
    """The pivot keys of the row space of sparse rational vectors: the least
    key of each row of an echelon basis.

    Fraction-free: every vector is scaled to a primitive integer vector on
    entry.  A hit p of a stored row r (pivot entry a) is cancelled by
    v <- (a/g)*v - (c/g)*r with c = v[p] and g = gcd(a, c), hits of least
    key first; a row's other keys sort after its pivot, so cancelling p only
    brings in keys after p.  A nonzero residual is divided by its content
    and stored under its least key."""
    echelon: dict = {}  # pivot key -> primitive int row
    for vec in rows:
        v = _primitive(vec)
        heap = [k for k in v if k in echelon]
        heapify(heap)
        while heap:
            p = heappop(heap)
            c = v.get(p)
            if c is None:
                continue  # cancelled since it was queued
            row = echelon[p]
            a = row[p]
            g = gcd(a, c)
            a, c = a // g, c // g
            if a != 1:
                v = {k: a * x for k, x in v.items()}
            for k, x in row.items():
                nv = v.get(k, 0) - c * x
                if nv:
                    if k not in v and k in echelon:
                        heappush(heap, k)
                    v[k] = nv
                else:
                    del v[k]
        if v:
            content = gcd(*v.values())
            echelon[min(v)] = {k: x // content for k, x in v.items()}
    return set(echelon)
