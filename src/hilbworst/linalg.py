"""Sparse exact linear algebra over the rationals, eliminated in integers.

Vectors are dicts mapping orderable keys to rationals (``int`` or
``Fraction``; zero values are ignored), and pivots are taken least key
first, in the keys' own order.  Every vector enters scaled to integers, and
one fraction-free loop, ``_eliminate``, cancels its entries on stored
pivots, so every value held in a span is an ``int``.

``EchelonSpan`` keeps, under each pivot key, a primitive integer row with a
positive pivot entry and that row's integer combination of the inserted
vectors.  Reducing a query yields either a zero residual with an explicit
certificate (the query as a rational combination of the inputs) or a
nonzero residual, which is a proof of non-membership.  Both are returned as
``Fraction``s, and both are unique: a span element that is zero on every
pivot is zero, and the inserted vectors are independent.  So they do not
depend on how the stored rows are scaled.

``pivot_keys`` runs the same loop without combinations, for the one
question that needs no certificate: which keys lead the rows of an echelon
basis.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm


def _integral(vec: dict) -> tuple:
    """(v, d): the nonzero values of a rational vector times the least common
    denominator d of its values, as ints."""
    if all(type(x) is int for x in vec.values()):
        return {k: x for k, x in vec.items() if x}, 1
    d = lcm(*(x.denominator for x in vec.values()))
    return {k: x.numerator * (d // x.denominator) for k, x in vec.items() if x}, d


def _divided(vec: dict, c: int) -> dict:
    """vec / c for a c that divides every value (vec itself when c is 1)."""
    return vec if c == 1 else {k: x // c for k, x in vec.items()}


def _eliminate(v: dict, rows: dict, combos, used) -> int:
    """Cancel, in place, every value of the int vector v on a pivot key of
    ``rows``, and return the factor m by which the input was scaled.

    A hit c = v[p] on the row r with pivot entry a = r[p] is cancelled by
    v <- (a/g)*v - (c/g)*r with g = gcd(a, c) (Bareiss, Math. Comp. 22,
    1968), hits of least key first; a row's other keys sort after its pivot,
    so cancelling p only brings in keys after p.  The same step takes
    ``used`` along against ``combos[p]``, the row as a combination of the
    inputs, unless ``used`` is None.  At the end
    m*input = v - sum(used[tag]*inserted[tag]).
    """
    m = 1
    heap = [k for k in v if k in rows]
    heapify(heap)
    while heap:
        p = heappop(heap)
        c = v.get(p)
        if c is None:
            continue  # cancelled since it was queued
        row = rows[p]
        a = row[p]
        if a != 1:
            g = gcd(a, c)
            a, c = a // g, c // g
            if a != 1:
                m *= a
                for k in v:
                    v[k] *= a
                if used:
                    for t in used:
                        used[t] *= a
        for k, x in row.items():
            nv = v.get(k, 0) - c * x
            if nv:
                if k not in v and k in rows:
                    heappush(heap, k)
                v[k] = nv
            else:
                del v[k]
        if used is not None:
            for t, x in combos[p].items():
                nu = used.get(t, 0) - c * x
                if nu:
                    used[t] = nu
                else:
                    del used[t]
    return m


class EchelonSpan:
    """Incremental row echelon basis of sparse exact vectors, each row with
    its combination of the inserted vectors."""

    def __init__(self):
        self._rows: dict = {}  # pivot key -> primitive int row, pivot entry > 0
        self._combos: dict = {}  # pivot key -> {tag: int}, the row's combination

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivots(self):
        return self._rows.keys()

    def reduce(self, vec: dict):
        """Return (residual, used) with vec = sum(used[tag]*input) + residual,
        every value a ``Fraction``."""
        v, d = _integral(vec)
        used: dict = {}
        m = d * _eliminate(v, self._rows, self._combos, used)
        residual = {k: Fraction(x, m) for k, x in v.items()}
        return residual, {tag: Fraction(-x, m) for tag, x in used.items()}

    def insert(self, vec: dict, tag=None) -> bool:
        """Add a vector to the span; False if it was already contained.  A
        tag inserted before names the sum of its vectors."""
        v, d = _integral(vec)
        used: dict = {}
        m = d * _eliminate(v, self._rows, self._combos, used)
        if not v:
            return False
        # v = m*vec + sum(used[tag]*inserted[tag])
        c = used.get(tag, 0) + m
        if c:
            used[tag] = c
        else:
            del used[tag]
        p = min(v)
        content = gcd(*v.values(), *used.values())
        if v[p] < 0:
            content = -content
        self._rows[p] = _divided(v, content)
        self._combos[p] = _divided(used, content)
        return True


def pivot_keys(rows) -> set:
    """The pivot keys of the row space of sparse rational vectors: the least
    key of each row of an echelon basis.

    Each vector is scaled to a primitive integer vector on entry, which
    keeps the numbers of the elimination small, and reduced by
    ``_eliminate``; a nonzero residual is divided by its content and stored
    under its least key."""
    echelon: dict = {}  # pivot key -> primitive int row, pivot entry > 0
    for vec in rows:
        v, _ = _integral(vec)
        if not v:
            continue
        v = _divided(v, gcd(*v.values()))
        _eliminate(v, echelon, None, None)
        if v:
            p = min(v)
            content = gcd(*v.values())
            echelon[p] = _divided(v, content if v[p] > 0 else -content)
    return set(echelon)
