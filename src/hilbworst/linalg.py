"""Sparse exact linear algebra over the rationals.

Vectors are dicts mapping orderable keys to nonzero Fractions.  EchelonSpan
keeps one normalized row per pivot key and can optionally track, for every
inserted row, an exact expression in terms of the original input vectors;
reducing a query vector then yields either a zero residual together with an
explicit certificate (the query as a rational combination of the inputs) or
a nonzero residual, which is a proof of non-membership.
"""

from __future__ import annotations

from fractions import Fraction


class EchelonSpan:
    """Incremental row echelon basis of sparse exact vectors."""

    def __init__(self, track: bool = False, keysort=None):
        self._rows: dict = {}  # pivot key -> row (pivot coefficient 1)
        self._combos: dict = {}  # pivot key -> {tag: Fraction}
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
        v = {k: Fraction(c) for k, c in vec.items() if c}
        used: dict | None = {} if self._track else None
        while True:
            hits = [k for k in v if k in self._rows]
            if not hits:
                break
            p = min(hits, key=self._key)
            c = v.pop(p)
            for k, rc in self._rows[p].items():
                if k == p:
                    continue
                nv = v.get(k, 0) - c * rc
                if nv:
                    v[k] = nv
                else:
                    v.pop(k, None)
            if used is not None:
                for tag, cc in self._combos[p].items():
                    nv = used.get(tag, 0) + c * cc
                    if nv:
                        used[tag] = nv
                    else:
                        used.pop(tag, None)
        return v, used

    def insert(self, vec: dict, tag=None) -> bool:
        """Add a vector to the span; False if it was already contained."""
        residual, used = self.reduce(vec)
        if not residual:
            return False
        p = min(residual, key=self._key)
        c = residual[p]
        self._rows[p] = {k: v / c for k, v in residual.items()}
        if self._track:
            combo = {tag: Fraction(1)}
            for tg, uc in (used or {}).items():
                nv = combo.get(tg, 0) - uc
                if nv:
                    combo[tg] = nv
                else:
                    combo.pop(tg, None)
            self._combos[p] = {tg: v / c for tg, v in combo.items()}
        return True


def solve_dense(matrix: list, rhs: list):
    """Solve A X = B exactly for a square rational A and columns B.

    `matrix` is a list of rows, `rhs` a list of right-hand-side columns.
    Returns the list of solution columns, or None when A is singular.
    """
    m = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    cols = [[Fraction(x) for x in col] for col in rhs]
    for col in range(m):
        piv = next((r for r in range(col, m) if a[r][col]), None)
        if piv is None:
            return None
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            for c in cols:
                c[col], c[piv] = c[piv], c[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for c in cols:
            c[col] *= inv
        for r in range(m):
            if r == col or not a[r][col]:
                continue
            f = a[r][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
            for c in cols:
                c[r] -= f * c[col]
    return cols
