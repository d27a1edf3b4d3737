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

