"""Exact sparse multivariate polynomials over the rationals.

Three variable families share one ambient ring, fixed by an integer n:

    x(i)      coordinates, 1 <= i <= n
    t(i,j,k)  deformation parameters, 1 <= i,j,k <= n; t(i,j,k) and t(j,i,k)
              name the same variable, stored with i <= j
    s(i,j,k)  structure constants of a based algebra, 0 <= i,j,k <= n, with
              no identification between s(i,j,k) and s(j,i,k)

A variable is a plain tuple ``(kind, *indices)`` with kinds ordered
X < T < S.  ``PolyRing.variables`` lists the variables of one n in the fixed
order

    x(1) < ... < x(n) < t(1,1,1) < ... < t(n,n,n) < s(0,0,0) < ... < s(n,n,n)

and a variable's index in that list is its position (``PolyRing.position``).
The positions of each family are consecutive (``PolyRing.bounds``).

A monomial of degree d is the flat tuple (-d, p_1, ..., p_d) of the sorted
positions of its variables, each repeated by its exponent; the monomial 1 is
``ONE = (0,)``.  A polynomial maps monomials to nonzero rationals, each held
in its one exact form (``exact``): an ``int`` when it is integral, a
``Fraction`` otherwise.  Most coefficients in this package are integers, and
int arithmetic is exact and far cheaper.  All arithmetic is exact and
results stay canonical (no zero coefficients, no ``Fraction`` with
denominator 1), so structural equality is mathematical equality.
``Fraction(k) == k`` and ``hash(Fraction(k)) == hash(k)``, so equality and
hashing do not see the form, and neither does ``text``.

Monomials are compared graded-lexicographically: total degree first, then
lexicographically on exponent vectors over the fixed variable order.  The
tuples' own order is that order, descending: higher degree first, then,
within a degree, the one whose first differing position is smaller, which is
the one with the earlier variable or the higher exponent of the same
variable.  So ``sorted`` puts monomials in printing order with no key, and
the exact linear algebra, which takes pivots least key first, takes them in
graded-lex order.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from itertools import groupby, product
from math import lcm
from typing import Iterator, Mapping, Union

X_KIND, T_KIND, S_KIND = 0, 1, 2
_KIND_NAMES = {X_KIND: "x", T_KIND: "t", S_KIND: "s"}

VarId = tuple
Monomial = tuple
Scalar = Union[int, Fraction]

GRADINGS = ("x", "t", "s", "total")

ONE: Monomial = (0,)


class UniverseMismatchError(ValueError):
    """Combination of polynomials over incompatible ambient rings."""


def exact(x):
    """A rational as an ``int`` when it is integral, else as a ``Fraction``:
    the form of every coefficient a ``Poly`` stores."""
    return x if type(x) is int else x.numerator if x.denominator == 1 else x


def _numerators(terms: dict) -> tuple:
    """(numerators, d): the coefficients times their least common
    denominator d, as ints (``terms`` itself when d is 1)."""
    d = 1
    for c in terms.values():
        if type(c) is not int:
            d = lcm(d, c.denominator)
    if d == 1:
        return terms, 1
    return {m: c.numerator * (d // c.denominator) for m, c in terms.items()}, d


def sum_products(n: int, items) -> "Poly":
    """The sum of c * a * b over the (c, a, b) triples of ``items``: c a
    rational, a and b ``Poly``s over n.

    Each product goes, as integer numerators, into the bucket of its common
    denominator (c's times those of a's and b's coefficients, from
    ``_numerators``); the buckets are merged over the lcm L of their
    denominators at the end, with one ``exact(Fraction(v, L))`` per output
    term.  So the sum runs in ints, copies no partial sum and makes no
    ``Fraction`` per product term."""
    buckets: dict = {}
    for c, a, b in items:
        if not c:
            continue
        if a.n != n or b.n != n:
            raise UniverseMismatchError(f"ambient n mismatch: {a.n}, {b.n} vs {n}")
        ta, da = _numerators(a._terms)
        tb, db = _numerators(b._terms)
        d = c.denominator * da * db
        out = buckets.get(d)
        if out is None:
            out = buckets[d] = {}
        c = c.numerator
        get = out.get
        for m1, c1 in ta.items():
            c1 *= c
            for m2, c2 in tb.items():
                # a degree-0 m2 is ONE, as in every sum (b = 1)
                m = mono_mul(m1, m2) if m2[0] else m1
                out[m] = get(m, 0) + c1 * c2
    den = lcm(*buckets)
    total = buckets.pop(den, {})  # the other buckets merge into the lcm's
    for d, out in buckets.items():
        scale = den // d
        for m, v in out.items():
            total[m] = total.get(m, 0) + v * scale
    if den == 1:
        return Poly(n, {m: v for m, v in total.items() if v})
    return Poly(n, {m: exact(Fraction(v, den)) for m, v in total.items() if v})


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Merge the positions of two monomials."""
    return (a[0] + b[0], *sorted(a[1:] + b[1:]))


def mono_degree(m: Monomial, n: int, grading: str = "total") -> int:
    """Degree of a monomial in the given grading.

    "total" counts every variable, "x"/"t"/"s" those of that family only:
    the positions inside its bounds.
    """
    if grading == "total":
        return -m[0]
    lo, hi = PolyRing.get(n).bounds[grading]
    return bisect_left(m, hi, 1) - bisect_left(m, lo, 1)


def mono_multidegree(m: Monomial, n: int) -> tuple:
    """Multidegree under the diagonal torus scaling of the coordinates.

    x(i) has weight e_i; t(i,j,k) and s(i,j,k) scale like a structure
    constant of the multiplication x_i * x_j -> x_k, weight e_i + e_j - e_k
    (index 0 contributes nothing).  Every construction in this package is
    homogeneous for this grading, which lets the linear algebra split into
    small independent blocks.
    """
    variables = PolyRing.get(n).variables
    w = [0] * n
    for p in m[1:]:
        v = variables[p]
        if v[0] == X_KIND:
            w[v[1] - 1] += 1
        else:
            _, i, j, k = v
            if i:
                w[i - 1] += 1
            if j:
                w[j - 1] += 1
            if k:
                w[k - 1] -= 1
    return tuple(w)


def var_text(v: VarId) -> str:
    return "%s(%s)" % (_KIND_NAMES[v[0]], ",".join(str(i) for i in v[1:]))


def var_cas_text(v: VarId) -> str:
    return "_".join([_KIND_NAMES[v[0]]] + [str(i) for i in v[1:]])


def mono_text(m: Monomial, n: int, cas: bool = False) -> str:
    names = PolyRing.get(n).names[cas]
    pieces = []
    for p, run in groupby(m[1:]):
        e = len(list(run))
        pieces.append(names[p] + ("^%d" % e if e > 1 else ""))
    return "*".join(pieces)


class Poly:
    """Immutable sparse polynomial with exact rational coefficients, each an
    ``int`` when it is integral and a ``Fraction`` otherwise (``exact``).

    The constructor stores ``terms`` as given; every operation below returns
    its coefficients in that form."""

    __slots__ = ("n", "_terms", "_hash")

    def __init__(self, n: int, terms: dict):
        self.n = n
        self._terms = terms
        self._hash = None

    # -- construction helpers ------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.n != self.n:
                raise UniverseMismatchError(
                    f"ambient n mismatch: {self.n} vs {other.n}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            c = exact(other)
            return Poly(self.n, {ONE: c} if c else {})
        return NotImplemented

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for m, c in other._terms.items():
            nc = out.get(m, 0) + c
            if nc:
                out[m] = nc if type(nc) is int else exact(nc)
            else:
                out.pop(m, None)
        return Poly(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.n, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = exact(other)
            if not c:
                return Poly(self.n, {})
            return Poly(self.n, {m: exact(v * c) for m, v in self._terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        # multiply the integer numerators over each side's common
        # denominator, and divide once per product term
        a, da = _numerators(a)
        b, db = _numerators(b)
        out: dict = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = mono_mul(m1, m2)
                nc = out.get(m, 0) + c1 * c2
                if nc:
                    out[m] = nc
                else:
                    del out[m]
        den = da * db
        if den != 1:
            out = {m: exact(Fraction(c, den)) for m, c in out.items()}
        return Poly(self.n, out)

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if not isinstance(exp, int) or exp < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if not exp:
            return Poly(self.n, {ONE: 1})
        # binary powering from the leading bit, which is the base itself
        result = self
        for bit in bin(exp)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, tuple(sorted(self._terms.items()))))
        return self._hash

    def __bool__(self):
        return bool(self._terms)

    # -- inspection ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return not self._terms or self._terms.keys() == {ONE}

    def constant_value(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if not self.is_constant:
            raise ValueError(f"not a constant polynomial: {self}")
        return Fraction(self._terms[ONE])

    def terms(self) -> Iterator[tuple]:
        """Iterate (monomial, coefficient) in descending monomial order."""
        for m in sorted(self._terms):
            yield m, self._terms[m]

    def terms_dict(self) -> dict:
        """Copy of the underlying monomial -> coefficient map."""
        return dict(self._terms)

    def degree(self, grading: str = "total") -> int:
        """Max degree over the terms; zero polynomial has degree 0."""
        if grading not in GRADINGS:
            raise ValueError(f"unknown grading {grading!r}")
        if not self._terms:
            return 0
        return max(mono_degree(m, self.n, grading) for m in self._terms)

    def multidegree(self) -> tuple:
        """Common torus multidegree; raises if not multihomogeneous."""
        degs = {mono_multidegree(m, self.n) for m in self._terms}
        if len(degs) > 1:
            raise ValueError("polynomial is not multihomogeneous")
        return degs.pop() if degs else (0,) * self.n

    # -- substitution and calculus -------------------------------------------

    def substitute(self, assignment: Mapping[VarId, object]) -> "Poly":
        """Exact (possibly partial) substitution of variables.

        Values may be Fractions, ints, or Polys over the same ambient n;
        unassigned variables remain symbolic.  Each term is one triple of
        ``sum_products``: its rational factor, then its other factors (its
        ``Poly`` values, then the monomial of its unassigned variables) as a
        pair, all but the last multiplied together and the last, or 1.
        """
        n = self.n
        variables = PolyRing.get(n).variables
        one = Poly(n, {ONE: 1})
        items = []
        for mono, num in self._terms.items():
            fixed = []
            values = []
            for p in mono[1:]:
                val = assignment.get(variables[p])
                if val is None:
                    fixed.append(p)
                elif isinstance(val, Poly):
                    if val.n != n:
                        raise UniverseMismatchError(
                            "substitution value over different ambient n"
                        )
                    values.append(val)
                else:
                    num *= val if type(val) is int else Fraction(val)
            if not num:
                continue
            if fixed or not values:
                values.append(Poly(n, {(-len(fixed), *fixed): 1}))
            a = values[0]
            for val in values[1:-1]:
                a = a * val
            items.append((num, a, values[-1] if len(values) > 1 else one))
        return sum_products(n, items)

    def renamed(self, image: Mapping[int, int], constants=None) -> "Poly":
        """The substitution that renames variables: each variable at a
        position q of ``image`` becomes the one at position image[q], each
        at a position of ``constants`` the int constants[q], and the others
        stay.  Each term is one monomial times its coefficient, so the terms
        are summed per monomial, as ``substitute`` would sum them."""
        constants = constants or {}
        out: dict = {}
        for mono, c in self._terms.items():
            kept = []
            for p in mono[1:]:
                q = image.get(p)
                if q is not None:
                    kept.append(q)
                elif p in constants:
                    c *= constants[p]
                else:
                    kept.append(p)
            if not c:
                continue
            m = (-len(kept), *sorted(kept))
            total = out.get(m, 0) + c
            if total:
                out[m] = total if type(total) is int else exact(total)
            else:
                del out[m]
        return Poly(self.n, out)

    def evaluate(self, assignment: Mapping[VarId, object]):
        """Substitute; collapse to a Fraction when the result is constant."""
        r = self.substitute(assignment)
        return r.constant_value() if r.is_constant else r

    def derivative(self, v: VarId) -> "Poly":
        p = PolyRing.get(self.n).position[v]
        out = {}
        for mono, coeff in self._terms.items():
            e = mono[1:].count(p)
            if e:
                i = mono.index(p, 1)
                out[(mono[0] + 1, *mono[1:i], *mono[i + 1 :])] = exact(coeff * e)
        return Poly(self.n, out)

    def split_by_x(self) -> dict:
        """Group terms by their x-part: {x-monomial: coefficient Poly}.  The
        x-positions come first in a monomial."""
        xend = PolyRing.get(self.n).bounds["x"][1]
        buckets: dict = {}
        for mono, c in self._terms.items():
            k = bisect_left(mono, xend, 1)
            xs = (1 - k, *mono[1:k])
            buckets.setdefault(xs, {})[(mono[0] + k - 1, *mono[k:])] = c
        return {xs: Poly(self.n, part) for xs, part in buckets.items()}

    # -- rendering -----------------------------------------------------------

    def text(self, cas: bool = False) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for idx, (m, c) in enumerate(self.terms()):
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            body = mono_text(m, self.n, cas=cas)
            if not body:
                piece = str(mag)
            elif mag == 1:
                piece = body
            else:
                piece = f"{mag}*{body}"
            if idx == 0:
                pieces.append(piece if sign == "+" else "-" + piece)
            else:
                pieces.append(f" {sign} {piece}")
        return "".join(pieces)

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"Poly[n={self.n}]({self.text()})"


class PolyRing:
    """Ambient ring context: fixes n, validates indices, builds variables,
    and holds the layout of the monomials: every variable at its position
    (``variables``, built on first use, and its inverse ``position``), and
    per family the bounds lo <= position < hi (``bounds``)."""

    _cache: dict = {}

    def __init__(self, n: int):
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"ambient n must be a positive integer, got {n!r}")
        self.n = n
        t_end = n + n * n * (n + 1) // 2
        self.bounds = {
            "x": (0, n),
            "t": (n, t_end),
            "s": (t_end, t_end + (n + 1) ** 3),
        }

    @classmethod
    def get(cls, n: int) -> "PolyRing":
        ring = cls._cache.get(n)
        if ring is None:
            ring = cls._cache[n] = cls(n)
        return ring

    # -- the monomial layout ---------------------------------------------------

    @cached_property
    def variables(self) -> tuple:
        """The x-, t- and s-variables in their enumeration order."""
        n = self.n
        r = range(1, n + 1)
        return (
            tuple((X_KIND, i) for i in r)
            + tuple((T_KIND, i, j, k) for i in r for j in range(i, n + 1) for k in r)
            + tuple((S_KIND, *ijk) for ijk in product(range(n + 1), repeat=3))
        )

    @cached_property
    def position(self) -> dict:
        return {v: p for p, v in enumerate(self.variables)}

    @cached_property
    def names(self) -> tuple:
        """The variables' names by position: plain (``var_text``) at index 0
        (False), CAS (``var_cas_text``) at index 1 (True)."""
        return (
            tuple(var_text(v) for v in self.variables),
            tuple(var_cas_text(v) for v in self.variables),
        )

    def var_mono(self, v: VarId) -> Monomial:
        """The monomial of one variable."""
        return (-1, self.position[v])

    # -- variable identifiers ------------------------------------------------

    def x_var(self, i: int) -> VarId:
        if not 1 <= i <= self.n:
            raise ValueError(f"x index {i} out of range 1..{self.n}")
        return (X_KIND, i)

    def t_var(self, i: int, j: int, k: int) -> VarId:
        n = self.n
        if not (1 <= i <= n and 1 <= j <= n and 1 <= k <= n):
            raise ValueError(f"t indices ({i},{j},{k}) out of range 1..{n}")
        if i > j:
            i, j = j, i
        return (T_KIND, i, j, k)

    def s_var(self, i: int, j: int, k: int) -> VarId:
        n = self.n
        if not (0 <= i <= n and 0 <= j <= n and 0 <= k <= n):
            raise ValueError(f"s indices ({i},{j},{k}) out of range 0..{n}")
        return (S_KIND, i, j, k)

    # -- polynomial constructors ----------------------------------------------

    def zero(self) -> Poly:
        return Poly(self.n, {})

    def one(self) -> Poly:
        return Poly(self.n, {ONE: 1})

    def const(self, c) -> Poly:
        c = exact(Fraction(c))
        return Poly(self.n, {ONE: c} if c else {})

    def var_poly(self, v: VarId) -> Poly:
        return Poly(self.n, {self.var_mono(v): 1})

    def x(self, i: int) -> Poly:
        return self.var_poly(self.x_var(i))

    def t(self, i: int, j: int, k: int) -> Poly:
        return self.var_poly(self.t_var(i, j, k))

    def s(self, i: int, j: int, k: int) -> Poly:
        return self.var_poly(self.s_var(i, j, k))

    # -- variable enumerations (fixed order) ----------------------------------

    def t_variables(self) -> list:
        return list(self.variables[slice(*self.bounds["t"])])

    def s_variables(self) -> list:
        return list(self.variables[slice(*self.bounds["s"])])

    def __repr__(self):
        return f"PolyRing(n={self.n})"
