"""Exact sparse multivariate polynomials over the rationals.

Three variable families share one ambient ring, fixed by an integer n:

    x(i)      coordinates, 1 <= i <= n
    t(i,j,k)  deformation parameters, 1 <= i,j,k <= n; t(i,j,k) and t(j,i,k)
              name the same variable, stored with i <= j
    s(i,j,k)  structure constants of a based algebra, 0 <= i,j,k <= n, with
              no identification between s(i,j,k) and s(j,i,k)

A variable is a plain tuple ``(kind, *indices)`` with kinds ordered
X < T < S, so tuple comparison realises the fixed variable order

    x(1) < ... < x(n) < t(1,1,1) < ... < t(n,n,n) < s(0,0,0) < ... < s(n,n,n)

A monomial is a tuple of ``(variable, exponent)`` pairs, sorted by variable,
with every exponent positive.  A polynomial maps monomials to nonzero
rationals, each held in its one exact form (``exact``): an ``int`` when it is
integral, a ``Fraction`` otherwise.  Most coefficients in this package are
integers, and int arithmetic is exact and far cheaper.  All arithmetic is
exact and results stay canonical (no zero coefficients, no zero exponents,
no ``Fraction`` with denominator 1), so structural equality is mathematical
equality.  ``Fraction(k) == k`` and ``hash(Fraction(k)) == hash(k)``, so
equality and hashing do not see the form, and neither does ``text``.

Monomials are compared graded-lexicographically: total degree first, then
lexicographically on exponent vectors over the fixed variable order.
``mono_sort_key`` sorts monomials in *descending* order; it is used both for
printing and for pivot selection in the exact linear algebra.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterator, Mapping, Union

X_KIND, T_KIND, S_KIND = 0, 1, 2
_KIND_NAMES = {X_KIND: "x", T_KIND: "t", S_KIND: "s"}

VarId = tuple
Monomial = tuple
Scalar = Union[int, Fraction]

GRADINGS = ("x", "t", "s", "total")


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


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Merge two sorted exponent tuples."""
    if not a:
        return b
    if not b:
        return a
    out = []
    ia = ib = 0
    while ia < len(a) and ib < len(b):
        va, ea = a[ia]
        vb, eb = b[ib]
        if va == vb:
            out.append((va, ea + eb))
            ia += 1
            ib += 1
        elif va < vb:
            out.append(a[ia])
            ia += 1
        else:
            out.append(b[ib])
            ib += 1
    out.extend(a[ia:])
    out.extend(b[ib:])
    return tuple(out)


def mono_degree(m: Monomial, grading: str = "total") -> int:
    """Degree of a monomial in the given grading.

    "total" counts every exponent, "x"/"t"/"s" those of that family only.
    """
    if grading == "total":
        return sum(e for _, e in m)
    kind = {"x": X_KIND, "t": T_KIND, "s": S_KIND}[grading]
    return sum(e for v, e in m if v[0] == kind)


def mono_sort_key(m: Monomial):
    """Sort key putting monomials in descending graded-lex order."""
    return (-sum(e for _, e in m), tuple((v, -e) for v, e in m))


def mono_multidegree(m: Monomial, n: int) -> tuple:
    """Multidegree under the diagonal torus scaling of the coordinates.

    x(i) has weight e_i; t(i,j,k) and s(i,j,k) scale like a structure
    constant of the multiplication x_i * x_j -> x_k, weight e_i + e_j - e_k
    (index 0 contributes nothing).  Every construction in this package is
    homogeneous for this grading, which lets the linear algebra split into
    small independent blocks.
    """
    w = [0] * n
    for v, e in m:
        if v[0] == X_KIND:
            w[v[1] - 1] += e
        else:
            _, i, j, k = v
            if i:
                w[i - 1] += e
            if j:
                w[j - 1] += e
            if k:
                w[k - 1] -= e
    return tuple(w)


def var_text(v: VarId) -> str:
    return "%s(%s)" % (_KIND_NAMES[v[0]], ",".join(str(i) for i in v[1:]))


def var_cas_text(v: VarId) -> str:
    return "_".join([_KIND_NAMES[v[0]]] + [str(i) for i in v[1:]])


def mono_text(m: Monomial, cas: bool = False) -> str:
    render = var_cas_text if cas else var_text
    return "*".join(
        render(v) + ("^%d" % e if e > 1 else "") for v, e in m
    )


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
            return Poly(self.n, {(): c} if c else {})
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
            return Poly(self.n, {(): 1})
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
        return not self._terms or self._terms.keys() == {()}

    def constant_value(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if not self.is_constant:
            raise ValueError(f"not a constant polynomial: {self}")
        return Fraction(self._terms[()])

    def terms(self) -> Iterator[tuple]:
        """Iterate (monomial, coefficient) in descending monomial order."""
        for m in sorted(self._terms, key=mono_sort_key):
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
        return max(mono_degree(m, grading) for m in self._terms)

    def is_homogeneous(self, grading: str = "total") -> bool:
        degs = {mono_degree(m, grading) for m in self._terms}
        return len(degs) <= 1

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
        unassigned variables remain symbolic.
        """
        out = Poly(self.n, {})
        for mono, coeff in self._terms.items():
            fixed = []
            num = coeff
            poly_factors = []
            for v, e in mono:
                if v in assignment:
                    val = assignment[v]
                    if isinstance(val, Poly):
                        if val.n != self.n:
                            raise UniverseMismatchError(
                                "substitution value over different ambient n"
                            )
                        poly_factors.append(val**e)
                    else:
                        num *= Fraction(val) ** e
                else:
                    fixed.append((v, e))
            if not num:
                continue
            term = Poly(self.n, {tuple(fixed): exact(num)})
            for f in poly_factors:
                term = term * f
            out = out + term
        return out

    def evaluate(self, assignment: Mapping[VarId, object]):
        """Substitute; collapse to a Fraction when the result is constant."""
        r = self.substitute(assignment)
        return r.constant_value() if r.is_constant else r

    def derivative(self, v: VarId) -> "Poly":
        out = {}
        for mono, coeff in self._terms.items():
            for idx, (var, e) in enumerate(mono):
                if var == v:
                    rest = mono[:idx] + ((var, e - 1),) * (e > 1) + mono[idx + 1:]
                    out[rest] = exact(coeff * e)
                    break
        return Poly(self.n, out)

    def split_by_x(self) -> dict:
        """Group terms by their x-part: {x-monomial: coefficient Poly}."""
        buckets: dict = {}
        for mono, c in self._terms.items():
            xs = tuple(p for p in mono if p[0][0] == X_KIND)
            rest = tuple(p for p in mono if p[0][0] != X_KIND)
            buckets.setdefault(xs, {})[rest] = c
        return {xs: Poly(self.n, part) for xs, part in buckets.items()}

    # -- rendering -----------------------------------------------------------

    def text(self, cas: bool = False) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for idx, (m, c) in enumerate(self.terms()):
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            body = mono_text(m, cas=cas)
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
    """Ambient ring context: fixes n, validates indices, builds variables."""

    _cache: dict = {}

    def __init__(self, n: int):
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"ambient n must be a positive integer, got {n!r}")
        self.n = n

    @classmethod
    def get(cls, n: int) -> "PolyRing":
        ring = cls._cache.get(n)
        if ring is None:
            ring = cls._cache[n] = cls(n)
        return ring

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
        return Poly(self.n, {(): 1})

    def const(self, c) -> Poly:
        c = exact(Fraction(c))
        return Poly(self.n, {(): c} if c else {})

    def var_poly(self, v: VarId) -> Poly:
        return Poly(self.n, {((v, 1),): 1})

    def x(self, i: int) -> Poly:
        return self.var_poly(self.x_var(i))

    def t(self, i: int, j: int, k: int) -> Poly:
        return self.var_poly(self.t_var(i, j, k))

    def s(self, i: int, j: int, k: int) -> Poly:
        return self.var_poly(self.s_var(i, j, k))

    # -- variable enumerations (fixed order) ----------------------------------

    def t_variables(self) -> list:
        n = self.n
        return [
            (T_KIND, i, j, k)
            for i in range(1, n + 1)
            for j in range(i, n + 1)
            for k in range(1, n + 1)
        ]

    def s_variables(self) -> list:
        n = self.n
        return [
            (S_KIND, i, j, k)
            for i in range(n + 1)
            for j in range(n + 1)
            for k in range(n + 1)
        ]

    def __repr__(self):
        return f"PolyRing(n={self.n})"
