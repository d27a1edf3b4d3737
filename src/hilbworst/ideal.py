"""Local equations of the Hilbert scheme chart and exact ideal membership.

The deformation parameters t(i,j,k) carry a family of quadratic forms
(``obstruction_quadric``) that is antisymmetric in its middle index pair and
satisfies a cyclic three-term identity.  Two index-restricted families of
these quadrics generate the ideal cutting out the chart of the Hilbert
scheme of n+1 points around its most degenerate point; a second, equivalent
presentation swaps the roles of the first two lower indices in the
difference family.

Because the ideal is generated in t-degree 2 and every query made in this
package is homogeneous of t-degree at most 3, membership is decided by exact
linear algebra: degree-2 queries are reduced against the span of the
generators, degree-3 queries against the span of the products
(variable * generator) for the generators that are independent in degree 2
(the products of the others already lie in that span).  Both spans split
into small independent blocks under the torus multidegree, which keeps the
eliminations fast, and both track certificates so that every positive
answer comes with explicit rational (resp. linear-form) multipliers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product

from .linalg import EchelonSpan
from .poly import (
    T_KIND,
    Poly,
    PolyRing,
    mono_mul,
    mono_multidegree,
    mono_sort_key,
)

FLAVORS = ("hilbert", "miniversal", "based_algebra")


class UnsupportedDegreeError(ValueError):
    """Membership query outside the homogeneous degrees handled exactly."""


@lru_cache(maxsize=None)
def obstruction_quadric(n: int, i: int, j: int, k: int, l: int) -> Poly:
    """Quadratic form in the deformation parameters t(i,j,k) whose vanishing
    is the condition for lifting first-order deformations to second order.

    Antisymmetric in (j, k); the sum over the cyclic rotations of (i, j, k)
    vanishes identically.
    """
    ring = PolyRing.get(n)
    total = ring.zero()
    for lam in range(1, n + 1):
        total = total + ring.t(i, j, lam) * ring.t(k, lam, l)
        total = total - ring.t(i, k, lam) * ring.t(j, lam, l)
    return total


def cyclic_sum(n: int, i: int, j: int, k: int, l: int) -> Poly:
    """The symbolic sum over cyclic rotations of (i, j, k); contract: zero."""
    return (
        obstruction_quadric(n, i, j, k, l)
        + obstruction_quadric(n, j, k, i, l)
        + obstruction_quadric(n, k, i, j, l)
    )


def diagonal_sum(n: int, i: int, j: int) -> Poly:
    """Sum over lam of the quadrics with repeated trailing index lam.

    Symmetric in (i, j) as an exact polynomial identity; appears (divided by
    n-1) as the constant tail of the universal family generators.
    """
    ring = PolyRing.get(n)
    total = ring.zero()
    for lam in range(1, n + 1):
        total = total + obstruction_quadric(n, i, j, lam, lam)
    return total


@dataclass(frozen=True)
class IdealPresentation:
    """Ordered generator list with provenance labels, and the membership
    spans built from it (``span``)."""

    n: int
    flavor: str
    generators: tuple
    labels: tuple = ()
    # t-degree -> GradedSpan, built on first use and dropped with the
    # presentation; outside equality, hashing and repr
    _spans: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    # indices of the generators that ``span(2)`` found independent of the
    # earlier ones, in order; filled when that span is built
    _independent: list = field(
        default_factory=list, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {self.flavor!r}")

    def __len__(self):
        return len(self.generators)

    def span(self, d: int) -> GradedSpan:
        """Span of the products m*g in t-degree d, for every t-monomial m of
        degree d-2 and every generator g that is independent of the earlier
        ones in degree 2, inserted generator by generator in
        ``t_variables()`` order and tagged (m, generator index).

        A generator dependent in degree 2 is a combination of earlier ones,
        so each of its products already lies in the span of rows inserted
        before it: inserting it would change nothing."""
        span = self._spans.get(d)
        if span is None:
            _require_quadratic_presentation(self)
            if d == 2:
                indices = range(len(self.generators))
            else:
                self.span(2)
                indices = self._independent
            ring = PolyRing.get(self.n)
            # combinations come out sorted, so counting gives the monomial
            monos = [
                tuple(Counter(vs).items())
                for vs in combinations_with_replacement(ring.t_variables(), d - 2)
            ]
            span = GradedSpan(self.n)
            for idx in indices:
                terms = self.generators[idx].terms_dict().items()
                for m in monos:
                    gained = span.insert(
                        {mono_mul(m, gm): c for gm, c in terms}, (m, idx)
                    )
                    if gained and d == 2:
                        self._independent.append(idx)
            self._spans[d] = span
        return span

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "flavor": self.flavor,
            "generators": [g.text() for g in self.generators],
        }


def deduplicated(n: int, flavor: str, labeled) -> IdealPresentation:
    """Presentation of the (generator, label) pairs in order, dropping zeros
    and exact duplicates or negations of an earlier generator."""
    gens, labels, seen = [], [], set()
    for g, label in labeled:
        if g.is_zero or g in seen or -g in seen:
            continue
        seen.add(g)
        gens.append(g)
        labels.append(label)
    return IdealPresentation(n, flavor, tuple(gens), tuple(labels))


def set_diagonal_zero(p: Poly) -> Poly:
    """Substitute t(i,i,i) -> 0 for all i (miniversal restriction)."""
    ring = PolyRing.get(p.n)
    return p.substitute({ring.t_var(i, i, i): 0 for i in range(1, p.n + 1)})


def miniversal_restriction(pres: IdealPresentation) -> IdealPresentation:
    """The presentation with t(i,i,i) set to 0, deduplicated again."""
    labeled = zip(map(set_diagonal_zero, pres.generators), pres.labels)
    return deduplicated(pres.n, "miniversal", labeled)


@lru_cache(maxsize=None)
def _quadric_generators(n: int, swapped: bool) -> IdealPresentation:
    """Quadrics q(i,j,k|l) for j,k,l distinct, then the differences
    q(i,j,k|k) - q(a,b,l|l) for j != k, b != l, where (a, b) is (i, j), or
    (j, i) when swapped."""
    if n < 3:
        raise ValueError(f"ambient n must be >= 3, got {n}")
    labeled = []
    indices = list(product(range(1, n + 1), repeat=4))
    for i, j, k, l in indices:
        if j != k and k != l and j != l:
            labeled.append((obstruction_quadric(n, i, j, k, l), f"q({i},{j},{k}|{l})"))
    for i, j, k, l in indices:
        a, b = (j, i) if swapped else (i, j)
        if j != k and b != l:
            diff = obstruction_quadric(n, i, j, k, k) - obstruction_quadric(
                n, a, b, l, l
            )
            labeled.append((diff, f"q({i},{j},{k}|{k})-q({a},{b},{l}|{l})"))
    return deduplicated(n, "hilbert", labeled)


@lru_cache(maxsize=None)
def _miniversal_generators(n: int) -> IdealPresentation:
    return miniversal_restriction(_quadric_generators(n, False))


def ideal_generators(n: int, flavor: str = "hilbert") -> IdealPresentation:
    """The two index families of quadric generators, deduplicated in a fixed
    enumeration order; every call form returns the same object.

    flavor "hilbert": quadrics q(i,j,k|l) for j,k,l distinct, and differences
    q(i,j,k|k) - q(i,j,l|l) for j != k, j != l.  flavor "miniversal": the
    same generators with t(i,i,i) set to 0.
    """
    if flavor == "hilbert":
        return _quadric_generators(n, False)
    if flavor == "miniversal":
        return _miniversal_generators(n)
    raise ValueError(f"unsupported flavor {flavor!r}")


def alternate_generators(n: int) -> IdealPresentation:
    """Equivalent presentation with the difference family q(i,j,k|k) -
    q(j,i,l|l), j != k, i != l; spans the same degree-2 space."""
    return _quadric_generators(n, True)


# -- membership ----------------------------------------------------------------


class GradedSpan:
    """Tracked echelon spans split into blocks by torus multidegree, with
    pivots taken in descending graded-lex order.  Each block is homogeneous
    in t as well: the weight e_i + e_j - e_k of t(i,j,k) sums to 1, so the
    multidegree of a pure-t monomial fixes its t-degree, and an s-monomial
    has t-degree 0.

    Every inserted vector must lie in one block (rows are homogeneous); a
    query may mix blocks and is reduced block by block, with one combined
    certificate.
    """

    def __init__(self, n: int):
        self.n = n
        self.blocks: dict = {}  # block key -> EchelonSpan

    @property
    def rank(self) -> int:
        return sum(s.rank for s in self.blocks.values())

    def _split(self, vec: dict) -> dict:
        parts: dict = {}
        for m, c in vec.items():
            if c:
                parts.setdefault(mono_multidegree(m, self.n), {})[m] = c
        return parts

    def insert(self, vec: dict, tag) -> bool:
        """Add a vector to its block; False if it was already contained."""
        parts = self._split(vec)
        if not parts:
            return False
        if len(parts) != 1:
            raise ValueError("inserted vector spans several blocks")
        ((key, part),) = parts.items()
        span = self.blocks.get(key)
        if span is None:
            span = self.blocks[key] = EchelonSpan(track=True, keysort=mono_sort_key)
        return span.insert(part, tag)

    def reduce(self, vec: dict):
        """Return (residual, used) with vec = sum(used[tag]*input) + residual."""
        residual: dict = {}
        used: dict = {}
        for key, part in self._split(vec).items():
            span = self.blocks.get(key)
            if span is None:
                residual.update(part)
                continue
            r, u = span.reduce(part)
            residual.update(r)
            used.update(u)
        return residual, used


def _require_quadratic_presentation(pres: IdealPresentation):
    for g in pres.generators:
        if not (g.is_homogeneous("t") and g.degree("t") == 2 and not g.degree("s")):
            raise UnsupportedDegreeError(
                "membership requires a presentation generated by homogeneous "
                "quadrics in the deformation parameters"
            )


@dataclass
class Membership:
    """Outcome of an exact membership test.

    For members, ``multipliers`` maps generator index -> Poly multiplier
    (a constant for degree-2 queries, a linear form for degree-3 ones), so
    that query == sum(multipliers[i] * generators[i]).  For non-members,
    ``residual`` is the nonzero normal form against the span, which is the
    proof of failure of the linear system.
    """

    member: bool
    degree: int
    multipliers: dict = field(default_factory=dict)
    residual: Poly | None = None

    def verify(self, p: Poly, pres: IdealPresentation) -> bool:
        """A member whose multipliers give back p exactly; every check that
        rests on a certificate reports ok only if this holds."""
        if not self.member:
            return False
        acc: dict = {}  # sum of the products, term by term
        for idx, mult in self.multipliers.items():
            for m, c in (mult * pres.generators[idx]).terms_dict().items():
                total = acc.get(m, 0) + c
                if total:
                    acc[m] = total
                else:
                    del acc[m]
        return p.n == pres.n and acc == p.terms_dict()


def membership(p: Poly, pres: IdealPresentation) -> Membership:
    """Decide whether p lies in the ideal, with an explicit certificate.

    p must be homogeneous in the t-variables.  Degrees 0 and 1 are decided
    trivially (only 0 belongs); degree 2 is reduced against the generator
    span, degree 3 against the span of variable*generator products.  Other
    degrees raise UnsupportedDegreeError.
    """
    if p.n != pres.n:
        raise ValueError("ambient n mismatch between query and presentation")
    vec = p.terms_dict()
    degrees = set()  # t-degrees of the terms, read in one pass
    for m in vec:
        d = 0
        for v, e in m:
            if v[0] != T_KIND:
                raise UnsupportedDegreeError(
                    "membership queries must involve deformation parameters only"
                )
            d += e
        degrees.add(d)
    if not vec:
        return Membership(member=True, degree=0)
    if len(degrees) > 1:
        raise UnsupportedDegreeError("membership queries must be homogeneous")
    (d,) = degrees
    if d < 2:
        return Membership(member=False, degree=d, residual=p)
    if d > 3:
        raise UnsupportedDegreeError(f"membership not supported in t-degree {d}")
    residual, used = pres.span(d).reduce(vec)
    if residual:
        return Membership(member=False, degree=d, residual=Poly(p.n, residual))
    terms: dict = {}
    for (m, idx), c in used.items():
        terms.setdefault(idx, {})[m] = c
    mults = {idx: Poly(p.n, terms[idx]) for idx in sorted(terms)}
    return Membership(member=True, degree=d, multipliers=mults)


def normal_form(p: Poly, n: int, flavor: str = "hilbert") -> Poly:
    """Canonical representative of a homogeneous quadric modulo the ideal:
    the residual of its ``membership`` query, the reduction against the
    fixed echelon basis of the degree-2 span (zero for a member).  The
    query itself is checked by ``membership``."""
    if not p.is_zero and p.degree("t") != 2:
        raise UnsupportedDegreeError("normal form defined for quadrics only")
    residual = membership(p, ideal_generators(n, flavor)).residual
    return residual if residual is not None else PolyRing.get(n).zero()


def span_equal_degree2(a: IdealPresentation, b: IdealPresentation) -> bool:
    """Mutual containment of the degree-2 spans of two presentations: every
    generator of each side has a certificate in the other that passes
    ``Membership.verify``."""
    return all(
        membership(g, dst).verify(g, dst)
        for src, dst in ((a, b), (b, a))
        for g in src.generators
    )


def vanishes_at(pres: IdealPresentation, assignment: dict) -> bool:
    """Every generator evaluates to zero at a (t-variable -> rational)
    assignment; t-variables it leaves out are 0.  Stops at the first
    generator that does not vanish."""
    full = dict.fromkeys(PolyRing.get(pres.n).t_variables(), Fraction(0))
    full.update(assignment)
    return all(g.evaluate(full) == 0 for g in pres.generators)
