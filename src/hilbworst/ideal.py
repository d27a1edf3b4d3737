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
(the products of the others already lie in that span).  The degree-3
span a query reduces against is built on demand: the first query that
reaches a block builds every block of its S_n orbit, the blocks whose
multidegree is a permutation of its own, each exactly as the eager
``span(3)``, which stays as the reference, builds it.  A presentation
holds a chart ideal (flavor ``hilbert`` or ``miniversal``) and is checked
and split once, when it is built: it must consist of homogeneous
t-quadrics, and each generator is held as its rows, one per torus block,
keyed by the generator's own monomials.  The degree-2 span
inserts those rows, the degree-3 span forms its products from them and
``vanishes_at`` evaluates them; nothing re-checks or re-splits a generator
when it is used.  Both spans split into small independent blocks under the
torus multidegree, which keeps the eliminations fast, and both track
certificates so that every positive answer comes with explicit rational
(resp. linear-form) multipliers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import lcm

from .linalg import EchelonSpan
from .poly import ONE, Poly, PolyRing, exact, mono_mul, mono_multidegree

FLAVORS = ("hilbert", "miniversal")


class UnsupportedDegreeError(ValueError):
    """Membership query outside the homogeneous degrees handled exactly."""


@lru_cache(maxsize=None)
def obstruction_quadric(n: int, i: int, j: int, k: int, l: int) -> Poly:
    """Quadratic form in the deformation parameters t(i,j,k) whose vanishing
    is the condition for lifting first-order deformations to second order.

    Antisymmetric in (j, k); the sum over the cyclic rotations of (i, j, k)
    vanishes identically.

    It is the sum over lam of t(i,j,lam) t(k,lam,l) - t(i,k,lam) t(j,lam,l).
    Each product is one monomial, so the integer coefficients are summed per
    monomial, in the order and with the cancellations of the ``Poly`` sum.
    """
    ring = PolyRing.get(n)
    terms: dict = {}
    for lam in range(1, n + 1):
        for a, b, sign in (
            (ring.t_var(i, j, lam), ring.t_var(k, lam, l), 1),
            (ring.t_var(i, k, lam), ring.t_var(j, lam, l), -1),
        ):
            m = mono_mul(ring.var_mono(a), ring.var_mono(b))
            c = terms.get(m, 0) + sign
            if c:
                terms[m] = c
            else:
                del terms[m]
    return Poly(n, terms)


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
    # (t-degree, on demand) -> GradedSpan, built on first use and dropped
    # with the presentation; outside equality, hashing and repr
    _spans: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    # indices of the generators that ``span(2)`` found independent of the
    # earlier ones, in order; filled when that span is built
    _independent: list = field(
        default_factory=list, init=False, compare=False, repr=False
    )
    # per generator, its (block key, row) pairs, one per torus block its
    # terms lie in; filled when the presentation is built
    _rows: list = field(default_factory=list, init=False, compare=False, repr=False)

    def __post_init__(self):
        """Every generator is split here, once, into its rows by block
        (``_encode``), and checked in the same pass: it is a homogeneous
        quadric in the t-variables alone, which the degree and the first and
        last position of each monomial show."""
        if self.flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {self.flavor!r}")
        lo, hi = PolyRing.get(self.n).bounds["t"]
        for g in self.generators:
            terms = g.terms_dict()
            if any(m[0] != -2 or m[1] < lo or m[2] >= hi for m in terms):
                raise UnsupportedDegreeError(
                    f"a {self.flavor} generator is a homogeneous quadric in "
                    f"the deformation parameters; got {g.text()}"
                )
            self._rows.append(tuple(_encode(self.n, terms).items()))

    def __len__(self):
        return len(self.generators)

    def span(self, d: int, on_demand: bool = False) -> GradedSpan:
        """Span of the generators in t-degree d = 2, and of the products v*g
        in d = 3, for every t-variable v and every generator g that is
        independent of the earlier ones in degree 2; a row is tagged
        (monomial of its multiplier, generator index), the monomial ``ONE``
        in degree 2.  Other degrees raise UnsupportedDegreeError.

        ``span(3)`` inserts every product (``_insert_products``).  With
        ``on_demand``, degree 3 gives the span that ``membership`` reduces
        against: it starts empty, and the first query that reaches a block
        builds every block of that block's S_n orbit with the same routine,
        so each block it holds equals the one of ``span(3)``, row for row.
        Degree 2 is always built whole, since it decides which generators
        are independent.

        A generator dependent in degree 2 is a combination of earlier ones,
        so each of its products already lies in the span of rows inserted
        before it: inserting it would change nothing.

        The spans read the generators' rows as split when the presentation
        was built.  A refused build (a generator in several blocks) stores
        nothing."""
        demand = on_demand and d == 3
        span = self._spans.get((d, demand))
        if span is None:
            if d not in (2, 3):
                raise UnsupportedDegreeError(f"no span in t-degree {d}")
            span = GradedSpan(self.n, self._insert_products if demand else None)
            if d == 2:
                # a list, so that a refused insert leaves _independent empty
                found = [
                    i for i, r in enumerate(self._rows) if span.insert(r, (ONE, i))
                ]
                self._independent.extend(found)
            else:
                self.span(2)
                if not demand:
                    self._insert_products(span)
            self._spans[d, demand] = span
        return span

    def _insert_products(self, span: GradedSpan, keys=None) -> None:
        """Insert into ``span`` the products v*g whose block is in ``keys``
        (every product when ``keys`` is None): generator by generator, in
        the order of ``_independent``, and v in ``t_variables()`` order,
        tagged ((-1, position of v), generator index).  A product's
        monomial is the sorted positions of both factors, and its block is
        the sum of the factors' blocks."""
        weights = _weights(self.n)
        positions = range(*PolyRing.get(self.n).bounds["t"])
        for idx in self._independent:
            ((block, row),) = self._rows[idx]  # span(2) took it whole
            for pos in positions:
                key = block + weights[pos]
                if keys is None or key in keys:
                    prod = {
                        (-3, *sorted((pos, a, b))): c for (_, a, b), c in row.items()
                    }
                    span.insert(((key, prod),), ((-1, pos), idx))

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


def _packed(multidegree: tuple) -> int:
    """A multidegree as one int, component i in base-2^32 digit i; packing
    adds, and it is one-to-one while every component stays below 2^31 in
    size."""
    return sum(w << 32 * i for i, w in enumerate(multidegree))


def _orbit(key: int, n: int) -> set:
    """The keys of the blocks in the S_n orbit of a block: its multidegree,
    unpacked digit by digit (each component the residue of its digit
    between -2^31 and 2^31), permuted in every way and packed again."""
    multidegree = []
    for _ in range(n):
        w = (key + (1 << 31)) % (1 << 32) - (1 << 31)
        multidegree.append(w)
        key = (key - w) >> 32
    return {_packed(p) for p in set(permutations(multidegree))}


@lru_cache(maxsize=None)
def _weights(n: int) -> tuple:
    """The block key of each variable, by position."""
    count = len(PolyRing.get(n).variables)
    return tuple(_packed(mono_multidegree((-1, p), n)) for p in range(count))


def _encode(n: int, vec: dict) -> dict:
    """The nonzero terms of a vector by block key, the blocks in the order
    they first occur."""
    weights = _weights(n)
    parts: dict = {}
    for m, c in vec.items():
        if c:
            block = 0
            for p in m[1:]:
                block += weights[p]
            parts.setdefault(block, {})[m] = c
    return parts


class GradedSpan:
    """Tracked echelon spans split into blocks by torus multidegree, with
    pivots taken in descending graded-lex order.  Each block is homogeneous
    in t as well: the weight e_i + e_j - e_k of t(i,j,k) sums to 1, so the
    multidegree of a pure-t monomial fixes its t-degree, and an s-monomial
    has t-degree 0.

    Every inserted vector must lie in one block (rows are homogeneous); a
    query may mix blocks and is reduced block by block, with one combined
    certificate.  ``insert`` and ``reduce`` take vectors keyed by the
    monomials of ``Poly`` (``insert`` also the (block key, row) pairs of a
    split vector), and ``reduce`` returns its residual in the same keys.  A
    block's rows are keyed by those monomials too, whose own order is the
    descending graded-lex order, so the pivots are the ones that order takes,
    with no sort key.  A block key is the multidegree packed into one int
    (``_packed``), the sum of its variables' keys (``_weights``), so the
    block of a product is the sum of its factors' blocks.

    A span built on demand (``IdealPresentation.span(3, on_demand=True)``)
    holds a ``grow(span, keys)`` that inserts the rows of the blocks with
    those keys.  When ``reduce`` first reaches a block that no earlier
    query's orbit covered, it calls ``grow`` on the block's S_n orbit, the
    blocks whose multidegree is a permutation of its own; a block that no
    row reaches stays absent, and a query's part in it is residual.
    """

    def __init__(self, n: int, grow=None):
        self.n = n
        self.blocks: dict = {}  # block key -> EchelonSpan
        self._grow = grow
        self._reached: set = set()  # keys of the orbits grow was called on

    @property
    def rank(self) -> int:
        return sum(s.rank for s in self.blocks.values())

    def insert(self, vec, tag) -> bool:
        """Add a vector to its block; False if it was already contained.

        ``vec`` maps monomials to coefficients, or is a tuple of (block key,
        row) pairs, the form in which ``IdealPresentation`` holds its
        generators and forms its products."""
        parts = vec if type(vec) is tuple else tuple(_encode(self.n, vec).items())
        if not parts:
            return False
        if len(parts) != 1:
            raise ValueError("inserted vector spans several blocks")
        ((key, part),) = parts
        span = self.blocks.get(key)
        if span is None:
            span = self.blocks[key] = EchelonSpan()
        return span.insert(part, tag)

    def reduce(self, vec: dict):
        """Return (residual, used) with vec = sum(used[tag]*input) + residual."""
        residual: dict = {}
        used: dict = {}
        for key, part in _encode(self.n, vec).items():
            span = self.blocks.get(key)
            if span is None and self._grow and key not in self._reached:
                orbit = _orbit(key, self.n)
                self._grow(self, orbit)
                self._reached |= orbit
                span = self.blocks.get(key)
            if span is not None:
                part, u = span.reduce(part)
                used.update(u)
            residual.update(part)
        return residual, used


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
        rests on a membership certificate reports ok only if this holds."""
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
    span, degree 3 against the span of variable*generator products built on
    demand, whose blocks and so whose answers are those of ``span(3)``.
    Other degrees raise UnsupportedDegreeError.
    """
    if p.n != pres.n:
        raise ValueError("ambient n mismatch between query and presentation")
    vec = p.terms_dict()
    lo, hi = PolyRing.get(p.n).bounds["t"]
    degrees = set()  # t-degrees of the terms, read in one pass
    for m in vec:
        # positions are sorted, so the first and the last bound the rest
        if m[0] and (m[1] < lo or m[-1] >= hi):
            raise UnsupportedDegreeError(
                "membership queries must involve deformation parameters only"
            )
        degrees.add(-m[0])
    if not vec:
        return Membership(member=True, degree=0)
    if len(degrees) > 1:
        raise UnsupportedDegreeError("membership queries must be homogeneous")
    (d,) = degrees
    if d < 2:
        return Membership(member=False, degree=d, residual=p)
    if d > 3:
        raise UnsupportedDegreeError(f"membership not supported in t-degree {d}")
    residual, used = pres.span(d, on_demand=True).reduce(vec)
    if residual:
        residual = {m: exact(c) for m, c in residual.items()}
        return Membership(member=False, degree=d, residual=Poly(p.n, residual))
    terms: dict = {}
    for (m, idx), c in used.items():
        terms.setdefault(idx, {})[m] = exact(c)
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


def vanishes_at(pres: IdealPresentation, tvals: dict) -> bool:
    """Every generator evaluates to zero at a rational point; ``tvals`` maps
    (i, j, k) to a rational as in ``lifting.family_at``, a key (j, i, k)
    names t(i,j,k) as in ``PolyRing.t_var``, and t-variables it leaves out
    are 0.  Stops at the first generator that does not vanish.

    Exact: with D the lcm of the point's denominators, x = D*t is an
    integer point, indexed by variable position.  A generator's rows
    hold its coefficients c as stored, each under a monomial (-2, a, b), so
    sum c * x[a] * x[b] = D^2 * g(t): an exact rational (an int when the
    coefficients are), 0 exactly when g(t) is.  The rows are the ones
    split when the presentation was built.

    The test evaluates the generators only and calls neither the operator
    commutators of ``based.is_associative`` nor the fiber elimination of
    ``oracle.fiber_check``, so that the oracle's agreement of the three is
    evidence and not a consequence of shared code.

    Raises ValueError on an index outside 1..n.
    """
    ring = PolyRing.get(pres.n)
    position = ring.position
    point = {position[ring.t_var(*key)]: Fraction(val) for key, val in tvals.items()}
    scale = lcm(*(val.denominator for val in point.values()))
    x = [0] * ring.bounds["t"][1]
    for pos, val in point.items():
        x[pos] = val.numerator * (scale // val.denominator)
    for rows in pres._rows:
        total = 0
        for _, row in rows:
            for (_, a, b), c in row.items():
                total += c * x[a] * x[b]
        if total:
            return False
    return True
