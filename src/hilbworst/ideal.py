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
(the products of the others already lie in that span), built block by
block as queries reach them (``GradedSpan``).  A presentation
holds a chart ideal (flavor ``hilbert`` or ``miniversal``), whose
generators are t-quadrics homogeneous for the torus multidegree: each lies
in exactly one torus block, which is why membership splits block by block.
The presentation decides that block once, when it is built, and refuses a
generator that has none or several; from then on a generator is one
(block key, row) pair, which the degree-2 span inserts, the degree-3 span
forms its products from and ``vanishes_at`` evaluates.  Both spans track
certificates: every positive answer comes with rational (resp. linear-form)
multipliers, which a check verifies and keeps in a ``Record``.

The chart ideals are invariant under S_n acting on the indices of
t(i,j,k) (``permuted``), so a certificate carries over to the permuted
query (``transported``).  ``orbit_memberships`` uses that to ask
``membership`` one query per S_n orbit of a family of cubics; a carried
certificate counts only once ``Membership.verify`` passes for its own
query.  Which generator σ sends a generator to, and with which sign, is
read from tables that ``deduplicated`` fills as it drops duplicates: the
signed index (each generator and its negation -> (index, sign)) and, for
the chart presentations, whose raw generators are named by index tuples,
the key table (every key -> (index, sign)), where σ acts on the key
instead of the polynomial.  ``scaled_certificate`` reads a query that is
a scalar multiple c·g of one generator from the signed index, as the
constant multiplier c on g; ``compare_spans``, the flatness x-coefficients
and the based projections ask it first and ``membership`` only for the
rest.  Those certificates, too, count only once they multiply back out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product, repeat
from math import gcd, lcm

from .linalg import EchelonSpan
from .poly import ONE, Poly, PolyRing, exact, mono_mul, mono_multidegree, sum_products

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


@lru_cache(maxsize=None)
def diagonal_sum(n: int, i: int, j: int) -> Poly:
    """Sum over lam of the quadrics with repeated trailing index lam.

    Symmetric in (i, j) as an exact polynomial identity; appears (divided by
    n-1) as the constant tail of the universal family generators, and as
    the factors of the cubic syzygies.
    """
    one = PolyRing.get(n).one()
    return sum_products(
        n, [(1, obstruction_quadric(n, i, j, lam, lam), one) for lam in range(1, n + 1)]
    )


@dataclass(frozen=True)
class IdealPresentation:
    """Ordered generator list with provenance labels, and the membership
    spans built from it (``span``).  Each generator is a nonzero t-quadric
    in one torus block, or the presentation is refused when built."""

    n: int
    flavor: str
    generators: tuple
    labels: tuple = ()
    # t-degree -> GradedSpan, built on first use and dropped with the
    # presentation; outside equality, hashing and repr
    _spans: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    # each generator and its negation -> (index, sign), filled by
    # ``deduplicated``, or on the first ``_signed_index`` call
    _signed: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    # the key of each generator, and every key -> (index, sign) of the
    # generator that the raw generator of that key is up to sign; filled by
    # ``deduplicated`` when it is given keys, empty otherwise
    _keys: list = field(default_factory=list, init=False, compare=False, repr=False)
    _aliases: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    # indices of the generators that ``span(2)`` found independent of the
    # earlier ones, in order; filled when that span is built
    _independent: list = field(
        default_factory=list, init=False, compare=False, repr=False
    )
    # per generator, its (block key, row) pair; filled when the
    # presentation is built
    _rows: list = field(default_factory=list, init=False, compare=False, repr=False)

    def __post_init__(self):
        """The only place a generator's block is decided.  Each generator is
        encoded once (``_encode``) and checked in the same pass: a quadric in
        the t-variables alone, which the degree and the first and last
        position of each monomial show, whose terms all lie in one torus
        block.  Anything else, a zero generator too, raises
        UnsupportedDegreeError."""
        if self.flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {self.flavor!r}")
        lo, hi = PolyRing.get(self.n).bounds["t"]
        for g in self.generators:
            terms = g.terms_dict()
            parts = _encode(self.n, terms)
            if len(parts) != 1 or any(
                m[0] != -2 or m[1] < lo or m[2] >= hi for m in terms
            ):
                raise UnsupportedDegreeError(
                    f"a {self.flavor} generator is a nonzero quadric in the "
                    f"deformation parameters, in one torus block; got {g.text()}"
                )
            self._rows.extend(parts.items())  # its one (block key, row) pair

    def __len__(self):
        return len(self.generators)

    def span(self, d: int) -> GradedSpan:
        """Span of the generators in t-degree d = 2, and of the products v*g
        in d = 3, for every t-variable v and every generator g that is
        independent of the earlier ones in degree 2; a row is tagged
        (monomial of its multiplier, generator index), the monomial ``ONE``
        in degree 2.  Other degrees raise UnsupportedDegreeError.

        Degree 2 is built whole, since it decides which generators are
        independent; degree 3 starts empty and grows its blocks with
        ``_insert_products`` as queries reach them.  A generator dependent
        in degree 2 is a combination of earlier ones, so each of its
        products already lies in the span of rows inserted before it:
        inserting it would change nothing.

        Both read each generator as the (block key, row) pair of its one
        torus block, as the presentation was built with it."""
        span = self._spans.get(d)
        if span is None:
            if d not in (2, 3):
                raise UnsupportedDegreeError(f"no span in t-degree {d}")
            span = GradedSpan(self.n, self._insert_products if d == 3 else None)
            if d == 2:
                for i, (key, row) in enumerate(self._rows):
                    if span.insert(key, row, (ONE, i)):
                        self._independent.append(i)
            else:
                self.span(2)  # decides the generators the products take
            self._spans[d] = span
        return span

    def _insert_products(self, span: GradedSpan, keys: set) -> None:
        """Insert into ``span`` the products v*g whose block is in ``keys``:
        generator by generator, in the order of ``_independent``, and v in
        ``t_variables()`` order, tagged ((-1, position of v), generator
        index).  A product's monomial is the sorted positions of both
        factors, and its block is the sum of the factors' blocks."""
        weights = _weights(self.n)
        positions = range(*PolyRing.get(self.n).bounds["t"])
        for idx in self._independent:
            block, row = self._rows[idx]
            for pos in positions:
                key = block + weights[pos]
                if key in keys:
                    prod = {
                        (-3, *sorted((pos, a, b))): c for (_, a, b), c in row.items()
                    }
                    span.insert(key, prod, ((-1, pos), idx))


def deduplicated(n: int, flavor: str, labeled, keys=None) -> IdealPresentation:
    """Presentation of the (generator, label) pairs in order, dropping zeros
    and exact duplicates or negations of an earlier generator.

    The dict that finds those, each kept generator and its negation ->
    (index, sign), is the presentation's signed index.  ``keys``, when
    given, names each pair, in order, by an index tuple: a family tag, then
    points of 1..n, so that σ in S_n acts on it as on the indices of the
    generator's formula.  The presentation then records the key of each
    kept generator and every key of a nonzero pair -> the (index, sign) of
    the kept generator that pair's generator is up to sign, the table
    ``transported`` reads."""
    gens, labels, signed, kept, aliases = [], [], {}, [], {}
    for (g, label), key in zip(labeled, keys or repeat(None)):
        if g.is_zero:
            continue
        found = signed.get(g)
        if found is None:
            found = signed[g] = (len(gens), 1)
            signed[-g] = (len(gens), -1)
            gens.append(g)
            labels.append(label)
            kept.append(key)
        aliases[key] = found
    pres = IdealPresentation(n, flavor, tuple(gens), tuple(labels))
    pres._signed.update(signed)
    if keys is not None:
        pres._keys.extend(kept)
        pres._aliases.update(aliases)
    return pres


@lru_cache(maxsize=None)
def _diagonal_positions(n: int) -> frozenset:
    """The positions of the diagonal parameters t(i,i,i)."""
    ring = PolyRing.get(n)
    return frozenset(ring.position[ring.t_var(i, i, i)] for i in range(1, n + 1))


def set_diagonal_zero(p: Poly) -> Poly:
    """p with t(i,i,i) -> 0 for all i (miniversal restriction): the terms
    whose monomial holds no t(i,i,i)."""
    diagonal = _diagonal_positions(p.n)
    terms = p.terms_dict().items()
    return Poly(p.n, {m: c for m, c in terms if diagonal.isdisjoint(m[1:])})


def miniversal_restriction(pres: IdealPresentation) -> IdealPresentation:
    """The presentation with t(i,i,i) set to 0, deduplicated again.  The
    restriction commutes with S_n, so the keys of ``pres`` carry over: a
    key that ``pres`` aliased to a generator names that generator's
    image."""
    labeled = zip(map(set_diagonal_zero, pres.generators), pres.labels)
    mini = deduplicated(pres.n, "miniversal", labeled, pres._keys or None)
    for key, (idx, sign) in pres._aliases.items():
        found = mini._aliases.get(pres._keys[idx])
        if found is not None:
            mini._aliases[key] = (found[0], sign * found[1])
    return mini


@lru_cache(maxsize=None)
def _quadric_generators(n: int, swapped: bool) -> IdealPresentation:
    """Quadrics q(i,j,k|l) for j,k,l distinct, key (0, i, j, k, l), then
    the differences q(i,j,k|k) - q(a,b,l|l) for j != k, b != l, key
    (1, i, j, k, l), where (a, b) is (i, j), or (j, i) when swapped.  Both
    families are closed under S_n, and σ of a generator is the generator
    of σ applied to its key."""
    if n < 3:
        raise ValueError(f"ambient n must be >= 3, got {n}")
    labeled, keys = [], []
    indices = list(product(range(1, n + 1), repeat=4))
    for i, j, k, l in indices:
        if j != k and k != l and j != l:
            labeled.append((obstruction_quadric(n, i, j, k, l), f"q({i},{j},{k}|{l})"))
            keys.append((0, i, j, k, l))
    for i, j, k, l in indices:
        a, b = (j, i) if swapped else (i, j)
        if j != k and b != l:
            diff = obstruction_quadric(n, i, j, k, k) - obstruction_quadric(
                n, a, b, l, l
            )
            labeled.append((diff, f"q({i},{j},{k}|{k})-q({a},{b},{l}|{l})"))
            keys.append((1, i, j, k, l))
    return deduplicated(n, "hilbert", labeled, keys)


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


def _orderings(values: tuple):
    """Each distinct ordering of ``values``, once."""
    if not values:
        yield ()
    for v in set(values):
        i = values.index(v)
        for rest in _orderings(values[:i] + values[i + 1 :]):
            yield (v, *rest)


def _orbit(multidegree: tuple) -> set:
    """The keys of the blocks in the S_n orbit of a multidegree: it
    permuted in every way, and packed."""
    return {_packed(p) for p in _orderings(multidegree)}


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

    ``insert`` takes a row with the key of its one block, as
    ``IdealPresentation`` decided it when built; a query may mix blocks and
    is split by ``reduce``, reduced block by block, with one combined
    certificate.  Rows, queries and the residual ``reduce`` returns are
    keyed by the monomials of ``Poly``, whose own order is the descending
    graded-lex order, so the pivots are the ones that order takes, with no
    sort key.  A block key is the multidegree packed into one int
    (``_packed``), the sum of its variables' keys (``_weights``), so the
    block of a product is the sum of its factors' blocks.

    The degree-3 span of a presentation (``IdealPresentation.span(3)``)
    starts empty and holds a ``grow(span, keys)`` that inserts the rows of
    the blocks with those keys, each block as a build of every product
    would hold it, row for row.  ``reduce`` grows a block when a query
    first reaches it, by this rule: a block whose S_n orbit (the blocks
    whose multidegree is a permutation of its own) has no grown block
    grows alone; the first query that reaches a second block of that orbit
    grows the rest of the orbit.  So a caller that asks one query per orbit
    (``orbit_memberships``) builds one block per orbit, and a stream of
    queries over every block grows each orbit in two steps.  A grown block
    that no row reaches stays absent, and a query's part in it is
    residual.
    """

    def __init__(self, n: int, grow=None):
        self.n = n
        self.blocks: dict = {}  # block key -> EchelonSpan
        self._grow = grow
        self._reached: set = set()  # keys of the blocks grow was called on
        self._orbits: set = set()  # sorted multidegrees of the orbits reached

    @property
    def rank(self) -> int:
        return sum(s.rank for s in self.blocks.values())

    def insert(self, key: int, row: dict, tag) -> bool:
        """Add a row to the block with that key; False if it was already
        contained."""
        span = self.blocks.get(key)
        if span is None:
            span = self.blocks[key] = EchelonSpan()
        return span.insert(row, tag)

    def reduce(self, vec: dict):
        """Return (residual, used) with vec = sum(used[tag]*input) + residual."""
        residual: dict = {}
        used: dict = {}
        for key, part in _encode(self.n, vec).items():
            span = self.blocks.get(key)
            if span is None and self._grow and key not in self._reached:
                multidegree = mono_multidegree(next(iter(part)), self.n)
                orbit = tuple(sorted(multidegree))
                if orbit in self._orbits:
                    keys = _orbit(multidegree) - self._reached
                else:
                    self._orbits.add(orbit)
                    keys = {key}
                self._grow(self, keys)
                self._reached |= keys
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
        """A member whose multipliers give back p exactly."""
        if not self.member or p.n != pres.n:
            return False
        return _multiplied_out(p, pres.generators, self.multipliers)


def _multiplied_out(query: Poly, polys, mults: dict) -> bool:
    """Whether the sum of mults[i] * polys[i], added term by term, is
    ``query`` exactly; a multiplier is a ``Poly`` or a rational."""
    acc: dict = {}
    for idx, mult in mults.items():
        for m, c in (mult * polys[idx]).terms_dict().items():
            total = acc.get(m, 0) + c
            if total:
                acc[m] = total
            else:
                del acc[m]
    return acc == query.terms_dict()


@dataclass(frozen=True)
class Record:
    """A check named by ``part`` and whether it holds: a query with what
    re-checks it, or, with no query, an exact identity.  Made only by
    ``certified`` and ``identity``."""

    part: tuple
    ok: bool
    query: Poly | None = None
    pres: object = None  # an IdealPresentation, or the polynomials cert combines
    cert: object = None  # a Membership, or {index into pres: rational}


def certified(part, query: Poly, pres, cert) -> Record:
    """The record of a query, ok only if ``cert`` multiplies back out to it
    exactly (``_multiplied_out``): ``Membership.verify``, or its rational
    combination of the polynomials ``pres``."""
    if isinstance(cert, Membership):
        ok = cert.verify(query, pres)
    else:
        ok = _multiplied_out(query, pres, cert)
    return Record(part, ok, query, pres, cert)


def identity(part, holds: bool) -> Record:
    """The record of an exact identity that the caller checked."""
    return Record(part, holds)


def membership(p: Poly, pres: IdealPresentation) -> Membership:
    """Decide whether p lies in the ideal, with an explicit certificate.

    p must be homogeneous in the t-variables.  Degrees 0 and 1 are decided
    trivially (only 0 belongs); degrees 2 and 3 are reduced against
    ``pres.span(d)``.  Other degrees raise UnsupportedDegreeError.
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
    residual, used = pres.span(d).reduce(vec)
    if residual:
        residual = {m: exact(c) for m, c in residual.items()}
        return Membership(member=False, degree=d, residual=Poly(p.n, residual))
    terms: dict = {}
    for (m, idx), c in used.items():
        terms.setdefault(idx, {})[m] = exact(c)
    mults = {idx: Poly(p.n, terms[idx]) for idx in sorted(terms)}
    return Membership(member=True, degree=d, multipliers=mults)


# -- the S_n symmetry ------------------------------------------------------------


@lru_cache(maxsize=None)
def _permutation(n: int, sigma: tuple) -> dict:
    """The position of each t(i,j,k) -> the position of t(σi,σj,σk)."""
    ring = PolyRing.get(n)
    position, variables = ring.position, ring.variables
    return {
        p: position[ring.t_var(*(sigma[i - 1] for i in variables[p][1:]))]
        for p in range(*ring.bounds["t"])
    }


def permuted(p: Poly, sigma: tuple) -> Poly:
    """σ(p) for a polynomial in the t-variables: t(i,j,k) becomes
    t(σi,σj,σk), where ``sigma`` is the tuple (σ1, ..., σn) of a
    permutation of 1..n."""
    image = _permutation(p.n, sigma)
    terms = p.terms_dict().items()
    return Poly(p.n, {(m[0], *sorted(image[q] for q in m[1:])): c for m, c in terms})


def _signed_index(pres: IdealPresentation) -> dict:
    """Each generator of ``pres`` and its negation -> (index, sign):
    ``pres._signed``, as ``deduplicated`` filled it, or filled here on the
    first call for a presentation built without it."""
    signed = pres._signed
    if not signed:
        for idx, g in enumerate(pres.generators):
            signed[g], signed[-g] = (idx, 1), (idx, -1)
    return signed


def _image(pres: IdealPresentation, idx: int, sigma: tuple):
    """(index, sign) of the generator g' with σ(g) = sign·g' for the
    generator g at ``idx``; None when σ(g) is not ± a generator.  Read from
    the key table when ``pres`` has one (σ applied to the points of g's
    key), else from the signed index of ``permuted(g, σ)``."""
    if pres._keys:
        tag, *points = pres._keys[idx]
        return pres._aliases.get((tag, *(sigma[i - 1] for i in points)))
    return _signed_index(pres).get(permuted(pres.generators[idx], sigma))


def transported(cert: Membership, sigma: tuple, pres: IdealPresentation):
    """A candidate certificate of σ(p) from the certificate ``cert`` of a
    member p: a multiplier m on generator g becomes ε·σ(m) on the generator
    g' with σ(g) = ε·g' (``_image``).  None when some σ(g) is not ± a
    generator.  The candidate counts only once ``Membership.verify`` passes
    for the query it is meant for."""
    mults = {}
    for idx, m in cert.multipliers.items():
        image = _image(pres, idx, sigma)
        if image is None:
            return None
        target, sign = image
        m = permuted(m, sigma)
        mults[target] = m if sign == 1 else -m
    return Membership(
        member=True, degree=cert.degree, multipliers=dict(sorted(mults.items()))
    )


def _sending(n: int, images: dict) -> tuple:
    """The permutation of 1..n, as the tuple (σ1, ..., σn), that sends each
    key of ``images`` to its value and the other points, in increasing
    order, to the other values, in increasing order."""
    rest = iter(sorted(set(range(1, n + 1)) - set(images.values())))
    return tuple(images[i] if i in images else next(rest) for i in range(1, n + 1))


def orbit_memberships(queries, pres: IdealPresentation) -> list:
    """Certify a family of queries q(i, j, k), given as (part, (i, j, k), q)
    with j != k: one ``certified`` record per query, in order.

    A family with q(σi, σj, σk) = σ(q(i, j, k)) for σ in S_n and
    q(i, k, j) = -q(i, j, k), as the cubic syzygies and the projected
    associators are, has two orbits of triples: i in {j, k}, and i outside.
    The first query of an orbit whose certificate verifies is asked of
    ``membership``; every later one in that orbit gets that certificate
    ``transported`` by a σ that sends the first triple to it, up to the
    swap of j and k and its sign.  A transported certificate that does not
    verify is dropped and its query asked of ``membership``, so no answer
    rests on the family having that symmetry."""
    first: dict = {}  # orbit -> (triple with i != k, its sign, Membership)
    records = []
    for part, (i, j, k), q in queries:
        sign, j, k = (-1, k, j) if i == k else (1, j, k)
        orbit, record = i == j, None
        if orbit in first:
            (a, b, c), first_sign, first_cert = first[orbit]
            cert = transported(first_cert, _sending(pres.n, {a: i, b: j, c: k}), pres)
            if cert is not None:
                if sign != first_sign:
                    cert.multipliers = {idx: -m for idx, m in cert.multipliers.items()}
                record = certified(part, q, pres, cert)
        if record is None or not record.ok:
            record = certified(part, q, pres, membership(q, pres))
            if record.ok:
                first.setdefault(orbit, ((i, j, k), sign, record.cert))
        records.append(record)
    return records


def scaled_certificate(q: Poly, pres: IdealPresentation):
    """The certificate of a query q = c·g, for a rational c and a generator
    g of ``pres``, read from its signed index (``_signed_index``): the
    constant multiplier c on g.  q is divided by its content, the gcd of its
    numerators over the lcm of its denominators, and that primitive
    quadric is looked up; the chart's generators are primitive, so each of
    their multiples is found.  None when q is zero or is found nowhere."""
    terms = q.terms_dict()
    if not terms:
        return None
    num = gcd(*(c.numerator for c in terms.values()))
    den = lcm(*(c.denominator for c in terms.values()))
    if num == den == 1:
        primitive = q
    else:
        scale = {m: c.numerator * (den // c.denominator) // num for m, c in terms.items()}
        primitive = Poly(q.n, scale)
    found = _signed_index(pres).get(primitive)
    if found is None:
        return None
    idx, sign = found
    mults = {idx: Poly(pres.n, {ONE: exact(Fraction(sign * num, den))})}
    return Membership(member=True, degree=2, multipliers=mults)


def compare_spans(a: IdealPresentation, b: IdealPresentation) -> list:
    """Mutual containment of the degree-2 spans of two presentations: one
    ``certified`` record per generator, part ("a", index) for the
    generators of a in b, then ("b", index) for those of b in a.

    A generator that is a scalar multiple of one generator of the other
    presentation is certified by that index (``scaled_certificate``), with
    no elimination; only the others are asked of ``membership``.  Either
    certificate counts only once ``certified`` multiplies it back out to
    the generator."""
    records = []
    for side, src, dst in (("a", a, b), ("b", b, a)):
        for idx, g in enumerate(src.generators):
            cert = scaled_certificate(g, dst) or membership(g, dst)
            records.append(certified((side, idx), g, dst, cert))
    return records


def vanishes_at(pres: IdealPresentation, tvals: dict) -> bool:
    """Every generator evaluates to zero at a rational point; ``tvals`` maps
    (i, j, k) to a rational as in ``lifting.family_at``, a key (j, i, k)
    names t(i,j,k) as in ``PolyRing.t_var``, and t-variables it leaves out
    are 0.  Stops at the first generator that does not vanish.

    Exact: with D the lcm of the point's denominators, x = D*t is an
    integer point, indexed by variable position.  A generator is read as
    the row of its one torus block, as its presentation was built with it,
    which holds its coefficients c as stored, each under a monomial
    (-2, a, b), so sum c * x[a] * x[b] = D^2 * g(t): an exact rational (an
    int when the coefficients are), 0 exactly when g(t) is.

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
    for _, row in pres._rows:
        total = 0
        for (_, a, b), c in row.items():
            total += c * x[a] * x[b]
        if total:
            return False
    return True
