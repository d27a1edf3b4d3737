"""Coordinate linear subspaces inside the Hilbert scheme chart.

For disjoint subsets A, B of the coordinate indices, the locus where every
parameter t(i,j,k) with support outside (i, j in A and k in B) vanishes is a
linear subspace of dimension a(a-1)b/2 contained entirely in the chart:
every monomial of every quadric generator contains a factor that the
restriction kills.  Maximizing over a + b = n gives subspaces whose
dimension grows cubically, overtaking the n^2 + n of the smoothing
component from n = 16 on; the maximizing a is the floor or ceiling of
((n+1) + sqrt(n^2-n+1)) / 3 and is found here by exact integer comparison.

Containment is decided from supports.  Restricting a polynomial to a
coordinate subspace keeps exactly the terms whose variables all survive,
and distinct monomials cannot cancel, so a restriction is zero iff no
monomial has all of its variables surviving.  The chart quadrics are read
as ``ideal.obstruction_quadric`` builds them; the survivors only select
which of them can hold a product of two survivors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .ideal import ideal_generators, obstruction_quadric
from .poly import T_KIND, PolyRing


@dataclass(frozen=True)
class LinearSubspaceSpec:
    """Disjoint index sets selecting the surviving parameters."""

    n: int
    A: frozenset
    B: frozenset

    def __post_init__(self):
        universe = set(range(1, self.n + 1))
        if not (set(self.A) <= universe and set(self.B) <= universe):
            raise ValueError("A and B must be subsets of 1..n")
        if set(self.A) & set(self.B):
            raise ValueError("A and B must be disjoint")

    @property
    def a(self) -> int:
        return len(self.A)

    @property
    def b(self) -> int:
        return len(self.B)

    def parameters(self) -> list:
        """The surviving t-variables t(i,j,k), i <= j both in A and k in B,
        in ``PolyRing.t_variables()`` order.  The diagonal t(i,i,k) survives
        too, although ``subspace_dim`` counts only the pairs i < j."""
        pairs = itertools.combinations_with_replacement(sorted(self.A), 2)
        B = sorted(self.B)
        return [(T_KIND, i, j, k) for i, j in pairs for k in B]


def make_spec(n: int, A, B) -> LinearSubspaceSpec:
    return LinearSubspaceSpec(n=n, A=frozenset(A), B=frozenset(B))


def subspace_dim(spec: LinearSubspaceSpec) -> int:
    """a(a-1)b/2: pairs i < j from A times targets k from B."""
    return spec.a * (spec.a - 1) * spec.b // 2


@dataclass(frozen=True)
class ContainmentReport:
    spec: LinearSubspaceSpec
    quadrics_checked: int
    generators_checked: int
    ok: bool


def containment_check(spec: LinearSubspaceSpec) -> ContainmentReport:
    """Restrict the defining equations to the subspace and assert zero.

    The quadric sweep covers both generator families of both presentations.
    A product t(a,b,lam) * t(c,d,l) with lam in {c, d} and m the other index
    of (c, d) can occur in q(i,j,k|l) only for {i, j} = {a, b}, k = m, or
    {i, k} = {a, b}, j = m; every other quadric restricts to zero.  Each of
    those is built by ``obstruction_quadric`` and read by support.  The
    report names the first quadric (i,j,k,l) in lexicographic order whose
    restriction is nonzero, by its 1-based position among the n^4.

    For n <= 8 the literal generator list is checked too, by support;
    beyond that, building it costs too much.
    """
    n = spec.n
    ring = PolyRing.get(n)
    survivors = spec.parameters()
    alive = {ring.position[v] for v in survivors}

    def survives(p) -> bool:
        # a monomial's first variable already rules most of them out
        return any(
            m[1] in alive and all(v in alive for v in m[2:]) for m in p.terms_dict()
        )

    partners: dict = {}  # index lam -> surviving t(c,d,l) with lam in {c, d}
    for w in survivors:
        for lam in {w[1], w[2]}:
            partners.setdefault(lam, []).append(w)
    quadrics = set()  # (i, j, k, l) whose q(i,j,k|l) can hold a product
    for _, a, b, lam in survivors:
        for _, c, d, l in partners.get(lam, ()):
            m = d if c == lam else c
            quadrics |= {(a, b, m, l), (b, a, m, l), (a, m, b, l), (b, m, a, l)}
    for i, j, k, l in sorted(quadrics):
        if survives(obstruction_quadric(n, i, j, k, l)):
            position = (((i - 1) * n + j - 1) * n + k - 1) * n + l
            return ContainmentReport(spec, position, 0, False)
    generators = 0
    if n <= 8:
        for g in ideal_generators(n).generators:
            generators += 1
            if survives(g):
                return ContainmentReport(spec, n**4, generators, False)
    return ContainmentReport(spec, n**4, generators, True)


def smoothing_dim(n: int) -> int:
    """Dimension n^2 + n of the component whose general member is n+1
    distinct points."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n * n + n


def _dim_at(n: int, a: int) -> int:
    """Twice-the-dimension comparison helper: a(a-1)(n-a), exact integers."""
    return a * (a - 1) * (n - a)


def amax_floor(n: int) -> int:
    """floor(((n+1) + sqrt(n^2-n+1)) / 3) by integer square root; the
    radicand is never a perfect square for n >= 2, so no boundary case."""
    return (n + 1 + math.isqrt(n * n - n + 1)) // 3


def optimal_subset_size(n: int) -> int:
    """The subset size from the mod-3 case list: 2n/3, (2n+1)/3, (2n+2)/3."""
    return (2 * n + (-2 * n) % 3) // 3


def closed_form_dim(n: int) -> Fraction:
    """The mod-3 case formulas for the maximal dimension; exact rationals
    that must land on integers at their residues."""
    r = n % 3
    if r == 0:
        return Fraction(2, 27) * n**3 - Fraction(1, 9) * n**2
    if r == 1:
        return Fraction(2, 27) * n**3 - Fraction(1, 9) * n**2 + Fraction(1, 27)
    return (
        Fraction(2, 27) * n**3
        - Fraction(1, 9) * n**2
        - Fraction(1, 9) * n
        + Fraction(2, 27)
    )


@dataclass(frozen=True)
class MaxLinearResult:
    n: int
    dim: int
    m: int
    count_lower_bound: int
    maximizers: tuple  # all optimal a with a + b = n
    case_formula_matches: bool


def max_linear_dim(n: int) -> MaxLinearResult:
    """Exact integer maximization of a(a-1)(n-a)/2 over 1 <= a <= n-1,
    cross-checked against the mod-3 case formula and the floor/ceiling of
    the closed-form maximizer; disagreements are reported, not reconciled."""
    if n < 3:
        raise ValueError("n must be >= 3")
    best = max(_dim_at(n, a) for a in range(1, n))
    maximizers = tuple(a for a in range(1, n) if _dim_at(n, a) == best)
    dim = best // 2
    m = optimal_subset_size(n)
    case_dim = closed_form_dim(n)
    root = amax_floor(n)  # the maximizers are its floor or ceiling
    near_root = set(maximizers) <= {root, root + 1}
    matches = case_dim == dim and m in maximizers and near_root
    return MaxLinearResult(
        n=n,
        dim=dim,
        m=m,
        count_lower_bound=math.comb(n, m),
        maximizers=maximizers,
        case_formula_matches=matches,
    )


def optimal_specs(n: int, limit: int):
    """Yield the first `limit` optimal (A, B) pairs: A any m-subset, B its
    complement."""
    universe = range(1, n + 1)
    subsets = itertools.combinations(universe, optimal_subset_size(n))
    for A in itertools.islice(subsets, limit):
        B = tuple(sorted(set(universe) - set(A)))
        yield make_spec(n, A, B)
