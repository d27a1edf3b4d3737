"""Coordinate linear subspaces inside the Hilbert scheme chart.

For disjoint subsets A, B of the coordinate indices, the locus where every
parameter t(i,j,k) with support outside (i, j in A and k in B) vanishes is a
linear subspace of dimension a(a-1)b/2 contained entirely in the chart:
every monomial of every quadric generator contains a factor that the
restriction kills.  Maximizing over a + b = n gives subspaces whose
dimension grows cubically, overtaking the n^2 + n of the smoothing
component from n = 16 on; the maximizing a is the floor or ceiling of
((n+1) + sqrt(n^2-n+1)) / 3 and is found here by exact integer comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .ideal import ideal_generators
from .poly import Poly, PolyRing


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


def make_spec(n: int, A, B) -> LinearSubspaceSpec:
    return LinearSubspaceSpec(n=n, A=frozenset(A), B=frozenset(B))


def subspace_dim(spec: LinearSubspaceSpec) -> int:
    """a(a-1)b/2: pairs i < j from A times targets k from B."""
    return spec.a * (spec.a - 1) * spec.b // 2


def _survives(spec: LinearSubspaceSpec, i: int, j: int, k: int) -> bool:
    return i in spec.A and j in spec.A and k in spec.B


def restricted_quadric(spec: LinearSubspaceSpec, i, j, k, l) -> Poly:
    """The quadric with every killed parameter set to zero, built directly
    (equivalent to substitution into the full quadric)."""
    n = spec.n
    ring = PolyRing.get(n)
    total = ring.zero()
    for lam in range(1, n + 1):
        if _survives(spec, i, j, lam) and _survives(spec, k, lam, l):
            total = total + ring.t(i, j, lam) * ring.t(k, lam, l)
        if _survives(spec, i, k, lam) and _survives(spec, j, lam, l):
            total = total - ring.t(i, k, lam) * ring.t(j, lam, l)
    return total


@dataclass(frozen=True)
class ContainmentReport:
    spec: LinearSubspaceSpec
    quadrics_checked: int
    generators_checked: int
    ok: bool


def containment_check(
    spec: LinearSubspaceSpec, check_generators: bool | None = None
) -> ContainmentReport:
    """Restrict the defining equations to the subspace and assert zero.

    Always sweeps every quadric index tuple (which covers both generator
    families of both presentations); for moderate n it additionally
    restricts the literal generator list by substitution.
    """
    n = spec.n
    quadrics = 0
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    quadrics += 1
                    if not restricted_quadric(spec, i, j, k, l).is_zero:
                        return ContainmentReport(spec, quadrics, 0, False)
    gens_checked = 0
    if check_generators is None:
        check_generators = n <= 8
    if check_generators:
        ring = PolyRing.get(n)
        kill = {
            v: Fraction(0)
            for v in ring.t_variables()
            if not _survives(spec, v[1], v[2], v[3])
        }
        for g in ideal_generators(n).generators:
            gens_checked += 1
            if not g.substitute(kill).is_zero:
                return ContainmentReport(spec, quadrics, gens_checked, False)
    return ContainmentReport(spec, quadrics, gens_checked, True)


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
    import itertools

    universe = range(1, n + 1)
    subsets = itertools.combinations(universe, optimal_subset_size(n))
    for A in itertools.islice(subsets, limit):
        B = tuple(sorted(set(universe) - set(A)))
        yield make_spec(n, A, B)
