"""Brute-force cross-validation against genuine point configurations.

Three independent membership tests must agree at every rational parameter
point:

  * symbolic: every generator of the chart ideal evaluates to zero;
  * algebraic: the multiplication table built from the point (family sign
    convention) is associative;
  * geometric: the fiber of the instantiated family is an (n+1)-dimensional
    algebra in which the residue classes of 1, x_1, ..., x_n stay a basis.

The geometric test (``fiber_check``) row-reduces the instantiated family
generators together with all their degree-3 multiples; because every
quadratic and cubic monomial is a leading term of such a row, the residue
classes of 1 and the x_i span the truncated quotient, and any echelon row
whose leading monomial has degree <= 1 is exactly a collapse of that basis.

``point_from_configuration`` manufactures honest points of the chart: given
n+1 rational points in general position, it solves for the structure
constants of their coordinate ring in the basis 1, x_1, ..., x_n with an
``EchelonSpan``, the package's one exact solver, and converts them to
parameter values; a singular evaluation matrix means the configuration
leaves the chart.  Sampling uses small-height rationals and a fixed seed so
that failures replay exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .based import is_associative, t_assignment, table_from_point
from .ideal import ideal_generators, vanishes_at
from .lifting import universal_family
from .linalg import EchelonSpan
from .poly import PolyRing, mono_degree, mono_sort_key
from .subspaces import LinearSubspaceSpec


class BasisCriterionError(ValueError):
    """The configuration's evaluation matrix is singular: the residue
    classes of 1, x_1, ..., x_n are not a basis there."""


def point_from_configuration(points: list) -> dict:
    """Parameter values of the subscheme supported on n+1 rational points
    of affine n-space (n is one less than the number of points).

    Solves, for every pair (i, j), the expansion of x_i*x_j in the residue
    basis 1, x_1, ..., x_n on the configuration (the tracked reduction
    against an ``EchelonSpan`` of the evaluation columns) and negates the
    linear coefficients (family sign convention).  Raises
    BasisCriterionError when the evaluation matrix is singular.
    """
    if not points:
        raise ValueError("empty configuration: need at least one point")
    n = len(points) - 1
    if any(len(p) != n for p in points):
        raise ValueError(f"need {len(points)} points of length {n}")
    evaluation = [[Fraction(1)] + [Fraction(c) for c in p] for p in points]
    # column k of the evaluation matrix holds the values of x_k (x_0 = 1)
    columns = EchelonSpan(track=True)
    for k in range(n + 1):
        columns.insert({r: row[k] for r, row in enumerate(evaluation)}, tag=k)
    if columns.rank <= n:  # insert rejected a column as dependent
        raise BasisCriterionError("evaluation matrix of the configuration is singular")
    tvals = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            xij = {r: row[i] * row[j] for r, row in enumerate(evaluation)}
            _, coeffs = columns.reduce(xij)
            for k in range(1, n + 1):
                if k in coeffs:
                    tvals[(i, j, k)] = -coeffs[k]
    return tvals


@dataclass(frozen=True)
class FiberReport:
    dimension: int
    basis_ok: bool


def fiber_check(tvals: dict, n: int) -> FiberReport:
    """Dimension of the (degree <= 3 truncated) fiber of the family at the
    point, and whether 1, x_1, ..., x_n survive as a basis."""
    assignment = t_assignment(n, tvals)
    ring = PolyRing.get(n)
    gens = [g.substitute(assignment) for g in universal_family(n)]
    span = EchelonSpan(keysort=mono_sort_key)
    for g in gens:
        span.insert(g.terms_dict())
    for i in range(1, n + 1):
        xi = ring.x(i)
        for g in gens:
            span.insert((xi * g).terms_dict())
    collapsed = sum(1 for piv in span.pivots() if mono_degree(piv) <= 1)
    return FiberReport(dimension=n + 1 - collapsed, basis_ok=collapsed == 0)


def symbolic_member(tvals: dict, n: int) -> bool:
    """Every generator of the chart ideal vanishes at the point."""
    return vanishes_at(ideal_generators(n), t_assignment(n, tvals))


def small_fraction(rng: random.Random) -> Fraction:
    """Random rational with numerator and denominator bounded by 10."""
    return Fraction(rng.randint(-10, 10), rng.randint(1, 10))


def random_configuration(rng: random.Random, n: int) -> list:
    return [[small_fraction(rng) for _ in range(n)] for _ in range(n + 1)]


def random_subspace_point(rng: random.Random, spec: LinearSubspaceSpec) -> dict:
    """Random rational point of the coordinate subspace (a member point)."""
    tvals = {}
    for _, i, j, k in spec.parameters():
        val = small_fraction(rng)
        if val:
            tvals[(i, j, k)] = val
    return tvals


def random_generic_point(rng: random.Random, n: int) -> dict:
    """Random dense parameter point; regenerated until it violates at least
    one generator (a deliberate non-member)."""
    ring = PolyRing.get(n)
    while True:
        tvals = {}
        for v in ring.t_variables():
            val = small_fraction(rng)
            if val:
                tvals[(v[1], v[2], v[3])] = val
        if not symbolic_member(tvals, n):
            return tvals


def coordinate_configuration(n: int) -> list:
    """The origin together with the standard basis vectors."""
    zero = [Fraction(0)] * n
    pts = [list(zero)]
    for i in range(n):
        p = list(zero)
        p[i] = Fraction(1)
        pts.append(p)
    return pts


def agreement_trial(tvals: dict, n: int, kind: str) -> dict:
    """Run the three membership tests at one point and report agreement."""
    sym = symbolic_member(tvals, n)
    assoc = is_associative(table_from_point(tvals, n))
    fib = fiber_check(tvals, n)
    return {
        "kind": kind,
        "symbolic": sym,
        "associative": assoc,
        "fiber_dimension": fib.dimension,
        "fiber_member": fib.basis_ok,
        "agree": sym == assoc == fib.basis_ok,
    }


def random_partition_spec(rng: random.Random, n: int) -> LinearSubspaceSpec:
    """Random disjoint (A, B) with |A| >= 2 and B nonempty."""
    a = rng.randint(2, n - 1)
    b = rng.randint(1, n - a)
    members = rng.sample(range(1, n + 1), a + b)
    return LinearSubspaceSpec(
        n=n, A=frozenset(members[:a]), B=frozenset(members[a:])
    )


def run_samples(n: int, seed: int = 0, samples: int = 100) -> list:
    """Seeded sample batch mixing configuration-derived member points,
    subspace member points (random coordinate subspaces), and deliberately
    generic non-members."""
    rng = random.Random(seed)
    trials = []
    trials.append(
        agreement_trial(
            point_from_configuration(coordinate_configuration(n)), n, "coordinate"
        )
    )
    while len(trials) < samples:
        mode = len(trials) % 3
        if mode == 0:
            try:
                tvals = point_from_configuration(random_configuration(rng, n))
                kind = "configuration"
            except BasisCriterionError:
                continue
        elif mode == 1:
            tvals = random_subspace_point(rng, random_partition_spec(rng, n))
            kind = "subspace"
        else:
            tvals = random_generic_point(rng, n)
            kind = "generic"
        trials.append(agreement_trial(tvals, n, kind))
    return trials
