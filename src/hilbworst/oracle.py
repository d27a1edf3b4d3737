"""Brute-force cross-validation against genuine point configurations.

Three independent membership tests must agree at every rational parameter
point, and each is exact:

  * symbolic (``symbolic_member``): every generator of the chart ideal
    evaluates to zero.  ``ideal.vanishes_at`` evaluates the generators in
    integers, at the point scaled by the lcm of its denominators, which
    multiplies each value by a nonzero integer.
  * algebraic (``based.is_associative`` on ``table_from_point``): the
    multiplication table read off the family at the point (family sign
    convention) is associative.  For a symmetric unital table that is the
    same as its multiplication operators commuting pairwise, which is tested
    in integers over one common denominator.
  * geometric (``fiber_check``): the fiber of the instantiated family is an
    (n+1)-dimensional algebra in which the residue classes of 1, x_1, ...,
    x_n stay a basis.  It row-reduces the instantiated family generators
    together with all their degree-3 multiples, fraction-free in integers
    (``linalg.pivot_keys``); because every quadratic and cubic monomial is
    a leading term of such a row, the residue classes of 1 and the x_i span
    the truncated quotient, and any echelon row whose leading monomial has
    degree <= 1 is exactly a collapse of that basis.  The rows are the
    family in the coordinates y = s*x, with s the lcm of the denominators
    of its coefficients: there each generator is monic with int
    coefficients.  With the first multiple to reach each cubic monomial
    eliminated before the other multiples, every echelon row led by a
    monomial of degree 2 or 3 is one of these monic rows, so the
    elimination rescales a row only against a collapse, and at a point of
    the chart, which has none, never.  Scaling the coordinates scales each
    monomial's column by a nonzero constant, which leaves the leading
    monomials of the row space, and with them the answer, as they are.

None of the three calls another or a helper of another: the first
evaluates the chart generators, the second multiplies matrices of table
entries, the third eliminates over the instantiated family.  The chart
quadrics are themselves associator coordinates, so a helper shared by the
first two would make their agreement hold by construction and prove
nothing.  The second and third share only their input, the family at the
point, which ``agreement_trial`` evaluates once (``lifting.family_at``) and
passes to both: the table is read off its coefficients and the fiber is cut
out by it.  That map from a point to the family is not a membership test,
and the symbolic test does not use it.  ``tests/test_repo.py`` checks that
they stay apart.

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
from functools import lru_cache
from math import lcm

from .based import is_associative, table_from_point
from .ideal import ideal_generators, vanishes_at
from .lifting import family_at
from .linalg import EchelonSpan, pivot_keys
from .poly import ONE, PolyRing, mono_degree, mono_mul
from .subspaces import LinearSubspaceSpec


class BasisCriterionError(ValueError):
    """The configuration's evaluation matrix is singular: the residue
    classes of 1, x_1, ..., x_n are not a basis there."""


def point_from_configuration(points: list) -> dict:
    """Parameter values of the subscheme supported on n+1 rational points
    of affine n-space (n is one less than the number of points).

    Solves, for every pair (i, j), the expansion of x_i*x_j in the residue
    basis 1, x_1, ..., x_n on the configuration, as the certificate of its
    reduction against an ``EchelonSpan`` of the evaluation columns (which
    scales every column to integers and eliminates fraction-free), and
    negates the linear coefficients (family sign convention).  Raises
    BasisCriterionError when the evaluation matrix is singular.
    """
    if not points:
        raise ValueError("empty configuration: need at least one point")
    n = len(points) - 1
    if any(len(p) != n for p in points):
        raise ValueError(f"need {len(points)} points of length {n}")
    evaluation = [[Fraction(1)] + [Fraction(c) for c in p] for p in points]
    # column k of the evaluation matrix holds the values of x_k (x_0 = 1)
    columns = EchelonSpan()
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


@lru_cache(maxsize=None)
def _fiber_columns(n: int) -> tuple:
    """The x-monomials of degree <= 3 numbered in descending graded-lex
    order (the monomials' own order), so that the least column of a row is
    its leading monomial.  Returns their count; for each monomial m of
    degree <= 2, its column and the power 2 - deg m of the scale that
    ``fiber_check`` gives it; and for each l = 1..n the shift table: the
    column of m*x_l by the column of m, over those m."""
    ring = PolyRing.get(n)
    xs = [ring.var_mono(ring.x_var(l)) for l in range(1, n + 1)]
    monos, layer = {ONE}, {ONE}
    for _ in range(3):
        layer = {mono_mul(m, x) for m in layer for x in xs}
        monos |= layer
    column = {m: c for c, m in enumerate(sorted(monos))}
    low = [m for m in column if mono_degree(m, n) <= 2]
    place = {m: (column[m], 2 - mono_degree(m, n)) for m in low}
    shifts = tuple({column[m]: column[mono_mul(m, x)] for m in low} for x in xs)
    return len(column), place, shifts


def fiber_check(family: tuple, n: int) -> FiberReport:
    """Dimension of the (degree <= 3 truncated) fiber of the family at a
    point (as ``family_at`` gives it), and whether 1, x_1, ..., x_n survive
    as a basis.

    With s the lcm of the denominators of the family's coefficients, each
    generator becomes the row c*s^(2 - deg m) over the columns of
    ``_fiber_columns``: s^2 times the generator in the coordinates y = s*x.
    Its values are ints, because s is a multiple of every denominator and
    the coefficient of x_i x_j is 1, so it is monic; its y_l multiples are
    the same rows re-keyed through the shift table of l, and no
    ``Fraction`` is read past the generators.  The first multiple to lead
    with each cubic monomial goes in before the others, the only rows that
    can reduce to a collapse, so every pivot row of degree 2 or 3 stays
    monic.  The scaling multiplies each column by a nonzero constant, which
    keeps the leading monomials of the row space, so ``pivot_keys`` returns
    the pivots of the family in x.  The pivots in the last n+1 columns are
    the collapses of the basis: the leading monomials of degree <= 1."""
    width, place, shifts = _fiber_columns(n)
    s = lcm(*(c.denominator for coeffs in family for c in coeffs.values()))
    power = (1, s, s * s)
    rows = []
    for coeffs in family:
        row = {}
        for m, c in coeffs.items():
            col, e = place[m]
            row[col] = c.numerator * (power[e] // c.denominator)
        rows.append(row)
    firsts, repeats = {}, []  # by leading column: the first multiple, the others
    for shift in shifts:
        for row in rows:
            lead = shift[min(row)]  # times x_l keeps the order of monomials
            multiple = {shift[c]: v for c, v in row.items()}
            if lead in firsts:
                repeats.append(multiple)
            else:
                firsts[lead] = multiple
    rows += [*firsts.values(), *repeats]
    linear = width - (n + 1)  # the first column of degree <= 1
    collapsed = sum(1 for piv in pivot_keys(rows) if piv >= linear)
    return FiberReport(dimension=n + 1 - collapsed, basis_ok=collapsed == 0)


def symbolic_member(tvals: dict, n: int) -> bool:
    """Every generator of the chart ideal vanishes at the point."""
    return vanishes_at(ideal_generators(n), tvals)


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
    family = family_at(n, tvals)
    assoc = is_associative(table_from_point(family, n))
    fib = fiber_check(family, n)
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
