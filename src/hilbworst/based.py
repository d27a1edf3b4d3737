"""Moduli of based algebras and the correspondence with the chart equations.

A based algebra of dimension n+1 is a commutative associative unital algebra
with a fixed basis v_0, ..., v_n in which v_0 is the unit; it is recorded by
its structure constants s(i,j,k) via v_i * v_j = sum_k s(i,j,k) v_k.  The
moduli space is cut out by four polynomial families: symmetry of the
constants, the two unit-row normalizations, and the associator coefficients
(``associator_coeff``), mirrors of the quadrics of :mod:`.ideal` with the
index 0 included.

``structure_to_params`` / ``params_to_structure`` are the ring homomorphisms
that project the structure constants onto the deformation parameters and
embed them back; the projection eliminates the unit rows outright and sends
the k=0 column to the (normalized) diagonal quadric sums.  The composite is
the identity on every parameter, and both maps respect the two ideals,
certified generator by generator in ``verify_structure_correspondence``:
a projected generator by its ``membership`` certificate in the chart ideal,
an embedded one, already in the normal form modulo the unit and symmetry
relations (``reduce_unit_sym``), by a rational combination of the reduced
associator coefficients.  Either certificate counts only once
``Membership.verify`` has multiplied it back out exactly.

Multiplication tables (``MulTable``) hold rational or symbolic entries.
``associativity_residual`` lists every associator coordinate of any table;
``is_associative`` decides a rational table exactly, by testing whether its
multiplication operators commute.  ``table_from_point`` reads the table of
the fiber algebra off the universal family at a rational point, using the
family's sign convention (structure constants are the negated parameters).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm
from operator import mul

from .ideal import (
    IdealPresentation,
    Membership,
    deduplicated,
    diagonal_sum,
    ideal_generators,
    membership,
)
from .poly import Poly, PolyRing
from .taylor import basis_pairs, pair


class MalformedTableError(ValueError):
    """A multiplication table violating symmetry or the unit rows."""


def _unit_row_value(i: int, j: int, k: int):
    """s(i,j,k) forced by the unit rows (1 if the other index is k, else
    0) when i or j is 0; None on the stored entries."""
    return int((i or j) == k) if i == 0 or j == 0 else None


@lru_cache(maxsize=None)
def associator_coeff(n: int, i: int, j: int, k: int, l: int) -> Poly:
    """Coefficient of v_l in (v_j v_i) v_k - v_j (v_i v_k) for the generic
    structure constants: sum over lam of s(i,j,lam) s(k,lam,l) -
    s(i,k,lam) s(j,lam,l), indices from 0 to n."""
    ring = PolyRing.get(n)
    total = ring.zero()
    for lam in range(n + 1):
        total = total + ring.s(i, j, lam) * ring.s(k, lam, l)
        total = total - ring.s(i, k, lam) * ring.s(j, lam, l)
    return total


@lru_cache(maxsize=None)
def based_ideal_generators(n: int) -> IdealPresentation:
    """The four defining families: s(i,j,k)-s(j,i,k) for i < j; the unit
    rows s(0,i,i)-1 and s(0,i,j) for i != j; and the associator coefficients
    for j != k (deduplicated across the antisymmetry in j, k)."""
    if n < 3:
        raise ValueError(f"ambient n must be >= 3, got {n}")
    ring = PolyRing.get(n)
    labeled = []
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            for k in range(n + 1):
                labeled.append((ring.s(i, j, k) - ring.s(j, i, k), f"sym({i},{j}|{k})"))
    for i in range(n + 1):
        labeled.append((ring.s(0, i, i) - ring.one(), f"unit({i})"))
    for i in range(n + 1):
        for j in range(n + 1):
            if i != j:
                labeled.append((ring.s(0, i, j), f"unit0({i}|{j})"))
    for i in range(n + 1):
        for j in range(n + 1):
            for k in range(n + 1):
                for l in range(n + 1):
                    if j != k:
                        labeled.append(
                            (associator_coeff(n, i, j, k, l), f"assoc({i},{j},{k}|{l})")
                        )
    return deduplicated(n, "based_algebra", labeled)


# -- multiplication tables -------------------------------------------------------


class MulTable:
    """Structure constants of an (n+1)-dimensional based algebra.

    Entries are stored for 1 <= i <= j <= n and 0 <= k <= n; the unit rows
    are implied.  Values may be Fractions or Polys (for symbolic tables).
    """

    def __init__(self, n: int, entries: dict):
        self.n = n
        given = {}
        for (i, j, k), v in entries.items():
            if not (1 <= i <= self.n and 1 <= j <= self.n and 0 <= k <= self.n):
                raise MalformedTableError(f"entry index ({i},{j},{k}) out of range")
            key = pair(i, j) + (k,)
            if given.setdefault(key, v) != v:
                raise MalformedTableError(
                    f"conflicting symmetric entries at {key}"
                )
        self.entries = {key: v for key, v in given.items() if v != 0}

    def value(self, i: int, j: int, k: int):
        """s(i,j,k) with the unit rows and symmetry applied."""
        if not (0 <= i <= self.n and 0 <= j <= self.n and 0 <= k <= self.n):
            raise MalformedTableError(f"index ({i},{j},{k}) out of range")
        if i and j:
            return self.entries.get(pair(i, j) + (k,), Fraction(0))
        return Fraction(_unit_row_value(i, j, k))

    @classmethod
    def generic(cls, n: int) -> "MulTable":
        """Symbolic table with one canonical s-variable per stored entry."""
        ring = PolyRing.get(n)
        entries = {
            (i, j, k): ring.s(i, j, k)
            for i in range(1, n + 1)
            for j in range(i, n + 1)
            for k in range(n + 1)
        }
        return cls(n, entries)


def associativity_residual(table: MulTable) -> dict:
    """Per index triple, the coordinates of (v_j v_i) v_k - v_j (v_i v_k);
    the table is associative iff every residual vector vanishes."""
    n = table.n
    out = {}
    for i in range(n + 1):
        for j in range(n + 1):
            for k in range(n + 1):
                vec = []
                for l in range(n + 1):
                    acc = None
                    for lam in range(n + 1):
                        term = table.value(i, j, lam) * table.value(
                            k, lam, l
                        ) - table.value(i, k, lam) * table.value(j, lam, l)
                        acc = term if acc is None else acc + term
                    vec.append(acc)
                out[(i, j, k)] = tuple(vec)
    return out


def is_associative(table: MulTable) -> bool:
    """Exact associativity of a rational table, decided by whether its
    multiplication operators commute pairwise.

    L_a, for 1 <= a <= n, is the (n+1)x(n+1) matrix of v -> v_a v: entry
    [k][j] is the v_k-coefficient of v_a v_j.  The table is symmetric and
    unital by construction, so L_0 is the identity, and on every basis
    vector

        [L_i, L_k] v_j = v_i (v_k v_j) - v_k (v_i v_j)
                       = v_i (v_j v_k) - (v_i v_j) v_k.

    So the operators commute pairwise exactly when the product is
    associative on the basis, hence everywhere by bilinearity.  The stored
    entries are scaled to ints by one common denominator, which multiplies
    every commutator by the same nonzero square.  Returns False at the
    first nonzero commutator entry.

    The test multiplies table entries only and calls neither the generator
    evaluation of ``ideal.vanishes_at`` nor the fiber elimination of
    ``oracle.fiber_check``.  The chart quadrics are themselves commutator
    entries, so a shared helper would make the oracle's agreement of the
    three hold by construction.

    Raises TypeError on a symbolic or otherwise non-rational entry;
    ``associativity_residual`` handles symbolic tables.
    """
    entries = table.entries
    for v in entries.values():
        if not isinstance(v, (int, Fraction)):
            raise TypeError(f"is_associative needs rational entries, got {v!r}")
    scale = lcm(*(v.denominator for v in entries.values()))
    size = table.n + 1
    # rows[a][k][j]: v_k-coefficient of v_a v_j, times scale
    rows = [[[0] * size for _ in range(size)] for _ in range(size)]
    for a in range(1, size):
        rows[a][a][0] = scale
    for (i, j, k), v in entries.items():
        rows[i][k][j] = rows[j][k][i] = v.numerator * (scale // v.denominator)
    cols = [list(zip(*m)) for m in rows]
    for a in range(1, size):
        for b in range(a + 1, size):
            for row_a, row_b in zip(rows[a], rows[b]):
                for col_a, col_b in zip(cols[a], cols[b]):
                    if sum(map(mul, row_a, col_b)) != sum(map(mul, row_b, col_a)):
                        return False
    return True


# -- the two ring homomorphisms -----------------------------------------------------


def _pi_value(n: int, i: int, j: int, k: int) -> Poly:
    ring = PolyRing.get(n)
    unit = _unit_row_value(i, j, k)
    if unit is not None:
        return ring.const(unit)
    if k == 0:
        return diagonal_sum(n, i, j) * Fraction(-1, n - 1)
    return ring.t(i, j, k)


@lru_cache(maxsize=None)
def _pi_table(n: int) -> dict:
    ring = PolyRing.get(n)
    return {v: _pi_value(n, v[1], v[2], v[3]) for v in ring.s_variables()}


def structure_to_params(p: Poly, n: int) -> Poly:
    """Projection of a structure-constant polynomial onto the deformation
    parameters: unit rows go to their constants, the k=0 column to the
    normalized diagonal quadric sums, everything else to t(i,j,k)."""
    if p.degree("x"):
        raise ValueError("projection acts on pure structure-constant polynomials")
    return p.substitute(_pi_table(n))


@lru_cache(maxsize=None)
def _sigma_table(n: int) -> dict:
    ring = PolyRing.get(n)
    return {v: ring.s(v[1], v[2], v[3]) for v in ring.t_variables()}


def params_to_structure(p: Poly, n: int) -> Poly:
    """Section of the projection: t(i,j,k) -> s(i,j,k).  A t-variable is
    stored with i <= j, so the image holds only s(i,j,k) with 1 <= i <= j
    and k >= 1, which ``reduce_unit_sym`` leaves fixed."""
    if p.degree("x") or p.degree("s"):
        raise ValueError("embedding acts on pure parameter polynomials")
    return p.substitute(_sigma_table(n))


@lru_cache(maxsize=None)
def _unit_sym_table(n: int) -> dict:
    """Substitution witnessing the sub-ideal of unit and symmetry relations:
    kernel of this map is exactly that sub-ideal."""
    ring = PolyRing.get(n)
    sub = {}
    for v in ring.s_variables():
        _, i, j, k = v
        unit = _unit_row_value(i, j, k)
        if unit is not None:
            sub[v] = ring.const(unit)
        elif i > j:
            sub[v] = ring.s(j, i, k)
    return sub


def reduce_unit_sym(p: Poly, n: int) -> Poly:
    """Canonical form modulo the unit and symmetry relations; a zero result
    is an exact witness of membership in the sub-ideal they generate."""
    return p.substitute(_unit_sym_table(n))


# -- certified correspondence ---------------------------------------------------------


@lru_cache(maxsize=None)
def _reduced_associators(n: int) -> IdealPresentation:
    """The associator coefficients with positive indices and j < k, reduced
    modulo the unit and symmetry relations; embedded generators are
    certified as combinations of these, reduced against its ``span(2)``."""
    pos = range(1, n + 1)
    gens = tuple(
        reduce_unit_sym(associator_coeff(n, i, j, k, l), n)
        for i, j, k, l in product(pos, pos, pos, range(n + 1))
        if j < k
    )
    return IdealPresentation(n, "based_algebra", gens)


@dataclass
class CorrespondenceReport:
    """Generator-by-generator certification of the two inclusions."""

    pi_degree3: int = 0  # projected generators certified by a cubic certificate
    section_ok: bool = False  # projection . embedding == identity
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.section_ok and not self.failures


def verify_structure_correspondence(n: int) -> CorrespondenceReport:
    """Certify both inclusions of the correspondence between the based
    moduli ideal and the chart ideal, plus the section property."""
    report = CorrespondenceReport()
    ring = PolyRing.get(n)
    chart = ideal_generators(n)

    report.section_ok = all(
        structure_to_params(params_to_structure(ring.var_poly(v), n), n)
        == ring.var_poly(v)
        for v in ring.t_variables()
    )

    based = based_ideal_generators(n)
    for g, lab in zip(based.generators, based.labels):
        img = structure_to_params(g, n)
        if not membership(img, chart).verify(img, chart):
            report.failures.append(("projection", lab))
        elif img.degree("t") == 3:
            report.pi_degree3 += 1

    assoc = _reduced_associators(n)
    span = assoc.span(2)
    for g, lab in zip(chart.generators, chart.labels):
        emb = params_to_structure(g, n)
        residual, used = span.reduce(emb.terms_dict())
        mults = {idx: ring.const(c) for (_, idx), c in used.items()}
        cert = Membership(member=not residual, degree=2, multipliers=mults)
        if not cert.verify(emb, assoc):
            report.failures.append(("embedding", lab))
    return report


# -- points and tables -----------------------------------------------------------------


def table_from_point(family: tuple, n: int) -> MulTable:
    """Multiplication table of the fiber algebra at a parameter point, read
    off the family at the point (as ``lifting.family_at`` gives it) in its
    sign convention: s(i,j,k) = -(coefficient of x_k) = -t(i,j,k) for
    positive k and s(i,j,0) = -(constant term) = -sum_k q(i,j,k|k)(t)/(n-1),
    in the generator of the pair (i, j)."""
    ring = PolyRing.get(n)
    linear = [((ring.x_var(k), 1),) for k in range(1, n + 1)]
    entries = {}
    for (i, j), coeffs in zip(basis_pairs(n), family):
        for k, xk in enumerate(linear, start=1):
            entries[(i, j, k)] = -coeffs.get(xk, 0)
        entries[(i, j, 0)] = -coeffs.get((), 0)
    return MulTable(n, entries)


def table_to_json_dict(table: MulTable) -> dict:
    return {
        "n": table.n,
        "s": [
            [i, j, k, str(table.value(i, j, k))]
            for i in range(table.n + 1)
            for j in range(table.n + 1)
            for k in range(table.n + 1)
        ],
    }
