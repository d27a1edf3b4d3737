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
the k=0 column to the (normalized) diagonal quadric sums.  The projection's
values are polynomials, so it works by substitution (``Poly.substitute``);
the embedding, and the reduction modulo the unit and symmetry relations,
only rename variables or set them to 0 or 1, so they work by renaming
(``Poly.renamed``) through tables of variable positions.  The composite is
the identity on every parameter, and both maps respect the two ideals,
certified generator by generator in ``verify_structure_correspondence``:
a projected generator by a ``membership`` certificate in the chart ideal,
of its image for a symmetry or unit generator and of (n-1)^2 times its
image for an associator, projected through (n-1) times the projection so
that its query has int coefficients; an embedded one, already in the
normal form modulo the unit and symmetry relations (``reduce_unit_sym``),
by a rational combination of the reduced associator coefficients, which
keep one tracked ``EchelonSpan`` of their own.  The based generators are
plain (generator, label) pairs.

Multiplication tables (``MulTable``) hold rational or symbolic entries.
One associator formula, ``_associator``, lists the signed pairs of
structure-constant indices whose products give a coordinate:
``associator_coeff`` sums them as monomials of s-variable positions, and
``associativity_residual`` lists every coordinate of any table as the sum
of the products of the table's values;
``is_associative`` decides a rational table exactly, by testing whether its
multiplication operators commute.  ``table_from_point`` reads the table of
the fiber algebra off the universal family at a rational point, using the
family's sign convention (structure constants are the negated parameters).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm
from operator import mul

from .ideal import (
    certified,
    diagonal_sum,
    ideal_generators,
    identity,
    membership,
    orbit_memberships,
    scaled_certificate,
)
from .linalg import EchelonSpan
from .poly import ONE, S_KIND, Poly, PolyRing, exact
from .taylor import basis_pairs, pair


class MalformedTableError(ValueError):
    """A multiplication table violating symmetry or the unit rows."""


def _unit_row_value(i: int, j: int, k: int):
    """s(i,j,k) forced by the unit rows (1 if the other index is k, else
    0) when i or j is 0; None on the stored entries."""
    return int((i or j) == k) if i == 0 or j == 0 else None


def _associator(n: int, i: int, j: int, k: int, l: int) -> list:
    """Coefficient of v_l in (v_j v_i) v_k - v_j (v_i v_k), as the signed
    pairs of structure constants whose products it sums: (a, b, sign) for
    s(a) s(b), with a and b index triples, over lam = 0..n, +s(i,j,lam)
    s(k,lam,l) then -s(i,k,lam) s(j,lam,l)."""
    pairs = []
    for lam in range(n + 1):
        pairs.append(((i, j, lam), (k, lam, l), 1))
        pairs.append(((i, k, lam), (j, lam, l), -1))
    return pairs


@lru_cache(maxsize=None)
def associator_coeff(n: int, i: int, j: int, k: int, l: int) -> Poly:
    """The associator coordinate (``_associator``) of the generic structure
    constants, a ``Poly``.  Each product is one monomial in the
    s-variables, so the signs are summed per monomial, as
    ``ideal.obstruction_quadric`` sums its products."""
    position = PolyRing.get(n).position
    terms: dict = {}
    for a, b, sign in _associator(n, i, j, k, l):
        m = (-2, *sorted((position[(S_KIND, *a)], position[(S_KIND, *b)])))
        c = terms.get(m, 0) + sign
        if c:
            terms[m] = c
        else:
            del terms[m]
    return Poly(n, terms)


@lru_cache(maxsize=None)
def based_ideal_generators(n: int) -> tuple:
    """The four defining families as (generator, label) pairs:
    s(i,j,k)-s(j,i,k) for i < j; the unit rows s(0,i,i)-1 and s(0,i,j) for
    i != j; and the associator coefficients for j < k (those for j > k are
    their negatives)."""
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
            for k in range(j + 1, n + 1):
                for l in range(n + 1):
                    labeled.append(
                        (associator_coeff(n, i, j, k, l), f"assoc({i},{j},{k}|{l})")
                    )
    return tuple(labeled)


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


def associativity_residual(table: MulTable) -> dict:
    """Per index triple, the coordinates of (v_j v_i) v_k - v_j (v_i v_k);
    the table is associative iff every residual vector vanishes."""
    n, value = table.n, table.value
    indices = range(n + 1)
    return {
        (i, j, k): tuple(
            sum(value(*a) * value(*b) * s for a, b, s in _associator(n, i, j, k, l))
            for l in indices
        )
        for i, j, k in product(indices, repeat=3)
    }


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


@lru_cache(maxsize=None)
def _scaled_pi_table(n: int) -> dict:
    """(n-1) times ``_pi_table``: the 1/(n-1) of the k=0 column cleared, so
    every value has int coefficients."""
    return {v: p * (n - 1) for v, p in _pi_table(n).items()}


def structure_to_params(p: Poly, n: int) -> Poly:
    """Projection of a structure-constant polynomial onto the deformation
    parameters: unit rows go to their constants, the k=0 column to the
    normalized diagonal quadric sums, everything else to t(i,j,k)."""
    if p.degree("x"):
        raise ValueError("projection acts on pure structure-constant polynomials")
    return p.substitute(_pi_table(n))


@lru_cache(maxsize=None)
def _sigma_table(n: int) -> dict:
    """The position of each t(i,j,k) -> the position of s(i,j,k)."""
    ring = PolyRing.get(n)
    position = ring.position
    return {position[v]: position[(S_KIND, *v[1:])] for v in ring.t_variables()}


def params_to_structure(p: Poly, n: int) -> Poly:
    """Section of the projection: t(i,j,k) -> s(i,j,k), a renaming
    (``Poly.renamed``).  A t-variable is stored with i <= j, so the image
    holds only s(i,j,k) with 1 <= i <= j and k >= 1, which
    ``reduce_unit_sym`` leaves fixed."""
    lo, hi = PolyRing.get(n).bounds["t"]
    # positions are sorted, so the first and the last bound the rest
    if any(m[0] and (m[1] < lo or m[-1] >= hi) for m in p.terms_dict()):
        raise ValueError("embedding acts on pure parameter polynomials")
    return p.renamed(_sigma_table(n))


@lru_cache(maxsize=None)
def _unit_sym_table(n: int) -> tuple:
    """The renaming that witnesses the sub-ideal of unit and symmetry
    relations, whose kernel is exactly that sub-ideal, as the two maps of
    ``Poly.renamed``: the position of each s(i,j,k) with i > j -> that of
    s(j,i,k), and the position of each unit-row s(i,j,k) -> its int
    value."""
    ring = PolyRing.get(n)
    position = ring.position
    image, constants = {}, {}
    for v in ring.s_variables():
        _, i, j, k = v
        unit = _unit_row_value(i, j, k)
        if unit is not None:
            constants[position[v]] = unit
        elif i > j:
            image[position[v]] = position[(S_KIND, j, i, k)]
    return image, constants


def reduce_unit_sym(p: Poly, n: int) -> Poly:
    """Canonical form modulo the unit and symmetry relations; a zero result
    is an exact witness of membership in the sub-ideal they generate."""
    return p.renamed(*_unit_sym_table(n))


# -- certified correspondence ---------------------------------------------------------


@lru_cache(maxsize=None)
def _reduced_associators(n: int) -> tuple:
    """The associator coefficients with positive indices and j < k, reduced
    modulo the unit and symmetry relations, and the tracked span of them,
    each tagged by its index; embedded generators are certified as
    combinations of these."""
    pos = range(1, n + 1)
    gens = tuple(
        reduce_unit_sym(associator_coeff(n, i, j, k, l), n)
        for i, j, k, l in product(pos, pos, pos, range(n + 1))
        if j < k
    )
    span = EchelonSpan()
    for idx, g in enumerate(gens):
        span.insert(g.terms_dict(), idx)
    return gens, span


def verify_structure_correspondence(n: int) -> list:
    """Certify the section property and both inclusions between the based
    moduli ideal and the chart ideal: one ``Record`` each, part ("section",
    ""), ("projection", label) per based generator, the cubics asked one per
    S_n orbit (``orbit_memberships``), and ("embedding", label) per chart
    generator, its certificate a combination of the reduced associators.

    An associator is a quadric in the structure constants, so it is
    projected through (n-1) times the projection (``_scaled_pi_table``) and
    its record certifies (n-1)^2 times its image: a query with int
    coefficients, which lies in the chart ideal exactly when the image
    does.  The symmetry and unit generators are projected as they are."""
    ring = PolyRing.get(n)
    chart = ideal_generators(n)
    section = all(
        structure_to_params(params_to_structure(ring.var_poly(v), n), n)
        == ring.var_poly(v)
        for v in ring.t_variables()
    )
    records = [identity(("section", ""), section)]

    scaled = _scaled_pi_table(n)
    images = [
        (
            g.substitute(scaled)
            if lab.startswith("assoc")
            else structure_to_params(g, n),
            lab,
        )
        for g, lab in based_ideal_generators(n)
    ]
    # the images of assoc(i,j,k|0), i, j, k positive, are the cubics; they
    # are certified one S_n orbit of the triples at a time
    pos = range(1, n + 1)
    triples = [(i, j, k) for i in pos for j in pos for k in range(j + 1, n + 1)]
    cubics = {f"assoc({i},{j},{k}|0)": (i, j, k) for i, j, k in triples}
    queries = [
        (("projection", lab), cubics[lab], img) for img, lab in images if lab in cubics
    ]
    certified_cubics = iter(orbit_memberships(queries, chart))
    for img, lab in images:
        if lab in cubics:
            records.append(next(certified_cubics))
        else:
            cert = scaled_certificate(img, chart) or membership(img, chart)
            records.append(certified(("projection", lab), img, chart, cert))

    assoc, span = _reduced_associators(n)
    for g, lab in zip(chart.generators, chart.labels):
        emb = params_to_structure(g, n)
        used = span.reduce(emb.terms_dict())[1]
        combination = {idx: exact(c) for idx, c in used.items()}
        records.append(certified(("embedding", lab), emb, assoc, combination))
    return records


# -- points and tables -----------------------------------------------------------------


def table_from_point(family: tuple, n: int) -> MulTable:
    """Multiplication table of the fiber algebra at a parameter point, read
    off the family at the point (as ``lifting.family_at`` gives it) in its
    sign convention: s(i,j,k) = -(coefficient of x_k) = -t(i,j,k) for
    positive k and s(i,j,0) = -(constant term) = -sum_k q(i,j,k|k)(t)/(n-1),
    in the generator of the pair (i, j)."""
    ring = PolyRing.get(n)
    linear = [ring.var_mono(ring.x_var(k)) for k in range(1, n + 1)]
    entries = {}
    for (i, j), coeffs in zip(basis_pairs(n), family):
        for k, xk in enumerate(linear, start=1):
            entries[(i, j, k)] = -coeffs.get(xk, 0)
        entries[(i, j, 0)] = -coeffs.get(ONE, 0)
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
