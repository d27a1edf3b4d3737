"""Derivation-algebra route to the same constraint system.

The quotient algebra is resolved (down to cohomological degree -2) by a
semifree commutative dg algebra: degree 0 is the coordinate ring, degree -1
the free module on the e-symbols, and degree -2 the direct sum of the
exterior square of degree -1 (symbols e[i,j]v[k,l], with the genuine Koszul
differential) and a free summand on the wedge symbols e[i,j]^e[k,l], mapped
by the divided relation r.  The two summands are distinct namespaces
throughout: r is not the Koszul differential.

A degree-1 derivation is fixed by its values on the free generators (the
e-symbols and the wedge symbols); values on the exterior-square summand
follow from the graded Leibniz rule.  It is kept as one plain table from
symbols to values and applied by module-linear extension
(``taylor.apply_images``).  The first-order deformation
``first_order_derivation`` reproduces the classical first-order data, is
closed for the induced differential, and its square on the shared-index
wedges is the generic associativity combination sum_l q(i,j,k|l) x_l.
Requiring that square to be a coboundary yields the quadratic constraint
system (``kuranishi_quadratic_locus``); by the internal grading no higher
corrections can contribute, so this locus is the whole base space.

The first-order data (f1 and the syzygy lift r1) and the comparison of
x-coefficients (``lifting.coefficient_system``) are shared with the
classical route, so the two routes do not check each other there.  What
this route still checks on its own is everything around them: closedness
of the derivation against the differential of the resolution, the square
computed by the Leibniz rule against ``obstruction_quadric`` directly
(``cup_residual``), the vanishing on the exterior-square summand, and the
span of the locus against the independently enumerated
``ideal_generators(n, "miniversal")``.

Throughout this module the diagonal parameters t(i,i,i) are set to zero
(``set_diagonal_zero``), the miniversal normalization, so the locus is the
Kuranishi base.  With them kept, the derivation would be f1 and r1 as they
are and its square the product that ``second_order_obstruction`` forms, so
the route would repeat the classical one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .ideal import (
    IdealPresentation,
    compare_spans,
    miniversal_restriction,
    obstruction_quadric,
    set_diagonal_zero,
)
from .lifting import (
    build_f,
    build_r,
    coefficient_system,
    second_order_obstruction,
)
from .poly import PolyRing, sum_products
from .taylor import (
    CURLY_NS,
    E_NS,
    WEDGE_NS,
    FreeModElt,
    QuotientElt,
    apply_images,
    basis_pairs,
    f_map,
    is_koszul,
    koszul_differential,
    leibniz_value,
    nonkoszul_triple,
    r_map,
    wedge_symbols,
)


def _degree2_generators(n: int) -> list:
    """The degree -2 generators: the wedge symbols, then the
    exterior-square symbols."""
    return wedge_symbols(n) + wedge_symbols(n, CURLY_NS)


def _differential(n: int, sym) -> FreeModElt:
    """The differential on one degree -2 generator: r on a wedge symbol,
    the Koszul differential on an exterior-square symbol."""
    gen = FreeModElt(n, {sym: PolyRing.get(n).one()})
    return r_map(gen) if sym[0] == WEDGE_NS else koszul_differential(gen)


@lru_cache(maxsize=None)
def first_order_derivation(n: int) -> dict:
    """The closed degree-1 derivation inducing the generic first-order
    deformation, as one table over the e-, wedge and exterior-square
    symbols: e[l,m] goes to its first-order image f1 (a Poly), every wedge
    to its first-order syzygy lift r1 (the shared-index formula, or the
    trivial Koszul lift on disjoint pairs), both taken from :mod:`.lifting`
    with the diagonal parameters zeroed, and e_p v e_q to its Leibniz
    value D(e_p) e_q - D(e_q) e_p."""
    der = {sym: set_diagonal_zero(p) for sym, p in build_f(n)[1].items()}
    for sym, elt in build_r(n)[1].items():
        der[sym] = FreeModElt(n, {s: set_diagonal_zero(c) for s, c in elt.terms()})
    for sym in wedge_symbols(n, CURLY_NS):
        der[sym] = leibniz_value(n, sym, der.__getitem__)
    return der


def closedness_residual(n: int) -> dict:
    """[d, D] = d.D + D.d on the e-generators, both kinds of degree -2
    generators; contract: zero everywhere.

    On e-generators both summands vanish for structural reasons (nothing in
    degree 1, and the derivation kills degree 0), recorded as exact zeros.
    """
    der = first_order_derivation(n)
    zero = PolyRing.get(n).zero()
    out: dict = {(E_NS,) + p: zero for p in basis_pairs(n)}
    for sym in _degree2_generators(n):
        out[sym] = f_map(der[sym]) + apply_images(der, _differential(n, sym))
    return out


@dataclass(frozen=True)
class CupReport:
    wedge_values: dict  # wedge symbol -> Poly (the square, a degree-0 value)
    curly_values: dict  # curly symbol -> QuotientElt (image in the quotient)


@lru_cache(maxsize=None)
def cup_product(n: int) -> CupReport:
    """The square of the first-order derivation: on shared-index wedges it
    equals sum_l q(i,j,k|l) x_l with the diagonal parameters zeroed; on the
    exterior-square summand its image in the quotient algebra vanishes."""
    der = first_order_derivation(n)
    wedge_values = {
        sym: apply_images(der, der[sym])
        for sym in wedge_symbols(n)
        if not is_koszul(sym)
    }
    curly_values = {
        sym: QuotientElt.from_poly(apply_images(der, der[sym]))
        for sym in wedge_symbols(n, CURLY_NS)
    }
    return CupReport(wedge_values=wedge_values, curly_values=curly_values)


def cup_residual(n: int) -> dict:
    """The square of the first-order derivation on each shared-index wedge
    e[i,j]^e[i,k] minus sum_l q(i,j,k|l) x_l, the quadrics built by
    ``obstruction_quadric`` with the diagonal parameters zeroed as in
    ``cup_product``; contract: zero everywhere."""
    x = PolyRing.get(n).x
    out: dict = {}
    for sym, value in cup_product(n).wedge_values.items():
        i, j, k = nonkoszul_triple(sym)
        quadrics = [obstruction_quadric(n, i, j, k, l) for l in range(1, n + 1)]
        items = [(1, set_diagonal_zero(q), x(l)) for l, q in enumerate(quadrics, 1)]
        out[sym] = value - sum_products(n, items)
    return out


@lru_cache(maxsize=None)
def kuranishi_quadratic_locus(n: int) -> IdealPresentation:
    """Constraints for the square of the first-order derivation to be a
    coboundary: sum_l q(i,j,k|l) x_l = -x_k psi(e_ij) + x_j psi(e_ik) in the
    quotient for every shared-index wedge.

    Only the constant (in x) part of psi survives reduction, so comparing
    x-coefficients (``coefficient_system`` with sign -1) gives: vanishing
    of the quadrics with l outside {j,k}, and agreement constraints among
    the candidate values of psi.  The quadratic term is the only part of
    the Kuranishi map that the internal grading allows, so these equations
    cut out the whole base."""
    wedge_values = cup_product(n).wedge_values
    return coefficient_system(n, wedge_values, "miniversal", sign=-1)[0]


def compare_classical_dgla(n: int) -> list:
    """``compare_spans`` of the classical second-order constraints with the
    diagonal parameters zeroed and the quadratic locus of this module."""
    classical_mini = miniversal_restriction(second_order_obstruction(n).equations)
    return compare_spans(classical_mini, kuranishi_quadratic_locus(n))
