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
follow from the graded Leibniz rule.  The first-order deformation
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
computed by the Leibniz rule against ``obstruction_quadric`` directly, the
vanishing on the exterior-square summand, and the span of the locus against
the independently enumerated ``ideal_generators(n, "miniversal")``.

Throughout this module the diagonal parameters t(i,i,i) are set to zero by
default (the miniversal normalization); pass miniversal=False to keep them,
which computes the corresponding chart of the full Hilbert functor instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .ideal import (
    IdealPresentation,
    degree2_rank,
    membership,
    miniversal_restriction,
    set_diagonal_zero,
    span_equal_degree2,
)
from .lifting import (
    build_f,
    build_r,
    coefficient_system,
    quadratic_tail,
    second_order_obstruction,
)
from .poly import Poly, PolyRing
from .taylor import (
    CURLY_NS,
    E_NS,
    FreeModElt,
    QuotientElt,
    basis_pairs,
    e_elt,
    f_map,
    is_koszul,
    koszul_differential,
    nonkoszul_triple,
    pair,
    r_map,
    reduce_mod_squares,
    wedge_symbols,
    zero_elt,
)


@dataclass(frozen=True)
class TruncatedResolution:
    """The degree >= -2 part of the resolution; the differential is f on
    degree -1, r on the free wedge summand and the Koszul differential on
    the exterior-square summand of degree -2."""

    n: int

    def e_symbols(self) -> list:
        return [(E_NS, i, j) for i, j in basis_pairs(self.n)]

    def wedge_gens(self) -> list:
        return wedge_symbols(self.n, "w")

    def curly_gens(self) -> list:
        return wedge_symbols(self.n, CURLY_NS)

    def differential_p1(self, elt: FreeModElt) -> Poly:
        return f_map(elt)

    def differential_p2(self, elt: FreeModElt) -> FreeModElt:
        wedge_part = FreeModElt(
            self.n, {s: c for s, c in elt.terms() if s[0] == "w"}
        )
        curly_part = FreeModElt(
            self.n, {s: c for s, c in elt.terms() if s[0] == CURLY_NS}
        )
        return r_map(wedge_part) + koszul_differential(curly_part)

    def square_zero_check(self) -> bool:
        """d.d vanishes on every degree -2 generator."""
        for sym in self.wedge_gens() + self.curly_gens():
            elt = FreeModElt(self.n, {sym: PolyRing.get(self.n).one()})
            if not self.differential_p1(self.differential_p2(elt)).is_zero:
                return False
        return True


@dataclass(frozen=True)
class DerivationTrunc:
    """Degree-1 derivation of the truncated resolution, given on the free
    generators; exterior-square values follow from the Leibniz rule
    D(a*b) = D(a)*b + (-1)^deg(a) a*D(b)."""

    n: int
    miniversal: bool
    e_images: dict  # e-symbol -> Poly (degree 0 value)
    wedge_images: dict  # wedge symbol -> FreeModElt over e (degree -1 value)

    def on_e(self, sym) -> Poly:
        return self.e_images[sym]

    def on_wedge(self, sym) -> FreeModElt:
        return self.wedge_images[sym]

    def on_curly(self, sym) -> FreeModElt:
        """Leibniz value on e_p v e_q: D(e_p) e_q - D(e_q) e_p (degree-0
        coefficients commute past degree -1 generators without sign)."""
        _, p, q = sym
        return e_elt(self.n, *q, coeff=self.e_images[(E_NS,) + p]) - e_elt(
            self.n, *p, coeff=self.e_images[(E_NS,) + q]
        )

    def apply_p1(self, elt: FreeModElt) -> Poly:
        """On polynomial combinations of e-symbols; the derivation kills
        degree 0 (nothing lives in degree 1), so coefficients pass through."""
        total = PolyRing.get(self.n).zero()
        for sym, c in elt.terms():
            total = total + c * self.e_images[sym]
        return total

    def apply_p2(self, elt: FreeModElt) -> FreeModElt:
        total = zero_elt(self.n)
        for sym, c in elt.terms():
            val = self.on_wedge(sym) if sym[0] == "w" else self.on_curly(sym)
            total = total + val.scale(c)
        return total


def _maybe_restrict(p: Poly, miniversal: bool) -> Poly:
    return set_diagonal_zero(p) if miniversal else p


@lru_cache(maxsize=None)
def first_order_derivation(n: int, miniversal: bool = True) -> DerivationTrunc:
    """The closed degree-1 derivation inducing the generic first-order
    deformation: e[l,m] goes to its first-order image f1, every wedge to
    its first-order syzygy lift r1 (the shared-index formula, or the
    trivial Koszul lift on disjoint pairs), both taken from
    :mod:`.lifting` with the diagonal parameters restricted."""
    e_images = {
        sym: _maybe_restrict(p, miniversal) for sym, p in build_f(n).order(1).items()
    }
    wedge_images = {
        sym: FreeModElt(
            n, {s: _maybe_restrict(c, miniversal) for s, c in elt.terms()}
        )
        for sym, elt in build_r(n).order(1).items()
    }
    return DerivationTrunc(
        n=n, miniversal=miniversal, e_images=e_images, wedge_images=wedge_images
    )


def closedness_residual(n: int, miniversal: bool = True) -> dict:
    """[d, D] = d.D + D.d on the e-generators, both kinds of degree -2
    generators; contract: zero everywhere.

    On e-generators both summands vanish for structural reasons (nothing in
    degree 1, and the derivation kills degree 0), recorded as exact zeros.
    """
    res = TruncatedResolution(n)
    der = first_order_derivation(n, miniversal)
    ring = PolyRing.get(n)
    out: dict = {}
    for sym in res.e_symbols():
        out[sym] = ring.zero()
    for sym in res.wedge_gens() + res.curly_gens():
        elt = FreeModElt(n, {sym: ring.one()})
        d_of_D = res.differential_p1(der.apply_p2(elt))
        D_of_d = der.apply_p1(res.differential_p2(elt))
        out[sym] = d_of_D + D_of_d
    return out


@dataclass(frozen=True)
class CupReport:
    n: int
    miniversal: bool
    wedge_values: dict  # wedge symbol -> Poly (the square, a degree-0 value)
    curly_values: dict  # curly symbol -> QuotientElt (image in the quotient)


def cup_product(n: int, miniversal: bool = True) -> CupReport:
    """The square of the first-order derivation: on shared-index wedges it
    equals sum_l q(i,j,k|l) x_l (with the diagonal parameters zeroed in the
    miniversal normalization); on the exterior-square summand its image in
    the quotient algebra vanishes."""
    der = first_order_derivation(n, miniversal)
    wedge_values = {}
    curly_values = {}
    for sym in wedge_symbols(n):
        if is_koszul(sym):
            continue
        wedge_values[sym] = der.apply_p1(der.on_wedge(sym))
    for sym in wedge_symbols(n, CURLY_NS):
        curly_values[sym] = QuotientElt.from_poly(der.apply_p1(der.on_curly(sym)))
    return CupReport(
        n=n, miniversal=miniversal, wedge_values=wedge_values, curly_values=curly_values
    )


@dataclass(frozen=True)
class KuranishiSystem:
    equations: IdealPresentation
    psi: dict  # pair -> Poly, a solving correction term (determined mod the ideal)


@lru_cache(maxsize=None)
def kuranishi_quadratic_locus(n: int, miniversal: bool = True) -> KuranishiSystem:
    """Constraints for the square of the first-order derivation to be a
    coboundary: sum_l q(i,j,k|l) x_l = -x_k psi(e_ij) + x_j psi(e_ik) in the
    quotient for every shared-index wedge.

    Only the constant (in x) part of psi survives reduction, so comparing
    x-coefficients (``coefficient_system`` with sign -1) gives: vanishing
    of the quadrics with l outside {j,k}, and agreement constraints among
    the candidate values of psi.  The quadratic term is the only part of
    the Kuranishi map that the internal grading allows, so these equations
    cut out the whole base."""
    cup = cup_product(n, miniversal)
    flavor = "miniversal" if miniversal else "hilbert"
    equations, _ = coefficient_system(n, cup.wedge_values, flavor, sign=-1)
    psi = {
        pr: -_maybe_restrict(quadratic_tail(n, *pr), miniversal)
        for pr in basis_pairs(n)
    }
    return KuranishiSystem(equations=equations, psi=psi)


def coboundary_residuals(n: int, miniversal: bool = True) -> dict:
    """Residual of the defining equation of the locus with the canonical psi:
    per shared-index wedge, the x-coefficients of
    square + x_k psi(e_ij) - x_j psi(e_ik), each of which must lie in the
    locus' degree-2 span."""
    cup = cup_product(n, miniversal)
    sys = kuranishi_quadratic_locus(n, miniversal)
    ring = PolyRing.get(n)
    out = {}
    for sym, value in cup.wedge_values.items():
        i, j, k = nonkoszul_triple(sym)
        lhs = (
            value
            + ring.x(k) * sys.psi[pair(i, j)]
            - ring.x(j) * sys.psi[pair(i, k)]
        )
        lhs = reduce_mod_squares(lhs)
        out[sym] = {
            xm[0][0][1]: membership(c, sys.equations)
            for xm, c in lhs.split_by_x().items()
        }
    return out


@dataclass(frozen=True)
class RouteComparison:
    n: int
    equal: bool
    classical_rank: int
    dgla_rank: int


def compare_classical_dgla(n: int) -> RouteComparison:
    """Mutual containment of the degree-2 spans: the classical second-order
    constraints with the diagonal parameters zeroed, against the quadratic
    locus of this module."""
    classical_mini = miniversal_restriction(second_order_obstruction(n).equations)
    dgla_sys = kuranishi_quadratic_locus(n).equations
    equal, _ = span_equal_degree2(classical_mini, dgla_sys)
    return RouteComparison(
        n=n,
        equal=equal,
        classical_rank=degree2_rank(classical_mini),
        dgla_rank=degree2_rank(dgla_sys),
    )
