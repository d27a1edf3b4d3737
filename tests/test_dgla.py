"""Truncated resolution, the closed degree-1 derivation, its square, and the
quadratic locus they cut out."""

import pytest

from hilbworst.dgla import (
    closedness_residual,
    compare_classical_dgla,
    cup_product,
    first_order_derivation,
    kuranishi_quadratic_locus,
)
from hilbworst.ideal import (
    compare_spans,
    ideal_generators,
    membership,
    miniversal_restriction,
    obstruction_quadric,
    set_diagonal_zero,
)
from hilbworst.lifting import build_f, second_order_obstruction
from hilbworst.poly import PolyRing
from hilbworst.taylor import (
    CURLY_NS,
    WEDGE_NS,
    FreeModElt,
    e_elt,
    f_map,
    koszul_differential,
    nonkoszul_triple,
    pair,
    r_map,
    reduce_mod_squares,
    wedge_symbols,
)

R3 = PolyRing.get(3)


def square_zero_check(n: int) -> bool:
    """d.d vanishes on every degree -2 generator: f.r on the wedge symbols,
    f after the Koszul differential on the exterior-square symbols."""
    one = PolyRing.get(n).one()
    wedges = (r_map(FreeModElt(n, {s: one})) for s in wedge_symbols(n))
    curly = (
        koszul_differential(FreeModElt(n, {s: one}))
        for s in wedge_symbols(n, CURLY_NS)
    )
    return all(f_map(d).is_zero for gens in (wedges, curly) for d in gens)


def coboundary_residuals(n: int) -> dict:
    """Residual of the defining equation of the locus with the canonical psi,
    minus each classical tail (``build_f``'s order-2 table) with the diagonal
    parameters zeroed: per shared-index wedge, the x-coefficients of
    square + x_k psi(e_ij) - x_j psi(e_ik), each with its ``membership`` in
    the locus' degree-2 span, as x-index -> (coefficient, Membership)."""
    psi = {sym[1:]: -set_diagonal_zero(tail) for sym, tail in build_f(n)[2].items()}
    locus = kuranishi_quadratic_locus(n)
    ring = PolyRing.get(n)
    out = {}
    for sym, value in cup_product(n).wedge_values.items():
        i, j, k = nonkoszul_triple(sym)
        lhs = value + ring.x(k) * psi[pair(i, j)] - ring.x(j) * psi[pair(i, k)]
        out[sym] = {
            ring.variables[xm[1]][1]: (c, membership(c, locus))
            for xm, c in reduce_mod_squares(lhs).split_by_x().items()
        }
    return out


@pytest.mark.parametrize("n", [3, 4])
def test_resolution_differential_squares_to_zero(n):
    assert square_zero_check(n)


def test_derivation_images_match_first_order_data():
    der = first_order_derivation(3)
    # diagonal parameters are zeroed in this normalization
    assert der[("e", 1, 2)] == (
        R3.t(1, 2, 1) * R3.x(1) + R3.t(1, 2, 2) * R3.x(2) + R3.t(1, 2, 3) * R3.x(3)
    )
    assert der[("e", 1, 1)] == R3.t(1, 1, 2) * R3.x(2) + R3.t(1, 1, 3) * R3.x(3)
    sym = (WEDGE_NS, (1, 2), (1, 3))
    expected = FreeModElt(3, {})
    for lam in range(1, 4):
        expected = expected + e_elt(3, 3, lam, coeff=set_diagonal_zero(R3.t(1, 2, lam)))
        expected = expected - e_elt(3, 2, lam, coeff=set_diagonal_zero(R3.t(1, 3, lam)))
    assert der[sym] == expected


def test_leibniz_value_on_exterior_square():
    der = first_order_derivation(4)
    sym = (CURLY_NS, (1, 2), (3, 4))
    expected = e_elt(4, 3, 4, coeff=der[("e", 1, 2)]) - e_elt(
        4, 1, 2, coeff=der[("e", 3, 4)]
    )
    assert der[sym] == expected


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_closedness(n):
    res = closedness_residual(n)
    assert all(p.is_zero for p in res.values())
    # e-generators, both wedge namespaces are all present in the sweep
    kinds = {sym[0] for sym in res}
    assert kinds == {"e", "w", CURLY_NS}


@pytest.mark.parametrize("n", [3, 4])
def test_cup_product_values(n):
    cup = cup_product(n)
    R = PolyRing.get(n)
    for sym, value in cup.wedge_values.items():
        i, j, k = nonkoszul_triple(sym)
        expected = R.zero()
        for l in range(1, n + 1):
            expected = expected + set_diagonal_zero(
                obstruction_quadric(n, i, j, k, l)
            ) * R.x(l)
        assert value == expected
    assert all(q.is_zero for q in cup.curly_values.values())


def test_cup_product_vanishes_at_origin():
    from fractions import Fraction

    cup = cup_product(3)
    R = PolyRing.get(3)
    zero_all = {v: Fraction(0) for v in R.t_variables()}
    assert all(v.substitute(zero_all).is_zero for v in cup.wedge_values.values())


@pytest.mark.parametrize("n", [3, 4, 5])
def test_quadratic_locus_spans_miniversal_ideal(n):
    locus = kuranishi_quadratic_locus(n)
    assert locus.flavor == "miniversal"
    assert all(r.ok for r in compare_spans(locus, ideal_generators(n, "miniversal")))


def test_locus_contains_the_off_index_quadrics():
    locus = kuranishi_quadratic_locus(3)
    lab_to_gen = dict(zip(locus.labels, locus.generators))
    assert lab_to_gen["vanish(1;2,3|1)"] == set_diagonal_zero(
        obstruction_quadric(3, 1, 2, 3, 1)
    )


def test_correction_terms_solve_the_coboundary_equation():
    res = coboundary_residuals(3)
    equations = kuranishi_quadratic_locus(3)
    coefficients = [cm for per_wedge in res.values() for cm in per_wedge.values()]
    assert coefficients
    assert all(m.member for _, m in coefficients)
    assert all(m.verify(c, equations) for c, m in coefficients)


@pytest.mark.parametrize("n", [3, 4])
def test_classical_and_dgla_routes_agree(n):
    assert all(r.ok for r in compare_classical_dgla(n))
    classical = miniversal_restriction(second_order_obstruction(n).equations)
    dgla = kuranishi_quadratic_locus(n)
    assert classical.span(2).rank == dgla.span(2).rank
