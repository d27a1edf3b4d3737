"""Complex maps, wedge canonicalization, tangent homs and dimension counts."""

import random
from fractions import Fraction

import pytest

from hilbworst.poly import Poly, PolyRing
from hilbworst.taylor import (
    CURLY_NS,
    E_NS,
    WEDGE_NS,
    FreeModElt,
    QuotientElt,
    basis_pairs,
    derivation_image_vector,
    e_elt,
    f_map,
    is_koszul,
    koszul_differential,
    nonkoszul_triple,
    pair,
    r_map,
    r_symbol,
    reduce_mod_squares,
    tangent_dims,
    tangent_hom_apply,
    wedge_symbol,
    wedge_symbols,
    zero_elt,
    _hom_vector,
)

R3 = PolyRing.get(3)


def wedge_elt(n: int, p: tuple, q: tuple, coeff=1, ns: str = WEDGE_NS) -> FreeModElt:
    """Oriented wedge e_p ^ e_q (or e_p v e_q), canonicalized with sign."""
    sym, sign = wedge_symbol(ns, pair(*p), pair(*q))
    if sign == 0:
        return zero_elt(n)
    c = coeff if isinstance(coeff, Poly) else PolyRing.get(n).const(coeff)
    return FreeModElt(n, {sym: c * sign})


def r_oriented(n: int, p: tuple, q: tuple) -> FreeModElt:
    """r on an oriented wedge given by two index pairs (sign-correct)."""
    return r_map(wedge_elt(n, p, q))


def test_f_map_basics():
    assert f_map(e_elt(3, 1, 2)) == R3.x(1) * R3.x(2)
    # e[2,1] canonicalizes onto e[1,2]
    assert e_elt(3, 2, 1) == e_elt(3, 1, 2)
    assert f_map(e_elt(3, 1, 1, coeff=R3.x(3))) == R3.x(3) * R3.x(1) ** 2


def test_wedge_canonicalization():
    assert wedge_elt(3, (1, 2), (1, 2)).is_zero
    assert wedge_elt(3, (1, 3), (1, 2)) == wedge_elt(3, (1, 2), (1, 3)).scale(-1)
    # the two wedge namespaces never collide
    assert wedge_elt(3, (1, 2), (1, 3)) != wedge_elt(3, (1, 2), (1, 3), ns=CURLY_NS)


def test_r_map_koszul_and_divided():
    disjoint = r_oriented(4, (1, 2), (3, 4))
    R4 = PolyRing.get(4)
    expected = e_elt(4, 1, 2, coeff=-R4.x(3) * R4.x(4)) + e_elt(
        4, 3, 4, coeff=R4.x(1) * R4.x(2)
    )
    assert disjoint == expected
    shared = r_oriented(3, (1, 2), (1, 3))
    expected = e_elt(3, 1, 2, coeff=-R3.x(3)) + e_elt(3, 1, 3, coeff=R3.x(2))
    assert shared == expected
    doubled = r_oriented(3, (1, 1), (1, 2))
    expected = e_elt(3, 1, 1, coeff=-R3.x(2)) + e_elt(3, 1, 2, coeff=R3.x(1))
    assert doubled == expected


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_complex_condition_f_r_zero(n):
    for sym in wedge_symbols(n):
        assert f_map(r_symbol(n, sym[1], sym[2])).is_zero


def test_r_map_is_linear_over_wedge_elements():
    w = wedge_elt(3, (1, 2), (1, 3), coeff=R3.x(2)) + wedge_elt(3, (1, 1), (2, 3))
    direct = r_oriented(3, (1, 2), (1, 3)).scale(R3.x(2)) + r_oriented(3, (1, 1), (2, 3))
    assert r_map(w) == direct


# one generator of each namespace, and the namespace each map acts on
NAMESPACE_GENERATORS = {
    E_NS: e_elt(3, 1, 2),
    WEDGE_NS: wedge_elt(3, (1, 2), (1, 3)),
    CURLY_NS: wedge_elt(3, (1, 2), (1, 3), ns=CURLY_NS),
}
NAMESPACE_MAPS = {
    "f_map": (f_map, E_NS),
    "r_map": (r_map, WEDGE_NS),
    "koszul_differential": (koszul_differential, CURLY_NS),
    "tangent_hom_apply": (lambda elt: tangent_hom_apply(3, (1, 2, 3), elt), E_NS),
}


@pytest.mark.parametrize(
    "name,ns",
    [
        (name, ns)
        for name, (_, own) in NAMESPACE_MAPS.items()
        for ns in NAMESPACE_GENERATORS
        if ns != own
    ],
)
def test_maps_reject_symbols_of_another_namespace(name, ns):
    apply, own = NAMESPACE_MAPS[name]
    apply(NAMESPACE_GENERATORS[own])  # its own namespace is accepted
    with pytest.raises(ValueError, match=f"expected '{own}'-symbols"):
        apply(NAMESPACE_GENERATORS[ns])


def _random_poly(rng):
    """A few random rational multiples of x- and t-monomials of degree <= 2."""
    out = R3.zero()
    for _ in range(rng.randint(1, 3)):
        term = R3.const(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for _ in range(rng.randint(0, 2)):
            term = term * rng.choice(
                [R3.x(rng.randint(1, 3)), R3.t(*(rng.randint(1, 3) for _ in "ijk"))]
            )
        out = out + term
    return out


def _random_elt(rng, symbols):
    return FreeModElt(3, {sym: _random_poly(rng) for sym in rng.sample(symbols, 3)})


@pytest.mark.parametrize("valued", ["Poly", "FreeModElt"])
def test_apply_linear_is_module_linear(valued):
    rng = random.Random(20251018)
    e_syms = [(E_NS,) + p for p in basis_pairs(3)]
    w_syms = wedge_symbols(3)
    if valued == "Poly":
        table = {sym: _random_poly(rng) for sym in e_syms}
        zero = R3.zero()
    else:
        table = {sym: _random_elt(rng, w_syms) for sym in e_syms}
        zero = zero_elt(3)

    def apply(elt):
        return elt.apply_linear(table.__getitem__, zero, E_NS)

    assert apply(zero_elt(3)) == zero
    for _ in range(20):
        a, b = _random_elt(rng, e_syms), _random_elt(rng, e_syms)
        c = _random_poly(rng)
        scaled = apply(a).scale(c) if valued == "FreeModElt" else c * apply(a)
        assert apply(a.scale(c) + b) == scaled + apply(b)
        # on one generator the extension is the table entry itself
        sym = rng.choice(e_syms)
        assert apply(FreeModElt(3, {sym: R3.one()})) == table[sym]


def test_nonkoszul_triple_roundtrip():
    for sym in wedge_symbols(4):
        if is_koszul(sym):
            continue
        i, j, k = nonkoszul_triple(sym)
        assert wedge_elt(4, (i, j), (i, k)) == FreeModElt(
            4, {sym: PolyRing.get(4).one()}
        )


def test_koszul_differential_squares_to_zero():
    for sym in wedge_symbols(3, CURLY_NS):
        elt = FreeModElt(3, {sym: R3.one()})
        assert f_map(koszul_differential(elt)).is_zero


def test_quotient_reduction_and_basis():
    assert reduce_mod_squares(R3.x(1) * R3.x(2) + R3.x(3) + 1) == R3.x(3) + 1
    assert reduce_mod_squares(R3.t(1, 2, 3) * R3.x(1) * R3.x(2)).is_zero
    q = QuotientElt.from_poly(R3.x(1) * 2 - 3)
    assert q.components() == {1: 2, 0: -3}
    # the residue classes of 1, x_1..x_n span an (n+1)-dimensional quotient
    reduced = {
        reduce_mod_squares(p)
        for p in [R3.one(), R3.x(1), R3.x(2), R3.x(3), R3.x(1) * R3.x(2), R3.x(1) ** 2]
    }
    assert len(reduced - {R3.zero()}) == 4


def test_tangent_hom_values():
    theta = lambda pr: tangent_hom_apply(3, (1, 2, 3), e_elt(3, *pr))
    assert theta((1, 2)).rep == R3.x(3)
    assert theta((2, 1)).rep == R3.x(3)
    assert theta((1, 3)).is_zero
    assert theta((1, 1)).is_zero


def test_tangent_hom_kills_syzygies():
    # well-definedness: every hom vanishes on the image of r
    for n in (3, 4):
        for ijk in [(1, 2, 3), (1, 1, 1), (2, 2, 1)]:
            for sym in wedge_symbols(n):
                val = tangent_hom_apply(n, ijk, r_symbol(n, sym[1], sym[2]))
                assert val.is_zero


def test_tangent_hom_on_divided_syzygy_example():
    val = tangent_hom_apply(3, (1, 2, 3), r_oriented(3, (1, 2), (1, 3)))
    assert val.is_zero


@pytest.mark.parametrize(
    "n,hom,t1", [(3, 18, 15), (4, 40, 36), (5, 75, 70)]
)
def test_tangent_dimensions(n, hom, t1):
    dims = tangent_dims(n)
    assert dims.hom_dim == hom == n * n * (n + 1) // 2
    assert dims.t1_dim == t1 == (n + 2) * n * (n - 1) // 2


def test_derivation_image_decomposition():
    # the restriction of d/dx_i equals sum_{j != i} theta^{ij}_j plus twice
    # the diagonal hom theta^{ii}_i (the diagonal generator is a square)
    n = 3
    for i in range(1, n + 1):
        expected: dict = {}
        for j in range(1, n + 1):
            weight = 2 if j == i else 1
            for key, c in _hom_vector(n, (min(i, j), max(i, j), j)).items():
                expected[key] = expected.get(key, 0) + weight * c
        assert derivation_image_vector(n, i) == expected


def linear_syzygy_residual(n: int, i: int, j: int, k: int, l: int) -> FreeModElt:
    """x_l * r(e_ij ^ e_ik) - x_k * r(e_ij ^ e_il) + x_j * r(e_ik ^ e_il);
    identically zero for distinct j, k, l."""
    ring = PolyRing.get(n)
    return (
        r_oriented(n, (i, j), (i, k)).scale(ring.x(l))
        - r_oriented(n, (i, j), (i, l)).scale(ring.x(k))
        + r_oriented(n, (i, k), (i, l)).scale(ring.x(j))
    )


def obstruction_degree_check(n: int) -> dict:
    """Sweep the linear syzygies over all i and distinct j, k, l.

    Their vanishing bounds the degrees of the obstruction module from below
    (no homogeneous piece below degree -2)."""
    checked = 0
    failures = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    if j == k or j == l or k == l:
                        continue
                    checked += 1
                    if not linear_syzygy_residual(n, i, j, k, l).is_zero:
                        failures.append((i, j, k, l))
    return {"checked": checked, "failures": failures, "ok": not failures}


def test_linear_syzygy_examples():
    assert linear_syzygy_residual(4, 1, 2, 3, 4).is_zero
    assert linear_syzygy_residual(3, 1, 1, 2, 3).is_zero


@pytest.mark.parametrize("n", [3, 4, 5])
def test_obstruction_degree_check(n):
    report = obstruction_degree_check(n)
    assert report["ok"]
    assert report["checked"] == n * n * (n - 1) * (n - 2)


def test_freemod_text_rendering():
    elt = e_elt(3, 1, 2, coeff=-R3.x(3))
    assert elt.text() == "(-1) * x(3) * e[1,2]"
    w = wedge_elt(3, (1, 2), (1, 3))
    assert w.text() == "(1) * e[1,2]^e[1,3]"
    c = wedge_elt(3, (1, 2), (1, 3), ns=CURLY_NS)
    assert c.text() == "(1) * e[1,2]v[1,3]"
    assert zero_elt(3).text() == "0"
