"""First/second order lifting, the universal family, cubic certificates and
flatness of the full perturbation."""

import json
from fractions import Fraction

import pytest

import hilbworst.lifting as lifting
from hilbworst.cli import main
from hilbworst.ideal import (
    compare_spans,
    diagonal_sum,
    ideal_generators,
    membership,
    obstruction_quadric,
    set_diagonal_zero,
)
from hilbworst.lifting import (
    build_f,
    build_r,
    f1_image,
    first_order_residual,
    flatness_residual,
    koszul_lift_failures,
    r1_oriented,
    second_order_obstruction,
    syzygy_cubic,
    universal_family,
)
from hilbworst.poly import ONE, PolyRing, mono_degree
from hilbworst.taylor import (
    E_NS,
    apply_images,
    basis_pairs,
    e_elt,
    is_koszul,
    nonkoszul_triple,
    pair,
    wedge_symbols,
    zero_elt,
)

R3 = PolyRing.get(3)


def test_f1_image():
    expected = (
        R3.t(1, 2, 1) * R3.x(1) + R3.t(1, 2, 2) * R3.x(2) + R3.t(1, 2, 3) * R3.x(3)
    )
    assert f1_image(3, 1, 2) == expected


def test_r1_shared_index():
    expected = zero_elt(3)
    for lam in range(1, 4):
        expected = expected + e_elt(3, 3, lam, coeff=R3.t(1, 2, lam))
        expected = expected - e_elt(3, 2, lam, coeff=R3.t(1, 3, lam))
    assert r1_oriented(3, 1, 2, 3) == expected


def test_r1_koszul_is_trivial_lift():
    n = 4
    r = build_r(n)
    sym = ("w", (1, 2), (3, 4))
    expected = e_elt(n, 1, 2, coeff=-f1_image(n, 3, 4)) + e_elt(
        n, 3, 4, coeff=f1_image(n, 1, 2)
    )
    assert r[1][sym] == expected


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_first_order_residual_vanishes(n):
    res = first_order_residual(n)
    assert len(res) == len(wedge_symbols(n))
    assert all(p.is_zero for p in res.values())


def test_second_order_coefficients_are_the_quadrics():
    system = second_order_obstruction(3)
    # the vanish(...) constraints are literally the quadrics off the special
    # indices; check the (i, j, k) = (1, 2, 3) wedge against l = 1
    lab_to_gen = dict(zip(system.equations.labels, system.equations.generators))
    assert lab_to_gen["vanish(1;2,3|1)"] == obstruction_quadric(3, 1, 2, 3, 1)


def test_second_order_candidate_tails():
    system = second_order_obstruction(3)
    # for the wedge (1; 2, 3): the coefficient of x_3 gives the candidate
    # tail q(1,2,3|3) on the pair (1,2)
    cands = dict(system.candidates[pair(1, 2)])
    assert cands["wedge(1;2,3)"] == obstruction_quadric(3, 1, 2, 3, 3)


@pytest.mark.parametrize("n", [3, 4])
def test_second_order_products_are_the_quadric_combinations(n):
    # on every shared-index wedge e[i,j]^e[i,k], f1 applied to the lift r1
    # is exactly sum_l q(i,j,k|l) x_l, the diagonal parameters kept
    f1, r1 = build_f(n)[1], build_r(n)[1]
    ring = PolyRing.get(n)
    shared = [sym for sym in wedge_symbols(n) if not is_koszul(sym)]
    assert shared
    for sym in shared:
        i, j, k = nonkoszul_triple(sym)
        expected = ring.zero()
        for l in range(1, n + 1):
            expected = expected + obstruction_quadric(n, i, j, k, l) * ring.x(l)
        assert apply_images(f1, r1[sym]) == expected


@pytest.mark.parametrize("n", [3, 4])
def test_second_order_span_equals_ideal(n):
    system = second_order_obstruction(n)
    assert all(r.ok for r in compare_spans(system.equations, ideal_generators(n)))


@pytest.mark.parametrize("n", [3, 4])
def test_tails_match_canonical_form_modulo_ideal(n):
    system = second_order_obstruction(n)
    pres = ideal_generators(n)
    tails = build_f(n)[2]
    for pr, cands in system.candidates.items():
        canonical = tails[(E_NS,) + pr]
        assert canonical == diagonal_sum(n, *pr) * Fraction(1, n - 1)
        for _, cand in cands:
            diff = cand - canonical
            if not diff.is_zero:
                assert membership(diff, pres).member


def test_universal_family_explicit():
    g = universal_family(3)[0]  # the pair (1, 1)
    expected = (
        R3.x(1) ** 2
        + R3.t(1, 1, 1) * R3.x(1)
        + R3.t(1, 1, 2) * R3.x(2)
        + R3.t(1, 1, 3) * R3.x(3)
        + diagonal_sum(3, 1, 1) * Fraction(1, 2)
    )
    assert g == expected


def test_family_at_origin_recovers_monomial_generators():
    R = PolyRing.get(3)
    zero_all = {v: Fraction(0) for v in R.t_variables()}
    fam = universal_family(3)
    assert [g.substitute(zero_all) for g in fam] == [
        R.x(i) * R.x(j) for i, j in basis_pairs(3)
    ]


def test_family_constant_terms_agree_with_normal_forms():
    # each tail differs from q(i,j,lam|lam) by a member of the ideal, with a
    # certificate that multiplies back out
    n, pres = 3, ideal_generators(3)
    fam = dict(zip(basis_pairs(n), universal_family(n)))
    for (i, j), g in fam.items():
        tail = g.split_by_x().get(ONE, PolyRing.get(n).zero())
        for lam in range(1, n + 1):
            if lam == j:
                continue
            diff = tail - obstruction_quadric(n, i, j, lam, lam)
            assert membership(diff, pres).verify(diff, pres)


def test_miniversal_family_zeroes_diagonal_parameters():
    fam = universal_family(3, "miniversal")
    for g in fam:
        assert set_diagonal_zero(g) == g
    hil = universal_family(3, "hilbert")
    assert [set_diagonal_zero(g) for g in hil] == list(fam)


def test_universal_family_multihomogeneous():
    for g in universal_family(4):
        g.multidegree()  # raises if not multihomogeneous


@pytest.mark.parametrize("ijk", [(1, 2, 3), (1, 1, 2), (2, 3, 1)])
def test_cubic_certificate_exists_and_verifies(ijk):
    n = 3
    pres = ideal_generators(n)
    cubic = syzygy_cubic(n, *ijk)
    cert = membership(cubic, pres)
    assert cert.member
    assert cert.verify(cubic, pres)
    for mult in cert.multipliers.values():
        assert {mono_degree(m, n, "t") for m in mult.terms_dict()} == {1}


def test_syzygy_cubic_requires_distinct_indices():
    with pytest.raises(ValueError):
        syzygy_cubic(3, 1, 2, 2)


def test_cubic_certificate_shape_is_deterministic():
    # golden pin of the deterministic elimination: the certificate for
    # (1,2,3) at n=3 touches exactly these generators of the presentation
    cert = membership(syzygy_cubic(3, 1, 2, 3), ideal_generators(3))
    labels = sorted(
        ideal_generators(3).labels[idx] for idx in cert.multipliers
    )
    assert len(labels) == 7
    assert labels == sorted(set(labels))  # one multiplier per generator


def test_syzygy_cubic_is_the_second_order_composite():
    # (n-1) * f2.r1 on the shared-index wedge equals the cubic
    n, i, j, k = 3, 1, 2, 3
    f = build_f(n)
    r = build_r(n)
    from hilbworst.lifting import apply_images

    sym = ("w", (1, 2), (1, 3))
    composite = apply_images(f[2], r[1][sym])
    assert composite * Fraction(n - 1) == syzygy_cubic(n, i, j, k)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_flatness_certified(n):
    records = flatness_residual(n)
    assert all(r.ok for r in records)
    shared = [s for s in wedge_symbols(n) if set(s[1]) & set(s[2])]
    assert list(dict.fromkeys(r.part[0] for r in records)) == shared
    for sym in shared:
        parts = [r for r in records if r.part[0] == sym]
        assert parts[0].part[1] == "orders 0 and 1"
        assert parts[-1].part[1] == "t-degree-3 part" and parts[-1].cert.member


def _verify_details(n, capsys):
    """The detail of each check of ``verify --route classical``, "" for a
    passing one, rendered by the command line from the flatness records."""
    main(["verify", "--n", str(n), "--route", "classical"])
    docs = map(json.loads, capsys.readouterr().out.splitlines())
    return {d["check"]: d.get("detail", "") for d in docs}


def test_flatness_failure_names_the_x_coefficient(monkeypatch, capsys):
    # t-degree-2 queries answered as non-members: the first wedge fails on
    # its lowest x-coefficient, which is checked before its cubic
    import hilbworst.lifting as lifting
    from hilbworst.ideal import Membership

    def no_quadrics(p, pres):
        if p.degree("t") == 2:
            return Membership(member=False, degree=2, residual=p)
        return membership(p, pres)

    monkeypatch.setattr(lifting, "membership", no_quadrics)
    assert _verify_details(3, capsys)["flatness"] == (
        "flatness certification failed at n=3: 9 of 9 shared-index wedges, "
        "first e[1,1]^e[1,2] (x_1-coefficient of the t-degree-2 part)"
    )


def test_flatness_checks_the_cubic_identity(monkeypatch, capsys):
    # twice the cubic is still in the ideal, but n-1 times the t-degree-3
    # part no longer equals it: only the flatness check fails
    import hilbworst.lifting as lifting

    monkeypatch.setattr(
        lifting, "syzygy_cubic", lambda n, i, j, k: syzygy_cubic(n, i, j, k) * 2
    )
    details = _verify_details(3, capsys)
    assert details["flatness"] == (
        "flatness certification failed at n=3: 9 of 9 shared-index wedges, "
        "first e[1,1]^e[1,2] (t-degree-3 part as the cubic syzygy over n-1)"
    )
    assert details["cubic_syzygy_certificates"] == ""


def _koszul_composite(n):
    """Reference for ``koszul_lift_failures``: the family applied to the
    trivial lift ``lifting.leibniz_value`` of e[p] -> its generator in
    ``universal_family``, on every disjoint wedge; zero at every order."""
    full = {(E_NS,) + p: g for p, g in zip(basis_pairs(n), universal_family(n))}
    return {
        sym: lifting.apply_images(full, lifting.leibniz_value(n, sym, full.__getitem__))
        for sym in wedge_symbols(n)
        if is_koszul(sym)
    }


@pytest.mark.parametrize("n", [3, 4])
def test_koszul_wedges_lift_trivially_to_all_orders(n):
    res = _koszul_composite(n)
    assert res and all(p.is_zero for p in res.values())
    assert koszul_lift_failures(n) == []


_LEIBNIZ = lifting.leibniz_value


def _g_q_on_both(n, sym, image):
    g_q = image((E_NS,) + sym[2])
    return e_elt(n, *sym[2], coeff=g_q) - e_elt(n, *sym[1], coeff=g_q)


# wrong trivial lifts: -(g_p e_q - g_q e_p); the same rule with p and q
# swapped; g_q on both symbols
KOSZUL_LIFT_MUTATIONS = {
    "sign flip": lambda n, sym, image: -_LEIBNIZ(n, sym, image),
    "p/q swap": lambda n, sym, image: _LEIBNIZ(n, (sym[0], sym[2], sym[1]), image),
    "g_q on both": _g_q_on_both,
}


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("mutation", sorted(KOSZUL_LIFT_MUTATIONS))
def test_koszul_check_fails_a_wrong_lift(n, mutation, monkeypatch):
    # the cached tables are built first, so no mutated r1 leaks out
    build_f(n), build_r(n)
    monkeypatch.setattr(lifting, "leibniz_value", KOSZUL_LIFT_MUTATIONS[mutation])
    failures = koszul_lift_failures(n)
    assert failures and all(is_koszul(sym) for sym in failures)
    composite_fails = not all(p.is_zero for p in _koszul_composite(n).values())
    # the composite misses the first two; whatever it catches, so does the check
    assert composite_fails == (mutation == "g_q on both")


@pytest.mark.parametrize("n", [3, 4])
def test_koszul_check_ties_the_lift_to_the_koszul_relation(n, monkeypatch):
    r0 = build_r(n)[0]
    sym = next(s for s in wedge_symbols(n) if is_koszul(s))
    monkeypatch.setitem(r0, sym, -r0[sym])  # restored after the test
    assert koszul_lift_failures(n) == [sym]
    assert all(p.is_zero for p in _koszul_composite(n).values())


def test_wrong_koszul_lift_fails_verify(monkeypatch, capsys):
    build_f(3), build_r(3)
    monkeypatch.setattr(lifting, "leibniz_value", KOSZUL_LIFT_MUTATIONS["sign flip"])
    assert main(["verify", "--n", "3", "--route", "classical"]) == 1
    captured = capsys.readouterr()
    assert "classical/koszul_trivial_lift" in captured.err


def test_low_n_rejected():
    with pytest.raises(ValueError):
        build_f(2)
    with pytest.raises(ValueError):
        universal_family(2)
