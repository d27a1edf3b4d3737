"""Exact polynomial arithmetic: canonical forms, grammar, ring axioms."""

import random
from fractions import Fraction

import pytest

from hilbworst.poly import Poly, PolyRing, UniverseMismatchError, mono_sort_key


R3 = PolyRing.get(3)


def test_difference_of_squares():
    assert (R3.x(1) + R3.x(2)) * (R3.x(1) - R3.x(2)) == R3.x(1) ** 2 - R3.x(2) ** 2


def test_additive_identity():
    p = R3.x(1) * R3.t(1, 2, 3) - 5
    assert p + R3.zero() == p
    assert p + 0 == p


def test_t_variable_symmetrization():
    assert R3.t(2, 1, 3) == R3.t(1, 2, 3)
    assert R3.t(1, 2, 3) * R3.t(2, 1, 3) == R3.t(1, 2, 3) ** 2
    # all i > j collapse onto the stored i <= j variable
    for i in range(1, 4):
        for j in range(1, 4):
            for k in range(1, 4):
                assert R3.t_var(i, j, k) == R3.t_var(j, i, k)


def test_s_variables_not_symmetrized():
    assert R3.s(1, 2, 3) != R3.s(2, 1, 3)
    assert R3.s(0, 0, 0) == R3.s(0, 0, 0)


def test_index_validation():
    with pytest.raises(ValueError):
        R3.x(0)
    with pytest.raises(ValueError):
        R3.x(4)
    with pytest.raises(ValueError):
        R3.t(1, 2, 4)
    with pytest.raises(ValueError):
        R3.t(0, 1, 1)
    with pytest.raises(ValueError):
        R3.s(-1, 0, 0)
    with pytest.raises(ValueError):
        R3.s(1, 2, 4)


def test_universe_mismatch_rejected():
    R4 = PolyRing.get(4)
    with pytest.raises(UniverseMismatchError):
        R3.x(1) + R4.x(1)
    with pytest.raises(UniverseMismatchError):
        R3.x(1) * R4.x(1)


def test_evaluate_full_and_partial():
    p = R3.x(1) * R3.x(2)
    assert p.evaluate({R3.x_var(1): 2, R3.x_var(2): 3}) == 6
    q = (R3.t(1, 1, 1) * R3.t(1, 1, 1)).evaluate({R3.t_var(1, 1, 1): -1})
    assert q == 1
    partial = p.substitute({R3.x_var(1): Fraction(2)})
    assert partial == 2 * R3.x(2)
    assert not partial.is_constant


def test_substitute_with_polynomial_values():
    p = R3.x(1) ** 2 + R3.x(2)
    out = p.substitute({R3.x_var(1): R3.x(2) + 1})
    assert out == R3.x(2) ** 2 + 3 * R3.x(2) + 1


def test_term_order_and_grammar():
    p = R3.x(1) ** 2 - R3.x(2) ** 2
    assert str(p) == "x(1)^2 - x(2)^2"
    q = 2 * R3.x(1) * R3.x(2) + Fraction(3, 2) * R3.t(1, 2, 3)
    assert str(q) == "2*x(1)*x(2) + 3/2*t(1,2,3)"
    assert str(R3.zero()) == "0"
    assert str(R3.const(Fraction(-7, 3))) == "-7/3"
    # x-variables come before t- before s-variables, higher degree first
    r = R3.s(0, 1, 2) + R3.t(1, 1, 1) + R3.x(3) + R3.x(1) * R3.x(3)
    assert str(r) == "x(1)*x(3) + x(3) + t(1,1,1) + s(0,1,2)"


def test_cas_text():
    q = 2 * R3.x(1) * R3.x(2) + Fraction(3, 2) * R3.t(1, 2, 3)
    assert q.text(cas=True) == "2*x_1*x_2 + 3/2*t_1_2_3"


def test_monomial_order_is_graded():
    terms = list((R3.x(1) + R3.x(1) * R3.x(2) + R3.one()).terms())
    degrees = [sum(e for _, e in m) for m, _ in terms]
    assert degrees == sorted(degrees, reverse=True)


def _random_poly(rng, ring, nterms=4):
    vars_ = [ring.x(1), ring.x(2), ring.t(1, 2, 3), ring.t(1, 1, 2), ring.s(0, 1, 1)]
    p = ring.zero()
    for _ in range(nterms):
        term = ring.const(Fraction(rng.randint(-5, 5), rng.randint(1, 5)))
        for _ in range(rng.randint(0, 3)):
            term = term * rng.choice(vars_)
        p = p + term
    return p


def test_ring_axioms_on_random_samples():
    rng = random.Random(20240809)
    for _ in range(40):
        a = _random_poly(rng, R3)
        b = _random_poly(rng, R3)
        c = _random_poly(rng, R3)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def test_canonicalization_idempotent():
    rng = random.Random(99)
    for _ in range(20):
        p = _random_poly(rng, R3)
        rebuilt = Poly(p.n, p.terms_dict())
        assert rebuilt == p
        assert str(rebuilt) == str(p)
        assert Poly(rebuilt.n, rebuilt.terms_dict()) == rebuilt


def test_zero_coefficients_never_stored():
    p = R3.x(1) - R3.x(1)
    assert p.is_zero and len(p.terms_dict()) == 0
    q = R3.x(1) * R3.x(2) + R3.x(2) * R3.x(1) - 2 * R3.x(1) * R3.x(2)
    assert q.is_zero


def test_derivative():
    p = R3.x(1) ** 3 * R3.x(2) + 2 * R3.x(2)
    assert p.derivative(R3.x_var(1)) == 3 * R3.x(1) ** 2 * R3.x(2)
    assert p.derivative(R3.x_var(2)) == R3.x(1) ** 3 + R3.const(2)


def test_split_by_x():
    p = R3.t(1, 2, 3) * R3.x(1) + R3.t(1, 1, 1) * R3.x(1) + R3.t(2, 2, 2)
    parts = p.split_by_x()
    key_x1 = ((R3.x_var(1), 1),)
    assert parts[key_x1] == R3.t(1, 2, 3) + R3.t(1, 1, 1)
    assert parts[()] == R3.t(2, 2, 2)


def test_multidegree():
    w = (R3.t(1, 2, 3) * R3.x(3)).multidegree()
    assert w == (1, 1, 0)
    with pytest.raises(ValueError):
        (R3.x(1) + R3.x(2)).multidegree()


def test_sort_key_total_order():
    monos = [m for m, _ in (R3.x(1) * R3.x(2) + R3.x(1) ** 2 + R3.x(2) ** 2).terms()]
    assert sorted(monos, key=mono_sort_key) == monos
