"""Exact polynomial arithmetic: canonical forms, grammar, ring axioms."""

import random
from fractions import Fraction

import pytest

from hilbworst import based
from hilbworst.based import based_ideal_generators
from hilbworst.ideal import ideal_generators
from hilbworst.lifting import universal_family
from hilbworst.poly import ONE, Poly, PolyRing, UniverseMismatchError, sum_products


R3 = PolyRing.get(3)


def _pairs(m, n) -> tuple:
    """A monomial decoded test-side into its (variable, exponent) pairs,
    sorted by variable."""
    exps: dict = {}
    for p in m[1:]:
        v = PolyRing.get(n).variables[p]
        exps[v] = exps.get(v, 0) + 1
    return tuple(sorted(exps.items()))


def _mono(exps: dict, n) -> tuple:
    """The monomial of a variable -> exponent map, built test-side."""
    position = PolyRing.get(n).position
    ps = sorted(position[v] for v, e in exps.items() for _ in range(e))
    return (-len(ps), *ps)


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
    degrees = [sum(e for _, e in _pairs(m, 3)) for m, _ in terms]
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
    key_x1 = R3.var_mono(R3.x_var(1))
    assert parts[key_x1] == R3.t(1, 2, 3) + R3.t(1, 1, 1)
    assert parts[ONE] == R3.t(2, 2, 2)
    assert len(parts) == 2


def test_multidegree():
    w = (R3.t(1, 2, 3) * R3.x(3)).multidegree()
    assert w == (1, 1, 0)
    with pytest.raises(ValueError):
        (R3.x(1) + R3.x(2)).multidegree()


def test_sort_key_total_order():
    # the monomials' own order is descending graded-lex: total degree
    # first, then the (variable, exponent) pairs, higher exponent first
    p = R3.x(1) * R3.x(2) + R3.x(1) ** 2 + R3.x(2) ** 2 + R3.t(1, 1, 1) * R3.x(3) ** 3
    monos = [m for m, _ in p.terms()]

    def graded_lex(m):
        pairs = _pairs(m, 3)
        return (-sum(e for _, e in pairs), tuple((v, -e) for v, e in pairs))

    assert sorted(monos, key=graded_lex) == monos


# -- exact coefficient form and seeded properties against Fraction references --


def _exact_form(p) -> bool:
    """Every stored coefficient is a nonzero int, or a Fraction that is not
    integral."""
    return all(
        (type(c) is int and c) or (type(c) is Fraction and c.denominator != 1)
        for c in p.terms_dict().values()
    )


def _all_families(ring):
    n = ring.n
    return (
        [ring.x_var(i) for i in range(1, n + 1)]
        + ring.t_variables()[:8]
        + ring.s_variables()[:8]
    )


def _random_exact_poly(rng, ring, nterms=5):
    """Random polynomial built directly in exact form: x-, t- and s-variables,
    int and non-integral coefficients mixed."""
    variables = _all_families(ring)
    terms = {}
    for _ in range(nterms):
        exps = {}
        for _ in range(rng.randint(0, 3)):
            v = rng.choice(variables)
            exps[v] = exps.get(v, 0) + 1
        if rng.random() < 0.5:
            c = rng.choice([-3, -2, -1, 1, 2, 5])
        else:
            c = Fraction(rng.choice([-5, -1, 1, 7, 11]), rng.choice([2, 3, 4]))
        terms[_mono(exps, ring.n)] = c
    return Poly(ring.n, terms)


def _ref(p) -> dict:
    """The terms of p as a (variable, exponent) pairs -> Fraction map."""
    return {_pairs(m, p.n): Fraction(c) for m, c in p.terms_dict().items()}


def _ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def _ref_mul(a: dict, b: dict) -> dict:
    """Product over Fractions, each monomial merged through an exponent
    dict."""
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            m = tuple(sorted(exps.items()))
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c}


def test_ring_axioms_against_fraction_reference():
    rng = random.Random(31337)
    for n in (3, 4):
        R = PolyRing.get(n)
        for _ in range(30):
            a, b, c = (_random_exact_poly(rng, R) for _ in range(3))
            ab, ba = a * b, b * a
            assert _ref(ab) == _ref_mul(_ref(a), _ref(b))
            assert ba == ab
            abc = _ref_mul(_ref_mul(_ref(a), _ref(b)), _ref(c))
            assert _ref(ab * c) == abc
            assert _ref(a * (b * c)) == abc
            dist = a * (b + c)
            assert _ref(dist) == _ref_mul(_ref(a), _ref_add(_ref(b), _ref(c)))
            assert dist == ab + a * c
            assert (a + (-a)).is_zero and (a - a).is_zero
            assert _ref(a + b) == _ref_add(_ref(a), _ref(b))
            q = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            assert _ref(a * q) == _ref_mul(_ref(a), {(): q} if q else {})
            assert _ref(a**2) == _ref_mul(_ref(a), _ref(a))
            results = (ab, ba, ab * c, dist, a + b, a - b, a * q, q * a, a**2, -a)
            assert all(_exact_form(r) for r in results)


def test_powers_against_fraction_reference():
    rng = random.Random(4242)
    R = PolyRing.get(3)
    for _ in range(10):
        a = _random_exact_poly(rng, R, nterms=3)
        ref = {(): Fraction(1)}
        for e in range(6):
            assert _ref(a**e) == ref and _exact_form(a**e)
            ref = _ref_mul(ref, _ref(a))
    assert R3.zero() ** 0 == R3.one() and (R3.zero() ** 3).is_zero


def _single_coefficient(p):
    (c,) = p.terms_dict().values()
    return c


def test_integral_results_are_ints():
    half = Fraction(1, 2) * R3.x(1)
    assert type(_single_coefficient(half * (2 * R3.x(2)))) is int
    assert type(_single_coefficient(half * 2)) is int
    assert type(_single_coefficient(half + half)) is int
    third = R3.const(Fraction(1, 3)) * R3.t(1, 2, 3)
    assert type(_single_coefficient(third**3 * 27)) is int
    assert type(_single_coefficient(R3.const(Fraction(6, 3)))) is int
    assert type(_single_coefficient((half**2).derivative(R3.x_var(1)))) is Fraction
    assert type(_single_coefficient((half * 2) ** 2 * 2)) is int
    assert type(_single_coefficient((R3.x(1) ** 2).derivative(R3.x_var(1)))) is int
    # the public contract: a constant's value is a Fraction
    assert type(R3.const(Fraction(4, 2)).constant_value()) is Fraction
    assert R3.const(Fraction(4, 2)).constant_value() == 2


@pytest.mark.parametrize("n", [3, 4, 5])
def test_library_polynomials_hold_exact_coefficients(n):
    polys = (
        list(ideal_generators(n).generators)
        + list(ideal_generators(n, "miniversal").generators)
        + list(universal_family(n))
        + [g for g, _ in based_ideal_generators(n)]
    )
    assert all(_exact_form(p) for p in polys)
    # the family carries the 1/(n-1) tail, so both forms occur
    coeffs = [c for p in universal_family(n) for c in p.terms_dict().values()]
    assert any(type(c) is int for c in coeffs)
    assert any(type(c) is Fraction for c in coeffs)


def _ref_value(p, point: dict) -> Fraction:
    total = Fraction(0)
    for m, c in p.terms_dict().items():
        term = Fraction(c)
        for v, e in _pairs(m, p.n):
            term *= Fraction(point[v]) ** e
        total += term
    return total


def _variables_of(*polys) -> list:
    return sorted({v for p in polys for m in p.terms_dict() for v, _ in _pairs(m, p.n)})


def test_substitute_matches_evaluate():
    rng = random.Random(4242)
    R = PolyRing.get(4)

    def value():
        if rng.random() < 0.5:
            return rng.randint(-3, 3)
        return Fraction(rng.randint(-7, 7), rng.randint(1, 5))

    for _ in range(40):
        p = _random_exact_poly(rng, R, nterms=6)
        variables = _variables_of(p)
        point = {v: value() for v in variables}
        expected = _ref_value(p, point)
        # full substitution collapses to a Fraction
        full = p.substitute(point)
        assert full.is_constant and _exact_form(full)
        assert type(full.constant_value()) is Fraction
        assert full.constant_value() == expected
        evaluated = p.evaluate(point)
        assert type(evaluated) is Fraction and evaluated == expected
        # a partial substitution, finished by a second one
        if variables:
            first = set(rng.sample(variables, rng.randint(0, len(variables))))
            partial = p.substitute({v: point[v] for v in first})
            assert _exact_form(partial)
            rest = {v: point[v] for v in variables if v not in first}
            assert partial.evaluate(rest) == expected
        # a Poly value: substituting q for v and evaluating agrees with
        # evaluating p where v takes q's value
        if variables:
            v = rng.choice(variables)
            q = _random_exact_poly(rng, R, nterms=3)
            composed = p.substitute({v: q})
            assert _exact_form(composed)
            outer = {w: value() for w in _variables_of(p, q)}
            inner = dict(outer)
            inner[v] = _ref_value(q, outer)
            assert composed.evaluate(outer) == _ref_value(p, inner)


def _random_poly_over(rng, ring, dens, nterms):
    """Random polynomial in exact form whose coefficients have their
    denominators in ``dens``."""
    variables = _all_families(ring)
    terms = {}
    for _ in range(nterms):
        exps = {}
        for _ in range(rng.randint(0, 2)):
            v = rng.choice(variables)
            exps[v] = exps.get(v, 0) + 1
        c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.choice(dens))
        terms[_mono(exps, ring.n)] = c.numerator if c.denominator == 1 else c
    return Poly(ring.n, terms)


def test_sum_products_matches_mul_and_add():
    rng = random.Random(1618)
    for n in (3, 4, 5):
        R = PolyRing.get(n)
        dens = (1, n - 1, (n - 1) ** 2)
        for _ in range(30):
            items = []
            for _ in range(rng.randint(1, 6)):
                scale = rng.choice(
                    [rng.randint(-4, 4), Fraction(rng.randint(-4, 4), rng.choice(dens))]
                )
                a = _random_poly_over(rng, R, dens, rng.randint(0, 4))
                b = _random_poly_over(rng, R, dens, rng.randint(0, 4))
                items.append((scale, a, b))
            if rng.random() < 0.5:
                # a product and its negation, factors swapped, cancel exactly
                c, a, b = rng.choice(items)
                items.append((-c, b, a))
            expected = R.zero()
            for c, a, b in items:
                expected = expected + a * b * c
            got = sum_products(n, items)
            assert got == expected and _exact_form(got)
    # exact cancellation across denominators leaves the zero polynomial
    a, b = R3.x(1) + Fraction(1, 2) * R3.t(1, 2, 3), R3.x(2) - Fraction(1, 4)
    items = [(Fraction(1, 2), a, b), (Fraction(-1, 4), a, b * 2), (3, b, R3.zero())]
    assert sum_products(3, items).terms_dict() == {}
    # integral sums come out as ints
    third = R3.const(Fraction(1, 3)) * R3.x(1)
    items = [(Fraction(3, 2), third, R3.x(2)), (Fraction(1, 2), R3.x(1), R3.x(2))]
    whole = sum_products(3, items)
    assert whole.terms_dict() == {_mono({R3.x_var(1): 1, R3.x_var(2): 1}, 3): 1}
    assert sum_products(3, []) == R3.zero()
    with pytest.raises(UniverseMismatchError):
        sum_products(3, [(1, R3.x(1), PolyRing.get(4).x(1))])


def _ref_substitute(p, assignment) -> dict:
    """Term-by-term substitution in the Fraction reference: each variable of
    a term becomes its rational or ``Poly`` value, or stays."""
    total: dict = {}
    for m, c in p.terms_dict().items():
        term = {(): Fraction(c)}
        for v, e in _pairs(m, p.n):
            val = assignment.get(v)
            if val is None:
                factor = {((v, 1),): Fraction(1)}
            elif isinstance(val, Poly):
                factor = _ref(val)
            else:
                factor = {(): Fraction(val)} if val else {}
            for _ in range(e):
                term = _ref_mul(term, factor)
        total = _ref_add(total, term)
    return total


def _as_assignment(n, image, constants=None) -> dict:
    """The substitution that a renaming of ``Poly.renamed`` stands for: the
    variable at each position of ``image`` -> the variable at its image, and
    at each position of ``constants`` -> its int."""
    ring = PolyRing.get(n)
    variables = ring.variables
    assignment = {variables[p]: ring.var_poly(variables[q]) for p, q in image.items()}
    for p, c in (constants or {}).items():
        assignment[variables[p]] = c
    return assignment


def test_renamed_agrees_with_substitute():
    rng = random.Random(2718)
    for n in (3, 4):
        R = PolyRing.get(n)
        count = len(R.variables)
        for _ in range(40):
            p = _random_exact_poly(rng, R, nterms=rng.randint(1, 8))
            present = sorted({q for m in p.terms_dict() for q in m[1:]})
            # rename some variables of p, onto other variables of p too, so
            # that two terms can merge, and set some to the constants 0 and 1
            image, constants = {}, {}
            for q in rng.sample(present, rng.randint(0, len(present))):
                kind = rng.randrange(4)
                if kind == 0:
                    constants[q] = rng.choice([0, 1])
                elif kind == 1:
                    constants[q] = rng.randint(-3, 3)
                elif kind == 2:
                    image[q] = rng.choice(present)
                else:
                    image[q] = rng.randrange(count)
            got = p.renamed(image, constants)
            want = _ref_substitute(p, _as_assignment(n, image, constants))
            assert _ref(got) == want and _exact_form(got)
    # two terms merge into one, or cancel, under the renaming x(2) -> x(1)
    x1, x2, t = R3.x(1), R3.x(2), R3.t(1, 2, 3)
    merge = {R3.position[R3.x_var(2)]: R3.position[R3.x_var(1)]}
    assert (x1 * t + x2 * t * 3).renamed(merge) == x1 * t * 4
    assert (x1 * t - x2 * t + x2).renamed(merge) == x1
    # two halves merge into an int coefficient
    merged = (x1 * Fraction(1, 2) + x2 * Fraction(1, 2)).renamed(merge)
    assert merged == x1 and _exact_form(merged)
    # the constants 0 and 1: a term set to 0 goes, one set to 1 drops the
    # variable and can meet a term it then cancels
    s = R3.position[R3.s_var(0, 1, 1)]
    p = R3.s(0, 1, 1) * t - t + R3.s(0, 1, 2) * x1
    zero_one = {s: 1, R3.position[R3.s_var(0, 1, 2)]: 0}
    assert p.renamed({}, zero_one).is_zero
    assert p.renamed({}, {s: 0}) == -t + R3.s(0, 1, 2) * x1


def test_substitute_matches_term_by_term_reference():
    rng = random.Random(5772)
    R = PolyRing.get(4)
    variables = _all_families(R)

    def value():
        kind = rng.randrange(4)
        if kind == 0:
            return 0
        if kind == 1:
            return rng.randint(-3, 3)
        if kind == 2:
            return Fraction(rng.randint(-7, 7), rng.randint(1, 5))
        return _random_exact_poly(rng, R, nterms=rng.randint(1, 3))

    for _ in range(60):
        p = _random_exact_poly(rng, R, nterms=6)
        # a partial assignment over all three families
        chosen = rng.sample(variables, rng.randint(0, len(variables)))
        assignment = {v: value() for v in chosen}
        got = p.substitute(assignment)
        assert _ref(got) == _ref_substitute(p, assignment) and _exact_form(got)
    # the based route's substitution table, and its two renamings as the
    # substitutions they stand for
    for n in (3, 4):
        polys = [
            based.associator_coeff(n, 1, 2, k, l)
            for k in range(1, n + 1)
            for l in range(n + 1)
        ]
        unit_sym = _as_assignment(n, *based._unit_sym_table(n))
        for p in polys:
            got = p.substitute(based._pi_table(n))
            assert _ref(got) == _ref_substitute(p, based._pi_table(n))
            assert _exact_form(got)
            got = p.renamed(*based._unit_sym_table(n))
            assert _ref(got) == _ref_substitute(p, unit_sym) and _exact_form(got)
        sigma = _as_assignment(n, based._sigma_table(n))
        for g in ideal_generators(n).generators[:40]:
            got = g.renamed(based._sigma_table(n))
            assert _ref(got) == _ref_substitute(g, sigma)
    with pytest.raises(UniverseMismatchError):
        R3.x(1).substitute({R3.x_var(1): PolyRing.get(4).x(1)})
    with pytest.raises(UniverseMismatchError):
        # a zero factor earlier in the term does not skip the check
        mixed = {R3.x_var(1): 0, R3.x_var(2): PolyRing.get(4).x(1)}
        (R3.x(1) * R3.x(2)).substitute(mixed)


# -- the monomial layout that Poly, the spans and Membership.verify share ------


def _weight(v, n) -> list:
    """Torus weight of one variable, test-side: e_i for x(i), and
    e_i + e_j - e_k for t(i,j,k) and s(i,j,k), index 0 contributing nothing."""
    w = [0] * n
    if v[0] == 0:
        w[v[1] - 1] += 1
        return w
    _, i, j, k = v
    for idx, sign in ((i, 1), (j, 1), (k, -1)):
        if idx:
            w[idx - 1] += sign
    return w


@pytest.mark.parametrize("n", [3, 4, 5])
def test_monomial_layout_is_one_to_one(n):
    ring = PolyRing.get(n)
    r = range(1, n + 1)
    xs = [ring.x_var(i) for i in r]
    ts = [ring.t_var(i, j, k) for i in r for j in range(i, n + 1) for k in r]
    r0 = range(n + 1)
    ss = [ring.s_var(i, j, k) for i in r0 for j in r0 for k in r0]
    assert list(ring.variables) == xs + ts + ss
    assert ring.t_variables() == ts and ring.s_variables() == ss
    assert len(ring.position) == len(ring.variables)
    assert all(ring.position[v] == p for p, v in enumerate(ring.variables))
    # the bounds split the positions into the three families, in order
    bounds = [ring.bounds[f] for f in ("x", "t", "s")]
    assert bounds[0][0] == 0 and bounds[-1][1] == len(ring.variables)
    assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
    for kind, (lo, hi) in enumerate(bounds):
        assert {v[0] for v in ring.variables[lo:hi]} == {kind}

    rng = random.Random(7000 + n)
    families = (xs, ts, ss)
    seen: dict = {}  # multiset -> (monomial, text)
    for _ in range(200):
        picks = [rng.choice(rng.choice(families)) for _ in range(rng.randint(0, 4))]
        exps: dict = {}
        for v in picks:
            exps[v] = exps.get(v, 0) + 1
        product = ring.one()
        for v in picks:
            product = product * ring.var_poly(v)
        ((m, c),) = product.terms_dict().items()
        assert c == 1 and m == _mono(exps, n)
        pieces = []
        for v, e in sorted(exps.items()):
            name = "%s(%s)" % ("xts"[v[0]], ",".join(map(str, v[1:])))
            pieces.append(name + ("^%d" % e if e > 1 else ""))
        assert product.text() == ("*".join(pieces) or "1")
        expected = [sum(col) for col in zip([0] * n, *(_weight(v, n) for v in picks))]
        assert list(product.multidegree()) == expected
        seen[frozenset(exps.items())] = (m, product.text())
    assert len({m for m, _ in seen.values()}) == len(seen)
    assert len({text for _, text in seen.values()}) == len(seen)
