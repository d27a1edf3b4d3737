"""Quadric identities, generator presentations, membership and normal forms."""

import hashlib
import itertools
import json
import random
from fractions import Fraction
from itertools import groupby

import pytest

from hilbworst import cli, ideal, lifting
from hilbworst.based import _reduced_associators, associator_coeff, structure_to_params
from hilbworst.ideal import (
    GradedSpan,
    IdealPresentation,
    Membership,
    UnsupportedDegreeError,
    _orbit,
    _packed,
    alternate_generators,
    compare_spans,
    deduplicated,
    diagonal_sum,
    ideal_generators,
    membership,
    obstruction_quadric,
    orbit_memberships,
    permuted,
    set_diagonal_zero,
    transported,
    vanishes_at,
)
from hilbworst.linalg import EchelonSpan
from hilbworst.poly import (
    ONE,
    Poly,
    PolyRing,
    mono_degree,
    mono_mul,
    mono_multidegree,
    mono_text,
)

# Golden values computed when the suite was first built: number of kept
# generators and the dimension of their degree-2 span (the presentation
# keeps linear dependencies, so these differ).
GOLDEN = {3: (18, 15), 4: (96, 64), 5: (300, 175)}


def _degrees(p, grading):
    """The degrees of p's terms in one grading; p is homogeneous in it when
    there is at most one."""
    return {mono_degree(m, p.n, grading) for m in p.terms_dict()}


def test_deduplicated_drops_zeros_duplicates_and_negations():
    R = PolyRing.get(3)
    # a chart presentation holds t-quadrics only
    a, b = R.t(1, 2, 3) * R.t(1, 1, 2), R.t(1, 1, 1) * R.t(2, 2, 2)
    labeled = [(R.zero(), "zero"), (a, "a"), (b, "b"), (a, "a again"), (-b, "-b")]
    pres = deduplicated(3, "miniversal", labeled)
    assert pres.n == 3 and pres.flavor == "miniversal"
    assert pres.generators == (a, b)
    assert pres.labels == ("a", "b")


def test_quadric_collapses_when_middle_indices_agree():
    assert obstruction_quadric(3, 1, 2, 2, 3).is_zero


def test_quadric_antisymmetry_small():
    g = obstruction_quadric(3, 1, 2, 3, 1) + obstruction_quadric(3, 1, 3, 2, 1)
    assert g.is_zero


@pytest.mark.parametrize("n", [3, 4])
def test_quadric_antisymmetry_and_cyclic_sweep(n):
    rng = range(1, n + 1)
    for i, j, k, l in itertools.product(rng, repeat=4):
        assert (
            obstruction_quadric(n, i, j, k, l) + obstruction_quadric(n, i, k, j, l)
        ).is_zero
        assert (
            obstruction_quadric(n, i, j, k, l)
            + obstruction_quadric(n, j, k, i, l)
            + obstruction_quadric(n, k, i, j, l)
        ).is_zero


def test_quadric_is_a_single_t_degree_2_component():
    g = obstruction_quadric(3, 1, 2, 3, 1)
    assert _degrees(g, "t") == {2}
    # and vanishes at the origin of the parameter space
    R = PolyRing.get(3)
    assert g.evaluate({v: 0 for v in R.t_variables()}) == 0


def test_quadric_expansion_matches_hand_built_sum():
    # independent construction straight from the defining sum at n=4
    R = PolyRing.get(4)
    expected = R.zero()
    for lam in range(1, 5):
        expected = expected + R.t(1, 2, lam) * R.t(3, lam, 4)
        expected = expected - R.t(1, 3, lam) * R.t(2, lam, 4)
    assert obstruction_quadric(4, 1, 2, 3, 4) == expected
    assert len(expected.terms_dict()) == 8


def _quadric_as_poly_sum(n, i, j, k, l):
    """Test-side reference: the defining sum of 2n ``Poly`` products."""
    R = PolyRing.get(n)
    total = R.zero()
    for lam in range(1, n + 1):
        total = total + R.t(i, j, lam) * R.t(k, lam, l)
        total = total - R.t(i, k, lam) * R.t(j, lam, l)
    return total


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_quadric_term_dict_matches_the_poly_sum(n):
    for idx in itertools.product(range(1, n + 1), repeat=4):
        built, reference = obstruction_quadric(n, *idx), _quadric_as_poly_sum(n, *idx)
        assert built == reference
        # the same terms in the same order, so every dict built from them is too
        assert list(built.terms_dict().items()) == list(reference.terms_dict().items())


@pytest.mark.parametrize("n", [3, 4, 5])
def test_generator_counts_and_rank(n):
    pres = ideal_generators(n)
    count, rank = GOLDEN[n]
    assert len(pres) == count
    assert pres.span(2).rank == rank
    assert len(pres.labels) == count


@pytest.mark.parametrize("n", [3, 4])
def test_generators_homogeneous_quadratic(n):
    for g in ideal_generators(n).generators:
        assert _degrees(g, "t") == {2}
        assert g.degree("x") == 0 and g.degree("s") == 0


def test_miniversal_is_substitution_image():
    pres = ideal_generators(3)
    mini = ideal_generators(3, "miniversal")
    images = [set_diagonal_zero(g) for g in pres.generators]
    images = [g for g in images if not g.is_zero]
    assert list(mini.generators) == images


@pytest.mark.parametrize("n", [3, 4])
def test_set_diagonal_zero_is_the_substitution(n):
    # dropping the terms that hold a t(i,i,i) gives what substituting 0 for
    # every t(i,i,i) gives, on seeded polynomials in x, t and s, and on 0
    ring = PolyRing.get(n)
    diagonal = [ring.t_var(i, i, i) for i in range(1, n + 1)]
    reference = {v: 0 for v in diagonal}
    rng = random.Random(20261020 + n)
    polys = [ring.zero()]
    for _ in range(300):
        p = ring.zero()
        for _ in range(rng.randint(1, 6)):
            term = ring.const(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
            for _ in range(rng.randint(0, 3)):
                pool = diagonal if rng.random() < 0.3 else ring.variables
                term = term * ring.var_poly(rng.choice(pool))
            p = p + term
        polys.append(p)
    changed = 0
    for p in polys:
        got = set_diagonal_zero(p)
        assert got == p.substitute(reference)
        changed += got != p
    assert 0 < changed < len(polys)
    positions = {q for p in polys for m in p.terms_dict() for q in m[1:]}
    assert len({ring.variables[q][0] for q in positions}) == 3  # x, t and s


@pytest.mark.parametrize("flavor", ["hilbert", "miniversal"])
def test_one_presentation_per_ideal(flavor):
    pres = ideal_generators(3, flavor)
    assert ideal_generators(3, flavor=flavor) is pres
    assert ideal_generators(n=3, flavor=flavor) is pres
    if flavor == "hilbert":
        assert ideal_generators(3) is pres
        assert alternate_generators(3) is alternate_generators(n=3)


def test_alternate_presentation_contains_equal_index_generators():
    # for i == j the difference families of the two presentations agree
    g = obstruction_quadric(3, 1, 1, 2, 2) - obstruction_quadric(3, 1, 1, 3, 3)
    main = ideal_generators(3).generators
    alt = alternate_generators(3).generators
    assert any(h == g or h == -g for h in main)
    assert any(h == g or h == -g for h in alt)


@pytest.mark.parametrize("n", [3, 4])
def test_alternate_span_equality_with_certificates(n):
    main = ideal_generators(n)
    alt = alternate_generators(n)
    # true only if every certificate passes Membership.verify
    assert all(r.ok for r in compare_spans(main, alt))


def test_compare_spans_names_generators_by_index():
    # a presentation built without labels still has each generator checked
    main = ideal_generators(3)
    bare = IdealPresentation(3, "hilbert", main.generators)
    records = compare_spans(bare, main)
    count = len(main.generators)
    assert [r.part for r in records] == [
        (side, idx) for side in ("a", "b") for idx in range(count)
    ]
    assert all(r.ok for r in records)


def _asked(monkeypatch) -> list:
    """The queries that ``ideal.membership`` is asked from now on."""
    asked, real = [], ideal.membership

    def spy(p, pres):
        asked.append(p)
        return real(p, pres)

    monkeypatch.setattr(ideal, "membership", spy)
    return asked


def test_compare_spans_certifies_shared_generators_by_index(monkeypatch):
    # b holds the generators of a negated and in reverse order: each is
    # certified by its index in the other presentation with the constant
    # multiplier -1, and no membership query is asked
    a = ideal_generators(3)
    count = len(a.generators)
    b = IdealPresentation(3, "hilbert", tuple(-g for g in reversed(a.generators)))
    asked = _asked(monkeypatch)
    records = compare_spans(a, b)
    assert asked == []
    assert all(r.ok for r in records)
    for r in records:
        side, idx = r.part
        assert r.cert.multipliers == {count - 1 - idx: -1}
        (mult,) = r.cert.multipliers.values()
        assert mult.terms_dict() == {ONE: -1}
    # the same presentation shares every generator with sign +1
    assert [r.cert.multipliers for r in compare_spans(a, a)] == [
        {idx: 1} for _ in ("a", "b") for idx in range(count)
    ]


def test_compare_spans_asks_membership_for_a_changed_generator(monkeypatch):
    # a generator with one coefficient doubled is not held by the other
    # presentation, so it goes to membership; the unchanged ones do not
    main = ideal_generators(3)
    g = main.generators[0]
    terms = g.terms_dict()
    mono = next(iter(terms))
    terms[mono] *= 2
    changed = Poly(3, terms)
    a = IdealPresentation(3, "hilbert", (changed, *main.generators[1:]))
    asked = _asked(monkeypatch)
    records = compare_spans(a, main)
    assert asked == [changed, g]  # ("a", 0), then ("b", 0) in a
    answer = membership(changed, main)
    assert records[0].cert == answer
    assert records[0].ok == answer.verify(changed, main)
    assert all(r.ok for r in records[1 : len(a)])


def test_compare_spans_fails_on_a_corrupted_signed_index():
    # a signed index that names the wrong generator, or the wrong sign,
    # gives a certificate that does not multiply back out
    main = ideal_generators(3)
    for corrupt in ((1, 1), (0, -1)):
        dst = IdealPresentation(3, "hilbert", main.generators)
        ideal._signed_index(dst)[main.generators[0]] = corrupt
        records = compare_spans(main, dst)
        assert [r.part for r in records if not r.ok] == [("a", 0)]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_orbit_enumerates_the_distinct_orderings(n):
    # against the reference, every ordering deduplicated, on the sorted
    # multidegree of each degree-3 t-monomial; those are the multidegrees of
    # the index strings (i1,j1,k1,...,i3,j3,k3) up to renaming the indices,
    # so each index is at most one more than the largest before it
    strings = [()]
    for _ in range(9):
        strings = [
            s + (x,)
            for s in strings
            for x in range(1, min(max(s, default=0) + 1, n) + 1)
        ]
    ring = PolyRing.get(n)
    multidegrees = set()
    for s in strings:
        monomial = ONE
        for i, j, k in (s[:3], s[3:6], s[6:]):
            monomial = mono_mul(monomial, ring.var_mono(ring.t_var(i, j, k)))
        multidegrees.add(tuple(sorted(mono_multidegree(monomial, n))))
    for md in multidegrees:
        assert _orbit(md) == {_packed(p) for p in set(itertools.permutations(md))}
    # the orbit of (2,1,0,...,0) at n=12: 132 keys, not a walk of 12! orderings
    assert len(_orbit((2, 1) + (0,) * 10)) == 132


def test_membership_of_listed_generator_has_unit_certificate():
    pres = ideal_generators(3)
    g = obstruction_quadric(3, 1, 2, 3, 1)
    cert = membership(g, pres)
    assert cert.member
    assert cert.verify(g, pres)
    idx = pres.generators.index(g)
    assert cert.multipliers == {idx: PolyRing.get(3).one()}
    assert pres.labels[idx] == "q(1,2,3|1)"


def test_membership_of_difference_family_member():
    pres = ideal_generators(3)
    g = obstruction_quadric(3, 1, 1, 2, 2) - obstruction_quadric(3, 1, 1, 3, 3)
    cert = membership(g, pres)
    assert cert.member and cert.verify(g, pres)


def test_membership_degree_one_never_member():
    pres = ideal_generators(3)
    cert = membership(PolyRing.get(3).t(1, 2, 3), pres)
    assert not cert.member
    assert cert.residual == PolyRing.get(3).t(1, 2, 3)


def test_membership_rejects_unsupported_queries():
    pres = ideal_generators(3)
    R = PolyRing.get(3)
    with pytest.raises(UnsupportedDegreeError):
        membership(R.t(1, 2, 3) ** 4, pres)
    with pytest.raises(UnsupportedDegreeError):
        membership(R.t(1, 2, 3) + R.t(1, 2, 3) ** 2, pres)
    with pytest.raises(UnsupportedDegreeError):
        membership(R.x(1) * R.t(1, 2, 3), pres)
    assert membership(R.zero(), pres).member


def test_membership_rejects_x_and_s_variables_before_homogeneity():
    pres = ideal_generators(3)
    R = PolyRing.get(3)
    only_params = "deformation parameters only"
    with pytest.raises(UnsupportedDegreeError, match=only_params):
        membership(R.s(1, 2, 3) * R.t(1, 2, 3), pres)
    # inhomogeneous in t as well, but the x-term decides the error
    with pytest.raises(UnsupportedDegreeError, match=only_params):
        membership(R.x(1) * R.t(1, 2, 3) + R.t(1, 1, 1) ** 2, pres)
    with pytest.raises(UnsupportedDegreeError, match="homogeneous"):
        membership(R.t(1, 2, 3) + R.t(1, 2, 3) ** 2, pres)


def test_vanishes_at_rejects_x_and_s_variables():
    R = PolyRing.get(3)
    for g in (R.s(1, 2, 3) - R.s(2, 1, 3), R.x(1) * R.t(1, 1, 1)):
        # such a presentation is refused when built, so no point reaches it
        with pytest.raises(UnsupportedDegreeError) as exc:
            IdealPresentation(3, "hilbert", (R.t(1, 2, 3) ** 2, g))
        assert str(exc.value).endswith(g.text())
    # a point names t-variables by index triples in 1..n
    for key in ((1, 2, 4), (0, 1, 1)):
        with pytest.raises(ValueError, match="out of range"):
            vanishes_at(ideal_generators(3), {key: 1})


def test_membership_non_member_quadric():
    pres = ideal_generators(3)
    R = PolyRing.get(3)
    q = R.t(1, 2, 3) * R.t(1, 2, 3)
    cert = membership(q, pres)
    assert not cert.member
    assert not cert.residual.is_zero


def test_blocked_span_routes_by_key():
    R = PolyRing.get(3)
    a = R.t(1, 1, 1) * R.t(1, 1, 1)  # t-degree 2, multidegree (2, 0, 0)
    b = R.t(1, 1, 1) * R.t(1, 2, 2)  # the same block
    c = R.t(1, 1, 1) * R.t(1, 2, 3)  # t-degree 2, multidegree (2, 1, -1)
    span = GradedSpan(3)
    for p, tag in ((c, "r0"), (a + b, "r1")):
        span.insert(_packed(p.multidegree()), p.terms_dict(), tag)
    residual, used = span.reduce((2 * c + a + b).terms_dict())
    assert not residual
    assert used == {"r0": 2, "r1": 1}


@pytest.mark.parametrize("n, rank, blocks", [(3, 235, 37), (4, 2364, 176)])
def test_degree3_span_rank_and_blocks(n, rank, blocks):
    span = _grown_span3(_fresh_copy(ideal_generators(n)))
    assert (span.rank, len(span.blocks)) == (rank, blocks)


@pytest.mark.parametrize("n", [3, 4])
def test_degree3_span_from_independent_generators(n, monkeypatch):
    # the span of v*g over all generators g equals span(3) block by block:
    # skipping the generators dependent in degree 2 loses nothing
    pres = ideal_generators(n)
    R = PolyRing.get(n)
    tvars = R.t_variables()
    full = GradedSpan(n)
    for idx, g in enumerate(pres.generators):
        for v in tvars:
            p = R.var_poly(v) * g
            full.insert(_packed(p.multidegree()), p.terms_dict(), (R.var_mono(v), idx))

    inserts = []
    real_insert = GradedSpan.insert

    def counted(self, key, row, tag):
        inserts.append(tag)
        return real_insert(self, key, row, tag)

    fresh = _fresh_copy(pres)
    fresh.span(2)
    monkeypatch.setattr(GradedSpan, "insert", counted)
    span = _grow_every_block(fresh.span(3), full)
    monkeypatch.undo()
    independent = GOLDEN[n][1]
    assert len(inserts) == independent * len(tvars)
    assert len({idx for _, idx in inserts}) == independent

    assert span.blocks.keys() == full.blocks.keys()
    for key, block in span.blocks.items():
        assert block.rank == full.blocks[key].rank
        assert set(block.pivots()) == set(full.blocks[key].pivots())
    rng = random.Random(402 + n)
    for _ in range(20):
        p = R.zero()
        for _ in range(3):
            g = pres.generators[rng.randrange(len(pres))]
            v = tvars[rng.randrange(len(tvars))]
            p = p + R.var_poly(v) * g * Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if rng.random() < 0.3:
            p = p + R.var_poly(rng.choice(tvars)) ** 3
        query = p.terms_dict()
        assert span.reduce(query) == full.reduce(query)


def _fresh_copy(pres):
    return IdealPresentation(pres.n, pres.flavor, pres.generators, pres.labels)


def _eager_span3(pres):
    """The reference degree-3 span, built whole: every product v*g as a
    ``Poly`` product, for g independent in degree 2 in the order of
    ``span(2)`` and v in ``t_variables()`` order, tagged (monomial of v,
    generator index)."""
    R = PolyRing.get(pres.n)
    pres.span(2)
    span = GradedSpan(pres.n)
    for idx in pres._independent:
        for v in R.t_variables():
            p = R.var_poly(v) * pres.generators[idx]
            span.insert(_packed(p.multidegree()), p.terms_dict(), (R.var_mono(v), idx))
    return span


def _grow_every_block(span, reference):
    """``span`` after one query in each block of ``reference``."""
    for block in reference.blocks.values():
        span.reduce({next(iter(block._rows)): 1})
    return span


def _grown_span3(pres):
    """``pres.span(3)`` with every block that holds a row grown."""
    return _grow_every_block(pres.span(3), _eager_span3(pres))


def _random_cubics(rng, pres, count):
    """Rational combinations of one to three products v*g, every other one
    plus a random t-monomial of degree 3, which is usually not a member."""
    R = PolyRing.get(pres.n)
    tvars = R.t_variables()
    cubics = []
    for i in range(count):
        p = R.zero()
        for _ in range(rng.randint(1, 3)):
            g = pres.generators[rng.randrange(len(pres))]
            v = rng.choice(tvars)
            p = p + R.var_poly(v) * g * Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if i % 2:
            u, v, w = (R.var_poly(rng.choice(tvars)) for _ in range(3))
            p = p + u * v * w
        cubics.append(p)
    return cubics


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("flavor", ["hilbert", "miniversal", "alternate"])
def test_on_demand_span_equals_span3(n, flavor):
    # every block the degree-3 span grows on demand equals the block of the
    # reference built whole in the tests, row for row, pivot for pivot and
    # combination for combination, and membership against it answers as
    # against the reference
    if flavor == "alternate":
        pres = alternate_generators(n)
    else:
        pres = ideal_generators(n, flavor)
    fresh = _fresh_copy(pres)
    eager, demand = _eager_span3(fresh), fresh.span(3)
    assert demand is not eager and not demand.blocks
    for block in eager.blocks.values():
        demand.reduce({next(iter(block._rows)): 1})
    assert demand.blocks.keys() == eager.blocks.keys()
    for key, block in eager.blocks.items():
        assert list(demand.blocks[key]._rows.items()) == list(block._rows.items())
        assert demand.blocks[key]._combos == block._combos

    queried, reference = _fresh_copy(pres), _fresh_copy(pres)
    reference._spans[3] = _eager_span3(reference)
    for p in _random_cubics(random.Random(600 + n), pres, 16):
        got, want = membership(p, queried), membership(p, reference)
        assert (got.member, got.residual, got.multipliers) == (
            want.member,
            want.residual,
            want.multipliers,
        )
        assert got.member == got.verify(p, queried)


def test_membership_builds_the_orbits_its_queries_reach(monkeypatch):
    # one query builds its block alone
    pres = _fresh_copy(ideal_generators(4))
    cubic = PolyRing.get(4).t(1, 2, 3) * pres.generators[0]
    assert membership(cubic, pres).member
    (m, *_) = cubic.terms_dict()
    multidegree = mono_multidegree(m, 4)
    assert pres.span(3).blocks.keys() == {_packed(multidegree)}

    # a query in a second block of that S_n orbit builds the rest of it
    other = permuted(cubic, (2, 3, 4, 1))
    (m2, *_) = other.terms_dict()
    assert mono_multidegree(m2, 4) != multidegree
    assert membership(other, pres).verify(other, pres)
    orbit = set(itertools.permutations(multidegree))
    assert {_packed(md) for md in orbit} == pres.span(3).blocks.keys()

    # the flatness pass asks one cubic in each of the two S_n orbits of its
    # blocks, sorted multidegrees (0,0,1,2) and (0,1,1,1): it builds 2 of
    # the 176 blocks, one in each orbit
    pres = _fresh_copy(ideal_generators(4))
    monkeypatch.setattr(lifting, "ideal_generators", lambda n: pres)
    assert all(r.ok for r in lifting.flatness_residual(4))
    span = pres.span(3)
    assert len(span.blocks) == 2
    orbits = {
        tuple(sorted(mono_multidegree(next(iter(block._rows)), 4)))
        for block in span.blocks.values()
    }
    assert orbits == {(0, 0, 1, 2), (0, 1, 1, 1)}

    # no product v*g lies in the block of t(1,1,2)^3, nor in its orbit
    cube = PolyRing.get(4).t(1, 1, 2) ** 3
    pres = _fresh_copy(ideal_generators(4))
    answer = membership(cube, pres)
    assert not answer.member and answer.residual == cube
    assert pres.span(3).blocks == {}


def test_permuted_is_the_index_substitution():
    # permuted agrees with substituting t(σi,σj,σk) for every t(i,j,k), and
    # permuting by σ, then by τ, is permuting by τ∘σ
    n = 4
    R = PolyRing.get(n)
    p = R.t(1, 2, 3) * R.t(2, 2, 4) - Fraction(3, 2) * R.t(4, 1, 1) ** 2 + R.t(3, 3, 3)
    sigma, tau = (3, 1, 4, 2), (2, 1, 3, 4)
    images = {v: R.t(*(sigma[i - 1] for i in v[1:])) for v in R.t_variables()}
    assert permuted(p, sigma) == p.substitute(images)
    tau_sigma = tuple(tau[s - 1] for s in sigma)
    assert permuted(permuted(p, sigma), tau) == permuted(p, tau_sigma)
    assert permuted(p, (1, 2, 3, 4)) == p


@pytest.mark.parametrize("n", [3, 4, 5])
def test_permutations_map_generators_and_cubics(n):
    # a transposition and an n-cycle, which generate S_n, map every
    # generator of both flavors to ± a generator, and the cubic syzygy at
    # (i, j, k) to the one at (σi, σj, σk)
    sigmas = [(2, 1, *range(3, n + 1)), (*range(2, n + 1), 1)]
    for flavor in ("hilbert", "miniversal"):
        pres = ideal_generators(n, flavor)
        signed = set(pres.generators) | {-g for g in pres.generators}
        for sigma in sigmas:
            assert all(permuted(g, sigma) in signed for g in pres.generators)
    for sigma in sigmas:
        for i, j, k in [(1, 1, 2), (1, 2, 3), (3, 1, 2), (2, 1, 2)]:
            image = (sigma[i - 1], sigma[j - 1], sigma[k - 1])
            cubic = lifting.syzygy_cubic(n, i, j, k)
            assert permuted(cubic, sigma) == lifting.syzygy_cubic(n, *image)


def test_forged_transport_fails_verify():
    # σ = (2, 3, 1, 4) sends the triple (1, 2, 3) to (2, 3, 1): the
    # transported certificate verifies for the cubic there, and neither the
    # one with the wrong sign nor the one carried by (1, 2, 4, 3), which
    # sends (1, 2, 3) to (1, 2, 4), does
    n = 4
    pres = ideal_generators(n)
    cert = membership(lifting.syzygy_cubic(n, 1, 2, 3), pres)
    target = lifting.syzygy_cubic(n, 2, 3, 1)
    good = transported(cert, (2, 3, 1, 4), pres)
    assert good.verify(target, pres)
    negated = {idx: -m for idx, m in good.multipliers.items()}
    assert not Membership(True, 3, negated).verify(target, pres)
    assert not transported(cert, (1, 2, 4, 3), pres).verify(target, pres)


def test_transport_needs_generators_mapped_to_generators():
    # σ = (2, 1, 3) sends the one generator t(1,1,1) t(1,2,3) to
    # t(2,2,2) t(1,2,3), which is no generator: no certificate
    R = PolyRing.get(3)
    g = R.t(1, 1, 1) * R.t(1, 2, 3)
    pres = deduplicated(3, "hilbert", [(g, "g")])
    cert = membership(g * R.t(1, 1, 1), pres)
    assert cert.member
    assert transported(cert, (2, 1, 3), pres) is None
    assert transported(cert, (1, 2, 3), pres).verify(g * R.t(1, 1, 1), pres)


def _cubic_family(n, family):
    """The degree-3 queries that a route certifies by S_n orbit, by triple
    (i, j, k), j < k: the cubic syzygies of the classical route, or the
    projections of assoc(i,j,k|0) of the based route."""
    pos = range(1, n + 1)
    triples = [(i, j, k) for i in pos for j in pos for k in range(j + 1, n + 1)]
    if family == "syzygy":
        return {t: lifting.syzygy_cubic(n, *t) for t in triples}
    return {t: structure_to_params(associator_coeff(n, *t, 0), n) for t in triples}


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("family", ["syzygy", "projection"])
def test_orbit_memberships_asks_one_query_per_orbit(n, family, monkeypatch):
    # two queries are asked of membership, one per orbit, and build one
    # block each; every other certificate is transported and verifies
    # against its own query, whose direct answer is a member too.  The two
    # asked certificates are the direct ones; a transported one need not
    # be, since σ does not keep the generators and products that the
    # spans found independent
    queries = _cubic_family(n, family)
    pres = _fresh_copy(ideal_generators(n))
    asked = []
    real = ideal.membership

    def counting(p, pres):
        asked.append(p)
        return real(p, pres)

    monkeypatch.setattr(ideal, "membership", counting)
    records = orbit_memberships([(t, t, q) for t, q in queries.items()], pres)
    monkeypatch.undo()
    assert len(asked) == 2 and len(pres.span(3).blocks) == 2
    assert [r.part for r in records] == list(queries)
    direct_pres = _fresh_copy(ideal_generators(n))
    for record in records:
        cert, q = record.cert, record.query
        assert q is queries[record.part]
        assert record.ok and cert.verify(q, pres)
        for mult in cert.multipliers.values():
            assert _degrees(mult, "t") == {1}
        direct = membership(q, direct_pres)
        assert direct.verify(q, direct_pres)
        if q in asked:
            assert cert.multipliers == direct.multipliers


def test_span_cache_outside_equality_hash_and_repr():
    built, bare = _fresh_copy(ideal_generators(3)), _fresh_copy(ideal_generators(3))
    built.span(2)
    assert built == bare
    assert hash(built) == hash(bare)
    assert repr(built) == repr(bare)


@pytest.mark.parametrize("flavor", ["hilbert", "miniversal"])
def test_chart_presentation_checked_when_built(flavor):
    # every generator of a chart presentation is a homogeneous t-quadric;
    # the first one that is not is named
    R = PolyRing.get(3)
    t, u = R.t(1, 1, 2), R.t(1, 2, 3)
    for bad in (u, t * t * u, t * t - u, R.x(1) * t, R.s(1, 2, 3) * t):
        with pytest.raises(UnsupportedDegreeError) as exc:
            IdealPresentation(3, flavor, (t * u, bad, u))
        assert str(exc.value).endswith(f"; got {bad.text()}")


def test_presentations_are_chart_ideals_only():
    R = PolyRing.get(3)
    with pytest.raises(ValueError, match="unknown flavor"):
        IdealPresentation(3, "based_algebra", (R.s(1, 2, 3) - R.s(2, 1, 3),))
    # the reduced associators, inhomogeneous in the s-variables, are no
    # presentation: the based route keeps them with a span of its own
    gens, span = _reduced_associators(3)
    assert any(len(_degrees(g, "s")) > 1 for g in gens)
    assert span.rank == 29


@pytest.mark.parametrize("d", [0, 1, 4])
def test_span_serves_degrees_2_and_3_only(d):
    pres = _fresh_copy(ideal_generators(3))
    with pytest.raises(UnsupportedDegreeError, match=f"t-degree {d}"):
        pres.span(d)
    assert not pres._spans


def test_presentation_refuses_a_generator_outside_one_block():
    # the second generator, a t-quadric, lies in two torus blocks, and a zero
    # generator in none: either is refused when the presentation is built,
    # naming the generator
    R = PolyRing.get(3)
    good = R.t(1, 1, 1) * R.t(1, 2, 3)
    for bad in (R.t(1, 1, 2) ** 2 + R.t(1, 2, 3) ** 2, R.zero()):
        with pytest.raises(UnsupportedDegreeError) as exc:
            IdealPresentation(3, "hilbert", (good, bad))
        assert str(exc.value).endswith(bad.text())


@pytest.mark.parametrize(
    "build",
    [
        lambda: ideal_generators(3),
        lambda: ideal_generators(4),
        lambda: ideal_generators(3, "miniversal"),
        lambda: ideal_generators(4, "miniversal"),
        lambda: alternate_generators(3),
    ],
    ids=[
        "hilbert-3",
        "hilbert-4",
        "miniversal-3",
        "miniversal-4",
        "alternate-3",
    ],
)
def test_encoded_rows_decode_to_the_generators(build):
    # each generator is held as one (block, row) pair: the row gives back its
    # terms, each in the block of its multidegree
    pres = build()
    assert len(pres._rows) == len(pres.generators)
    for g, (block, row) in zip(pres.generators, pres._rows):
        for m in row:
            assert _packed(mono_multidegree(m, pres.n)) == block
        assert row == g.terms_dict()


def test_membership_reuses_the_presentation_span(monkeypatch):
    pres = _fresh_copy(ideal_generators(3))
    g = obstruction_quadric(3, 1, 2, 3, 1)
    cubic = g * PolyRing.get(3).t(1, 2, 3)
    assert membership(g, pres).member and membership(cubic, pres).member

    def rebuild(*args):
        raise AssertionError("span built twice")

    monkeypatch.setattr(GradedSpan, "insert", rebuild)
    assert membership(2 * g, pres).member and membership(2 * cubic, pres).member


def test_repeated_index_quadric_matches_averaged_diagonal_sum():
    # q(1,2,lam|lam) and diagonal_sum(1, 2)/(n-1) differ by a member of the
    # ideal, with a certificate that multiplies back out
    n, pres = 3, ideal_generators(3)
    right = diagonal_sum(n, 1, 2) * Fraction(1, n - 1)
    for lam in (1, 3):
        diff = obstruction_quadric(n, 1, 2, lam, lam) - right
        assert membership(diff, pres).verify(diff, pres)


def test_membership_rejects_another_ambient_n():
    # an n=3 quadric against n=4 generators, and an n=4 quadric against n=3
    with pytest.raises(ValueError, match="ambient n mismatch"):
        membership(obstruction_quadric(3, 1, 2, 3, 1), ideal_generators(4))
    with pytest.raises(ValueError, match="ambient n mismatch"):
        membership(obstruction_quadric(4, 1, 2, 3, 4), ideal_generators(3))


def test_diagonal_sum_symmetric_in_first_indices():
    for n in (3, 4):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert (diagonal_sum(n, i, j) - diagonal_sum(n, j, i)).is_zero


def test_generators_vanish_at_idempotent_point():
    point = {(i, i, i): Fraction(-1) for i in range(1, 4)}
    assert vanishes_at(ideal_generators(3), point)


def test_sign_flip_invariance():
    # every generator is quadratic, hence invariant under t -> -t
    R = PolyRing.get(3)
    flip = {v: -R.var_poly(v) for v in R.t_variables()}
    for g in ideal_generators(3).generators:
        assert g.substitute(flip) == g


def test_low_n_rejected():
    with pytest.raises(ValueError):
        ideal_generators(2)
    with pytest.raises(ValueError):
        alternate_generators(2)


def test_json_export_shape_and_determinism(capsys):
    texts = []
    for _ in range(2):
        assert cli.main(["gens", "--n", "3"]) == 0
        texts.append(capsys.readouterr().out)
    doc = json.loads(texts[0])
    assert set(doc) == {"schema", "n", "flavor", "generators"}
    assert doc["n"] == 3 and doc["flavor"] == "hilbert"
    assert len(doc["generators"]) == len(ideal_generators(3))
    assert texts[0] == texts[1]


def test_membership_verify_rejects_non_member():
    pres = ideal_generators(3)
    m = Membership(member=False, degree=2)
    assert not m.verify(PolyRing.get(3).zero(), pres)


def test_first_generator_text_is_stable():
    # hand expansion of the defining sum for (i,j,k|l) = (1,1,2|3):
    # lam=1: t111*t123 - t121*t113, lam=2: t112*t223 - t122*t123,
    # lam=3: t113*t233 - t123*t133, rendered in descending monomial order
    pres = ideal_generators(3)
    assert pres.labels[0] == "q(1,1,2|3)"
    assert pres.generators[0].text() == (
        "t(1,1,1)*t(1,2,3) + t(1,1,2)*t(2,2,3) - t(1,1,3)*t(1,2,1)"
        " + t(1,1,3)*t(2,3,3) - t(1,2,2)*t(1,2,3) - t(1,2,3)*t(1,3,3)"
    )


def test_random_degree3_members_certified():
    # fuzz the cubic solver: random linear combinations of generators are
    # members with verifying certificates, and perturbations are not
    rng = random.Random(400)
    n = 3
    pres = ideal_generators(n)
    R = PolyRing.get(n)
    tvars = R.t_variables()
    for _ in range(10):
        p = R.zero()
        for _ in range(4):
            g = pres.generators[rng.randrange(len(pres))]
            v = tvars[rng.randrange(len(tvars))]
            p = p + R.var_poly(v) * g * Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        cert = membership(p, pres)
        assert cert.member and cert.verify(p, pres)
        if not p.is_zero:
            spoiled = p + R.t(1, 2, 3) * R.t(1, 2, 3) * R.t(1, 2, 3)
            assert not membership(spoiled, pres).member


def test_random_degree2_members_certified():
    rng = random.Random(401)
    n = 4
    pres = ideal_generators(n)
    R = PolyRing.get(n)
    for _ in range(10):
        p = R.zero()
        for _ in range(5):
            g = pres.generators[rng.randrange(len(pres))]
            p = p + g * Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        cert = membership(p, pres)
        assert cert.member and cert.verify(p, pres)


# sha256 of every block of span(2) and span(3) of the hilbert, miniversal and
# alternate presentations at n=3 and 4, recorded at commit a737998, before
# monomials were position tuples (see _span_digest)
SPAN_DIGEST = "e2730fb1f0e0701b01ed5fc44811326c7230ee265ece9815d95ccb27eb5ac8f4"


def _block_text(span, block):
    """One line per pivot, in pivot insertion order: the pivot, its row and
    its combination of the inputs, both divided by the row's pivot entry,
    keys as monomial text in sorted order and values as canonical
    rationals."""
    n = span.n
    lines = []
    for p, row in block._rows.items():
        a = row[p]
        entries = sorted((mono_text(k, n), str(Fraction(c, a))) for k, c in row.items())
        combo = sorted(
            (mono_text(m, n) + "|" + str(idx), str(Fraction(c, a)))
            for (m, idx), c in block._combos[p].items()
        )
        lines.append("%s: %s ; %s" % (mono_text(p, n), entries, combo))
    return "\n".join(lines)


def _span_digest():
    """Blocks are hashed in the sorted order of their text, so the digest
    does not depend on the order in which blocks were created."""
    h = hashlib.sha256()
    for n in (3, 4):
        for name, pres in (
            ("hilbert", ideal_generators(n)),
            ("miniversal", ideal_generators(n, "miniversal")),
            ("alternate", alternate_generators(n)),
        ):
            pres = _fresh_copy(pres)
            for d in (2, 3):
                span = pres.span(2) if d == 2 else _grown_span3(pres)
                blocks = sorted(_block_text(span, b) for b in span.blocks.values())
                h.update(("%s n=%d d=%d\n" % (name, n, d)).encode())
                h.update("\n\n".join(blocks).encode())
    return h.hexdigest()


def test_span_blocks_golden_digest():
    # every pivot, row and certificate of the membership spans, exactly
    assert _span_digest() == SPAN_DIGEST


def _random_span_queries(rng, inputs, monomials, count):
    """Rational combinations of one to three inputs, some of them plus a
    random monomial, which is usually not in the span."""
    n = inputs[0][1].n
    queries = []
    for _ in range(count):
        p = PolyRing.get(n).zero()
        for _, vec in rng.sample(inputs, rng.randint(1, 3)):
            p = p + vec * Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if rng.random() < 0.4:
            p = p + Poly(n, {rng.choice(monomials): Fraction(rng.randint(1, 5), 2)})
        queries.append(p)
    return queries


def _graded_lex_key(m, n):
    """Descending graded-lex sort key of a monomial, built from its
    (variable, exponent) pairs: total degree first, then the exponent
    vectors over the variable order x < t < s."""
    variables = PolyRing.get(n).variables
    pairs = [(variables[p], len(list(run))) for p, run in groupby(m[1:])]
    return (-sum(e for _, e in pairs), tuple((v, -e) for v, e in pairs))


def _sort_keyed(p) -> dict:
    """The terms of p keyed by (sort key, monomial), so that least key first
    is descending graded-lex order across degrees."""
    return {(_graded_lex_key(m, p.n), m): c for m, c in p.terms_dict().items()}


def _check_reduce_invariants(span, inputs, queries):
    """query == sum(used[tag] * input[tag]) + residual exactly, the residual
    is keyed by monomials, and none of its keys is a pivot.  Also, the
    reduction of ``span`` (a GradedSpan, block by block, or one
    EchelonSpan keyed by monomials) equals one EchelonSpan over the keys
    (graded-lex key of m, m), pivots in descending graded-lex order, with
    the same insertion order: the monomials' own order is the graded-lex
    order, across degrees too."""
    by_tag = dict(inputs)
    n = inputs[0][1].n
    blocks = span.blocks.values() if isinstance(span, GradedSpan) else [span]
    pivots = {k for b in blocks for k in b.pivots()}
    reference = EchelonSpan()
    for tag, vec in inputs:
        reference.insert(_sort_keyed(vec), tag)
    assert reference.rank == span.rank
    for q in queries:
        residual, used = span.reduce(q.terms_dict())
        ref_residual, ref_used = reference.reduce(_sort_keyed(q))
        assert residual == {m: c for (_, m), c in ref_residual.items()}
        assert used == ref_used
        for m in residual:
            assert type(m) is tuple and all(type(p) is int for p in m)
            assert m[0] == 1 - len(m) and list(m[1:]) == sorted(m[1:])
        assert not set(residual) & pivots
        total = Poly(n, dict(residual))
        for tag, c in used.items():
            total = total + by_tag[tag] * c
        assert total == q


@pytest.mark.parametrize("n, d", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_graded_span_reduce_invariants(n, d):
    pres = _fresh_copy(ideal_generators(n))
    span = pres.span(2) if d == 2 else _grown_span3(pres)
    R = PolyRing.get(n)
    monos = [ONE] if d == 2 else [R.var_mono(v) for v in R.t_variables()]
    indices = range(len(pres)) if d == 2 else pres._independent
    inputs = [
        ((m, idx), Poly(n, {m: 1}) * pres.generators[idx])
        for idx in indices
        for m in monos
    ]
    monomials = sorted({m for _, vec in inputs for m in vec.terms_dict()})
    rng = random.Random(500 + 10 * n + d)
    queries = _random_span_queries(rng, inputs, monomials, 30)
    _check_reduce_invariants(span, inputs, queries)


def test_reduced_assoc_span_reduce_invariants():
    # rows of mixed total degree: s-monomials of degrees 1 and 2 share the
    # based route's one EchelonSpan
    gens, span = _reduced_associators(3)
    inputs = list(enumerate(gens))
    degrees = {-k[0] for row in span._rows.values() for k in row}
    assert len(degrees) > 1
    monomials = sorted({m for _, vec in inputs for m in vec.terms_dict()})
    rng = random.Random(503)
    queries = _random_span_queries(rng, inputs, monomials, 40)
    _check_reduce_invariants(span, inputs, queries)
