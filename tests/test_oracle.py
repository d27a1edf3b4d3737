"""Configuration-derived points, fiber checks, three-way agreement."""

import random
from fractions import Fraction

import pytest

from hilbworst.based import (
    MulTable,
    associativity_residual,
    is_associative,
    table_from_point,
)
from hilbworst.ideal import (
    IdealPresentation,
    UnsupportedDegreeError,
    diagonal_sum,
    ideal_generators,
    vanishes_at,
)
from hilbworst.lifting import family_at, universal_family
from hilbworst.linalg import EchelonSpan
from hilbworst.oracle import (
    BasisCriterionError,
    FiberReport,
    agreement_trial,
    coordinate_configuration,
    fiber_check,
    point_from_configuration,
    random_configuration,
    random_generic_point,
    random_partition_spec,
    random_subspace_point,
    run_samples,
    small_fraction,
    symbolic_member,
)
from hilbworst.poly import Poly, PolyRing
from hilbworst.subspaces import make_spec


def t_assignment(n, tvals):
    """Full variable assignment from a sparse (i,j,k) -> rational map."""
    ring = PolyRing.get(n)
    full = {v: Fraction(0) for v in ring.t_variables()}
    for (i, j, k), val in tvals.items():
        full[ring.t_var(i, j, k)] = Fraction(val)
    return full


def test_coordinate_configuration_gives_idempotent_point():
    tvals = point_from_configuration(coordinate_configuration(3))
    assert tvals == {(i, i, i): Fraction(-1) for i in range(1, 4)}
    assert symbolic_member(tvals, 3)


def test_random_configurations_land_in_the_chart():
    rng = random.Random(5)
    n = 4
    pres = ideal_generators(n)
    found = 0
    while found < 20:
        try:
            tvals = point_from_configuration(random_configuration(rng, n))
        except BasisCriterionError:
            continue
        found += 1
        assert vanishes_at(pres, tvals)


def test_degenerate_configuration_raises():
    pts = [
        [Fraction(0)] * 3,
        [Fraction(0)] * 3,  # duplicated point: singular evaluation matrix
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0)],
    ]
    with pytest.raises(BasisCriterionError):
        point_from_configuration(pts)


def test_empty_configuration_raises():
    with pytest.raises(ValueError, match="empty configuration"):
        point_from_configuration([])


def test_collinear_scaled_configuration_raises():
    # four points on a line through the origin: 1, x classes cannot be a basis
    pts = [[Fraction(k), Fraction(2 * k), Fraction(3 * k)] for k in range(4)]
    with pytest.raises(BasisCriterionError):
        point_from_configuration(pts)


def test_fiber_at_origin():
    report = fiber_check(family_at(3, {}), 3)
    assert report.dimension == 4 and report.basis_ok


def test_fiber_on_subspace_point():
    rng = random.Random(17)
    spec = make_spec(5, {1, 2, 3}, {4, 5})
    tvals = random_subspace_point(rng, spec)
    report = fiber_check(family_at(5, tvals), 5)
    assert report.dimension == 6 and report.basis_ok


def test_fiber_detects_non_members():
    rng = random.Random(23)
    tvals = random_generic_point(rng, 3)
    report = fiber_check(family_at(3, tvals), 3)
    assert not (report.basis_ok and report.dimension == 4)


def test_roundtrip_configuration_fiber():
    rng = random.Random(31)
    for _ in range(5):
        try:
            tvals = point_from_configuration(random_configuration(rng, 3))
        except BasisCriterionError:
            continue
        report = fiber_check(family_at(3, tvals), 3)
        assert report.dimension == 4 and report.basis_ok


def test_instantiated_family_vanishes_on_the_configuration():
    # end-to-end sign check: the family at a configuration-derived point
    # cuts out exactly the configuration, so it vanishes at each point
    rng = random.Random(3)
    n = 3
    R = PolyRing.get(n)
    found = 0
    while found < 5:
        pts = random_configuration(rng, n)
        try:
            tvals = point_from_configuration(pts)
        except BasisCriterionError:
            continue
        found += 1
        assignment = t_assignment(n, tvals)
        fiber = [g.substitute(assignment) for g in universal_family(n)]
        for p in pts:
            xs = {R.x_var(i + 1): p[i] for i in range(n)}
            assert all(g.evaluate(xs) == 0 for g in fiber)


def test_agreement_trial_reports_consistent_fields():
    trial = agreement_trial({}, 3, "origin")
    assert trial["agree"] and trial["symbolic"] and trial["fiber_member"]
    rng = random.Random(41)
    bad = agreement_trial(random_generic_point(rng, 3), 3, "generic")
    assert bad["agree"] and not bad["symbolic"] and not bad["associative"]


@pytest.mark.parametrize("n", [3, 4])
def test_three_way_agreement_sampled(n):
    trials = run_samples(n, seed=1, samples=24)
    assert len(trials) == 24
    kinds = {t["kind"] for t in trials}
    assert {"coordinate", "configuration", "subspace", "generic"} <= kinds
    assert all(t["agree"] for t in trials)
    assert any(t["symbolic"] for t in trials)
    assert any(not t["symbolic"] for t in trials)


def test_sampling_is_seeded_and_replayable():
    a = run_samples(3, seed=9, samples=12)
    b = run_samples(3, seed=9, samples=12)
    assert a == b


def test_small_fraction_heights_bounded():
    rng = random.Random(0)
    for _ in range(200):
        q = small_fraction(rng)
        assert abs(q.numerator) <= 10 and 1 <= q.denominator <= 10


# -- fast tests against their references --------------------------------------


def _residual_free(table):
    """Test-side reference: every associator coordinate is zero."""
    return all(v == 0 for vec in associativity_residual(table).values() for v in vec)


def _generators_vanish(pres, assignment):
    """Test-side reference: generator by generator, by substitution."""
    full = dict.fromkeys(PolyRing.get(pres.n).t_variables(), Fraction(0))
    full.update(assignment)
    return all(g.evaluate(full) == 0 for g in pres.generators)


def _one_point_per_kind(rng, n):
    """A coordinate, a configuration, a subspace and a generic point."""
    while True:
        try:
            config = point_from_configuration(random_configuration(rng, n))
            break
        except BasisCriterionError:
            continue
    return {
        "coordinate": point_from_configuration(coordinate_configuration(n)),
        "configuration": config,
        "subspace": random_subspace_point(rng, random_partition_spec(rng, n)),
        "generic": random_generic_point(rng, n),
    }


def _step(rng):
    """A nonzero rational."""
    return Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))


def _perturbed(table, key, rng):
    """The table with the stored entry at key moved by a nonzero rational."""
    entries = dict(table.entries)
    entries[key] = entries.get(key, 0) + _step(rng)
    return MulTable(table.n, entries)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_is_associative_agrees_with_the_residual(n):
    rng = random.Random(100 + n)
    points = _one_point_per_kind(rng, n)
    tables = [table_from_point(family_at(n, tvals), n) for tvals in points.values()]
    i = rng.randint(1, n)
    j = rng.randint(i, n)
    keys = [
        (i, j, rng.randint(0, n)),  # any stored entry
        (i, j, 0),  # the v_0 column
        (i, i, rng.randint(1, n)),  # a diagonal product
    ]
    member_tables = tables[:3]
    tables += [_perturbed(t, key, rng) for t, key in zip(member_tables, keys)]
    answers = [is_associative(t) for t in tables]
    assert answers == [_residual_free(t) for t in tables]
    assert answers[:4] == [True, True, True, False]
    assert not all(answers[4:])


def _with_moved_members(rng, n):
    """The points of ``_one_point_per_kind``, then its three member points
    each moved in one coordinate."""
    ring = PolyRing.get(n)
    points = list(_one_point_per_kind(rng, n).values())
    for tvals in points[:3]:
        moved = dict(tvals)
        key = rng.choice([v[1:] for v in ring.t_variables()])
        moved[key] = moved.get(key, 0) + _step(rng)
        points.append(moved)
    return points


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_vanishes_at_agrees_with_substitution(n):
    rng = random.Random(200 + n)
    ring = PolyRing.get(n)
    pres = ideal_generators(n)
    points = _with_moved_members(rng, n)
    answers = []
    for tvals in points:
        assignment = {ring.t_var(*key): val for key, val in tvals.items()}
        answers.append(vanishes_at(pres, tvals))
        assert answers[-1] == _generators_vanish(pres, assignment)
        assert answers[-1] == symbolic_member(tvals, n)
    assert answers[:4] == [True, True, True, False]


def test_vanishes_at_rejects_non_homogeneous_generators():
    ring = PolyRing.get(3)
    t, v = ring.t(1, 1, 1), ring.t(1, 2, 2)
    u, w = ring.t(1, 1, 2), ring.t(1, 2, 1)
    for g in (t * t - t, u * Fraction(3, 2) - Fraction(1, 2)):
        # such a presentation is refused when built, so no point reaches it
        with pytest.raises(UnsupportedDegreeError) as exc:
            IdealPresentation(3, "hilbert", (u * u, g))
        assert str(exc.value).endswith(g.text())
    # one block, multidegree (2, 0, 0), with a rational coefficient:
    # t(1,1,1) t(1,2,2) - (9/4) t(1,1,2) t(1,2,1); then t(1,1,1) t(1,1,2)
    pres = IdealPresentation(3, "hilbert", (t * v - u * w * Fraction(9, 4), t * u))

    def point(a, b):
        # t(1,1,1) = t(1,2,2) = a and t(1,1,2) = t(1,2,1) = b, so the first
        # generator is a^2 - (9/4) b^2; the key (2, 1, 1) names t(1,2,1)
        return {(1, 1, 1): a, (1, 2, 2): a, (1, 1, 2): b, (2, 1, 1): b}

    for a, b, expected in [
        (0, 0, True),
        (Fraction(3, 2), 0, False),
        (0, Fraction(1, 3), False),
        (Fraction(3, 2), 1, False),
    ]:
        assert vanishes_at(pres, point(a, b)) is expected
        canonical = dict.fromkeys((ring.t_var(1, 1, 1), ring.t_var(1, 2, 2)), a)
        canonical.update(dict.fromkeys((ring.t_var(1, 1, 2), ring.t_var(1, 2, 1)), b))
        assert _generators_vanish(pres, canonical) is expected
    first = IdealPresentation(3, "hilbert", pres.generators[:1])
    for a, b in [(3, 2), (Fraction(-3, 2), 1), (Fraction(3, 5), Fraction(2, 5))]:
        assert vanishes_at(first, point(a, b))
        assert not vanishes_at(first, point(a, b + 1))


def _family_by_substitution(n, tvals):
    """Test-side reference: each generator of the family with the point
    substituted, as its x-monomial -> coefficient map."""
    assignment = t_assignment(n, tvals)
    return tuple(g.substitute(assignment).terms_dict() for g in universal_family(n))


def _graded_lex_key(m, ring):
    """Descending graded-lex sort key of an x-monomial, from its exponent
    vector: total degree first, then the exponents of x_1, x_2, ..."""
    exps = [0] * ring.n
    for p in m[1:]:
        exps[ring.variables[p][1] - 1] += 1
    return (-sum(exps), tuple(-e for e in exps))


def _fiber_by_substitution(tvals, n):
    """Test-side reference: the substituted family and its x_l multiples
    eliminated in an ``EchelonSpan``, pivots as leading monomials."""
    ring = PolyRing.get(n)
    assignment = t_assignment(n, tvals)
    gens = [g.substitute(assignment) for g in universal_family(n)]
    span = EchelonSpan()
    rows = gens + [ring.x(i) * g for i in range(1, n + 1) for g in gens]
    for g in rows:
        # keys (sort key, monomial): least key first is descending graded-lex
        span.insert(
            {(_graded_lex_key(m, ring), m): c for m, c in g.terms_dict().items()}
        )
    collapsed = sum(1 for key, _ in span.pivots() if key[0] >= -1)
    return FiberReport(dimension=n + 1 - collapsed, basis_ok=collapsed == 0)


def _table_by_evaluation(tvals, n):
    """Test-side reference: s(i,j,k) = -t(i,j,k) and
    s(i,j,0) = -diagonal_sum(n, i, j)(t)/(n-1), by ``Poly.evaluate``."""
    assignment = t_assignment(n, tvals)
    ring = PolyRing.get(n)
    entries = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            for k in range(1, n + 1):
                entries[(i, j, k)] = -assignment[ring.t_var(i, j, k)]
            const = diagonal_sum(n, i, j).evaluate(assignment)
            entries[(i, j, 0)] = -Fraction(const, n - 1)
    return MulTable(n, entries)


def _swapped(tvals):
    """The point with every key t(i,j,k), i < j, given as t(j,i,k)."""
    return {(max(i, j), min(i, j), k): val for (i, j, k), val in tvals.items()}


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_family_at_agrees_with_substitution(n):
    points = _with_moved_members(random.Random(300 + n), n)
    for tvals in points:
        family = family_at(n, tvals)
        assert family == _family_by_substitution(n, tvals)
        assert all(type(c) is Fraction for g in family for c in g.values())
    swapped = _swapped(points[1])  # the configuration point
    assert any(i > j for i, j, _ in swapped)
    assert family_at(n, swapped) == _family_by_substitution(n, points[1])


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_table_from_point_agrees_with_evaluation(n):
    points = _with_moved_members(random.Random(400 + n), n)
    for tvals in points + [_swapped(points[1])]:
        table = table_from_point(family_at(n, tvals), n)
        assert table.entries == _table_by_evaluation(tvals, n).entries


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_fiber_check_agrees_with_substitution(n):
    points = _with_moved_members(random.Random(500 + n), n)
    reports = [fiber_check(family_at(n, tvals), n) for tvals in points]
    assert reports == [_fiber_by_substitution(tvals, n) for tvals in points]
    assert [r.basis_ok for r in reports[:4]] == [True, True, True, False]
    assert all(r.dimension == n + 1 for r in reports[:3])


def test_agreement_trial_never_substitutes(monkeypatch):
    # the trial path runs on compiled integer forms only
    n = 4
    points = _with_moved_members(random.Random(600), n)

    def refuse(*args, **kwargs):
        raise AssertionError("Poly.substitute or Poly.evaluate in an oracle trial")

    monkeypatch.setattr(Poly, "substitute", refuse)
    monkeypatch.setattr(Poly, "evaluate", refuse)
    trials = [agreement_trial(tvals, n, "seeded") for tvals in points]
    assert all(t["agree"] for t in trials)
    assert [t["symbolic"] for t in trials[:4]] == [True, True, True, False]


def test_agreement_trial_evaluates_the_family_once(monkeypatch):
    # the table and the fiber share one evaluation of the family at the point
    import hilbworst.lifting as lifting
    import hilbworst.oracle as oracle

    calls = []

    def counting(n, tvals):
        calls.append(n)
        return family_at(n, tvals)

    monkeypatch.setattr(oracle, "family_at", counting)
    monkeypatch.setattr(lifting, "family_at", counting)
    for tvals in _with_moved_members(random.Random(700), 4):
        calls.clear()
        agreement_trial(tvals, 4, "seeded")
        assert calls == [4]
