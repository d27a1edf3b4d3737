"""Configuration-derived points, fiber checks, three-way agreement."""

import random
from fractions import Fraction

import pytest

from hilbworst.ideal import ideal_generators, vanishes_at
from hilbworst.oracle import (
    BasisCriterionError,
    agreement_trial,
    coordinate_configuration,
    fiber_check,
    point_from_configuration,
    random_configuration,
    random_generic_point,
    random_subspace_point,
    run_samples,
    small_fraction,
    symbolic_member,
)
from hilbworst.poly import PolyRing
from hilbworst.subspaces import make_spec


def test_coordinate_configuration_gives_idempotent_point():
    tvals = point_from_configuration(coordinate_configuration(3))
    assert tvals == {(i, i, i): Fraction(-1) for i in range(1, 4)}
    assert symbolic_member(tvals, 3)


def test_random_configurations_land_in_the_chart():
    rng = random.Random(5)
    n = 4
    pres = ideal_generators(n)
    R = PolyRing.get(n)
    found = 0
    while found < 20:
        try:
            tvals = point_from_configuration(random_configuration(rng, n))
        except BasisCriterionError:
            continue
        found += 1
        assert vanishes_at(pres, {R.t_var(*k): v for k, v in tvals.items()})


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
    report = fiber_check({}, 3)
    assert report.dimension == 4 and report.basis_ok


def test_fiber_on_subspace_point():
    rng = random.Random(17)
    spec = make_spec(5, {1, 2, 3}, {4, 5})
    tvals = random_subspace_point(rng, spec)
    report = fiber_check(tvals, 5)
    assert report.dimension == 6 and report.basis_ok


def test_fiber_detects_non_members():
    rng = random.Random(23)
    tvals = random_generic_point(rng, 3)
    report = fiber_check(tvals, 3)
    assert not (report.basis_ok and report.dimension == 4)


def test_roundtrip_configuration_fiber():
    rng = random.Random(31)
    for _ in range(5):
        try:
            tvals = point_from_configuration(random_configuration(rng, 3))
        except BasisCriterionError:
            continue
        report = fiber_check(tvals, 3)
        assert report.dimension == 4 and report.basis_ok


def test_instantiated_family_vanishes_on_the_configuration():
    # end-to-end sign check: the family at a configuration-derived point
    # cuts out exactly the configuration, so it vanishes at each point
    from hilbworst.based import t_assignment
    from hilbworst.lifting import universal_family

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
