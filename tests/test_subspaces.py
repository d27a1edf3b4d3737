"""Linear subspaces of the chart: dimensions, containment, maximization."""

import pytest

from hilbworst.subspaces import (
    amax_floor,
    containment_check,
    closed_form_dim,
    optimal_subset_size,
    make_spec,
    max_linear_dim,
    restricted_quadric,
    smoothing_dim,
    subspace_dim,
)


def test_subspace_dimensions():
    assert subspace_dim(make_spec(16, range(1, 12), range(12, 17))) == 275
    assert subspace_dim(make_spec(3, {1, 2}, {3})) == 1
    assert subspace_dim(make_spec(5, {1}, {2, 3})) == 0


def test_overlapping_sets_rejected():
    with pytest.raises(ValueError):
        make_spec(3, {1, 2}, {2})
    with pytest.raises(ValueError):
        make_spec(3, {1, 4}, {2})


def test_containment_small():
    assert containment_check(make_spec(3, {1, 2}, {3})).ok
    assert containment_check(make_spec(5, {1, 2, 3}, {4, 5})).ok


def test_containment_checks_generator_lists_at_small_n():
    report = containment_check(make_spec(3, {1, 2}, {3}))
    assert report.generators_checked > 0
    assert report.quadrics_checked == 3**4


def test_restricted_quadric_agrees_with_substitution():
    from fractions import Fraction

    from hilbworst.ideal import obstruction_quadric
    from hilbworst.poly import PolyRing

    spec = make_spec(4, {1, 2}, {3})
    R = PolyRing.get(4)
    kill = {
        v: Fraction(0)
        for v in R.t_variables()
        if not (v[1] in spec.A and v[2] in spec.A and v[3] in spec.B)
    }
    for idx in [(1, 2, 3, 4), (1, 1, 2, 3), (4, 2, 1, 3)]:
        full = obstruction_quadric(4, *idx).substitute(kill)
        assert restricted_quadric(spec, *idx) == full


def test_smoothing_dimensions():
    assert smoothing_dim(16) == 272
    assert smoothing_dim(3) == 12
    assert smoothing_dim(14) == 210


def test_max_linear_examples():
    r16 = max_linear_dim(16)
    assert r16.dim == 275 and r16.m == 11
    assert r16.dim > smoothing_dim(16)  # the reducibility comparison
    r3 = max_linear_dim(3)
    assert (r3.dim, r3.m, r3.count_lower_bound) == (1, 2, 3)
    r4 = max_linear_dim(4)
    assert r4.dim == 3 and r4.m == 3
    r14 = max_linear_dim(14)
    assert r14.dim == 180 and r14.dim < smoothing_dim(14)


def test_case_formulas_integral_and_matching():
    for n in range(3, 101):
        r = max_linear_dim(n)
        assert closed_form_dim(n).denominator == 1
        assert r.case_formula_matches
        assert r.m == optimal_subset_size(n)


def test_maximizer_is_floor_or_ceiling_of_closed_form():
    for n in range(3, 201):
        r = max_linear_dim(n)
        fl = amax_floor(n)
        assert set(r.maximizers) & {fl, fl + 1}


def test_case_formula_flag_checks_closed_form_maximizer(monkeypatch):
    import hilbworst.subspaces as subspaces_mod

    assert max_linear_dim(16).case_formula_matches
    monkeypatch.setattr(subspaces_mod, "amax_floor", lambda n: 3)
    assert not max_linear_dim(16).case_formula_matches


def test_containment_representative_sweep():
    # one representative spec per (a, b), moderate n
    for n in (3, 5, 8):
        for a in range(1, n):
            for b in range(1, n - a + 1):
                spec = make_spec(n, range(1, a + 1), range(a + 1, a + b + 1))
                assert containment_check(spec, check_generators=False).ok
