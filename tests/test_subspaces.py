"""Linear subspaces of the chart: dimensions, containment, maximization."""

import itertools
from fractions import Fraction

import pytest

from hilbworst.ideal import ideal_generators
from hilbworst.poly import PolyRing
from hilbworst.subspaces import (
    ContainmentReport,
    LinearSubspaceSpec,
    amax_floor,
    containment_check,
    closed_form_dim,
    optimal_subset_size,
    make_spec,
    max_linear_dim,
    smoothing_dim,
    subspace_dim,
)


def representative_specs(n):
    """One spec per (a, b): A = 1..a, B = a+1..a+b."""
    for a in range(1, n):
        for b in range(1, n - a + 1):
            yield make_spec(n, range(1, a + 1), range(a + 1, a + b + 1))


def reference_containment(spec):
    """Containment by brute force: every quadric rebuilt with its killed
    products left out, and every literal generator (n <= 8) restricted by
    substituting 0 for the killed parameters."""
    n = spec.n
    R = PolyRing.get(n)
    alive = set(spec.parameters())

    def survives(i, j, k):
        return R.t_var(i, j, k) in alive

    def restricted_quadric(i, j, k, l):
        total = R.zero()
        for lam in range(1, n + 1):
            if survives(i, j, lam) and survives(k, lam, l):
                total = total + R.t(i, j, lam) * R.t(k, lam, l)
            if survives(i, k, lam) and survives(j, lam, l):
                total = total - R.t(i, k, lam) * R.t(j, lam, l)
        return total

    quadrics = 0
    for idx in itertools.product(range(1, n + 1), repeat=4):
        quadrics += 1
        if not restricted_quadric(*idx).is_zero:
            return ContainmentReport(spec, quadrics, 0, False)
    gens_checked = 0
    if n <= 8:
        kill = {v: Fraction(0) for v in R.t_variables() if v not in alive}
        for g in ideal_generators(n).generators:
            gens_checked += 1
            if not g.substitute(kill).is_zero:
                return ContainmentReport(spec, quadrics, gens_checked, False)
    return ContainmentReport(spec, quadrics, gens_checked, True)


def _rule(keep):
    """A survival method keeping the t-variables (i <= j) that pass keep."""

    def parameters(spec):
        R = PolyRing.get(spec.n)
        return [v for v in R.t_variables() if keep(spec, *v[1:])]

    return parameters


TRUE_RULE = _rule(lambda s, i, j, k: i in s.A and j in s.A and k in s.B)
WRONG_RULES = {
    "k in A survives too": _rule(
        lambda s, i, j, k: i in s.A and j in s.A and k in s.A | s.B
    ),
    "j anywhere": _rule(lambda s, i, j, k: i in s.A and k in s.B),
    "every parameter": _rule(lambda s, i, j, k: True),
    # fails only where the two terms of a quadric must cancel exactly
    "k in A, i and j anywhere": _rule(lambda s, i, j, k: k in s.A),
    "no diagonal t(i,i,k)": _rule(
        lambda s, i, j, k: i < j and i in s.A and j in s.A and k in s.B
    ),
}


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


def test_parameters_are_the_surviving_t_variables_in_order():
    for n in range(3, 7):
        for spec in representative_specs(n):
            assert spec.parameters() == TRUE_RULE(spec)
    scattered = make_spec(6, {5, 2, 4}, {6, 1})
    assert scattered.parameters() == TRUE_RULE(scattered)
    assert PolyRing.get(6).t_var(2, 2, 1) in scattered.parameters()  # diagonal


def test_containment_report_on_correct_spec():
    for n in range(3, 7):
        count = len(ideal_generators(n))
        for spec in representative_specs(n):
            expected = ContainmentReport(spec, n**4, count, True)
            assert containment_check(spec) == expected
    spec = make_spec(3, {1, 2}, {3})
    assert containment_check(spec) == reference_containment(spec)


@pytest.mark.parametrize("rule", sorted(WRONG_RULES))
def test_containment_agrees_with_reference_under_wrong_rule(monkeypatch, rule):
    monkeypatch.setattr(LinearSubspaceSpec, "parameters", WRONG_RULES[rule])
    for n in range(3, 7):
        for spec in representative_specs(n):
            assert containment_check(spec) == reference_containment(spec)


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
        for spec in representative_specs(n):
            assert containment_check(spec).ok
