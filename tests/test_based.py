"""Based-algebra moduli: tables, associativity, the two ring maps and the
certified correspondence with the chart ideal."""

from fractions import Fraction

import pytest

from hilbworst.based import (
    MalformedTableError,
    MulTable,
    associativity_residual,
    associator_coeff,
    based_ideal_generators,
    is_associative,
    params_to_structure,
    reduce_unit_sym,
    structure_to_params,
    table_from_point,
    verify_structure_correspondence,
)
from hilbworst.ideal import diagonal_sum, ideal_generators, vanishes_at
from hilbworst.lifting import family_at
from hilbworst.poly import Poly, PolyRing

R3 = PolyRing.get(3)


def test_moduli_ideal_contains_expected_generators():
    pres = based_ideal_generators(3)
    gens = set(pres.generators)
    assert R3.s(0, 1, 1) - 1 in gens
    assert R3.s(1, 2, 3) - R3.s(2, 1, 3) in gens
    assert associator_coeff(3, 1, 2, 3, 0) in gens or -associator_coeff(
        3, 1, 2, 3, 0
    ) in gens
    assert pres.flavor == "based_algebra"


def test_moduli_ideal_counts():
    pres = based_ideal_generators(3)
    # 24 symmetry + 4 unit + 12 unit-zero + 96 associator representatives
    assert len(pres) == 136


def test_associator_antisymmetric_in_middle_pair():
    g = associator_coeff(3, 1, 2, 3, 0) + associator_coeff(3, 1, 3, 2, 0)
    assert g.is_zero


def test_square_zero_table_is_associative():
    assert is_associative(MulTable(3, {}))


def test_coordinate_points_table_is_associative():
    # x_i^2 = x_i, x_i x_j = 0: the coordinate-points algebra
    table = MulTable(3, {(i, i, i): Fraction(1) for i in range(1, 4)})
    assert is_associative(table)


def test_single_idempotent_table():
    table = MulTable(3, {(1, 1, 1): Fraction(1)})
    assert is_associative(table)


def test_is_associative_rejects_non_rational_entries():
    with pytest.raises(TypeError, match="rational entries"):
        is_associative(MulTable.generic(3))
    mixed = MulTable(3, {(1, 1, 1): Fraction(1), (1, 2, 3): R3.t(1, 1, 1)})
    with pytest.raises(TypeError, match="rational entries"):
        is_associative(mixed)
    # ints are rational too
    assert is_associative(MulTable(3, {(i, i, i): 1 for i in range(1, 4)}))


def test_generic_table_residuals_are_reduced_associators():
    n = 3
    table = MulTable.generic(n)
    res = associativity_residual(table)
    R = PolyRing.get(n)
    for (i, j, k), vec in res.items():
        for l, v in enumerate(vec):
            v = v if isinstance(v, Poly) else R.const(v)
            if 0 in (i, j, k):
                assert v.is_zero
            else:
                assert v == reduce_unit_sym(associator_coeff(n, i, j, k, l), n)


def test_malformed_tables_rejected():
    with pytest.raises(MalformedTableError):
        MulTable(3, {(1, 2, 3): Fraction(1), (2, 1, 3): Fraction(2)})
    with pytest.raises(MalformedTableError):
        MulTable(3, {(0, 1, 1): Fraction(1)})
    # conflicting symmetric entries, the zero one first or last
    with pytest.raises(MalformedTableError):
        MulTable(3, {(1, 2, 1): 0, (2, 1, 1): 5})
    with pytest.raises(MalformedTableError):
        MulTable(3, {(1, 2, 1): 5, (2, 1, 1): 0})
    agreeing = MulTable(
        3, {(1, 2, 1): 0, (2, 1, 1): 0, (1, 3, 2): 4, (3, 1, 2): 4}
    )
    assert agreeing.value(2, 1, 1) == 0 and agreeing.value(3, 1, 2) == 4


def test_projection_cases():
    n = 3
    assert structure_to_params(R3.s(0, 1, 1), n) == R3.one()
    assert structure_to_params(R3.s(0, 1, 2), n).is_zero
    assert structure_to_params(R3.s(2, 0, 2), n) == R3.one()
    assert structure_to_params(R3.s(1, 2, 3), n) == R3.t(1, 2, 3)
    assert structure_to_params(R3.s(2, 1, 3), n) == R3.t(1, 2, 3)
    expected = diagonal_sum(n, 1, 2) * Fraction(-1, n - 1)
    assert structure_to_params(R3.s(1, 2, 0), n) == expected


@pytest.mark.parametrize("n", [3, 4])
def test_projection_section_identity(n):
    R = PolyRing.get(n)
    for v in R.t_variables():
        p = R.var_poly(v)
        assert structure_to_params(params_to_structure(p, n), n) == p


def test_embedding_substitutes_structure_constants():
    assert params_to_structure(R3.t(1, 2, 3), 3) == R3.s(1, 2, 3)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_embedded_chart_generators_are_unit_sym_normal(n):
    # the embedding only names s(i,j,k) with 1 <= i <= j and k >= 1, which
    # the unit and symmetry relations leave fixed, so the correspondence
    # certifies the embedded generators without reducing them
    for g in ideal_generators(n).generators:
        emb = params_to_structure(g, n)
        assert reduce_unit_sym(emb, n) == emb


def test_reduce_unit_sym_is_substitution_witness():
    n = 3
    # generators of the substitution sub-ideal reduce to zero ...
    assert reduce_unit_sym(R3.s(0, 1, 1) - 1, n).is_zero
    assert reduce_unit_sym(R3.s(2, 1, 3) - R3.s(1, 2, 3), n).is_zero
    assert reduce_unit_sym(R3.s(1, 0, 2), n).is_zero
    # ... while canonical variables pass through
    assert reduce_unit_sym(R3.s(1, 2, 3), n) == R3.s(1, 2, 3)
    # associators with a zero index die under the reduction
    for j in range(4):
        for k in range(4):
            if j != k:
                for l in range(4):
                    assert reduce_unit_sym(associator_coeff(n, 0, j, k, l), n).is_zero


def test_projection_of_associators_closed_forms():
    # exact closed forms of the projected associator coefficients, by case
    from hilbworst.ideal import obstruction_quadric
    from hilbworst.lifting import syzygy_cubic

    n = 4
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                if j == k:
                    continue
                # distinct positive target: the projection is the quadric itself
                for l in range(1, n + 1):
                    if l in (j, k):
                        continue
                    assert structure_to_params(
                        associator_coeff(n, i, j, k, l), n
                    ) == obstruction_quadric(n, i, j, k, l)
                # repeated target: quadric minus the averaged diagonal sum
                expected = obstruction_quadric(n, i, j, k, k) - diagonal_sum(
                    n, i, j
                ) * Fraction(1, n - 1)
                assert structure_to_params(associator_coeff(n, i, j, k, k), n) == expected
                # zero target: the cubic syzygy combination, scaled
                img = structure_to_params(associator_coeff(n, i, j, k, 0), n)
                assert img * Fraction(n - 1) == -syzygy_cubic(n, i, j, k)


@pytest.mark.parametrize("n", [3, 4])
def test_structure_correspondence_certified(n):
    report = verify_structure_correspondence(n)
    assert report.ok
    assert report.section_ok
    assert not report.failures
    # every positive-index associator with target 0 needs a cubic certificate
    assert report.pi_degree3 == n * n * (n - 1) // 2


def test_table_from_zero_point_is_square_zero():
    table = table_from_point(family_at(3, {}), 3)
    assert table.entries == {}
    assert is_associative(table)


def test_table_from_idempotent_point():
    tvals = {(1, 1, 1): Fraction(-1)}
    table = table_from_point(family_at(3, tvals), 3)
    assert table.value(1, 1, 1) == 1
    assert table.value(1, 1, 0) == 0
    assert is_associative(table)


def test_table_membership_equivalence_on_samples():
    import random

    from hilbworst.oracle import random_generic_point

    n = 3
    rng = random.Random(11)
    pres = ideal_generators(n)
    # members: subspace points; non-members: generic points
    member = {(1, 2, 3): Fraction(1, 2), (1, 1, 3): Fraction(-2)}
    assert vanishes_at(pres, member)
    assert is_associative(table_from_point(family_at(n, member), n))
    for _ in range(5):
        bad = random_generic_point(rng, n)
        assert not vanishes_at(pres, bad)
        assert not is_associative(table_from_point(family_at(n, bad), n))


def test_unit_rows_of_derived_tables():
    table = table_from_point(family_at(3, {(1, 2, 3): Fraction(2)}), 3)
    for i in range(4):
        for k in range(4):
            assert table.value(0, i, k) == (1 if i == k else 0)
            assert table.value(i, 0, k) == (1 if i == k else 0)
    assert table.value(1, 2, 3) == -2
    assert table.value(2, 1, 3) == -2
