"""Acceptance suite: the ten exit criteria, each printed as a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
and timings.  Every assertion is exact (rational arithmetic, no tolerances).
"""

import itertools
import random
import time
from contextlib import contextmanager

from hilbworst.based import verify_structure_correspondence
from hilbworst.dgla import (
    closedness_residual,
    compare_classical_dgla,
    cup_product,
    kuranishi_quadratic_locus,
)
from hilbworst.ideal import (
    alternate_generators,
    compare_spans,
    ideal_generators,
    membership,
    obstruction_quadric,
    set_diagonal_zero,
)
from hilbworst.lifting import (
    build_f,
    first_order_residual,
    flatness_residual,
    second_order_obstruction,
    syzygy_cubic,
)
from hilbworst.oracle import run_samples
from hilbworst.poly import PolyRing
from hilbworst.subspaces import (
    amax_floor,
    containment_check,
    optimal_subset_size,
    make_spec,
    max_linear_dim,
    smoothing_dim,
    subspace_dim,
)
from hilbworst.taylor import E_NS, nonkoszul_triple, tangent_dims, wedge_symbols


@contextmanager
def criterion(num: int, description: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {description}")
        raise
    print(f"PASS criterion {num}: {description} [{time.perf_counter() - t0:.1f}s]")


def test_criterion_1_quadric_identities():
    with criterion(1, "quadric antisymmetry and cyclic sums, n=3..5, all tuples"):
        for n in (3, 4, 5):
            rng = range(1, n + 1)
            for i, j, k, l in itertools.product(rng, repeat=4):
                anti = obstruction_quadric(n, i, j, k, l) + obstruction_quadric(
                    n, i, k, j, l
                )
                assert anti.is_zero
                cyclic = (
                    obstruction_quadric(n, i, j, k, l)
                    + obstruction_quadric(n, j, k, i, l)
                    + obstruction_quadric(n, k, i, j, l)
                )
                assert cyclic.is_zero


def test_criterion_2_generator_replacement():
    with criterion(2, "replacement presentation spans, n=3..5, mutual certificates"):
        for n in (3, 4, 5):
            main = ideal_generators(n)
            alt = alternate_generators(n)
            # true only if every certificate passes Membership.verify
            assert all(r.ok for r in compare_spans(main, alt))


def test_criterion_3_tangent_dimensions():
    with criterion(3, "tangent ranks equal the closed formulas, n=3..8"):
        for n in range(3, 9):
            dims = tangent_dims(n)  # raises internally on rank mismatch
            assert dims.hom_dim == n * n * (n + 1) // 2
            assert dims.t1_dim == (n + 2) * n * (n - 1) // 2
        assert tangent_dims(3).hom_dim == 18 and tangent_dims(3).t1_dim == 15


def test_criterion_4_first_order_lifting():
    with criterion(4, "first-order residual zero on every wedge, n=3..6"):
        for n in (3, 4, 5, 6):
            res = first_order_residual(n)
            assert len(res) == len(wedge_symbols(n))
            assert all(p.is_zero for p in res.values())


def test_criterion_5_second_order_obstruction():
    with criterion(5, "second-order constraint spans and tails, n=3..5"):
        for n in (3, 4, 5):
            system = second_order_obstruction(n)
            pres = ideal_generators(n)
            assert all(r.ok for r in compare_spans(system.equations, pres))
            tails = build_f(n)[2]
            for pr, cands in system.candidates.items():
                canonical = tails[(E_NS,) + pr]
                for _, cand in cands:
                    diff = cand - canonical
                    assert membership(diff, pres).verify(diff, pres)


def test_criterion_6_cubic_syzygy_and_flatness():
    with criterion(6, "cubic certificates (all j != k) and flatness, n=3..4"):
        for n in (3, 4):
            pres = ideal_generators(n)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    for k in range(1, n + 1):
                        if j == k:
                            continue
                        cubic = syzygy_cubic(n, i, j, k)
                        assert membership(cubic, pres).verify(cubic, pres)
            assert all(r.ok for r in flatness_residual(n))


def test_criterion_7_dgla_route():
    with criterion(7, "derivation route: closed, cup, quadratic locus, n=3..4"):
        for n in (3, 4):
            assert all(p.is_zero for p in closedness_residual(n).values())
            cup = cup_product(n)
            R = PolyRing.get(n)
            for sym, value in cup.wedge_values.items():
                i, j, k = nonkoszul_triple(sym)
                expected = R.zero()
                for l in range(1, n + 1):
                    expected = expected + set_diagonal_zero(
                        obstruction_quadric(n, i, j, k, l)
                    ) * R.x(l)
                assert value == expected
            assert all(q.is_zero for q in cup.curly_values.values())
            locus = kuranishi_quadratic_locus(n)
            mini = ideal_generators(n, "miniversal")
            assert all(r.ok for r in compare_spans(locus, mini))
        for n in (3, 4, 5):
            assert all(r.ok for r in compare_classical_dgla(n))


def test_criterion_8_based_algebra_correspondence():
    with criterion(8, "structure-constant correspondence certified, n=3..4"):
        for n in (3, 4):
            records = verify_structure_correspondence(n)
            assert records[0].part == ("section", "") and records[0].ok
            assert all(r.ok for r in records), [r.part for r in records if not r.ok]


def test_criterion_9_linear_subspaces():
    with criterion(9, "linear subspaces: containment, dims, case formulas"):
        assert subspace_dim(make_spec(16, range(1, 12), range(12, 17))) == 275
        assert smoothing_dim(16) == 272
        rng = random.Random(2024)
        for n in range(3, 21):
            specs = []
            if n <= 8:
                for a in range(1, n):
                    for b in range(1, n - a + 1):
                        specs.append(
                            make_spec(n, range(1, a + 1), range(a + 1, a + b + 1))
                        )
            else:
                m = optimal_subset_size(n)
                specs.append(make_spec(n, range(1, m + 1), range(m + 1, n + 1)))
                for _ in range(2 if n < 15 else 1):
                    a = rng.randint(2, n - 1)
                    b = rng.randint(1, n - a)
                    members = rng.sample(range(1, n + 1), a + b)
                    specs.append(make_spec(n, members[:a], members[a:]))
            for spec in specs:
                assert containment_check(spec).ok
        for n in range(3, 201):
            r = max_linear_dim(n)
            assert r.case_formula_matches
            assert set(r.maximizers) & {amax_floor(n), amax_floor(n) + 1}


def test_criterion_10_oracle_agreement():
    with criterion(10, "three-way membership agreement, 100 samples, n=3..5"):
        for n in (3, 4, 5):
            trials = run_samples(n, seed=0, samples=100)
            assert len(trials) == 100
            assert all(t["agree"] for t in trials)
            members = sum(t["symbolic"] for t in trials)
            assert 0 < members < 100  # both members and non-members sampled
            kinds = {t["kind"] for t in trials}
            assert {"coordinate", "configuration", "subspace", "generic"} <= kinds
