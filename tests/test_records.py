"""Every check record re-checks from its own fields: a record of a query
keeps the query, what it was certified against and its certificate, so the
certificate can be verified again without the check that made it, and a
certificate with one coefficient changed fails."""

import pytest

from hilbworst.based import (
    based_ideal_generators,
    structure_to_params,
    verify_structure_correspondence,
)
from hilbworst.dgla import compare_classical_dgla, kuranishi_quadratic_locus
from hilbworst.ideal import Membership, certified, compare_spans, ideal_generators
from hilbworst.lifting import (
    build_f,
    build_r,
    flatness_residual,
    second_order_obstruction,
    syzygy_cubic,
)
from hilbworst.poly import Poly, PolyRing, exact
from hilbworst.taylor import apply_images


def _records(n):
    """The records of every check that ``verify`` certifies, route by route."""
    return [
        *compare_spans(second_order_obstruction(n).equations, ideal_generators(n)),
        *flatness_residual(n),
        *compare_spans(kuranishi_quadratic_locus(n), ideal_generators(n, "miniversal")),
        *compare_classical_dgla(n),
        *verify_structure_correspondence(n),
    ]


def _rechecks(query, pres, cert) -> bool:
    """The certificate verified from scratch: ``Membership.verify``, or an
    embedding's combination of the reduced associators multiplied back."""
    if isinstance(cert, Membership):
        return cert.verify(query, pres)
    return sum((pres[idx] * c for idx, c in cert.items()), query * 0) == query


def _changed(cert):
    """The certificate with its first coefficient doubled; a Poly keeps
    only nonzero coefficients, so none is made zero."""
    if isinstance(cert, Membership):
        idx, mult = next(iter(cert.multipliers.items()))
        terms = mult.terms_dict()
        mono = next(iter(terms))
        terms[mono] = exact(terms[mono] * 2)
        mults = {**cert.multipliers, idx: Poly(mult.n, terms)}
        return Membership(member=True, degree=cert.degree, multipliers=mults)
    idx = next(iter(cert))
    return {**cert, idx: cert[idx] * 2}


@pytest.mark.parametrize("n", [3, 4])
def test_every_record_rechecks_from_its_fields(n):
    records = _records(n)
    kinds = {r.part[0] for r in records if isinstance(r.part[0], str)}
    assert {"a", "b", "section", "projection", "embedding"} <= kinds
    for record in records:
        assert record.ok, record.part
        if record.query is None:  # an exact identity, with nothing to re-check
            assert record.pres is None and record.cert is None
            continue
        assert _rechecks(record.query, record.pres, record.cert), record.part
        if record.query.is_zero:  # a projection to 0, certified by no multiplier
            continue
        forged = _changed(record.cert)
        assert not _rechecks(record.query, record.pres, forged), record.part
        assert not certified(record.part, record.query, record.pres, forged).ok


def _values(cert) -> list:
    """Every coefficient of a membership certificate's multipliers, or every
    value of a rational combination."""
    if isinstance(cert, Membership):
        return [c for m in cert.multipliers.values() for c in m.terms_dict().values()]
    return list(cert.values())


@pytest.mark.parametrize("n", [3, 4, 5])
def test_based_and_flatness_records_are_integral(n):
    # both routes certify nonzero integral multiples of their queries, so
    # every query and every certificate holds ints only
    based, flat = verify_structure_correspondence(n), flatness_residual(n)
    for record in (*based, *flat):
        if record.query is None:  # an exact identity
            continue
        assert all(type(c) is int for c in record.query.terms_dict().values())
        assert all(type(c) is int for c in _values(record.cert)), record.part
    # an associator's query is (n-1)^2 times its projection; with target 0
    # that is -(n-1) times the cubic syzygy, which the route does not read
    projected = {r.part[1]: r.query for r in based if r.part[0] == "projection"}
    for g, lab in based_ideal_generators(n):
        if lab.startswith("assoc"):
            assert projected[lab] == structure_to_params(g, n) * (n - 1) ** 2, lab
    pos = range(1, n + 1)
    for i, j, k in ((i, j, k) for i in pos for j in pos for k in pos if j < k):
        cubic = syzygy_cubic(n, i, j, k) * -(n - 1)
        assert projected[f"assoc({i},{j},{k}|0)"] == cubic
    # a flatness query is n-1 times an x-coefficient of f2.r0 + f1.r1
    _, f1, f2 = build_f(n)
    r0, r1 = build_r(n)
    ring = PolyRing.get(n)
    for record in flat:
        sym, part = record.part
        if part.startswith("x_"):
            x = ring.var_mono(ring.x_var(int(part[2 : part.index("-")])))
            degree2 = apply_images(f2, r0[sym]) + apply_images(f1, r1[sym])
            assert record.query == degree2.split_by_x()[x] * (n - 1), record.part
