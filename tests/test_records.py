"""Every check record re-checks from its own fields: a record of a query
keeps the query, what it was certified against and its certificate, so the
certificate can be verified again without the check that made it, and a
certificate with one coefficient changed fails."""

import pytest

from hilbworst.based import verify_structure_correspondence
from hilbworst.dgla import compare_classical_dgla, kuranishi_quadratic_locus
from hilbworst.ideal import Membership, certified, compare_spans, ideal_generators
from hilbworst.lifting import flatness_residual, second_order_obstruction
from hilbworst.poly import Poly, exact


def _records(n):
    """The records of every check that ``verify`` certifies, route by route."""
    return [
        *compare_spans(second_order_obstruction(n).equations, ideal_generators(n)),
        *flatness_residual(n),
        *compare_spans(
            kuranishi_quadratic_locus(n).equations, ideal_generators(n, "miniversal")
        ),
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
