"""Echelon spans and certificates."""

from fractions import Fraction

from hilbworst.linalg import EchelonSpan


def F(x):
    return Fraction(x)


def test_insert_and_rank():
    span = EchelonSpan()
    assert span.insert({"a": F(1), "b": F(2)})
    assert span.insert({"b": F(1)})
    assert not span.insert({"a": F(2), "b": F(5)})
    assert span.rank == 2


def test_reduce_residual_is_proof_of_failure():
    span = EchelonSpan()
    span.insert({"a": F(1), "b": F(2)})
    residual, _ = span.reduce({"a": F(1), "c": F(1)})
    assert residual == {"b": F(-2), "c": F(1)}


def test_certificates_roundtrip():
    span = EchelonSpan(track=True)
    rows = {
        "g0": {"a": F(1), "b": F(1)},
        "g1": {"b": F(1), "c": F(1)},
        "g2": {"a": F(1), "c": F(-1)},
    }
    for tag, row in rows.items():
        span.insert(row, tag=tag)
    query = {"a": F(3), "b": F(1), "c": F(-2)}
    residual, used = span.reduce(query)
    assert not residual
    recombined: dict = {}
    for tag, coeff in used.items():
        for k, v in rows[tag].items():
            recombined[k] = recombined.get(k, F(0)) + coeff * v
    assert {k: v for k, v in recombined.items() if v} == query

