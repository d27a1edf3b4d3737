"""Echelon spans and certificates."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from hilbworst.ideal import _packed, ideal_generators
from hilbworst.linalg import EchelonSpan, pivot_keys
from hilbworst.poly import ONE, Poly, PolyRing


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
    span = EchelonSpan()
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



def _reference_span(vectors):
    """Plain all-Fraction elimination: pivot rows and their combinations of
    the inputs, pivots taken as the least key of each residual."""
    rows, combos = {}, {}

    def reduce(vec):
        v = {k: Fraction(c) for k, c in vec.items() if c}
        used = {}
        while True:
            hits = [k for k in v if k in rows]
            if not hits:
                return v, used
            p = min(hits)
            c = v[p]
            for k, rc in rows[p].items():
                v[k] = v.get(k, F(0)) - c * rc
            for tag, cc in combos[p].items():
                used[tag] = used.get(tag, F(0)) + c * cc
            v = {k: x for k, x in v.items() if x}
            used = {t: x for t, x in used.items() if x}

    for tag, vec in vectors:
        residual, used = reduce(vec)
        if residual:
            p = min(residual)
            c = residual[p]
            rows[p] = {k: x / c for k, x in residual.items()}
            combo = {tag: F(1)}
            for t, x in used.items():
                combo[t] = combo.get(t, F(0)) - x
            combos[p] = {t: x / c for t, x in combo.items() if x}
    return rows, reduce


def _random_vector(rng, keys, size):
    vec = {}
    for k in rng.sample(keys, size):
        c = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 1, 2, 3, 5)))
        if c:
            vec[k] = c
    return vec


def test_kernel_matches_fraction_reference():
    rng = random.Random(1001)
    keys = list(range(12))
    for _ in range(40):
        vectors = [(t, _random_vector(rng, keys, rng.randint(1, 5))) for t in range(10)]
        # dependent inputs: combinations of earlier ones
        for t in range(10, 14):
            a, b = rng.sample(vectors, 2)
            ca, cb = Fraction(rng.randint(-3, 3), 2), Fraction(rng.randint(1, 3))
            combo = {k: ca * a[1].get(k, 0) + cb * b[1].get(k, 0) for k in keys}
            vectors.append((t, {k: c for k, c in combo.items() if c}))
        rng.shuffle(vectors)
        span = EchelonSpan()
        gained = [span.insert(vec, tag) for tag, vec in vectors]
        rows, reference = _reference_span(vectors)
        assert span.rank == len(rows) == sum(gained)
        assert set(span.pivots()) == set(rows)
        # inside the span, integral values are ints
        inner = [x for r in span._rows.values() for x in r.values()]
        assert all(type(x) is int or x.denominator != 1 for x in inner)
        for _ in range(5):
            query = _random_vector(rng, keys, rng.randint(1, 8))
            residual, used = span.reduce(query)
            assert (residual, used) == reference(query)
            values = list(residual.values()) + list(used.values())
            assert all(type(x) is Fraction for x in values)
            assert not set(residual) & set(span.pivots())
            total = dict(residual)
            for tag, c in used.items():
                for k, x in dict(vectors)[tag].items():
                    total[k] = total.get(k, F(0)) + c * x
            assert {k: x for k, x in total.items() if x} == query


def _check_stored_form(span, inputs):
    """Every stored row and combination value is an int, each (row,
    combination) pair has content 1 and a positive pivot entry at its least
    key, and the row is exactly the combination of the inputs (by tag)."""
    for p, row in span._rows.items():
        combo = span._combos[p]
        values = list(row.values()) + list(combo.values())
        assert all(type(x) is int for x in values)
        assert gcd(*values) == 1
        assert p == min(row) and row[p] > 0
        total: dict = {}
        for tag, c in combo.items():
            for k, x in inputs[tag].items():
                total[k] = total.get(k, 0) + c * x
        assert {k: x for k, x in total.items() if x} == row


def test_stored_rows_are_primitive_integer_combinations():
    rng = random.Random(1001)
    keys = list(range(12))
    for _ in range(20):
        inputs = {t: _random_vector(rng, keys, rng.randint(1, 5)) for t in range(10)}
        # dependent inputs: combinations of earlier ones
        for t in range(10, 14):
            a, b = rng.sample(sorted(inputs), 2)
            ca, cb = Fraction(rng.randint(-3, 3), 2), Fraction(rng.randint(1, 3))
            combo = {
                k: ca * inputs[a].get(k, 0) + cb * inputs[b].get(k, 0) for k in keys
            }
            inputs[t] = {k: c for k, c in combo.items() if c}
        span = EchelonSpan()
        for tag in rng.sample(sorted(inputs), len(inputs)):
            span.insert(inputs[tag], tag)
        _check_stored_form(span, inputs)


@pytest.mark.parametrize("n, d", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_membership_spans_store_primitive_integer_combinations(n, d):
    pres = ideal_generators(n)
    span = pres.span(d)
    ring = PolyRing.get(n)
    monos = [ONE] if d == 2 else [ring.var_mono(v) for v in ring.t_variables()]
    indices = range(len(pres)) if d == 2 else pres._independent
    inputs = {}  # tag -> its product, by block
    for idx in indices:
        for m in monos:
            product = Poly(n, {m: 1}) * pres.generators[idx]
            block = _packed(product.multidegree())
            inputs.setdefault(block, {})[(m, idx)] = product.terms_dict()
    for vecs in inputs.values():  # grow every degree-3 block
        span.reduce(next(iter(vecs.values())))
    assert set(span.blocks) == set(inputs)
    for block, echelon in span.blocks.items():
        _check_stored_form(echelon, inputs[block])


def test_big_entries_match_fraction_reference():
    rng = random.Random(4040)
    keys = list(range(10))

    def big_vector(size):
        vec = {}
        for k in rng.sample(keys, size):
            vec[k] = Fraction(rng.randint(-(10**40), 10**40), rng.randint(1, 10**20))
        return vec

    vectors = [(t, big_vector(rng.randint(1, 6))) for t in range(8)]
    for t in range(8, 11):
        (_, a), (_, b) = rng.sample(vectors, 2)
        ca = Fraction(rng.randint(1, 10**20), 7)
        cb = Fraction(-3, rng.randint(1, 10**20))
        combo = {k: ca * a.get(k, 0) + cb * b.get(k, 0) for k in keys}
        vectors.append((t, {k: c for k, c in combo.items() if c}))
    rng.shuffle(vectors)
    span = EchelonSpan()
    gained = [span.insert(vec, tag) for tag, vec in vectors]
    rows, reference = _reference_span(vectors)
    assert span.rank == len(rows) == sum(gained) == 8
    assert set(span.pivots()) == set(rows)
    _check_stored_form(span, dict(vectors))
    for _ in range(10):
        query = big_vector(rng.randint(1, 8))
        assert span.reduce(query) == reference(query)
    for _, vec in vectors:
        assert span.reduce(vec)[0] == {}


def test_repeated_tag_merges_its_coefficients():
    span = EchelonSpan()
    assert span.insert({"a": 1, "b": 2}, tag="g")
    # the second row is -4*b = input2 - 3*input1, so the tag's coefficients
    # 1 and -3 merge into -2, and the primitive row is 2*b with combination g
    assert span.insert({"a": 3, "b": 2}, tag="g")
    assert span._rows["b"] == {"b": 2} and span._combos["b"] == {"g": 1}
    assert span.reduce({"b": 1}) == ({}, {"g": Fraction(1, 2)})
    # the same against the reference, with tags drawn from a small set
    rng = random.Random(77)
    keys = list(range(8))
    for _ in range(20):
        vectors = [
            (rng.choice("xyz"), _random_vector(rng, keys, rng.randint(1, 4)))
            for _ in range(7)
        ]
        span = EchelonSpan()
        for tag, vec in vectors:
            span.insert(vec, tag)
        rows, reference = _reference_span(vectors)
        assert set(span.pivots()) == set(rows)
        for _ in range(5):
            query = _random_vector(rng, keys, rng.randint(1, 6))
            assert span.reduce(query) == reference(query)


def _matrix(rng, case):
    """Rows of a random rational matrix of the named kind."""
    if case == "empty":
        return []
    keys = list(range(12))
    rows = [_random_vector(rng, keys, rng.randint(1, 6)) for _ in range(rng.randint(2, 9))]
    if case in ("dependent", "zero rows"):
        # combinations of earlier rows, one of them scaled by a large integer
        for _ in range(rng.randint(1, 5)):
            a, b = rng.sample(rows, 2) if len(rows) > 1 else (rows[0], rows[0])
            ca, cb = Fraction(rng.randint(-3, 3), 2), rng.choice([1, 7, 10**6])
            combo = {k: ca * a.get(k, 0) + cb * b.get(k, 0) for k in keys}
            rows.append({k: c for k, c in combo.items() if c})
    if case == "zero rows":
        rows += [{}, {rng.choice(keys): 0}, {k: Fraction(0) for k in keys[:3]}]
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("case", ["independent", "dependent", "zero rows", "empty"])
def test_pivot_keys_match_echelon_span_pivots(case):
    rng = random.Random(2024)
    for _ in range(40):
        rows = _matrix(rng, case)
        span = EchelonSpan()
        for row in rows:
            span.insert(row)
        assert pivot_keys(iter(rows)) == set(span.pivots())
        # the same rows as ints, each with a content of at least 6
        ints = []
        for row in rows:
            den = lcm(*(Fraction(x).denominator for x in row.values()))
            ints.append({k: int(6 * den * x) for k, x in row.items()})
        assert pivot_keys(ints) == set(span.pivots())
