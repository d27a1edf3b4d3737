"""The three benchmark workloads: their inputs, their timed operations and
the independent checks of their answers.

Each workload runs as *passes*.  A pass is a fixed number of operations that
a fresh child interpreter (or, for ``certify``, three of them) performs with
cold library caches, exactly as a command-line user would.  The inputs of a
pass are generated from the workload seed and the pass number, so a run
covers more inputs than one pass holds, and the same seed gives the same
inputs.  The child side (``setup_*``/``run_*``/``post_*``) imports
``hilbworst``; the parent side (``check_*``) only looks at what the children
reported.

``run_*`` times its operations with the ``clock`` it is given and returns
one (start, seconds, tag) triple per operation.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import defaultdict
from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO

ROUTES = ("classical", "dgla", "based")


def sizes(workload: str, smoke: bool) -> dict:
    """Problem size of one pass.  Smoke mode runs the same code paths at
    n=3 with a handful of operations."""
    if workload == "certify-n4":
        return {"n": 3 if smoke else 4}
    if workload == "oracle-n5":
        return {"n": 3 if smoke else 5, "trials": 6 if smoke else 50}
    if workload == "membership-n4":
        return {"n": 3 if smoke else 4, "queries": 60 if smoke else 8000}
    raise ValueError(f"unknown workload {workload!r}")


def _small_fraction(rng: random.Random) -> Fraction:
    """Random nonzero rational of height at most 9."""
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))


def input_rng(job: dict) -> random.Random:
    """Generator of a pass's inputs.  A str seed is hashed with sha512, so
    it does not depend on PYTHONHASHSEED."""
    return random.Random(f"{job['seed']}/{job['pass']}")


# -- certify-n4: `hilbworst verify --n 4 --route R`, one process per route ------


def setup_certify(job: dict) -> dict:
    from hilbworst import cli

    return {"cli": cli, "argv": ["verify", "--n", str(job["n"]), "--route", job["route"]]}


def run_certify(state: dict, clock) -> list:
    buf = StringIO()
    t0 = clock()
    with redirect_stdout(buf):
        code = state["cli"].main(state["argv"])
    ops = [(t0, clock() - t0, state["argv"][-1])]
    state["stdout"], state["exit"] = buf.getvalue(), code
    return ops


def post_certify(state: dict) -> dict:
    out = state["stdout"]
    statuses = [json.loads(line)["status"] for line in out.splitlines()]
    return {
        "sha256": hashlib.sha256(out.encode()).hexdigest(),
        "exit": state["exit"],
        "checks": len(statuses),
        "not_ok": sum(s != "ok" for s in statuses),
    }


def check_certify(answers: dict, golden: dict) -> bool:
    """Byte-identical output, exit code 0 and every check line `ok`."""
    return (
        answers["sha256"] == golden["sha256"]
        and answers["exit"] == golden["exit"] == 0
        and answers["not_ok"] == 0
    )


# -- oracle-n5: `agreement_trial` at seeded points ------------------------------


def oracle_points(rng: random.Random, n: int, count: int) -> list:
    """The three-way mix of ``oracle.run_samples``: the coordinate point,
    then configuration, subspace and generic points in turn."""
    from hilbworst import oracle

    pts = [
        ("coordinate", oracle.point_from_configuration(oracle.coordinate_configuration(n)))
    ]
    while len(pts) < count:
        mode = len(pts) % 3
        if mode == 0:
            try:
                tvals = oracle.point_from_configuration(oracle.random_configuration(rng, n))
            except oracle.BasisCriterionError:
                continue
            pts.append(("configuration", tvals))
        elif mode == 1:
            spec = oracle.random_partition_spec(rng, n)
            pts.append(("subspace", oracle.random_subspace_point(rng, spec)))
        else:
            pts.append(("generic", oracle.random_generic_point(rng, n)))
    return pts


def setup_oracle(job: dict) -> dict:
    from hilbworst import oracle

    return {
        "oracle": oracle,
        "n": job["n"],
        "points": oracle_points(input_rng(job), job["n"], job["trials"]),
    }


def run_oracle(state: dict, clock) -> list:
    trial, n = state["oracle"].agreement_trial, state["n"]
    ops, results = [], []
    for kind, tvals in state["points"]:
        t0 = clock()
        res = trial(tvals, n, kind)
        ops.append((t0, clock() - t0, kind))
        results.append(res)
    state["results"] = results
    return ops


def post_oracle(state: dict) -> list:
    return [
        [r["kind"], r["symbolic"], r["associative"], r["fiber_member"]]
        for r in state["results"]
    ]


def check_oracle_trial(trial: list) -> bool:
    """Each test must give the membership the point's kind implies: the
    generic points are built to violate a generator, every other kind is a
    genuine point of the chart.  The library's `agree` flag is not used."""
    kind, symbolic, associative, fiber_member = trial
    expected = kind != "generic"
    return symbolic is expected and associative is expected and fiber_member is expected


# -- membership-n4: a stream of exact membership queries ----------------------------


# The membership traffic of the program's own callers, as the tracer counts
# it (ideal.membership_deg2_calls, ideal.membership_deg3_calls) on one
# certify-n4 pass: classical 278 + 48, dgla 354 + 0 and based 96 + 24
# degree-2 + degree-3 queries, 728 + 72 in all, and all 800 are members.
DEGREE3_SHARE = 72 / 800
# Those callers ask no non-members.  One query in ten is a non-member all the
# same, so that every pass answers and certifies some hundreds of residuals;
# the measured traffic, members, stays nine in ten and sets the percentiles.
NONMEMBER_SHARE = 0.1


def membership_queries(rng: random.Random, n: int, count: int) -> list:
    """Seeded homogeneous queries of t-degree 2 and 3 in the proportion of
    DEGREE3_SHARE, each inside one torus multidegree block chosen uniformly.
    At n=4, 8000 queries hold about 720 of degree 3, which reach nearly all
    176 degree-3 blocks.

    Most are constructed members (a random combination of generators, or of
    variable * generator products, of that block); a NONMEMBER_SHARE are such
    a member plus a random monomial of the block, which is usually a
    non-member.  Returns (query, constructed_member) pairs; the first query
    has degree 3.
    """
    from hilbworst.ideal import ideal_generators
    from hilbworst.poly import Poly, PolyRing

    ring = PolyRing.get(n)
    pres = ideal_generators(n)
    blocks = {2: defaultdict(list), 3: defaultdict(list)}
    for g in pres.generators:
        blocks[2][g.multidegree()].append(g)
        for v in ring.t_variables():
            prod = g * ring.var_poly(v)
            blocks[3][prod.multidegree()].append(prod)
    keys = {d: sorted(b) for d, b in blocks.items()}
    monomials = {
        d: {k: sorted({m for p in b[k] for m in p.terms_dict()}) for k in keys[d]}
        for d, b in blocks.items()
    }

    queries = []
    while len(queries) < count:
        degree = 3 if not queries or rng.random() < DEGREE3_SHARE else 2
        key = rng.choice(keys[degree])
        parts = blocks[degree][key]
        p = ring.zero()
        for part in rng.sample(parts, min(len(parts), rng.randint(1, 3))):
            p = p + part * _small_fraction(rng)
        member = rng.random() >= NONMEMBER_SHARE
        if not member:
            mono = rng.choice(monomials[degree][key])
            p = p + Poly(n, {mono: _small_fraction(rng)})
        if not p.is_zero:
            queries.append((p, member))
    return queries


def setup_membership(job: dict) -> dict:
    from hilbworst import ideal

    return {
        "ideal": ideal,
        "pres": ideal.ideal_generators(job["n"]),
        "queries": membership_queries(input_rng(job), job["n"], job["queries"]),
    }


def run_membership(state: dict, clock) -> list:
    ideal, pres = state["ideal"], state["pres"]
    ops, answers = [], []
    t0 = clock()
    for p, _ in state["queries"]:
        answers.append(ideal.membership(p, pres))
        t1 = clock()
        ops.append((t0, t1 - t0, answers[-1].degree))
        t0 = t1
    state["answers"] = answers
    return ops


def _certified(ideal, pres, p, m) -> bool:
    """A member must pass ``Membership.verify``.  A non-member needs a
    nonzero residual r such that p - r is a verified member."""
    if m.member:
        return m.verify(p, pres)
    r = m.residual
    if r is None or r.is_zero:
        return False
    mm = ideal.membership(p - r, pres)
    return mm.member and mm.verify(p - r, pres)


def post_membership(state: dict) -> list:
    """(constructed member, answered member, certified) per query."""
    ideal, pres = state["ideal"], state["pres"]
    return [
        [constructed, m.member, _certified(ideal, pres, p, m)]
        for (p, constructed), m in zip(state["queries"], state["answers"])
    ]


def check_membership_answer(answer: list) -> bool:
    """A constructed member must be answered as a member, and every answer
    must be certified."""
    constructed, member, certified = answer
    return certified and (member or not constructed)


CHILD = {
    "certify-n4": (setup_certify, run_certify, post_certify),
    "oracle-n5": (setup_oracle, run_oracle, post_oracle),
    "membership-n4": (setup_membership, run_membership, post_membership),
}
