"""Command-line surface: schemas, determinism, exit codes."""

import argparse
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import hilbworst
from hilbworst.cli import build_parser, main


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, [json.loads(line) for line in out.splitlines() if line.strip()]


def test_gens_json(capsys):
    rc, docs = run_json(capsys, ["gens", "--n", "3", "--json"])
    assert rc == 0
    (doc,) = docs
    assert doc["schema"] == "hilbworst/1"
    assert doc["n"] == 3 and doc["flavor"] == "hilbert"
    assert len(doc["generators"]) == 18


def test_gens_deterministic(capsys):
    main(["gens", "--n", "3", "--json"])
    first = capsys.readouterr().out
    main(["gens", "--n", "3", "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_gens_text_format(capsys):
    rc = main(["gens", "--n", "3", "--format", "text"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "q(1,2,3|1):" in out


def test_family_cas_format(capsys):
    rc, docs = run_json(capsys, ["family", "--n", "3", "--format", "cas"])
    assert rc == 0
    assert any("t_1_1_1" in g for g in docs[0]["generators"])


def test_family_miniversal(capsys):
    rc, docs = run_json(
        capsys, ["family", "--n", "3", "--flavor", "miniversal", "--json"]
    )
    assert rc == 0
    assert all("t(1,1,1)" not in g for g in docs[0]["generators"])


def test_subspaces_report(capsys):
    rc, docs = run_json(capsys, ["subspaces", "--n", "16", "--list", "2"])
    assert rc == 0
    (doc,) = docs
    assert doc["max_linear_dim"] == 275
    assert doc["smoothing_dim"] == 272
    assert doc["reducible_flag"] is True
    assert len(doc["subspaces"]) == 2
    assert doc["subspaces"][0]["dim"] == 275


def test_table_command(tmp_path, capsys):
    src = tmp_path / "point.json"
    src.write_text(json.dumps({"n": 3, "t": [[1, 1, 1, "-1"]]}))
    rc, docs = run_json(capsys, ["table", str(src)])
    assert rc == 0
    (doc,) = docs
    assert doc["associative"] is True
    assert doc["nonzero_residuals"] == []
    full = {(i, j, k): v for i, j, k, v in doc["s"]}
    assert full[(1, 1, 1)] == "1"
    assert full[(0, 2, 2)] == "1"


def test_table_detects_non_associative_point(tmp_path, capsys):
    src = tmp_path / "point.json"
    src.write_text(json.dumps({"n": 3, "t": [[1, 1, 2, "1"], [2, 2, 1, "1"]]}))
    rc, docs = run_json(capsys, ["table", str(src)])
    assert rc == 0
    assert docs[0]["associative"] is False
    assert docs[0]["nonzero_residuals"]


# point file -> sha256 of the ``table`` stdout
TABLE_GOLDEN = {
    '{"n": 3, "t": [[1, 1, 1, "-1"]]}': (
        "d2387a9d6e0e72fd254dd6103c719e4ebc1c0205868f8b5a7acdf037816ada98"
    ),
    '{"n": 3, "t": [[1, 1, 2, "1"], [2, 2, 1, "1"]]}': (
        "cc15255f393972f79fab282579c9cc4fd1bdc68fa6a0f594574d25c065319496"
    ),
}


@pytest.mark.parametrize("point", sorted(TABLE_GOLDEN))
def test_table_output_is_golden(point, tmp_path, capsys):
    src = tmp_path / "point.json"
    src.write_text(point)
    assert main(["table", str(src)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_GOLDEN[point]


@pytest.mark.parametrize(
    "text",
    [
        None,  # no such file
        "{",
        "[3]",
        '{"t": [[1, 1, 1, "-1"]]}',  # missing "n"
        '{"n": 1}',
        '{"n": 2, "t": [[1, 2, 2, "1"]]}',  # the family starts at n = 3
        '{"n": "3"}',
        '{"n": 3, "t": [[1, 2, 9, "1"]]}',
        '{"n": 3, "t": [[0, 2, 1, "1"]]}',
        '{"n": 3, "t": [[1, 2, "1"]]}',
        '{"n": 3, "t": [[1, 2, 3, "1/0"]]}',
        '{"n": 3, "t": [[1, 2, 3, true]]}',  # a JSON boolean is not a rational
        '{"n": 3, "t": [[1, 1, 1, 0.1]]}',  # nor is a binary float
        '{"n": 3, "t": [[1, 2, 3, "1"], [2, 1, 3, "5"]]}',  # t(1,2,3) twice
        '{"n": 3, "t": [[1, 2, 3, "1"], [1, 2, 3, "5"]]}',
        '{"n": 3, "t": 5}',
        '{"n": 3, "t": null}',
    ],
)
def test_table_malformed_input_usage_error(text, tmp_path, capsys):
    src = tmp_path / "point.json"
    if text is not None:
        src.write_text(text)
    dest = tmp_path / "out.json"
    dest.write_text("kept")
    with pytest.raises(SystemExit) as exc:
        main(["table", str(src), "--out", str(dest)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "usage:" in captured.err and str(src) in captured.err
    assert captured.out == ""
    assert dest.read_text() == "kept"  # no output file truncated


def _digit_limit():
    """The interpreter's int/str digit limit, or None where it has none."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get else None


EXACT = re.compile(r"-?\d+(/\d+)?")


@pytest.mark.parametrize(
    "rows, s123, longest",
    [
        ([[1, 2, 3, "1e5000"]], "-1" + "0" * 5000, 5002),
        ([[1, 2, 3, "1e-5000"]], "-1/1" + "0" * 5000, 5004),
        # t(1,2,3)*t(1,3,2) puts 4,400 digits in the constant column
        ([[1, 2, 3, "1e2200"], [1, 3, 2, "1e2200"]], "-1" + "0" * 2200, 4401),
    ],
    ids=["1e5000", "1e-5000", "1e2200-twice"],
)
def test_table_prints_long_exact_values(rows, s123, longest, tmp_path, capsys):
    # each value is under the interpreter's 4,300-digit int/str limit as
    # input; the table prints every entry exactly, and the limit is back
    # in force once main returns
    src = tmp_path / "point.json"
    src.write_text(json.dumps({"n": 3, "t": rows}))
    limit = _digit_limit()
    rc, (doc,) = run_json(capsys, ["table", str(src)])
    assert rc == 0 and _digit_limit() == limit
    values = [v for _, _, _, v in doc["s"]]
    assert all(EXACT.fullmatch(v) for v in values)
    assert max(map(len, values)) == longest
    assert {(i, j, k): v for i, j, k, v in doc["s"]}[(1, 2, 3)] == s123


def test_table_deeply_nested_input_usage_error(tmp_path, capsys):
    # json.loads raises RecursionError on 200,000 nested arrays
    src = tmp_path / "point.json"
    src.write_text("[" * 200_000)
    dest = tmp_path / "out.json"
    dest.write_text("kept")
    with pytest.raises(SystemExit) as exc:
        main(["table", str(src), "--out", str(dest)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "usage:" in captured.err and f"cannot read {src}" in captured.err
    assert captured.out == ""
    assert dest.read_text() == "kept"


_JUNK = [True, None, 0.5, "", "x", "1/0", "nan", [], {}, [1], {"p": 1}]


def _table_document(rng):
    """A valid table document at n = 3 or 4, then 0 to 3 mutations of it,
    as JSON text."""
    n = rng.choice([3, 3, 3, 4])  # a table at n = 4 takes about 0.07 s
    values = {}
    for _ in range(rng.randint(0, 5)):
        i, j, k = (rng.randint(1, n) for _ in range(3))
        values[(min(i, j), max(i, j), k)] = f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"
    rows = [[i, j, k, v] for (i, j, k), v in values.items()]
    doc = {"n": n, "t": rows}
    for _ in range(rng.choice([0, 1, 1, 2, 3])):
        kind = rng.randrange(10)
        lists = [r for r in rows if isinstance(r, list) and r]
        if not lists:
            lists.append([1, 1, 1, "1"])
            rows.append(lists[0])
        row = rng.choice(lists)
        if kind == 0:  # a wrong type anywhere in a row
            row[rng.randrange(len(row))] = rng.choice(_JUNK)
        elif kind == 1:  # an index out of range
            row[rng.randrange(min(3, len(row)))] = rng.choice([0, -1, n + 1, 10**20])
        elif kind == 2:  # swapped indices
            row[:2] = row[1::-1]
        elif kind == 3:  # a repeat, swapped or not, agreeing or not
            twin = row[:-1] + [rng.choice(["7/3", row[-1]])]
            if rng.random() < 0.5:
                twin[:2] = twin[1::-1]
            rows.append(twin)
        elif kind == 4:  # a long exponent
            sign, digit = rng.choice(["", "-"]), rng.randint(1, 9)
            exp = rng.randint(-5000, 5000)
            row[-1] = f"{sign}{digit}e{exp}"
        elif kind == 5:  # extra keys, extra or missing row items
            if rng.random() < 0.5 and isinstance(doc, dict):
                doc[rng.choice(["extra", "s", "N"])] = rng.choice(_JUNK)
            elif rng.random() < 0.5:
                row.append(rng.choice(_JUNK))
            else:
                row.pop()
        elif not isinstance(doc, dict):
            continue
        elif kind == 6:  # "n" of the wrong type or range, or missing
            doc["n"] = rng.choice([2, 0, -3, "3", 3.0, True, None, [3], {}])
            if rng.random() < 0.2:
                del doc["n"]
        elif kind == 7:  # "t" of the wrong type, or missing
            doc["t"] = rng.choice([5, "t", None, {}, {"1": 2}, [rows], rows[:1] * 2])
            if rng.random() < 0.2:
                del doc["t"]
        elif kind == 8:  # another top-level value
            doc = rng.choice([rows, n, "doc", None, [doc]])
        else:  # a deeply nested value in place of a row, a value or a field
            target = rng.choice(["row", "value", "n", "t"])
            if target in ("n", "t"):
                doc[target] = "@DEEP@"
            elif target == "row":
                rows.append("@DEEP@")
            else:
                row[-1] = "@DEEP@"
    text = json.dumps(doc)
    if "@DEEP@" in text:
        depth = rng.choice([2, 50, 900, 200_000])
        text = text.replace('"@DEEP@"', "[" * depth + "1" + "]" * depth)
    if rng.random() < 0.05:  # truncated text
        text = text[: rng.randrange(len(text) + 1)]
    return text


def test_table_documents_fuzzed(tmp_path, capsys):
    # seeded mutations of valid table documents: each ends in exit 0 with one
    # JSON document or in exit 2 with a usage message, and nothing else
    rng = random.Random(20261019)
    src, dest = tmp_path / "point.json", tmp_path / "out.json"
    limit = _digit_limit()
    exits = []
    for case in range(100):
        text = _table_document(rng)
        src.write_text(text)
        dest.write_text("kept")
        argv = ["table", str(src)] + (["--out", str(dest)] if case % 2 else [])
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        captured = capsys.readouterr()
        assert rc in (0, 2), text[:300]
        assert _digit_limit() == limit
        if rc == 2:
            assert "usage:" in captured.err and captured.out == "", text[:300]
            assert dest.read_text() == "kept"
        else:
            printed = dest.read_text() if case % 2 else captured.out
            (line,) = printed.splitlines()
            assert json.loads(line)["schema"] == "hilbworst/1"
        exits.append(rc)
    assert exits.count(0) > 20 and exits.count(2) > 20


@pytest.mark.parametrize(
    "value",
    ['"1e10000000"', '"1e-10000000"', '"' + "7" * 100_001 + '"', "7" * 100_001],
    ids=["1e10000000", "1e-10000000", "long-string", "long-integer"],
)
def test_table_refuses_values_past_the_digit_bound(value, tmp_path, capsys):
    # refused from the text, before any conversion: converting 1e10000000
    # alone takes seconds, and printing such entries takes far longer
    src = tmp_path / "point.json"
    src.write_text('{"n": 3, "t": [[1, 2, 3, ' + value + "]]}")
    dest = tmp_path / "out.json"
    dest.write_text("kept")
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["table", str(src), "--out", str(dest)])
    assert time.perf_counter() - start < 1
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "usage:" in captured.err and "more than 10000 digits" in captured.err
    assert len(captured.err) < 1000  # the value itself is not echoed
    assert captured.out == ""
    assert dest.read_text() == "kept"


@pytest.mark.parametrize("n", [13, 1_000_000])
def test_table_refuses_n_past_the_ceiling(n, tmp_path, capsys):
    # a 20-byte document at n = 16 ran for 14 s before the ceiling, and the
    # time grows steeply with n
    src = tmp_path / "point.json"
    src.write_text(json.dumps({"n": n, "t": []}))
    dest = tmp_path / "out.json"
    dest.write_text("kept")
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["table", str(src), "--out", str(dest)])
    assert time.perf_counter() - start < 1
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "usage:" in captured.err and '"n" must be at most 12' in captured.err
    assert captured.out == ""
    assert dest.read_text() == "kept"


def test_verify_route_exit_codes(capsys):
    rc, docs = run_json(
        capsys, ["verify", "--n", "3", "--route", "oracle", "--samples", "12"]
    )
    assert rc == 0
    assert all(d["status"] == "ok" for d in docs)
    assert {d["check"] for d in docs} == {"oracle_sample", "oracle_agreement"}
    samples = [d for d in docs if d["check"] == "oracle_sample"]
    assert len(samples) == 12
    assert all("kind" in d and "fiber_dimension" in d for d in samples)


def test_verify_all_routes(capsys):
    rc, docs = run_json(
        capsys, ["verify", "--n", "3", "--route", "all", "--samples", "6"]
    )
    assert rc == 0
    routes = {d["route"] for d in docs}
    assert routes == {"classical", "dgla", "based", "oracle"}
    assert all(d["schema"] == "hilbworst/1" for d in docs)


def test_verify_failure_exit_code(capsys, monkeypatch):
    # force one closedness residual to be nonzero: exit 1, failure named
    import hilbworst.cli as cli_mod
    from hilbworst.poly import PolyRing

    real = cli_mod.dgla.closedness_residual

    def broken(n):
        out = dict(real(n))
        key = next(iter(out))
        out[key] = PolyRing.get(n).t(1, 2, 3)
        return out

    monkeypatch.setattr(cli_mod.dgla, "closedness_residual", broken)
    rc = main(["verify", "--n", "3", "--route", "dgla"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "verification failed: dgla/derivation_closedness" in captured.err
    docs = [json.loads(line) for line in captured.out.splitlines()]
    assert any(d["status"] == "fail" for d in docs)


def test_verify_forged_cup_product_is_named(capsys, monkeypatch):
    # one wedge value of the cup product doubled: exit 1, the cup product
    # check and its generator named
    import hilbworst.dgla as dgla
    from hilbworst.taylor import FreeModElt

    real = dgla.cup_product

    def forged(n):
        cup = real(n)
        wedges = dict(cup.wedge_values)
        sym = min(wedges)
        wedges[sym] = 2 * wedges[sym]  # in its torus block, as the locus needs
        return dgla.CupReport(wedge_values=wedges, curly_values=cup.curly_values)

    sym = min(real(3).wedge_values)
    monkeypatch.setattr(dgla, "cup_product", forged)
    rc = main(["verify", "--n", "3", "--route", "dgla"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "verification failed: dgla/cup_product at n=3" in captured.err
    docs = [json.loads(line) for line in captured.out.splitlines()]
    failed = [d for d in docs if d["check"] == "cup_product" and d["status"] != "ok"]
    assert [d["generator"] for d in failed] == [FreeModElt._sym_text(sym)]


@pytest.mark.parametrize("route", ["dgla", "all"])
def test_verify_cup_product_off_its_block_is_a_failed_check(
    route, capsys, monkeypatch
):
    # t(1,2,3)^2 x(1) added to one wedge value leaves the quadric of the
    # locus outside one torus block: the presentation refuses it, and that
    # refusal is the kuranishi_span fail line, not a traceback; the dgla
    # route stops there, the other routes still run
    import hilbworst.dgla as dgla
    from hilbworst.poly import PolyRing

    real = dgla.cup_product

    def forged(n):
        cup = real(n)
        wedges = dict(cup.wedge_values)
        sym = min(wedges)
        R = PolyRing.get(n)
        wedges[sym] = wedges[sym] + R.t(1, 2, 3) ** 2 * R.x(1)
        return dgla.CupReport(wedge_values=wedges, curly_values=cup.curly_values)

    monkeypatch.setattr(dgla, "cup_product", forged)
    # the locus is cached per n; it raises here, so the forgery is not kept
    dgla.kuranishi_quadratic_locus.cache_clear()
    argv = ["verify", "--n", "3", "--route", route, "--samples", "2"]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == "verification failed: dgla/cup_product at n=3\n"
    docs = [json.loads(line) for line in captured.out.splitlines()]
    dgla_checks = [d["check"] for d in docs if d["route"] == "dgla"]
    assert dgla_checks[-1] == "kuranishi_span"
    assert "classical_vs_dgla" not in dgla_checks
    (span,) = [d for d in docs if d["check"] == "kuranishi_span"]
    assert span["status"] == "fail"
    assert span["detail"].startswith("a miniversal generator is a nonzero quadric")
    failed = {d["check"] for d in docs if d["status"] != "ok"}
    assert failed == {"cup_product", "kuranishi_span"}
    if route == "all":
        assert {d["route"] for d in docs} == {"classical", "dgla", "based", "oracle"}


def test_verify_refuses_n_past_the_ceiling(capsys):
    # verify runs up to MAX_VERIFY_N; past it, a usage error and no output
    from hilbworst.cli import MAX_VERIFY_N

    assert build_parser().parse_args(["verify", "--n", str(MAX_VERIFY_N)]).n == 10
    for n in (MAX_VERIFY_N + 1, 40):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", str(n), "--route", "dgla"])
        assert time.perf_counter() - start < 1
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "usage:" in captured.err
        assert f"must be at most {MAX_VERIFY_N}, got {n}" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("command", ["gens", "family", "export"])
def test_export_commands_refuse_n_past_the_ceiling(command, capsys, tmp_path):
    # gens, family and export run up to MAX_EXPORT_N; past it, a usage error,
    # no output and no file written
    from hilbworst.cli import MAX_EXPORT_N

    parsed = build_parser().parse_args([command, "--n", str(MAX_EXPORT_N)])
    assert parsed.n == MAX_EXPORT_N == 12
    out = tmp_path / "out"
    for n in (MAX_EXPORT_N + 1, 40):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main([command, "--n", str(n), "--out", str(out)])
        assert time.perf_counter() - start < 1
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "usage:" in captured.err
        assert f"must be at most {MAX_EXPORT_N}, got {n}" in captured.err
        assert captured.out == ""
        assert not out.exists()


@pytest.mark.parametrize(
    "argv, ceiling",
    [
        (["subspaces", "--n", "1000", "--list"], "MAX_SUBSPACES_LIST"),
        (["verify", "--n", "10", "--route", "oracle", "--samples"], "MAX_SAMPLES"),
    ],
    ids=["list", "samples"],
)
def test_counts_refuse_values_past_the_ceiling(argv, ceiling, capsys, tmp_path):
    # subspaces --list and verify --samples parse up to their ceilings;
    # past them, a usage error before any work, no output and no file
    # written.  The work at the ceilings is measured in the README, not here
    import hilbworst.cli as cli

    high = getattr(cli, ceiling)
    dest = argv[-1].lstrip("-")
    assert getattr(build_parser().parse_args([*argv, str(high)]), dest) == high
    out = tmp_path / "out.json"
    for value in (high + 1, 10**9):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main([*argv, str(value), "--out", str(out)])
        assert time.perf_counter() - start < 1
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "usage:" in captured.err
        assert f"must be at most {high}, got {value}" in captured.err
        assert captured.out == ""
        assert not out.exists()


def test_subspaces_refuses_n_past_the_ceiling(capsys, tmp_path):
    # subspaces runs up to MAX_SUBSPACES_N, past the n = 16 of the paper's
    # reducible example; past it, a usage error and no output
    from hilbworst.cli import MAX_SUBSPACES_N

    assert main(["subspaces", "--n", str(MAX_SUBSPACES_N), "--list", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == MAX_SUBSPACES_N >= 16
    assert doc["reducible_flag"] and len(doc["subspaces"]) == 1
    out = tmp_path / "out.json"
    for n in (MAX_SUBSPACES_N + 1, 100_000):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["subspaces", "--n", str(n), "--out", str(out)])
        assert time.perf_counter() - start < 1
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "usage:" in captured.err
        assert f"must be at most {MAX_SUBSPACES_N}, got {n}" in captured.err
        assert captured.out == ""
        assert not out.exists()


def test_verify_missing_certificate_is_a_failed_check(capsys, monkeypatch):
    # cubic queries answered as non-members: the syzygy and flatness
    # certificates go missing, and verify reports that instead of raising;
    # the cubics are asked through ideal.orbit_memberships
    import hilbworst.ideal as ideal
    from hilbworst.ideal import Membership

    real = ideal.membership

    def no_cubics(p, pres):
        if p.degree("t") == 3:
            return Membership(member=False, degree=3, residual=p)
        return real(p, pres)

    monkeypatch.setattr(ideal, "membership", no_cubics)
    rc = main(["verify", "--n", "3", "--route", "classical"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "verification failed: classical/cubic_syzygy_certificates" in captured.err
    docs = {d["check"]: d for d in map(json.loads, captured.out.splitlines())}
    assert docs["cubic_syzygy_certificates"]["status"] == "fail"
    assert docs["cubic_syzygy_certificates"]["detail"] == (
        "no degree-3 certificate for 9 of 9 cubics at n=3, first at (1,1,2)"
    )
    assert docs["flatness"]["status"] == "fail"
    assert docs["flatness"]["detail"] == (
        "flatness certification failed at n=3: 9 of 9 shared-index wedges, "
        "first e[1,1]^e[1,2] (t-degree-3 part)"
    )
    assert docs["koszul_trivial_lift"]["status"] == "ok"


@pytest.mark.parametrize(
    "ijk, wedge",
    [((2, 1, 3), "e[1,2]^e[2,3]"), ((3, 1, 2), "e[1,3]^e[2,3]")],
)
def test_verify_one_missing_cubic_is_named(ijk, wedge, capsys, monkeypatch):
    # only the cubic at ijk (or that cubic over n-1) is answered as a
    # non-member, and no certificate is transported, so every cubic is asked
    # of membership: both checks count one of nine and name its triple and
    # wedge
    import hilbworst.ideal as ideal
    import hilbworst.lifting as lifting
    from hilbworst.ideal import Membership

    n = 3
    real = ideal.membership
    cubic = lifting.syzygy_cubic(n, *ijk)

    def one_missing(p, pres):
        if p == cubic or p * Fraction(n - 1) == cubic:
            return Membership(member=False, degree=3, residual=p)
        return real(p, pres)

    monkeypatch.setattr(ideal, "membership", one_missing)
    monkeypatch.setattr(ideal, "transported", lambda cert, sigma, pres: None)
    rc = main(["verify", "--n", str(n), "--route", "classical"])
    captured = capsys.readouterr()
    assert rc == 1
    docs = {d["check"]: d for d in map(json.loads, captured.out.splitlines())}
    i, j, k = ijk
    assert docs["cubic_syzygy_certificates"]["detail"] == (
        f"no degree-3 certificate for 1 of 9 cubics at n=3, first at ({i},{j},{k})"
    )
    assert docs["flatness"]["detail"] == (
        "flatness certification failed at n=3: 1 of 9 shared-index wedges, "
        f"first {wedge} (t-degree-3 part)"
    )
    assert all(
        d["status"] == "ok"
        for name, d in docs.items()
        if name not in ("cubic_syzygy_certificates", "flatness")
    )


def test_verify_reverifies_cubic_certificates(capsys, monkeypatch):
    # a forged certificate (member, but no multipliers) does not count
    import hilbworst.ideal as ideal
    from hilbworst.ideal import Membership

    real = ideal.membership

    def forged(p, pres):
        if p.degree("t") == 3:
            return Membership(member=True, degree=3)
        return real(p, pres)

    monkeypatch.setattr(ideal, "membership", forged)
    rc = main(["verify", "--n", "3", "--route", "classical"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "verification failed: classical/cubic_syzygy_certificates" in captured.err
    docs = {d["check"]: d for d in map(json.loads, captured.out.splitlines())}
    assert docs["cubic_syzygy_certificates"]["detail"] == (
        "no degree-3 certificate for 9 of 9 cubics at n=3, first at (1,1,2)"
    )
    assert docs["flatness"]["detail"] == (
        "flatness certification failed at n=3: 9 of 9 shared-index wedges, "
        "first e[1,1]^e[1,2] (t-degree-3 part)"
    )


@pytest.mark.parametrize(
    "route, span_checks",
    [
        ("classical", {"second_order_span"}),
        ("dgla", {"kuranishi_span", "classical_vs_dgla"}),
    ],
    ids=["classical", "dgla"],
)
def test_verify_reverifies_span_certificates(route, span_checks, capsys, monkeypatch):
    # compare_spans handed forged certificates (member, but no
    # multipliers), both from membership and for the generators the other
    # presentation shares, which it certifies by index: every span check
    # fails, every other check still passes; the cubics, asked of the same
    # function, get real answers
    import hilbworst.ideal as ideal
    from hilbworst.ideal import Membership

    real, real_shared = ideal.membership, ideal._shared_certificate

    def forged(p, pres):
        if p.degree("t") == 3:
            return real(p, pres)
        return Membership(member=True, degree=2)

    def forged_shared(g, pres):
        if real_shared(g, pres) is None:
            return None
        return Membership(member=True, degree=2)

    monkeypatch.setattr(ideal, "membership", forged)
    monkeypatch.setattr(ideal, "_shared_certificate", forged_shared)
    rc = main(["verify", "--n", "3", "--route", route])
    captured = capsys.readouterr()
    assert rc == 1
    docs = [json.loads(line) for line in captured.out.splitlines()]
    assert {d["check"] for d in docs if d["status"] != "ok"} == span_checks


def run_based_detail(capsys) -> str:
    rc = main(["verify", "--n", "3", "--route", "based"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "verification failed: based/structure_correspondence" in captured.err
    (doc,) = map(json.loads, captured.out.splitlines())
    assert doc["status"] == "fail"
    return doc["detail"]


def test_verify_reverifies_projection_certificates(capsys, monkeypatch):
    # forged projection certificates (member, but no multipliers) do not count
    import hilbworst.based as based
    from hilbworst.ideal import Membership

    def forged(p, pres):
        return Membership(member=True, degree=2)

    monkeypatch.setattr(based, "membership", forged)
    detail = run_based_detail(capsys)
    assert detail.startswith("projection:") and "embedding:" not in detail


@pytest.mark.parametrize("used", [{}, {0: Fraction(1)}], ids=["empty", "wrong"])
def test_verify_reverifies_embedding_certificates(used, capsys, monkeypatch):
    # the associator span reports a zero residual with an empty or a wrong
    # combination: no embedded generator counts as certified
    import hilbworst.based as based

    class Forged:
        def reduce(self, vec):
            return {}, dict(used)

    real = based._reduced_associators

    def forged(n):
        gens, _ = real(n)
        return gens, Forged()

    monkeypatch.setattr(based, "_reduced_associators", forged)
    detail = run_based_detail(capsys)
    assert detail.startswith("embedding:") and "projection:" not in detail


@pytest.mark.parametrize("route", ["classical", "based"])
@pytest.mark.parametrize("forgery", ["sign", "permutation"])
def test_forged_transport_falls_back_to_membership(
    route, forgery, capsys, monkeypatch
):
    # a transported certificate with the wrong sign, or carried by a σ that
    # does not send the orbit's first triple to the target (the identity,
    # for every target), fails Membership.verify: each of the n*C(n,2) = 24
    # cubics is then asked of membership, and verify prints the same lines
    import hilbworst.ideal as ideal

    argv = ["verify", "--n", "4", "--route", route]
    assert main(argv) == 0
    want = capsys.readouterr().out
    real_transported, real_membership = ideal.transported, ideal.membership

    def negated(cert, sigma, pres):
        cert = real_transported(cert, sigma, pres)
        cert.multipliers = {idx: -m for idx, m in cert.multipliers.items()}
        return cert

    if forgery == "sign":
        monkeypatch.setattr(ideal, "transported", negated)
    else:
        monkeypatch.setattr(ideal, "_sending", lambda n, images: (1, 2, 3, 4))
    asked = []

    def counting(p, pres):
        if p.degree("t") == 3:
            asked.append(p)
        return real_membership(p, pres)

    monkeypatch.setattr(ideal, "membership", counting)
    assert main(argv) == 0
    assert capsys.readouterr().out == want
    assert len(asked) == 24


def test_verify_classical_queries_one_cubic_per_orbit(capsys, monkeypatch):
    # nine cubics, one per shared-index wedge, in two S_n orbits of their
    # triples: two are asked of membership, seven certified by transport
    import hilbworst.ideal as ideal

    real = ideal.membership
    degrees = []

    def counting(p, pres):
        degrees.append(p.degree("t"))
        return real(p, pres)

    monkeypatch.setattr(ideal, "membership", counting)
    assert main(["verify", "--n", "3", "--route", "classical"]) == 0
    capsys.readouterr()
    assert degrees.count(3) == 2


def test_verify_dgla_computes_the_cup_product_once(capsys):
    import hilbworst.dgla as dgla

    dgla.cup_product.cache_clear()
    dgla.kuranishi_quadratic_locus.cache_clear()
    assert main(["verify", "--n", "3", "--route", "dgla"]) == 0
    capsys.readouterr()
    assert dgla.cup_product.cache_info().misses == 1


BAD_FLAGS = [
    ["gens"],  # missing --n
    ["verify", "--n", "3", "--route", "bogus"],
    ["gens", "--n", "2"],
    ["family", "--n", "2"],
    ["verify", "--n", "2"],
    ["subspaces", "--n", "2"],
    ["export", "--n", "2"],
    ["gens", "--n", "three"],
    ["verify", "--n", "3", "--route", "oracle", "--samples", "0"],
    ["verify", "--n", "3", "--route", "oracle", "--samples", "-5"],
    ["subspaces", "--n", "5", "--list", "-1"],
    ["export", "--n", "3", "--format", "text"],
]


def test_bad_flags_usage_error(capsys):
    for argv in BAD_FLAGS:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert "usage:" in captured.err, argv
        assert captured.out == "", argv


@pytest.mark.parametrize(
    "argv",
    [
        ["gens", "--n", "3", "--out", "{missing}"],
        ["family", "--n", "3", "--out", "{missing}"],
        ["verify", "--n", "3", "--out", "{missing}"],
        ["subspaces", "--n", "3", "--out", "{missing}"],
        ["table", "{point}", "--out", "{missing}"],
        ["gens", "--n", "3", "--out", "{tmp}"],  # a directory
        ["export", "--n", "3", "--out", "{kept}"],  # a file, not a directory
        ["export", "--n", "3", "--out", "{blocked}"],  # a bundle file is a dir
    ],
    ids=[
        "gens",
        "family",
        "verify",
        "subspaces",
        "table",
        "gens-dir",
        "export",
        "export-file",
    ],
)
def test_unwritable_out_usage_error(argv, tmp_path, capsys):
    point = tmp_path / "point.json"
    point.write_text('{"n": 3, "t": [[1, 1, 1, "-1"]]}')
    kept = tmp_path / "kept"
    kept.write_text("kept")
    blocked = tmp_path / "blocked"
    (blocked / "gens_hilbert_n3.json").mkdir(parents=True)
    paths = {
        "missing": tmp_path / "no" / "such" / "x.json",
        "point": point,
        "tmp": tmp_path,
        "kept": kept,
        "blocked": blocked,
    }
    with pytest.raises(SystemExit) as exc:
        main([a.format(**paths) for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "usage:" in captured.err and "--out" in captured.err
    assert captured.out == ""
    assert kept.read_text() == "kept"
    assert not (tmp_path / "no").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["gens", "--n", "3"],
        ["family", "--n", "3"],
        ["verify", "--n", "3", "--route", "dgla"],
        ["subspaces", "--n", "3"],
        ["table", "{point}"],
        ["export", "--n", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_empty_out_usage_error(argv, tmp_path, monkeypatch, capsys):
    # Path("") is the current directory: an empty --out names no file
    point = tmp_path / "point.json"
    point.write_text('{"n": 3, "t": [[1, 1, 1, "-1"]]}')
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    with pytest.raises(SystemExit) as exc:
        main([a.format(point=point) for a in argv] + ["--out", ""])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "usage:" in captured.err
    assert "argument --out: an empty path names no file" in captured.err
    assert captured.out == ""
    assert list(cwd.iterdir()) == []


# upper bounds on the int values the argv fuzzer passes, so that every case
# stays cheap: by (subcommand, dest), else by dest, else 64
_FUZZ_CAPS = {("subspaces", "n"): 64, "n": 4, "samples": 5}
_FUZZ_TEXTS = ["-1", "0", "1", "2", "3", "3", "4", "5", "16", "64"]
_FUZZ_TEXTS += ["x", "", "3.5", "1e3", " 3", "--n", "{point}", "{bad}", "{dir}"]
_OUT_TARGETS = ["{fresh}", "{fresh}", "{kept}", "{dir}", "{kept}/x", "no/such/x", ""]
_OUT_TARGETS += ["/dev/full"] if os.path.exists("/dev/full") else []


def _fuzz_values(name, action, paths):
    """(good, bad): argument texts that the action's type and choices
    accept within the fuzzer's caps, and texts that they refuse."""
    if action.dest == "out":
        return [t.format(**paths) for t in _OUT_TARGETS], []
    good, bad = [], ["bogus"]
    for text in (t.format(**paths) for t in _FUZZ_TEXTS):
        try:
            value = action.type(text) if action.type else text
        except (argparse.ArgumentTypeError, ValueError):  # ValueError: int
            bad.append(text)
            continue
        cap = _FUZZ_CAPS.get((name, action.dest), _FUZZ_CAPS.get(action.dest, 64))
        if type(value) is int and value > cap:
            continue
        if action.choices is None or value in action.choices:
            good.append(text)
    return good + list(action.choices or ()), bad


def _fuzz_argv(rng, name, subparser, paths):
    """A valid argv for one subcommand, built from its parser's actions, then
    0 to 2 mutations: a refused value, a missing required argument, a
    repeated flag, an unknown flag or a stray argument."""
    actions = [
        a for a in subparser._actions if not isinstance(a, argparse._HelpAction)
    ]
    groups = []  # (action, argument texts)
    for action in actions:
        if not (action.required or rng.random() < 0.5):
            continue
        flag = rng.choice(action.option_strings) if action.option_strings else None
        if action.nargs == 0:
            groups.append((action, [flag]))
            continue
        good, _ = _fuzz_values(name, action, paths)
        value = rng.choice(good)
        groups.append((action, [flag, value] if flag else [value]))
    for _ in range(rng.choice([0, 0, 1, 2])):
        kind = rng.randrange(5)
        action = rng.choice(actions)
        good, bad = _fuzz_values(name, action, paths)
        flag = rng.choice(action.option_strings or [None])
        if kind == 0 and action.nargs != 0:  # a refused value
            value = rng.choice(bad or good)
            groups.append((action, [flag, value] if flag else [value]))
        elif kind == 1 and groups:  # a missing argument
            groups.pop(rng.randrange(len(groups)))
        elif kind == 2 and flag:  # a repeated flag
            repeat = [] if action.nargs == 0 else [rng.choice(good + bad)]
            groups.append((action, [flag] + repeat))
        elif kind == 3:  # an unknown flag
            groups.append((None, [rng.choice(["--bogus", "--bogus=1", "-z", "--"])]))
        else:  # a stray argument
            groups.append((None, [rng.choice(["extra", "3", "{}"])]))
    rng.shuffle(groups)
    argv = [name] + [t for _, texts in groups for t in texts]
    if rng.random() < 0.03:  # no subcommand, or an unknown one
        argv = rng.choice([[], ["bogus"], argv[1:]])
    return argv


def test_argv_fuzzed(tmp_path, monkeypatch, capsys):
    # seeded argv vectors from build_parser()'s own subparsers and actions:
    # each case ends in exit 0, 1 or 2; an exit 2 prints a usage message and
    # leaves a pre-existing --out file intact; an exit 0 in a JSON format
    # prints hilbworst/1 documents; and nothing is written in the working
    # directory but what --out names
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    names = sorted(sub.choices)
    monkeypatch.chdir(tmp_path)
    point, bad = tmp_path / "point.json", tmp_path / "bad.json"
    point.write_text('{"n": 3, "t": [[1, 2, 3, "1/2"], [2, 2, 1, "-3"]]}')
    bad.write_text('{"n": 3, "t": [[1, 2, 4, "1"]]}')
    kept = tmp_path / "kept"
    paths = {"point": point, "bad": bad, "dir": tmp_path / "dir", "kept": kept}
    (tmp_path / "dir").mkdir()
    rng = random.Random(20261020)
    known = set(tmp_path.iterdir()) | {kept}
    exits = {}
    for case in range(150):
        name = names[case % len(names)]
        paths["fresh"] = tmp_path / f"out{case}.json"
        argv = _fuzz_argv(rng, name, sub.choices[name], paths)
        kept.write_text("kept")
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        captured = capsys.readouterr()
        assert rc in (0, 1, 2), argv
        target = None
        if rc == 0:
            args = parser.parse_args(argv)
            if args.out is None and args.command == "export":  # into the cwd
                known |= set(tmp_path.iterdir())
            target = None if args.out is None else Path(args.out).absolute()
        for entry in set(tmp_path.iterdir()) - known:
            assert target and (entry == target or entry in target.parents), argv
            known.add(entry)
        if rc == 2:
            assert "usage:" in captured.err and captured.out == "", argv
            assert kept.read_text() == "kept", argv
        elif rc == 0:
            printed = captured.out
            if args.out is not None and args.command != "export":
                assert printed == "", argv  # the documents go to --out
                printed = Path(args.out).read_text()
            if getattr(args, "format", "json") != "text":
                docs = [json.loads(line) for line in printed.splitlines()]
                assert docs and all(d["schema"] == "hilbworst/1" for d in docs), argv
        exits.setdefault(name, []).append(rc)
    for name, codes in exits.items():
        assert codes.count(0) and codes.count(2), name


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_out_write_usage_error(capsys):
    # opening /dev/full succeeds; the write fails when the file is flushed
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "3", "--route", "classical", "--out", "/dev/full"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "argument --out: cannot write /dev/full:" in captured.err
    assert captured.out == ""


def test_python_dash_m_runs_the_cli(tmp_path):
    env = dict(os.environ)
    src = str(Path(hilbworst.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hilbworst", "verify", "--n", "3", "--route", "dgla"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    docs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert docs and all(d["status"] == "ok" and d["n"] == 3 for d in docs)


def _cli_process(argv, stdout, tmp_path):
    env = dict(os.environ)
    src = str(Path(hilbworst.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "hilbworst", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, cwd=tmp_path,
    )


def test_closed_stdout_pipe_exits_1_quietly(tmp_path):
    # 258 KB of text outgrows the pipe buffer, so writes fail once it is closed
    argv = ["gens", "--n", "6", "--format", "text"]
    proc = _cli_process(argv, subprocess.PIPE, tmp_path)
    assert proc.stdout.readline().startswith("q(")
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert err == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_exits_1_with_one_line(tmp_path):
    with open("/dev/full", "w") as full:
        proc = _cli_process(["gens", "--n", "3"], full, tmp_path)
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert err == "hilbworst: cannot write stdout: No space left on device\n"


def test_export_writes_bundle(tmp_path, capsys):
    rc, docs = run_json(
        capsys, ["export", "--n", "3", "--out", str(tmp_path)]
    )
    assert rc == 0
    written = docs[0]["written"]
    assert "gens_hilbert_n3.json" in written
    assert "family_miniversal_n3.json" in written
    tangent = json.loads((tmp_path / "tangent_n3.json").read_text())
    assert tangent["hom_dim"] == 18 and tangent["t1_dim"] == 15


def test_export_out_help_names_the_bundle_directory():
    # export writes its bundle into the --out directory; the other commands
    # write one document to the --out file
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    helps = {
        name: re.search(r"--out OUT\s+(.*)", p.format_help()).group(1)
        for name, p in sub.choices.items()
    }
    assert helps.pop("export") == "the directory to write the bundle into"
    assert set(helps.values()) == {"write to file instead of stdout"}


# Run the command line in a child whose address space is capped a little
# above its size once the package is imported, so the child starts, and the
# first allocations of a larger n fail.
CAPPED = """
import os, resource, sys
from hilbworst.cli import main
pages = int(open("/proc/self/statm").read().split()[0])
cap = pages * os.sysconf("SC_PAGE_SIZE") + 10 * 2**20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
sys.exit(main(sys.argv[1:]))
"""

CLASSICAL_CHECKS = [
    "first_order_residual",
    "second_order_span",
    "cubic_syzygy_certificates",
    "flatness",
    "koszul_trivial_lift",
]


def _capped(argv, tmp_path):
    env = dict(os.environ)
    src = str(Path(hilbworst.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", CAPPED, *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )


@pytest.mark.skipif(
    not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm"
)
def test_verify_out_of_memory_names_the_running_check(tmp_path):
    # the checks before the one that runs out pass and print; then exit 1
    # with one stderr line naming the route and the check that was running
    proc = _capped(["verify", "--n", "6", "--route", "classical"], tmp_path)
    assert proc.returncode == 1
    docs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert docs, "the cap left no room to reach a check"
    assert [d["check"] for d in docs] == CLASSICAL_CHECKS[: len(docs)]
    assert all(d["status"] == "ok" for d in docs)
    running = CLASSICAL_CHECKS[len(docs)]
    assert proc.stderr == f"hilbworst: out of memory in classical/{running} at n=6\n"


@pytest.mark.skipif(
    not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm"
)
def test_out_of_memory_ends_without_a_traceback(tmp_path):
    proc = _capped(["gens", "--n", "9"], tmp_path)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "hilbworst: out of memory in gens\n"
