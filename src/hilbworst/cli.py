"""Command-line surface: generator/family exports, verification pipelines,
subspace reports and table evaluation.

Every JSON document carries a top-level {"schema": "hilbworst/1"} marker,
which ``_dumps`` alone stamps, and is emitted with sorted keys, so output is
byte-stable for fixed flags and seed.  ``verify`` streams one JSON line per
check and exits 0 only when all requested checks pass; the first failure is
named on stderr.  A command that runs out of memory exits 1 with one stderr
line, which for ``verify`` names the check that was running.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

from . import based, dgla, ideal, lifting, oracle, subspaces, taylor

SCHEMA = "hilbworst/1"


def _dumps(doc: dict) -> str:
    return json.dumps({**doc, "schema": SCHEMA}, sort_keys=True) + "\n"


def _emit(doc: dict, out) -> None:
    out.write(_dumps(doc))


def _generators_doc(n: int, flavor: str, gens, fmt: str) -> dict:
    return {
        "n": n,
        "flavor": flavor,
        "generators": [g.text(cas=(fmt == "cas")) for g in gens],
    }


def cmd_gens(args, out) -> int:
    pres = ideal.ideal_generators(args.n, args.flavor)
    if args.format == "text":
        for lab, g in zip(pres.labels, pres.generators):
            out.write(f"{lab}: {g.text()}\n")
    else:
        _emit(_generators_doc(args.n, args.flavor, pres.generators, args.format), out)
    return 0


def cmd_family(args, out) -> int:
    gens = lifting.universal_family(args.n, args.flavor)
    if args.format == "text":
        for g in gens:
            out.write(g.text() + "\n")
    else:
        _emit(_generators_doc(args.n, args.flavor, gens, args.format), out)
    return 0


def cmd_subspaces(args, out) -> int:
    res = subspaces.max_linear_dim(args.n)
    smooth = subspaces.smoothing_dim(args.n)
    doc = {
        "n": args.n,
        "max_linear_dim": res.dim,
        "m": res.m,
        "count_lower_bound": res.count_lower_bound,
        "maximizers": list(res.maximizers),
        "case_formula_matches": res.case_formula_matches,
        "smoothing_dim": smooth,
        "reducible_flag": res.dim > smooth,
    }
    if args.list:
        cap = min(res.count_lower_bound, args.list)
        doc["subspaces"] = [
            {"A": sorted(s.A), "B": sorted(s.B), "dim": subspaces.subspace_dim(s)}
            for s in subspaces.optimal_specs(args.n, cap)
        ]
    _emit(doc, out)
    return 0


def cmd_table(args, out) -> int:
    n, tvals = args.point
    table = based.table_from_point(lifting.family_at(n, tvals), n)
    residuals = based.associativity_residual(table)
    nonzero = sorted(
        list(key) for key, vec in residuals.items() if any(v != 0 for v in vec)
    )
    doc = based.table_to_json_dict(table)
    doc["associative"] = not nonzero
    doc["nonzero_residuals"] = nonzero
    _emit(doc, out)
    return 0


def _check(n: int, ok: bool, detail: str = "") -> dict:
    doc = {"n": n, "status": "ok" if ok else "fail"}
    if detail:
        doc["detail"] = detail
    return doc


def _all_ok(n: int, records) -> dict:
    return _check(n, all(r.ok for r in records))


def _flatness_details(n: int, records) -> tuple:
    """The cubic and flatness details of ``lifting.flatness_residual``'s
    records, each empty when its check passes."""
    cubics = [r for r in records if r.part[1] == "t-degree-3 part"]
    missing = sorted(taylor.nonkoszul_triple(r.part[0]) for r in cubics if not r.ok)
    failing: dict = {}  # wedge symbol -> its first failing part, in wedge order
    for r in records:
        if not r.ok:
            failing.setdefault(*r.part)
    cubic = flat = ""
    if missing:
        cubic = (
            f"no degree-3 certificate for {len(missing)} of {len(cubics)} "
            f"cubics at n={n}, first at ({','.join(map(str, missing[0]))})"
        )
    if failing:
        sym, part = next(iter(failing.items()))
        flat = (
            f"flatness certification failed at n={n}: {len(failing)} of "
            f"{len(cubics)} shared-index wedges, first "
            f"{taylor.FreeModElt._sym_text(sym)} ({part})"
        )
    return cubic, flat


def _route_classical(n: int):
    yield "first_order_residual"
    res = lifting.first_order_residual(n)
    yield _check(n, all(p.is_zero for p in res.values()))
    yield "second_order_span"
    system = lifting.second_order_obstruction(n)
    yield _all_ok(n, ideal.compare_spans(system.equations, ideal.ideal_generators(n)))
    yield "cubic_syzygy_certificates"
    cubic, flat = _flatness_details(n, lifting.flatness_residual(n))
    yield _check(n, not cubic, cubic)
    yield "flatness"
    yield _check(n, not flat, flat)
    yield "koszul_trivial_lift"
    yield _check(n, not lifting.koszul_lift_failures(n))


def _generator_check(n: int, sym, residual) -> dict:
    """Per-generator report: {generator, residual, status}."""
    doc = _check(n, residual.is_zero)
    doc["generator"] = taylor.FreeModElt._sym_text(sym)
    doc["residual"] = residual.text()
    return doc


def _route_dgla(n: int):
    yield "derivation_closedness"
    closed = dgla.closedness_residual(n)
    for sym, res in sorted(closed.items(), key=lambda kv: (kv[0][0], str(kv[0]))):
        yield _generator_check(n, sym, res)
    yield "cup_product"
    for sym, res in sorted(dgla.cup_residual(n).items()):
        yield _generator_check(n, sym, res)
    yield "cup_product_exterior_square"
    for sym, q in sorted(dgla.cup_product(n).curly_values.items()):
        yield _generator_check(n, sym, q.rep)
    yield "kuranishi_span"
    locus = dgla.kuranishi_quadratic_locus(n)
    mini = ideal.ideal_generators(n, "miniversal")
    yield _all_ok(n, ideal.compare_spans(locus, mini))
    yield "classical_vs_dgla"
    yield _all_ok(n, dgla.compare_classical_dgla(n))


def _route_based(n: int):
    yield "structure_correspondence"
    records = based.verify_structure_correspondence(n)
    # the detail names the failing certificates, not the section identity
    failed = [r.part for r in records if not r.ok and r.part[0] != "section"]
    detail = "; ".join(f"{kind}:{lab}" for kind, lab in failed)
    yield _check(n, all(r.ok for r in records), detail)


def _route_oracle(n: int, seed: int, samples: int):
    yield "oracle_sample"
    trials = oracle.run_samples(n, seed=seed, samples=samples)
    bad = 0
    for idx, trial in enumerate(trials):
        doc = _check(n, trial["agree"])
        doc["sample"] = idx
        doc.update(trial)
        bad += not trial["agree"]
        yield doc
    yield "oracle_agreement"
    yield _check(n, not bad, detail=f"{len(trials)} samples")


# route name -> its checks for the parsed flags, in the order of --route all:
# a route yields the name of each check before it starts the check's work,
# then the check's lines
_ROUTES = {
    "classical": lambda args: _route_classical(args.n),
    "dgla": lambda args: _route_dgla(args.n),
    "based": lambda args: _route_based(args.n),
    "oracle": lambda args: _route_oracle(args.n, args.seed, args.samples),
}


def _route_lines(route: str, args):
    """(check, line) for each line of one route.  A check that raises
    ``ideal.UnsupportedDegreeError``, a query or generator outside the
    degrees decided exactly, ends the route with a fail line of that check,
    the message as its detail."""
    check = None
    try:
        for doc in _ROUTES[route](args):
            if isinstance(doc, str):
                check = doc
                args.running = f"{route}/{check} at n={args.n}"  # read by _run
            else:
                yield check, doc
    except ideal.UnsupportedDegreeError as exc:
        yield check, _check(args.n, False, str(exc))


def cmd_verify(args, out) -> int:
    routes = list(_ROUTES) if args.route == "all" else [args.route]
    failures = []
    for route in routes:
        for check, doc in _route_lines(route, args):
            doc.update(check=check, route=route)
            _emit(doc, out)
            if doc["status"] != "ok":
                failures.append(doc)
    if failures:
        first = failures[0]
        print(
            f"verification failed: {first['route']}/{first['check']} at n={first['n']}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_export(args, out) -> int:
    n, fmt = args.n, args.format
    docs = {}
    for flavor in ("hilbert", "miniversal"):
        gens = ideal.ideal_generators(n, flavor).generators
        docs[f"gens_{flavor}_n{n}.json"] = _generators_doc(n, flavor, gens, fmt)
        family = lifting.universal_family(n, flavor)
        docs[f"family_{flavor}_n{n}.json"] = _generators_doc(n, flavor, family, fmt)
    dims = taylor.tangent_dims(n)
    docs[f"tangent_n{n}.json"] = {
        "n": n, "hom_dim": dims.hom_dim, "t1_dim": dims.t1_dim
    }
    outdir = Path(args.out or ".")  # created by main
    for name, doc in docs.items():
        (outdir / name).write_text(_dumps(doc))
    _emit({"written": sorted(docs)}, out)
    return 0


MAX_DIGITS = 10_000  # digits of a numerator or denominator that table reads
# the largest "n" that table reads: the time grows steeply with n, and n = 12
# already takes about 3 s
MAX_TABLE_N = 12


def _past_max_digits(text: str) -> bool:
    """Whether ``Fraction(text)`` may have a numerator or denominator of more
    than MAX_DIGITS digits, judged from the text alone, since converting an
    exponent such as 1e10000000 takes seconds: the length of the text before
    its exponent plus the exponent's size bounds both."""
    mantissa, _, exp = text.lower().partition("e")
    # six digits already pass MAX_DIGITS; what is not a number Fraction refuses
    exp = exp.strip().lstrip("+-").replace("_", "").lstrip("0")[:6]
    return len(mantissa) + (int(exp) if exp.isdecimal() else 0) > MAX_DIGITS


def _read_point(path: str) -> tuple:
    """argparse type: (n, {(i, j, k): Fraction}) from a table input file.
    Parsed with the flags, so a malformed file is a usage error before any
    output file is opened."""
    error = argparse.ArgumentTypeError

    def parse_int(literal: str) -> int:
        if len(literal.lstrip("-")) > MAX_DIGITS:
            raise error(f"{path}: a JSON integer has more than {MAX_DIGITS} digits")
        return int(literal)

    try:  # json.loads raises RecursionError on deeply nested arrays
        data = json.loads(Path(path).read_text(), parse_int=parse_int)
    except (OSError, ValueError, RecursionError) as exc:
        raise error(f"cannot read {path}: {exc}") from None
    n = data.get("n") if isinstance(data, dict) else None
    if type(n) is not int or n < 3:  # the universal family starts at n = 3
        raise error(f'{path}: "n" must be an integer >= 3')
    if n > MAX_TABLE_N:
        raise error(f'{path}: "n" must be at most {MAX_TABLE_N}')
    rows = data.get("t", [])
    if not isinstance(rows, list):
        raise error(f'{path}: "t" must be a list of [i, j, k, "p/q"] entries')
    tvals = {}
    for row in rows:
        try:
            i, j, k, v = row
            if isinstance(v, (bool, float)):  # a JSON bool or float is not exact
                raise TypeError
            if isinstance(v, str) and _past_max_digits(v):
                raise error(
                    f"{path}: t entry {row[:3]!r} has a value of more than "
                    f"{MAX_DIGITS} digits"
                )
            value = Fraction(v)
        except (TypeError, ValueError, ZeroDivisionError):
            raise error(f'{path}: t entry {row!r} is not [i, j, k, "p/q"]') from None
        if not all(type(x) is int and 1 <= x <= n for x in (i, j, k)):
            raise error(f"{path}: t entry {row!r} has an index outside 1..{n}")
        key = taylor.pair(i, j) + (k,)  # t(i,j,k) and t(j,i,k) are one parameter
        if tvals.setdefault(key, value) != value:
            raise error(
                f"{path}: t entry {row!r} gives t({key[0]},{key[1]},{k}) a second value"
            )
    return n, tvals


def _int_at_least(low: int, high: int | None = None):
    """argparse type: an integer >= low, and <= high if given, else a usage
    error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return parse


# the largest n that gens, family and export run: export takes about 7.5 s
# and 234 MB at n = 12 (README), and the cost grows steeply
MAX_EXPORT_N = 12
# the largest n that verify runs: at n = 10 its slowest route takes about
# half a minute and a few hundred MB (README), and the cost grows steeply
MAX_VERIFY_N = 10
# the largest n that subspaces runs: its report is O(n) integer arithmetic,
# but each listed subspace prints n indices and the count of optimal
# subspaces has about 0.28*n digits; at n = 1000 the report takes
# milliseconds (README)
MAX_SUBSPACES_N = 1000
# the most subspaces that subspaces --list prints: each prints n indices,
# so the list's time and memory grow with both; at n = 1000 the whole
# list takes under a second and under 100 MB (README)
MAX_SUBSPACES_LIST = 1000
# the most oracle samples that verify draws: each sample is one agreement
# trial, so the oracle route's time grows linearly with them; at n = 10 it
# takes about a minute (README)
MAX_SAMPLES = 1000


def _out_path(text: str) -> str:
    """argparse type: a non-empty path (``Path("")`` would name the current
    directory), else a usage error."""
    if not text:
        raise argparse.ArgumentTypeError("an empty path names no file")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hilbworst",
        description=(
            "exact local equations of the Hilbert scheme of n+1 points at "
            "its most degenerate point, with machine verification"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, flavor=False, formats=("json", "text", "cas")):
        p.add_argument("--n", type=_int_at_least(3, MAX_EXPORT_N), required=True)
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument(
            "--json",
            dest="format",
            action="store_const",
            const="json",
            help="shorthand for --format json",
        )
        if flavor:
            p.add_argument(
                "--flavor", choices=("hilbert", "miniversal"), default="hilbert"
            )

    def command(name, handler, summary):
        p = sub.add_parser(name, help=summary)
        # running: what an out-of-memory report names; verify narrows it
        p.set_defaults(handler=handler, running=name)
        out_help = "write to file instead of stdout"
        if name == "export":  # it writes a bundle of files into a directory
            out_help = "the directory to write the bundle into"
        p.add_argument("--out", type=_out_path, help=out_help)
        return p

    common(command("gens", cmd_gens, "generator presentation"), flavor=True)
    common(command("family", cmd_family, "universal family"), flavor=True)

    p = command("verify", cmd_verify, "run verification pipelines")
    p.add_argument("--n", type=_int_at_least(3, MAX_VERIFY_N), required=True)
    p.add_argument("--route", choices=(*_ROUTES, "all"), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=_int_at_least(1, MAX_SAMPLES), default=100)

    p = command("subspaces", cmd_subspaces, "linear subspace report")
    p.add_argument("--n", type=_int_at_least(3, MAX_SUBSPACES_N), required=True)
    p.add_argument(
        "--list",
        type=_int_at_least(0, MAX_SUBSPACES_LIST),
        default=0,
        help="enumerate up to this many optimal subspaces",
    )
    p.add_argument("--json", action="store_true", help="JSON output (the default)")

    p = command("table", cmd_table, "multiplication table at a parameter point")
    p.add_argument(
        "point",
        metavar="input",
        type=_read_point,
        help='JSON file {"n": ..., "t": [[i,j,k,"p/q"], ...]}',
    )

    common(
        command("export", cmd_export, "write generator/family/tangent bundle"),
        formats=("json", "cas"),
    )
    return parser


def main(argv=None) -> int:
    """Run one command.  Exact values are read and printed in full: the
    interpreter's int/str digit limit (``sys.set_int_max_str_digits``, where
    it exists) is lifted for the call and restored on return."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    path = args.out
    try:
        if args.command == "export":  # --out is a directory; report on stdout
            Path(path or ".").mkdir(parents=True, exist_ok=True)
            path = None
        with open(path, "w") if path else nullcontext(sys.stdout) as out:
            status = args.handler(args, out)
            out.flush()  # a failed write surfaces here, not at interpreter exit
            return status
    except MemoryError:
        pass  # reported below, once the handler has freed the frames
    except OSError as exc:
        # the handlers do no I/O but on --out: an error that names no file
        # came from writing or closing the --out file itself, or stdout
        name = path if exc.filename is None else exc.filename
        if name is None:
            return _stdout_failed(exc)
        parser.error(f"argument --out: cannot write {name}: {exc.strerror}")
    print(f"hilbworst: out of memory in {args.running}", file=sys.stderr)
    return 1


def _stdout_failed(exc: OSError) -> int:
    """Exit status 1 after a write to stdout failed; silent on a closed
    pipe, one stderr line otherwise.  Stdout is pointed at os.devnull, so
    the interpreter's flush at exit cannot fail again (the "Note on SIGPIPE"
    in Python's ``signal`` docs)."""
    if not isinstance(exc, BrokenPipeError):
        print(f"hilbworst: cannot write stdout: {exc.strerror}", file=sys.stderr)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    return 1


if __name__ == "__main__":
    sys.exit(main())
