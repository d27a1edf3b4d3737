"""Benchmark runner for hilbworst.

    python3 bench/run.py --workload certify-n4 --seed 1 --seconds 40 --trace 0

Runs one workload as a closed loop with a single client: one fresh child
interpreter at a time, each started only after the previous one ended, so
library caches start cold as they do for a command-line user and at most
one core is busy.  Passes repeat until the next one would overrun
``--seconds``.  Every answer is checked outside the timed phase.

Times are reported at reference speed: each child's seconds are scaled by
how long a fixed reference workload took in that child, sampled while it
ran (see README.md).  The clock's own readings are in the report.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``
with the end-to-end metrics (``--trace 0``) or the per-layer metrics of a
traced run (``--trace 1``).  The line before it is a report with the run
record and the workload's own named metrics.  ``--smoke`` runs the same code
paths at n=3 with a handful of operations.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402
from tracer import TRACED_MODULES  # noqa: E402
from workloads import ROUTES  # noqa: E402

CHILD_TIMEOUT_S = 150

# Nominal time of the children's reference workload: times are reported as
# if every child had run on a machine where that workload takes this long.
REFERENCE_S = 0.006

# BENCHMARK.json names the metrics of the final line and their units.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


# -- statistics ----------------------------------------------------------------


def tail(samples: list) -> tuple:
    """(value, percentile) of the highest of p99 and p90 with at least ten
    samples beyond it, else of p50.  The ladder is fixed, so a run that makes
    one pass more or less reports the same percentile; a percentile beyond
    p99 would be set by a few slow operations and not repeat from run to
    run."""
    s = sorted(samples)
    for pct in (99, 90):
        i = math.ceil(pct / 100 * len(s)) - 1
        if len(s) - 1 - i >= 10:
            return s[i], float(pct)
    return statistics.median(s), 50.0


def _metric(value, unit: str, **meta) -> dict:
    return {"value": value, "unit": unit, **meta}


# -- child processes ---------------------------------------------------------------


def spawn(job: dict) -> dict | None:
    """Run one child to completion; None if it failed or timed out."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    job = dict(job, spawn=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=env,
    )
    try:
        out, err = proc.communicate(json.dumps(job).encode(), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"child timed out: {job['workload']}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(err.decode()[-4000:], file=sys.stderr)
        return None
    result = json.loads(out.decode().splitlines()[-1])
    if not Path(result["hilbworst"]).resolve().is_relative_to(SRC):
        print(f"hilbworst imported from {result['hilbworst']}", file=sys.stderr)
        return None
    return result


def reference_scale(samples: list):
    """Scale of a child's interval (start, end): REFERENCE_S over the median
    duration of the reference samples taken inside it and of the three on
    either side of it."""
    times = [t for t, _ in samples]
    durations = [d for _, d in samples]

    def scale(start: float, end: float) -> float:
        lo = max(0, bisect.bisect_left(times, start) - 3)
        hi = bisect.bisect_right(times, end) + 3
        return REFERENCE_S / statistics.median(durations[lo:hi])

    return scale


def unscaled(start: float, end: float) -> float:
    return 1.0


class Timings:
    """Operation, set-up and timed-phase seconds of a pass."""

    def __init__(self):
        self.ops = []  # (seconds, tag) in pass order
        self.setup = []
        self.timed_s = 0.0

    def add(self, res: dict, scale):
        ops = [(s * scale(t, t + s), tag) for t, s, tag in res["ops"]]
        self.ops.extend(ops)
        # set-up ended just before the first reference sample
        self.setup.append(res["setup_s"] * scale(res["ready"], res["ready"]))
        self.timed_s += sum(s for s, _ in ops)


class Pass:
    """What one pass reported, after its answers were checked.

    ``norm`` holds its times at reference speed: each interval's seconds
    times REFERENCE_S over the reference time measured around it.  ``raw``
    holds the seconds as the clock read them.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.norm = Timings()
        self.raw = Timings()
        self.reference_s = []  # per child, median of its reference samples
        self.rss_mb = 0.0
        self.traces = []
        self.checks_emitted = 0

    def add_child(self, res: dict):
        ref = statistics.median(d for _, d in res["reference"])
        self.reference_s.append(ref)
        self.norm.add(res, reference_scale(res["reference"]))
        self.raw.add(res, unscaled)
        self.rss_mb = max(self.rss_mb, res["rss_mb"])
        trace = res["trace"]
        if trace is not None:
            scale = REFERENCE_S / ref
            for table in ("total_s", "self_s", "module_total_s", "module_self_s"):
                trace[table] = {k: v * scale for k, v in trace[table].items()}
            trace["first_deg3_membership_s"] *= scale
            self.traces.append(trace)


def run_pass(workload: str, size: dict, seed: int, index: int, trace: bool, golden) -> Pass:
    p = Pass()
    base = {"workload": workload, "seed": seed, "pass": index, "trace": trace, **size}
    if workload == "certify-n4":
        for route in ROUTES:
            p.attempted += 1
            res = spawn(dict(base, route=route))
            if res is None:
                p.failed += 1
                continue
            p.add_child(res)
            ans = res["answers"]
            p.checks_emitted += ans["checks"]
            if not workloads.check_certify(ans, golden[str(size["n"])][route]):
                p.failed += 1
        return p

    if workload == "oracle-n5":
        p.attempted, check = size["trials"], workloads.check_oracle_trial
    else:
        p.attempted, check = size["queries"], workloads.check_membership_answer
    res = spawn(base)
    if res is None:
        p.failed = p.attempted
        return p
    p.add_child(res)
    answers = res["answers"]
    p.failed = p.attempted - len(answers) + sum(not check(a) for a in answers)
    return p


def run_passes(workload, size, seed, seconds, trace, golden) -> tuple:
    """Closed loop: passes run back to back until the next one would
    overrun `seconds`.  A traced run alternates untraced and traced passes,
    at least one of each, so that the untraced ones measure the tracing
    overhead.  All its passes take the inputs of pass 0, so every traced
    pass makes the same calls and the untraced ones are their baseline."""
    start = time.monotonic()
    passes, traced, walls = [], [], []
    while True:
        tracing = trace and len(walls) % 2 == 1
        index = 0 if trace else len(walls)
        t = time.monotonic()
        p = run_pass(workload, size, seed, index, tracing, golden)
        walls.append(time.monotonic() - t)
        (traced if tracing else passes).append(p)
        if trace and not traced:
            continue
        if time.monotonic() - start + statistics.median(walls) > seconds:
            return passes, traced


# -- metrics -------------------------------------------------------------------------


# Names the report gives the generic metrics on each workload.
ALIASES = {
    "certify-n4": {},
    "oracle-n5": {
        "trials_per_s": "ops_per_s",
        "trial_p50_ms": "op_p50_ms",
        "trial_tail_ms": "op_tail_ms",
    },
    "membership-n4": {
        "first_answer_s": "first_op_s",
        "queries_per_s": "ops_per_s",
        "query_p50_ms": "op_p50_ms",
        "query_tail_ms": "op_tail_ms",
    },
}


def warm_ops(workload: str, p: Timings) -> list:
    """Operation times the latency percentiles use.  In a membership pass
    the first answer of each degree builds that degree's span; these cold
    answers count in first_op_s, elapsed_s and ops_per_s instead."""
    if workload != "membership-n4":
        return [s for s, _ in p.ops]
    seen = set()
    warm = []
    for s, degree in p.ops:
        if degree in seen:
            warm.append(s)
        seen.add(degree)
    return warm


def end_to_end(workload: str, passes: list, view: str = "norm") -> dict:
    """Every end-to-end metric, with its sample count and, for the tail, its
    percentile, from the reference-speed times (`view` "norm") or from the
    clock's ("raw")."""
    rss = [p.rss_mb for p in passes]
    passes = [getattr(p, view) for p in passes]
    warm = [s for p in passes for s in warm_ops(workload, p)]
    tail_s, tail_pct = tail(warm)
    timed = sum(p.timed_s for p in passes)
    n_ops = sum(len(p.ops) for p in passes)
    npass = {"samples": len(passes)}
    out = {
        "setup_s": _metric(
            statistics.median(s for p in passes for s in p.setup), "s",
            samples=sum(len(p.setup) for p in passes),
        ),
        "elapsed_s": _metric(timed / len(passes), "s", **npass),
        "peak_rss_mb": _metric(statistics.median(rss), "MB", **npass),
        "ops_per_s": _metric(n_ops / timed, "1/s", samples=n_ops),
        "first_op_s": _metric(statistics.median(p.ops[0][0] for p in passes), "s", **npass),
        "op_p50_ms": _metric(1e3 * statistics.median(warm), "ms", samples=len(warm)),
        "op_tail_ms": _metric(1e3 * tail_s, "ms", percentile=tail_pct, samples=len(warm)),
    }
    if workload == "certify-n4":
        for route in ROUTES:
            times = [s for p in passes for s, tag in p.ops if tag == route]
            out[f"verify_{route}_s"] = _metric(statistics.median(times), "s", samples=len(times))
        # The pooled median command is a classical or based one, so a slower
        # dgla leg would not move it.  The geometric mean of the route
        # medians moves by 26% when any one route takes twice as long.
        out["op_p50_ms"] = _metric(
            1e3 * statistics.geometric_mean(out[f"verify_{r}_s"]["value"] for r in ROUTES),
            "ms",
            samples=len(warm),
            of="geometric mean of verify_*_s",
        )
    return out


def named_metrics(workload: str, metrics: dict) -> dict:
    """The report's metrics, under the names the workload gives them."""
    named = {k: metrics[k] for k in ("setup_s", "elapsed_s", "peak_rss_mb")}
    named.update((k, v) for k, v in metrics.items() if k.startswith("verify_"))
    named.update((name, metrics[src]) for name, src in ALIASES[workload].items())
    return named


def _merge(summaries: list) -> dict:
    merged = defaultdict(lambda: defaultdict(float))
    for s in summaries:
        for table, values in s.items():
            if isinstance(values, dict):
                for k, v in values.items():
                    merged[table][k] += v
            else:
                merged[table]["value"] += values
    return merged


def layer_metrics(p: Pass) -> dict:
    """Per-layer metrics of one traced pass, summed over its processes."""
    m = _merge(p.traces)
    calls, total, counts = m["calls"], m["total_s"], m["counts"]
    inserts = calls["linalg.EchelonSpan.insert"]
    out = {
        "linalg.insert_calls": (inserts, "count"),
        "linalg.insert_s": (total["linalg.EchelonSpan.insert"], "s"),
        "linalg.insert_dependent": (counts["linalg.insert_dependent"], "count"),
        "linalg.insert_useful_ratio": (
            counts["linalg.insert_gained"] / inserts if inserts else 0.0,
            "ratio",
        ),
        "linalg.reduce_calls": (calls["linalg.EchelonSpan.reduce"], "count"),
        "linalg.reduce_s": (total["linalg.EchelonSpan.reduce"], "s"),
        "linalg.blocks_built": (counts["linalg.blocks_built"], "count"),
        "linalg.blocks_queried": (counts["linalg.blocks_queried"], "count"),
        "ideal.membership_deg2_calls": (counts["ideal.membership_deg2"], "count"),
        "ideal.membership_deg3_calls": (counts["ideal.membership_deg3"], "count"),
        "ideal.first_deg3_membership_s": (m["first_deg3_membership_s"]["value"], "s"),
        "based.multable_value_calls": (calls["based.MulTable.value"], "count"),
        "oracle.associative_s": (
            total["based.table_from_point"] + total["based.is_associative"],
            "s",
        ),
        "cli.checks_emitted": (p.checks_emitted, "count"),
    }
    for meth, key in (
        ("mul", "poly.Poly.__mul__"),
        ("substitute", "poly.Poly.substitute"),
        ("evaluate", "poly.Poly.evaluate"),
    ):
        out[f"poly.{meth}_calls"] = (calls[key], "count")
        out[f"poly.{meth}_s"] = (total[key], "s")
    for fn in (
        "ideal.membership",
        "ideal.span_equal_degree2",
        "lifting.second_order_obstruction",
        "lifting.syzygy_certificate",
        "lifting.flatness_residual",
        "lifting.koszul_full_residual",
        "lifting.universal_family",
        "dgla.closedness_residual",
        "dgla.cup_product",
        "dgla.kuranishi_quadratic_locus",
        "dgla.compare_classical_dgla",
        "based.verify_structure_correspondence",
        "based.table_from_point",
        "based.is_associative",
        "oracle.symbolic_member",
        "oracle.fiber_check",
    ):
        out[f"{fn}_s"] = (total[fn], "s")
    for mod in TRACED_MODULES:
        out[f"{mod}.self_s"] = (m["module_self_s"][mod], "s")
        out[f"{mod}.total_s"] = (m["module_total_s"][mod], "s")
    return out


def per_layer(traced: list, untraced: list) -> dict:
    """Median over the traced passes of every per-layer metric, plus the
    tracing overhead: traced over untraced elapsed time."""
    per_pass = [layer_metrics(p) for p in traced]
    out = {}
    for name, (_, unit) in per_pass[0].items():
        values = [pm[name][0] for pm in per_pass]
        if unit == "count":
            out[name] = _metric(int(statistics.median_low(values)), unit)
        else:
            out[name] = _metric(statistics.median(values), unit)
    out["trace_overhead"] = _metric(
        statistics.median(p.norm.timed_s for p in traced)
        / statistics.median(p.norm.timed_s for p in untraced),
        "ratio",
    )
    return out


def top_functions(p: Pass, limit: int = 20) -> list:
    """The traced functions of one pass with the most self time."""
    m = _merge(p.traces)
    keys = sorted(m["self_s"], key=m["self_s"].get, reverse=True)[:limit]
    return [
        {"function": k, "calls": int(m["calls"][k]), "self_s": m["self_s"][k], "total_s": m["total_s"][k]}
        for k in keys
    ]


# -- run record --------------------------------------------------------------------


def git_sha() -> str | None:
    """HEAD of the checkout; None when the checkout is not a git repository
    (checked first, so that git does not find a repository above it) or git
    is missing."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_sha256() -> str:
    """Digest of the library source, which identifies the code measured
    even where there is no git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "hilbworst").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_record(args) -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "loop": "closed, 1 client, one child process at a time",
    }


# -- entry point ---------------------------------------------------------------------


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.CHILD))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="n=3, a handful of operations")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hilbworst" / "__init__.py").is_file():
        print(f"no hilbworst source under {SRC}", file=sys.stderr)
        return 2
    golden = json.loads((BENCH / "golden.json").read_text())
    size = workloads.sizes(args.workload, args.smoke)
    record = run_record(args)
    record["loadavg_start"] = os.getloadavg()
    passes, traced = run_passes(
        args.workload, size, args.seed, args.seconds, bool(args.trace), golden
    )
    record["loadavg_end"] = os.getloadavg()
    record["passes"] = len(passes)
    record["traced_passes"] = len(traced)
    record["size"] = size

    everything = passes + traced
    attempted = sum(p.attempted for p in everything)
    failed = sum(p.failed for p in everything)
    if any(len(p.norm.ops) != p.attempted for p in everything):
        # A child that died leaves no times to report, but the failure
        # counts still go out.
        print("a child produced no timings", file=sys.stderr)
        final = {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
        print(json.dumps(final))
        return 1
    metrics = end_to_end(args.workload, passes)
    named = named_metrics(args.workload, metrics)
    named["error_rate"] = _metric(failed / attempted, "ratio")
    refs = [r for p in everything for r in p.reference_s]
    record["reference_s"] = {
        "nominal": REFERENCE_S,
        "median": statistics.median(refs),
        "min": min(refs),
        "max": max(refs),
    }
    raw = end_to_end(args.workload, passes, "raw")
    report = {"run": record, "metrics": named, "raw": {k: v["value"] for k, v in raw.items()}}
    if args.trace:
        layers = per_layer(traced, passes)
        report["layers"] = layers
        report["functions"] = top_functions(traced[0])
        final = {k: layers[k] for k in PER_LAYER}
    else:
        final = {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]} for k in END_TO_END}
    print(json.dumps({"report": report}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": final,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
