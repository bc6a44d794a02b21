"""The qdisc benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload cli-star --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload oracle-session --seed 0 --seconds 40 --trace 1
    python3 bench/run.py --smoke

Run from the root of a checkout; qdisc is imported from its src/.  With
--trace 0 the run measures the end-to-end metrics for --seconds seconds
(and on until MIN_SAMPLES ops succeeded, ten of them beyond their p90).  With
--trace 1 it runs a fixed number of ops twice in fresh processes, untraced
and traced, and prints the per-layer metrics; the op count is fixed so that
its counts repeat exactly.  The last stdout line is the result object; the
line before it holds the run's facts.  --smoke runs every workload and the
traced run at their smallest size and checks every metric's name and unit
against BENCHMARK.json, and that no op failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from estimate import quantile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH, "worker.py")
REFS = os.path.join(BENCH, "refs")
TRACE_DIR = os.path.join(ROOT, ".bench_out")
# the harness never imports qdisc, nor ops.py, which does; these match ops.WORKLOADS
WORKLOADS = ("cli-star", "oracle-session", "algebra-session")

MIN_SAMPLES = 100
SETUP_REPEATS = 3
WORKER_TIMEOUT = 150
# fixed op counts of a traced run, and of its smoke version
TRACE_OPS = {"cli-star": 18, "oracle-session": 36, "algebra-session": 900}
SMOKE_TRACE_OPS = {"cli-star": 9, "oracle-session": 18, "algebra-session": 60}

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)

# spans recorded around the benchmark's calls into each qdisc module;
# "op" is the whole op, so its self time is what no span covers
SPANS = (
    "cli.startup",
    "expr.parse",
    "star.star",
    "cli.emit",
    "fockrep.q_map",
    "fockrep.i_op_poly",
    "fockrep.op_mul",
    "fockrep.equal",
    "fockrep.berezin",
    "fockrep.berezin_expansion",
    "qpoly.nc_mul",
    "qpoly.involution",
    "qpoly.from_polys",
    "qpoly.t_coefficient",
    "qpoly.eq",
    "qcalc.d_partial",
    "qcalc.box",
    "qcalc.box_tilde",
    "qcalc.m0",
    "uqsl2.check",
    "scalar.str",
    "op",
)

SUMMED = (
    "expr.parse",
    "cli.emit",
    "star.star",
    "fockrep.q_map",
    "fockrep.i_op_poly",
    "fockrep.op_mul",
    "fockrep.equal",
    "fockrep.berezin",
    "fockrep.berezin_expansion",
    "qpoly.nc_mul",
    "qcalc.d_partial",
    "qcalc.box",
    "qcalc.box_tilde",
    "qcalc.m0",
    "uqsl2.check",
)


def share_name(span: str) -> str:
    return ("untraced" if span == "op" else span) + ".self_share"


PER_LAYER_UNITS = {
    "cli.startup_s": "s",
    **{f"{name}_s": "s" for name in SUMMED},
    "cli.out_bytes": "bytes",
    "star.star_p50_s.T3": "s",
    "star.star_p50_s.T4": "s",
    "star.star_p50_s.T5": "s",
    "star.order_growth": "ratio",
    "star.out_terms": "count",
    "scalar.out_max_deg": "count",
    "star.ck_memo_hit_ratio": "ratio",
    "fockrep.i_op_hit_ratio": "ratio",
    "fockrep.nnz_max": "count",
    "qpoly.nc_mul_calls": "count",
    "qpoly.assoc_p50_s": "s",
    "qpoly.big_p90_s": "s",
    "qpoly.block_memo_entries": "count",
    "trace.overhead_ratio": "ratio",
    **{share_name(span): "ratio" for span in SPANS},
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- processes ----------------------------------------------------------------------


def worker_argv(workload: str, seed: int, *extra) -> list:
    return [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), *map(str, extra)]


def run_worker(argv: list) -> tuple:
    """Spawn a worker; return (seconds from spawn to "ready", its result or None)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {argv[3:]} failed with exit code {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def load_refs(workload: str, seed: int):
    try:
        with open(os.path.join(REFS, f"{workload}.json")) as fh:
            return json.load(fh).get(str(seed))
    except FileNotFoundError:
        return None


def check_digests(records: list, refs) -> str:
    """Mark ops whose output digest differs from the reference as failed."""
    if refs is None:
        return "skipped"
    status = "passed"
    for rec in records:
        want = refs[rec[3]] if rec[3] < len(refs) else None
        if rec[1] and rec[2] != want:
            rec[1] = False
            rec[5] = f"digest {rec[2]} != reference {want}"
            status = "failed"
    return status


# -- statistics ---------------------------------------------------------------------


def max_overlap(intervals: list) -> int:
    events = sorted([(a, 1) for a, _ in intervals] + [(b, -1) for _, b in intervals])
    live = peak = 0
    for _, step in events:
        live += step
        peak = max(peak, live)
    return peak


def latencies_by_kind(records: list) -> dict:
    lat: dict = {}
    for rec in records:
        if rec[1]:
            lat.setdefault(rec[4], []).append(rec[0])
    return lat


def machine_facts(qdisc_file: str | None) -> dict:
    src_qdisc = os.path.realpath(os.path.join(SRC, "qdisc"))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "qdisc_file": qdisc_file,
        "qdisc_from_src": bool(qdisc_file) and qdisc_file.startswith(src_qdisc + os.sep),
    }


def summarize(records: list) -> dict:
    attempted = len(records)
    failed = sum(1 for r in records if not r[1])
    return {
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": [r[5] for r in records if not r[1]][:5],
    }


# -- the two kinds of run ------------------------------------------------------------


def untraced_run(workload: str, seed: int, seconds: float, min_ops: int, repeats: int) -> tuple:
    setups = [run_worker(worker_argv(workload, seed, "--setup-only"))[0] for _ in range(repeats - 1)]
    setup, res = run_worker(
        worker_argv(workload, seed, "--seconds", seconds, "--min-ops", min_ops, "--trace", 0)
    )
    setups.append(setup)
    records = res["records"]
    status = check_digests(records, load_refs(workload, seed))
    summary = summarize(records)
    ok = [r[0] for r in records if r[1]]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(ok) / res["wall"],
        "op_p50_s": quantile(ok, 0.5) if ok else None,
        "op_p90_s": quantile(ok, 0.9) if ok else None,
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_ratio": len(ok) / len(records),
    }
    facts = {
        "workload": workload,
        "seed": seed,
        "trace": 0,
        "machine": machine_facts(res["qdisc_file"]),
        "digest_check": status,
        **summary,
        "samples": len(ok),
        "samples_beyond_p90": sum(1 for x in ok if x > (values["op_p90_s"] or 0)),
        "wall_s": res["wall"],
        "setup_samples_s": setups,
        "p50_s_by_kind": {
            kind: [len(v), statistics.median(v)] for kind, v in sorted(latencies_by_kind(records).items())
        },
    }
    if workload == "cli-star":
        facts["max_live_children"] = max_overlap(res["children"])
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return facts, summary, metrics


def self_times(spans: list) -> list:
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def hit_ratio(info) -> float | None:
    """Memo hits per lookup; None once the memoized function is gone."""
    if info is None:
        return None
    lookups = info["hits"] + info["misses"]
    return info["hits"] / lookups if lookups else 0.0


def traced_run(workload: str, seed: int, n_ops: int) -> tuple:
    refs = load_refs(workload, seed)
    _, plain = run_worker(worker_argv(workload, seed, "--ops", n_ops, "--trace", 0))
    _, traced = run_worker(worker_argv(workload, seed, "--ops", n_ops, "--trace", 1))
    records = plain["records"] + traced["records"]
    status = check_digests(plain["records"], refs)
    status2 = check_digests(traced["records"], refs)
    if "failed" in (status, status2):
        status = "failed"
    summary = summarize(records)

    spans = traced["spans"]
    os.makedirs(TRACE_DIR, exist_ok=True)
    with open(os.path.join(TRACE_DIR, f"trace-{workload}-seed{seed}.json"), "w") as fh:
        json.dump({"span_fields": ["name", "start", "end", "parent", "op"], "spans": spans}, fh)
    selfs = self_times(spans)
    kind_of = {n: rec[4] for n, rec in enumerate(traced["records"])}
    total = {name: 0.0 for name in SPANS}
    own = {name: 0.0 for name in SPANS}
    durations: dict = {}
    for (name, start, end, _, op), self_t in zip(spans, selfs):
        total[name] += end - start
        own[name] += self_t
        durations.setdefault((name, kind_of.get(op)), []).append(end - start)
        durations.setdefault((name, None), []).append(end - start)

    def p50_of(name, kind=None) -> float:
        values = durations.get((name, kind))
        return statistics.median(values) if values else 0.0

    lat = latencies_by_kind(traced["records"])
    memo = traced["memo"]
    counts = traced["counts"]
    t4, t5 = p50_of("star.star", "T4"), p50_of("star.star", "T5")
    block = memo.get("_normal_block")
    values = {
        "cli.startup_s": p50_of("cli.startup"),
        **{f"{name}_s": total[name] for name in SUMMED},
        "cli.out_bytes": counts["out_bytes"],
        "star.star_p50_s.T3": p50_of("star.star", "T3"),
        "star.star_p50_s.T4": t4,
        "star.star_p50_s.T5": t5,
        "star.order_growth": t5 / t4 if t4 else 0.0,
        "star.out_terms": counts["out_terms"],
        "scalar.out_max_deg": counts["out_max_deg"],
        "star.ck_memo_hit_ratio": hit_ratio(memo.get("_ck_mono")),
        "fockrep.i_op_hit_ratio": hit_ratio(memo.get("i_op")),
        "fockrep.nnz_max": counts["nnz_max"],
        "qpoly.nc_mul_calls": len(durations.get(("qpoly.nc_mul", None), ())),
        "qpoly.assoc_p50_s": statistics.median(lat["assoc"]) if "assoc" in lat else 0.0,
        "qpoly.big_p90_s": quantile(lat["big"], 0.9) if "big" in lat else 0.0,
        "qpoly.block_memo_entries": None if block is None else block["currsize"],
        "trace.overhead_ratio": traced["wall"] / plain["wall"],
    }
    op_time = total["op"]
    for span in SPANS:
        values[share_name(span)] = own[span] / op_time if op_time else 0.0
    facts = {
        "workload": workload,
        "seed": seed,
        "trace": 1,
        "ops_per_pass": n_ops,
        "machine": machine_facts(traced["qdisc_file"]),
        "digest_check": status,
        **summary,
        "memo": memo,
        "wall_untraced_s": plain["wall"],
        "wall_traced_s": traced["wall"],
    }
    if workload == "cli-star":
        facts["max_live_children"] = max(
            max_overlap(plain["children"]), max_overlap(traced["children"])
        )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    return facts, summary, metrics


def run(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> tuple:
    if not os.path.isfile(os.path.join(SRC, "qdisc", "__init__.py")):
        raise BenchError(f"no qdisc package under {SRC}")
    if trace:
        n_ops = (SMOKE_TRACE_OPS if smoke else TRACE_OPS)[workload]
        return traced_run(workload, seed, n_ops)
    if smoke:
        return untraced_run(workload, seed, seconds, 1, 1)
    return untraced_run(workload, seed, seconds, MIN_SAMPLES, SETUP_REPEATS)


def result_line(summary: dict, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": summary["failed"] == 0,
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": metrics,
        }
    )


def smoke() -> int:
    """Every workload, untraced and traced, at its smallest size."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for workload in WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            facts, summary, metrics = run(workload, 0, 1, trace, smoke=True)
            want = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in metrics.items()}
            if want != got:
                problems.append(f"{workload} trace={trace}: metrics {sorted(set(want) ^ set(got))} or units differ")
            if summary["fail_ratio"] != 0:
                problems.append(f"{workload} trace={trace}: fail_ratio {summary['fail_ratio']}: {summary['failures']}")
            print(f"{workload} trace={trace} digests={facts['digest_check']} "
                  f"fail_ratio={summary['fail_ratio']} (ratio)")
            for name, m in metrics.items():
                print(f"  {name} = {m['value']} {m['unit']}")
    for p in problems:
        print("SMOKE FAILURE:", p)
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        facts, summary, metrics = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, subprocess.SubprocessError, json.JSONDecodeError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(facts))
    print(result_line(summary, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
