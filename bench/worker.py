"""One workload process: set up, say "ready", run ops, print the records.

    python3 bench/worker.py --workload W --seed N --seconds S --min-ops K --trace 0|1
    python3 bench/worker.py --workload W --seed N --ops K --trace 0|1
    python3 bench/worker.py --workload W --seed N --setup-only

Set-up is ``import qdisc``, building the seeded input pool and, for
oracle-session, warming the memo caches its ops read; the line
"ready" on stdout marks its end, and the harness times the process from
spawn to that line.  The last stdout line is one JSON object with the op
records and, when traced, the spans.  A timed run goes on past S seconds
until K ops succeeded and K / 10 of them lie beyond their p90, or until 3 S
seconds.  The process starts no threads; for
cli-star it runs one CLI child at a time and waits for each.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path.insert(0, SRC)

import qdisc  # noqa: E402
import ops  # noqa: E402
from estimate import quantile  # noqa: E402
from qdisc.cli import ncpoly_json  # noqa: E402

TRACED_CLI = os.path.join(BENCH, "cli_traced.py")


class CliStar:
    """Runs each op as a fresh CLI process from src/, checking its stdout."""

    def __init__(self, pool: list, tracer: ops.Tracer):
        self.tr = tracer
        self.texts = [(ops.poly_text(f1), ops.poly_text(f2)) for f1, f2, _ in pool]
        self.children: list = []
        self.out_terms = 0
        self.out_max_deg = 0
        self.out_bytes = 0
        self.memo: dict = {}

    def kind(self, spec) -> str:
        return f"T{spec[2]}"

    def run(self, n: int, idx: int, spec) -> tuple:
        """Returns (latency, digest); raises ops.OpFailure on a bad call."""
        f1, f2, T = spec
        a, b = self.texts[idx]
        if self.tr.enabled:
            argv = [sys.executable, TRACED_CLI, a, b, str(T)]
        else:
            argv = [sys.executable, "-m", "qdisc.cli", "star", a, b, "--order", str(T)]
        env = dict(os.environ)
        t0 = time.perf_counter()
        env["BENCH_SPAWN_T"] = repr(t0)
        proc = subprocess.run(argv, cwd=SRC, env=env, capture_output=True, timeout=60)
        t1 = time.perf_counter()
        self.children.append((t0, t1))
        if self.tr.enabled:
            self.tr.spans.append(["op", t0, t1, -1, n])
        if proc.returncode != 0:
            raise ops.OpFailure(f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
        payload = json.loads(proc.stdout)
        terms = payload.get("terms")
        ops.law(payload.get("schema") == 1 and payload.get("order") == T, "bad schema or order")
        ops.law(isinstance(terms, list) and len(terms) == T + 1, "wrong number of t-coefficients")
        plain = ncpoly_json(qdisc.nc_mul(ops.ncpoly(f1), ops.ncpoly(f2)))
        ops.law(terms[0] == plain, "t^0 coefficient is not the plain product")
        self.out_terms += sum(len(c) for c in terms)
        self.out_max_deg = max(
            [self.out_max_deg] + [ops.max_s_degree(s) for c in terms for _, s in c]
        )
        self.out_bytes += len(proc.stdout)
        if self.tr.enabled:
            self._absorb(n, json.loads(proc.stderr.decode().strip().splitlines()[-1]))
        return t1 - t0, ops.digest(proc.stdout)

    def _absorb(self, n: int, child: dict) -> None:
        parent = len(self.tr.spans) - 1
        for name, start, end in child["spans"]:
            self.tr.spans.append([name, start, end, parent, n])
        for name, info in child["memo"].items():
            if info is None or self.memo.get(name, {}) is None:
                self.memo[name] = None
                continue
            acc = self.memo.setdefault(name, {"hits": 0, "misses": 0, "currsize": 0})
            acc["hits"] += info["hits"]
            acc["misses"] += info["misses"]
            acc["currsize"] = max(acc["currsize"], info["currsize"])

    def report(self) -> dict:
        return {
            "counts": {
                "out_terms": self.out_terms,
                "out_max_deg": self.out_max_deg,
                "out_bytes": self.out_bytes,
                "nnz_max": 0,
            },
            "memo": self.memo,
            "children": self.children,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }


class InProcess:
    """Runs each op in this process; the oracle memos are warmed at set-up."""

    def __init__(self, pool: list, tracer: ops.Tracer):
        self.tr = tracer
        self.s = ops.Session(tracer)
        self.s.warm_up(pool)

    def kind(self, spec) -> str:
        return spec[0]

    def run(self, n: int, idx: int, spec) -> tuple:
        self.tr.begin_op(n)
        t0 = time.perf_counter()
        try:
            text = self.s.run(spec)
        finally:
            t1 = time.perf_counter()
            self.tr.end_op()
        return t1 - t0, ops.digest(text)

    def report(self) -> dict:
        s = self.s
        return {
            "counts": {
                "out_terms": s.out_terms,
                "out_max_deg": s.out_max_deg,
                "out_bytes": 0,
                "nnz_max": s.nnz_max,
            },
            "memo": ops.all_memo_info(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }


def enough(latencies: list, min_ops: int) -> bool:
    """min_ops successful ops, and a tenth as many of them beyond their p90."""
    if len(latencies) < min_ops:
        return False
    p90 = quantile(latencies, 0.9)
    return sum(1 for x in latencies if x > p90) >= min_ops // 10


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-ops", dest="min_ops", type=int, default=1)
    ap.add_argument("--ops", type=int, default=0, help="run exactly this many ops")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", dest="setup_only", action="store_true")
    args = ap.parse_args()

    pool = ops.pool(args.workload, args.seed)
    tracer = ops.Tracer(bool(args.trace))
    runner = CliStar(pool, tracer) if args.workload == "cli-star" else InProcess(pool, tracer)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    records = []
    latencies = []
    start = time.perf_counter()
    deadline = start + args.seconds
    # a slow machine may not reach enough ops in time; never run past 3x the budget
    hard_stop = start + 3 * args.seconds
    n = 0
    while True:
        if args.ops:
            if n >= args.ops:
                break
        else:
            now = time.perf_counter()
            if now >= deadline and (now >= hard_stop or enough(latencies, args.min_ops)):
                break
        idx = n % len(pool)
        spec = pool[idx]
        try:
            latency, dig = runner.run(n, idx, spec)
            records.append([latency, True, dig, idx, runner.kind(spec), None])
            latencies.append(latency)
        except Exception as exc:  # a failed op is counted, never fatal
            records.append([None, False, None, idx, runner.kind(spec), f"{type(exc).__name__}: {exc}"])
        n += 1
    wall = time.perf_counter() - start

    out = runner.report()
    out.update(
        records=records,
        wall=wall,
        spans=tracer.spans,
        qdisc_file=os.path.realpath(qdisc.__file__),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
