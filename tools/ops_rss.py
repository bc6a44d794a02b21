"""Throughput and peak RSS of two checkouts at one fixed op count.

    python tools/ops_rss.py BASE CHANGE [--workload W] [--seed N] [--ops K]

Runs ``bench/worker.py --workload W --seed N --ops K`` of each checkout in
a fresh process, ``ROUNDS`` rounds, the side that runs first alternating
by round.  For each side it prints one JSON line: the median ops/s
(successful ops over the worker's ``wall``) and the median
``peak_rss_mb``, with the values of every round.  The worker keeps a
record per op, so ``peak_rss_mb`` of a timed run grows with the op count;
at a fixed count it compares the memory of the code alone.  The tool only
reads the worker's last stdout line and writes nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROUNDS = 4


def summarize(side: str, outputs: list) -> dict:
    """The JSON line of one side from the worker stdout texts of its rounds."""
    rates, rss, failed = [], [], 0
    for text in outputs:
        res = json.loads(text.strip().splitlines()[-1])
        ok = sum(1 for rec in res["records"] if rec[1])
        failed += len(res["records"]) - ok
        rates.append(ok / res["wall"])
        rss.append(res["peak_rss_mb"])
    return {
        "side": side,
        "rounds": len(outputs),
        "ops_per_s": statistics.median(rates),
        "peak_rss_mb": statistics.median(rss),
        "failed_ops": failed,
        "ops_per_s_runs": [round(x, 1) for x in rates],
        "peak_rss_mb_runs": [round(x, 3) for x in rss],
    }


def run_worker(checkout: str, workload: str, seed: int, ops: int) -> str:
    argv = [sys.executable, os.path.join("bench", "worker.py"), "--workload", workload, "--seed", str(seed)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv + ["--ops", str(ops)], cwd=checkout, env=env, capture_output=True, text=True, check=True)
    return proc.stdout


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--workload", default="oracle-session")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--ops", type=int, default=20000)
    args = ap.parse_args(argv)
    sides = {"base": args.base, "change": args.change}
    outputs: dict = {side: [] for side in sides}
    for r in range(ROUNDS):
        for side in sorted(sides, reverse=bool(r % 2)):
            outputs[side].append(run_worker(sides[side], args.workload, args.seed, args.ops))
    for side, path in sides.items():
        line = summarize(side, outputs[side])
        line.update(checkout=os.path.abspath(path), workload=args.workload, seed=args.seed, ops=args.ops)
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
