"""Record the reference output digest of every op in each workload's pool.

    python3 bench/make_refs.py --seeds 0-23 [--workload W ...]

Run it from the checkout root, at a commit whose outputs are trusted (the
references shipped in refs/ come from the commit that added the
benchmark).  The cli-star digests are of the exact stdout bytes of
``qdisc star F1 F2 --order T``, computed here in one process through the
calls the CLI makes; the sessions' digests are of the canonical text
each op returns.  refs/<workload>.json maps each seed to its digests;
entries for other seeds are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import ops  # noqa: E402
from qdisc.cli import star_series_json  # noqa: E402
from qdisc.expr import parse_ncpoly  # noqa: E402
from qdisc.star import star  # noqa: E402

REFS = os.path.join(BENCH, "refs")


def cli_digests(seed: int) -> list:
    out = []
    for f1, f2, T in ops.cli_pool(seed):
        psi = star(parse_ncpoly(ops.poly_text(f1)), parse_ncpoly(ops.poly_text(f2)), T)
        stdout = json.dumps({"schema": 1, **star_series_json(psi)}, indent=2) + "\n"
        out.append(ops.digest(stdout))
    return out


def session_digests(workload: str, seed: int) -> list:
    session = ops.Session(ops.Tracer(False))
    return [ops.digest(session.run(spec)) for spec in ops.pool(workload, seed)]


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seed_range, default=seed_range("0-23"))
    ap.add_argument("--workload", action="append", choices=ops.WORKLOADS)
    args = ap.parse_args()
    os.makedirs(REFS, exist_ok=True)
    for workload in args.workload or ops.WORKLOADS:
        path = os.path.join(REFS, f"{workload}.json")
        refs = {}
        if os.path.exists(path):
            with open(path) as fh:
                refs = json.load(fh)
        for seed in args.seeds:
            if workload == "cli-star":
                refs[str(seed)] = cli_digests(seed)
            else:
                refs[str(seed)] = session_digests(workload, seed)
            print(f"{workload} seed {seed}: {len(refs[str(seed)])} ops", flush=True)
            with open(path, "w") as fh:
                json.dump(refs, fh, indent=0, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
