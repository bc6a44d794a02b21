"""Traced stand-in for ``qdisc star F1 F2 --order T``, run with src/ as cwd.

    BENCH_SPAWN_T=<t> python3 ../bench/cli_traced.py F1 F2 T

It makes the public calls the CLI's star command makes (parse_ncpoly twice,
star, star_series_json, json.dumps) and prints the same stdout.  Its spans
and memo counters go to stderr as one JSON line.  BENCH_SPAWN_T is the
parent's time.perf_counter() just before the spawn; on Linux that clock is
CLOCK_MONOTONIC, which all processes share, so the "cli.startup" span runs
from the spawn to the end of ``import qdisc.cli``.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.getcwd())

from qdisc.cli import star_series_json  # noqa: E402
from qdisc.expr import parse_ncpoly  # noqa: E402
from qdisc.star import star  # noqa: E402

t_import = time.perf_counter()


def main() -> int:
    a, b, order = sys.argv[1], sys.argv[2], int(sys.argv[3])
    spans = [["cli.startup", float(os.environ["BENCH_SPAWN_T"]), t_import]]

    def timed(name, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        spans.append([name, t0, time.perf_counter()])
        return out

    f1 = timed("expr.parse", parse_ncpoly, a)
    f2 = timed("expr.parse", parse_ncpoly, b)
    psi = timed("star.star", star, f1, f2, order)
    text = timed("cli.emit", lambda: json.dumps({"schema": 1, **star_series_json(psi)}, indent=2))
    print(text)
    sys.stdout.flush()

    import ops  # after the output, so its import is not charged to the CLI path

    print(json.dumps({"spans": spans, "memo": ops.all_memo_info()}), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
