"""Quantile estimate shared by the harness and the worker's stopping rule.

It imports nothing from qdisc, so the harness can use it without loading
the program under test.
"""

from __future__ import annotations

import math


def quantile(values: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of the order statistics: the i-th smallest of n gets
    the mass that Beta((n + 1) p, (n + 1) (1 - p)) puts on [i/n, (i+1)/n],
    here by the midpoint rule.  On oracle-session latencies, taken relative
    to ops_per_s, it varied half as much between runs as the single order
    statistic at rank p n, which jumps between ops of unlike cost.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    # at least 4 points per rank and 20000 in all, so that the grid stays
    # fine against the Beta peak, whose width shrinks like 1 / sqrt(n)
    steps = max(4, -(-20000 // n))
    h = 1.0 / (n * steps)
    weights = []
    for i in range(n):
        mass = 0.0
        for j in range(steps):
            t = (i * steps + j + 0.5) * h
            mass += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
        weights.append(mass)
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)
