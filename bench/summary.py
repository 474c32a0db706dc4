"""Per-solve records and the statistics reported from them."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass


@dataclass(frozen=True)
class SolveRecord:
    label: str        # class of solve, e.g. "fig2-cg-n30-near-estimate"
    seconds: float    # wall time of the library call
    failed: bool      # raised, returned non-finite values, or missed its target
    reason: str       # "ok", "inaccurate", "nonfinite" or the exception name
    error: float      # measured error compared against the target


def ranked_percentile(records, q):
    """Nearest-rank ``q``-quantile of solve time in seconds.

    A failed solve ranks above every successful one, so the result is
    ``inf`` once failures reach the top ``1 - q`` share of the solves.
    """
    if not records:
        raise ValueError("no solves recorded")
    keys = sorted(math.inf if r.failed else r.seconds for r in records)
    k = max(1, math.ceil(q * len(keys)))
    return keys[k - 1]


def relative_spread(values):
    """Distance between the first and third quartile as a share of the
    median, as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def class_table(records):
    """Per-class ``(label, solves, failed, median ms, total s)`` rows,
    slowest total first."""
    by_label = {}
    for r in records:
        by_label.setdefault(r.label, []).append(r)
    rows = []
    for label, rs in by_label.items():
        secs = [r.seconds for r in rs]
        rows.append((label, len(rs), sum(r.failed for r in rs),
                     1e3 * statistics.median(secs), sum(secs)))
    rows.sort(key=lambda row: -row[4])
    return rows
