"""Compare two sets of untraced results files, workload by workload.

Each results file holds one run's values.  For every end-to-end metric and
per-operation time, the runs of each side give a median and quartiles; the
verdict is

* ``unresolved`` when either side's quartile spread, as a share of its
  median, is wider than the metric's bound, unless every run of one side
  beats every run of the other;
* ``regressed`` when AFTER's median is worse than BEFORE's by more than the
  bound;
* ``improved`` when AFTER's median is better by more than BEFORE's own
  quartile spread and the two sides' quartile ranges do not overlap;
* ``within bound`` otherwise.

Bounds come from BENCHMARK.json; per-operation times take the bound of
``wall_s``.  ``failed_ops`` has bound 0: any change of its median is a
verdict.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def _load(directory: str) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> one value per results file (untraced runs only)."""
    values: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text())
        if result.get("trace") != 0:
            continue
        rows = {**result["metrics"], **result["operations"], "failed_ops": result["failed_ops"]}
        for name, metric in rows.items():
            values[result["workload"]][name].append(metric["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def verdict(before: list[float], after: list[float], bound: float, lower_is_better: bool = True) -> str:
    sign = 1.0 if lower_is_better else -1.0
    # "badness": lower is better on both sides from here on
    bad_b = [sign * v for v in before]
    bad_a = [sign * v for v in after]
    med_b, q1_b, q3_b = quartiles(bad_b)
    med_a, q1_a, q3_a = quartiles(bad_a)
    if bound == 0.0 or med_b == 0.0:
        return "regressed" if med_a > med_b else ("improved" if med_a < med_b else "within bound")
    spread_b = (q3_b - q1_b) / abs(med_b)
    spread = max(spread_b, (q3_a - q1_a) / abs(med_a) if med_a else 0.0)
    if spread > bound:
        if max(bad_a) < min(bad_b):
            return "improved"
        if min(bad_a) > max(bad_b):
            return "regressed"
        return "unresolved"
    change = (med_a - med_b) / abs(med_b)
    if change > bound:
        return "regressed"
    if -change > spread_b and q3_a < q1_b:
        return "improved"
    return "within bound"


def compare(before_dir: str, after_dir: str, spec: dict) -> int:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    before, after = _load(before_dir), _load(after_dir)
    header = f"{'workload':<10} {'metric':<22} {'before median [q1, q3] n':<36} {'after median [q1, q3] n':<36} {'change':>8}  verdict"
    print(header)
    for workload in sorted(set(before) & set(after)):
        for name in before[workload]:
            if name not in after[workload]:
                continue
            b, a = before[workload][name], after[workload][name]
            meta = bounds.get(name, bounds["wall_s"])
            bound = 0.0 if name == "failed_ops" else meta["bound"]
            text = verdict(b, a, bound, meta["better"] == "lower")
            mb, qb1, qb3 = quartiles(b)
            ma, qa1, qa3 = quartiles(a)
            change = (ma - mb) / mb * 100 if mb else 0.0
            print(
                f"{workload:<10} {name:<22} {f'{mb:.4g} [{qb1:.4g}, {qb3:.4g}] {len(b)}':<36} "
                f"{f'{ma:.4g} [{qa1:.4g}, {qa3:.4g}] {len(a)}':<36} {change:>7.1f}%  {text}"
            )
    return 0
