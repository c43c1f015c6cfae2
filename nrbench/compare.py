"""``python3 -m nrbench compare A.json B.json``: did B get worse than A?

A and B are result documents written with ``--out``, by the suite or by a
driver run; workloads that only one of them holds are skipped.  Applies each
end-to-end metric's bound per workload.  A row is *regressed*
or *improved* when B's published value differs from A's by more than the
bound, *unchanged* when it does not.  When the rounds inside either file
spread wider than the bound the row is *unresolved* instead -- unless every
round of one side beats every round of the other, which no amount of spread
can explain away.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from nrbench import spec
from nrbench.estimators import quartile_spread

Row = Tuple[str, str, float, float, float, str]


def relative_gain(metric: spec.Metric, before: float, after: float) -> float:
    """Signed change as a share of ``before``; positive means ``after`` is better."""
    if before == 0:
        return 0.0 if after == 0 else float("-inf")
    change = (after - before) / abs(before)
    return change if metric.better == "higher" else 0.0 - change


def separated(metric: spec.Metric, before: List[float], after: List[float]) -> int:
    """+1 when every ``after`` round beats every ``before`` round, -1 the reverse."""
    if not before or not after:
        return 0
    if metric.better == "higher":
        before, after = [-v for v in before], [-v for v in after]
    if max(after) < min(before):
        return 1
    if min(after) > max(before):
        return -1
    return 0


def classify(
    metric: spec.Metric, a: Dict[str, Any], b: Dict[str, Any]
) -> Tuple[float, str]:
    before, after = a["end_to_end"][metric.name], b["end_to_end"][metric.name]
    gain = relative_gain(metric, before, after)
    rounds_a = [values[metric.name] for values in a.get("rounds", [])]
    rounds_b = [values[metric.name] for values in b.get("rounds", [])]
    spread = max(quartile_spread(rounds_a), quartile_spread(rounds_b))
    if spread > metric.bound and separated(metric, rounds_a, rounds_b) == 0:
        return gain, "unresolved"
    if abs(gain) <= metric.bound:
        return gain, "unchanged"
    return gain, "improved" if gain > 0 else "regressed"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[Row]:
    rows: List[Row] = []
    for workload in spec.WORKLOADS:
        if workload not in a["workloads"] or workload not in b["workloads"]:
            continue
        side_a, side_b = a["workloads"][workload], b["workloads"][workload]
        for metric in spec.END_TO_END.values():
            gain, verdict = classify(metric, side_a, side_b)
            rows.append(
                (
                    workload,
                    metric.name,
                    side_a["end_to_end"][metric.name],
                    side_b["end_to_end"][metric.name],
                    gain,
                    verdict,
                )
            )
        if side_b["failed"] > side_a["failed"]:
            rows.append(
                (workload, "failed_ops", side_a["failed"], side_b["failed"], 0.0, "regressed")
            )
    return rows


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    rows = compare(a, b)
    print(f"{'workload':14s} {'metric':24s} {'A':>14s} {'B':>14s} {'B vs A':>8s}  verdict")
    for workload, name, before, after, gain, verdict in rows:
        print(
            f"{workload:14s} {name:24s} {before:14.4f} {after:14.4f} "
            f"{gain:+8.1%}  {verdict}"
        )
    tally = {
        verdict: sum(1 for row in rows if row[5] == verdict)
        for verdict in ("improved", "unchanged", "regressed", "unresolved")
    }
    print("  ".join(f"{verdict} {count}" for verdict, count in tally.items()))
    return 1 if tally["regressed"] else 0
