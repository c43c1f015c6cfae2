"""The benchmark's contract, read from ``BENCHMARK.json`` at the repository root.

That file is the single list of workloads, metric names, units, directions
and regression bounds; the code here only looks them up, so a metric cannot
be emitted under a name or bound the contract does not carry.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional

from nrbench import ROOT


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the baseline by which the metric may worsen; ``None`` for
    #: per-layer metrics, which explain a change but never gate it.
    bound: Optional[float] = None


with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    CONTRACT = json.load(_handle)

WORKLOADS: List[str] = [workload["name"] for workload in CONTRACT["workloads"]]
WHY: Dict[str, str] = {w["name"]: w["why"] for w in CONTRACT["workloads"]}
END_TO_END: Dict[str, Metric] = {m["name"]: Metric(**m) for m in CONTRACT["end_to_end"]}
PER_LAYER: Dict[str, Metric] = {m["name"]: Metric(**m) for m in CONTRACT["per_layer"]}
RUN_SECONDS: int = CONTRACT["run_seconds"]

#: Timed operations per round.  Fixed, not time-based: ``share8_sim`` ages one
#: object on purpose, so its latency depends on how many updates came before.
OPS: Dict[str, int] = {
    "share8_sim": 300,
    "invoke2_sim": 1000,
    "share3_wire": 400,
    "share5_sqlite": 300,
    "share5_lossy": 400,
    "audit5_sqlite": 1000,
}
SMOKE_OPS = 30
