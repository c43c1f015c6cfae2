"""BENCHMARK.json and the code agree on every workload and metric name."""

import json
import os
import re

import nrbench

nrbench.add_src_to_path()

from nrbench import layers, metrics, spec  # noqa: E402
from nrbench.tests.test_estimators import make_round  # noqa: E402
from nrbench.tracer import Tracer  # noqa: E402
from nrbench.workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def traced_round():
    tracer = Tracer(layers.ENTRY_POINTS)
    result = make_round(6.0, 1.0, 1.0)
    result.update(
        network={"attempts": 8, "retries": 0, "dropped": 0, "duplicated": 0},
        memo={"hits": 3, "misses": 1},
        gc_ms=0.5,
        trace={
            "aggregates": tracer.aggregates(),
            "missing": [],
            "root_layer": "core.engine",
            "peer": None,
            "peer_cpu_s": 0.0,
            "round_trip_p50_ms": 0.0,
        },
    )
    return result


def test_every_contract_metric_is_emitted_and_vice_versa():
    untraced = [dict(make_round(6.0, 1.0, 1.0), gc_ms=0.5)]
    assert set(metrics.end_to_end(untraced)) == set(spec.END_TO_END)
    values, rows, _ = metrics.per_layer(untraced, [traced_round()])
    assert set(values) == set(spec.PER_LAYER)
    assert {layer for layer, _, _ in rows} == set(layers.LAYERS)


def test_every_contract_workload_is_implemented_and_vice_versa():
    assert set(spec.WORKLOADS) == set(WORKLOADS) == set(spec.OPS)
    assert all(WORKLOADS[name].name == name for name in spec.WORKLOADS)
    # p95 needs at least 15 samples beyond it.
    assert all(ops >= 300 for ops in spec.OPS.values())


def test_contract_file_is_within_the_limits_of_its_format():
    contract = spec.CONTRACT
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert contract["paths"] == ["nrbench"]
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    assert isinstance(contract["run_seconds"], int) and 1 <= contract["run_seconds"] <= 60
    names = (
        [w["name"] for w in contract["workloads"]]
        + [m["name"] for m in contract["end_to_end"]]
        + [m["name"] for m in contract["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = spec.END_TO_END["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in spec.END_TO_END.values())
    size = os.path.getsize(os.path.join(nrbench.ROOT, "BENCHMARK.json"))
    assert size <= 64 * 1024
    json.dumps(contract)


def test_entry_table_names_public_functions_only():
    # Whether each still exists is reported per run (missing_entry_points),
    # never asserted here: a refactor that removes one must not fail tier-1.
    assert all(
        not part.startswith("_")
        for entry in layers.ENTRY_POINTS
        for part in entry.path
    )
