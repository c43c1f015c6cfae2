"""``python3 -m nrbench compare``: bounds applied per workload and metric."""

import copy

from nrbench import compare, spec


def result(p50_rounds, failed=0):
    """A suite result whose workloads all measured the same thing."""
    rounds = [
        {name: 10.0 for name in spec.END_TO_END} | {"op_p50_ms": p50}
        for p50 in p50_rounds
    ]
    entry = {
        "failed": failed,
        "end_to_end": {name: 10.0 for name in spec.END_TO_END}
        | {"op_p50_ms": min(p50_rounds)},
        "rounds": rounds,
    }
    return {"workloads": {name: copy.deepcopy(entry) for name in spec.WORKLOADS}}


def verdicts(a, b, metric="op_p50_ms"):
    return {row[5] for row in compare.compare(a, b) if row[1] == metric}


def test_within_the_bound_is_unchanged():
    assert verdicts(result([10.0, 10.1, 10.2]), result([10.5, 10.6, 10.7])) == {"unchanged"}


def test_beyond_the_bound_is_regressed_or_improved():
    a, b = result([10.0, 10.1, 10.2]), result([12.0, 12.1, 12.2])
    assert verdicts(a, b) == {"regressed"}
    assert verdicts(b, a) == {"improved"}
    assert verdicts(a, b, "setup_s") == {"unchanged"}


def test_spread_wider_than_the_bound_is_unresolved_unless_rounds_separate():
    noisy_a = result([10.0, 12.0, 14.0, 16.0])
    noisy_b = result([12.5, 14.0, 16.0, 18.0])
    assert verdicts(noisy_a, noisy_b) == {"unresolved"}
    assert verdicts(noisy_a, noisy_a) == {"unresolved"}  # not "unchanged"
    separated = result([20.0, 23.0, 26.0, 29.0])
    assert verdicts(noisy_a, separated) == {"regressed"}


def test_a_driver_runs_document_compares_on_the_workload_it_holds():
    a, b = result([10.0, 10.1, 10.2]), result([12.0, 12.1, 12.2])
    only = spec.WORKLOADS[0]
    b["workloads"] = {only: b["workloads"][only]}
    rows = compare.compare(a, b)
    assert {row[0] for row in rows} == {only}
    assert {row[5] for row in rows if row[1] == "op_p50_ms"} == {"regressed"}


def test_direction_follows_the_metric():
    a, b = result([10.0]), result([10.0])
    for entry in b["workloads"].values():
        entry["end_to_end"]["ops_per_s"] = 5.0
    assert verdicts(a, b, "ops_per_s") == {"regressed"}
    assert verdicts(b, a, "ops_per_s") == {"improved"}


def test_more_failed_operations_is_a_regression(capsys, tmp_path):
    import json

    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    path_a.write_text(json.dumps(result([10.0])))
    path_b.write_text(json.dumps(result([10.0], failed=2)))
    assert compare.main(str(path_a), str(path_a)) == 0
    assert compare.main(str(path_a), str(path_b)) == 1
    assert "failed_ops" in capsys.readouterr().out
