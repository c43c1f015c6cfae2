"""A short run of the whole suite: oracle passes, nothing is left behind."""

import json
import os
import subprocess
import sys

import nrbench
from nrbench import spec


def processes_in_session(session_id):
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == session_id:  # field 6 of stat: session id
            found.append(int(entry))
    return found


def test_smoke_run_passes_the_oracle_and_cleans_up(tmp_path):
    out = tmp_path / "result.json"
    suite = subprocess.Popen(
        [sys.executable, "-m", "nrbench", "--smoke", "--seed", "5", "--out", str(out)],
        cwd=nrbench.ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    output, _ = suite.communicate(timeout=120)
    assert suite.returncode == 0, output
    document = json.loads(out.read_text())
    assert set(document["workloads"]) == set(spec.WORKLOADS)
    for name, entry in document["workloads"].items():
        assert entry["failed"] == 0 and entry["problems"] == [], (name, entry["problems"])
        assert entry["attempted"] == 2 * spec.SMOKE_OPS
        assert set(entry["end_to_end"]) == set(spec.END_TO_END)
        assert set(entry["per_layer"]) == set(spec.PER_LAYER)
        # The benchmark contract: an end-to-end metric is never 0, because
        # the driver takes its spread as a share of its median.
        assert all(value != 0 for value in entry["end_to_end"].values()), name
    # Every metric is printed by name.
    for name in list(spec.END_TO_END) + list(spec.PER_LAYER):
        assert name in output
    leftovers = [
        name for name in os.listdir(nrbench.OUT_DIR) if name.startswith("tmp-")
    ]
    assert leftovers == []
    if os.path.isdir("/proc"):
        assert processes_in_session(suite.pid) == []


def test_refuses_to_run_without_a_program_to_measure(tmp_path):
    """In a directory holding only the benchmark, exit non-zero, print no result."""
    import shutil

    shutil.copy(os.path.join(nrbench.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        nrbench.PACKAGE_DIR,
        tmp_path / "nrbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    environment = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run(
        [sys.executable, "-m", "nrbench", "--workload", "share8_sim", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        env=environment,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode != 0
    assert run.stdout.strip() == ""
