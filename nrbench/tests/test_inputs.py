"""The workload generator is a pure function of the seed."""

import json

from nrbench import inputs


def test_same_seed_same_inputs():
    assert inputs.documents(7, "share8_sim", 40) == inputs.documents(7, "share8_sim", 40)
    assert inputs.invocations(7, "invoke2_sim", 40) == inputs.invocations(7, "invoke2_sim", 40)
    assert inputs.fault_seed(7, "share5_lossy") == inputs.fault_seed(7, "share5_lossy")
    assert inputs.oracle_sample(7, "w", 300) == inputs.oracle_sample(7, "w", 300)


def test_other_seed_or_workload_other_inputs():
    assert inputs.documents(7, "share8_sim", 10) != inputs.documents(8, "share8_sim", 10)
    assert inputs.documents(7, "share8_sim", 10) != inputs.documents(7, "share5_lossy", 10)
    assert inputs.fault_seed(7, "share5_lossy") != inputs.fault_seed(8, "share5_lossy")


def test_note_sizes_are_an_exact_six_three_one_mix():
    notes = [len(doc["note"]) for doc in inputs.documents(3, "w", 300)]
    assert notes.count(64) == 180
    assert notes.count(512) == 90
    assert notes.count(4096) == 30
    assert len(set(tuple(notes[i : i + 10]) for i in range(0, 300, 10))) > 1


def test_every_seed_generates_the_same_amount_of_work():
    def size(seed):
        return len(json.dumps(inputs.documents(seed, "w", 100), sort_keys=True))

    assert size(1) == size(2) == size(99)
    document = inputs.documents(1, "w", 1)[0]
    assert len(document["items"]) == inputs.LINE_ITEMS


def test_oracle_samples_sixteen_distinct_operations():
    sample = inputs.oracle_sample(5, "w", 300)
    assert len(sample) == len(set(sample)) == inputs.ORACLE_SAMPLES
    assert all(0 <= index < 300 for index in sample)
    assert inputs.oracle_sample(5, "w", 4) == [0, 1, 2, 3]
