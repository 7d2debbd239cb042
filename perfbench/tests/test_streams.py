"""The serve request streams are pure functions of their seed."""

from collections import Counter

import pytest

from perfbench import streams

N = 4000


@pytest.mark.parametrize("workload", ["serve-mixed"])
def test_same_seed_same_stream(workload):
    assert streams.take(workload, 7, 500) == streams.take(workload, 7, 500)


@pytest.mark.parametrize("workload", ["serve-mixed"])
def test_different_seeds_differ(workload):
    assert streams.take(workload, 7, 200) != streams.take(workload, 8, 200)


@pytest.mark.parametrize("workload", ["serve-mixed"])
def test_shares_match_declaration(workload):
    items = streams.take(workload, 3, N)
    shares = Counter(item["cls"] for item in items)
    declared = streams.SHARES[workload]
    assert set(shares) == set(declared)
    for cls, share in declared.items():
        assert shares[cls] / N == pytest.approx(share, abs=0.03), cls


def test_pairs_are_adjacent_identical_new_keys():
    items = streams.take("serve-mixed", 5, N)
    earlier = set()
    i = 0
    while i < len(items) - 1:
        item = items[i]
        if item["cls"] == "pair":
            assert items[i + 1]["cls"] == "pair"
            assert items[i + 1]["spec"] == item["spec"]
            key = tuple(sorted(item["spec"].items()))
            assert key not in earlier
            earlier.add(key)
            i += 2
            continue
        if item["cls"] == "new":
            earlier.add(tuple(sorted(item["spec"].items())))
        i += 1


def test_hits_repeat_earlier_keys_and_resumes_target_earlier_submits():
    items = streams.take("serve-mixed", 9, N)
    seen = set()
    for index, item in enumerate(items):
        if item["cls"] == "hit":
            assert tuple(sorted(item["spec"].items())) in seen
        elif item["cls"] == "resume":
            assert 0 <= item["target"] < index
            assert items[item["target"]]["kind"] != "resume"
        elif item["kind"] == "app":
            seen.add(tuple(sorted(item["spec"].items())))


def test_tasks_requests_use_distinct_apps():
    for item in streams.take("serve-mixed", 2, N):
        if item["cls"] == "tasks":
            apps = [spec["app"] for spec in item["specs"]]
            assert len(apps) in streams.TASKS_SPECS
            assert len(set(apps)) == len(apps)

