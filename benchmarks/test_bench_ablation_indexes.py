"""Ablation benchmark: time-index variants (1D R-tree vs. B+-tree vs. the
store's sorted timestamp column) and MIL merging.

The paper's two trees (§3.3) are bulk-loaded directly over the scenario's
records; the third variant is the index the table itself answers from.  The
timings are reported, not asserted.
"""

import pytest

from repro.experiments import real_scale
from repro.indexes import BPlusTree, OneDimensionalRTree


@pytest.fixture(scope="module")
def window(real_scenario):
    knobs = real_scale("small")
    return real_scenario.query_interval(knobs.default_delta_seconds, seed=3)


@pytest.fixture(scope="module")
def pairs(real_scenario):
    records = real_scenario.iupt.records_in_time_order()
    return [(record.timestamp, record) for record in records]


def test_bench_ablation_indexes_rows(benchmark, real_scenario, window, run_and_attach):
    start, end = window
    run_and_attach(
        benchmark, "ablation_indexes", lambda: real_scenario.iupt.range_query(start, end)
    )


def test_bench_range_query_1dr_tree(benchmark, pairs, window):
    benchmark(OneDimensionalRTree.from_sorted(pairs).range_query, *window)


def test_bench_range_query_bplus_tree(benchmark, pairs, window):
    benchmark(BPlusTree.bulk_load(pairs).range_query, *window)


def test_bench_range_query_timestamp_column(benchmark, real_scenario, window):
    benchmark(real_scenario.iupt.range_query, *window)


def test_bench_ablation_algorithms(benchmark, run_and_attach, real_scenario, real_setting):
    """Head-to-head of the three algorithms and their -ORG variants (rows attached)."""
    from repro.experiments.runner import single_query_outcome

    run_and_attach(
        benchmark,
        "ablation_algorithms",
        lambda: single_query_outcome(real_scenario, "nl", real_setting),
    )
