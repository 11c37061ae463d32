"""Benchmark regenerating Table 5: running time vs. maximum sample-set size (mss) (see README, *Repo conventions*).

The regenerated result rows are attached to ``extra_info``; the timed portion
is the Best-First query at the experiment's default setting.
"""


def test_bench_table5(benchmark, real_scenario, real_setting, time_method):
    time_method(benchmark, "table5", real_scenario, real_setting, "bf")
