"""Benchmark regenerating Table 4: all methods at the default real-data setting (see README, *Repo conventions*).

The regenerated result rows are attached to ``extra_info``; the timed portion
is the Best-First query at the experiment's default setting.
"""


def test_bench_table4(benchmark, real_scenario, real_setting, time_method):
    time_method(benchmark, "table4", real_scenario, real_setting, "bf")
