"""Benchmark regenerating Figure 12: effectiveness vs. |Q| on real data (see README, *Repo conventions*).

The regenerated result rows are attached to ``extra_info``; the timed portion
is the Best-First query at the experiment's default setting.
"""


def test_bench_fig12(benchmark, real_scenario, real_setting, time_method):
    time_method(benchmark, "fig12", real_scenario, real_setting, "bf")
