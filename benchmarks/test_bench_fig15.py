"""Benchmark regenerating Figure 15: effectiveness vs. positioning period T (see README, *Repo conventions*).

The regenerated result rows are attached to ``extra_info``; the timed portion
is the Best-First query at the experiment's default setting.
"""


def test_bench_fig15(benchmark, synth_scenario, synth_setting, time_method):
    time_method(benchmark, "fig15", synth_scenario, synth_setting, "bf")
