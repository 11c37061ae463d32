"""Benchmark regenerating Figure 14: efficiency vs. positioning period T and error mu (see README, *Repo conventions*).

The regenerated result rows are attached to ``extra_info``; the timed portion
is the Best-First query at the experiment's default setting.
"""


def test_bench_fig14(benchmark, synth_scenario, synth_setting, time_method):
    time_method(benchmark, "fig14", synth_scenario, synth_setting, "bf")
