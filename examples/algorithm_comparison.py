"""Method comparison on one scenario: the paper's Table 4 in miniature.

Runs every evaluated method (BF, NL, Naive, their -ORG variants without data
reduction, SC, SC-ρ, and MC) on the same query over the university-floor
scenario and prints running time, pruning ratio, Kendall coefficient, and
recall against the simulation ground truth, under both tie rules — a
miniature, single-query version of the paper's Table 4.

Run with::

    python examples/algorithm_comparison.py
"""

from __future__ import annotations

from repro import TkPLQuery, build_real_scenario, run_methods
from repro.eval import table_row
from repro.experiments.runner import format_table


def main() -> None:
    scenario = build_real_scenario(num_users=12, duration_seconds=480.0, seed=7)
    query_set = scenario.pick_query_slocations(0.6, seed=1)
    start, end = scenario.query_interval(180.0, seed=1)
    query = TkPLQuery.build(query_set, k=3, start=start, end=end)

    print(f"Query: top-3 of {len(query_set)} S-locations over a 3-minute window")
    methods = ["sc", "sc-rho", "mc", "bf", "nl", "naive", "bf-org", "nl-org"]
    outcomes = run_methods(scenario, methods, query, sc_rho=0.25, mc_rounds=40)

    rows = [table_row([outcome]) for outcome in outcomes]
    print(format_table(rows))

    fastest_exact = min(
        (outcome for outcome in outcomes if outcome.method in ("bf", "nl", "naive")),
        key=lambda outcome: outcome.time_s,
    )
    print(
        f"\nFastest exact method: {fastest_exact.method} "
        f"({fastest_exact.time_s:.2f}s, Kendall {fastest_exact.kendall_by_id:.2f})"
    )
    print(
        "Note: the -ORG variants process the un-reduced positioning sequences and "
        "illustrate how much the data reduction method saves."
    )


if __name__ == "__main__":
    main()
