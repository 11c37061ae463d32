"""Shopping-mall rental ranking: compare algorithms and pricing tiers.

The paper's second motivating application: a mall operator wants to rank shops
by visitor flow to inform rental pricing.  This example runs the same top-k
query with all three search algorithms (naive, nested-loop, best-first) plus
the simple-counting baseline, shows that the three exact algorithms agree,
compares their cost, and turns the flow ranking into pricing tiers.

Run with::

    python examples/mall_rental_ranking.py
"""

from __future__ import annotations

import time

from repro import SimpleCounting, TkPLQuery, build_real_scenario


def main() -> None:
    # The university floor doubles as a small "mall": rooms are shops and the
    # hallway segments are common areas.  (The naive algorithm below pays a
    # full per-location pass over every shopper, so the demo keeps the crowd
    # small; scale num_users/duration up for a heavier run.)
    scenario = build_real_scenario(num_users=10, duration_seconds=360.0, seed=3)
    plan = scenario.plan
    shops = sorted(plan.slocations)
    k = 5
    query = TkPLQuery.build(shops, k, scenario.start_time, scenario.end_time)

    print(f"Shops under analysis: {len(shops)}; positioning records: {len(scenario.iupt)}")

    rankings = {}
    for algorithm in ("naive", "nested-loop", "best-first"):
        began = time.perf_counter()
        result = scenario.system.search(scenario.iupt, query, algorithm=algorithm)
        elapsed = time.perf_counter() - began
        rankings[algorithm] = result.top_k_ids()
        print(
            f"{algorithm:12s} -> top-{k} {result.top_k_ids()} "
            f"({elapsed:.2f}s, pruning {result.stats.pruning_ratio:.0%})"
        )

    agreement = rankings["naive"] == rankings["nested-loop"] == rankings["best-first"]
    print(f"\nAll exact algorithms agree on the ranking: {agreement}")

    sc_result = SimpleCounting(plan).search(scenario.iupt, query)
    print(f"simple count -> top-{k} {sc_result.top_k_ids()} (topology-unaware baseline)")

    # Turn every shop's flow into three pricing tiers.
    full = scenario.system.top_k(
        scenario.iupt, shops, k=len(shops), start=query.start, end=query.end
    )
    ordered = sorted(full.flows.items(), key=lambda item: -item[1])
    tier_size = max(1, len(ordered) // 3)
    print("\nSuggested rental tiers (by estimated visitor flow):")
    for index, (sloc_id, flow) in enumerate(ordered):
        tier = "A (premium)" if index < tier_size else (
            "B (standard)" if index < 2 * tier_size else "C (economy)"
        )
        label = plan.slocations[sloc_id].label()
        print(f"  {label:18s} flow = {flow:6.2f}  tier {tier}")


if __name__ == "__main__":
    main()
