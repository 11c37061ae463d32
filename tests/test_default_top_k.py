"""Every ``top_k`` answer lists exact flows, in process and on the wire.

A ``top_k`` that names no algorithm is answered by nested-loop (Algorithm 3),
which sums every query location's flow.  Best-first (Algorithm 4) lists only
the flows it resolved before it stopped.  Every flow either answer lists must
be naive's, bit for bit, and both rankings must be naive's.
"""

from __future__ import annotations

import asyncio
import functools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IUPT, EngineConfig, QueryEngine, QueryService, ServiceClient
from repro.service import protocol
from repro.synth import build_synthetic_scenario


@functools.lru_cache(maxsize=None)
def default_scenario():
    return build_synthetic_scenario()


@functools.lru_cache(maxsize=None)
def small_scenario(floors: int):
    return build_synthetic_scenario(
        num_objects=12, floors=floors, room_rows=1, rooms_per_row=3,
        duration_seconds=240.0, seed=17,
    )


def engine_of(scenario, config=None):
    return QueryEngine(scenario.system.graph, scenario.system.matrix, config=config)


def hexed(flows):
    return {sloc_id: flow.hex() for sloc_id, flow in flows.items()}


def ranked(result):
    return [(entry.sloc_id, entry.flow.hex()) for entry in result.ranking]


def wire_top_k(engine, table, slocs, k, start, end, algorithm=None):
    """One ``top_k`` frame, through a started service."""

    async def run():
        service = QueryService(engine, table)
        host, port = await service.start()
        client = await ServiceClient.connect(host, port)
        try:
            return await client.top_k(slocs, k, start, end, algorithm)
        finally:
            await client.close()
            await service.stop()

    return asyncio.run(run())


def assert_default_is_exact(scenario, table, slocs, k, start, end):
    naive = engine_of(scenario, EngineConfig.uncached()).top_k(
        table, slocs, k, start, end, algorithm="naive"
    )
    best = engine_of(scenario, EngineConfig.uncached()).top_k(
        table, slocs, k, start, end, algorithm="best-first"
    )
    default = engine_of(scenario).top_k(table, slocs, k, start, end)
    assert default.algorithm == "nested-loop"
    assert hexed(default.flows) == hexed(naive.flows)
    assert ranked(default) == ranked(best) == ranked(naive)

    wire = wire_top_k(engine_of(scenario), table, slocs, k, start, end)
    assert wire["algorithm"] == "nested-loop"
    assert hexed(protocol.flows_from_wire(wire["flows"])) == hexed(naive.flows)
    assert [(sloc_id, flow.hex()) for sloc_id, flow in wire["ranking"]] == ranked(naive)

    # Best-first lists only the flows it resolved, each of them naive's.
    best_wire = wire_top_k(engine_of(scenario), table, slocs, k, start, end, "best-first")
    assert best_wire["algorithm"] == "best-first"
    for flows in (best.flows, protocol.flows_from_wire(best_wire["flows"])):
        assert hexed(flows) == {sloc_id: naive.flows[sloc_id].hex() for sloc_id in flows}


def test_twenty_locations_over_the_first_minute():
    """Best-first used to list 11 of these 20 flows at a padded 0.0."""
    scenario = default_scenario()
    assert_default_is_exact(
        scenario, scenario.iupt, scenario.slocation_ids()[:20], 3, 0.0, 60.0
    )


@settings(max_examples=25, deadline=None)
@given(
    floors=st.sampled_from((1, 2)),
    keep=st.floats(min_value=0.2, max_value=1.0),
    table_seed=st.integers(min_value=0, max_value=10_000),
    share=st.sampled_from((0.3, 0.6, 1.0)),
    query_seed=st.integers(min_value=0, max_value=40),
    k=st.integers(min_value=1, max_value=5),
    window=st.tuples(
        st.floats(min_value=0.0, max_value=0.8), st.floats(min_value=0.1, max_value=1.0)
    ),
)
def test_default_lists_naive_flows_on_random_tables(
    floors, keep, table_seed, share, query_seed, k, window
):
    """A random share of a scenario's records, a random query set and window."""
    scenario = small_scenario(floors)
    rng = random.Random(table_seed)
    table = IUPT(shard_seconds=60.0)
    table.ingest_batch(
        [record for record in scenario.iupt.records_in_time_order() if rng.random() < keep]
    )
    slocs = scenario.pick_query_slocations(share, seed=query_seed)
    span = scenario.end_time - scenario.start_time
    start = scenario.start_time + window[0] * span
    end = min(scenario.end_time, start + window[1] * span)
    assert_default_is_exact(scenario, table, slocs, min(k, len(slocs)), start, end)
