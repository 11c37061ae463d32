"""Every read entry point of the engine gives the same flows, bit for bit.

Seven entry points answer a query set over a window: the naive algorithm,
nested-loop, ``QueryEngine.flows``, per-location ``QueryEngine.flow``,
``batch``, a standing top-k and a standing flow subscription.  Over random
query sets and windows of a small scenario, under PSL pruning on and off
(``DataReductionConfig.enabled()``, ``.disabled()``,
``.original_with_psls()``), they must give the same flows as IEEE bytes, and
the four top-k answers the same ranking.  The standing queries are registered
over the first half of the stream and refreshed by the second, so their
answers come through delta maintenance.

This pins the fact every read relies on: an object's presence outside its
PSLs is exactly zero.  That is why naive's per-location flows with pruning
off (the ``-org`` rows of the experiments) can come from a fold that reads
only the objects whose PSLs hold the location;
``test_presence_outside_the_psls_is_zero`` states it directly.
"""

from __future__ import annotations

from typing import Dict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IUPT, DataReductionConfig, EngineConfig, QueryEngine, TkPLQuery

CONFIGS = {
    "enabled": DataReductionConfig.enabled(),
    "disabled": DataReductionConfig.disabled(),
    "original_with_psls": DataReductionConfig.original_with_psls(),
}


def _hex(flows: Dict[int, float]) -> Dict[int, str]:
    return {sloc_id: flow.hex() for sloc_id, flow in flows.items()}


def _engine(scenario, reduction, config=None) -> QueryEngine:
    return QueryEngine(scenario.system.graph, scenario.system.matrix, reduction, config)


@pytest.mark.parametrize("config", CONFIGS)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_every_entry_point_gives_the_same_flows(small_synth_scenario, config, data):
    scenario, reduction = small_synth_scenario, CONFIGS[config]
    slocs = data.draw(
        st.lists(st.sampled_from(scenario.slocation_ids()), min_size=1, max_size=6, unique=True)
    )
    k = data.draw(st.integers(1, len(slocs)))
    start = data.draw(st.floats(scenario.start_time, scenario.end_time - 10.0))
    end = data.draw(st.floats(start + 10.0, scenario.end_time))
    query = TkPLQuery.build(slocs, k, start, end)

    records = sorted(scenario.iupt.records_in_time_order(), key=lambda r: r.timestamp)
    table = IUPT(shard_seconds=60.0)
    table.ingest_batch(records[: len(records) // 2])
    standing = _engine(scenario, reduction).continuous(table)
    top = standing.register(query)
    flow_set = standing.register_flows(slocs, start, end)
    table.ingest_batch(records[len(records) // 2 :])
    standing.close()

    answers = {
        "naive": _engine(scenario, reduction, EngineConfig.uncached()).search(
            table, query, "naive"
        ),
        "nested-loop": _engine(scenario, reduction).search(table, query),
        "batch": _engine(scenario, reduction).batch(table, [query]).results[0],
        "standing top-k": top.result,
    }
    flows = {name: answer.flows for name, answer in answers.items()}
    flows["flows"] = _engine(scenario, reduction).flows(table, slocs, start, end)
    per_location = _engine(scenario, reduction)
    flows["flow"] = {
        sloc_id: per_location.flow(table, sloc_id, start, end).flow for sloc_id in slocs
    }
    flows["standing flows"] = flow_set.result

    expected = _hex(flows["naive"])
    assert {name: _hex(got) for name, got in flows.items()} == dict.fromkeys(flows, expected)
    ranking = answers["naive"].top_k_ids()
    assert {name: answer.top_k_ids() for name, answer in answers.items()} == dict.fromkeys(
        answers, ranking
    )


def test_presence_outside_the_psls_is_zero(small_synth_scenario):
    """With PSL pruning off every object's presences are built; each is
    ``0.0`` exactly in the cell of every S-location outside its PSLs."""
    scenario = small_synth_scenario
    engine = _engine(scenario, DataReductionConfig.disabled())
    pipeline = engine.pipeline
    ctx = pipeline.context((scenario.start_time, scenario.end_time), None)
    entries = pipeline.window(ctx, scenario.iupt).entries
    graph = pipeline.flow_computer.graph
    cells = {sloc_id: graph.parent_cell(sloc_id) for sloc_id in scenario.slocation_ids()}
    outside = [
        (entry.computation.presence_in_cell(cell), sloc_id)
        for _object_id, entry in entries
        for sloc_id, cell in cells.items()
        if sloc_id not in entry.psls
    ]
    assert outside and {presence for presence, _ in outside} == {0.0}
