"""Best-first search (Algorithm 4) against the search it replaced.

``tests/best_first_oracle.py`` holds the earlier search verbatim (``Rect``
MBRs, a ``_QueryEntry`` / ``_HeapItem`` per push, ``loose_intersects`` per
pair, a leaf's exact flow over every candidate of its join list), with only
the zero-padding fix applied.  The current join runs on float bounds and a
leaf sums only the candidates that can reach it; it must return the same
ranking and ``flows`` map bit for bit, pop the heap as often, compute no
object the oracle did not, and evaluate, for each location it resolves,
exactly the flows nested-loop evaluates for it — all of nested-loop's
whenever the search leaves no positive bound in its heap.  (It can leave one:
at k = 1 a location whose exact flow exceeds another's COUNT bound of 2
prunes that one — Algorithm 4 at work.)
"""

from __future__ import annotations

import functools
import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EngineConfig, QueryEngine, TkPLQuery
from repro.core import BestFirstTkPLQ, NestedLoopTkPLQ
from repro.core import best_first
from repro.indexes.aggregate_rtree import ITEM
from repro.synth import build_synthetic_scenario
from tests.best_first_oracle import BestFirstOracle


@functools.lru_cache(maxsize=None)
def scenario_of(floors: int, room_rows: int):
    """6 to 30 S-locations: a 2 x 3-room building on three floors has 30, so
    ``RQ`` reaches height 3 at fanout 4."""
    return build_synthetic_scenario(
        num_objects=12,
        floors=floors,
        room_rows=room_rows,
        rooms_per_row=3,
        duration_seconds=240.0,
        seed=17,
    )


def cold_pipeline(scenario):
    """A store-less engine's pipeline: the oracle keeps other objects under
    the same ``window.derived`` keys, and no run warms another."""
    return QueryEngine(
        scenario.system.graph, scenario.system.matrix, config=EngineConfig.uncached()
    ).pipeline


def bits(result):
    return (
        [(entry.sloc_id, entry.flow.hex()) for entry in result.ranking],
        {sloc_id: flow.hex() for sloc_id, flow in result.flows.items()},
    )


_short = st.tuples(
    st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=1.0, max_value=30.0)
)
_long = st.tuples(
    st.floats(min_value=0.0, max_value=0.5), st.floats(min_value=0.3, max_value=1.0)
)


class TestJoinEqualsTheOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        floors=st.sampled_from((1, 2, 3)),
        room_rows=st.sampled_from((1, 2)),
        fanout=st.sampled_from((4, 8)),
        query_seed=st.integers(min_value=0, max_value=10_000),
        size=st.floats(min_value=0.0, max_value=1.0),
        k_share=st.floats(min_value=0.0, max_value=1.0),
        short=st.booleans(),
        short_window=_short,
        long_window=_long,
    )
    def test_same_bits_heap_operations_and_evaluations(
        self, floors, room_rows, fanout, query_seed, size, k_share, short, short_window, long_window
    ):
        scenario = scenario_of(floors, room_rows)
        slocs = scenario.slocation_ids()
        rng = random.Random(query_seed)
        query_set = rng.sample(slocs, 1 + round(size * (len(slocs) - 1)))  # any order
        span = scenario.end_time - scenario.start_time
        if short:
            start_share, length = short_window
            start = scenario.start_time + start_share * (span - length)
        else:
            start_share, length_share = long_window
            start = scenario.start_time + start_share * span
            length = length_share * span
        query = TkPLQuery.build(
            query_set, 1 + round(k_share * (len(query_set) - 1)), start, start + length
        )

        resolved = set()
        push = best_first._push

        def recording(heap, order, entry, bound, join_list):
            if join_list is None:  # an exact flow: the location is resolved
                resolved.add(entry[ITEM])
            push(heap, order, entry, bound, join_list)

        with mock.patch.object(best_first, "_push", recording):
            best = BestFirstTkPLQ(cold_pipeline(scenario), rtree_fanout=fanout).search(
                scenario.iupt, query
            )
        oracle = BestFirstOracle(cold_pipeline(scenario), rtree_fanout=fanout).search(
            scenario.iupt, query
        )
        nested = NestedLoopTkPLQ(cold_pipeline(scenario)).search(scenario.iupt, query)
        pipeline = cold_pipeline(scenario)
        ctx = pipeline.context(query.interval, query.query_slocations)
        entries = pipeline.window(ctx, scenario.iupt, build_paths=False).entries
        live = [stored for _id, stored in entries if not stored.pruned]
        reaching = {
            sloc_id: sum(1 for stored in live if sloc_id in stored.psls)
            for sloc_id in query.query_slocations
        }
        assert nested.stats.flow_evaluations == sum(reaching.values())

        assert bits(best) == bits(oracle)
        assert best.stats.heap_operations == oracle.stats.heap_operations
        assert best.stats.computed_object_ids <= oracle.stats.computed_object_ids
        assert best.stats.flow_evaluations == sum(reaching[sloc_id] for sloc_id in resolved)
        assert best.stats.bound_left <= best.stats.kth_flow == best.ranking[-1].flow
        if best.stats.bound_left == 0.0:
            assert best.stats.flow_evaluations == nested.stats.flow_evaluations
