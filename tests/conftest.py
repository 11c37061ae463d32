"""Shared fixtures: the paper's Figure 1 running example, small scenarios, and
the closing of every durable store a test leaves open."""

from __future__ import annotations

from typing import Dict, Tuple

import pytest

from repro import (
    DataReductionConfig,
    EngineConfig,
    FloorPlan,
    FlowComputer,
    IndoorFlowSystem,
    IUPT,
    PartitionKind,
    Point,
    QueryEngine,
    Rect,
    SampleSet,
)
from repro.space import IndoorLocationMatrix, IndoorSpaceLocationGraph
from repro.storage import DurableRecordStore
from repro.synth import build_real_scenario, build_synthetic_scenario


@pytest.fixture(scope="session")
def figure1() -> Dict[str, object]:
    """The indoor space of Figure 1 / Table 2 of the paper.

    Partitions r1..r6 (r6 is the hallway), doors guarded so that the cells are
    c(r1, r2), c(r3), c(r4), c(r5), c(r6), and P-locations labelled p1..p9
    exactly as in the paper:

    * p1: door r4-r5, p2: door r4-r6, p3: door r3-r4, p4: door r1-r6,
      p5: door r5-r6, p9: door r2-r6 (partitioning);
    * p6, p8: presence in r6; p7: presence in r2 (cell of r1, r2).
    """
    plan = FloorPlan()
    rooms = {}
    rooms["r1"] = plan.add_partition(Rect(20, 12, 30, 20), PartitionKind.ROOM, name="r1")
    rooms["r2"] = plan.add_partition(Rect(10, 12, 20, 20), PartitionKind.ROOM, name="r2")
    rooms["r3"] = plan.add_partition(Rect(0, 12, 10, 20), PartitionKind.ROOM, name="r3")
    rooms["r4"] = plan.add_partition(Rect(0, 0, 10, 8), PartitionKind.ROOM, name="r4")
    rooms["r5"] = plan.add_partition(Rect(10, 0, 20, 8), PartitionKind.ROOM, name="r5")
    rooms["r6"] = plan.add_partition(Rect(0, 8, 30, 12), PartitionKind.HALLWAY, name="r6")

    doors = {}
    doors["r1r2"] = plan.add_door(Point(20, 16), (rooms["r1"], rooms["r2"]))
    doors["r1r6"] = plan.add_door(Point(25, 12), (rooms["r1"], rooms["r6"]))
    doors["r2r6"] = plan.add_door(Point(15, 12), (rooms["r2"], rooms["r6"]))
    doors["r4r6"] = plan.add_door(Point(5, 8), (rooms["r4"], rooms["r6"]))
    doors["r5r6"] = plan.add_door(Point(15, 8), (rooms["r5"], rooms["r6"]))
    doors["r4r5"] = plan.add_door(Point(10, 4), (rooms["r4"], rooms["r5"]))
    doors["r3r4"] = plan.add_door(Point(1, 10), (rooms["r3"], rooms["r4"]))

    plocs = {}
    plocs["p1"] = plan.add_partitioning_plocation(Point(10, 4), doors["r4r5"], name="p1")
    plocs["p2"] = plan.add_partitioning_plocation(Point(5, 8), doors["r4r6"], name="p2")
    plocs["p3"] = plan.add_partitioning_plocation(Point(1, 10), doors["r3r4"], name="p3")
    plocs["p4"] = plan.add_partitioning_plocation(Point(25, 12), doors["r1r6"], name="p4")
    plocs["p5"] = plan.add_partitioning_plocation(Point(15, 8), doors["r5r6"], name="p5")
    plocs["p6"] = plan.add_presence_plocation(Point(8, 10), rooms["r6"], name="p6")
    plocs["p7"] = plan.add_presence_plocation(Point(12, 18), rooms["r2"], name="p7")
    plocs["p8"] = plan.add_presence_plocation(Point(22, 10), rooms["r6"], name="p8")
    plocs["p9"] = plan.add_partitioning_plocation(Point(15, 12), doors["r2r6"], name="p9")

    slocs = {}
    for name, partition_id in rooms.items():
        slocs[name] = plan.add_slocation_for_partition(partition_id, name=name)

    plan.freeze()
    graph = IndoorSpaceLocationGraph.from_floorplan(plan)
    matrix = IndoorLocationMatrix.from_graph(graph)
    return {
        "plan": plan,
        "graph": graph,
        "matrix": matrix,
        "rooms": rooms,
        "doors": doors,
        "plocs": plocs,
        "slocs": slocs,
    }


@pytest.fixture(scope="session")
def figure1_iupt(figure1) -> IUPT:
    """The IUPT of Table 2 over the Figure 1 space (timestamps t1..t8 = 1..8)."""
    p = figure1["plocs"]
    iupt = IUPT()
    iupt.report(1, SampleSet.from_pairs([(p["p4"], 1.0)]), 1.0)
    iupt.report(2, SampleSet.from_pairs([(p["p1"], 0.5), (p["p2"], 0.5)]), 1.0)
    iupt.report(3, SampleSet.from_pairs([(p["p2"], 0.6), (p["p3"], 0.4)]), 2.0)
    iupt.report(1, SampleSet.from_pairs([(p["p9"], 1.0)]), 3.0)
    iupt.report(2, SampleSet.from_pairs([(p["p2"], 0.7), (p["p4"], 0.3)]), 3.0)
    iupt.report(1, SampleSet.from_pairs([(p["p8"], 1.0)]), 4.0)
    iupt.report(2, SampleSet.from_pairs([(p["p5"], 0.3), (p["p6"], 0.6), (p["p8"], 0.1)]), 5.0)
    iupt.report(3, SampleSet.from_pairs([(p["p2"], 0.4), (p["p3"], 0.6)]), 5.0)
    iupt.report(2, SampleSet.from_pairs([(p["p5"], 0.2), (p["p6"], 0.3), (p["p8"], 0.5)]), 6.0)
    iupt.report(3, SampleSet.from_pairs([(p["p3"], 1.0)]), 8.0)
    return iupt


@pytest.fixture(scope="session")
def figure1_flow_exact(figure1) -> FlowComputer:
    """A flow computer over Figure 1 with data reduction disabled.

    The worked Examples 2-4 of the paper are computed on the raw sample sets,
    so exact reproduction requires the reduction to be off.
    """
    return FlowComputer(
        figure1["graph"], figure1["matrix"], DataReductionConfig.disabled()
    )


@pytest.fixture(scope="session")
def figure1_engine_exact(figure1) -> QueryEngine:
    """A cold (store-less) engine over Figure 1 with data reduction disabled."""
    return QueryEngine(
        figure1["graph"],
        figure1["matrix"],
        DataReductionConfig.disabled(),
        config=EngineConfig.uncached(),
    )


@pytest.fixture(autouse=True)
def _close_durable_stores(monkeypatch):
    """Close every durable store a test opened and left open, as the end of
    a process would: a store's log handles are released when its test ends,
    never by the garbage collector in some later test."""
    opened = []
    init = DurableRecordStore.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        opened.append(self)

    monkeypatch.setattr(DurableRecordStore, "__init__", tracking_init)
    yield
    for store in opened:
        store.close()


@pytest.fixture(scope="session")
def small_real_scenario():
    """A small but complete university-floor scenario for integration tests."""
    return build_real_scenario(num_users=8, duration_seconds=240.0, seed=41)


@pytest.fixture(scope="session")
def small_synth_scenario():
    """A small synthetic multi-floor scenario with RFID data."""
    return build_synthetic_scenario(
        num_objects=10,
        floors=2,
        room_rows=1,
        rooms_per_row=3,
        duration_seconds=240.0,
        seed=17,
        with_rfid=True,
    )
