"""Unit tests for the indoor space model (floor plan, cells, GISL, MIL, routing)."""

from __future__ import annotations

import pytest

from repro.geometry import Point, Rect
from repro.space import (
    DoorGraphRouter,
    FloorPlan,
    FloorPlanError,
    IndoorLocationMatrix,
    IndoorSpaceLocationGraph,
    PartitionKind,
    PLocationKind,
    derive_cells,
    partition_to_cell,
    possible_cells_of_sequence,
)


def two_room_plan() -> FloorPlan:
    """Two rooms joined by one guarded door; each room is an S-location."""
    plan = FloorPlan()
    a = plan.add_partition(Rect(0, 0, 5, 5), name="a")
    b = plan.add_partition(Rect(5, 0, 10, 5), name="b")
    door = plan.add_door(Point(5, 2.5), (a, b))
    plan.add_partitioning_plocation(Point(5, 2.5), door)
    plan.add_presence_plocation(Point(2, 2), a)
    plan.add_presence_plocation(Point(8, 2), b)
    plan.add_slocation_for_partition(a)
    plan.add_slocation_for_partition(b)
    return plan


class TestFloorPlan:
    def test_summary_counts(self):
        plan = two_room_plan().freeze()
        summary = plan.summary()
        assert summary["partitions"] == 2
        assert summary["doors"] == 1
        assert summary["partitioning_plocations"] == 1
        assert summary["presence_plocations"] == 2
        assert summary["slocations"] == 2

    def test_partition_containing(self):
        plan = two_room_plan().freeze()
        assert plan.partition_containing(Point(1, 1)) == 0
        assert plan.partition_containing(Point(9, 1)) == 1
        assert plan.partition_containing(Point(50, 50)) is None

    def test_slocations_containing(self):
        plan = two_room_plan().freeze()
        assert plan.slocations_containing(Point(1, 1)) == [0]
        assert plan.slocations_containing(Point(20, 20)) == []

    def test_frozen_plan_rejects_mutation(self):
        plan = two_room_plan().freeze()
        with pytest.raises(FloorPlanError):
            plan.add_partition(Rect(20, 20, 30, 30))

    def test_door_requires_known_partitions(self):
        plan = FloorPlan()
        plan.add_partition(Rect(0, 0, 1, 1))
        with pytest.raises(FloorPlanError):
            plan.add_door(Point(0, 0), (0, 99))

    def test_presence_plocation_resolves_partition_geometrically(self):
        plan = FloorPlan()
        plan.add_partition(Rect(0, 0, 4, 4))
        ploc_id = plan.add_presence_plocation(Point(1, 1))
        assert plan.plocations[ploc_id].partition_id == 0

    def test_presence_plocation_outside_all_partitions_raises(self):
        plan = FloorPlan()
        plan.add_partition(Rect(0, 0, 4, 4))
        with pytest.raises(FloorPlanError):
            plan.add_presence_plocation(Point(10, 10))

    def test_empty_plan_cannot_freeze(self):
        with pytest.raises(FloorPlanError):
            FloorPlan().freeze()

    def test_doors_of_partition(self):
        plan = two_room_plan().freeze()
        assert [d.door_id for d in plan.doors_of_partition(0)] == [0]


class TestCells:
    def test_guarded_door_separates_cells(self):
        plan = two_room_plan().freeze()
        cells = derive_cells(plan)
        assert len(cells) == 2

    def test_unguarded_door_merges_cells(self):
        plan = FloorPlan()
        a = plan.add_partition(Rect(0, 0, 5, 5))
        b = plan.add_partition(Rect(5, 0, 10, 5))
        plan.add_door(Point(5, 2.5), (a, b))
        plan.add_presence_plocation(Point(2, 2), a)
        plan.add_slocation_for_partition(a)
        plan.freeze()
        cells = derive_cells(plan)
        assert len(cells) == 1
        assert cells[0].partition_ids == frozenset({a, b})

    def test_partition_to_cell_covers_all_partitions(self):
        plan = two_room_plan().freeze()
        cells = derive_cells(plan)
        mapping = partition_to_cell(cells)
        assert set(mapping) == set(plan.partitions)

    def test_cell_ids_are_deterministic(self):
        plan = two_room_plan().freeze()
        first = [c.partition_ids for c in derive_cells(plan)]
        second = [c.partition_ids for c in derive_cells(plan)]
        assert first == second


class TestGraphAndMatrix:
    def test_graph_structure(self, figure1):
        graph = figure1["graph"]
        summary = graph.summary()
        assert summary["cells"] == 5
        assert summary["plocations"] == 9
        assert summary["slocations"] == 6
        # r3 connects only to r4's cell.
        r3_cell = graph.cell_of_partition[figure1["rooms"]["r3"]]
        r4_cell = graph.cell_of_partition[figure1["rooms"]["r4"]]
        assert graph.neighbours(r3_cell) == {r4_cell}

    def test_c2s_and_parent_cell_are_inverse(self, figure1):
        graph = figure1["graph"]
        for sloc_id, cell_id in graph.slocation_to_cell.items():
            assert sloc_id in graph.c2s_many([cell_id])

    @pytest.mark.parametrize("model", ["figure1", "real", "synthetic"])
    def test_every_possible_semantic_location_has_a_parent_cell(
        self, model, figure1, figure1_iupt
    ):
        """The engine's one fold looks up ``parent_cell`` of every S-location
        in an artefact's PSLs and has no arm for ``None``: PSLs come from
        ``C2S``, which only holds S-locations that have a parent cell."""
        from repro import QueryEngine
        from repro.synth import build_real_scenario, build_synthetic_scenario

        if model == "figure1":
            graph, matrix, iupt = figure1["graph"], figure1["matrix"], figure1_iupt
        else:
            build = build_real_scenario if model == "real" else build_synthetic_scenario
            scenario = build()
            graph, matrix, iupt = scenario.system.graph, scenario.system.matrix, scenario.iupt
        pipeline = QueryEngine(graph, matrix).pipeline
        start, end = iupt.time_span()
        ctx = pipeline.context((start, end), graph.plan.slocations)
        entries = pipeline.window(ctx, iupt, build_paths=False).entries
        psls = set().union(*(entry.psls for _object_id, entry in entries))
        assert psls
        assert [sloc for sloc in sorted(psls) if graph.parent_cell(sloc) is None] == []

    def test_equivalence_classes_partition_plocations(self, figure1):
        graph = figure1["graph"]
        classes = graph.equivalence_classes()
        members = sorted(p for cls in classes for p in cls)
        assert members == sorted(graph.cells_of_plocation)

    def test_representative_is_smallest_member(self, figure1):
        graph, plocs = figure1["graph"], figure1["plocs"]
        [members] = [c for c in graph.equivalence_classes() if plocs["p8"] in c]
        assert min(members) == min(plocs["p6"], plocs["p8"])

    def test_matrix_dense_is_symmetric_by_construction(self, figure1):
        matrix = figure1["matrix"]
        dense = matrix.dense()
        for (a, b), cells in dense.items():
            assert matrix.cells_between(b, a) == cells

    def test_possible_cells_of_sequence(self, figure1):
        matrix, plocs = figure1["matrix"], figure1["plocs"]
        cells = possible_cells_of_sequence(matrix, [plocs["p6"], plocs["p3"]])
        assert cells == set(matrix.cells_adjacent(plocs["p6"])) | set(
            matrix.cells_adjacent(plocs["p3"])
        )

    def test_matrix_connected_reflexive(self, figure1):
        matrix, plocs = figure1["matrix"], figure1["plocs"]
        for ploc_id in plocs.values():
            assert matrix.connected(ploc_id, ploc_id)


class TestRouting:
    def test_same_partition_route_is_straight_line(self):
        plan = two_room_plan().freeze()
        router = DoorGraphRouter(plan)
        route = router.route(Point(1, 1), Point(4, 1))
        assert route is not None
        assert route.length == pytest.approx(3.0)
        assert route.partitions == (0,)

    def test_cross_partition_route_goes_through_door(self):
        plan = two_room_plan().freeze()
        router = DoorGraphRouter(plan)
        route = router.route(Point(1, 2.5), Point(9, 2.5))
        assert route is not None
        assert route.length == pytest.approx(8.0)
        assert route.partitions == (0, 1)
        assert Point(5, 2.5) in route.waypoints

    def test_route_in_figure1_respects_topology(self, figure1):
        plan = figure1["plan"]
        router = DoorGraphRouter(plan)
        # From r3 to r6 one must pass through r4.
        route = router.route(Point(5, 16), Point(25, 10))
        assert route is not None
        rooms = figure1["rooms"]
        assert rooms["r4"] in route.partitions

    def test_unreachable_returns_none(self):
        plan = FloorPlan()
        a = plan.add_partition(Rect(0, 0, 5, 5))
        b = plan.add_partition(Rect(10, 0, 15, 5))
        plan.add_presence_plocation(Point(1, 1), a)
        plan.add_slocation_for_partition(a)
        plan.freeze()
        router = DoorGraphRouter(plan)
        assert router.route(Point(1, 1), Point(11, 1)) is None

    def test_reachable_partitions(self, figure1):
        plan = figure1["plan"]
        router = DoorGraphRouter(plan)
        source = plan.partitions[figure1["rooms"]["r3"]].rect.center
        for partition in plan.partitions.values():
            assert router.route(source, partition.rect.center) is not None
