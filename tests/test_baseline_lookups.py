"""The baselines' lookups equal what they replace: SC's P-location →
S-locations table the geometric search, MC's bisected draw the running-total
loop."""

from __future__ import annotations

from itertools import accumulate

import pytest

from repro.baselines import SimpleCounting
from repro.baselines.monte_carlo import _cumulative, _draws
from repro.data.records import SampleSet
from repro.experiments.config import scenario


@pytest.mark.parametrize("kind", ["real", "synth"])
def test_sc_table_equals_the_geometric_search(kind):
    plan = scenario(kind, "small").plan
    assert plan.slocations_of_plocation == {
        ploc_id: tuple(plan.slocations_containing(ploc.position))
        for ploc_id, ploc in plan.plocations.items()
    }


TIES = [SampleSet._from_columns((3, 5, 8), (0.4, 0.4, 0.2)),
        SampleSet._from_columns((2, 6), (0.5, 0.5))]


@pytest.mark.parametrize("threshold", [None, 0.25])
def test_sc_picks_what_the_sample_accessors_pick(threshold):
    """The most probable sample (the smallest id among ties) or every one
    above SC-ρ's threshold, read from the columns."""
    data = scenario("real", "small")
    sc = SimpleCounting(data.plan, threshold)
    sets = TIES + [record.sample_set for record in data.iupt.records_in_time_order()]
    for sample_set in sets:
        expected = (
            [sample_set.most_probable().ploc_id]
            if threshold is None
            else [sample.ploc_id for sample in sample_set.above_threshold(threshold)]
        )
        assert list(sc._picked(sample_set)) == expected


def _loop_draw(sample_set: SampleSet, threshold: float) -> int:
    """MC's draw as a running total over the set, verbatim."""
    cumulative = 0.0
    for ploc_id, prob in zip(sample_set.ploc_ids, sample_set.probs):
        cumulative += prob
        if threshold <= cumulative:
            return ploc_id
    return sample_set.ploc_ids[-1]


class _Thresholds:
    """An ``rng`` whose ``random()`` returns the given values in turn."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self) -> float:
        return next(self._values)


BELOW_ONE = SampleSet._from_columns((4, 7, 9), (0.5, 0.25, 0.25 - 2**-52))
WITH_ZERO = SampleSet._from_columns((1, 2, 3, 5), (0.0, 0.4, 0.0, 0.6))


@pytest.mark.parametrize("sample_set", [BELOW_ONE, WITH_ZERO], ids=["below-one", "zero-prob"])
def test_mc_bisect_draw_equals_the_loop(sample_set):
    """Every threshold at, between and around the running sums, and the
    largest ``random()`` value: the same P-location, fallback included."""
    sums = list(accumulate(sample_set.probs))
    thresholds = [0.0, 1.0 - 2**-53, 0.3, 0.45, 0.7]
    for total in sums:
        thresholds += [total, total - 2**-54, total + 2**-54]
    drawn = _draws([_cumulative(sample_set)] * len(thresholds), _Thresholds(thresholds))
    assert drawn == [_loop_draw(sample_set, threshold) for threshold in thresholds]
    if sample_set is BELOW_ONE:
        assert sums[-1] == 1.0 - 2**-52 < 1.0 - 2**-53  # the loop's fallback is taken
