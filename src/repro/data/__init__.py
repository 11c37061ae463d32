"""Mobility data models: uncertain positioning records, trajectories, RFID.

``IUPT``, the table of positioning records, is a second name for the store
that holds them, :class:`~repro.storage.sharded.ShardedRecordStore`.
"""

from .records import PositioningRecord, PositioningSequence, Sample, SampleSet
from .rfid import RFIDReader, RFIDRecord, RFIDTable
from .trajectory import Trajectory, TrajectoryPoint, TrajectoryStore
from ..storage.sharded import ShardedRecordStore as IUPT

__all__ = [
    "IUPT",
    "PositioningRecord",
    "PositioningSequence",
    "RFIDReader",
    "RFIDRecord",
    "RFIDTable",
    "Sample",
    "SampleSet",
    "Trajectory",
    "TrajectoryPoint",
    "TrajectoryStore",
]
