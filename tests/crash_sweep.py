"""Print the state every injected crash of the durable store recovers to.

Usage::

    python3 tests/crash_sweep.py > before.txt   # on the old tree
    python3 tests/crash_sweep.py > after.txt    # on the new tree
    diff before.txt after.txt

The matrix is the crash harness's six op-tape seeds (``SEEDS`` and
``_random_ops`` of ``tests/test_durable.py``) x the three fsync policies x
checkpoint cadence None / 1 / 3 x ten ``fail_after_writes`` budgets spread
from 0 to the tape's whole write count (a dry run counts it).  Each case runs
the tape until the injected crash, recovers the directory, ingests one more
batch, checkpoints, closes and recovers again.  After each recovery it prints
the records (count and SHA-256 over every field, floats by ``float.hex``),
the shard versions, the watermark, ``recovery_report``, ``next_seq``,
``last_committed_seq``, ``wal_base_seq`` and the SHA-256 of every segment.
Snapshots, the control log and the manifest are left out: their bytes are
the files a change to the checkpoint may rewrite, and the manifest holds a
random store id.  A change that keeps recovery's meaning prints the same
lines.

The store is built from the source tree beside this script; it is a script,
not a test module (pytest collects only ``test_*.py``), and takes several
minutes, most of it in fsync.
"""

from __future__ import annotations

import hashlib
import pathlib
import random
import shutil
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from repro.storage import (  # noqa: E402
    DurabilityConfig,
    DurableRecordStore,
    SimulatedCrashError,
)
from test_durable import SEEDS, SHARD_SECONDS, _random_ops, _workload_record  # noqa: E402

FSYNCS = ("never", "batch", "always")
CADENCES = (None, 1, 3)
BUDGETS = 10


def _run(directory, ops, config) -> int:
    """Apply ``ops`` until they end or the injected crash; the writes done."""
    store = DurableRecordStore(directory, shard_seconds=SHARD_SECONDS, config=config)
    try:
        for op, arg in ops:
            if op == "ingest":
                store.ingest_batch(arg)
            elif op == "evict":
                store.evict_before(arg)
            else:
                store.checkpoint()
    except SimulatedCrashError:
        pass
    store.close()
    return store._writes_done


def _records_digest(store: DurableRecordStore) -> str:
    digest = hashlib.sha256()
    for record in store.records_in_time_order():
        sample_set = record.sample_set
        digest.update(
            repr(
                (
                    record.object_id,
                    record.timestamp.hex(),
                    sample_set.ploc_ids,
                    [prob.hex() for prob in sample_set.probs],
                )
            ).encode("utf-8")
        )
    return digest.hexdigest()


def _state(store: DurableRecordStore) -> str:
    segments = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((store.directory / "wal").glob("segment-*.wal"))
    }
    return (
        f"records={len(store)} sha256={_records_digest(store)}\n"
        f"  versions={store.shard_versions()} watermark={store.eviction_watermark}\n"
        f"  report={store.recovery_report}\n"
        f"  next_seq={store.describe()['next_seq']} "
        f"last_committed_seq={store.last_committed_seq} "
        f"wal_base_seq={store.wal_base_seq}\n"
        f"  segments={segments}"
    )


def sweep(root: pathlib.Path) -> None:
    for seed in SEEDS:
        ops = _random_ops(random.Random(seed))
        tail = [_workload_record(random.Random(seed), 9, 123.0 + i) for i in range(3)]
        for fsync in FSYNCS:
            for cadence in CADENCES:
                dry = root / "dry"
                total = _run(dry, ops, DurabilityConfig(fsync, cadence))
                shutil.rmtree(dry)
                for step in range(BUDGETS):
                    budget = total * step // (BUDGETS - 1)
                    case = root / "case"
                    _run(case, ops, DurabilityConfig(fsync, cadence, budget))
                    config = DurabilityConfig(fsync, cadence)
                    print(f"seed={seed} fsync={fsync} cadence={cadence} budget={budget}/{total}")
                    with DurableRecordStore(case, config=config) as store:
                        print(f" recovered {_state(store)}")
                        store.ingest_batch(tail)
                        store.checkpoint()
                    with DurableRecordStore(case, config=config) as store:
                        print(f" again {_state(store)}")
                    shutil.rmtree(case)
                sys.stdout.flush()


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="crash-sweep-") as scratch:
        sweep(pathlib.Path(scratch))


if __name__ == "__main__":
    main()
