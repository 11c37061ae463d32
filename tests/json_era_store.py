"""A durable-store directory as a pre-5.0 build with ``codec="json"`` left it.

Test input, written by hand: ``src/`` still *reads* JSON record frames
(``repro.storage.wal._legacy_json_records``) but nothing in it writes them.
"""

import json

from repro.storage import ShardedRecordStore, encode_wal_frame


def json_payloads(records):
    columns = ((r, r.sample_set.ploc_ids, r.sample_set.probs) for r in records)
    return [[r.object_id, r.timestamp, [list(p) for p in zip(ids, probs)]] for r, ids, probs in columns]


def write_json_era_directory(path, shard_seconds, batches, snapshot_first=0, uid="durable-jsonera"):
    """``batches[:snapshot_first]`` as JSON snapshots, the rest as JSON segment frames + commits."""
    (path / "wal").mkdir(parents=True)
    (path / "snapshots").mkdir()
    manifest = {"format": 1, "uid": uid, "shard_seconds": shard_seconds, "index_kind": "1dr-tree"}
    (path / "MANIFEST.json").write_text(json.dumps(manifest))
    model, through = ShardedRecordStore(shard_seconds), {}
    control = encode_wal_frame({"kind": "base", "next_seq": snapshot_first + 1, "watermark": None})
    for seq, batch in enumerate(batches, start=1):
        ordered = sorted(batch, key=lambda record: record.timestamp)
        slices = model.slice_batch(ordered, [record.timestamp for record in ordered])
        if seq <= snapshot_first:
            model.ingest_batch(batch)
            through.update({key: seq for key, _records in slices})
            continue
        for key, records in slices:
            with open(path / "wal" / f"segment-{key}.wal", "ab") as handle:
                handle.write(encode_wal_frame({"seq": seq, "records": json_payloads(records)}))
        control += encode_wal_frame({"kind": "commit", "seq": seq})
    for key, version, records in model.shard_states():
        frame = {"shard": key, "version": version, "through": through[key]}
        frame["records"] = json_payloads(records)
        (path / "snapshots" / f"shard-{key}.snap").write_bytes(encode_wal_frame(frame))
    (path / "control.wal").write_bytes(control)
