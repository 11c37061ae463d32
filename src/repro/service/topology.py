"""Process entrypoint for replication topologies: primary, replica, router.

The replication benchmark (and the CI job behind it) runs a real
1-primary / N-replica / 1-router topology as **separate OS processes**, so
replica query work genuinely parallelises across cores instead of sharing
one GIL.  Each role is one invocation of this module:

.. code-block:: console

   python -m repro.service.topology primary --data-dir /tmp/t --port 0
   python -m repro.service.topology replica --primary 127.0.0.1:4100 --name r0
   python -m repro.service.topology router  --primary 127.0.0.1:4100 \\
       --replicas 127.0.0.1:4200,127.0.0.1:4201

Every role prints exactly one ``READY <host> <port>`` line on stdout once
it accepts connections (the launcher parses it to learn the ephemeral
port), then serves until killed.

The indoor model (graph and matrix) is static scenario input, not
replicated state, so each process rebuilds it deterministically from the
same building parameters (``--floors``, ``--seed``) — the floor plan
:func:`~repro.synth.scenario.build_synthetic_scenario` draws for them, with
no objects walked through it: a role is handed its records over the wire.
The rest of a topology is the constants below, not flags.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import List, Tuple

from ..engine.config import EngineConfig
from ..storage import DurabilityConfig, DurableRecordStore
from ..synth.building import BuildingConfig, GridBuildingGenerator
from ..system import IndoorFlowSystem
from .client import ReconnectPolicy
from .replica import ReadReplica
from .router import PartitionRouter
from .server import QueryService

SHARD_SECONDS = 60.0  # the primary's shard width
SNAPSHOT_EVERY = 64  # the primary checkpoints after this many batches
RECONNECT_RETRIES = 5  # re-dials of a lost peer (replica and router)
FRESHNESS_TIMEOUT = 5.0  # a routed read's wait for its replica to catch up


def _build_engine(args: argparse.Namespace) -> IndoorFlowSystem:
    building = GridBuildingGenerator(
        BuildingConfig(
            floors=args.floors,
            room_rows=1,
            rooms_per_row=3,
            presence_grid_step=6.0,
            seed=args.seed,
        )
    ).generate()
    config = None
    if args.presence_capacity is not None:
        config = EngineConfig(presence_store_capacity=args.presence_capacity)
    return IndoorFlowSystem(building.plan, config=config)


def _parse_address(text: str) -> Tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {text!r}"
        )
    return host, int(port)


def _parse_addresses(text: str) -> List[Tuple[str, int]]:
    return [_parse_address(part) for part in text.split(",") if part]


def _announce(host: str, port: int) -> None:
    print(f"READY {host} {port}", flush=True)


async def _run_primary(args: argparse.Namespace) -> None:
    iupt = DurableRecordStore(
        args.data_dir,
        shard_seconds=SHARD_SECONDS,
        config=DurabilityConfig(snapshot_every_batches=SNAPSHOT_EVERY),
    )
    service = QueryService(
        _build_engine(args),
        iupt,
        host=args.host,
        port=args.port,
        query_workers=args.query_workers,
    )
    host, port = await service.start()
    _announce(host, port)
    await service.serve_forever()


async def _run_replica(args: argparse.Namespace) -> None:
    replica = ReadReplica(
        _build_engine(args),
        *_parse_address(args.primary),
        name=args.name,
        host=args.host,
        port=args.port,
        reconnect=ReconnectPolicy(max_retries=RECONNECT_RETRIES),
        query_workers=args.query_workers,
    )
    host, port = await replica.start()
    _announce(host, port)
    await replica.service.serve_forever()


async def _run_router(args: argparse.Namespace) -> None:
    router = PartitionRouter(
        _parse_address(args.primary),
        _parse_addresses(args.replicas),
        host=args.host,
        port=args.port,
        freshness_timeout=FRESHNESS_TIMEOUT,
        reconnect=ReconnectPolicy(max_retries=RECONNECT_RETRIES),
    )
    host, port = await router.start()
    _announce(host, port)
    await asyncio.Event().wait()  # serve until killed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.topology",
        description="Run one replication-topology role (primary, replica, router).",
        epilog=f"Fixed: {SHARD_SECONDS:g} s shards, a checkpoint every "
        f"{SNAPSHOT_EVERY} batches, {RECONNECT_RETRIES} re-dials of a lost peer, "
        f"a {FRESHNESS_TIMEOUT:g} s freshness wait; a replica attaches with one "
        "wal_tail.",
    )
    sub = parser.add_subparsers(dest="role", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=0)
        p.add_argument("--query-workers", type=int, default=4)
        # Building parameters (must match across all roles of one topology).
        p.add_argument("--floors", type=int, default=2)
        p.add_argument("--seed", type=int, default=17)
        ignored = "accepted and ignored: a role builds the floor plan, not its objects"
        p.add_argument("--objects", type=int, default=10, help=ignored)
        p.add_argument("--duration", type=float, default=240.0, help=ignored)
        # Per-node presence-cache bound.  The replication benchmark pins this
        # identically on every role so the scale-out comparison is about node
        # count, not about handing the topology more total cache than the
        # single server gets.
        p.add_argument("--presence-capacity", type=int, default=None)

    primary = sub.add_parser("primary", help="durable primary query service")
    common(primary)
    primary.add_argument("--data-dir", required=True)

    replica = sub.add_parser("replica", help="WAL-shipping read replica")
    common(replica)
    replica.add_argument("--primary", required=True, help="HOST:PORT")
    replica.add_argument("--name", default="replica")

    router = sub.add_parser("router", help="partition-aware router front-end")
    common(router)
    router.add_argument("--primary", required=True, help="HOST:PORT")
    router.add_argument(
        "--replicas", default="", help="comma-separated HOST:PORT list"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    runner = {
        "primary": _run_primary,
        "replica": _run_replica,
        "router": _run_router,
    }[args.role]
    try:
        asyncio.run(runner(args))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
