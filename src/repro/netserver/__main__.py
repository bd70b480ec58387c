"""``python -m repro.netserver`` — the network control-plane server.

Single-process (``--workers 0``, default) serves one ``StackService``
directly; ``--workers N`` starts a shared-nothing fleet of N worker
processes behind a tenant-affine router.  Either way the process prints
one ``READY <host> <port> ...`` line once it is accepting connections
(smoke scripts key off it) and drains gracefully on SIGTERM/SIGINT:
in-flight requests finish, responses flush, and — with ``--journal-dir``
— every worker checkpoints its write-ahead journal on the way out::

    python -m repro.netserver --port 7781 --workers 4 --journal-dir /tmp/cpj
"""

from __future__ import annotations

import argparse
import asyncio
from typing import Optional, Sequence

from repro.netserver.router import RouterServer, WorkerFleet
from repro.netserver.server import NetworkServer
from repro.service.envelopes import PROTOCOL_VERSION
from repro.service.service import StackService

__all__ = ["main"]


async def _serve_single(args: argparse.Namespace) -> int:
    service = StackService(
        n_nodes=args.nodes,
        seed=args.seed,
        n_shards=args.shards,
        default_quota=args.quota,
    )
    server = NetworkServer(
        service, host=args.host, port=args.port, journal_dir=args.journal_dir
    )

    def announce(host: str, port: int) -> None:
        print(f"READY {host} {port} workers=0 protocol={PROTOCOL_VERSION}", flush=True)

    await server.serve_until_signal(announce)
    print(
        f"DRAINED connections={server.n_connections} requests={server.n_requests}",
        flush=True,
    )
    return 0


async def _serve_fleet(args: argparse.Namespace) -> int:
    fleet = WorkerFleet(
        args.workers,
        n_nodes=args.nodes,
        seed=args.seed,
        n_shards=args.shards,
        default_quota=args.quota,
        journal_dir=args.journal_dir,
    )
    loop = asyncio.get_running_loop()
    addrs = await loop.run_in_executor(None, fleet.start)
    router = RouterServer(addrs, host=args.host, port=args.port)
    worker_ports = ",".join(str(p) for _, p in addrs)

    def announce(host: str, port: int) -> None:
        print(
            f"READY {host} {port} workers={args.workers} "
            f"worker_ports={worker_ports} protocol={PROTOCOL_VERSION}",
            flush=True,
        )

    await router.serve_until_signal(announce)
    await loop.run_in_executor(None, fleet.stop)
    print(
        f"DRAINED connections={router.n_connections} "
        f"forwarded={router.n_forwarded}",
        flush=True,
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.netserver",
        description="Framed-envelope TCP server for the control-plane service.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=0, help="bind port (0 = ephemeral)")
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes behind a tenant-affine router (0 = in-process)",
    )
    parser.add_argument("--nodes", type=int, default=8, help="cluster size")
    parser.add_argument("--seed", type=int, default=0, help="service RNG seed")
    parser.add_argument("--shards", type=int, default=4, help="performance DB shards")
    parser.add_argument(
        "--quota", type=int, default=None, help="default per-session evaluation quota"
    )
    parser.add_argument(
        "--journal-dir",
        default=None,
        help="write-ahead journal root (per-worker subdirs under a fleet)",
    )
    args = parser.parse_args(argv)
    if args.workers > 0:
        return asyncio.run(_serve_fleet(args))
    return asyncio.run(_serve_single(args))


if __name__ == "__main__":
    raise SystemExit(main())
