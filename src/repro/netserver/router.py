"""Shared-nothing multi-worker tier: tenant-affine router + worker fleet.

Scale-out for the network control plane.  A :class:`WorkerFleet` runs N
independent worker processes, each a full :class:`~repro.netserver.server.
NetworkServer` over its own ``StackService`` (own DB shards, own
write-ahead journal under ``<journal_dir>/worker-<i>``).  In front, a
:class:`RouterServer` accepts client connections and forwards each
envelope to the worker chosen by :func:`worker_for_tenant` — the same
:func:`~repro.sim.rng.stable_name_key` hash the
``ShardedPerformanceDatabase`` routes writes with.  A tenant's sessions,
evaluations and journal records therefore all live on exactly one
worker: the workers share *nothing*, no cross-process coordination
exists, and crash recovery is per-worker
(``ShardedPerformanceDatabase.recover`` on that worker's journal dir).

Responses are forwarded verbatim (opaque frames) and interleave in
completion order: one client connection pipelining requests for tenants
on different workers observes genuinely out-of-order completion,
correlated by the ``request_id`` each envelope echoes.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.netserver.framing import (
    MAX_RESPONSE_BYTES,
    FrameBuffer,
    FrameTooLarge,
    encode_frame,
    frame_text,
)
from repro.netserver.server import (
    FramedListener,
    NetworkServer,
    ServerLimits,
    tenant_of_envelope,
)
from repro.service.envelopes import (
    Response,
    ServiceError,
    ServiceErrorCode,
    decode_wire_line,
)
from repro.service.service import StackService
from repro.sim.rng import stable_name_key

__all__ = ["worker_for_tenant", "RouterServer", "WorkerFleet", "worker_main"]


def worker_for_tenant(tenant: str, n_workers: int) -> int:
    """Session affinity by the DB's own shard hash (process-stable)."""
    return stable_name_key(str(tenant)) % int(n_workers)


class RouterServer(FramedListener):
    """Accepts client connections; forwards envelopes by tenant affinity."""

    kind = "router"

    def __init__(
        self,
        worker_addrs: Sequence[Tuple[str, int]],
        host: str = "127.0.0.1",
        port: int = 0,
        max_connections: int = 8192,
        drain_timeout: float = 30.0,
    ):
        if not worker_addrs:
            raise ValueError("router needs at least one worker address")
        super().__init__(host, port, max_connections)
        self.worker_addrs = [(str(h), int(p)) for h, p in worker_addrs]
        self.drain_timeout = float(drain_timeout)
        self.n_forwarded = 0

    def _connect(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> "_RoutedConnection":
        return _RoutedConnection(self, reader, writer)


class _RoutedConnection:
    """One client stream fanned across per-worker upstream connections.

    The reader groups each chunk's frames by target worker and forwards
    every group with a single write; one pump task per upstream copies
    complete response frames back (a write lock keeps frames from
    different workers from interleaving mid-frame).  ``_outstanding``
    counts forwarded-but-unanswered envelopes so EOF/drain can settle
    before teardown.
    """

    def __init__(
        self,
        router: RouterServer,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ):
        self.router = router
        self.reader = reader
        self.writer = writer
        self.done = asyncio.Event()
        self._upstreams: Dict[int, Tuple[asyncio.StreamWriter, asyncio.Task]] = {}
        self._outstanding = 0
        self._settled = asyncio.Event()
        self._write_lock = asyncio.Lock()
        self._read_task: Optional[asyncio.Task] = None

    def begin_drain(self) -> None:
        if self._read_task is not None:
            self._read_task.cancel()

    async def run(self) -> None:
        self._read_task = asyncio.create_task(self._read_loop())
        try:
            try:
                await self._read_task
            except asyncio.CancelledError:
                if not self._read_task.cancelled():
                    raise  # *we* were cancelled (teardown), not the reader
                # else: drain stopped the reader; settle what is in flight
            if self._outstanding > 0:
                try:
                    await asyncio.wait_for(
                        self._wait_settled(), timeout=self.router.drain_timeout
                    )
                except (TimeoutError, asyncio.TimeoutError):
                    pass  # a wedged worker must not hold teardown hostage
            for upstream_writer, _pump in self._upstreams.values():
                upstream_writer.close()
            for _upstream_writer, pump in self._upstreams.values():
                try:
                    await asyncio.wait_for(pump, timeout=5.0)
                except Exception:
                    pump.cancel()
        finally:
            if self._read_task is not None and not self._read_task.done():
                self._read_task.cancel()
            for _upstream_writer, pump in self._upstreams.values():
                if not pump.done():
                    pump.cancel()
            self.done.set()

    # -- client → workers --------------------------------------------------
    async def _read_loop(self) -> None:
        buffer = FrameBuffer()
        reader = self.reader
        n_workers = len(self.router.worker_addrs)
        while True:
            try:
                chunk = await reader.read(65536)
            except (ConnectionError, OSError):
                break
            if not chunk:
                break  # client EOF
            try:
                frames = buffer.feed(chunk)
            except FrameTooLarge as error:
                await self._fail_local(ServiceErrorCode.BAD_REQUEST, str(error))
                break  # hostile length header: the stream cannot resync
            if not frames:
                continue
            groups: Dict[int, List[bytes]] = {}
            for frame in frames:
                try:
                    payload = decode_wire_line(
                        frame.decode("utf-8", errors="replace")
                    )
                except ServiceError as error:
                    # Router answers malformed envelopes itself — no
                    # point burning a worker round trip.
                    await self._fail_local(error.code, error.message)
                    continue
                index = worker_for_tenant(tenant_of_envelope(payload), n_workers)
                groups.setdefault(index, []).append(frame)
            for index, group in groups.items():
                await self._forward(index, group)

    async def _forward(self, index: int, frames: List[bytes]) -> None:
        try:
            upstream = await self._upstream(index)
            data = b"".join(encode_frame(frame) for frame in frames)
            self._outstanding += len(frames)
            self._settled.clear()
            self.router.n_forwarded += len(frames)
            upstream.write(data)
            await upstream.drain()
        except (ConnectionError, OSError) as error:
            for _ in frames:
                await self._fail_local(
                    ServiceErrorCode.INTERNAL,
                    f"worker {index} unreachable: {type(error).__name__}: {error}",
                )

    async def _upstream(self, index: int) -> asyncio.StreamWriter:
        entry = self._upstreams.get(index)
        if entry is not None:
            return entry[0]
        host, port = self.router.worker_addrs[index]
        upstream_reader, upstream_writer = await asyncio.open_connection(host, port)
        pump = asyncio.create_task(self._pump(upstream_reader))
        self._upstreams[index] = (upstream_writer, pump)
        return upstream_writer

    # -- workers → client --------------------------------------------------
    async def _pump(self, upstream_reader: asyncio.StreamReader) -> None:
        buffer = FrameBuffer(max_bytes=MAX_RESPONSE_BYTES)
        writer = self.writer
        while True:
            try:
                chunk = await upstream_reader.read(65536)
            except (ConnectionError, OSError):
                break
            if not chunk:
                break
            try:
                frames = buffer.feed(chunk)
            except FrameTooLarge:
                break  # worker is speaking garbage; drop the upstream
            if not frames:
                continue
            data = b"".join(
                encode_frame(frame, MAX_RESPONSE_BYTES) for frame in frames
            )
            async with self._write_lock:
                try:
                    writer.write(data)
                    await writer.drain()
                except (ConnectionError, OSError):
                    pass  # client gone; keep consuming so the worker unblocks
            self._note_settled(len(frames))

    def _note_settled(self, n_frames: int) -> None:
        self._outstanding -= n_frames
        if self._outstanding <= 0:
            self._settled.set()

    async def _wait_settled(self) -> None:
        while self._outstanding > 0:
            self._settled.clear()
            await self._settled.wait()

    async def _fail_local(self, code: ServiceErrorCode, message: str) -> None:
        response = Response.failure(code, message)
        async with self._write_lock:
            try:
                self.writer.write(frame_text(response.to_json()))
                await self.writer.drain()
            except (ConnectionError, OSError):
                pass


# ---------------------------------------------------------------------------
# Worker fleet (multiprocessing)
# ---------------------------------------------------------------------------

async def _worker_serve(
    index: int,
    ready: Any,
    host: str,
    n_nodes: int,
    seed: int,
    n_shards: int,
    default_quota: Optional[int],
    journal_dir: Optional[str],
    limits: Optional[ServerLimits],
) -> None:
    service = StackService(
        n_nodes=n_nodes, seed=seed, n_shards=n_shards, default_quota=default_quota
    )
    worker_dir = (
        None if journal_dir is None else os.path.join(journal_dir, f"worker-{index}")
    )
    server = NetworkServer(
        service, host=host, port=0, limits=limits, journal_dir=worker_dir
    )

    def announce(bound_host: str, bound_port: int) -> None:
        ready.send(("ready", bound_host, bound_port))
        ready.close()

    await server.serve_until_signal(announce)


def worker_main(
    index: int,
    ready: Any,
    host: str,
    n_nodes: int,
    seed: int,
    n_shards: int,
    default_quota: Optional[int],
    journal_dir: Optional[str],
    limits: Optional[ServerLimits],
) -> None:
    """Process entry point of one fleet worker (spawn-safe, module level).

    Builds its own ``StackService`` (shared-nothing by construction —
    every worker gets the *same* seed, so a tenant's deterministic RNG
    derivation does not depend on which worker its sessions land on),
    serves until SIGTERM/SIGINT, then drains gracefully: in-flight
    requests finish, responses flush, and the journal is checkpointed.
    """
    asyncio.run(
        _worker_serve(
            index, ready, host, n_nodes, seed, n_shards, default_quota,
            journal_dir, limits,
        )
    )


class WorkerFleet:
    """N worker processes, started with spawn (fork-safety by decree)."""

    def __init__(
        self,
        n_workers: int,
        host: str = "127.0.0.1",
        n_nodes: int = 8,
        seed: int = 0,
        n_shards: int = 4,
        default_quota: Optional[int] = None,
        journal_dir: Optional[str] = None,
        limits: Optional[ServerLimits] = None,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = int(n_workers)
        self.host = host
        self.n_nodes = int(n_nodes)
        self.seed = int(seed)
        self.n_shards = int(n_shards)
        self.default_quota = default_quota
        self.journal_dir = journal_dir
        self.limits = limits
        self.addrs: List[Tuple[str, int]] = []
        self._procs: List[Any] = []

    def worker_journal_dir(self, index: int) -> Optional[str]:
        """Where worker ``index`` journals (recovery entry point)."""
        if self.journal_dir is None:
            return None
        return os.path.join(self.journal_dir, f"worker-{index}")

    def start(self, ready_timeout: float = 60.0) -> List[Tuple[str, int]]:
        """Spawn the workers; returns their (host, port) listen addresses."""
        context = multiprocessing.get_context("spawn")
        pipes = []
        for index in range(self.n_workers):
            parent, child = context.Pipe()
            # Daemonic: a crashed parent cannot leak workers (the journal
            # makes the abrupt kill recoverable); fleet.stop() still gets
            # the graceful SIGTERM drain.
            proc = context.Process(
                target=worker_main,
                args=(
                    index, child, self.host, self.n_nodes, self.seed,
                    self.n_shards, self.default_quota, self.journal_dir,
                    self.limits,
                ),
                daemon=True,
            )
            proc.start()
            child.close()
            self._procs.append(proc)
            pipes.append(parent)
        for index, parent in enumerate(pipes):
            if not parent.poll(ready_timeout):
                self.stop()
                raise RuntimeError(f"worker {index} did not report ready")
            try:
                message = parent.recv()
            except EOFError:
                self.stop()
                raise RuntimeError(f"worker {index} died during startup") from None
            parent.close()
            self.addrs.append((message[1], message[2]))
        return list(self.addrs)

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM every worker (graceful drain + checkpoint), then reap."""
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()  # SIGTERM: the worker drains on this
        for proc in self._procs:
            proc.join(timeout)
            if proc.is_alive():
                proc.kill()
                proc.join(5.0)
        self._procs = []

    def kill(self) -> None:
        """SIGKILL every worker — the crash the journal exists for."""
        for proc in self._procs:
            if proc.is_alive():
                proc.kill()
        for proc in self._procs:
            proc.join(10.0)
        self._procs = []

    def __enter__(self) -> "WorkerFleet":
        self.start()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.stop()
