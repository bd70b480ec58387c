"""Network clients for the framed-envelope transport.

Both are transports over :class:`~repro.service.client.ClientCore`, so
request ids, envelopes, error codes and the raising helpers are the
in-process :class:`~repro.service.client.ServiceClient`'s own, and one
:class:`~repro.service.client.SessionHandle` serves all three clients.

:class:`AsyncServiceClient` is the asyncio-native client: calls are
*pipelined* — many may be awaited concurrently over one connection, each
correlated by the ``request_id`` its envelope carries, so responses may
arrive in any order (and do, behind the multi-worker router).

:class:`NetworkServiceClient` is ``ServiceClient`` over a socket: its
one transport method hands each request to an ``AsyncServiceClient``
on an event loop parked on a background thread.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Dict, List, Optional

from repro.netserver.framing import MAX_RESPONSE_BYTES, frame_text, read_frame
from repro.service.client import ClientCore, ServiceClient, SessionHandle
from repro.service.envelopes import Request, Response

__all__ = ["AsyncServiceClient", "NetworkServiceClient"]


class AsyncServiceClient(ClientCore):
    """Pipelined framed-envelope client (construct inside a running loop)."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        super().__init__()
        self.reader = reader
        self.writer = writer
        self._pending: Dict[str, asyncio.Future] = {}
        #: Responses whose request id matched nothing we sent (transport
        #: level failures answer with request id "0") — kept for
        #: inspection instead of silently dropped.
        self.unmatched: List[Response] = []
        self._closed = False
        self._reader_task = asyncio.create_task(self._read_loop())

    @classmethod
    async def connect(cls, host: str, port: int) -> "AsyncServiceClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    # -- calls -------------------------------------------------------------
    async def send(self, request: Request) -> Response:
        """Send one envelope; resolves when *its* response arrives.

        Concurrent sends share the connection: ``asyncio.gather`` over
        many calls is the pipelined fast path.
        """
        if self._closed:
            raise ConnectionError("client is closed")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request.request_id] = future
        self.writer.write(frame_text(request.to_json()))
        await self.writer.drain()
        return await future

    async def call(
        self, op: str, session: Optional[str] = None, **args: Any
    ) -> Response:
        return await self.send(self.request(op, session, args))

    async def result(
        self, op: str, session: Optional[str] = None, **args: Any
    ) -> Any:
        """Like :meth:`call` but unwraps the result, raising on error."""
        return self.unwrap(await self.call(op, session=session, **args))

    async def open_session(
        self,
        tenant: str,
        role: str = "monitor",
        quota: Optional[int] = None,
        scope_hostnames: Optional[list] = None,
    ) -> SessionHandle:
        info = await self.result(
            "session.open", **self.session_args(tenant, role, quota, scope_hostnames)
        )
        return SessionHandle(self, info["session"], info)

    async def close(self) -> None:
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except Exception:
            pass
        self._fail_pending("client closed with calls in flight")

    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        await self.close()

    # -- response demultiplexing ------------------------------------------
    async def _read_loop(self) -> None:
        while True:
            try:
                frame = await read_frame(self.reader, max_bytes=MAX_RESPONSE_BYTES)
            except asyncio.CancelledError:
                raise
            except Exception as error:
                self._fail_pending(f"connection lost: {type(error).__name__}: {error}")
                return
            if frame is None:
                self._fail_pending("server closed the connection")
                return
            try:
                response = Response.from_json(frame.decode("utf-8"))
            except Exception:
                self._fail_pending("server sent an undecodable frame")
                return
            future = self._pending.pop(response.request_id, None)
            if future is not None and not future.done():
                future.set_result(response)
            else:
                self.unmatched.append(response)

    def _fail_pending(self, reason: str) -> None:
        self._closed = True
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(ConnectionError(reason))


class NetworkServiceClient(ServiceClient):
    """``ServiceClient`` over a socket.

    Runs a private event loop on a daemon thread; each call is a blocking
    ``run_coroutine_threadsafe`` round trip through an
    :class:`AsyncServiceClient`.  Code written against ``ServiceClient``
    ports by swapping the constructor.
    """

    def __init__(self, host: str, port: int, connect_timeout: float = 30.0):
        ClientCore.__init__(self)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="netserver-client", daemon=True
        )
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(
            AsyncServiceClient.connect(host, port), self._loop
        )
        try:
            self._client = future.result(connect_timeout)
        except BaseException:
            future.cancel()
            self._stop_loop()
            raise

    def _send(self, request: Request) -> Response:
        return asyncio.run_coroutine_threadsafe(
            self._client.send(request), self._loop
        ).result()

    def close(self) -> None:
        try:
            asyncio.run_coroutine_threadsafe(
                self._client.close(), self._loop
            ).result(10.0)
        finally:
            self._stop_loop()

    def _stop_loop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(10.0)
        self._loop.close()

    def __enter__(self) -> "NetworkServiceClient":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()
