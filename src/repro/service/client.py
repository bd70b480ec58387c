"""Clients for :class:`~repro.service.service.StackService`.

:class:`ClientCore` is the sans-IO half every client shares: request ids,
envelopes, result unwrapping and the ``session.open`` arguments.

:class:`ServiceClient` always talks *wire*: every call serialises its
request envelope to JSON, hands the JSON line to the service, and parses
the JSON line that comes back.  There is no in-process fast path — so
any command that works here works identically through a socket/HTTP
front-end, and a test driving the client has exercised the full
dict → wire → dict round trip by construction.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Mapping, Optional

from repro.service.envelopes import Request, Response
from repro.service.service import StackService

__all__ = ["ClientCore", "ServiceClient", "SessionHandle", "ServiceCallError"]


class ServiceCallError(RuntimeError):
    """Raised by the raising helpers when a command answers with an error."""

    def __init__(self, response: Response):
        error = response.error or {}
        super().__init__(f"{error.get('code')}: {error.get('message')}")
        self.response = response
        self.code = error.get("code")


class ClientCore:
    """The protocol side of a client, with no IO: ids, envelopes, results."""

    def __init__(self) -> None:
        self._request_ids = itertools.count(1)

    def request(self, op: str, session: Optional[str], args: Dict[str, Any]) -> Request:
        """The next request envelope, numbered ``r1``, ``r2``, …"""
        return Request(
            op=op,
            args=args,
            session=session,
            request_id=f"r{next(self._request_ids)}",
        )

    @staticmethod
    def unwrap(response: Response) -> Any:
        """The result of ``response``; raises :class:`ServiceCallError` on error."""
        if not response.ok:
            raise ServiceCallError(response)
        return response.result

    @staticmethod
    def session_args(
        tenant: str,
        role: str = "monitor",
        quota: Optional[int] = None,
        scope_hostnames: Optional[list] = None,
    ) -> Dict[str, Any]:
        """The ``session.open`` arguments; unset options are left out."""
        args: Dict[str, Any] = {"tenant": tenant, "role": role}
        if quota is not None:
            args["quota"] = quota
        if scope_hostnames is not None:
            args["scope_hostnames"] = scope_hostnames
        return args


class ServiceClient(ClientCore):
    """Talks JSON lines to a service instance (or any compatible callable)."""

    def __init__(self, service: StackService):
        super().__init__()
        self.service = service

    def _send(self, request: Request) -> Response:
        """The transport: one request envelope out, one response envelope in."""
        return Response.from_json(self.service.handle_wire(request.to_json()))

    def call(self, op: str, session: Optional[str] = None, **args: Any) -> Response:
        """Send one command; returns the parsed :class:`Response`."""
        return self._send(self.request(op, session, args))

    def result(self, op: str, session: Optional[str] = None, **args: Any) -> Any:
        """Like :meth:`call` but unwraps the result, raising on error."""
        return self.unwrap(self.call(op, session=session, **args))

    def open_session(
        self,
        tenant: str,
        role: str = "monitor",
        quota: Optional[int] = None,
        scope_hostnames: Optional[list] = None,
    ) -> "SessionHandle":
        args = self.session_args(tenant, role, quota, scope_hostnames)
        info = self.result("session.open", **args)
        return SessionHandle(self, info["session"], info)


class SessionHandle:
    """One open session: every call carries the session id automatically.

    Serves every client.  ``call``/``result``/``close`` return whatever
    the client returns — an awaitable for the asyncio client, so it is
    both a context manager and an async context manager.
    """

    def __init__(self, client: Any, session_id: str, info: Mapping[str, Any]):
        self.client = client
        self.session_id = session_id
        self.info = dict(info)

    def call(self, op: str, **args: Any) -> Any:
        return self.client.call(op, session=self.session_id, **args)

    def result(self, op: str, **args: Any) -> Any:
        return self.client.result(op, session=self.session_id, **args)

    def close(self) -> Any:
        return self.result("session.close")

    # Closing an already-closed session is a NO_SESSION error — fine to
    # ignore on context exit.
    def __enter__(self) -> "SessionHandle":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.call("session.close")

    async def __aenter__(self) -> "SessionHandle":
        return self

    async def __aexit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        await self.call("session.close")
