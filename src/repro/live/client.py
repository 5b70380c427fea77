"""The client side of the live cluster's wire protocol.

A client talks to any site (the *gateway*) in request/reply frames —
the same protocol ``repro txn`` speaks from the command line and the
cluster harness speaks when orchestrating scenarios:

* ``begin`` — start a transaction at the gateway and (by default) wait
  for the gateway's own decision;
* ``status`` — ask one site for its local view of a transaction
  (state, outcome, blocked flag, boot count);
* ``metrics`` — ask one site for its metrics snapshot as of now (what
  ``site-N.metrics.json`` holds a possibly older copy of);
* ``shutdown`` — ask a site process to exit gracefully.

The one-shot helpers (:func:`request`, :func:`begin_txn`, …) open a
fresh connection per request.  :class:`ClientSession` keeps one
connection open across many requests — the closed-loop benchmark
workers use it so TCP setup is not on the per-transaction path.
"""

from __future__ import annotations

import asyncio
from typing import Any, Optional

from repro.errors import LiveTimeoutError, TransportError
from repro.live.transport import set_nodelay
from repro.live.wire import encode_frame, read_frame


async def request(
    host: str,
    port: int,
    frame: dict[str, Any],
    timeout: float = 10.0,
) -> dict[str, Any]:
    """Send one frame and await one reply on a fresh connection.

    Raises:
        TransportError: If the site is unreachable or closes early.
        LiveTimeoutError: If no reply arrives within ``timeout``.
    """
    try:
        reader, writer = await asyncio.open_connection(host, port)
    except OSError as error:
        raise TransportError(f"cannot reach site at {host}:{port}: {error}") from error
    set_nodelay(writer)
    try:
        writer.write(encode_frame(frame))
        await writer.drain()
        try:
            reply = await asyncio.wait_for(read_frame(reader), timeout)
        except asyncio.TimeoutError:
            raise LiveTimeoutError(
                f"no reply from {host}:{port} within {timeout:g}s "
                f"(request {frame.get('t')!r})"
            ) from None
        if reply is None:
            raise TransportError(f"{host}:{port} closed the connection early")
        if reply.get("t") == "error":
            raise TransportError(f"{host}:{port}: {reply.get('error')}")
        return reply
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass


class ClientSession:
    """One persistent connection to a site, serving sequential requests.

    One request is in flight per session at a time (the server replies
    in order); run many sessions for client-side concurrency.  Usable
    as an async context manager.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def __aenter__(self) -> "ClientSession":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    async def connect(self) -> None:
        try:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
            set_nodelay(self._writer)
        except OSError as error:
            raise TransportError(
                f"cannot reach site at {self.host}:{self.port}: {error}"
            ) from error

    async def close(self) -> None:
        if self._writer is None:
            return
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass
        self._reader = self._writer = None

    async def request(
        self, frame: dict[str, Any], timeout: float = 10.0
    ) -> dict[str, Any]:
        """Send one frame on the open connection and await one reply."""
        if self._reader is None or self._writer is None:
            raise TransportError("session is not connected")
        self._writer.write(encode_frame(frame))
        await self._writer.drain()
        try:
            # asyncio.timeout over wait_for: no wrapper Task per request
            # (a measurable cost for the closed-loop benchmark workers).
            async with asyncio.timeout(timeout):
                reply = await read_frame(self._reader)
        except TimeoutError:
            raise LiveTimeoutError(
                f"no reply from {self.host}:{self.port} within {timeout:g}s "
                f"(request {frame.get('t')!r})"
            ) from None
        if reply is None:
            raise TransportError(
                f"{self.host}:{self.port} closed the connection early"
            )
        if reply.get("t") == "error":
            raise TransportError(f"{self.host}:{self.port}: {reply.get('error')}")
        return reply

    async def begin_txn(
        self, txn_id: int, wait: bool = True, timeout: float = 10.0
    ) -> dict[str, Any]:
        """Start a transaction at the gateway (see :func:`begin_txn`)."""
        return await self.request(
            {"t": "begin", "txn": txn_id, "wait": wait}, timeout=timeout
        )


async def begin_txn(
    host: str,
    port: int,
    txn_id: int,
    wait: bool = True,
    timeout: float = 10.0,
) -> dict[str, Any]:
    """Start a transaction at the gateway site.

    With ``wait`` (default) the reply is the gateway's ``decided``
    frame (outcome, via, elapsed_ms); otherwise an immediate ``ok``.
    """
    return await request(
        host, port, {"t": "begin", "txn": txn_id, "wait": wait}, timeout=timeout
    )


async def query_status(
    host: str, port: int, txn_id: int, timeout: float = 5.0
) -> dict[str, Any]:
    """One site's local view of a transaction."""
    return await request(host, port, {"t": "status", "txn": txn_id}, timeout=timeout)


async def query_metrics(
    host: str, port: int, timeout: float = 5.0
) -> dict[str, Any]:
    """One site's metrics snapshot, built when the request arrives.

    A site that predates the request answers ``error``, which
    :func:`request` raises as :class:`TransportError`.
    """
    reply = await request(host, port, {"t": "metrics"}, timeout=timeout)
    return reply["snapshot"]


async def shutdown_site(host: str, port: int, timeout: float = 5.0) -> None:
    """Ask a site process to exit gracefully."""
    await request(host, port, {"t": "shutdown"}, timeout=timeout)


async def try_status(
    host: str, port: int, txn_id: int, timeout: float = 2.0
) -> Optional[dict[str, Any]]:
    """Like :func:`query_status` but ``None`` when the site is down."""
    try:
        return await query_status(host, port, txn_id, timeout=timeout)
    except (TransportError, LiveTimeoutError):
        return None


async def try_metrics(
    host: str, port: int, timeout: float = 2.0
) -> Optional[dict[str, Any]]:
    """Like :func:`query_metrics` but ``None`` when the site cannot answer.

    That is a site that is down, stalled past ``timeout`` (connect
    included), or too old to know the request.
    """
    try:
        return await asyncio.wait_for(query_metrics(host, port, timeout), timeout)
    except (TransportError, LiveTimeoutError, asyncio.TimeoutError):
        return None
