"""``tlp-aserve`` — the asyncio multi-client check server.

The legacy ``tlp-serve`` daemon is one blocking request loop on stdin;
this server puts the same :class:`~repro.service.daemon.CheckService`
brain behind concurrent transports:

* **many clients** over TCP and unix sockets, each speaking the familiar
  line-JSON protocol, with per-request ``"id"`` echo so responses are
  addressable;
* **true request-level concurrency** — every client gets a bounded
  queue (backpressure: a flooding client suspends its own socket reads,
  never other clients) and a worker coroutine; the CPU-bound checks run
  on a shared thread-pool executor while the event loop keeps serving
  everyone else;
* **cancellation** — a ``{"op": "cancel", "target": <id>}`` is handled
  *out of band* by the reader (it never queues behind the work it is
  cancelling) and flips the target request's
  :class:`~repro.checker.cancel.CancelToken`; an in-flight check stops
  at its next clause-boundary checkpoint and the worker is freed;
* **workspace ops** — ``workspace`` opens a corpus, ``didChange``
  re-checks exactly the dependency closure of what changed (see
  :mod:`repro.service.aserver.workspace`), ``closure`` predicts it;
* **graceful drain** — ``{"op": "shutdown"}`` (or SIGTERM/SIGINT) stops
  accepting, finishes every queued and in-flight request, writes the
  responses, persists the cache, and closes trace sinks.

Protocol additions over the legacy daemon::

    {"id": 1, "op": "check", "path": "m.tlp"}     → response echoes "id": 1
    {"id": 2, "op": "cancel", "target": 1}        → cancels request 1
    {"id": 3, "op": "workspace", "root": "corpus"}
    {"id": 4, "op": "didChange", "path": "corpus/m.tlp"}
    {"id": 5, "op": "closure", "path": "corpus/decls.tlp"}
    {"op": "shutdown"}                            → drain + exit

Everything else (``check``/``lint``/``infer``/``stats``/``metrics``/
``health``/``invalidate``) behaves exactly as documented in
:mod:`repro.service.daemon` — same brain, same verdicts, same caches.

Telemetry: with ``--stats`` every request lands in the
``service.aserver.request`` latency histogram and a per-client
``service.aserver.client.c<N>.request`` histogram, with
``service.aserver.requests`` / ``.op.<op>`` / ``.cancelled`` counters
and ``aserver.clients`` / ``aserver.inflight`` gauges on the Prometheus
exposition.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ... import obs
from ...checker.cancel import CancelToken
from ...obs import METRICS
from ..daemon import CheckService, start_metrics_server
from .protocol import decode_line, encode_line
from .workspace import StatWatcher, Workspace

__all__ = ["AsyncCheckServer", "DEFAULT_MAX_QUEUE", "main"]

#: Requests a single client may have queued before its socket reads are
#: suspended (the backpressure bound).
DEFAULT_MAX_QUEUE = 16

#: Per-connection stream buffer limit.  A whole request line must fit
#: (inline ``text`` payloads included), so this is far above asyncio's
#: 64 KiB default.
STREAM_LIMIT = 16 * 1024 * 1024

#: Ops the server answers itself (workspace layer, augmented telemetry)
#: rather than delegating verbatim to the wrapped CheckService.
_LOCAL_OPS = {"workspace", "didChange", "closure", "metrics", "stats", "health"}


class _Client:
    """One connection: reader task, bounded queue, worker task."""

    def __init__(
        self,
        server: "AsyncCheckServer",
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        index: int,
    ) -> None:
        self.server = server
        self.reader = reader
        self.writer = writer
        self.index = index
        self.queue: "asyncio.Queue[Tuple[Dict[str, Any], CancelToken]]" = (
            asyncio.Queue(maxsize=server.max_queue)
        )
        #: request id → token, registered at *enqueue* time so a cancel
        #: can hit a request that has not started yet.
        self.inflight: Dict[Any, CancelToken] = {}
        self._send_lock = asyncio.Lock()
        self.handler_task: Optional["asyncio.Task[None]"] = None
        self.reader_task: Optional["asyncio.Task[None]"] = None
        self.worker_task: Optional["asyncio.Task[None]"] = None
        self.finished = False

    async def send(self, response: Dict[str, Any]) -> None:
        async with self._send_lock:
            self.writer.write(encode_line(response))
            await self.writer.drain()

    # -- reading -------------------------------------------------------------

    async def read_loop(self) -> None:
        while True:
            try:
                line = await self.reader.readline()
            except ValueError:
                # A request line beyond STREAM_LIMIT: unrecoverable on a
                # line protocol (we lost framing) — report and hang up.
                with contextlib.suppress(ConnectionError, OSError):
                    await self.send(
                        {"ok": False, "op": None, "error": "request line too long"}
                    )
                return
            if not line:
                return  # EOF: client went away
            line = line.strip()
            if not line:
                continue
            try:
                request = decode_line(line)
            except json.JSONDecodeError as error:
                await self.send(
                    {"ok": False, "op": None, "error": f"malformed JSON: {error}"}
                )
                continue
            if not isinstance(request, dict):
                await self.send(
                    {"ok": False, "op": None, "error": "request must be a JSON object"}
                )
                continue
            if request.get("op") == "cancel":
                # Out of band: must never queue behind the request it
                # is cancelling.
                await self._op_cancel(request)
                continue
            token = CancelToken()
            request_id = request.get("id")
            if request_id is not None:
                self.inflight[request_id] = token
            # Bounded: a client flooding its queue suspends ITS reads
            # here (TCP backpressure) without touching other clients.
            await self.queue.put((request, token))

    async def _op_cancel(self, request: Dict[str, Any]) -> None:
        target = request.get("target")
        token = self.inflight.get(target)
        if token is not None:
            token.cancel()
            if METRICS.enabled:
                METRICS.inc("service.aserver.cancel_requests")
        response: Dict[str, Any] = {
            "ok": True,
            "op": "cancel",
            "target": target,
            "found": token is not None,
        }
        if request.get("id") is not None:
            response["id"] = request["id"]
        await self.send(response)

    # -- working -------------------------------------------------------------

    async def work(self) -> None:
        while True:
            request, token = await self.queue.get()
            try:
                await self._process(request, token)
            except asyncio.CancelledError:
                raise
            except Exception as error:  # a bug must not kill the worker
                with contextlib.suppress(Exception):
                    await self.send(
                        {
                            "ok": False,
                            "op": request.get("op"),
                            "id": request.get("id"),
                            "error": f"internal error: {error}",
                        }
                    )
            finally:
                self.queue.task_done()

    async def _process(self, request: Dict[str, Any], token: CancelToken) -> None:
        op = request.get("op")
        request_id = request.get("id")
        if op == "shutdown":
            response: Dict[str, Any] = {"ok": True, "op": "shutdown", "bye": True}
            if request_id is not None:
                response["id"] = request_id
            self.inflight.pop(request_id, None)
            await self.send(response)
            self.server.request_shutdown()
            return
        with obs.span("service.aserver.request") as region:
            if token.cancelled:
                response = {
                    "ok": False,
                    "op": op,
                    "cancelled": True,
                    "error": "request cancelled before it started",
                }
            else:
                loop = asyncio.get_running_loop()
                if op in _LOCAL_OPS:
                    response = await loop.run_in_executor(
                        self.server.executor, self.server.handle_local, request
                    )
                else:
                    response = await loop.run_in_executor(
                        self.server.executor,
                        self.server.service.handle,
                        request,
                        token,
                    )
            if request_id is not None:
                response.setdefault("id", request_id)
                self.inflight.pop(request_id, None)
        self.server.observe_request(op, region.duration, self, response)
        with contextlib.suppress(ConnectionError, OSError):
            await self.send(response)

    # -- teardown ------------------------------------------------------------

    async def finish(self, draining: bool) -> None:
        """Tear the connection down; with ``draining`` the queued and
        in-flight requests complete (and their responses flush) first."""
        if self.finished:
            return
        self.finished = True
        if self.reader_task is not None:
            self.reader_task.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await self.reader_task
        if draining:
            await self.queue.join()
        else:
            for token in list(self.inflight.values()):
                token.cancel()  # free executor threads promptly
        if self.worker_task is not None:
            self.worker_task.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await self.worker_task
        with contextlib.suppress(ConnectionError, OSError):
            self.writer.close()
            await self.writer.wait_closed()
        self.server._clients.discard(self)


class AsyncCheckServer:
    """The asyncio front door around one :class:`CheckService`."""

    def __init__(
        self,
        service: Optional[CheckService] = None,
        cache_dir: Optional[str] = None,
        max_queue: int = DEFAULT_MAX_QUEUE,
        workers: Optional[int] = None,
    ) -> None:
        self.service = service or CheckService(cache_dir=cache_dir)
        self.cache_dir = cache_dir
        self.max_queue = max(1, max_queue)
        self.executor = ThreadPoolExecutor(
            max_workers=workers or min(32, (os.cpu_count() or 4) + 4),
            thread_name_prefix="tlp-aserve",
        )
        self.workspace: Optional[Workspace] = None
        self.watcher: Optional[StatWatcher] = None
        self._watcher_task: Optional["asyncio.Task[None]"] = None
        self._servers: List[asyncio.AbstractServer] = []
        self._clients: Set[_Client] = set()
        self._client_counter = 0
        self._draining = False
        self._closed: Optional[asyncio.Event] = None
        self.started_at = time.time()

    # -- transports ----------------------------------------------------------

    def _ensure_event(self) -> asyncio.Event:
        # Created lazily inside the running loop (3.9 compatibility).
        if self._closed is None:
            self._closed = asyncio.Event()
        return self._closed

    async def start_tcp(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        """Listen on TCP; returns the bound (host, port) — port 0 binds
        an ephemeral port (tests, CI)."""
        self._ensure_event()
        server = await asyncio.start_server(
            self._handle_client, host, port, limit=STREAM_LIMIT
        )
        self._servers.append(server)
        bound = server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def start_unix(self, path: str) -> str:
        self._ensure_event()
        server = await asyncio.start_unix_server(
            self._handle_client, path, limit=STREAM_LIMIT
        )
        self._servers.append(server)
        return path

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._draining:
            writer.close()
            return
        self._client_counter += 1
        client = _Client(self, reader, writer, self._client_counter)
        self._clients.add(client)
        if METRICS.enabled:
            METRICS.gauge("aserver.clients", len(self._clients))
            METRICS.inc("service.aserver.connections")
        client.handler_task = asyncio.current_task()
        client.reader_task = asyncio.create_task(client.read_loop())
        client.worker_task = asyncio.create_task(client.work())
        try:
            # The handler lives until the client hangs up (reader done)
            # or the worker dies; drain cancels the reader task.
            await asyncio.wait(
                {client.reader_task, client.worker_task},
                return_when=asyncio.FIRST_COMPLETED,
            )
        finally:
            await client.finish(draining=self._draining)
            if METRICS.enabled:
                METRICS.gauge("aserver.clients", len(self._clients))

    # -- workspace & augmented ops (run on executor threads) -----------------

    def open_workspace(
        self,
        paths: Sequence[str],
        manifest: Optional[str] = None,
        jobs: int = 1,
    ) -> Workspace:
        """Mount a corpus; its verdict cache lives beside the server's
        (``<cache-dir>/workspace``) or in a private temp directory."""
        workspace_cache = (
            str(Path(self.cache_dir) / "workspace") if self.cache_dir else None
        )
        workspace = Workspace(
            paths, manifest=manifest, cache_dir=workspace_cache, jobs=jobs
        )
        previous, self.workspace = self.workspace, workspace
        if previous is not None:
            previous.close()
        return workspace

    def handle_local(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """The aserver-specific ops + telemetry-augmented passthroughs."""
        op = request.get("op")
        try:
            if op == "workspace":
                return self._op_workspace(request)
            if op == "didChange":
                return self._op_did_change(request)
            if op == "closure":
                return self._op_closure(request)
            if op == "metrics":
                body = obs.prometheus_text(
                    extra_gauges={
                        **self.service._runtime_gauges(),
                        **self._runtime_gauges(),
                    }
                )
                return {
                    "ok": True,
                    "op": "metrics",
                    "content_type": obs.PROMETHEUS_CONTENT_TYPE,
                    "body": body,
                }
            response = self.service.handle(request)
            if op in ("stats", "health") and response.get("ok"):
                response["aserver"] = self.stats()
            return response
        except Exception as error:  # never kill a worker
            return {"ok": False, "op": op, "error": f"internal error: {error}"}

    def _op_workspace(self, request: Dict[str, Any]) -> Dict[str, Any]:
        root = request.get("root")
        if not isinstance(root, str):
            return {"ok": False, "op": "workspace", "error": "workspace needs 'root'"}
        manifest = request.get("manifest")
        workspace = self.open_workspace(
            [root], manifest=manifest if isinstance(manifest, str) else None
        )
        report = workspace.check_all()
        return {
            "ok": True,
            "op": "workspace",
            "root": root,
            "files": len(workspace.project.files),
            "shared": [entry.display for entry in workspace.project.shared],
            "well_typed": report.ok,
            "cache_hits": report.cache_hits,
            "cache_misses": report.cache_misses,
            "wall_s": report.wall_s,
        }

    def _op_did_change(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if self.workspace is None:
            return {
                "ok": False,
                "op": "didChange",
                "error": "no workspace: send {'op': 'workspace', 'root': ...} first",
            }
        raw = request.get("paths", request.get("path"))
        paths: Optional[List[str]]
        if raw is None:
            paths = None
        elif isinstance(raw, str):
            paths = [raw]
        elif isinstance(raw, list) and all(isinstance(p, str) for p in raw):
            paths = raw
        else:
            return {"ok": False, "op": "didChange", "error": "bad 'path'/'paths'"}
        report = self.workspace.on_change(paths)
        verdicts = {
            display: {
                "well_typed": result.ok,
                "diagnostics": list(result.diagnostics),
            }
            for display, result in self.workspace.results.items()
            if display in set(report.closure)
        }
        response = {"ok": True, "op": "didChange", "results": verdicts}
        response.update(report.to_json())
        return response

    def _op_closure(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if self.workspace is None:
            return {"ok": False, "op": "closure", "error": "no workspace"}
        path = request.get("path")
        if not isinstance(path, str):
            return {"ok": False, "op": "closure", "error": "closure needs 'path'"}
        return {
            "ok": True,
            "op": "closure",
            "path": path,
            "closure": self.workspace.closure_of(path),
        }

    # -- observability -------------------------------------------------------

    def observe_request(
        self,
        op: Any,
        duration: float,
        client: _Client,
        response: Dict[str, Any],
    ) -> None:
        """Count one answered request; ``duration`` is its span's length,
        already observed as ``service.aserver.request`` and mirrored here
        into the requesting client's own timer."""
        if not METRICS.enabled:
            return
        METRICS.inc("service.aserver.requests")
        METRICS.inc(f"service.aserver.op.{op}")
        METRICS.observe(
            f"service.aserver.client.c{client.index}.request", duration
        )
        if response.get("cancelled"):
            METRICS.inc("service.aserver.cancelled")

    def _runtime_gauges(self) -> Dict[str, float]:
        return {
            "aserver.clients": float(len(self._clients)),
            "aserver.queue_depth": float(
                sum(client.queue.qsize() for client in self._clients)
            ),
            "aserver.inflight": float(
                sum(len(client.inflight) for client in self._clients)
            ),
            "aserver.draining": 1.0 if self._draining else 0.0,
            "aserver.uptime_seconds": time.time() - self.started_at,
        }

    def stats(self) -> Dict[str, Any]:
        return {
            "clients": len(self._clients),
            "queue_depth": sum(c.queue.qsize() for c in self._clients),
            "inflight": sum(len(c.inflight) for c in self._clients),
            "max_queue": self.max_queue,
            "draining": self._draining,
            "workspace_files": (
                len(self.workspace.project.files) if self.workspace else 0
            ),
            "cancellations": self.service.cancellations,
        }

    # -- watching ------------------------------------------------------------

    def start_watcher(self, interval_s: float = 0.5) -> StatWatcher:
        """Poll the mounted workspace for on-disk changes (async task)."""
        if self.workspace is None:
            raise RuntimeError("start_watcher needs an open workspace")
        self.watcher = StatWatcher(self.workspace, interval_s=interval_s)
        self._watcher_task = asyncio.get_event_loop().create_task(
            self.watcher.run()
        )
        return self.watcher

    # -- shutdown ------------------------------------------------------------

    def request_shutdown(self) -> None:
        """Schedule a graceful drain from inside the loop (shutdown op)."""
        asyncio.get_event_loop().create_task(self.shutdown())

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting, drain every client, persist state, close."""
        closed = self._ensure_event()
        if self._draining:
            await closed.wait()
            return
        self._draining = True
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        if self._watcher_task is not None:
            self._watcher_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._watcher_task
        for client in list(self._clients):
            await client.finish(draining=drain)
        handler_tasks = [
            client.handler_task
            for client in list(self._clients)
            if client.handler_task is not None
        ]
        if handler_tasks:
            await asyncio.gather(*handler_tasks, return_exceptions=True)
        self.executor.shutdown(wait=True)
        if self.workspace is not None:
            self.workspace.close()
        self.service.close()
        closed.set()

    async def wait_closed(self) -> None:
        await self._ensure_event().wait()


# -- CLI ---------------------------------------------------------------------


async def _amain(arguments: argparse.Namespace) -> int:
    server = AsyncCheckServer(
        cache_dir=arguments.cache_dir,
        max_queue=arguments.max_queue,
        workers=arguments.workers,
    )
    endpoints: List[str] = []
    if arguments.unix:
        await server.start_unix(arguments.unix)
        endpoints.append(f"unix={arguments.unix}")
    if arguments.port is not None or not arguments.unix:
        host, port = await server.start_tcp(
            arguments.host, arguments.port if arguments.port is not None else 0
        )
        endpoints.append(f"tcp={host}:{port}")
    if arguments.watch:
        server.open_workspace([arguments.watch])
        report = server.workspace.check_all()  # type: ignore[union-attr]
        endpoints.append(
            f"watch={arguments.watch} ({len(report.results)} files)"
        )
        server.start_watcher(arguments.poll_interval)
    metrics_server = None
    if arguments.metrics_port is not None:
        metrics_server = start_metrics_server(
            server.service, arguments.metrics_port
        )
        endpoints.append(
            f"metrics=http://127.0.0.1:{metrics_server.server_address[1]}"
        )
    print(
        f"tlp-aserve: listening {' '.join(endpoints)} "
        f"(cache: {arguments.cache_dir or 'off'}, pid {os.getpid()})",
        file=sys.stderr,
        flush=True,
    )
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(
                signum, lambda: asyncio.ensure_future(server.shutdown())
            )
    try:
        await server.wait_closed()
    finally:
        if metrics_server is not None:
            metrics_server.shutdown()
            metrics_server.server_close()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point (installed as the ``tlp-aserve`` console script)."""
    parser = argparse.ArgumentParser(
        prog="tlp-aserve",
        description=(
            "Asyncio multi-client type-checking server: line-JSON over "
            "TCP/unix sockets with request ids, cancellation, workspace "
            "closure re-checking, and graceful drain."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="TCP bind host")
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="PORT",
        help="TCP port (0 = ephemeral; default: ephemeral unless --unix only)",
    )
    parser.add_argument(
        "--unix", default=None, metavar="PATH", help="also listen on a unix socket"
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="share a persistent result cache with tlp-batch/tlp-serve",
    )
    parser.add_argument(
        "--stats", action="store_true", help="collect telemetry for stats/metrics ops"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="checker thread-pool size (default: min(32, cores+4))",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=DEFAULT_MAX_QUEUE,
        metavar="N",
        help=f"per-client queued-request bound (default {DEFAULT_MAX_QUEUE})",
    )
    parser.add_argument(
        "--watch",
        default=None,
        metavar="DIR",
        help="mount DIR as a workspace and re-check dependency closures on change",
    )
    parser.add_argument(
        "--poll-interval",
        type=float,
        default=0.5,
        metavar="S",
        help="file-watch stat-poll interval in seconds (default 0.5)",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve GET /metrics and /health on 127.0.0.1:PORT (0 = ephemeral)",
    )
    arguments = parser.parse_args(argv)

    was_enabled = METRICS.enabled
    if arguments.stats:
        obs.reset()
        METRICS.enabled = True
    try:
        return asyncio.run(_amain(arguments))
    except KeyboardInterrupt:
        return 0
    finally:
        METRICS.enabled = was_enabled


if __name__ == "__main__":
    sys.exit(main())
