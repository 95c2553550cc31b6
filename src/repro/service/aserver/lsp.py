"""``tlp-lsp`` — the Language Server Protocol adapter.

A thin LSP face over the same async core as ``tlp-aserve``: JSON-RPC
with ``Content-Length`` framing (stdio in production, sockets under
test), full-document sync, and the checker + linter as diagnostics
providers:

* ``textDocument/didOpen`` / ``didChange`` run Definition 16 checking
  **and** the ``tlp-lint`` rule registry on an executor thread and
  publish the merged findings as ``textDocument/publishDiagnostics`` —
  TLP codes, real source *spans* (the analyzer's half-open ranges map
  directly onto LSP's), severities mapped error→1, warning→2, note→3,
  and ``source`` distinguishing ``tlp-check`` from ``tlp-lint``;
* ``textDocument/codeAction`` surfaces the analyzer's machine-applicable
  :class:`~repro.checker.diagnostics.FixIt` suggestions as ``quickfix``
  actions carrying a ready-to-apply :``WorkspaceEdit`` (span fix-its
  replace their range; declaration fix-its insert a line), plus one
  ``source`` action — **Infer missing declarations** — that runs the
  success-set analysis (:func:`repro.analysis.absint.infer_text`) and
  inserts the reconstructed ``PRED`` lines at the top of the document;
* ``shutdown``/``exit`` follow the spec (exit code 1 without a prior
  shutdown), and unknown requests get ``MethodNotFound`` instead of a
  dead connection.

Wire-up is editor-standard; ``docs/service.md`` carries VS Code and
Neovim snippets.  Every request lands in the ``service.lsp.*``
telemetry family when metrics are enabled.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import sys
import urllib.parse
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from ...analysis import lint_text
from ...checker.diagnostics import DEFAULT_CODE, Diagnostic, Severity
from ...checker.frontend import check_text
from ...lang.ast import Position
from ... import obs
from ...obs import METRICS
from .protocol import (
    INTERNAL_ERROR,
    METHOD_NOT_FOUND,
    JsonRpcStream,
    jsonrpc_error,
    jsonrpc_notification,
    jsonrpc_response,
)

__all__ = ["LspServer", "main"]

#: LSP DiagnosticSeverity values for the checker's severities.
_SEVERITY = {Severity.ERROR: 1, Severity.WARNING: 2, Severity.NOTE: 3}

#: Leading keywords marking a fix-it replacement as a whole declaration
#: line (inserted above the diagnostic rather than spliced into a span).
_DECLARATION_KEYWORDS = ("FUNC ", "TYPE ", "PRED ", "MODE ")

INFER_ACTION_TITLE = "Infer missing declarations"


def uri_to_path(uri: str) -> str:
    """A display path for ``file://`` URIs (other schemes pass through)."""
    parsed = urllib.parse.urlparse(uri)
    if parsed.scheme == "file":
        return urllib.request.url2pathname(parsed.path)
    return uri


def position_to_range(position: Optional[Position]) -> Dict[str, Any]:
    """Checker position (1-based, half-open span) → LSP range (0-based).

    A span-less position covers one character; no position at all
    anchors to the top of the document.
    """
    if position is None:
        return {
            "start": {"line": 0, "character": 0},
            "end": {"line": 0, "character": 0},
        }
    start = {"line": position.line - 1, "character": position.column - 1}
    if position.has_span:
        end = {
            "line": position.end_line - 1,
            "character": position.end_column - 1,
        }
    else:
        end = {"line": position.line - 1, "character": position.column}
    return {"start": start, "end": end}


def diagnostic_to_lsp(diagnostic: Diagnostic, source: str) -> Dict[str, Any]:
    item: Dict[str, Any] = {
        "range": position_to_range(diagnostic.position),
        "severity": _SEVERITY.get(diagnostic.severity, 3),
        "message": diagnostic.message,
        "source": source,
    }
    if diagnostic.code and diagnostic.code != DEFAULT_CODE:
        item["code"] = diagnostic.code
    return item


def _ranges_overlap(left: Dict[str, Any], right: Dict[str, Any]) -> bool:
    def key(point: Dict[str, Any]) -> Tuple[int, int]:
        return (int(point.get("line", 0)), int(point.get("character", 0)))

    return key(left["start"]) <= key(right["end"]) and key(
        right["start"]
    ) <= key(left["end"])


class LspServer:
    """One LSP session over a :class:`JsonRpcStream` (stdio or socket)."""

    def __init__(
        self,
        stream: JsonRpcStream,
        executor: Optional[ThreadPoolExecutor] = None,
    ) -> None:
        self.stream = stream
        self.executor = executor or ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="tlp-lsp"
        )
        self._own_executor = executor is None
        #: uri → current full text (sync kind 1: full documents).
        self.documents: Dict[str, str] = {}
        #: uri → the analyzed findings backing published diagnostics and
        #: code actions: ``(diagnostic, source)`` pairs.
        self.findings: Dict[str, List[Tuple[Diagnostic, str]]] = {}
        self.initialized = False
        self.shutdown_requested = False
        self._exit_code: Optional[int] = None

    # -- main loop -----------------------------------------------------------

    async def serve(self) -> int:
        """Read messages until ``exit`` or EOF; returns the exit code."""
        while self._exit_code is None:
            try:
                message = await self.stream.read()
            except (ValueError, ConnectionError, OSError):
                self._exit_code = 1
                break
            if message is None:  # client hung up without exit
                self._exit_code = 0 if self.shutdown_requested else 1
                break
            await self._dispatch(message)
        if self._own_executor:
            self.executor.shutdown(wait=False)
        return self._exit_code

    async def _dispatch(self, message: Dict[str, Any]) -> None:
        method = message.get("method")
        request_id = message.get("id")
        params = message.get("params") or {}
        with obs.span("service.lsp.request"):
            try:
                if method == "initialize":
                    await self._respond(request_id, self._initialize_result())
                    self.initialized = True
                elif method == "initialized":
                    pass
                elif method == "shutdown":
                    self.shutdown_requested = True
                    await self._respond(request_id, None)
                elif method == "exit":
                    self._exit_code = 0 if self.shutdown_requested else 1
                elif method == "textDocument/didOpen":
                    await self._did_open(params)
                elif method == "textDocument/didChange":
                    await self._did_change(params)
                elif method == "textDocument/didClose":
                    await self._did_close(params)
                elif method == "textDocument/codeAction":
                    actions = await self._code_actions(params)
                    await self._respond(request_id, actions)
                elif method == "$/cancelRequest":
                    pass  # every request here is fast; nothing to cancel
                elif request_id is not None:
                    await self.stream.write(
                        jsonrpc_error(
                            request_id,
                            METHOD_NOT_FOUND,
                            f"method not supported: {method}",
                        )
                    )
                # else: unknown notification — ignored, per the spec
            except Exception as error:  # a bug must not kill the session
                if request_id is not None:
                    with contextlib.suppress(Exception):
                        await self.stream.write(
                            jsonrpc_error(
                                request_id, INTERNAL_ERROR, f"internal error: {error}"
                            )
                        )
        if METRICS.enabled and method:
            METRICS.inc(f"service.lsp.{method.replace('/', '.')}")

    async def _respond(self, request_id: Any, result: Any) -> None:
        if request_id is not None:
            await self.stream.write(jsonrpc_response(request_id, result))

    @staticmethod
    def _initialize_result() -> Dict[str, Any]:
        return {
            "capabilities": {
                "textDocumentSync": {"openClose": True, "change": 1},
                "codeActionProvider": {
                    "codeActionKinds": ["quickfix", "source"]
                },
            },
            "serverInfo": {"name": "tlp-lsp", "version": "1.0"},
        }

    # -- document sync + diagnostics -----------------------------------------

    async def _did_open(self, params: Dict[str, Any]) -> None:
        document = params.get("textDocument") or {}
        uri = document.get("uri")
        text = document.get("text")
        if not isinstance(uri, str) or not isinstance(text, str):
            return
        self.documents[uri] = text
        await self._publish(uri)

    async def _did_change(self, params: Dict[str, Any]) -> None:
        document = params.get("textDocument") or {}
        uri = document.get("uri")
        changes = params.get("contentChanges") or []
        if not isinstance(uri, str) or not changes:
            return
        # Sync kind 1: the last change carries the full new text.
        text = changes[-1].get("text")
        if not isinstance(text, str):
            return
        self.documents[uri] = text
        await self._publish(uri)

    async def _did_close(self, params: Dict[str, Any]) -> None:
        document = params.get("textDocument") or {}
        uri = document.get("uri")
        if not isinstance(uri, str):
            return
        self.documents.pop(uri, None)
        self.findings.pop(uri, None)
        await self.stream.write(
            jsonrpc_notification(
                "textDocument/publishDiagnostics",
                {"uri": uri, "diagnostics": []},
            )
        )

    @staticmethod
    def _analyze(text: str, path: str) -> List[Tuple[Diagnostic, str]]:
        """Checker + linter, merged (runs on an executor thread)."""
        found: List[Tuple[Diagnostic, str]] = []
        module = check_text(text)
        for diagnostic in module.diagnostics:
            found.append((diagnostic, "tlp-check"))
        report = lint_text(text, path=path)
        for diagnostic in report.diagnostics:
            found.append((diagnostic, "tlp-lint"))
        return found

    async def _publish(self, uri: str) -> None:
        text = self.documents.get(uri)
        if text is None:
            return
        loop = asyncio.get_running_loop()
        found = await loop.run_in_executor(
            self.executor, self._analyze, text, uri_to_path(uri)
        )
        if self.documents.get(uri) != text:
            return  # superseded by a newer didChange mid-analysis
        self.findings[uri] = found
        if METRICS.enabled:
            METRICS.inc("service.lsp.published", len(found))
        await self.stream.write(
            jsonrpc_notification(
                "textDocument/publishDiagnostics",
                {
                    "uri": uri,
                    "diagnostics": [
                        diagnostic_to_lsp(diagnostic, source)
                        for diagnostic, source in found
                    ],
                },
            )
        )

    # -- code actions --------------------------------------------------------

    async def _code_actions(self, params: Dict[str, Any]) -> List[Dict[str, Any]]:
        document = params.get("textDocument") or {}
        uri = document.get("uri")
        if not isinstance(uri, str) or uri not in self.documents:
            return []
        requested = params.get("range") or position_to_range(None)
        only = (params.get("context") or {}).get("only")

        def wanted(kind: str) -> bool:
            if not isinstance(only, list) or not only:
                return True
            return any(kind == o or kind.startswith(o + ".") or o == "" for o in only)

        actions: List[Dict[str, Any]] = []
        if wanted("quickfix"):
            for diagnostic, source in self.findings.get(uri, []):
                lsp_diagnostic = diagnostic_to_lsp(diagnostic, source)
                if not _ranges_overlap(lsp_diagnostic["range"], requested):
                    continue
                for fixit in diagnostic.fixits:
                    edit = self._fixit_edit(uri, diagnostic, fixit)
                    if edit is None:
                        continue  # advisory-only fix-it
                    actions.append(
                        {
                            "title": fixit.description,
                            "kind": "quickfix",
                            "diagnostics": [lsp_diagnostic],
                            "edit": edit,
                        }
                    )
        if wanted("source"):
            infer_action = await self._infer_action(uri)
            if infer_action is not None:
                actions.append(infer_action)
        if METRICS.enabled:
            METRICS.inc("service.lsp.code_actions", len(actions))
        return actions

    def _fixit_edit(
        self, uri: str, diagnostic: Diagnostic, fixit: Any
    ) -> Optional[Dict[str, Any]]:
        """A ``WorkspaceEdit`` for one fix-it, or ``None`` if advisory.

        Span fix-its replace their range in place.  Declaration fix-its
        (a complete ``FUNC``/``TYPE``/``PRED``/``MODE`` line) insert a
        new line above their anchor — the declaration belongs in the
        program, not spliced over the expression that provoked it.
        """
        replacement = fixit.replacement
        if not replacement:
            return None
        position = fixit.position
        if position is not None and position.has_span:
            return {
                "changes": {
                    uri: [
                        {
                            "range": position_to_range(position),
                            "newText": replacement,
                        }
                    ]
                }
            }
        is_declaration = replacement.rstrip().endswith(".") and replacement.lstrip().startswith(_DECLARATION_KEYWORDS)
        if not is_declaration:
            return None
        anchor = position or diagnostic.position
        line = (anchor.line - 1) if anchor is not None else 0
        point = {"line": line, "character": 0}
        return {
            "changes": {
                uri: [
                    {
                        "range": {"start": point, "end": point},
                        "newText": replacement.rstrip("\n") + "\n",
                    }
                ]
            }
        }

    async def _infer_action(self, uri: str) -> Optional[Dict[str, Any]]:
        """The ``source`` action inserting inferred ``PRED`` declarations."""
        text = self.documents.get(uri)
        if text is None:
            return None
        from ...analysis.absint import infer_text

        loop = asyncio.get_running_loop()
        inference = await loop.run_in_executor(
            self.executor, infer_text, text, uri_to_path(uri)
        )
        if inference is None:
            return None
        declarations = inference.declaration_lines()
        if not declarations:
            return None
        top = {"line": 0, "character": 0}
        return {
            "title": INFER_ACTION_TITLE,
            "kind": "source",
            "edit": {
                "changes": {
                    uri: [
                        {
                            "range": {"start": top, "end": top},
                            "newText": "\n".join(declarations) + "\n",
                        }
                    ]
                }
            },
        }


# -- stdio wiring ------------------------------------------------------------


async def stdio_stream() -> JsonRpcStream:
    """A :class:`JsonRpcStream` over this process's stdin/stdout."""
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin.buffer
    )
    transport, protocol = await loop.connect_write_pipe(
        asyncio.streams.FlowControlMixin, sys.stdout.buffer
    )
    writer = asyncio.StreamWriter(transport, protocol, reader, loop)
    return JsonRpcStream(reader, writer)


async def _amain() -> int:
    server = LspServer(await stdio_stream())
    return await server.serve()


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point (installed as the ``tlp-lsp`` console script)."""
    parser = argparse.ArgumentParser(
        prog="tlp-lsp",
        description=(
            "Language Server Protocol adapter for the TLP checker and "
            "linter: stdio JSON-RPC, publishDiagnostics with spans, "
            "fix-it code actions, and declaration inference."
        ),
    )
    parser.parse_args(argv)
    print("tlp-lsp: serving LSP on stdio", file=sys.stderr, flush=True)
    try:
        return asyncio.run(_amain())
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
