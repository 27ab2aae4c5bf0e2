"""RL002: no blocking calls on the event loop.

The serving tier is a single asyncio event loop; one blocking call in an
``async def`` stalls every in-flight request behind it (the connection
handlers, the rewrite path, the health endpoint -- all of it).  The
convention since the serving tier landed is that blocking work goes
through ``loop.run_in_executor`` on the serve/admin thread pools.  This
checker enforces it inside every ``async def`` body:

* known blocking callables (``time.sleep``, socket construction/connect,
  ``urllib.request.urlopen``, ``subprocess`` helpers, builtin ``open``)
  are flagged outright -- resolved through the module's imports, so
  ``from time import sleep`` does not slip through;
* ``<lock>.acquire()`` is flagged when the call is *not* awaited: a bare
  ``.acquire()`` is either a blocking ``threading`` primitive or a
  forgotten ``await`` on an asyncio one -- both bugs.  ``await
  x.acquire()`` and non-blocking forms (``blocking=False`` / ``timeout=0``)
  pass.

Nested *sync* ``def``s inside an async function are skipped: they are the
executor-target idiom (defined on the loop, executed in a worker thread).
Nested async defs are checked like any other.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Set

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.framework import (
    Checker,
    Project,
    SourceFile,
    dotted_name,
    import_aliases,
)

__all__ = ["BLOCKING_CALLS", "AsyncBlockingChecker"]

#: Dotted names that block the calling thread.  ``asyncio.sleep`` and the
#: stream APIs are the sanctioned counterparts.
BLOCKING_CALLS: Dict[str, str] = {
    "time.sleep": "use `await asyncio.sleep(...)`",
    "socket.socket": "use asyncio streams (`asyncio.open_connection`)",
    "socket.create_connection": "use `asyncio.open_connection`",
    "urllib.request.urlopen": "run it in an executor",
    "subprocess.run": "use `asyncio.create_subprocess_exec`",
    "subprocess.call": "use `asyncio.create_subprocess_exec`",
    "subprocess.check_call": "use `asyncio.create_subprocess_exec`",
    "subprocess.check_output": "use `asyncio.create_subprocess_exec`",
    "open": "run file IO in an executor",
}


class AsyncBlockingChecker(Checker):
    code = "RL002"
    name = "async-blocking"
    description = (
        "no time.sleep, blocking socket/file IO or bare Lock.acquire inside "
        "`async def` bodies -- blocking work goes through executors"
    )

    def check_file(self, file: SourceFile, project: Project) -> Iterator[Diagnostic]:
        assert file.tree is not None
        aliases = import_aliases(file.tree)
        for node in ast.walk(file.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._check_async_body(file, node, aliases)

    def _check_async_body(
        self,
        file: SourceFile,
        func: ast.AsyncFunctionDef,
        aliases: Dict[str, str],
    ) -> Iterator[Diagnostic]:
        awaited = _directly_awaited_calls(func)
        for node in _walk_skipping_nested_defs(func):
            if not isinstance(node, ast.Call):
                continue
            target = dotted_name(node.func, aliases)
            if target in BLOCKING_CALLS:
                yield Diagnostic(
                    path=file.display,
                    line=node.lineno,
                    col=node.col_offset + 1,
                    code=self.code,
                    message=(
                        f"blocking call {target}() inside `async def "
                        f"{func.name}` stalls the event loop; "
                        f"{BLOCKING_CALLS[target]}"
                    ),
                )
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "acquire"
                and id(node) not in awaited
                and not _non_blocking_acquire(node)
            ):
                yield Diagnostic(
                    path=file.display,
                    line=node.lineno,
                    col=node.col_offset + 1,
                    code=self.code,
                    message=(
                        f"bare .acquire() inside `async def {func.name}`: a "
                        "threading lock blocks the event loop and an asyncio "
                        "primitive must be awaited -- either way this call "
                        "is wrong (await it, or move the blocking section "
                        "into an executor)"
                    ),
                )


def _walk_skipping_nested_defs(func: ast.AsyncFunctionDef) -> Iterator[ast.AST]:
    """Walk the async body, not descending into nested function definitions."""

    def inner(node: ast.AST) -> Iterator[ast.AST]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            yield child
            yield from inner(child)

    return inner(func)


def _directly_awaited_calls(func: ast.AsyncFunctionDef) -> Set[int]:
    """ids of Call nodes that sit immediately under an ``await``."""
    return {
        id(node.value)
        for node in ast.walk(func)
        if isinstance(node, ast.Await) and isinstance(node.value, ast.Call)
    }


def _non_blocking_acquire(call: ast.Call) -> bool:
    """``acquire(False)`` / ``blocking=False`` / ``timeout=0`` never block."""
    if call.args:
        first = call.args[0]
        if isinstance(first, ast.Constant) and first.value is False:
            return True
    for keyword in call.keywords:
        if keyword.arg == "blocking" and _is_const(keyword.value, False):
            return True
        if keyword.arg == "timeout" and _is_const(keyword.value, 0):
            return True
    return False


def _is_const(node: ast.expr, value: object) -> bool:
    return isinstance(node, ast.Constant) and node.value == value
