"""The ``serve`` subcommand end to end: fit, serve, drain, exit."""

import asyncio

from repro.serving.app import serve_main


class _RecordingPolicy(asyncio.DefaultEventLoopPolicy):
    """Every new loop reports unhandled errors into ``reported``."""

    def __init__(self, reported):
        super().__init__()
        self._reported = reported

    def new_event_loop(self):
        loop = super().new_event_loop()
        loop.set_exception_handler(lambda loop, context: self._reported.append(context))
        return loop


def test_serve_main_serves_then_drains_and_exits(capsys):
    reported = []
    asyncio.set_event_loop_policy(_RecordingPolicy(reported))
    try:
        code = serve_main(["--size", "tiny", "--port", "0", "--serve-seconds", "0.3"])
    finally:
        asyncio.set_event_loop_policy(None)
    out = capsys.readouterr().out
    assert code == 0
    assert "serving rewrites on http://127.0.0.1:" in out
    assert "shut down after draining; final engine version 1" in out
    assert not reported, [context.get("message") for context in reported]
