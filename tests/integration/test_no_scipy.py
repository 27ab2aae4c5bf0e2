"""The whole fit -> export -> save -> load -> serve path runs without SciPy.

SciPy is an optional extra (only ``ClickGraph.to_sparse_matrix`` uses it),
so a serving process must never import it.  The check runs in a fresh
interpreter with a meta-path finder that refuses every ``scipy`` import
and records the attempt, on the ``tiny`` inputs of the perf benchmark:
fit, ``export_store``, ``save``, load the snapshot, and serve one
``/rewrite`` each from a store-backed and a snapshot-backed
``RewriteServer``.  It needs nothing but numpy and pytest installed, which
is how the ``no-scipy`` CI job runs it.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]

SCRIPT = textwrap.dedent(
    """
    import asyncio
    import importlib.abc
    import json
    import sys
    import tempfile
    from pathlib import Path

    attempts = []


    class BlockScipy(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                attempts.append(name)
                raise ModuleNotFoundError(f"No module named {name!r} (blocked)")
            return None


    sys.meta_path.insert(0, BlockScipy())

    from perf_child import ENGINE_CONFIG
    from perf_inputs import build_inputs

    from repro.api.engine import RewriteEngine
    from repro.api.sources import resolve_engine_source
    from repro.serving.holder import EngineHolder
    from repro.serving.loadgen import request_once
    from repro.serving.server import RewriteServer, ServerConfig


    async def serve_one(engine, query):
        async with RewriteServer(EngineHolder(engine), ServerConfig(port=0)) as server:
            return await request_once(*server.address, "POST", "/rewrite", {"query": query})


    inputs = build_inputs("tiny", 13)
    engine = RewriteEngine.from_graph(
        inputs.graph, ENGINE_CONFIG, bid_terms=sorted(inputs.bid_terms)
    ).fit()
    query = next(q for q in inputs.queries if engine.rewrite(q).rewrites)
    expected = [
        {"rewrite": r.rewrite, "rank": r.rank, "score": r.score}
        for r in engine.rewrite(query).rewrites
    ]
    with tempfile.TemporaryDirectory() as scratch:
        store_path = engine.export_store(Path(scratch) / "rewrites.sqlite")
        snapshot_path = engine.save(Path(scratch) / "snapshot")
        loaded = RewriteEngine.load(snapshot_path)
        served = {}
        for kind, source in (
            ("store", resolve_engine_source(store=store_path)),
            ("snapshot", resolve_engine_source(snapshot=snapshot_path)),
        ):
            status, payload = asyncio.run(serve_one(source.engine, query))
            served[kind] = [status, payload["rewrites"]]
    print(json.dumps({
        "attempts": attempts,
        "scipy_modules": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
        "expected": expected,
        "loaded": [
            {"rewrite": r.rewrite, "rank": r.rank, "score": r.score}
            for r in loaded.rewrite(query).rewrites
        ],
        "served": served,
    }))
    """
)


def test_fit_export_save_load_serve_without_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), str(REPO / "benchmarks" / "perf")]
    )
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    assert report["attempts"] == []
    assert report["scipy_modules"] == []
    assert report["expected"], "the probe query must have rewrites"
    assert report["loaded"] == report["expected"]
    assert report["served"] == {
        "store": [200, report["expected"]],
        "snapshot": [200, report["expected"]],
    }
