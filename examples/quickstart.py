"""Quickstart: the RewriteEngine serving API on a hand-built click graph.

Builds the paper's running example (cameras, PCs, TVs and flowers), fits one
:class:`~repro.api.engine.RewriteEngine` per similarity method and prints the
top rewrites each one proposes, plus an explanation trace for one decision.

Run with::

    python examples/quickstart.py

Choosing a backend
------------------

The SimRank methods run on two backends, selected with
``EngineConfig(backend=...)``; both agree within 1e-6 (``tests/equivalence/``
enforces this):

* ``sharded`` -- the default: dense fixpoints per connected component,
  stitched together; fast on realistic (highly disconnected) click graphs,
  with an optional worker pool (``EngineConfig(n_jobs=N, executor=...)``:
  ``n_jobs=-1`` means one worker per *available* CPU, and ``executor``
  picks threads, a process pool or ``"auto"`` to size that choice from the
  work).
* ``reference`` -- the paper's node-pair equations, slow but traceable; use
  for tiny graphs and debugging.

Snapshots and the serving cache
-------------------------------

Whatever the backend, the offline fit survives process restarts:
``engine.save(path)`` persists the score store + config + bid terms and
``RewriteEngine.load(path)`` revives a servable engine without re-running
the fixpoint (identical rewrite lists -- the CI-gated claim of
``benchmarks/bench_engine_snapshot.py``).  Online, the serving cache is
bounded with ``EngineConfig(cache_size=N)`` (LRU eviction, counted in
``cache_info().evictions``; ``None`` keeps every entry for the paper's
full-precompute mode).

Incremental refresh
-------------------

When the click graph moves under a fitted engine (new queries, shifting
click counts), ``engine.refresh(delta)`` brings it forward without a cold
refit: record the changes with :class:`~repro.graph.delta.DeltaBuilder` (or
diff two graphs with ``ClickGraphDelta.between``), and the engine applies
them, refits warm-started from its current scores -- the sharded backend
refits only the touched components -- and invalidates only the cached
rewrite lists that could have changed (the CI-gated claim of
``benchmarks/bench_engine_refresh.py``).

Serving resilience, degraded mode and fault injection
-----------------------------------------------------

The serving tier (``repro.serving``) wraps all of the above in a process
built to keep answering while the refresh path misbehaves.  The pieces:

* every attempted publish is recorded on the
  :class:`~repro.serving.holder.EngineHolder` ledger (``last_error``,
  ``consecutive_failures``, ``staleness_seconds``);
* transient ``/refresh``/``/reload`` failures are retried with exponential
  backoff (``ServerConfig(refresh_retries=...)``), and a circuit breaker
  (``breaker_threshold`` / ``breaker_reset_s``) sheds publish attempts with
  503 once the path looks down -- rewrite traffic keeps being served from
  the stale engine throughout;
* health is a three-state machine surfaced via ``/healthz``: ``healthy``
  (last publish succeeded), ``degraded`` (serving, but the publish path is
  struggling -- one successful refresh recovers), ``draining`` (shutting
  down).  ``ServerConfig(request_timeout_s=...)`` adds per-request
  deadlines (HTTP 504);
* all of it is testable deterministically through :mod:`repro.core.faults`:
  named fault points (snapshot IO, shard-fit workers, delta apply, engine
  refresh, request handling) that are free no-ops until a ``FaultPlan``
  activates them -- demonstrated at the bottom of this script, and gated
  under live traffic by ``benchmarks/bench_chaos_serving.py``.

Static analysis
---------------

The concurrency and reproducibility rules this codebase lives by are
machine-checked: ``PYTHONPATH=src python -m repro.analysis src`` (or the
installed ``repro-lint``) runs repo-aware checkers for lock discipline,
blocking calls on the event loop, pickle safety of process-pool payloads,
fault-point registry integrity and determinism in ``repro.core``.  CI runs
it over ``src tests benchmarks`` as a blocking gate; see the
:mod:`repro.analysis` docstring for the checker catalogue and the
suppression syntax.
"""

import tempfile
from pathlib import Path

from repro import ClickGraph, DeltaBuilder, EngineConfig, RewriteEngine, SimrankConfig
from repro.api.registry import PAPER_METHODS
from repro.core import faults
from repro.eval.reporting import format_table
from repro.serving import CircuitBreaker, EngineHolder, classify_health


def build_click_graph() -> ClickGraph:
    """A small weighted click graph in the spirit of the paper's Figure 3."""
    graph = ClickGraph()
    edges = [
        # query, ad, impressions, clicks, expected click rate
        ("camera", "hp.com/cameras", 1200, 110, 0.11),
        ("camera", "bestbuy.com/cameras", 900, 130, 0.16),
        ("digital camera", "hp.com/cameras", 800, 80, 0.11),
        ("digital camera", "bestbuy.com/cameras", 700, 110, 0.17),
        ("camera battery", "bestbuy.com/cameras", 300, 25, 0.09),
        ("pc", "hp.com/cameras", 400, 12, 0.03),
        ("pc", "dell.com/desktops", 1500, 160, 0.12),
        ("laptop", "dell.com/desktops", 1100, 120, 0.12),
        ("laptop", "bestbuy.com/laptops", 600, 70, 0.13),
        ("tv", "bestbuy.com/tvs", 900, 100, 0.12),
        ("hdtv", "bestbuy.com/tvs", 700, 85, 0.13),
        ("flower", "teleflora.com", 500, 70, 0.15),
        ("flower delivery", "teleflora.com", 450, 68, 0.16),
        ("flower", "orchids.com", 300, 45, 0.16),
        ("orchids", "orchids.com", 280, 47, 0.17),
    ]
    for query, ad, impressions, clicks, ecr in edges:
        graph.add_edge(query, ad, impressions=impressions, clicks=clicks, expected_click_rate=ecr)
    return graph


def main() -> None:
    graph = build_click_graph()
    print(f"click graph: {graph}\n")

    similarity = SimrankConfig(c1=0.8, c2=0.8, iterations=7, zero_evidence_floor=0.1)
    bid_terms = {str(query) for query in graph.queries()}  # every query has bids in this toy world

    rows = []
    for method_name in PAPER_METHODS:
        config = EngineConfig(method=method_name, similarity=similarity, max_rewrites=3)
        engine = RewriteEngine.from_graph(graph, config, bid_terms=bid_terms).fit()
        for rewrites in engine.rewrite_batch(["camera", "pc", "flower"]):
            rows.append(
                {
                    "method": method_name,
                    "query": rewrites.query,
                    "rewrites": ", ".join(
                        f"{r.rewrite} ({r.score:.3f})" for r in rewrites.rewrites
                    )
                    or "(none)",
                }
            )
    print(format_table(rows, title="Top rewrites per method"))

    # One engine end-to-end: similarity lookups, explanations, cache stats.
    config = EngineConfig(method="weighted_simrank", similarity=similarity)
    engine = RewriteEngine.from_graph(graph, config, bid_terms=bid_terms).fit()
    print()
    print("weighted SimRank similarities:")
    for pair in [("camera", "digital camera"), ("camera", "pc"), ("camera", "flower")]:
        print(f"  sim{pair} = {engine.method.query_similarity(*pair):.4f}")

    explanation = engine.explain("camera", "digital camera")
    print()
    print(
        f"explain('camera' -> 'digital camera'): {explanation.reason}, "
        f"rank={explanation.rank}, similarity={explanation.similarity:.4f}"
    )

    engine.precompute()  # warm every query offline, like the paper's deployment
    engine.rewrite_batch(["camera", "pc", "flower", "camera", "pc", "flower"])
    info = engine.cache_info()
    print(f"serving cache: {info.size} entries, hit rate {info.hit_rate:.0%}")

    # The engine above runs on the default sharded backend: this toy graph has
    # three connected components (cameras/PCs/laptops, TVs, flowers), so the
    # fixpoint runs per component; the reference backend agrees.
    reference = RewriteEngine.from_graph(
        graph, config.replace(backend="reference"), bid_terms=bid_terms
    ).fit()
    print()
    print(
        f"sharded backend: {engine.method.num_shards} shards of sizes "
        f"{engine.method.shard_sizes()}, "
        f"sim('camera', 'digital camera') = "
        f"{engine.method.query_similarity('camera', 'digital camera'):.4f} "
        f"(reference: "
        f"{reference.method.query_similarity('camera', 'digital camera'):.4f})"
    )

    # Offline -> online persistence: snapshot the fitted engine, revive it in
    # a "new process" without refitting, and serve with a bounded LRU cache.
    with tempfile.TemporaryDirectory() as workdir:
        snapshot = engine.save(Path(workdir) / "weighted-engine")
        served = RewriteEngine.load(snapshot)
        print()
        print(
            f"snapshot reload (no refit): rewrite('camera') -> "
            f"{[r.rewrite for r in served.rewrite('camera').rewrites]}"
        )
    online = RewriteEngine.from_graph(
        graph, config.replace(cache_size=2), bid_terms=bid_terms
    ).fit()
    online.rewrite_batch(["camera", "pc", "flower", "camera"])  # 3rd insert evicts
    info = online.cache_info()
    print(
        f"bounded serving cache (capacity {info.capacity}): {info.size} entries, "
        f"{info.evictions} eviction(s), hit rate {info.hit_rate:.0%}"
    )

    # Incremental refresh: the click graph moves (a camera ad gets hot, a
    # stale flower edge ages out), and the fitted engine follows without a
    # cold refit.  Tolerance-based early exit is what lets the warm-started
    # fixpoint stop after a couple of iterations.
    live = RewriteEngine.from_graph(
        graph.copy(),
        config.replace(
            backend="sharded",
            similarity=SimrankConfig(
                iterations=60, tolerance=1e-8, zero_evidence_floor=0.1
            ),
        ),
        bid_terms=bid_terms,
    ).fit()
    live.precompute()
    delta = (
        DeltaBuilder(live.graph)
        .set_edge("camera", "bestbuy.com/cameras", impressions=1400, clicks=300)
        .remove_edge("flower", "orchids.com")
        .build()
    )
    live.refresh(delta)
    refresh = live.last_refresh
    print()
    print(
        f"refresh({delta!r}): {live.method.reused_shards} shards reused, "
        f"{live.method.refitted_shards} refit; {refresh.invalidated_entries} of "
        f"{refresh.affected_queries} affected cache entries invalidated"
    )
    print(
        f"rewrite('camera') after refresh -> "
        f"{[r.rewrite for r in live.rewrite('camera').rewrites]}"
    )

    # Degraded mode, observed: inject two refresh outages at the
    # engine.refresh fault point and watch the holder's publish ledger and
    # the health classification -- the same machinery the HTTP server's
    # /healthz, retries and circuit breaker run on.
    holder = EngineHolder(live)
    breaker = CircuitBreaker(threshold=3, reset_s=5.0)
    outage = faults.FaultPlan(
        [faults.FaultSpec("engine.refresh", error="upstream outage", times=2)]
    )
    retry_delta = (
        DeltaBuilder(holder.engine.graph)
        .set_edge("camera", "bestbuy.com/cameras", impressions=1500, clicks=320)
        .build()
    )
    with outage:
        for attempt in range(3):  # what the server's backoff retry loop does
            try:
                holder.refresh(retry_delta)
            except faults.FaultError:
                breaker.record_failure()
                state = classify_health(
                    draining=False,
                    breaker_closed=breaker.closed,
                    consecutive_failures=holder.consecutive_failures,
                )
                print(
                    f"publish attempt {attempt + 1} failed "
                    f"({holder.last_error}); health now {state!r}"
                )
            else:
                breaker.record_success()
                break
    state = classify_health(
        draining=False,
        breaker_closed=breaker.closed,
        consecutive_failures=holder.consecutive_failures,
    )
    print(
        f"publish attempt 3 succeeded: engine version {holder.version}, "
        f"health back to {state!r} after one successful refresh "
        f"({holder.publish_failures} failures on the ledger, "
        f"staleness {holder.staleness_seconds:.2f}s)"
    )


if __name__ == "__main__":
    main()
