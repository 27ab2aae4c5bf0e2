"""One paper preset: the harness, both CLIs and the perf benchmark share it."""

from __future__ import annotations

import dataclasses
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.experiments.cli as experiments_cli
import repro.serving.app as serving_app
import repro.synth.yahoo_like as yahoo_like
from repro.core.config import PAPER_CONFIG
from repro.eval.harness import ExperimentHarness

PERF_CHILD = Path(__file__).resolve().parents[2] / "benchmarks" / "perf" / "perf_child.py"


class _Captured(Exception):
    """Stops a CLI right after it built its config."""


def test_harness_default_is_the_preset(tiny_workload):
    assert ExperimentHarness(workload=tiny_workload).config == PAPER_CONFIG


def test_experiments_cli_default_is_the_preset(monkeypatch):
    captured = {}

    def capture(**options):
        captured.update(options)
        raise _Captured

    monkeypatch.setattr(experiments_cli, "PaperExperiments", capture)
    with pytest.raises(_Captured):
        experiments_cli.main(["--experiment", "table3"])
    assert captured["config"] == PAPER_CONFIG


def test_serve_fit_config_is_the_preset_with_its_refresh_tolerance(
    monkeypatch, small_weighted_graph
):
    captured = {}

    def capture(**options):
        captured.update(options)
        raise _Captured

    monkeypatch.setattr(
        yahoo_like,
        "yahoo_like_workload",
        lambda size, seed: SimpleNamespace(click_graph=small_weighted_graph, bid_terms=set()),
    )
    monkeypatch.setattr(serving_app, "resolve_engine_source", capture)
    args = serving_app.build_serve_parser().parse_args(["--size", "tiny"])
    with pytest.raises(_Captured):
        serving_app.build_engine(args)
    similarity = captured["config"].similarity
    # serve only raises the tolerance, so that /refresh can warm-start.
    assert similarity.tolerance > 0
    assert dataclasses.replace(similarity, tolerance=PAPER_CONFIG.tolerance) == PAPER_CONFIG


def test_preset_floor_matches_the_perf_benchmark():
    spec = importlib.util.spec_from_file_location("perf_child", PERF_CHILD)
    perf_child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perf_child)
    assert (
        perf_child.ENGINE_CONFIG.similarity.zero_evidence_floor
        == PAPER_CONFIG.zero_evidence_floor
    )
