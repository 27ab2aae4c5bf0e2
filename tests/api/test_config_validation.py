"""Construction-time validation of EngineConfig.

Regression: a typo'd ``backend`` or nonsensical ``n_jobs`` used to survive
construction and blow up later, deep inside ``fit()`` or a snapshot load.
Every rejection now happens where the mistake is made and raises
:class:`~repro.api.config.ConfigError` -- a :class:`ValueError` subclass, so
pre-existing ``except ValueError`` call sites keep working.
"""

import pytest

from repro.api.config import ConfigError, EngineConfig
from repro.api.registry import SIMRANK_BACKENDS


class TestBackendValidation:
    def test_typod_backend_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="no backend 'gpu'"):
            EngineConfig(method="simrank", backend="gpu")

    @pytest.mark.parametrize("backend", sorted(SIMRANK_BACKENDS))
    def test_every_registered_backend_accepted(self, backend):
        assert EngineConfig(method="simrank", backend=backend).backend == backend

    def test_none_backend_selects_method_default_later(self):
        assert EngineConfig(method="simrank").backend is None

    def test_unregistered_method_defers_backend_validation(self):
        """Plugin methods may be configured before they register."""
        config = EngineConfig(method="plugin_method", backend="custom")
        assert config.backend == "custom"

    def test_replace_revalidates(self):
        config = EngineConfig(method="simrank", backend="sharded")
        with pytest.raises(ConfigError):
            config.replace(backend="gpu")


class TestParallelKnobValidation:
    @pytest.mark.parametrize("n_jobs", [0, -2, -100])
    def test_invalid_n_jobs_rejected(self, n_jobs):
        with pytest.raises(ConfigError, match="n_jobs"):
            EngineConfig(n_jobs=n_jobs)

    @pytest.mark.parametrize("n_jobs", [1, 4, -1])
    def test_valid_n_jobs_accepted(self, n_jobs):
        assert EngineConfig(n_jobs=n_jobs).n_jobs == n_jobs

    def test_invalid_executor_rejected(self):
        with pytest.raises(ConfigError, match="executor"):
            EngineConfig(executor="fibers")

    @pytest.mark.parametrize("executor", ["thread", "process", "auto"])
    def test_valid_executors_accepted(self, executor):
        assert EngineConfig(executor=executor).executor == executor


class TestErrorsStayValueErrors:
    def test_config_error_is_a_value_error(self):
        assert issubclass(ConfigError, ValueError)
        with pytest.raises(ValueError):
            EngineConfig(method="simrank", backend="gpu")


class TestFromDictValidation:
    """Snapshot manifests go through from_dict: bad payloads fail loudly."""

    def test_bad_backend_in_payload_rejected(self):
        payload = EngineConfig(method="simrank").to_dict()
        payload["backend"] = "gpu"
        with pytest.raises(ConfigError, match="no backend 'gpu'"):
            EngineConfig.from_dict(payload)

    def test_bad_n_jobs_in_payload_rejected(self):
        payload = EngineConfig().to_dict()
        payload["n_jobs"] = 0
        with pytest.raises(ConfigError, match="n_jobs"):
            EngineConfig.from_dict(payload)

    def test_bad_executor_in_payload_rejected(self):
        payload = EngineConfig().to_dict()
        payload["executor"] = "fibers"
        with pytest.raises(ConfigError, match="executor"):
            EngineConfig.from_dict(payload)

    def test_unknown_keys_raise_config_error(self):
        with pytest.raises(ConfigError, match="unknown EngineConfig keys"):
            EngineConfig.from_dict({"method": "simrank", "turbo": True})

    def test_parallel_knobs_round_trip(self):
        config = EngineConfig(backend="sharded", n_jobs=-1, executor="process")
        assert EngineConfig.from_dict(config.to_dict()) == config

    def test_legacy_payload_without_parallel_knobs_defaults(self):
        """Manifests written before n_jobs/executor existed still load."""
        payload = EngineConfig().to_dict()
        payload.pop("n_jobs")
        payload.pop("executor")
        config = EngineConfig.from_dict(payload)
        assert config.n_jobs == 1
        assert config.executor == "auto"
