"""Registry error paths, extensibility and the create_method deprecation shim."""

import pytest

from repro.api.config import EngineConfig
from repro.api.engine import RewriteEngine
from repro.api.registry import (
    PAPER_METHODS,
    DuplicateMethodError,
    RegistryError,
    UnknownBackendError,
    UnknownMethodError,
    available_backends,
    available_methods,
    create,
    method_spec,
    register_method,
    unregister_method,
)
from repro.core.registry import create_method
from repro.core.scores import SimilarityScores
from repro.core.similarity_base import QuerySimilarityMethod


class ConstantSimilarity(QuerySimilarityMethod):
    """Scores every distinct query pair the same; handy registry test double."""

    name = "constant"

    def __init__(self, value: float = 0.5) -> None:
        super().__init__()
        self.value = value

    def _compute_query_scores(self, graph) -> SimilarityScores:
        scores = SimilarityScores()
        queries = sorted(str(query) for query in graph.queries())
        for index, first in enumerate(queries):
            for second in queries[index + 1 :]:
                scores.set(first, second, self.value)
        return scores


@pytest.fixture
def constant_method():
    """A custom method registered for the duration of one test."""

    @register_method("constant_half", backends=("matrix",), description="test double")
    def build(config, backend):
        return ConstantSimilarity(0.5)

    yield "constant_half"
    unregister_method("constant_half")


class TestBuiltins:
    def test_all_paper_methods_resolve(self):
        for name in PAPER_METHODS:
            assert name in available_methods()
            method = create(name)
            assert isinstance(method, QuerySimilarityMethod)

    def test_simrank_family_has_all_backends(self):
        for name in ("simrank", "evidence_simrank", "weighted_simrank"):
            assert available_backends(name) == ("sharded", "reference")
            assert method_spec(name).default_backend == "sharded"

    def test_specs_carry_descriptions(self):
        for name in available_methods():
            assert method_spec(name).description


class TestErrorPaths:
    def test_unknown_method(self):
        with pytest.raises(UnknownMethodError):
            create("not-a-method")
        # Registry errors stay ValueError for pre-registry callers.
        with pytest.raises(ValueError):
            create("not-a-method")

    def test_unknown_backend(self):
        with pytest.raises(UnknownBackendError):
            create("simrank", backend="gpu")

    def test_method_spec_unknown_name(self):
        with pytest.raises(UnknownMethodError):
            method_spec("nope")
        with pytest.raises(UnknownMethodError):
            available_backends("nope")

    def test_unregister_unknown_name(self):
        with pytest.raises(UnknownMethodError):
            unregister_method("never-registered")

    def test_duplicate_registration_rejected(self, constant_method):
        with pytest.raises(DuplicateMethodError):

            @register_method(constant_method, backends=("matrix",))
            def clash(config, backend):
                return ConstantSimilarity()

    def test_duplicate_registration_with_replace(self, constant_method):
        @register_method(constant_method, backends=("matrix",), replace=True)
        def replacement(config, backend):
            return ConstantSimilarity(0.9)

        method = create(constant_method)
        assert method.value == 0.9

    def test_invalid_registrations(self):
        with pytest.raises(RegistryError):
            register_method("", backends=("matrix",))
        with pytest.raises(RegistryError):
            register_method("no-backends", backends=())
        with pytest.raises(UnknownBackendError):
            register_method("bad-default", backends=("matrix",), default_backend="gpu")
        with pytest.raises(RegistryError):
            register_method("not-callable", backends=("matrix",))(42)


class TestExtensibility:
    def test_custom_method_round_trips_through_engine(self, constant_method, small_weighted_graph):
        assert constant_method in available_methods()
        config = EngineConfig(method=constant_method, backend="matrix", max_rewrites=3)
        engine = RewriteEngine.from_graph(small_weighted_graph, config).fit()
        rewrites = engine.rewrite("camera")
        assert rewrites.covered
        assert rewrites.depth == 3
        assert all(rewrite.score == pytest.approx(0.5) for rewrite in rewrites.rewrites)

    def test_custom_method_unregistered_after_teardown(self, small_weighted_graph):
        @register_method("ephemeral", backends=("matrix",))
        def build(config, backend):
            return ConstantSimilarity()

        unregister_method("ephemeral")
        assert "ephemeral" not in available_methods()
        with pytest.raises(UnknownMethodError):
            create("ephemeral")

    def test_registering_a_method_class_directly(self, small_weighted_graph):
        @register_method("constant_class", backends=("matrix",))
        class RegisteredConstant(ConstantSimilarity):
            name = "constant_class"

        try:
            method = create("constant_class").fit(small_weighted_graph)
            assert method.query_similarity("camera", "pc") == pytest.approx(0.5)
        finally:
            unregister_method("constant_class")


class TestDeprecationShim:
    def test_create_method_still_works_with_a_warning(self, small_weighted_graph):
        with pytest.warns(DeprecationWarning):
            method = create_method("weighted_simrank")
        method.fit(small_weighted_graph)
        assert method.query_similarity("camera", "digital camera") > 0

    def test_create_method_keeps_old_error_contract(self):
        with pytest.warns(DeprecationWarning):
            with pytest.raises(ValueError):
                create_method("not-a-method")
        with pytest.warns(DeprecationWarning):
            with pytest.raises(ValueError):
                create_method("simrank", backend="gpu")
