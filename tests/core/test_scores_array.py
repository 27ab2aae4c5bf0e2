"""The array-backed score store must behave exactly like the dict-backed one."""

import numpy as np
import pytest
from scipy import sparse

from repro.core.scores import SimilarityScores
from repro.core.scores_array import ArraySimilarityScores


def make_store(pairs, index):
    """An array store holding the given ``{(i_node, j_node): value}`` pairs."""
    n = len(index)
    pos = {node: i for i, node in enumerate(index)}
    matrix = np.zeros((n, n))
    for (first, second), value in pairs.items():
        matrix[pos[first], pos[second]] = value
        matrix[pos[second], pos[first]] = value
    return ArraySimilarityScores.from_dense(matrix, index)


@pytest.fixture
def store():
    return make_store(
        {("q", "x"): 0.2, ("q", "y"): 0.8, ("q", "z"): 0.5, ("x", "y"): 0.3},
        ["q", "x", "y", "z", "isolated"],
    )


@pytest.fixture
def dict_store():
    scores = SimilarityScores()
    scores.set("q", "x", 0.2)
    scores.set("q", "y", 0.8)
    scores.set("q", "z", 0.5)
    scores.set("x", "y", 0.3)
    return scores


class TestScoreLookups:
    def test_identity_missing_and_stored_pairs(self, store):
        assert store.score("q", "q") == 1.0
        assert store.score("unknown", "unknown") == 1.0
        assert store.score("q", "unknown") == 0.0
        assert store.score("q", "isolated") == 0.0
        assert store.score("q", "y") == pytest.approx(0.8)
        assert store.score("y", "q") == pytest.approx(0.8)

    def test_neighbors(self, store, dict_store):
        assert store.neighbors("q") == dict_store.neighbors("q")
        assert store.neighbors("isolated") == {}
        assert store.neighbors("unknown") == {}

    def test_len_and_nonzero_count(self, store, dict_store):
        assert len(store) == len(dict_store) == 4
        assert store.nonzero_count() == 4

    def test_nodes_excludes_isolated_rows(self, store):
        assert sorted(store.nodes()) == ["q", "x", "y", "z"]


class TestTop:
    def test_matches_dict_store(self, store, dict_store):
        for k in (1, 2, 3, 10):
            assert store.top("q", k=k) == dict_store.top("q", k=k)
        assert store.top("q", k=5, minimum=0.4) == dict_store.top("q", k=5, minimum=0.4)
        assert store.top("isolated", k=3) == []
        assert store.top("unknown", k=3) == []
        assert store.top("q", k=0) == []

    def test_tie_break_is_deterministic_at_the_partition_boundary(self):
        # Five equal scores, k=2: the partition must keep all boundary ties
        # so the repr tie-break picks the lexicographically smallest names.
        store = make_store(
            {("q", name): 0.5 for name in ("e", "d", "c", "b", "a")},
            ["q", "a", "b", "c", "d", "e"],
        )
        assert store.top("q", k=2) == [("a", 0.5), ("b", 0.5)]

    def test_minimum_is_exclusive(self):
        store = make_store({("q", "x"): 0.5}, ["q", "x"])
        assert store.top("q", k=5, minimum=0.5) == []


class TestPairs:
    def test_each_unordered_pair_exactly_once(self, store):
        pairs = list(store.pairs())
        assert len(pairs) == 4
        normalized = {frozenset((a, b)) for a, b, _ in pairs}
        assert len(normalized) == 4

    def test_values_match_lookups(self, store):
        for first, second, value in store.pairs():
            assert store.score(first, second) == pytest.approx(value)


class TestMaxDifference:
    def test_array_vs_array_same_index(self, store):
        clone = store.copy()
        assert store.max_difference(clone) == 0.0

    def test_array_vs_dict_both_directions(self, store, dict_store):
        assert store.max_difference(dict_store) == 0.0
        assert dict_store.max_difference(store) == 0.0
        dict_store.set("q", "y", 0.6)
        assert store.max_difference(dict_store) == pytest.approx(0.2)
        assert dict_store.max_difference(store) == pytest.approx(0.2)

    def test_pair_stored_on_one_side_only(self, store):
        other = SimilarityScores()
        other.set("new", "pair", 0.3)
        assert store.max_difference(other) == pytest.approx(0.8)


class TestConstruction:
    def test_from_dense_threshold_is_exclusive(self):
        matrix = np.array([[0.0, 0.5], [0.5, 0.0]])
        kept = ArraySimilarityScores.from_dense(matrix, ["a", "b"], min_score=0.4)
        dropped = ArraySimilarityScores.from_dense(matrix, ["a", "b"], min_score=0.5)
        assert len(kept) == 1 and len(dropped) == 0

    def test_from_dense_ignores_diagonal(self):
        matrix = np.array([[1.0, 0.2], [0.2, 1.0]])
        store = ArraySimilarityScores.from_dense(matrix, ["a", "b"])
        assert len(store) == 1
        assert store.score("a", "a") == 1.0

    def test_empty_store(self):
        store = ArraySimilarityScores.from_dense(np.zeros((0, 0)), [])
        assert len(store) == 0
        assert list(store.pairs()) == []
        assert store.max_difference(SimilarityScores()) == 0.0

    def test_shape_index_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ArraySimilarityScores(sparse.csr_matrix((2, 2)), ["only-one"])

    def test_stitched_is_block_diagonal(self):
        first = make_store({("a", "b"): 0.5}, ["a", "b"])
        second = make_store({("c", "d"): 0.3}, ["c", "d"])
        combined = ArraySimilarityScores.stitched([first, second])
        assert combined.score("a", "b") == pytest.approx(0.5)
        assert combined.score("c", "d") == pytest.approx(0.3)
        assert combined.score("a", "c") == 0.0
        assert len(combined) == 2

    def test_stitched_of_nothing_is_empty(self):
        assert len(ArraySimilarityScores.stitched([])) == 0


def explicit_zero_matrix():
    """A symmetric CSR matrix storing one real pair and one *explicit* zero."""
    rows = [0, 1, 0, 2]
    columns = [1, 0, 2, 0]
    data = [0.5, 0.5, 0.0, 0.0]
    return sparse.csr_matrix((data, (rows, columns)), shape=(3, 3))


class TestExplicitZeros:
    """Regression: nonzero_count boxed every pair through a Python loop.

    Explicit zeros are now eliminated once at construction, so every count
    (``len``, ``nonzero_count``) is a pure ``nnz`` read -- including through
    the ``stitched`` and ``copy`` paths, which construct new stores.
    """

    def test_constructor_eliminates_explicit_zeros(self):
        store = ArraySimilarityScores(explicit_zero_matrix(), ["a", "b", "c"])
        assert store.nonzero_count() == 1
        assert len(store) == 1
        assert list(store.pairs()) == [("a", "b", 0.5)]
        assert store.score("a", "c") == 0.0

    def test_stitched_drops_explicit_zeros(self):
        first = ArraySimilarityScores(explicit_zero_matrix(), ["a", "b", "c"])
        second = make_store({("d", "e"): 0.3}, ["d", "e"])
        combined = ArraySimilarityScores.stitched([first, second])
        assert combined.nonzero_count() == 2
        assert len(combined) == 2

    def test_copy_preserves_counts(self):
        store = ArraySimilarityScores(explicit_zero_matrix(), ["a", "b", "c"])
        clone = store.copy()
        assert clone.nonzero_count() == store.nonzero_count() == 1
        assert clone.max_difference(store) == 0.0

    def test_nonzero_count_matches_dict_store_semantics(self, store, dict_store):
        assert store.nonzero_count() == dict_store.nonzero_count()


class TestDictArrayConversion:
    """SimilarityScores.to_array / from_array (the snapshot bridge)."""

    def test_to_array_preserves_every_read(self, dict_store):
        array = dict_store.to_array()
        assert array.max_difference(dict_store) == 0.0
        assert array.top("q", k=3) == dict_store.top("q", k=3)
        assert array.nonzero_count() == dict_store.nonzero_count()
        assert sorted(array.nodes(), key=repr) == sorted(dict_store.nodes(), key=repr)

    def test_round_trip_is_lossless(self, dict_store):
        round_tripped = SimilarityScores.from_array(dict_store.to_array())
        assert round_tripped.max_difference(dict_store) == 0.0
        assert len(round_tripped) == len(dict_store)
        assert round_tripped.neighbors("q") == dict_store.neighbors("q")

    def test_empty_conversion(self):
        array = SimilarityScores().to_array()
        assert len(array) == 0
        assert len(SimilarityScores.from_array(array)) == 0
