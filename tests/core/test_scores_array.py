"""The array-backed score store must behave exactly like the dict-backed one."""

import numpy as np
import pytest

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
            ArraySimilarityScores([(np.zeros((2, 2)), ["only-one"])])
        with pytest.raises(ValueError):
            ArraySimilarityScores([(np.zeros((2, 3)), ["a", "b"])])

    def test_node_in_two_blocks_rejected(self):
        with pytest.raises(ValueError, match="more than one block"):
            ArraySimilarityScores(
                [(np.zeros((1, 1)), ["a"]), (np.zeros((2, 2)), ["b", "a"])]
            )

    def test_stitched_is_block_diagonal(self):
        first = make_store({("a", "b"): 0.5}, ["a", "b"])
        second = make_store({("c", "d"): 0.3}, ["c", "d"])
        combined = ArraySimilarityScores.stitched([first, second])
        assert combined.score("a", "b") == pytest.approx(0.5)
        assert combined.score("c", "d") == pytest.approx(0.3)
        assert combined.score("a", "c") == 0.0
        assert combined.top("a", k=5) == [("b", 0.5)]
        assert len(combined) == 2
        assert [nodes for _, nodes in combined.blocks] == [["a", "b"], ["c", "d"]]
        assert combined.index == ["a", "b", "c", "d"]
        # The blocks are adopted, not copied.
        assert combined.blocks[0][0] is first.blocks[0][0]

    def test_stitched_of_nothing_is_empty(self):
        assert len(ArraySimilarityScores.stitched([])) == 0


def explicit_zero_block():
    """A symmetric block holding one real pair; every other entry is zero."""
    matrix = np.zeros((3, 3))
    matrix[0, 1] = matrix[1, 0] = 0.5
    return matrix, ["a", "b", "c"]


class TestExplicitZeros:
    """Regression: nonzero_count boxed every pair through a Python loop.

    A zero entry means "not stored": it is counted out once at
    construction, so every count (``len``, ``nonzero_count``) is a pure
    read -- including through the ``stitched`` and ``copy`` paths, which
    construct new stores.
    """

    def test_constructor_eliminates_explicit_zeros(self):
        store = ArraySimilarityScores([explicit_zero_block()])
        assert store.nonzero_count() == 1
        assert len(store) == 1
        assert list(store.pairs()) == [("a", "b", 0.5)]
        assert store.score("a", "c") == 0.0

    def test_stitched_drops_explicit_zeros(self):
        first = ArraySimilarityScores([explicit_zero_block()])
        second = make_store({("d", "e"): 0.3}, ["d", "e"])
        combined = ArraySimilarityScores.stitched([first, second])
        assert combined.nonzero_count() == 2
        assert len(combined) == 2

    def test_copy_preserves_counts(self):
        store = ArraySimilarityScores([explicit_zero_block()])
        clone = store.copy()
        assert clone.nonzero_count() == store.nonzero_count() == 1
        assert clone.max_difference(store) == 0.0
        assert clone.blocks[0][0] is not store.blocks[0][0]

    def test_zero_entries_never_reach_top_or_neighbors(self):
        store = ArraySimilarityScores([explicit_zero_block()])
        assert store.neighbors("a") == {"b": 0.5}
        assert store.neighbors("c") == {}
        # A negative minimum must not turn zero ("not stored") entries into
        # candidates.
        assert store.top("a", k=5, minimum=-1.0) == [("b", 0.5)]
        assert store.top("c", k=5, minimum=-1.0) == []
        assert sorted(store.nodes()) == ["a", "b"]

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

    def test_to_array_is_one_block_over_the_sorted_index(self, dict_store):
        (matrix, nodes), = dict_store.to_array().blocks
        assert nodes == ["q", "x", "y", "z"]
        assert matrix.shape == (4, 4)
        assert np.array_equal(matrix, matrix.T)
        assert not matrix.diagonal().any()

    def test_empty_conversion(self):
        array = SimilarityScores().to_array()
        assert len(array) == 0
        assert len(SimilarityScores.from_array(array)) == 0


class TestBlocks:
    """Layout contracts the snapshot writer relies on."""

    @pytest.fixture
    def two_blocks(self):
        return ArraySimilarityScores.stitched(
            [
                make_store({("a", "b"): 0.5, ("a", "c"): 0.25, ("b", "c"): 0.125}, ["a", "b", "c"]),
                make_store({("d", "e"): 0.75}, ["d", "e"]),
            ]
        )

    def test_pairs_walk_blocks_in_order_row_major(self, two_blocks):
        assert list(two_blocks.pairs()) == [
            ("a", "b", 0.5),
            ("a", "c", 0.25),
            ("b", "c", 0.125),
            ("d", "e", 0.75),
        ]

    def test_from_dense_mirrors_the_upper_triangle_bit_for_bit(self):
        rng = np.random.default_rng(3)
        raw = rng.random((6, 6))
        # Symmetric only up to rounding, as a fixpoint iteration leaves it.
        raw = raw + raw.T + rng.normal(scale=1e-15, size=(6, 6))
        (matrix, _), = ArraySimilarityScores.from_dense(raw, list("abcdef")).blocks
        assert np.array_equal(matrix, matrix.T)
        upper = np.triu(raw, k=1)
        assert np.array_equal(np.triu(matrix, k=1), upper)

    def test_max_difference_across_block_layouts(self, two_blocks):
        # The same scores in a single block: the generic path must agree.
        single = np.zeros((5, 5))
        single[:3, :3] = two_blocks.blocks[0][0]
        single[3:, 3:] = two_blocks.blocks[1][0]
        merged = ArraySimilarityScores([(single, two_blocks.index)])
        assert two_blocks.max_difference(merged) == 0.0
        assert merged.max_difference(two_blocks) == 0.0
