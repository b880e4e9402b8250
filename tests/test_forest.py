import hashlib
import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eosforensics import forest
from eosforensics.errors import TrainingError
from tests_support import OracleTree, oracle_fit_prefixes

SMALL_GRID = {"n_trees": (25,), "max_depth": (8,), "min_leaf": (1,)}


def _blobs(n_per_class=300, seed=0, gap=4.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, size=(n_per_class, 5))
    b = rng.normal(gap, 1.0, size=(n_per_class, 5))
    X = np.vstack([a, b])
    y = np.array([0] * n_per_class + [1] * n_per_class)
    return X, y


def test_separable_data_high_accuracy():
    X, y = _blobs()
    result = forest.train_classifier(X, y, seed=7, grid=SMALL_GRID)
    assert result.test_accuracy >= 0.98
    assert result.model.oob_score is not None and result.model.oob_score > 0.95


def test_deterministic_fit():
    X, y = _blobs(n_per_class=100)
    m1 = forest.RandomForest(n_trees=10, max_depth=6, seed=42).fit(X, y)
    m2 = forest.RandomForest(n_trees=10, max_depth=6, seed=42).fit(X, y)
    assert m1.to_json() == m2.to_json()
    m3 = forest.RandomForest(n_trees=10, max_depth=6, seed=43).fit(X, y)
    assert m3.to_json() != m1.to_json()


def test_persistence_round_trip(tmp_path):
    X, y = _blobs(n_per_class=80)
    model = forest.RandomForest(n_trees=8, max_depth=4, seed=1).fit(X, y)
    path = tmp_path / "model.json"
    model.save(path)
    again = forest.RandomForest.load(path)
    assert np.array_equal(model.predict(X), again.predict(X))
    assert again.to_json() == model.to_json()


def test_unsupported_version_rejected(tmp_path):
    with pytest.raises(TrainingError):
        forest.RandomForest.from_json({"format_version": 999})


def test_single_class_rejected():
    X = np.zeros((10, 3))
    y = np.zeros(10)
    with pytest.raises(TrainingError):
        forest.RandomForest(n_trees=2).fit(X, y)


def test_min_leaf_respected():
    X, y = _blobs(n_per_class=60)
    model = forest.RandomForest(n_trees=5, min_leaf=20, seed=0).fit(X, y)
    # leaves must never have fewer than min_leaf training rows; verify by
    # checking the tree never splits tiny nodes (structural proxy: node
    # count is bounded well below the unconstrained case)
    deep = forest.RandomForest(n_trees=5, min_leaf=1, seed=0).fit(X, y)
    assert sum(len(t.feature) for t in model.trees) <= sum(
        len(t.feature) for t in deep.trees
    )


def test_predict_prob_bounds():
    X, y = _blobs(n_per_class=50)
    model = forest.RandomForest(n_trees=6, seed=3).fit(X, y)
    probs = model.predict_prob(X)
    assert ((probs >= 0.0) & (probs <= 1.0)).all()


@pytest.mark.parametrize("walk_rows", [1, 7, 64, 1 << 16])  # 1 << 16: one walk of every tree
def test_predict_prob_is_the_per_tree_sum(walk_rows):
    """The batched walk sums each row's tree probabilities in tree order, so
    every probability is that of a walk tree by tree, bit for bit, whatever
    rows each batch holds."""
    rng = np.random.default_rng(2)
    X = rng.normal(size=(120, 4))
    y = (X[:, 0] + rng.normal(size=120) > 0).astype(np.int64)  # noisy: leaves of 3/7 and such
    model = forest.RandomForest(n_trees=25, min_leaf=5, seed=4).fit(X, y)
    total = np.zeros(len(X))
    for tree in model.trees:
        total += tree.predict_prob(X)
    with mock.patch.object(forest, "WALK_ROWS", walk_rows):
        assert np.array_equal(model.predict_prob(X), total / len(model.trees))
        assert model.predict_prob(X[:0]).shape == (0,)


def test_permuted_labels_near_chance():
    X, y = _blobs(n_per_class=250, gap=4.0)
    rng = np.random.default_rng(123)
    shuffled = rng.permutation(y)
    result = forest.train_classifier(X, shuffled, seed=5, grid=SMALL_GRID)
    assert 0.35 <= result.test_accuracy <= 0.65


def test_grid_search_reports_all_configs():
    X, y = _blobs(n_per_class=60)
    grid = {"n_trees": (5, 10), "max_depth": (4,), "min_leaf": (1, 5)}
    result = forest.train_classifier(X, y, seed=0, grid=grid)
    assert len(result.grid_scores) == 4
    assert result.best_params in [params for params, _ in result.grid_scores]


def _scalar_walk(tree, X):
    """Reference walk: one row at a time from the root."""
    out = []
    for row in X:
        node = 0
        while tree.feature[node] >= 0:
            go_left = row[tree.feature[node]] <= tree.threshold[node]
            node = tree.left[node] if go_left else tree.right[node]
        out.append(tree.prob[node])
    return np.array(out, dtype=np.float64)


def _random_tree(rng, n_features, values, max_depth):
    tree = forest._Tree()
    stack = [(tree._new_node(), 0)]
    while stack:
        node, depth = stack.pop()
        tree.prob[node] = float(rng.uniform())
        if depth == max_depth or rng.uniform() < 0.25:
            continue
        tree.feature[node] = int(rng.integers(n_features))
        tree.threshold[node] = float(rng.choice(values))
        tree.left[node] = tree._new_node()
        tree.right[node] = tree._new_node()
        stack += [(tree.left[node], depth + 1), (tree.right[node], depth + 1)]
    return tree


def test_tree_predict_matches_scalar_walk():
    rng = np.random.default_rng(9)
    # few distinct values, so rows often sit exactly on a threshold
    values = np.linspace(-1.0, 1.0, 7)
    for _ in range(30):
        tree = _random_tree(rng, 4, values, max_depth=int(rng.integers(1, 9)))
        X = rng.choice(values, size=(200, 4))
        assert np.array_equal(tree.predict_prob(X), _scalar_walk(tree, X))


def test_tree_predict_single_leaf_and_empty():
    leaf = forest._Tree()
    leaf._new_node()
    leaf.prob[0] = 0.25
    X = np.arange(12.0).reshape(4, 3)
    assert np.array_equal(leaf.predict_prob(X), _scalar_walk(leaf, X))
    assert np.array_equal(leaf.predict_prob(X), np.full(4, 0.25))
    empty = leaf.predict_prob(np.empty((0, 3)))
    assert empty.shape == (0,)


def test_tree_predict_after_json_round_trip():
    X, y = _blobs(n_per_class=80, gap=1.0)
    model = forest.RandomForest(n_trees=4, seed=2).fit(X, y)
    for tree in model.trees:
        again = forest._Tree.from_json(json.loads(json.dumps(tree.to_json())))
        assert np.array_equal(again.predict_prob(X), _scalar_walk(tree, X))
        assert np.array_equal(again.predict_prob(X[:0]), np.empty(0))


def test_copy_of_a_subclass_tree_keeps_every_node():
    # OracleTree declares __slots__ = (), so the fields are _Tree's
    X, y = _blobs(n_per_class=40, gap=1.0)
    tree = OracleTree()
    tree.fit(X, y, 3, 1, 2, np.random.default_rng(0))
    twin = tree.copy()
    assert len(tree.feature) >= 3
    assert twin.to_json() == tree.to_json()
    assert all(getattr(twin, name) is not getattr(tree, name) for name in forest._Tree.__slots__)


def test_seed_children_are_prefixes():
    short = np.random.SeedSequence(11).spawn(5)
    long = np.random.SeedSequence(11).spawn(20)
    assert [s.generate_state(4).tolist() for s in short] == [
        s.generate_state(4).tolist() for s in long[:5]
    ]


def test_prefix_forests_equal_forests_fitted_alone():
    X, y = _blobs(n_per_class=70, gap=1.0)
    sizes = (3, 8, 20)
    trees, scores = forest._fit_prefixes(X, y, (6,), (2,), 11, sizes)[6, 2]
    assert len(trees) == 20
    for k in sizes:
        alone = forest.RandomForest(n_trees=k, max_depth=6, min_leaf=2, seed=11).fit(X, y)
        prefix = forest.RandomForest(n_trees=k, max_depth=6, min_leaf=2, seed=11,
                                     trees=trees[:k], oob_score=scores[k])
        assert prefix.to_json() == alone.to_json()


def _count_split_searches(monkeypatch):
    """Record the sorted min_leaf values of every node's split search, one
    list per node of each batched search, and the row counts of the nodes of
    each batched search, one list per call."""
    calls, batches = [], []
    search = forest._best_splits

    def counting_search(bins, y, searches):
        calls.extend(sorted(min_leafs) for _, _, min_leafs in searches)
        batches.append([len(rows) for rows, _, _ in searches])
        return search(bins, y, searches)

    monkeypatch.setattr(forest, "_best_splits", counting_search)
    return calls, batches


def test_depth_forests_equal_forests_fitted_alone(monkeypatch):
    # Overlapping classes: some trees stop above depth 2 or 4 and are
    # shared there, others grow deeper and fork.
    X, y = _blobs(n_per_class=70, gap=2.0)
    depths, sizes = (2, 4, None), (10, 30)
    searches, _ = _count_split_searches(monkeypatch)
    cells = forest._fit_prefixes(X, y, depths, (1,), 11, sizes)
    grid_searches = len(searches)
    distinct = {id(tree) for trees, _ in cells.values() for tree in trees}
    assert 30 < len(distinct) < 90  # both the shared and the forked branch ran
    del searches[:]
    for d in depths:
        trees, scores = cells[d, 1]
        assert len(trees) == 30
        for k in sizes:
            alone = forest.RandomForest(n_trees=k, max_depth=d, min_leaf=1, seed=11).fit(X, y)
            shared = forest.RandomForest(n_trees=k, max_depth=d, min_leaf=1, seed=11,
                                         trees=trees[:k], oob_score=scores[k])
            assert shared.to_json() == alone.to_json()  # oob_score included
    # the depths fitted alone (10 and 30 trees each) search more nodes than
    # the grid, which searches each node its cells share once
    assert grid_searches < len(searches)


def test_default_grid_grows_each_min_leaf_once(monkeypatch):
    X, y = _blobs(gap=10.0)
    searches, batches = _count_split_searches(monkeypatch)
    result = forest.train_classifier(X, y, seed=0)
    # every tree is one split at the root, so each of the 200 tree indices
    # searches its root once for all 12 cells (3 min_leaf x 4 max_depth),
    # where fitting each min_leaf alone would search it 3 times
    assert searches == [[1, 5, 20]] * 200
    # a group's roots are searched in runs of at most SEARCH_ROWS rows
    assert len(batches) < 200
    assert all(sum(rows) <= forest.SEARCH_ROWS or len(rows) == 1 for rows in batches)
    assert len(result.model.trees) == result.best_params["n_trees"]


def test_winner_is_its_grid_cell_not_a_refit(monkeypatch):
    # Overlapping classes, so trees grow to different depths: the winner
    # takes no split search beyond the grid's, and equals a forest of its
    # parameters fitted alone on the same training split.
    X, y = _blobs(n_per_class=60, seed=5, gap=1.0)
    grid = {"n_trees": (5, 10), "max_depth": (2, None), "min_leaf": (1, 3)}
    searches, _ = _count_split_searches(monkeypatch)
    result = forest.train_classifier(X, y, seed=9, grid=grid)
    trained = len(searches)
    train_idx = np.random.default_rng(9).permutation(len(y))[:int(round(0.8 * len(y)))]
    del searches[:]
    forest._fit_prefixes(X[train_idx], y[train_idx], grid["max_depth"], grid["min_leaf"],
                         9, grid["n_trees"])
    assert trained == len(searches)
    alone = forest.RandomForest(seed=9, **result.best_params).fit(X[train_idx], y[train_idx])
    assert result.model.to_json() == alone.to_json()


ONE_UP = float(np.nextafter(1.0, 2.0))
TWO_UP = float(np.nextafter(ONE_UP, 2.0))  # (ONE_UP + TWO_UP) / 2 rounds to TWO_UP


@st.composite
def grid_problems(draw):
    """A small training set and grid: few distinct values (ties), duplicate
    rows, maybe a constant column, unbalanced labels, min_leaf at or above
    n/2, max_depth 0 and None, and unsorted forest sizes. Values include
    NaN (no split next to it), infinities, adjacent doubles and two whose
    sum overflows, where the midpoint is not below the upper value."""
    n = draw(st.integers(4, 30))
    n_features = draw(st.integers(1, 5))
    values = draw(st.lists(st.sampled_from([-1.5, 0.0, 0.25, 1.0, 3.0, ONE_UP, TWO_UP,
                                            math.nan, -math.inf, math.inf, 1.7e308,
                                            1.75e308]),
                           min_size=1, max_size=4, unique=True))
    rows = draw(st.lists(st.lists(st.sampled_from(values), min_size=n_features,
                                  max_size=n_features), min_size=n, max_size=n))
    X = np.array(rows, dtype=np.float64)
    copies = draw(st.integers(0, n // 2))
    X[n - copies:] = X[:copies]
    if draw(st.booleans()):
        X[:, -1] = values[0]
    y = np.zeros(n, dtype=np.int64)
    y[draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1, unique=True))] = 1
    depths = draw(st.lists(st.sampled_from([0, 1, 2, 3, None]), min_size=1, max_size=4,
                           unique=True))
    leafs = draw(st.lists(st.one_of(st.integers(1, 3), st.integers(n // 2, n)),
                          min_size=1, max_size=3, unique=True))
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True))
    return X, y, depths, leafs, draw(st.integers(0, 2**32 - 1)), sizes


def _tied_features(n, seed):
    """Three distinct values per feature and labels that follow feature 0,
    so min_leaf 1 and 3 often split one node differently and grow on."""
    rng = np.random.default_rng(seed)
    X = rng.choice([0.0, 1.0, 3.0], size=(n, 4))
    return X, (X[:, 0] + rng.normal(0.0, 1.0, n) > 1.2).astype(np.int64)


@settings(max_examples=100)
@given(grid_problems())
@example((*_tied_features(12, 12), [None], [1, 3], 5, [4]))
@example((*_tied_features(24, 24), [0, 2, None], [1, 2, 3], 5, [4, 2]))
def test_grid_grower_matches_per_cell_oracle(problem):
    X, y, depths, leafs, seed, sizes = problem
    oracle = {leaf: oracle_fit_prefixes(X, y, depths, leaf, seed, sizes) for leaf in leafs}
    # groups of one tree, of three trees, and of every tree; each node
    # searched and each tree walked alone, or all of a step's or group's at once
    for group_rows, batch_rows in itertools.product(
            (1, 3 * len(y), max(sizes) * len(y)), (1, 1 << 40)):
        with mock.patch.multiple(forest, GROUP_ROWS=group_rows, SEARCH_ROWS=batch_rows,
                                 WALK_ROWS=batch_rows):
            cells = forest._fit_prefixes(X, y, depths, leafs, seed, sizes)
        assert list(cells) == [(d, leaf) for d in depths for leaf in leafs]
        for leaf in leafs:
            for depth, (trees, scores) in oracle[leaf].items():
                grown, grown_scores = cells[depth, leaf]
                assert [t.to_json() for t in grown] == [t.to_json() for t in trees]
                assert grown_scores == scores


@pytest.mark.parametrize("lo, hi", [(ONE_UP, TWO_UP), (1.7e308, 1.75e308), (1.0, math.inf),
                                    (-math.inf, math.inf), (-math.inf, 1.0)])
def test_split_threshold_separates_the_two_values(lo, hi):
    # the midpoint of adjacent doubles rounds to hi, and one that overflows
    # is inf or NaN: a threshold there would send every row left, so the
    # threshold is lo
    X = np.array([[lo]] * 6 + [[hi]] * 6)
    y = np.array([0] * 6 + [1] * 6)
    model = forest.RandomForest(n_trees=3, max_depth=8, seed=1).fit(X, y)
    split = [tree for tree in model.trees if len(tree.feature) > 1]
    assert split
    for tree in split:
        assert tree.feature == [0, -1, -1]
        assert tree.threshold[0] == lo
        assert tree.predict_prob(X).tolist() == [0.0] * 6 + [1.0] * 6


def test_empty_held_out_split_rejected():
    # round(0.8 * 2) = 2 rows train, so nothing is left to test on
    with pytest.raises(TrainingError, match="held-out test split empty"):
        forest.train_classifier([[0.0], [1.0]], [0, 1], grid=SMALL_GRID)


# Computed with the per-configuration fit and the per-row tree walk that
# the prefix fit and the vectorised walk replaced.
GOLDEN_MODEL_SHA256 = "6ef7b5df5546c6bed3b6d2cce46d4fed2073488548e94feb566856593bd4186c"
GOLDEN_GRID_SCORES = [
    0.7083333333333334, 0.7604166666666666, 0.71875, 0.75, 0.78125, 0.71875,
    0.7395833333333334, 0.78125, 0.71875, 0.7395833333333334, 0.78125, 0.71875,
    0.71875, 0.7395833333333334, 0.71875, 0.75, 0.7291666666666666, 0.71875,
    0.7604166666666666, 0.7291666666666666, 0.71875, 0.7604166666666666,
    0.7291666666666666, 0.71875, 0.7291666666666666, 0.71875, 0.7083333333333334,
    0.7291666666666666, 0.7291666666666666, 0.7083333333333334, 0.7291666666666666,
    0.7291666666666666, 0.7083333333333334, 0.7291666666666666, 0.7291666666666666,
    0.7083333333333334,
]


def test_default_grid_golden():
    rng = np.random.default_rng(2020)
    X = rng.normal(size=(120, 5))
    y = (X[:, 0] + 0.5 * X[:, 1] + rng.normal(0.0, 0.8, size=120) > 0).astype(int)
    result = forest.train_classifier(X, y, seed=3)
    model_json = json.dumps(result.model.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(model_json).hexdigest() == GOLDEN_MODEL_SHA256
    assert [params for params, _ in result.grid_scores] == list(
        forest._grid_configs(forest.DEFAULT_GRID))
    assert [score for _, score in result.grid_scores] == GOLDEN_GRID_SCORES
    # ties at the top go to the first configuration in grid order
    assert result.best_params == {"n_trees": 50, "max_depth": 8, "min_leaf": 5}
