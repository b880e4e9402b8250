import hashlib
import json

import numpy as np
import pytest

from eosforensics import forest
from eosforensics.errors import TrainingError

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


def test_seed_children_are_prefixes():
    short = np.random.SeedSequence(11).spawn(5)
    long = np.random.SeedSequence(11).spawn(20)
    assert [s.generate_state(4).tolist() for s in short] == [
        s.generate_state(4).tolist() for s in long[:5]
    ]


def test_prefix_forests_equal_forests_fitted_alone():
    X, y = _blobs(n_per_class=70, gap=1.0)
    sizes = (3, 8, 20)
    trees, scores = forest._fit_prefixes(X, y, (6,), 2, 11, sizes)[6]
    assert len(trees) == 20
    for k in sizes:
        alone = forest.RandomForest(n_trees=k, max_depth=6, min_leaf=2, seed=11).fit(X, y)
        prefix = forest.RandomForest(n_trees=k, max_depth=6, min_leaf=2, seed=11,
                                     trees=trees[:k], oob_score=scores[k])
        assert prefix.to_json() == alone.to_json()


def _count_tree_fits(monkeypatch):
    calls = []
    fit = forest._Tree.fit

    def counting_fit(self, *args):
        calls.append(args[2])  # max_depth
        return fit(self, *args)

    monkeypatch.setattr(forest._Tree, "fit", counting_fit)
    return calls


def test_depth_forests_equal_forests_fitted_alone(monkeypatch):
    # Overlapping classes: some trees stop above depth 2 or 4 and are
    # reused there, others grow deeper and must be refitted.
    X, y = _blobs(n_per_class=70, gap=2.0)
    depths, sizes = (2, 4, None), (10, 30)
    fits = _count_tree_fits(monkeypatch)
    cells = forest._fit_prefixes(X, y, depths, 1, 11, sizes)
    assert fits.count(None) == 30  # each tree grows once at the deepest depth
    assert 30 < len(fits) < 90  # both the reuse and the refit branch ran
    monkeypatch.undo()
    for d in depths:
        trees, scores = cells[d]
        assert len(trees) == 30
        for k in sizes:
            alone = forest.RandomForest(n_trees=k, max_depth=d, min_leaf=1, seed=11).fit(X, y)
            shared = forest.RandomForest(n_trees=k, max_depth=d, min_leaf=1, seed=11,
                                         trees=trees[:k], oob_score=scores[k])
            assert shared.to_json() == alone.to_json()  # oob_score included


def test_default_grid_grows_each_min_leaf_once(monkeypatch):
    X, y = _blobs(gap=10.0)
    fits = _count_tree_fits(monkeypatch)
    result = forest.train_classifier(X, y, seed=0)
    # every tree is one split at the root, so each of the 3 min_leaf cells
    # grows its 200 trees once for all 4 depths, and the winner is one of them
    assert len(fits) == 3 * 200
    assert len(result.model.trees) == result.best_params["n_trees"]


def test_winner_is_its_grid_cell_not_a_refit(monkeypatch):
    # Overlapping classes, so trees grow to different depths: the winner
    # takes no tree fit beyond the grid's, and equals a forest of its
    # parameters fitted alone on the same training split.
    X, y = _blobs(n_per_class=60, seed=5, gap=1.0)
    grid = {"n_trees": (5, 10), "max_depth": (2, None), "min_leaf": (1, 3)}
    fits = _count_tree_fits(monkeypatch)
    result = forest.train_classifier(X, y, seed=9, grid=grid)
    trained = len(fits)
    train_idx = np.random.default_rng(9).permutation(len(y))[:int(round(0.8 * len(y)))]
    del fits[:]
    for min_leaf in grid["min_leaf"]:
        forest._fit_prefixes(X[train_idx], y[train_idx], grid["max_depth"], min_leaf,
                             9, grid["n_trees"])
    assert trained == len(fits)
    alone = forest.RandomForest(seed=9, **result.best_params).fit(X[train_idx], y[train_idx])
    assert result.model.to_json() == alone.to_json()


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
