"""Bagged decision-tree ensemble (Gini impurity, majority vote) with a
deterministic seed contract and portable JSON persistence.

Kept dependency-free on purpose: the classifier ships with the toolkit
and its predictions must be reproducible bit-for-bit from (data, seed).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingError

FORMAT_VERSION = 1
TRAIN_SHARE = 0.8  # of the labeled rows; the rest is the held-out test split

DEFAULT_GRID = {
    "n_trees": (50, 100, 200),
    "max_depth": (4, 8, 16, None),
    "min_leaf": (1, 5, 20),
}


def _grid_configs(grid):
    for n_trees in grid["n_trees"]:
        for max_depth in grid["max_depth"]:
            for min_leaf in grid["min_leaf"]:
                yield {"n_trees": n_trees, "max_depth": max_depth, "min_leaf": min_leaf}


class _Tree:
    """One CART tree stored as parallel arrays (feature, threshold,
    children, leaf probability)."""

    __slots__ = ("feature", "threshold", "left", "right", "prob")

    def __init__(self):
        self.feature = []
        self.threshold = []
        self.left = []
        self.right = []
        self.prob = []

    def _new_node(self):
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.prob.append(0.0)
        return len(self.feature) - 1

    def fit(self, X, y, max_depth, min_leaf, max_features, rng):
        """Grow the tree depth first, drawing each splittable node's feature
        subset from `rng`. Returns the deepest depth at which a node drew
        (-1 if none did): a fit with a max_depth above that depth draws and
        grows exactly the same, so it is the same tree."""
        root = self._new_node()
        stack = [(root, np.arange(X.shape[0]), 0)]
        n_features = X.shape[1]
        drew = -1
        while stack:
            node, idx, depth = stack.pop()
            ys = y[idx]
            pos = int(ys.sum())
            self.prob[node] = pos / len(ys)
            if (
                pos == 0
                or pos == len(ys)
                or len(ys) < 2 * min_leaf
                or (max_depth is not None and depth >= max_depth)
            ):
                continue
            drew = max(drew, depth)
            feats = rng.choice(n_features, size=max_features, replace=False)
            cols = X[idx[:, None], feats]
            best = _best_split(cols, ys, min_leaf)
            if best is None:
                continue
            j, thr = best
            mask = cols[:, j] <= thr
            self.feature[node] = int(feats[j])
            self.threshold[node] = float(thr)
            left = self._new_node()
            right = self._new_node()
            self.left[node] = left
            self.right[node] = right
            stack.append((right, idx[~mask], depth + 1))
            stack.append((left, idx[mask], depth + 1))
        return drew

    def predict_prob(self, X):
        """Leaf probability per row of `X`. All rows descend together, one
        tree level per step, by the same `x <= threshold` test."""
        feature = np.asarray(self.feature, dtype=np.intp)
        threshold = np.asarray(self.threshold, dtype=np.float64)
        left = np.asarray(self.left, dtype=np.intp)
        right = np.asarray(self.right, dtype=np.intp)
        node = np.zeros(X.shape[0], dtype=np.intp)
        rows = np.arange(X.shape[0])
        while rows.size:
            at = node[rows]
            inner = feature[at] >= 0
            rows, at = rows[inner], at[inner]
            go_left = X[rows, feature[at]] <= threshold[at]
            node[rows] = np.where(go_left, left[at], right[at])
        return np.asarray(self.prob, dtype=np.float64)[node]

    def to_json(self):
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left,
            "right": self.right,
            "prob": self.prob,
        }

    @classmethod
    def from_json(cls, obj):
        t = cls()
        t.feature = list(obj["feature"])
        t.threshold = list(obj["threshold"])
        t.left = list(obj["left"])
        t.right = list(obj["right"])
        t.prob = list(obj["prob"])
        return t


def _best_split(cols, ys, min_leaf):
    """Exhaustive split search over the candidate feature columns `cols`
    (one row per sample at the node), all columns at once. Returns
    (column, threshold) or None. Columns are tried in order, and a later
    one wins only with a Gini lower by more than 1e-12."""
    n = len(ys)
    order = np.argsort(cols, axis=0, kind="stable")
    sorted_cols = cols[order, np.arange(cols.shape[1])]
    pos_left = np.cumsum(ys[order], axis=0)[:-1]
    n_left = np.arange(1, n)[:, None]
    n_right = n - n_left
    # splits only between distinct adjacent values, honoring min_leaf
    valid = sorted_cols[:-1] < sorted_cols[1:]
    valid &= (n_left >= min_leaf) & (n_right >= min_leaf)
    pos_right = ys.sum() - pos_left
    share_left = pos_left / n_left
    share_right = pos_right / n_right
    gini_left = 1.0 - share_left ** 2 - (1 - share_left) ** 2
    gini_right = 1.0 - share_right ** 2 - (1 - share_right) ** 2
    weighted = (n_left * gini_left + n_right * gini_right) / n
    weighted[~valid] = math.inf
    ks = np.argmin(weighted, axis=0)
    best_gini = math.inf
    best = None
    for j, k in enumerate(ks):
        if weighted[k, j] < best_gini - 1e-12:
            best_gini = weighted[k, j]
            best = (j, (sorted_cols[k, j] + sorted_cols[k + 1, j]) / 2.0)
    return best


def _fit_prefixes(X, y, max_depths, min_leaf, seed, sizes):
    """Fit max(sizes) trees at each depth in `max_depths` and return, per
    depth, the trees and the out-of-bag accuracy (None when no row is ever
    out of bag) of each leading run of trees whose length is in `sizes`.

    Tree i grows from child i of SeedSequence(seed), and the first k
    children of spawn(m) are spawn(k), so the first k trees are exactly
    the forest of k trees. Out-of-bag votes add up tree by tree in that
    order, so each prefix's score is the one its own fit would give.

    Tree i is fitted first at the deepest depth (None is unlimited). A
    shallower depth d reuses the last tree fitted for tree i, with its
    out-of-bag predictions, when that tree drew features at no node of
    depth d or deeper: the depth-d fit would stop at the same nodes and
    draw the same features, so it is the same tree. Otherwise tree i is
    fitted afresh at depth d from the same seed child."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if len(np.unique(y)) < 2:
        raise TrainingError("training labels contain a single class")
    n = X.shape[0]
    max_features = max(1, int(math.sqrt(X.shape[1])))
    depths = sorted(set(max_depths), key=lambda d: math.inf if d is None else d,
                    reverse=True)
    trees = {d: [] for d in depths}
    scores = {d: dict.fromkeys(sizes) for d in depths}
    oob_votes = {d: np.zeros(n) for d in depths}
    oob_counts = np.zeros(n)
    for k, ss in enumerate(np.random.SeedSequence(seed).spawn(max(sizes)), start=1):
        tree = None
        for d in depths:
            # only the first, deepest depth can be None, and it always fits
            if tree is None or drew >= d:
                rng = np.random.default_rng(ss)
                sample = rng.integers(0, n, size=n)
                tree = _Tree()
                drew = tree.fit(X[sample], y[sample], d, min_leaf, max_features, rng)
                oob = np.ones(n, dtype=bool)
                oob[sample] = False
                oob_prob = tree.predict_prob(X[oob])
            trees[d].append(tree)
            oob_votes[d][oob] += oob_prob
        oob_counts[oob] += 1
        covered = oob_counts > 0
        if k in sizes and covered.any():
            for d in depths:
                pred = (oob_votes[d][covered] / oob_counts[covered]) >= 0.5
                scores[d][k] = float(np.mean(pred == (y[covered] == 1)))
    return {d: (trees[d], scores[d]) for d in depths}


@dataclass
class RandomForest:
    n_trees: int = 100
    max_depth: int | None = None
    min_leaf: int = 1
    seed: int = 0
    trees: list = field(default_factory=list)
    oob_score: float | None = None

    def fit(self, X, y):
        self.trees, scores = _fit_prefixes(
            X, y, (self.max_depth,), self.min_leaf, self.seed,
            (self.n_trees,))[self.max_depth]
        self.oob_score = scores[self.n_trees]
        return self

    def predict_prob(self, X):
        X = np.asarray(X, dtype=np.float64)
        total = np.zeros(X.shape[0])
        for tree in self.trees:
            total += tree.predict_prob(X)
        return total / len(self.trees)

    def predict(self, X):
        return (self.predict_prob(X) >= 0.5).astype(np.int64)

    def score(self, X, y):
        return float(np.mean(self.predict(X) == np.asarray(y)))

    def to_json(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
            "seed": self.seed,
            "oob_score": self.oob_score,
            "trees": [t.to_json() for t in self.trees],
        }

    @classmethod
    def from_json(cls, obj) -> "RandomForest":
        if obj.get("format_version") != FORMAT_VERSION:
            raise TrainingError(f"unsupported model version: {obj.get('format_version')}")
        forest = cls(
            n_trees=obj["n_trees"],
            max_depth=obj["max_depth"],
            min_leaf=obj["min_leaf"],
            seed=obj["seed"],
        )
        forest.oob_score = obj.get("oob_score")
        forest.trees = [_Tree.from_json(t) for t in obj["trees"]]
        return forest

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, sort_keys=True)

    @classmethod
    def load(cls, path) -> "RandomForest":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


@dataclass
class TrainResult:
    model: RandomForest
    test_accuracy: float
    best_params: dict
    grid_scores: list  # (params, oob score)


def train_classifier(X, y, seed=0, grid=None) -> TrainResult:
    """Shuffle, split train/test, grid-search forest hyperparameters by
    out-of-bag accuracy on the training split, and report held-out
    accuracy. Deterministic under a fixed seed."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    grid = grid or DEFAULT_GRID
    rng = np.random.default_rng(seed)
    order = rng.permutation(X.shape[0])
    cut = int(round(TRAIN_SHARE * X.shape[0]))
    train_idx, test_idx = order[:cut], order[cut:]
    if len(np.unique(y[train_idx])) < 2:
        raise TrainingError("training split contains a single class")

    X_train, y_train = X[train_idx], y[train_idx]
    # One fit per min_leaf grows every (n_trees, max_depth) cell: each
    # smaller forest is a prefix of the largest, and each tree is grown once
    # for every max_depth it never reached. The winner is its cell's prefix.
    cells = {}  # (n_trees, max_depth, min_leaf) -> (trees, oob score)
    for min_leaf in grid["min_leaf"]:
        fitted = _fit_prefixes(
            X_train, y_train, grid["max_depth"], min_leaf, seed, grid["n_trees"])
        for max_depth, (trees, cell_scores) in fitted.items():
            for n_trees, score in cell_scores.items():
                cells[n_trees, max_depth, min_leaf] = (trees[:n_trees], score)
    best_score = -1.0
    best_params = None
    scores = []
    for params in _grid_configs(grid):
        oob = cells[params["n_trees"], params["max_depth"], params["min_leaf"]][1]
        score = oob if oob is not None else 0.0
        scores.append((params, score))
        if score > best_score + 1e-12:
            best_score = score
            best_params = params
    trees, oob = cells[best_params["n_trees"], best_params["max_depth"],
                       best_params["min_leaf"]]
    best_model = RandomForest(seed=seed, trees=trees, oob_score=oob, **best_params)
    test_accuracy = best_model.score(X[test_idx], y[test_idx])
    return TrainResult(best_model, test_accuracy, best_params, scores)
