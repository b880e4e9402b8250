"""Bagged decision-tree ensemble (Gini impurity, majority vote) with a
deterministic seed contract and portable JSON persistence.

Kept dependency-free on purpose: the classifier ships with the toolkit
and its predictions must be reproducible bit-for-bit from (data, seed).
`train_classifier` picks the grid cell with the best out-of-bag accuracy.
Tree k of every cell grows from child k of SeedSequence(seed), so each
tree index is grown once for the whole grid (`_grow`): cells share a
tree until their decisions differ, and each cell's trees are the ones a
forest of its parameters fitted alone would grow.
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

    def copy(self):
        return _Tree.from_json(self.to_json())

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

    # the fields are _Tree.__slots__: a subclass's own __slots__ is empty
    def to_json(self):
        return {name: getattr(self, name) for name in _Tree.__slots__}

    @classmethod
    def from_json(cls, obj):
        t = cls()
        for name in _Tree.__slots__:
            setattr(t, name, list(obj[name]))
        return t


def _best_splits(cols, ys, min_leafs):
    """Exhaustive split search over the candidate feature columns `cols`
    (one row per sample at the node), all columns at once, for each
    min_leaf in `min_leafs`. Returns {min_leaf: (column, threshold) or
    None}. Columns are tried in order, and a later one wins only with a
    Gini lower by more than 1e-12.

    Any sort order serves: at a split between distinct adjacent values the
    left side holds exactly the rows at or below the lower value, however
    ties are ordered, and every other position is ruled out."""
    n = len(ys)
    order = np.argsort(cols, axis=0)
    sorted_cols = cols[order, np.arange(cols.shape[1])]
    pos_left = np.cumsum(ys[order], axis=0)[:-1]
    n_left = np.arange(1, n)[:, None]
    n_right = n - n_left
    pos_right = ys.sum() - pos_left
    share_left = pos_left / n_left
    share_right = pos_right / n_right
    gini_left = 1.0 - share_left ** 2 - (1 - share_left) ** 2
    gini_right = 1.0 - share_right ** 2 - (1 - share_right) ** 2
    weighted = (n_left * gini_left + n_right * gini_right) / n
    # splits only between distinct adjacent values
    weighted[~(sorted_cols[:-1] < sorted_cols[1:])] = math.inf
    splits = {}
    for min_leaf in min_leafs:
        # row k leaves k + 1 samples on the left: keep both sides >= min_leaf
        lo = max(min_leaf, 1) - 1
        allowed = weighted[lo:n - lo - 1]
        ks = np.argmin(allowed, axis=0)
        best_gini = math.inf
        best = None
        for j, k in enumerate(ks):
            if allowed[k, j] < best_gini - 1e-12:
                best_gini = allowed[k, j]
                best = (j, (sorted_cols[lo + k, j] + sorted_cols[lo + k + 1, j]) / 2.0)
        splits[min_leaf] = best
    return splits


class _Branch:
    """Grid cells that share one tree so far: the tree, the nodes still to
    grow (a depth-first stack of (node, rows, depth)) and the generator."""

    __slots__ = ("cells", "tree", "stack", "rng")

    def __init__(self, cells, tree, stack, rng):
        self.cells = cells
        self.tree = tree
        self.stack = stack
        self.rng = rng

    def fork(self, cells):
        """A copy for `cells` that grows on alone, from the same state."""
        rng = np.random.Generator(type(self.rng.bit_generator)(0))
        rng.bit_generator.state = self.rng.bit_generator.state
        return _Branch(cells, self.tree.copy(), self.stack.copy(), rng)

    def split(self, node, idx, depth, feats, cols, best):
        """Split `node` at `best` = (column of `cols`, threshold), or leave
        it a leaf when `best` is None; the left child grows first."""
        if best is None:
            return
        j, thr = best
        mask = cols[:, j] <= thr
        tree = self.tree
        tree.feature[node] = int(feats[j])
        tree.threshold[node] = float(thr)
        left = tree._new_node()
        right = tree._new_node()
        tree.left[node] = left
        tree.right[node] = right
        self.stack.append((right, idx[~mask], depth + 1))
        self.stack.append((left, idx[mask], depth + 1))


def _grow(X, y, cells, max_features, rng):
    """Grow one tree on (`X`, `y`) for every (max_depth, min_leaf) cell in
    `cells` at once, depth first, drawing each searched node's feature
    subset from `rng`. Returns a (tree, cells) pair per distinct tree.

    At each node, every cell either stops (a pure node, fewer than
    2 * min_leaf rows, or max_depth reached) or searches. The searching
    cells share one draw, one sort and one Gini matrix, and each min_leaf
    takes its own best split. Where cells disagree, each group forks with
    its own copy of the tree, the pending nodes and the generator state
    (taken before the draw for the cells that stop) and grows on alone, so
    every cell's tree is the one it would grow by itself."""
    tree = _Tree()
    branches = [_Branch(list(cells), tree, [(tree._new_node(), np.arange(len(y)), 0)], rng)]
    grown = []
    while branches:
        branch = branches.pop()
        while branch.stack:
            node, idx, depth = branch.stack.pop()
            ys = y[idx]
            pos = int(ys.sum())
            branch.tree.prob[node] = pos / len(ys)
            if pos == 0 or pos == len(ys):
                continue
            search = [(d, leaf) for d, leaf in branch.cells
                      if len(ys) >= 2 * leaf and (d is None or depth < d)]
            if not search:
                continue
            if len(search) < len(branch.cells):
                branches.append(branch.fork([c for c in branch.cells if c not in search]))
            feats = branch.rng.choice(X.shape[1], size=max_features, replace=False)
            cols = X[idx[:, None], feats]
            splits = _best_splits(cols, ys, {leaf for _, leaf in search})
            outcomes = {}
            for cell in search:
                outcomes.setdefault(splits[cell[1]], []).append(cell)
            *others, (best, branch.cells) = outcomes.items()
            for split, shared in others:
                twin = branch.fork(shared)
                twin.split(node, idx, depth, feats, cols, split)
                branches.append(twin)
            branch.split(node, idx, depth, feats, cols, best)
        grown.append((branch.tree, branch.cells))
    return grown


def _fit_prefixes(X, y, max_depths, min_leafs, seed, sizes):
    """Fit max(sizes) trees for every (max_depth, min_leaf) cell of the
    grid and return, per cell, the trees and the out-of-bag accuracy (None
    when no row is ever out of bag) of each leading run of trees whose
    length is in `sizes`.

    Tree k grows from child k of SeedSequence(seed), and the first k
    children of spawn(m) are spawn(k), so the first k trees are exactly
    the forest of k trees. Out-of-bag votes add up tree by tree in that
    order, so each prefix's score is the one its own fit would give.

    Each tree index is grown once for all cells (`_grow`): one bootstrap
    sample and one generator from its seed child, and cells that make the
    same decisions share one tree and its out-of-bag predictions."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if len(np.unique(y)) < 2:
        raise TrainingError("training labels contain a single class")
    n = X.shape[0]
    max_features = max(1, int(math.sqrt(X.shape[1])))
    cells = list(dict.fromkeys((d, leaf) for d in max_depths for leaf in min_leafs))
    trees = {cell: [] for cell in cells}
    scores = {cell: dict.fromkeys(sizes) for cell in cells}
    oob_votes = np.zeros((len(cells), n))  # one row per cell
    oob_counts = np.zeros(n)
    for k, ss in enumerate(np.random.SeedSequence(seed).spawn(max(sizes)), start=1):
        rng = np.random.default_rng(ss)
        sample = rng.integers(0, n, size=n)
        oob = np.ones(n, dtype=bool)
        oob[sample] = False
        X_oob = X[oob]
        for tree, shared in _grow(X[sample], y[sample], cells, max_features, rng):
            for cell in shared:
                trees[cell].append(tree)
            rows = [cells.index(cell) for cell in shared]
            oob_votes[np.ix_(rows, oob)] += tree.predict_prob(X_oob)
        oob_counts[oob] += 1
        covered = oob_counts > 0
        if k in sizes and covered.any():
            pred = (oob_votes[:, covered] / oob_counts[covered]) >= 0.5
            for cell, accuracy in zip(cells, np.mean(pred == (y[covered] == 1), axis=1)):
                scores[cell][k] = float(accuracy)
    return {cell: (trees[cell], scores[cell]) for cell in cells}


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
            X, y, (self.max_depth,), (self.min_leaf,), self.seed,
            (self.n_trees,))[self.max_depth, self.min_leaf]
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
    if not len(test_idx):
        raise TrainingError(f"{X.shape[0]} labeled rows leave the held-out test split empty")
    if len(np.unique(y[train_idx])) < 2:
        raise TrainingError("training split contains a single class")

    # One fit grows every cell: each tree index is grown once for every
    # (max_depth, min_leaf), and each smaller forest is a prefix of the
    # largest. The winner is its cell's prefix.
    fitted = _fit_prefixes(X[train_idx], y[train_idx], grid["max_depth"],
                           grid["min_leaf"], seed, grid["n_trees"])
    cells = {}  # (n_trees, max_depth, min_leaf) -> (trees, oob score)
    for (max_depth, min_leaf), (trees, cell_scores) in fitted.items():
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
