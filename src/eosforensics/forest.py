"""Bagged decision-tree ensemble (Gini impurity, majority vote) with a
deterministic seed contract and portable JSON persistence.

Kept dependency-free on purpose: the classifier ships with the toolkit
and its predictions must be reproducible bit-for-bit from (data, seed).
`train_classifier` picks the grid cell with the best out-of-bag accuracy.
Tree k of every cell grows from child k of SeedSequence(seed), so each
tree index is grown once for the whole grid (`_grow`): cells share a
tree until their decisions differ, and each cell's trees are the ones a
forest of its parameters fitted alone would grow. Trees grow in lockstep
groups; each step's nodes share a split search over each feature's exact
distinct values (`_best_splits`) per run of SEARCH_ROWS rows, and walks
(`_leaf_probs`) take WALK_ROWS rows at a time, however many trees a group
holds. A threshold is the midpoint of the values around it, or the lower
one where the midpoint rounds up.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingError

FORMAT_VERSION = 1
TRAIN_SHARE = 0.8  # of the labeled rows; the rest is the held-out test split
GROUP_ROWS = 1 << 16  # bootstrap rows a lockstep group holds, summed over its trees
SEARCH_ROWS = 1 << 12  # node rows of one batched split search, summed; a larger node alone
WALK_ROWS = 1 << 14  # rows of one batched tree walk, summed over its trees

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
        for name in _Tree.__slots__:
            setattr(self, name, [])

    def _new_node(self):
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.prob.append(0.0)
        return len(self.feature) - 1

    def copy(self):
        twin = _Tree()
        for name in _Tree.__slots__:
            setattr(twin, name, getattr(self, name).copy())
        return twin

    def predict_prob(self, X):
        """Leaf probability per row of `X`."""
        return next(_leaf_probs(X, [(self, np.arange(X.shape[0]))]))

    # the fields are _Tree.__slots__: a subclass's own __slots__ is empty
    def to_json(self):
        return {name: getattr(self, name) for name in _Tree.__slots__}

    @classmethod
    def from_json(cls, obj):
        t = cls()
        for name in _Tree.__slots__:
            setattr(t, name, list(obj[name]))
        return t


def _runs(items, sizes, limit):
    """Consecutive runs of `items` whose `sizes` sum to at most `limit`, or of one item."""
    run, total = [], 0
    for item, size in zip(items, sizes):
        if run and total + size > limit:
            yield run
            run, total = [], 0
        run.append(item)
        total += size
    if run:
        yield run


def _leaf_probs(X, walks):
    """Yield the leaf probabilities of the rows of `X` that each (tree, rows)
    of `walks` names, an array per walk. Runs of walks of at most WALK_ROWS
    rows in all descend together, level by level."""
    for run in _runs(walks, [len(rows) for _, rows in walks], WALK_ROWS):
        sizes = [len(tree.feature) for tree, _ in run]
        root = np.cumsum([0] + sizes[:-1])
        feature, threshold, left, right, prob = (np.concatenate(
            [getattr(tree, name) for tree, _ in run]) for name in _Tree.__slots__)
        left, right = left + np.repeat(root, sizes), right + np.repeat(root, sizes)
        node = np.repeat(root, [len(rows) for _, rows in run])
        rows = np.concatenate([rows for _, rows in run])
        live = np.arange(len(rows))
        while live.size:
            at = node[live]
            inner = feature[at] >= 0
            live, at = live[inner], at[inner]
            go_left = X[rows[live], feature[at]] <= threshold[at]
            node[live] = np.where(go_left, left[at], right[at])
        yield from np.split(prob[node], np.cumsum([len(rows) for _, rows in run])[:-1])


def _best_splits(bins, y, searches):
    """One split search for the nodes of `searches`, each (row ids, feats,
    min_leafs). Returns per node {min_leaf: (column of feats, threshold,
    positives left)} for the min_leafs that find a split, the one a sorted
    scan of each column finds: rows and positives are counted per (node,
    column, bin), a boundary follows each present bin but the last and one
    before NaN, and a later column wins only by more than 1e-12."""
    rank, start, values = bins
    feats = np.array([f for _, f, _ in searches])  # (node, column)
    size = [len(rows) for rows, _, _ in searches]
    rows = np.concatenate([rows for rows, _, _ in searches])
    # one segment of keys per (node, column); `shift` maps a feature's bins there
    width = (start[feats + 1] - start[feats]).reshape(-1)
    shift = np.cumsum(width) - width - start[feats].reshape(-1)
    keys = rank.take(np.repeat(feats * rank.shape[1], size, axis=0) + rows[:, None])
    keys = (keys + np.repeat(shift.reshape(feats.shape), size, axis=0)).reshape(-1)
    present = np.flatnonzero(count := np.bincount(keys))
    count = count[present]
    positives = np.bincount(keys, weights=np.repeat(y[rows], feats.shape[1]))[present]
    seg = np.searchsorted(np.cumsum(width), present, side="right")
    first = np.searchsorted(seg, np.arange(len(width)))  # no segment is empty
    value_bin = present - shift[seg]
    at = np.flatnonzero((seg[:-1] == seg[1:]) & ~np.isnan(values[value_bin[1:]]))
    n_left, pos_left = np.cumsum(count), np.cumsum(positives)
    n_left = n_left[at] - (n_left[first] - count[first])[seg[at]]
    pos_left = pos_left[at] - (pos_left[first] - positives[first])[seg[at]]
    n = np.repeat(size, feats.shape[1])[seg[at]]
    n_right = n - n_left
    share_left = pos_left / n_left
    share_right = (np.add.reduceat(positives, first)[seg[at]] - pos_left) / n_right
    gini_left = 1.0 - share_left ** 2 - (1 - share_left) ** 2
    gini_right = 1.0 - share_right ** 2 - (1 - share_right) ** 2
    weighted = (n_left * gini_left + n_right * gini_right) / n

    # one row per min_leaf: the first minimum of each segment, then of each node
    min_leafs = sorted({leaf for _, _, leafs in searches for leaf in leafs})
    floor = np.maximum(min_leafs, 1)[:, None]
    gini = np.full((len(min_leafs), len(seg)), math.inf)
    gini[:, at] = np.where((n_left >= floor) & (n_right >= floor), weighted, math.inf)
    lowest = np.minimum.reduceat(gini, first, axis=1)
    leaf, hit = np.nonzero(gini == lowest[:, seg])
    entry = hit[np.searchsorted(leaf * len(width) + seg[hit], np.arange(lowest.size))]
    lowest, entry = (a.reshape(len(min_leafs), *feats.shape) for a in (lowest, entry))
    best, column = lowest[..., 0], np.zeros(lowest.shape[:2], dtype=np.intp)
    for j in range(1, feats.shape[1]):
        wins = lowest[..., j] < best - 1e-12
        best = np.where(wins, lowest[..., j], best)
        column = np.where(wins, j, column)
    leaf, node = np.nonzero(best < math.inf)
    column = column[leaf, node]
    below = entry[leaf, node, column]  # the present bin below the boundary
    lo, hi = values[value_bin[below]].tolist(), values[value_bin[below + 1]].tolist()
    left = pos_left[np.searchsorted(at, below)].astype(np.int64).tolist()
    splits = [{} for _ in searches]
    for i, min_leaf, j, lo, hi, left in zip(node.tolist(), np.take(min_leafs, leaf).tolist(),
                                            column.tolist(), lo, hi, left):
        mid = (lo + hi) / 2.0  # Python floats: inf or NaN on overflow, no warning
        splits[i][min_leaf] = (j, mid if mid < hi else lo, left)
    return splits


@dataclass(slots=True, eq=False)
class _Branch:
    """Grid cells that share one tree so far."""

    cells: list
    tree: _Tree
    stack: list  # the nodes still to grow, depth first: (node, row ids, depth, positives)
    rng: np.random.Generator
    grown: list  # the tree index's (tree, cells) pairs, which this one joins

    def fork(self, cells):
        """A copy for `cells` that grows on alone, from the same state."""
        rng = np.random.Generator(type(self.rng.bit_generator)(0))
        rng.bit_generator.state = self.rng.bit_generator.state
        return _Branch(cells, self.tree.copy(), self.stack.copy(), rng, self.grown)

    def split(self, X, top, feats, best):
        """Split the node of `top` at `best` = (column of `feats`, threshold,
        positives left) unless it is None, the left child to grow first."""
        if best is None:
            return
        (node, rows, depth, pos), (j, thr, pos_left) = top, best
        mask = X[rows, feats[j]] <= thr
        left, right = rows[mask], rows[~mask]
        if not (len(left) and len(right)):  # such a split would grow without end
            raise TrainingError(f"the split at {thr!r} leaves no row on one side")
        tree = self.tree
        tree.feature[node], tree.threshold[node] = int(feats[j]), thr
        tree.left[node], tree.right[node] = tree._new_node(), tree._new_node()
        self.stack.append((tree.right[node], right, depth + 1, pos - pos_left))
        self.stack.append((tree.left[node], left, depth + 1, pos_left))


def _grow(X, y, bins, samples, cells, max_features):
    """Grow a tree from each (bootstrap rows, generator) of `samples` for
    every (max_depth, min_leaf) cell, in lockstep, and return per sample a
    (tree, cells) pair per distinct tree. Each step takes every branch to
    its next node where a cell searches: there each cell stops (pure, under
    2 * min_leaf rows, or at max_depth) or searches, and the searchers share
    one draw and, with the step's other nodes, one `_best_splits`. Where
    cells disagree, each group forks with its own tree, pending nodes and
    generator state (from before the draw for cells that stop)."""
    grown = [[] for _ in samples]
    branches = []
    for out, (rows, rng) in zip(grown, samples):
        tree = _Tree()
        root = (tree._new_node(), rows, 0, int(y[rows].sum()))
        branches.append(_Branch(list(cells), tree, [root], rng, out))
    while branches:
        forks, searches, searched = [], [], []
        for branch in branches:
            search = []
            while branch.stack and not search:  # a leaf for every cell takes no step
                node, rows, depth, pos = branch.stack.pop()
                branch.tree.prob[node] = pos / len(rows)
                if 0 < pos < len(rows):
                    search = [(d, leaf) for d, leaf in branch.cells
                              if len(rows) >= 2 * leaf and (d is None or depth < d)]
            if not search:
                continue
            if len(search) < len(branch.cells):
                forks.append(branch.fork([c for c in branch.cells if c not in search]))
            feats = branch.rng.choice(X.shape[1], size=max_features, replace=False)
            searches.append((rows, feats, {leaf for _, leaf in search}))
            searched.append((branch, (node, rows, depth, pos), feats, search))
        runs = _runs(searches, [len(rows) for rows, _, _ in searches], SEARCH_ROWS)
        for (branch, top, feats, search), splits in zip(
                searched, (s for run in runs for s in _best_splits(bins, y, run))):
            outcomes = {}
            for cell in search:
                outcomes.setdefault(splits.get(cell[1]), []).append(cell)
            *others, (best, branch.cells) = outcomes.items()
            for split, shared in others:
                twin = branch.fork(shared)
                twin.split(X, top, feats, split)
                forks.append(twin)
            branch.split(X, top, feats, best)
        for branch in branches + forks:
            if not branch.stack:
                branch.grown.append((branch.tree, branch.cells))
        branches = [branch for branch in branches + forks if branch.stack]
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

    Each tree index is grown once for all cells from one bootstrap sample
    and one generator, and cells that make the same decisions share one
    tree and its out-of-bag predictions. Indices whose samples hold at most
    GROUP_ROWS rows in all grow as one group."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if not y.size or y.min() == y.max():
        raise TrainingError("training labels contain a single class")
    n = X.shape[0]
    max_features = max(1, int(math.sqrt(X.shape[1])))
    # bins: X[r, f] is values[rank[f, r]], feature f's sorted distinct values
    values, ranks = zip(*(np.unique(col, return_inverse=True) for col in X.T))
    start = np.cumsum([0] + [len(v) for v in values])
    bins = np.stack(ranks) + start[:-1, None], start, np.concatenate(values)
    cells = list(dict.fromkeys((d, leaf) for d in max_depths for leaf in min_leafs))
    trees = {cell: [] for cell in cells}
    scores = {cell: dict.fromkeys(sizes) for cell in cells}
    oob_votes = np.zeros((len(cells), n))  # one row per cell
    oob_counts = np.zeros(n)
    seeds = np.random.SeedSequence(seed).spawn(max(sizes))
    per_group = max(1, GROUP_ROWS // n)
    for k0 in range(0, len(seeds), per_group):
        samples = [(rng.integers(0, n, size=n), rng)
                   for rng in map(np.random.default_rng, seeds[k0:k0 + per_group])]
        grown = _grow(X, y, bins, samples, cells, max_features)
        oobs = [np.flatnonzero(np.bincount(sample, minlength=n) == 0) for sample, _ in samples]
        probs = _leaf_probs(X, [(tree, oob) for oob, pairs in zip(oobs, grown)
                                for tree, _ in pairs])
        for k, (oob, pairs) in enumerate(zip(oobs, grown), start=k0 + 1):
            tree_of = {cell: i for i, (_, shared) in enumerate(pairs) for cell in shared}
            for cell in cells:
                trees[cell].append(pairs[tree_of[cell]][0])
            votes = np.array([next(probs) for _ in pairs])  # a row per distinct tree
            oob_votes[:, oob] += votes[[tree_of[cell] for cell in cells]]
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
        """Each row's mean tree probability, summed in tree order as tree by tree."""
        X = np.asarray(X, dtype=np.float64)
        total = np.zeros(X.shape[0])
        chunks = np.split(np.arange(len(X)), range(WALK_ROWS, len(X), WALK_ROWS))
        walks = [(tree, rows) for rows in chunks for tree in self.trees]
        for (_, rows), probs in zip(walks, _leaf_probs(X, walks)):
            total[rows] += probs
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
    if y[train_idx].min() == y[train_idx].max():
        raise TrainingError("training split contains a single class")

    # One fit grows every cell: each tree index is grown once for every
    # (max_depth, min_leaf), and each smaller forest is a prefix of the
    # largest. The winner is its cell's prefix.
    fitted = _fit_prefixes(X[train_idx], y[train_idx], grid["max_depth"],
                           grid["min_leaf"], seed, grid["n_trees"])
    best_score, best_params, scores = -1.0, None, []
    for params in _grid_configs(grid):
        trees, oobs = fitted[params["max_depth"], params["min_leaf"]]
        oob = oobs[params["n_trees"]]
        score = oob if oob is not None else 0.0
        scores.append((params, score))
        if score > best_score + 1e-12:
            best_score, best_params, best = score, params, (trees[:params["n_trees"]], oob)
    trees, oob = best
    best_model = RandomForest(seed=seed, trees=trees, oob_score=oob, **best_params)
    test_accuracy = best_model.score(X[test_idx], y[test_idx])
    return TrainResult(best_model, test_accuracy, best_params, scores)
