"""Random forest: bagged CART trees with per-node feature subsampling."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .cohort import AD, CN, EdgeId, Features, _field, _from_obj
from .forked import ForkedBlocks
from .tree import (
    DecisionTree,
    ImportanceRanking,
    TreeNode,
    TreeParams,
    _check_count,
    _grow,
    predict_tree,
    tree_atom_count,
    tree_from_obj,
    tree_importance,
    tree_to_obj,
)


@dataclass(frozen=True)
class ForestParams:
    n_estimators: int = 100
    max_depth: int = 8
    min_samples_split: int = 2
    max_features: str | int | None = "sqrt"  # "sqrt", explicit int, or None for all

    def __post_init__(self):
        _check_count("n_estimators", self.n_estimators, 1)
        _check_count("max_depth", self.max_depth, 0)
        _check_count("min_samples_split", self.min_samples_split, 1)
        if self.max_features is not None and self.max_features != "sqrt":
            _check_count("max_features", self.max_features, 1, "'sqrt', None or ")


@dataclass
class Forest:
    trees: list[DecisionTree]
    params: ForestParams
    seed: int

    def __post_init__(self):
        if len(self.trees) != self.params.n_estimators:
            raise ValueError("forest must hold exactly n_estimators trees")


def _n_features_per_split(max_features, n_features: int) -> int | None:
    """Features each node searches: all (None), floor(sqrt(n_features))
    ("sqrt"), or max_features, an int ForestParams checked to be at least 1,
    once it is at most n_features."""
    if max_features is None:
        return None
    if max_features == "sqrt":
        return max(1, math.floor(math.sqrt(n_features)))
    if max_features > n_features:
        raise ValueError(f"max_features {max_features!r} must be 'sqrt', None or an int "
                         f"in [1, {n_features}]")
    return max_features


def start_forest(
    features: Features,
    params: ForestParams | None = None,
    seed: int = 0,
) -> ForkedBlocks:
    """Start fitting the forest fit_forest(features, params, seed) returns,
    and return at once; join() on the result waits for it.

    The trees split into one contiguous block per usable CPU, and each
    block grows in a forked child (forked.ForkedBlocks) that sends back
    only its root nodes, while this process goes on with its own work. The
    join grows here every block whose child did not finish it, so the
    forest never depends on the children.
    """
    params = params or ForestParams()
    n, n_features = features.X.shape
    if n < 2:
        raise ValueError("fit_forest needs at least 2 samples")
    m_features = _n_features_per_split(params.max_features, n_features)
    tree_params = TreeParams(params.max_depth, params.min_samples_split)
    base = seed % 2**32

    # a bootstrap row drawn k times is one row of weight k
    roots = [np.unique(np.random.default_rng([base, t]).integers(0, n, size=n), return_counts=True)
             for t in range(params.n_estimators)]
    draw = None
    if m_features is not None:
        def draw(t, node_id):
            node_rng = np.random.default_rng([base, t, node_id])
            return np.sort(node_rng.choice(n_features, size=m_features, replace=False))

    def grow(lo: int, hi: int) -> list[TreeNode]:
        block_draw = draw and (lambda t, node_id: draw(lo + t, node_id))
        return _grow(features, tree_params, roots[lo:hi], block_draw)

    def finish(blocks: list[list[TreeNode]]) -> Forest:
        return Forest([DecisionTree(root, tree_params, features.edges)
                       for nodes in blocks for root in nodes], params, seed)

    features.ranks  # built once here, so that every child inherits it
    return ForkedBlocks(params.n_estimators, grow, finish)


def fit_forest(
    features: Features,
    params: ForestParams | None = None,
    seed: int = 0,
) -> Forest:
    """Fit n_estimators trees, each on a size-n with-replacement bootstrap.

    Tree t uses sub-seed (seed, t); each node draws its feature subset from
    sub-seed (seed, t, node_id) with node ids assigned in preorder, so the
    result is a pure function of (features, params, seed). It is
    start_forest then join: one forked child per block of trees, and every
    block whose child did not finish it grown again here.
    """
    with start_forest(features, params, seed) as growing:
        return growing.join()


def predict_forest(forest: Forest, x) -> str:
    """Hard majority vote over the trees; ties go to CN."""
    ad_votes = sum(predict_tree(t, x) == AD for t in forest.trees)
    return AD if ad_votes * 2 > len(forest.trees) else CN


def forest_importance(forest: Forest) -> ImportanceRanking:
    """Mean of per-tree normalized importances, renormalized to sum 1."""
    acc: dict[EdgeId, float] = {}
    for t in forest.trees:
        for e, v in tree_importance(t).scores.items():
            acc[e] = acc.get(e, 0.0) + v
    scores = {e: v / len(forest.trees) for e, v in acc.items()}
    total = sum(scores.values())
    if total > 0:
        scores = {e: v / total for e, v in scores.items()}
    return ImportanceRanking(scores, source="rf")


def forest_atom_count(forest: Forest) -> int:
    return sum(tree_atom_count(t) for t in forest.trees)


def forest_to_json(forest: Forest) -> str:
    obj = {
        "params": asdict(forest.params),
        "seed": forest.seed,
        "trees": [tree_to_obj(t) for t in forest.trees],
    }
    return json.dumps(obj)


def forest_from_obj(obj: dict) -> Forest:
    """Inverse of the object forest_to_json writes. Raises ValueError naming
    a missing key, an unknown params key or a params value of the wrong
    type."""
    params = _from_obj(ForestParams, _field(obj, "params"), "params")
    return Forest([tree_from_obj(t) for t in _field(obj, "trees", list)], params,
                  _field(obj, "seed", int))
