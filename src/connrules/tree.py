"""Binary CART classifier over a features matrix of edge strengths.

Splits minimize Gini impurity. Conventions fixed for reproducibility:
thresholds are midpoints between consecutive distinct sorted values, values
<= threshold route left, split ties break toward (lower feature index, lower
threshold), and leaf ties predict CN.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .cohort import AD, CN, EdgeId, Features, _field, _from_obj, edges_from_pairs


@dataclass(frozen=True)
class ClassCounts:
    n_ad: int
    n_cn: int

    def __post_init__(self):
        if self.n_ad < 0 or self.n_cn < 0:
            raise ValueError("counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.n_ad + self.n_cn


def gini(counts: ClassCounts) -> float:
    """Two-class Gini impurity 1 - p_ad^2 - p_cn^2, in [0, 0.5]."""
    n = counts.total
    if n == 0:
        raise ValueError("empty node")
    pa = counts.n_ad / n
    pc = counts.n_cn / n
    return 1.0 - pa * pa - pc * pc


@dataclass
class Leaf:
    counts: ClassCounts
    prediction: str


@dataclass
class Internal:
    feature: int  # index into the tree's feature_order
    threshold: float
    left: "TreeNode"
    right: "TreeNode"
    impurity_decrease: float
    n_samples: int


TreeNode = Union[Leaf, Internal]


@dataclass(frozen=True)
class TreeParams:
    max_depth: int = 8
    min_samples_split: int = 2


@dataclass
class DecisionTree:
    root: TreeNode
    params: TreeParams
    feature_order: tuple[EdgeId, ...]


@dataclass(frozen=True)
class ImportanceRanking:
    """Per-edge Gini importance, normalized to sum 1 unless all-zero."""

    scores: dict[EdgeId, float]
    source: str = "dt"


# ---------------------------------------------------------------------------
# Split search
# ---------------------------------------------------------------------------

def _split_arrays(
    X: np.ndarray, is_ad: np.ndarray, feats: np.ndarray | None = None
) -> tuple[int, float, float] | None:
    """Best (feature, threshold, gain) over the given feature subset.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values per feature. Gain is I_parent - (nl/n) I_left - (nr/n) I_right;
    the first maximum in (feature asc, threshold asc) order wins. Returns
    None when no candidate has strictly positive gain.
    """
    m = X.shape[0]
    if m < 2:
        return None
    Xs = X if feats is None else X[:, feats]
    na = int(is_ad.sum())
    if na == 0 or na == m:
        return None
    pa = na / m
    pc = (m - na) / m
    parent = 1.0 - pa * pa - pc * pc

    order = np.argsort(Xs, axis=0, kind="stable")
    sv = np.take_along_axis(Xs, order, axis=0)
    cum_ad = np.cumsum(is_ad[order], axis=0)

    nl = np.arange(1, m, dtype=float)[:, None]
    nr = m - nl
    la = cum_ad[:-1]
    lc = nl - la
    ra = na - la
    rc = nr - ra
    pla = la / nl
    plc = lc / nl
    pra = ra / nr
    prc = rc / nr
    gl = 1.0 - pla * pla - plc * plc
    gr = 1.0 - pra * pra - prc * prc
    gain = parent - (nl / m) * gl - (nr / m) * gr
    gain = np.where(sv[1:] != sv[:-1], gain, -np.inf)

    flat = gain.ravel(order="F")  # feature-major: ties pick lower feature, then lower threshold
    pos = int(np.argmax(flat))
    best = float(flat[pos])
    if not best > 0.0:
        return None
    p = pos % (m - 1)
    c = pos // (m - 1)
    thr = (sv[p, c] + sv[p + 1, c]) / 2.0
    if thr >= sv[p + 1, c]:  # adjacent floats: midpoint rounded up, pull back
        thr = float(sv[p, c])
    f = int(c) if feats is None else int(feats[c])
    return f, float(thr), best


def best_split(features: Features) -> tuple[int, float, float] | None:
    """Exhaustive best split over all features; None if nothing improves."""
    if len(features) < 2:
        raise ValueError("best_split needs at least 2 samples")
    return _split_arrays(features.X, features.is_ad)


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def _fit_arrays(
    X: np.ndarray,
    is_ad: np.ndarray,
    params: TreeParams,
    feature_order: tuple[EdgeId, ...],
    feature_sampler: Callable[[int, int], np.ndarray] | None = None,
) -> DecisionTree:
    """Grow a tree on index arrays. feature_sampler(node_id, n_features) may
    restrict the split search per node (used by forests)."""
    node_counter = [0]

    def leaf(idx: np.ndarray) -> Leaf:
        na = int(is_ad[idx].sum())
        nc = len(idx) - na
        return Leaf(ClassCounts(na, nc), AD if na > nc else CN)

    def grow(idx: np.ndarray, depth: int) -> TreeNode:
        node_id = node_counter[0]
        node_counter[0] += 1
        n = len(idx)
        na = int(is_ad[idx].sum())
        if depth >= params.max_depth or n < params.min_samples_split or na == 0 or na == n:
            return leaf(idx)
        feats = None
        if feature_sampler is not None:
            feats = feature_sampler(node_id, X.shape[1])
        split = _split_arrays(X[idx], is_ad[idx], feats)
        if split is None:
            return leaf(idx)
        f, thr, gain = split
        go_left = X[idx, f] <= thr
        nl = int(go_left.sum())
        if nl == 0 or nl == n:
            return leaf(idx)
        left = grow(idx[go_left], depth + 1)
        right = grow(idx[~go_left], depth + 1)
        return Internal(f, thr, left, right, gain, n)

    root = grow(np.arange(X.shape[0]), 0)
    return DecisionTree(root, params, feature_order)


def fit_tree(features: Features, params: TreeParams | None = None) -> DecisionTree:
    """Fit a CART tree whose feature k is the edge features.edges[k]."""
    return _fit_arrays(features.X, features.is_ad, params or TreeParams(), features.edges)


def _route(node: TreeNode, values: np.ndarray) -> Leaf:
    while isinstance(node, Internal):
        node = node.left if values[node.feature] <= node.threshold else node.right
    return node


def predict_tree(tree: DecisionTree, x) -> str:
    """Predict AD or CN for one row of strengths in the tree's edge order."""
    values = np.asarray(x, dtype=float)
    if values.shape != (len(tree.feature_order),):
        raise ValueError(
            f"length mismatch: vector has {values.shape}, tree expects {len(tree.feature_order)}")
    return _route(tree.root, values).prediction


def _node_total(node: TreeNode) -> int:
    return node.n_samples if isinstance(node, Internal) else node.counts.total


def tree_importance(tree: DecisionTree) -> ImportanceRanking:
    """Total Gini reduction per edge, weighted by node sample fraction and
    normalized to sum 1 (all-zero for a single leaf)."""
    scores = {e: 0.0 for e in tree.feature_order}
    n_root = _node_total(tree.root)

    def walk(node: TreeNode):
        if isinstance(node, Internal):
            scores[tree.feature_order[node.feature]] += (
                node.n_samples / n_root
            ) * node.impurity_decrease
            walk(node.left)
            walk(node.right)

    walk(tree.root)
    total = sum(scores.values())
    if total > 0:
        scores = {e: v / total for e, v in scores.items()}
    return ImportanceRanking(scores, source="dt")


def tree_atom_count(tree: DecisionTree) -> int:
    """Size of the tree rendered as rules: one atom per path condition plus
    one for the leaf label, summed over all root-to-leaf paths."""

    def walk(node: TreeNode, depth: int) -> int:
        if isinstance(node, Leaf):
            return depth + 1
        return walk(node.left, depth + 1) + walk(node.right, depth + 1)

    return walk(tree.root, 0)


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------

def _node_to_obj(node: TreeNode, feature_order) -> dict:
    if isinstance(node, Leaf):
        return {
            "counts": {"ad": node.counts.n_ad, "cn": node.counts.n_cn},
            "prediction": node.prediction,
        }
    e = feature_order[node.feature]
    return {
        "feature": [e.i, e.j],
        "threshold": node.threshold,
        "impurity_decrease": node.impurity_decrease,
        "n_samples": node.n_samples,
        "left": _node_to_obj(node.left, feature_order),
        "right": _node_to_obj(node.right, feature_order),
    }


def _node_from_obj(obj: dict, index: dict[EdgeId, int]) -> TreeNode:
    if isinstance(obj, dict) and "prediction" in obj:
        counts = _field(obj, "counts")
        return Leaf(ClassCounts(_field(counts, "ad"), _field(counts, "cn")), obj["prediction"])
    feature = edges_from_pairs([_field(obj, "feature")])[0]
    if feature not in index:
        raise ValueError(f"split feature ({feature.i}, {feature.j}) not in feature_order")
    return Internal(
        index[feature],
        _field(obj, "threshold"),
        _node_from_obj(_field(obj, "left"), index),
        _node_from_obj(_field(obj, "right"), index),
        _field(obj, "impurity_decrease"),
        _field(obj, "n_samples"),
    )


def tree_to_obj(tree: DecisionTree) -> dict:
    return {
        "params": {"max_depth": tree.params.max_depth,
                   "min_samples_split": tree.params.min_samples_split},
        "feature_order": [[e.i, e.j] for e in tree.feature_order],
        "root": _node_to_obj(tree.root, tree.feature_order),
    }


def tree_from_obj(obj: dict) -> DecisionTree:
    """Inverse of tree_to_obj. Raises ValueError naming a missing key, an
    unknown params key or a params value of the wrong type."""
    order = edges_from_pairs(_field(obj, "feature_order"))
    index = {e: k for k, e in enumerate(order)}
    params = _from_obj(TreeParams, _field(obj, "params"), "params")
    return DecisionTree(_node_from_obj(_field(obj, "root"), index), params, order)


def tree_to_json(tree: DecisionTree) -> str:
    return json.dumps(tree_to_obj(tree), indent=1)


def tree_from_json(text: str) -> DecisionTree:
    return tree_from_obj(json.loads(text))
