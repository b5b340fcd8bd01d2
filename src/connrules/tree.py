"""Binary CART classifier over a features matrix of edge strengths.

Splits minimize Gini impurity. Conventions fixed for reproducibility:
thresholds are midpoints between consecutive distinct sorted values, values
<= threshold route left, split ties break toward (lower feature index, lower
threshold), and leaf ties predict CN.

fit_tree scans rows presorted by each feature (Breiman et al. 1984); forests,
whose nodes draw few features, batch rank bins, where presorting ran slower.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple, Union

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


def _impurity(n_ad, n_cn, n):
    """1 - p_ad^2 - p_cn^2 over counts n_ad + n_cn = n; numbers or arrays."""
    pa = n_ad / n
    pc = n_cn / n
    return 1.0 - pa * pa - pc * pc


def gini(counts: ClassCounts) -> float:
    """Two-class Gini impurity 1 - p_ad^2 - p_cn^2, in [0, 0.5]."""
    if counts.total == 0:
        raise ValueError("empty node")
    return _impurity(counts.n_ad, counts.n_cn, counts.total)


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


def _check_count(name: str, value, least: int, others: str = "") -> None:
    """Raise ValueError unless value is an int (never a bool) of at least
    least; others names the values other than such an int that are valid."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{name} {value!r} must be {others}an int >= {least}")


@dataclass(frozen=True)
class TreeParams:
    max_depth: int = 8
    min_samples_split: int = 2

    def __post_init__(self):
        _check_count("max_depth", self.max_depth, 0)
        _check_count("min_samples_split", self.min_samples_split, 1)


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
# Growth: a presorted search for the tree, rank bins for the forest
# ---------------------------------------------------------------------------

_SORTED_BLOCK_CELLS = 1 << 14  # cells per temporary array of the tree's search: 128 kB
_SPLIT_BLOCK_CELLS = 1 << 16  # rank bins, and rank cells, per temporary array: 0.5 MB


def _sorted_split(columns: np.ndarray, is_ad: np.ndarray, orders: np.ndarray, n_ad: int):
    """(feature, position, threshold, gain, left AD count) of the best split
    of the node whose rows orders[c] sorts by columns[c] (X.T, C-contiguous),
    or None. Position p sends the first p + 1 rows left; gain and ties are
    _best_splits'. Unblocked, not in blocks of _SORTED_BLOCK_CELLS cells, W2's
    1,046 x 144 roots took twice as long, faulting in each 1.2 MB temporary."""
    n_feats, n = orders.shape
    parent = _impurity(n_ad, n - n_ad, n)
    nl = np.arange(1.0, n)
    nr = n - nl
    best, best_gain = None, 0.0
    per_block = max(1, _SORTED_BLOCK_CELLS // n)
    for c0 in range(0, n_feats, per_block):
        block = orders[c0:c0 + per_block]
        values = columns.take(block + np.arange(c0, c0 + len(block))[:, None] * len(is_ad))
        la = is_ad.take(block[:, :-1]).cumsum(axis=1, dtype=float)
        ra = n_ad - la
        gain = (parent - (nl / n) * _impurity(la, nl - la, nl)
                - (nr / n) * _impurity(ra, nr - ra, nr))
        gain[values[:, 1:] == values[:, :-1]] = -np.inf
        c, p = divmod(int(gain.argmax()), n - 1)
        if gain[c, p] > best_gain:
            below, above = values[c, p], values[c, p + 1]
            threshold = (below + above) / 2.0
            if threshold >= above:  # adjacent floats: midpoint rounded up, pull back
                threshold = below
            best_gain = gain[c, p]
            best = (c0 + c, p, float(threshold), float(best_gain), int(la[c, p]))
    return best


def fit_tree(features: Features, params: TreeParams | None = None) -> DecisionTree:
    """Fit a CART tree whose feature k is the edge features.edges[k]. A
    child's orders are its parent's, filtered, built only if it searches."""
    params = params or TreeParams()
    columns = np.ascontiguousarray(features.X.T)

    def grow(orders: np.ndarray, rows: np.ndarray | None, n: int, n_ad: int,
             depth: int) -> TreeNode:
        # the node holds the n rows (n_ad AD) of orders that the mask rows keeps (None: all)
        if depth >= params.max_depth or n < params.min_samples_split or n_ad in (0, n):
            return _leaf(n_ad, n)
        if rows is not None:
            orders = orders[rows.take(orders)].reshape(-1, n)
        split = _sorted_split(columns, features.is_ad, orders, n_ad)
        if split is None:
            return _leaf(n_ad, n)
        f, p, threshold, gain, left_ad = split
        left = np.zeros(len(features), dtype=bool)
        left[orders[f, :p + 1]] = True
        return Internal(f, threshold, grow(orders, left, p + 1, left_ad, depth + 1),
                        grow(orders, ~left, n - p - 1, n_ad - left_ad, depth + 1), gain, n)

    root = grow(features.order, None, len(features), int(features.is_ad.sum()), 0)
    return DecisionTree(root, params, features.edges)


class _Node(NamedTuple):
    """A forest node waiting for its split search: the distinct rows it
    holds, the multiplicity of each (its AD part in ad_weights), the totals
    of both, and the features its search may use, ascending."""

    rows: np.ndarray
    weights: np.ndarray
    ad_weights: np.ndarray
    n: int
    n_ad: int
    feats: np.ndarray


def _leaf(n_ad: int, n: int) -> Leaf:
    return Leaf(ClassCounts(n_ad, n - n_ad), AD if n_ad > n - n_ad else CN)


def _best_splits(features: Features, nodes: list[_Node]) -> list:
    """(feature, threshold, gain, goes_left) of each node's best split, or
    None when no candidate has strictly positive gain. Every node searches
    the same number of features.

    A segment is one (node, feature) pair. Every row of a node adds its
    weights to bin segment * n_ranks + rank of its value, so a segment's
    running sums over its nonempty bins, less the sums of the segments
    before it, are the left-side counts of each threshold between
    consecutive distinct values; a segment's last nonempty bin holds no
    candidate. Gain is I_parent - (nl/n) I_left - (nr/n) I_right over the
    integer counts, and each node takes the first maximum in (feature,
    threshold) order. The threshold is the midpoint between the split value
    and the next distinct value in the node. Segments are binned in blocks
    of at most _SPLIT_BLOCK_CELLS bins and cells (one segment, if a single
    segment holds more).
    """
    R, V = features.ranks
    n_ranks = V.shape[1]
    m = len(nodes[0].feats)  # segment k * m + j is feature j of node k
    seg_feat = np.concatenate([node.feats for node in nodes])
    # n, n_ad and parent impurity of each node
    totals = [(node.n, node.n_ad, _impurity(node.n_ad, node.n - node.n_ad, node.n))
              for node in nodes]
    seg_totals = np.repeat(np.array(totals).T, m, axis=1)
    best_rank = np.empty(len(seg_feat), dtype=np.intp)  # of each segment's best threshold
    best_gain = np.empty(len(seg_feat))

    per_block = max(1, _SPLIT_BLOCK_CELLS // max(n_ranks, max(len(node.rows) for node in nodes)))
    for s0 in range(0, len(seg_feat), per_block):
        s1 = min(len(seg_feat), s0 + per_block)
        pieces = [(nodes[k], max(s0, k * m), min(s1, k * m + m))
                  for k in range(s0 // m, (s1 - 1) // m + 1)]
        n_cells = sum((hi - lo) * len(node.rows) for node, lo, hi in pieces)
        key = np.empty(n_cells, dtype=np.intp)
        weight = np.empty(n_cells)
        ad_weight = np.empty(n_cells)
        at = 0
        for node, lo, hi in pieces:
            shape = (hi - lo, len(node.rows))
            cells = slice(at, at + shape[0] * shape[1])
            np.add(np.arange(lo - s0, hi - s0)[:, None] * n_ranks,
                   R.take(seg_feat[lo:hi], axis=0).take(node.rows, axis=1),
                   out=key[cells].reshape(shape))
            weight[cells].reshape(shape)[...] = node.weights
            ad_weight[cells].reshape(shape)[...] = node.ad_weights
            at = cells.stop
        size = (s1 - s0) * n_ranks
        count = np.bincount(key, weight, size)
        bins = np.flatnonzero(count > 0)  # in (segment, rank) order
        first = np.searchsorted(bins, np.arange(s1 - s0) * n_ranks)  # each segment's first bin
        run = np.diff(np.append(first, len(bins)))
        nl = count[bins].cumsum()
        la = np.bincount(key, ad_weight, size)[bins].cumsum()
        nl -= np.repeat(np.append(0.0, nl[first[1:] - 1]), run)
        la -= np.repeat(np.append(0.0, la[first[1:] - 1]), run)
        cand = np.ones(len(bins), dtype=bool)
        cand[first[1:] - 1] = False  # each segment's last bin
        cand[-1] = False
        bins, nl, la = bins[cand], nl[cand], la[cand]
        n, na, parent = np.repeat(seg_totals[:, s0:s1], run - 1, axis=1)
        nr = n - nl
        ra = na - la
        gl = _impurity(la, nl - la, nl)
        gr = _impurity(ra, nr - ra, nr)
        gain = np.full(size, -np.inf)
        gain[bins] = parent - (nl / n) * gl - (nr / n) * gr
        gain = gain.reshape(-1, n_ranks)
        best_rank[s0:s1] = gain.argmax(axis=1)
        best_gain[s0:s1] = gain[np.arange(s1 - s0), best_rank[s0:s1]]

    # each node's first maximum in (feature, threshold) order
    best = best_gain.reshape(-1, m).argmax(axis=1) + np.arange(0, len(seg_feat), m)
    f, r, gain = seg_feat[best], best_rank[best], best_gain[best]
    sizes = [len(node.rows) for node in nodes]
    starts = np.cumsum([0] + sizes[:-1])
    col = R[np.repeat(f, sizes), np.concatenate([node.rows for node in nodes])]
    goes_left = col <= np.repeat(r, sizes)
    # the next distinct value above the split value in each node
    above = V[f, np.minimum.reduceat(np.where(goes_left, n_ranks - 1, col), starts)]
    below = V[f, r]
    thr = (below + above) / 2.0
    thr = np.where(thr >= above, below, thr)  # adjacent floats: midpoint rounded up, pull back
    return [(f_k, thr_k, gain_k, goes_left[a:a + d]) if gain_k > 0.0 else None
            for f_k, thr_k, gain_k, a, d in zip(f.tolist(), thr.tolist(), gain.tolist(),
                                               starts.tolist(), sizes)]


def _grow(
    features: Features,
    params: TreeParams,
    roots: list[tuple[np.ndarray, np.ndarray]],
    draw: Callable[[int, int], np.ndarray],
) -> list[TreeNode]:
    """Grow one forest tree per root (distinct rows of features,
    multiplicity of each) and return their root nodes.

    Each tree grows in preorder from its own stack, so node ids count nodes
    in preorder. The trees advance in lockstep: each step takes from every
    tree its next node that needs a split search, settling the leaves before
    it, and runs one _best_splits over all of them. draw(tree, node_id)
    gives the ascending features a node may split on.
    """
    is_ad = features.is_ad
    out: list[TreeNode | None] = [None] * len(roots)

    def attach(t: int, parent: Internal | None, side: str, node: TreeNode) -> None:
        if parent is None:
            out[t] = node
        else:
            setattr(parent, side, node)

    # pending nodes as (rows, weights, depth, parent, side), left child on top
    stacks = [[(rows, weights, 0, None, "")] for rows, weights in roots]
    next_id = [0] * len(roots)
    while True:
        places, batch = [], []  # (tree, depth, parent, side) and _Node of each search
        for t, stack in enumerate(stacks):
            while stack:
                rows, weights, depth, parent, side = stack.pop()
                node_id = next_id[t]
                next_id[t] += 1
                ad_weights = weights * is_ad[rows]
                n, n_ad = int(weights.sum()), int(ad_weights.sum())
                if (depth >= params.max_depth or n < params.min_samples_split
                        or n_ad == 0 or n_ad == n):
                    attach(t, parent, side, _leaf(n_ad, n))
                    continue
                places.append((t, depth, parent, side))
                batch.append(_Node(rows, weights, ad_weights, n, n_ad, draw(t, node_id)))
                break
        if not batch:
            return out
        for (t, depth, parent, side), node, split in zip(
                places, batch, _best_splits(features, batch)):
            if split is None:
                attach(t, parent, side, _leaf(node.n_ad, node.n))
                continue
            f, thr, gain, goes_left = split
            internal = Internal(f, thr, None, None, gain, node.n)
            attach(t, parent, side, internal)
            goes_right = ~goes_left
            stacks[t].append((node.rows[goes_right], node.weights[goes_right],
                              depth + 1, internal, "right"))
            stacks[t].append((node.rows[goes_left], node.weights[goes_left],
                              depth + 1, internal, "left"))


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
    """The node obj holds; ValueError on a leaf predicting against its counts
    or a split without positive gain or with n_samples not its children's."""
    if isinstance(obj, dict) and "prediction" in obj:
        counts = _field(obj, "counts")
        prediction = _field(obj, "prediction", str)
        if prediction not in (AD, CN):
            raise ValueError(f"prediction must be AD or CN, not {prediction!r}")
        n_ad, n_cn = _field(counts, "ad", int), _field(counts, "cn", int)
        leaf = _leaf(n_ad, n_ad + n_cn)
        if prediction != leaf.prediction:
            raise ValueError(f"{n_ad} AD, {n_cn} CN predict {leaf.prediction}, not {prediction}")
        return leaf
    feature = edges_from_pairs([_field(obj, "feature")])[0]
    if feature not in index:
        raise ValueError(f"split feature ({feature.i}, {feature.j}) not in feature_order")
    n_samples = _field(obj, "n_samples", int)
    if n_samples < 1:  # importance divides by the root's
        raise ValueError(f"n_samples must be >= 1, not {n_samples}")
    impurity_decrease = _field(obj, "impurity_decrease", float)
    if not impurity_decrease > 0.0:
        raise ValueError(f"impurity_decrease must be > 0, not {impurity_decrease!r}")
    node = Internal(index[feature], _field(obj, "threshold", float),
                    _node_from_obj(_field(obj, "left"), index),
                    _node_from_obj(_field(obj, "right"), index), impurity_decrease, n_samples)
    children = _node_total(node.left) + _node_total(node.right)
    if n_samples != children:
        raise ValueError(f"n_samples {n_samples} is not its children's total {children}")
    return node


def tree_to_obj(tree: DecisionTree) -> dict:
    return {
        "params": asdict(tree.params),
        "feature_order": [[e.i, e.j] for e in tree.feature_order],
        "root": _node_to_obj(tree.root, tree.feature_order),
    }


def tree_from_obj(obj: dict) -> DecisionTree:
    """Inverse of tree_to_obj. Raises ValueError naming a missing key, an
    unknown params key or a value of the wrong type or out of range."""
    order = edges_from_pairs(_field(obj, "feature_order"))
    if not order:
        raise ValueError("feature_order is empty")
    index = {e: k for k, e in enumerate(order)}
    params = _from_obj(TreeParams, _field(obj, "params"), "params")
    return DecisionTree(_node_from_obj(_field(obj, "root"), index), params, order)


def tree_to_json(tree: DecisionTree) -> str:
    return json.dumps(tree_to_obj(tree), indent=1)

