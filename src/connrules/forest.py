"""Random forest: bagged CART trees with per-node feature subsampling."""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import pickle
import signal
from dataclasses import asdict, dataclass

import numpy as np

from .cohort import AD, CN, EdgeId, Features, _blocks, _field, _from_obj
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


def _fork_block(grow, lo: int, hi: int) -> tuple[int, io.BufferedReader] | None:
    """The pid of a forked child that writes grow(lo, hi) pickled to a pipe
    and exits 0 once all of it is written (1 on every other path), and the
    read end of that pipe; None when the pipe or the fork could not be
    made."""
    try:
        r, w = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        try:
            # the child leaves by os._exit: a collection would only fault on
            # pages it shares with the parent
            gc.disable()
            os.close(r)
            with open(w, "wb") as pipe:
                pickle.dump(grow(lo, hi), pipe)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(w)
    return pid, open(r, "rb")


class GrowingForest:
    """A forest fit that start_forest has begun: join() returns the Forest.

    Used as a context manager, leaving the context kills and reaps every
    child that join() has not, so an exception raised before the join
    leaves no child behind.
    """

    def __init__(self, grow, blocks: list[tuple[int, int]], finish):
        self._grow = grow
        self._blocks = blocks
        self._finish = finish  # root nodes of every tree -> Forest
        self._children = []  # (block, pid, read end of its pipe) of each child not reaped
        self._forest = None
        if len(blocks) < 2:
            return
        try:
            for block in blocks:
                child = _fork_block(grow, *block)
                if child is not None:
                    self._children.append((block, *child))
        except BaseException:
            self._stop()
            raise

    def join(self) -> Forest:
        """The forest, the same on every call. Reaps every child, after
        reading its pipe to EOF (a block's payload can outgrow the pipe
        buffer), and grows here each block whose child did not exit 0 or
        could not be forked."""
        if self._forest is None:
            payloads = {}  # block: pickled root nodes, of each child that exited 0
            while self._children:
                block, pid, pipe = self._children[0]
                with pipe:
                    payload = pipe.read()
                if os.waitpid(pid, 0)[1] == 0:
                    payloads[block] = payload
                del self._children[0]
            nodes = []
            for block in self._blocks:
                nodes += pickle.loads(payloads[block]) if block in payloads else self._grow(*block)
            self._forest = self._finish(nodes)
        return self._forest

    def _stop(self) -> None:
        """Kill and reap every child that join() has not reaped."""
        for _, pid, pipe in self._children:
            pipe.close()
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        self._children.clear()

    def __enter__(self) -> GrowingForest:
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop()


def start_forest(
    features: Features,
    params: ForestParams | None = None,
    seed: int = 0,
) -> GrowingForest:
    """Start fitting the forest fit_forest(features, params, seed) returns,
    and return at once; join() on the result waits for it.

    The trees split into contiguous blocks, one per usable CPU
    (cohort._blocks). With two blocks or more, a forked child grows each
    block and sends back only its root nodes, while this process goes on
    with its own work; with one, join() grows every tree here. A block whose
    child did not exit 0 or could not be forked is grown again here, so the
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

    def finish(nodes: list[TreeNode]) -> Forest:
        return Forest([DecisionTree(root, tree_params, features.edges) for root in nodes],
                      params, seed)

    features.ranks  # built once here, so that every child inherits it
    return GrowingForest(grow, _blocks(params.n_estimators), finish)


def fit_forest(
    features: Features,
    params: ForestParams | None = None,
    seed: int = 0,
) -> Forest:
    """Fit n_estimators trees, each on a size-n with-replacement bootstrap.

    Tree t uses sub-seed (seed, t); each node draws its feature subset from
    sub-seed (seed, t, node_id) with node ids assigned in preorder, so the
    result is a pure function of (features, params, seed). The trees grow
    as start_forest grows them, one block per usable CPU.
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
