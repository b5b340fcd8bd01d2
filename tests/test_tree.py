import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connrules.cohort import AD, CN, Features, canonical_edges, edge
from connrules.inference import evaluate
from connrules.tree import (
    ClassCounts,
    DecisionTree,
    Internal,
    Leaf,
    TreeParams,
    fit_tree,
    gini,
    predict_tree,
    tree_atom_count,
    tree_from_obj,
    tree_importance,
    tree_to_json,
    tree_to_obj,
)
from oracles import oracle_best_split, oracle_gini_exact


def vectors(X, labels):
    """Features over the first canonical edges, one row per label."""
    X = np.asarray(X, dtype=float)
    return Features(X, np.array([lab == AD for lab in labels], dtype=bool),
                    tuple(canonical_edges()[:X.shape[1]]))


def best_split(features):
    """(feature, threshold, gain) of the best root split, or None."""
    root = fit_tree(features, TreeParams(max_depth=1)).root
    return None if isinstance(root, Leaf) else (root.feature, root.threshold,
                                                root.impurity_decrease)


def accuracy(tree, samples, labels):
    return evaluate(labels, [predict_tree(tree, x) for x in samples.X]).accuracy


def random_dataset(rng, max_samples=50, max_features=10):
    n = rng.integers(4, max_samples + 1)
    f = rng.integers(1, max_features + 1)
    X = np.round(rng.uniform(0, 10, size=(n, f)), 2)
    labels = [AD if rng.random() < 0.5 else CN for _ in range(n)]
    if len(set(labels)) == 1:  # force both classes present
        labels[0] = AD if labels[0] == CN else CN
    return X, labels


class TestGini:
    def test_pure_node(self):
        assert gini(ClassCounts(10, 0)) == 0.0

    def test_even_split(self):
        assert gini(ClassCounts(5, 5)) == 0.5

    def test_three_one(self):
        assert gini(ClassCounts(3, 1)) == pytest.approx(0.375, abs=1e-15)

    def test_symmetry(self):
        for a, b in [(3, 1), (7, 2), (1, 9)]:
            assert gini(ClassCounts(a, b)) == gini(ClassCounts(b, a))

    def test_empty_node_rejected(self):
        with pytest.raises(ValueError, match="empty node"):
            gini(ClassCounts(0, 0))

    def test_matches_exact_rational_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = int(rng.integers(0, 40)), int(rng.integers(0, 40))
            if a + b == 0:
                continue
            assert abs(gini(ClassCounts(a, b)) - oracle_gini_exact(a, b)) <= 1e-12


class TestBestSplit:
    def test_clean_separation(self):
        samples = vectors([[1], [2], [9], [10]], [CN, CN, AD, AD])
        f, thr, gain = best_split(samples)
        assert (f, thr) == (0, 5.5)
        assert gain == pytest.approx(0.5)

    def test_single_class_returns_none(self):
        samples = vectors([[1], [2], [3]], [AD, AD, AD])
        assert best_split(samples) is None

    def test_duplicate_columns_prefer_lower_feature(self):
        X = [[1, 1], [2, 2], [9, 9], [10, 10]]
        samples = vectors(X, [CN, CN, AD, AD])
        f, _, _ = best_split(samples)
        assert f == 0

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            X, labels = random_dataset(rng)
            got = best_split(vectors(X, labels))
            want = oracle_best_split(X, np.array([l == AD for l in labels]))
            if want is None:
                assert got is None
            else:
                assert got[0] == want[0]
                assert got[1] == want[1]
                assert got[2] == pytest.approx(want[2], abs=1e-12)


class TestFitPredict:
    def test_separable_gives_depth_one_and_perfect_accuracy(self):
        labels = [CN, CN, AD, AD]
        samples = vectors([[1], [2], [9], [10]], labels)
        tree = fit_tree(samples)
        assert isinstance(tree.root, Internal)
        assert isinstance(tree.root.left, Leaf) and isinstance(tree.root.right, Leaf)
        assert accuracy(tree, samples, labels) == 1.0

    def test_single_sample_is_leaf(self):
        tree = fit_tree(vectors([[3.0]], [AD]))
        assert isinstance(tree.root, Leaf)
        assert tree.root.prediction == AD

    def test_max_depth_zero_is_majority_leaf(self):
        samples = vectors([[1], [2], [9]], [CN, CN, AD])
        tree = fit_tree(samples, TreeParams(max_depth=0))
        assert isinstance(tree.root, Leaf)
        assert tree.root.prediction == CN

    def test_leaf_tie_predicts_cn(self):
        samples = vectors([[1.0], [1.0]], [AD, CN])
        tree = fit_tree(samples)
        assert isinstance(tree.root, Leaf)
        assert tree.root.prediction == CN

    def test_boundary_routes_left(self):
        tree = fit_tree(vectors([[1], [2], [9], [10]], [CN, CN, AD, AD]))
        assert predict_tree(tree, [5.5]) == CN
        assert predict_tree(tree, [2.0]) == CN
        assert predict_tree(tree, [9.0]) == AD

    def test_length_mismatch_rejected(self):
        tree = fit_tree(vectors([[1], [9]], [CN, AD]))
        with pytest.raises(ValueError, match="length mismatch"):
            predict_tree(tree, [1.0, 2.0])

    def test_empty_sample_set_rejected(self):
        with pytest.raises(ValueError, match="empty sample set"):
            fit_tree(vectors(np.empty((0, 1)), []))

    def test_accuracy_non_decreasing_in_depth(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            X, labels = random_dataset(rng, max_samples=40, max_features=5)
            samples = vectors(X, labels)
            accs = [accuracy(fit_tree(samples, TreeParams(max_depth=d)), samples, labels)
                    for d in range(0, 7)]
            assert all(a <= b + 1e-12 for a, b in zip(accs, accs[1:]))

    def test_internal_children_partition_parent(self):
        rng = np.random.default_rng(9)
        X, labels = random_dataset(rng)
        tree = fit_tree(vectors(X, labels))

        def total(node):
            if isinstance(node, Leaf):
                return node.counts.total
            assert node.impurity_decrease > 0
            left, right = total(node.left), total(node.right)
            assert left + right == node.n_samples
            return node.n_samples

        total(tree.root)


class TestParams:
    @pytest.mark.parametrize("key, value, message", [
        ("max_depth", -1, "max_depth -1 must be an int >= 0"),
        ("max_depth", 2.0, "max_depth 2.0 must be an int >= 0"),
        ("max_depth", True, "max_depth True must be an int >= 0"),
        ("min_samples_split", 0, "min_samples_split 0 must be an int >= 1"),
        ("min_samples_split", "2", "min_samples_split '2' must be an int >= 1"),
    ])
    def test_out_of_range_rejected(self, key, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TreeParams(**{key: value})

    def test_least_values_accepted(self):
        params = TreeParams(0, 1)
        assert (params.max_depth, params.min_samples_split) == (0, 1)


class TestImportance:
    def test_single_leaf_all_zero(self):
        tree = fit_tree(vectors([[1], [2]], [CN, CN]))
        ranking = tree_importance(tree)
        assert set(ranking.scores.values()) == {0.0}

    def test_depth_one_single_feature(self):
        samples = vectors([[0, 1], [0, 2], [0, 9], [0, 10]], [CN, CN, AD, AD])
        ranking = tree_importance(fit_tree(samples))
        scores = list(ranking.scores.values())
        assert scores[0] == 0.0
        assert scores[1] == 1.0

    def test_depth_two_matches_node_statistics(self):
        # f0 separates one block; f1 refines the other
        X = [[0, 1], [0, 2], [0, 8], [5, 1], [5, 2], [5, 3]]
        labels = [CN, CN, AD, AD, AD, AD]
        samples = vectors(X, labels)
        tree = fit_tree(samples)
        ranking = tree_importance(tree)

        # independent recomputation from the recorded node statistics
        raw = {}
        stack = [tree.root]
        n_root = 6
        while stack:
            node = stack.pop()
            if isinstance(node, Internal):
                e = tree.feature_order[node.feature]
                raw[e] = raw.get(e, 0.0) + node.n_samples / n_root * node.impurity_decrease
                stack.extend([node.left, node.right])
        total = sum(raw.values())
        for e, v in ranking.scores.items():
            assert v == pytest.approx(raw.get(e, 0.0) / total if total else 0.0)

    def test_unused_feature_scores_zero(self):
        rng = np.random.default_rng(3)
        X, labels = random_dataset(rng)
        tree = fit_tree(vectors(X, labels))
        used = set()
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if isinstance(node, Internal):
                used.add(tree.feature_order[node.feature])
                stack.extend([node.left, node.right])
        for e, v in tree_importance(tree).scores.items():
            if e not in used:
                assert v == 0.0

    def test_normalized(self):
        rng = np.random.default_rng(4)
        X, labels = random_dataset(rng)
        ranking = tree_importance(fit_tree(vectors(X, labels)))
        total = sum(ranking.scores.values())
        assert total == 0.0 or total == pytest.approx(1.0, abs=1e-9)


class TestAtomCount:
    def test_single_leaf(self):
        tree = fit_tree(vectors([[1]], [AD]))
        assert tree_atom_count(tree) == 1

    def test_depth_one(self):
        tree = fit_tree(vectors([[1], [9]], [CN, AD]))
        assert tree_atom_count(tree) == 4  # two paths of 1 condition + 1 label

    def test_complete_depth_two(self):
        leaf = Leaf(ClassCounts(1, 0), AD)
        inner = Internal(0, 0.5, leaf, leaf, 0.1, 2)
        root = Internal(1, 0.5, inner, inner, 0.1, 4)
        tree = DecisionTree(root, TreeParams(), (edge(0, 1), edge(0, 2)))
        assert tree_atom_count(tree) == 12  # 4 paths x (2 conditions + 1 label)


@st.composite
def trees(draw):
    """Any tree shape over 1-6 distinct edges with finite float fields."""
    order = tuple(sorted(draw(st.sets(st.sampled_from(canonical_edges()),
                                      min_size=1, max_size=6))))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    leaves = st.builds(Leaf, st.builds(ClassCounts, st.integers(0, 500), st.integers(0, 500)),
                       st.sampled_from((AD, CN)))
    nodes = st.recursive(leaves, lambda kids: st.builds(
        Internal, st.integers(0, len(order) - 1), finite, kids, kids, finite,
        st.integers(1, 1000)), max_leaves=16)
    params = st.builds(TreeParams, st.integers(0, 12), st.integers(2, 10))
    return DecisionTree(draw(nodes), draw(params), order)


class TestTreeJson:
    @settings(max_examples=100, deadline=None)
    @given(trees())
    def test_round_trip_property(self, tree):
        assert tree_from_obj(json.loads(tree_to_json(tree))) == tree

    def test_missing_key_named(self):
        leaf = Leaf(ClassCounts(1, 0), AD)
        tree = DecisionTree(Internal(1, 0.5, leaf, leaf, 0.1, 2), TreeParams(),
                            (edge(0, 1), edge(0, 2)))
        obj = tree_to_obj(tree)
        cases = [(key, {k: v for k, v in obj.items() if k != key})
                 for key in ("feature_order", "params", "root")]
        for key in ("feature", "threshold", "left", "right", "impurity_decrease",
                    "n_samples"):
            root = {k: v for k, v in obj["root"].items() if k != key}
            cases.append((key, {**obj, "root": root}))
        cases.append(("counts", {**obj, "root": {**obj["root"], "left": {"prediction": AD}}}))
        for key, bad in cases:
            with pytest.raises(ValueError, match=f"missing key '{key}'"):
                tree_from_obj(bad)
        with pytest.raises(ValueError, match=r"split feature \(0, 3\) not in feature_order"):
            tree_from_obj({**obj, "root": {**obj["root"], "feature": [0, 3]}})
        with pytest.raises(ValueError, match="region index must be an integer"):
            tree_from_obj({**obj, "feature_order": [[0, 1], [0, 2.0]]})

    def test_node_field_of_wrong_type_named(self):
        leaf = Leaf(ClassCounts(1, 0), AD)
        obj = tree_to_obj(DecisionTree(Internal(1, 0.5, leaf, leaf, 0.1, 2), TreeParams(),
                                       (edge(0, 1), edge(0, 2))))
        root, left = obj["root"], obj["root"]["left"]
        for bad, message in [
                ({**root, "left": {**left, "counts": {"ad": "x", "cn": 0}}},
                 "ad must be int, not str"),
                ({**root, "left": {**left, "counts": {"ad": 1, "cn": 0.5}}},
                 "cn must be int, not float"),
                ({**root, "left": {**left, "prediction": "XX"}},
                 "prediction must be AD or CN, not 'XX'"),
                ({**root, "n_samples": "x"}, "n_samples must be int, not str"),
                ({**root, "n_samples": 0}, "n_samples must be >= 1, not 0"),
                ({**root, "threshold": "0.5"}, "threshold must be float, not str"),
                ({**root, "impurity_decrease": None},
                 "impurity_decrease must be float, not NoneType")]:
            with pytest.raises(ValueError, match=re.escape(message)):
                tree_from_obj({**obj, "root": bad})
        with pytest.raises(ValueError, match="feature_order is empty"):
            tree_from_obj({**obj, "feature_order": [], "root": left})

    def test_round_trip(self):
        rng = np.random.default_rng(8)
        X, labels = random_dataset(rng)
        samples = vectors(X, labels)
        tree = fit_tree(samples)
        back = tree_from_obj(json.loads(tree_to_json(tree)))
        assert tree_to_json(back) == tree_to_json(tree)
        for x in samples.X:
            assert predict_tree(back, x) == predict_tree(tree, x)
        assert tree_importance(back).scores == tree_importance(tree).scores
        assert tree_atom_count(back) == tree_atom_count(tree)
