import errno
import hashlib
import json
import os
import re
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import connrules.forest as forest_module
import connrules.tree as tree_module
from connrules.cohort import (
    AD, CN, Features, PlantedEdge, apply_mask, canonical_edges, compute_mask, edge,
    generate_synthetic)
from connrules.crossval import stratified_folds, stratified_subsample
from connrules.forest import (
    Forest,
    ForestParams,
    _n_features_per_split,
    fit_forest,
    forest_atom_count,
    forest_from_obj,
    forest_importance,
    forest_to_json,
    predict_forest,
    start_forest,
)
from connrules.tree import (
    ClassCounts,
    DecisionTree,
    Internal,
    Leaf,
    TreeParams,
    fit_tree,
    predict_tree,
    tree_from_obj,
    tree_importance,
    tree_to_json,
)
from conftest import assert_no_child_left, deadline, use_cpus
from oracles import oracle_fit_tree


def vectors(X, labels):
    """Features over the first canonical edges, one row per label."""
    X = np.asarray(X, dtype=float)
    return Features(X, np.array([lab == AD for lab in labels], dtype=bool),
                    tuple(canonical_edges()[:X.shape[1]]))


def stump(feature, threshold, left_label, right_label, n=4):
    left = Leaf(ClassCounts(0, n // 2) if left_label == CN else ClassCounts(n // 2, 0), left_label)
    right = Leaf(ClassCounts(0, n // 2) if right_label == CN else ClassCounts(n // 2, 0), right_label)
    root = Internal(feature, threshold, left, right, 0.5, n)
    return DecisionTree(root, TreeParams(), (edge(0, 1), edge(0, 2)))


def hand_forest(trees):
    return Forest(trees, ForestParams(n_estimators=len(trees)), seed=0)


class TestDeterminism:
    def test_same_seed_same_forest(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 10, size=(30, 6))
        labels = [AD if rng.random() < 0.5 else CN for _ in range(30)]
        samples = vectors(X, labels)
        params = ForestParams(n_estimators=10, max_depth=4)
        a = fit_forest(samples, params, seed=99)
        b = fit_forest(samples, params, seed=99)
        assert forest_to_json(a) == forest_to_json(b)
        for p in rng.uniform(0, 10, size=(20, 6)):
            assert predict_forest(a, p) == predict_forest(b, p)

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 10, size=(40, 8))
        labels = [AD if rng.random() < 0.5 else CN for _ in range(40)]
        samples = vectors(X, labels)
        params = ForestParams(n_estimators=5, max_depth=4)
        assert forest_to_json(fit_forest(samples, params, 1)) != \
            forest_to_json(fit_forest(samples, params, 2))


class TestReductionToCart:
    def test_single_unrestricted_tree_equals_fit_tree(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 10, size=(25, 5))
        labels = [AD if rng.random() < 0.5 else CN for _ in range(25)]
        samples = vectors(X, labels)
        forest = fit_forest(samples, ForestParams(n_estimators=1, max_features=None), seed=0)
        # tree 0 draws its bootstrap rows from the documented sub-seed (seed, 0)
        idx = np.random.default_rng([0, 0]).integers(0, 25, size=25)
        boot = Features(samples.X[idx], samples.is_ad[idx], samples.edges)
        tree = fit_tree(boot)
        assert tree_to_json(forest.trees[0]) == tree_to_json(tree)
        for x in samples.X:
            assert predict_forest(forest, x) == predict_tree(tree, x)


@st.composite
def tied_features(draw):
    """Features of 2-24 rows whose strengths take 3-5 levels, so most
    columns hold ties, and whose last column repeats an earlier one."""
    n = draw(st.integers(2, 24))
    n_cols = draw(st.integers(1, 4))
    levels = draw(st.lists(st.floats(0.0, 10.0), min_size=3, max_size=5, unique=True))
    X = draw(arrays(float, (n, n_cols), elements=st.sampled_from(levels)))
    X = np.column_stack([X, X[:, draw(st.integers(0, n_cols - 1))]])
    is_ad = draw(arrays(bool, n))
    return Features(X, is_ad, tuple(canonical_edges()[:n_cols + 1]))


def oracle_tree(features, rows, params, sampler=None):
    root = oracle_fit_tree(features.X, features.is_ad, rows, params, sampler)
    return DecisionTree(root, params, features.edges)


class TestKernelMatchesOracle:
    """fit_tree searches each node along its rows' per-feature orders, and
    fit_forest grows every tree of a batch in lockstep from dense ranks and
    row weights; the oracle grows one node at a time from copied rows and
    float sorts."""

    @settings(max_examples=150, deadline=None)
    @given(tied_features(), st.integers(0, 6), st.integers(2, 5))
    def test_fit_tree(self, features, max_depth, min_samples_split):
        params = TreeParams(max_depth, min_samples_split)
        want = oracle_tree(features, np.arange(len(features)), params)
        assert tree_to_json(fit_tree(features, params)) == tree_to_json(want)

    @settings(max_examples=150, deadline=None)
    @given(tied_features(), st.integers(1, 5), st.integers(0, 6), st.integers(2, 5),
           st.sampled_from([None, 1, 2, 3]), st.integers(0, 2**40))
    def test_fit_forest(self, features, n_trees, max_depth, min_samples_split, max_features,
                        seed):
        n, n_features = features.X.shape
        if max_features is not None:
            max_features = min(max_features, n_features)
        params = ForestParams(n_trees, max_depth, min_samples_split, max_features)
        tree_params = TreeParams(max_depth, min_samples_split)
        forest = fit_forest(features, params, seed)
        base = seed % 2**32
        for t, tree in enumerate(forest.trees):
            # the documented sub-seeds: (seed, t) for the bootstrap rows,
            # (seed, t, node_id) for each node's features
            rows = np.random.default_rng([base, t]).integers(0, n, size=n)

            def sampler(node_id, nf):
                rng = np.random.default_rng([base, t, node_id])
                return np.sort(rng.choice(nf, size=max_features, replace=False))

            want = oracle_tree(features, rows, tree_params,
                               None if max_features is None else sampler)
            assert tree_to_json(tree) == tree_to_json(want)


def readme_fold(repeat: int, fold: int) -> Features:
    """The training features of one fold of the README noisy protocol, as
    run_pipeline builds them."""
    cohort = generate_synthetic(7, 100, [PlantedEdge(edge(2, 5), 2.0, "low")], 0.1)
    sub = stratified_subsample(cohort, 0.9, repeat)
    assignment = stratified_folds(sub, 5, repeat)
    train = sub.subset([s.id for s in sub.subjects if assignment[s.id] != fold])
    return apply_mask(train, compute_mask(train, 0.30))


class TestPinnedOutputs:
    def test_readme_noisy_fold_models(self):
        """Repeat 0, fold 1 of the README noisy protocol, with the forest seed
        run_pipeline passes (repeat * 1000 + fold): both models serialize to
        the bytes recorded before the lockstep kernel replaced the per-node
        grower, and load back to the same bytes."""
        features = readme_fold(0, 1)
        tree = tree_to_json(fit_tree(features, TreeParams()))
        forest = forest_to_json(fit_forest(features, ForestParams(), seed=1))
        assert hashlib.sha256(tree.encode()).hexdigest() == \
            "9765f87d96a6a25cf6f1389006d52df7f00e357dc7e6b9e541883fc26c54adeb"
        assert hashlib.sha256(forest.encode()).hexdigest() == \
            "7948ffb31df27f6c5343338c6cbf02f9fa67187b242af8cf5b4e6e6a1a4af5bf"
        assert tree_to_json(tree_from_obj(json.loads(tree))) == tree
        assert forest_to_json(forest_from_obj(json.loads(forest))) == forest


class TestForkedFit:
    """fit_forest grows one contiguous block of trees per usable CPU: with two
    blocks or more a forked child each, and this process again any block
    whose child did not send it back."""

    PARAMS = ForestParams(n_estimators=5, max_depth=4)  # 64 CPUs: 5 blocks, 5 forks

    @pytest.fixture
    def features(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(0, 10, size=(40, 9))
        return vectors(X, [AD if rng.random() < 0.5 else CN for _ in range(40)])

    @pytest.mark.parametrize("cpus, setting, n_forks", [
        (1, "", 0), (2, "", 2), (4, "", 4), (64, "", 5),
        (4, "no fork", 0), (4, "thread alive", 0), (4, "child killed", 4),
        (4, "second fork fails", 4)])
    def test_forest_is_the_in_process_fit(self, features, monkeypatch, forks, cpus, setting,
                                          n_forks):
        use_cpus(monkeypatch, 1)
        want = forest_to_json(fit_forest(features, self.PARAMS, seed=4))
        assert forks == []
        use_cpus(monkeypatch, cpus)
        if setting == "no fork":
            monkeypatch.delattr(os, "fork")
        elif setting == "child killed":  # the child for trees 3-4, past their roots
            here, grow, waitpid = os.getpid(), forest_module._grow, os.waitpid
            statuses = []

            def killing(features, params, roots, draw):
                def dying(t, node_id):
                    if node_id > 0:
                        os.kill(os.getpid(), signal.SIGKILL)
                    return draw(t, node_id)

                in_last_child = os.getpid() != here and len(roots) == 2
                return grow(features, params, roots, dying if in_last_child else draw)

            def reaping(pid, options):
                statuses.append(waitpid(pid, options)[1])
                return pid, statuses[-1]

            monkeypatch.setattr(forest_module, "_grow", killing)
            monkeypatch.setattr(os, "waitpid", reaping)
        elif setting == "second fork fails":
            fork = os.fork  # counted by forks

            def second_fails():
                if len(forks) == 1:
                    forks.append(None)
                    raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
                return fork()

            monkeypatch.setattr(os, "fork", second_fails)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        if setting == "thread alive":
            thread.start()
        try:
            got = forest_to_json(fit_forest(features, self.PARAMS, seed=4))
        finally:
            release.set()
            if thread.is_alive():
                thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(forks) == n_forks
        if setting == "child killed":
            assert statuses == [0, 0, 0, signal.SIGKILL]
        assert_no_child_left()
        assert got == want

    def test_error_in_this_process_propagates(self, features, monkeypatch, forks):
        # every child fails its block, so this process grows them all again
        def failing(features, nodes):
            raise MemoryError("in a block grown here")

        monkeypatch.setattr(tree_module, "_best_splits", failing)
        use_cpus(monkeypatch, 4)
        with pytest.raises(MemoryError, match="^in a block grown here$"):
            fit_forest(features, self.PARAMS, seed=4)
        assert len(forks) == 4
        assert_no_child_left()

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_join_returns_the_same_forest(self, features, monkeypatch, cpus):
        use_cpus(monkeypatch, cpus)
        with start_forest(features, self.PARAMS, seed=4) as growing:
            forest = growing.join()
            assert growing.join() is forest
        assert forest_to_json(forest) == forest_to_json(fit_forest(features, self.PARAMS, seed=4))

    @pytest.mark.parametrize("error", [RuntimeError("before the join"), KeyboardInterrupt()])
    def test_error_before_the_join_leaves_no_child(self, monkeypatch, forks, tmp_path, error):
        """Each child's payload outgrows the pipe buffer, so a child that is
        done waits on its write until its pipe is read or closed."""
        train = generate_synthetic(7, 100, [PlantedEdge(edge(2, 5), 2.0, "low")], 0.1)
        features = apply_mask(train, compute_mask(train, 0.30))
        use_cpus(monkeypatch, 2)
        grow = forest_module._grow

        def marking(*args):  # a child marks its block grown
            nodes = grow(*args)
            (tmp_path / str(os.getpid())).touch()
            return nodes

        monkeypatch.setattr(forest_module, "_grow", marking)
        with deadline(60), pytest.raises(type(error)) as raised:
            with start_forest(features, ForestParams(), seed=0):
                while len(list(tmp_path.iterdir())) < 2:
                    time.sleep(0.01)
                time.sleep(0.2)  # time to pickle and fill the pipe
                raise error
        assert raised.value is error
        assert len(forks) == 2
        assert_no_child_left()


class TestParams:
    @pytest.mark.parametrize("key, value, message", [
        ("n_estimators", 0, "n_estimators 0 must be an int >= 1"),
        ("n_estimators", True, "n_estimators True must be an int >= 1"),
        ("n_estimators", 2.5, "n_estimators 2.5 must be an int >= 1"),
        ("max_depth", -3, "max_depth -3 must be an int >= 0"),
        ("max_depth", 4.0, "max_depth 4.0 must be an int >= 0"),
        ("min_samples_split", -7, "min_samples_split -7 must be an int >= 1"),
        ("min_samples_split", 0, "min_samples_split 0 must be an int >= 1"),
        ("max_features", "cube", "max_features 'cube' must be 'sqrt', None or an int >= 1"),
        ("max_features", 0, "max_features 0 must be 'sqrt', None or an int >= 1"),
        ("max_features", np.int64(2), "max_features np.int64(2) must be 'sqrt', None or an int"),
    ])
    def test_out_of_range_rejected(self, key, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            ForestParams(**{key: value})

    @pytest.mark.parametrize("kwargs", [
        {}, {"n_estimators": 1, "max_depth": 0, "min_samples_split": 1, "max_features": 1},
        {"max_features": None}, {"max_features": "sqrt"}])
    def test_in_range_accepted(self, kwargs):
        params = ForestParams(**kwargs)
        assert all(getattr(params, key) == value for key, value in kwargs.items())


class TestMaxFeatures:
    @pytest.mark.parametrize("value", ["7", "auto", True, False, 2.0, 0, 7, -1, [2]])
    def test_rejects_anything_but_sqrt_none_or_int_in_range(self, value):
        samples = vectors(np.arange(24.0).reshape(4, 6), [CN, CN, AD, AD])
        with pytest.raises(ValueError, match=re.escape(f"max_features {value!r}")):
            fit_forest(samples, ForestParams(n_estimators=1, max_features=value))

    @pytest.mark.parametrize("value, expect", [("sqrt", 2), (None, None), (1, 1), (6, 6)])
    def test_accepts(self, value, expect):
        assert _n_features_per_split(value, 6) == expect


class TestVoting:
    def test_majority(self):
        t_ad = stump(0, 5.0, AD, AD)
        t_cn = stump(0, 5.0, CN, CN)
        forest = hand_forest([t_ad, t_ad, t_cn])
        assert predict_forest(forest, [1.0, 1.0]) == AD

    def test_tie_goes_cn(self):
        forest = hand_forest([stump(0, 5.0, AD, AD), stump(0, 5.0, CN, CN)])
        assert predict_forest(forest, [1.0, 1.0]) == CN

    def test_identical_stumps_match_single(self):
        t = stump(0, 5.0, CN, AD)
        forest = hand_forest([t] * 100)
        for x in ([2.0, 0.0], [7.0, 0.0]):
            assert predict_forest(forest, x) == predict_tree(t, x)


class TestImportance:
    def test_identical_trees_match_single(self):
        t = stump(0, 5.0, CN, AD)
        forest = hand_forest([t] * 3)
        assert forest_importance(forest).scores == tree_importance(t).scores

    def test_disjoint_single_features_average(self):
        f = hand_forest([stump(0, 5.0, CN, AD), stump(1, 5.0, CN, AD)])
        scores = forest_importance(f).scores
        assert scores[edge(0, 1)] == pytest.approx(0.5)
        assert scores[edge(0, 2)] == pytest.approx(0.5)

    def test_unused_feature_zero(self):
        f = hand_forest([stump(0, 5.0, CN, AD)])
        assert forest_importance(f).scores[edge(0, 2)] == 0.0

    def test_sums_to_one(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 10, size=(30, 6))
        labels = [AD if rng.random() < 0.5 else CN for _ in range(30)]
        forest = fit_forest(vectors(X, labels), ForestParams(n_estimators=7), seed=5)
        assert sum(forest_importance(forest).scores.values()) == pytest.approx(1.0, abs=1e-9)


class TestAtoms:
    def test_single_leaf_tree(self):
        leaf_tree = DecisionTree(Leaf(ClassCounts(2, 1), AD), TreeParams(), (edge(0, 1),))
        assert forest_atom_count(hand_forest([leaf_tree])) == 1

    def test_two_stumps(self):
        forest = hand_forest([stump(0, 5.0, CN, AD), stump(1, 5.0, CN, AD)])
        assert forest_atom_count(forest) == 8

    def test_empty_forest_rejected(self):
        with pytest.raises(ValueError, match="n_estimators"):
            Forest([], ForestParams(n_estimators=1), seed=0)


class TestOnSyntheticCohort:
    def test_forest_close_to_tree_on_held_out(self):
        # several separating edges, so per-node feature subsampling finds signal
        planted = [
            PlantedEdge(edge(2, 5), 2.0, "low"),
            PlantedEdge(edge(3, 9), 2.5, "high"),
            PlantedEdge(edge(10, 40), 2.0, "low"),
            PlantedEdge(edge(20, 60), 3.0, "low"),
            PlantedEdge(edge(7, 30), 2.5, "high"),
            PlantedEdge(edge(15, 55), 2.0, "low"),
        ]
        cohort = generate_synthetic(7, 60, planted, 0.0)
        train = cohort.subset([s.id for k, s in enumerate(cohort.subjects) if k % 3 != 0])
        test = cohort.subset([s.id for k, s in enumerate(cohort.subjects) if k % 3 == 0])
        mask = compute_mask(train, 0.30)
        train_vecs = apply_mask(train, mask)
        test_vecs = apply_mask(test, mask)
        tree = fit_tree(train_vecs)
        forest = fit_forest(train_vecs, ForestParams(n_estimators=50), seed=0)
        rows = list(zip(test_vecs.X, test_vecs.is_ad))
        tree_acc = np.mean([(predict_tree(tree, x) == AD) == a for x, a in rows])
        forest_acc = np.mean([(predict_forest(forest, x) == AD) == a for x, a in rows])
        assert forest_acc >= tree_acc - 0.05


class TestForestJson:
    def test_round_trip(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(0, 10, size=(20, 4))
        labels = [AD if rng.random() < 0.5 else CN for _ in range(20)]
        forest = fit_forest(vectors(X, labels), ForestParams(n_estimators=3), seed=1)
        back = forest_from_obj(json.loads(forest_to_json(forest)))
        assert forest_to_json(back) == forest_to_json(forest)

    def test_missing_key_named(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(0, 10, size=(20, 4))
        labels = [AD if rng.random() < 0.5 else CN for _ in range(20)]
        obj = json.loads(forest_to_json(fit_forest(vectors(X, labels),
                                                   ForestParams(n_estimators=2), seed=1)))
        for key in ("params", "trees", "seed"):
            with pytest.raises(ValueError, match=f"missing key '{key}'"):
                forest_from_obj({k: v for k, v in obj.items() if k != key})
        del obj["trees"][1]["root"]
        with pytest.raises(ValueError, match="missing key 'root'"):
            forest_from_obj(obj)
