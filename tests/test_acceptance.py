"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass lines and
per-criterion timings. The quantitative checks run on synthetic cohorts with
planted discriminative edges; tolerances are asserted exactly as stated.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from connrules.cli import main
from connrules.cohort import (
    AD,
    CN,
    N_REGIONS,
    Cohort,
    Features,
    PlantedEdge,
    Subject,
    canonical_edges,
    check_connectome,
    default_atlas,
    edge,
    generate_synthetic,
    save_cohort,
)
from connrules.crossval import CVConfig, report_to_json, run_pipeline
from connrules.inference import evaluate
from connrules.learner import (
    BodyLiteral,
    Rule,
    enumerate_candidates,
    hypothesis_to_text,
    learn,
    parse_hypothesis_text,
)
from connrules.selection import SelectedEdges, SelectorConfig
from connrules.taskgen import COMPARATORS, LearningTask, build_space, partition_tasks
from connrules.tree import ClassCounts, Internal, Leaf, TreeParams, fit_tree, gini, predict_tree
from oracles import (
    Example,
    brute_force_learn,
    example_rows,
    oracle_best_split,
    oracle_gini_exact,
    rule_fires,
    snap_rule_to_domain,
    to_examples,
)

PLANTED = PlantedEdge(edge(2, 5), 2.0, "low")


def report_line(criterion, description, started):
    print(f"\nacceptance {criterion} ({description}): PASS [{time.time() - started:.1f}s]")


def pipeline_config(**kw):
    defaults = dict(
        n_repeats=10, subsample_fraction=0.9, n_folds=5, base_seed=0,
        pipeline="dt", selector=SelectorConfig(k_global=3), n_ad_subsets=3,
        keep_ratio=0.30, max_body_edges=2,
    )
    defaults.update(kw)
    return CVConfig(**defaults)


@pytest.fixture(scope="module")
def noise_free_report():
    cohort = generate_synthetic(7, 100, [PLANTED], 0.0)
    return run_pipeline(pipeline_config(fit_reference_models=False), cohort)


@pytest.fixture(scope="module")
def noisy_report():
    """The bundled noisy benchmark: seed 7, 100 per class, noise 0.1, with
    reference tree and forest fitted per fold for atom accounting."""
    cohort = generate_synthetic(7, 100, [PLANTED], 0.1)
    return run_pipeline(pipeline_config(fit_reference_models=True), cohort)


class TestPinnedReports:
    """W2 (noise-free) and W1 (noisy) report.json bytes, as recorded before
    a task's examples became one facts matrix: a refactor of any stage must
    leave them unchanged."""

    def test_noise_free(self, noise_free_report):
        text = report_to_json(noise_free_report)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "c595f875ada82cabb41a004b0969b6130c16b4753cc9d2ccc5223edec65e9575"

    def test_noisy(self, noisy_report):
        text = report_to_json(noisy_report)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "943315730cbadb62ae4f85522d8d99519365c770d3c9950a12a19cd7e3a95baa"


def make_example(eid, label, context, penalty=1):
    return Example(eid, penalty, label == AD, context)


EDGE_POOL = [edge(1, 2), edge(3, 4), edge(5, 9)]


def random_oracle_task(rng):
    """Task within the oracle bounds: AD penalties are capped so total AD
    penalty <= 12, hence some hypothesis of at most 3 rules (or the empty
    one) always attains the optimum; candidates stay well under 300."""
    edges = sorted(
        EDGE_POOL[k] for k in rng.choice(3, size=rng.integers(1, 4), replace=False))
    n_ad = int(rng.integers(1, 7))
    n_cn = int(rng.integers(1, 13))
    examples = []
    for k in range(n_ad + n_cn):
        label = AD if k < n_ad else CN
        context = {}
        for e in edges:
            if rng.random() < 0.9:
                context[e] = int(rng.integers(0, 6))
        pen = int(rng.integers(1, 3)) if label == AD else int(rng.integers(1, 4))
        examples.append(make_example(f"{label.lower()}_{k:03d}", label, context, pen))
    record = to_examples(examples, edges)
    return LearningTask(build_space(SelectedEdges(tuple(edges), "dt"), record, 2), record)


def test_c1_gini_oracle():
    t0 = time.time()
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 50:
        a, b = int(rng.integers(0, 60)), int(rng.integers(0, 60))
        if a + b == 0:
            continue
        assert abs(gini(ClassCounts(a, b)) - oracle_gini_exact(a, b)) <= 1e-12
        checked += 1
    assert gini(ClassCounts(5, 5)) == 0.5
    assert gini(ClassCounts(10, 0)) == 0.0
    assert time.time() - t0 < 1.0
    report_line(1, "gini matches exact-rational oracle", t0)


def test_c2_cart_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(202)
    for trial in range(100):
        n = int(rng.integers(4, 51))
        f = int(rng.integers(1, 11))
        X = np.round(rng.uniform(0, 10, size=(n, f)), 2)
        labels = [AD if rng.random() < 0.5 else CN for _ in range(n)]
        if len(set(labels)) == 1:
            labels[0] = AD if labels[0] == CN else CN
        is_ad = np.array([l == AD for l in labels])
        samples = Features(X, is_ad, tuple(canonical_edges()[:f]))

        stump = fit_tree(samples, TreeParams(max_depth=1))
        want = oracle_best_split(X, is_ad)
        if want is None:
            assert isinstance(stump.root, Leaf)
        else:
            assert isinstance(stump.root, Internal)
            assert stump.root.feature == want[0]
            assert stump.root.threshold == want[1]
            assert abs(stump.root.impurity_decrease - want[2]) <= 1e-12

        if trial % 10 == 0:  # depth monotonicity on a subsample of trials
            trees = [fit_tree(samples, TreeParams(max_depth=d)) for d in range(0, 9)]
            accs = [evaluate(labels, [predict_tree(tree, x) for x in X]).accuracy
                    for tree in trees]
            assert all(a <= b + 1e-12 for a, b in zip(accs, accs[1:]))
    assert time.time() - t0 < 30.0
    report_line(2, "depth-1 fits equal exhaustive split search", t0)


def test_c3_learner_optimality():
    t0 = time.time()
    rng = np.random.default_rng(303)
    solved = 0
    while solved < 50:
        task = random_oracle_task(rng)
        if len(enumerate_candidates(task)) > 300:
            continue
        got = learn(task)
        want = brute_force_learn(task)
        assert got.optimal
        assert got.score.total == want.score.total
        assert got.hypothesis == want.hypothesis
        solved += 1
    assert time.time() - t0 < 300.0
    report_line(3, "exact search equals brute force on 50 tasks", t0)


def test_c4_threshold_reduction_soundness():
    t0 = time.time()
    rng = np.random.default_rng(404)
    tasks = [random_oracle_task(rng) for _ in range(20)]
    checked = 0
    while checked < 1000:
        task = tasks[int(rng.integers(0, len(tasks)))]
        edges = task.space.edges.edges
        picks = rng.choice(len(edges), size=int(rng.integers(1, min(2, len(edges)) + 1)),
                           replace=False)
        body = []
        for p in sorted(picks):
            e = edges[p]
            if not task.space.threshold_domain[e]:
                break
            body.append(BodyLiteral(e, COMPARATORS[rng.integers(0, 4)],
                                    int(rng.integers(-10, 20))))
        if not body:
            continue
        rule = Rule(tuple(body))
        snapped = snap_rule_to_domain(rule, task)
        for lit in snapped.body:
            assert lit.threshold in task.space.threshold_domain[lit.edge]
        for ex in example_rows(task.examples):
            assert rule_fires(rule, ex.context) == rule_fires(snapped, ex.context)
        checked += 1
    assert time.time() - t0 < 30.0
    report_line(4, "arbitrary thresholds reduce to domain thresholds", t0)


def test_c5_planted_rule_recovery(noise_free_report, noisy_report):
    t0 = time.time()
    clean = noise_free_report.summary()
    assert clean["val_accuracy"]["mean"] >= 0.95
    clean_selected = noise_free_report.per_repeat_selected()
    assert len(clean_selected) == 10
    assert all(PLANTED.edge in edges for edges in clean_selected.values())
    # every repeat's final hypothesis mentions the planted edge
    for fr in noise_free_report.folds:
        edges_used = {l.edge for r in fr.hypothesis.rules for l in r.body}
        assert PLANTED.edge in edges_used

    noisy = noisy_report.summary()
    assert noisy["val_accuracy"]["mean"] >= 0.80
    hits = sum(PLANTED.edge in edges
               for edges in noisy_report.per_repeat_selected().values())
    assert hits >= 8
    # every fold's learner tasks were proven optimal, on both fixtures
    for report in (noise_free_report, noisy_report):
        assert [(fr.repeat, fr.fold) for fr in report.folds if not fr.optimal] == []
    report_line(5, "planted edge recovered through the dt pipeline", t0)


def test_c6_interpretability_ordering(noisy_report):
    t0 = time.time()
    by_repeat = {}
    for fr in noisy_report.folds:
        by_repeat.setdefault(fr.repeat, []).append(fr)
    assert len(by_repeat) == 10
    for r, folds in by_repeat.items():
        hyp = np.mean([fr.hypothesis_atoms for fr in folds])
        dt = np.mean([fr.dt_atoms for fr in folds])
        rf = np.mean([fr.rf_atoms for fr in folds])
        assert hyp < dt < rf, f"repeat {r}: {hyp} < {dt} < {rf} violated"
    report_line(6, "hypothesis < tree < forest atom counts per repeat", t0)


def test_c7_penalty_partition_arithmetic():
    t0 = time.time()
    rng = np.random.default_rng(707)
    e = edge(0, 1)
    for _ in range(20):
        n_ad = int(rng.integers(2, 60))
        n_cn = int(rng.integers(2, 60))
        n_subsets = int(rng.integers(1, min(n_ad, 6) + 1))
        base_pen = int(rng.integers(1, 4))
        examples = [make_example(f"ad_{k:03d}", AD, {e: 100 + k}) for k in range(n_ad)]
        examples += [make_example(f"cn_{k:03d}", CN, {e: 500 + k}) for k in range(n_cn)]
        examples = to_examples(examples, (e,))
        space = build_space(SelectedEdges((e,), "dt"), examples)
        partition = partition_tasks(examples, space, n_subsets, base_pen,
                                    seed=int(rng.integers(0, 1000)))
        seen_ad = []
        for task in partition.tasks:
            ads = [ex for ex in example_rows(task.examples) if ex.is_ad]
            cns = [ex for ex in example_rows(task.examples) if not ex.is_ad]
            assert sorted(ex.id for ex in cns) == [f"cn_{k:03d}" for k in range(n_cn)]
            assert {ex.penalty for ex in cns} == {base_pen}
            expected = max(1, round(base_pen * n_cn / len(ads)))
            assert {ex.penalty for ex in ads} == {expected}
            seen_ad += [ex.id for ex in ads]
        assert sorted(seen_ad) == [f"ad_{k:03d}" for k in range(n_ad)]
    report_line(7, "partition penalties match the rescaling rule exactly", t0)


def test_c8_serialization_golden_file(tmp_path):
    t0 = time.time()
    # fixed 4-subject toy cohort with hand-computable strengths
    atlas = default_atlas()
    strengths = [
        {(2, 5): 0.123, (3, 17): 0.77},
        {(2, 5): 0.2, (3, 17): 0.5},
        {(2, 5): 2.0, (3, 17): 0.4},
        {(2, 5): 1.7, (3, 17): 0.9},
    ]
    labels = [AD, AD, CN, CN]
    subjects = []
    for k, (entries, label) in enumerate(zip(strengths, labels)):
        w = np.zeros((N_REGIONS, N_REGIONS))
        for (i, j), v in entries.items():
            w[i, j] = w[j, i] = v
        subjects.append(Subject(f"toy{k}", check_connectome(w), label, "F", "MfrA"))
    cohort = Cohort(tuple(subjects), atlas)
    manifest = save_cohort(cohort, tmp_path)
    (tmp_path / "mask.json").write_text(json.dumps([[2, 5], [3, 17]]))
    (tmp_path / "selected.json").write_text(
        json.dumps({"edges": [[2, 5], [3, 17]], "provenance": "dt"}))
    tasks_dir = tmp_path / "tasks"
    assert main(["build-task", "--cohort", str(manifest),
                 "--mask", str(tmp_path / "mask.json"),
                 "--selected", str(tmp_path / "selected.json"),
                 "--ad-subsets", "1", "--base-pen", "1",
                 "--max-body-edges", "2", "--out-dir", str(tasks_dir)]) == 0
    golden = Path(__file__).parent / "golden" / "toy_task.las"
    produced = (tasks_dir / "task_000.las").read_bytes()
    assert produced == golden.read_bytes()

    # hypothesis text round-trips through the internal parser
    from connrules.taskgen import parse_task_text
    task = parse_task_text(produced.decode())
    res = learn(task)
    text = hypothesis_to_text(res.hypothesis)
    assert parse_hypothesis_text(text) == res.hypothesis
    report_line(8, "task serialization is byte-stable; rules round-trip", t0)


def test_c9_end_to_end_determinism(tmp_path):
    t0 = time.time()
    cohort = generate_synthetic(3, 12, [PLANTED], 0.05)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    manifest = save_cohort(cohort, tmp_path)
    config = {
        "n_repeats": 2, "n_folds": 2, "base_seed": 11, "pipeline": "dt",
        "subsample_fraction": 0.9,
        "selector": {"k_global": 2, "k_total": 4},
        "n_ad_subsets": 2, "keep_ratio": 0.30, "max_body_edges": 2,
        "fit_reference_models": False,
    }
    cfg = tmp_path / "cv.json"
    cfg.write_text(json.dumps(config))
    assert main(["cv", "--config", str(cfg), "--cohort", str(manifest),
                 "--out-dir", str(out_a)]) == 0
    assert main(["cv", "--config", str(cfg), "--cohort", str(manifest),
                 "--out-dir", str(out_b)]) == 0
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    report_line(9, "repeated cv runs byte-identical", t0)
