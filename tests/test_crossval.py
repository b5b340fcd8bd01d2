import errno
import json
import os
import re
import signal
from pathlib import Path

import numpy as np
import pytest

import connrules.crossval as crossval_module
import connrules.forked as forked_module
from connrules.cohort import (
    AD,
    CN,
    Cohort,
    PlantedEdge,
    Subject,
    edge,
    generate_synthetic,
)
from connrules.crossval import (
    CVConfig,
    FoldResult,
    RunReport,
    config_from_obj,
    config_to_obj,
    fit_fold,
    mean_std,
    report_to_json,
    run_pipeline,
    stratified_folds,
    stratified_subsample,
)
from connrules.inference import ConfusionCounts, Metrics
from connrules.learner import Hypothesis, hypothesis_to_text
from connrules.selection import SelectedEdges, SelectorConfig

from conftest import assert_no_child_left, deadline, use_cpus

PLANTED = PlantedEdge(edge(2, 5), 2.0, "low")


def tiny_config(**kw):
    defaults = dict(
        n_repeats=1, subsample_fraction=0.9, n_folds=2, base_seed=0,
        pipeline="dt", selector=SelectorConfig(k_global=2), n_ad_subsets=2,
        keep_ratio=0.30, max_body_edges=2, fit_reference_models=False,
    )
    defaults.update(kw)
    return CVConfig(**defaults)


def relabel(cohort, subject_id, new_label):
    subjects = tuple(
        Subject(s.id, s.strengths, new_label if s.id == subject_id else s.diagnosis,
                s.sex, s.manufacturer)
        for s in cohort.subjects)
    return Cohort(subjects, cohort.atlas)


class TestStratifiedSubsample:
    def make_cohort(self, sizes):
        # one stratum per (label, sex) combo with the given sizes
        subjects = []
        combos = [(AD, "F"), (AD, "M"), (CN, "F"), (CN, "M")]
        base = generate_synthetic(0, sum(sizes) * 2)
        k = 0
        for size, (label, sex) in zip(sizes, combos):
            for _ in range(size):
                w = base.subjects[k].strengths
                subjects.append(Subject(f"x{k:03d}", w, label, sex, "MfrA"))
                k += 1
        return Cohort(tuple(subjects), base.atlas)

    def test_per_cell_rounding(self):
        cohort = self.make_cohort([8, 12])
        sub = stratified_subsample(cohort, 0.9, seed=1)
        by_cell = {}
        for s in sub.subjects:
            by_cell[(s.diagnosis, s.sex)] = by_cell.get((s.diagnosis, s.sex), 0) + 1
        assert by_cell == {(AD, "F"): 7, (AD, "M"): 11}

    def test_identity_fraction(self):
        cohort = self.make_cohort([5, 5])
        sub = stratified_subsample(cohort, 1.0, seed=3)
        assert [s.id for s in sub.subjects] == [s.id for s in cohort.subjects]

    def test_deterministic(self):
        cohort = self.make_cohort([9, 7, 5])
        a = stratified_subsample(cohort, 0.8, seed=42)
        b = stratified_subsample(cohort, 0.8, seed=42)
        assert [s.id for s in a.subjects] == [s.id for s in b.subjects]

    def test_small_cells_keep_at_least_one(self):
        cohort = self.make_cohort([1, 1, 2])
        sub = stratified_subsample(cohort, 0.5, seed=0)
        cells = {(s.diagnosis, s.sex) for s in sub.subjects}
        assert len(cells) == 3

    def test_bad_fraction(self):
        cohort = self.make_cohort([4])
        with pytest.raises(ValueError, match="fraction"):
            stratified_subsample(cohort, 0.0, seed=0)


class TestStratifiedFolds:
    def test_partition(self):
        cohort = generate_synthetic(1, 20)
        assignment = stratified_folds(cohort, 5, seed=0)
        assert sorted(assignment) == sorted(s.id for s in cohort.subjects)
        assert set(assignment.values()) == set(range(5))

    def test_even_stratum_balance(self):
        cohort = generate_synthetic(2, 20)  # each of 8 strata has 5 members
        assignment = stratified_folds(cohort, 5, seed=1)
        for stratum in {(s.diagnosis, s.sex, s.manufacturer) for s in cohort.subjects}:
            members = [s.id for s in cohort.subjects
                       if (s.diagnosis, s.sex, s.manufacturer) == stratum]
            counts = [0] * 5
            for sid in members:
                counts[assignment[sid]] += 1
            assert max(counts) - min(counts) <= 1

    def test_small_stratum_spillover(self):
        # a 3-member stratum over 5 folds: three folds get 1, two get 0
        cohort = generate_synthetic(3, 6)
        assignment = stratified_folds(cohort, 5, seed=2)
        stratum = (AD, "F", "MfrA")
        members = [s.id for s in cohort.subjects
                   if (s.diagnosis, s.sex, s.manufacturer) == stratum]
        counts = [0] * 5
        for sid in members:
            counts[assignment[sid]] += 1
        assert sorted(counts) == [0, 0, 1, 1, 1] or sum(counts) == len(members)

    def test_rejects_single_fold(self):
        cohort = generate_synthetic(0, 4)
        with pytest.raises(ValueError, match="n_folds"):
            stratified_folds(cohort, 1, seed=0)

    def test_deterministic(self):
        cohort = generate_synthetic(4, 10)
        assert stratified_folds(cohort, 3, seed=9) == stratified_folds(cohort, 3, seed=9)


class TestFitFold:
    def test_artifacts_depend_only_on_training_cohort(self):
        cohort = generate_synthetic(5, 12, [PLANTED], 0.0)
        train_ids = [s.id for k, s in enumerate(cohort.subjects) if k % 4 != 0]
        config = tiny_config()
        a = fit_fold(cohort.subset(train_ids), config, 1, 2)
        # rebuild the same training cohort from a differently-labelled full
        # cohort: validation subjects must not matter
        val_id = cohort.subjects[0].id
        assert val_id not in train_ids
        flipped = relabel(cohort, val_id, CN)
        b = fit_fold(flipped.subset(train_ids), config, 1, 2)
        assert hypothesis_to_text(a.hypothesis) == hypothesis_to_text(b.hypothesis)
        assert a.selected.edges == b.selected.edges
        assert a.mask.edges == b.mask.edges

    def test_training_label_change_does_matter(self):
        cohort = generate_synthetic(5, 12, [PLANTED], 0.0)
        train_ids = [s.id for k, s in enumerate(cohort.subjects) if k % 4 != 0]
        config = tiny_config()
        a = fit_fold(cohort.subset(train_ids), config, 1, 2)
        flipped = relabel(cohort, train_ids[0], CN)
        b = fit_fold(flipped.subset(train_ids), config, 1, 2)
        # not asserting inequality of hypotheses (could coincide), but the
        # training metrics pipeline must consume the changed labels
        assert [s.diagnosis for s in cohort.subset(train_ids).subjects] != \
            [s.diagnosis for s in flipped.subset(train_ids).subjects]
        assert b is not None


class TestRunPipeline:
    def test_shape_and_recovery_noise_free(self):
        # 20 per class: large enough that no background edge separates the
        # training split by chance and displaces the planted edge
        cohort = generate_synthetic(5, 20, [PLANTED], 0.0)
        report = run_pipeline(tiny_config(n_repeats=2), cohort)
        assert len(report.folds) == 4  # 2 repeats x 2 folds
        summary = report.summary()
        assert summary["val_accuracy"]["mean"] >= 0.9
        for edges in report.per_repeat_selected().values():
            assert PLANTED.edge in edges

    def test_byte_identical_reports(self):
        cohort = generate_synthetic(6, 10, [PLANTED], 0.1)
        config = tiny_config()
        a = report_to_json(run_pipeline(config, cohort))
        b = report_to_json(run_pipeline(config, cohort))
        assert a == b

    def test_rf_pipeline_smoke(self):
        cohort = generate_synthetic(
            7, 10,
            [PLANTED, PlantedEdge(edge(3, 9), 2.5, "high"),
             PlantedEdge(edge(10, 40), 2.0, "low")],
            0.0)
        config = tiny_config(pipeline="rf", selector=SelectorConfig(k_global=3))
        report = run_pipeline(config, cohort)
        assert len(report.folds) == 2
        assert report.summary()["val_accuracy"]["mean"] >= 0.5

    def test_external_explanations_pipeline(self, tmp_path):
        cohort = generate_synthetic(5, 20, [PLANTED], 0.0)
        # distractor edges with the highest mean weight survive any 30% mask
        iu = np.triu_indices(84, k=1)
        means = np.mean([s.strengths for s in cohort.subjects], axis=0)
        order = np.argsort(-means)
        distractors = []
        for t in order:
            e = edge(int(iu[0][t]), int(iu[1][t]))
            if e != PLANTED.edge:
                distractors.append(e)
            if len(distractors) == 2:
                break
        records = []
        for k, s in enumerate(cohort.subjects):
            d = distractors[0] if k % 3 else distractors[1]
            records.append({"subject_id": s.id, "edges": [[2, 5], [d.i, d.j]]})
        path = tmp_path / "explanations.json"
        path.write_text(json.dumps({"k_instance": 2, "explanations": records}))
        config = tiny_config(
            pipeline="external_explanations",
            selector=SelectorConfig(k_total=2),
            explanations_path=str(path),
        )
        report = run_pipeline(config, cohort)
        for fr in report.folds:
            assert PLANTED.edge in fr.selected.edges
            assert fr.selected.provenance == "external"
        assert report.summary()["val_accuracy"]["mean"] >= 0.9

    def test_reference_models_recorded(self):
        cohort = generate_synthetic(8, 10, [PLANTED], 0.0)
        report = run_pipeline(tiny_config(fit_reference_models=True), cohort)
        for fr in report.folds:
            assert fr.dt_atoms is not None and fr.dt_atoms >= 1
            assert fr.rf_atoms is not None and fr.rf_atoms >= 100
        summary = report.summary()
        for key in ("hypothesis_atoms", "dt_atoms", "rf_atoms"):
            assert set(summary[key]) == {"mean", "std"}

    def test_interpretability_requires_reference_models(self):
        cohort = generate_synthetic(5, 10, [PLANTED], 0.0)
        summary = run_pipeline(tiny_config(), cohort).summary()
        assert summary["rf_atoms"] is None  # the dt pipeline fits only the tree
        assert set(summary["dt_atoms"]) == set(summary["hypothesis_atoms"]) == {"mean", "std"}


class TestForestBesideTheFold:
    """fit_fold grows its forest in forked children while its tree, tasks
    and learner run; nothing it reports depends on how many CPUs it has."""

    COHORT = generate_synthetic(6, 12, [PLANTED], 0.1)

    @pytest.fixture(params=["dt", "rf"])
    def config(self, request):
        return tiny_config(pipeline=request.param, fit_reference_models=True)

    @pytest.mark.parametrize("cpus, setting, n_forks", [
        (1, "", 0), (2, "", 4), (4, "", 8), (4, "child killed", 8),
        (4, "second fork fails", 8)])
    def test_report_is_the_same_on_any_cpu_count(self, config, monkeypatch, forks, cpus,
                                                 setting, n_forks):
        use_cpus(monkeypatch, 1)
        want = report_to_json(run_pipeline(config, self.COHORT))
        assert forks == []
        use_cpus(monkeypatch, cpus)
        if setting == "child killed":  # in every fold, the child for the last trees
            here, init = os.getpid(), forked_module.ForkedBlocks.__init__

            def dying_last(blocks, n, work, finish):
                def work_or_die(lo, hi):
                    if hi == n and os.getpid() != here:
                        os.kill(os.getpid(), signal.SIGKILL)
                    return work(lo, hi)

                init(blocks, n, work_or_die, finish)

            monkeypatch.setattr(forked_module.ForkedBlocks, "__init__", dying_last)
        elif setting == "second fork fails":
            fork = os.fork  # counted by forks

            def second_fails():
                if len(forks) == 1:
                    forks.append(None)
                    raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
                return fork()

            monkeypatch.setattr(os, "fork", second_fails)
        assert report_to_json(run_pipeline(config, self.COHORT)) == want
        assert len(forks) == n_forks

    @pytest.mark.parametrize("error", [RuntimeError("in the learner"), KeyboardInterrupt()])
    def test_error_before_the_join_propagates(self, config, monkeypatch, forks, error):
        def failing(task, budget):
            raise error

        use_cpus(monkeypatch, 2)
        monkeypatch.setattr(crossval_module, "learn", failing)
        with deadline(60), pytest.raises(type(error)) as raised:
            run_pipeline(config, self.COHORT)
        assert raised.value is error
        assert len(forks) == 2
        assert_no_child_left()


class TestSummaries:
    def fold_result(self, repeat, fold, acc, atoms):
        metrics = Metrics(acc, acc, acc, ConfusionCounts(1, 0, 0, 1))
        return FoldResult(
            repeat=repeat, fold=fold, n_train=4, n_val=2,
            selected=SelectedEdges((edge(0, 1),), "dt"),
            hypothesis=Hypothesis(()), optimal=True,
            hypothesis_atoms=atoms, dt_atoms=atoms + 10, rf_atoms=atoms + 100,
            dt_val_accuracy=acc, rf_val_accuracy=acc,
            train=metrics, val=metrics)

    def test_sample_std(self):
        assert mean_std([20, 24]) == {"mean": 22.0, "std": pytest.approx(2.8284271247461903)}

    def test_single_value_std_zero(self):
        assert mean_std([5.0]) == {"mean": 5.0, "std": 0.0}

    def test_summary_matches_recomputation(self):
        report = RunReport(tiny_config(), [
            self.fold_result(0, 0, 0.8, 20),
            self.fold_result(0, 1, 0.9, 24),
            self.fold_result(1, 0, 1.0, 22),
        ])
        summary = report.summary()
        vals = [0.8, 0.9, 1.0]
        assert summary["val_accuracy"]["mean"] == pytest.approx(np.mean(vals), abs=1e-9)
        assert summary["val_accuracy"]["std"] == pytest.approx(np.std(vals, ddof=1), abs=1e-9)
        assert summary["hypothesis_atoms"]["mean"] == pytest.approx(22.0)

    def test_edge_frequency_counts_repeats(self):
        report = RunReport(tiny_config(), [
            self.fold_result(0, 0, 1.0, 3),
            self.fold_result(0, 1, 1.0, 3),
            self.fold_result(1, 0, 1.0, 3),
        ])
        assert report.edge_frequency() == [(edge(0, 1), 2)]


class TestConfig:
    def test_readme_config_block_is_a_cv_config(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"`cv\.json` mirrors the `CVConfig` dataclass:\n\n```json\n(.*?)```",
                          readme, re.S)
        config = config_from_obj(json.loads(block.group(1)))
        assert config == CVConfig(selector=SelectorConfig(k_global=3, k_total=4),
                                  keep_ratio=0.30, max_body_edges=2)

    def test_json_round_trip(self):
        config = tiny_config(pipeline="dt", budget=1234)
        assert config_from_obj(config_to_obj(config)) == config

    def test_unknown_keys_rejected(self):
        obj = config_to_obj(tiny_config())
        with pytest.raises(ValueError, match=r"unknown config key\(s\): n_fold, pipline"):
            config_from_obj({**obj, "n_fold": 3, "pipline": "dt"})
        obj["selector"]["k_globl"] = 2
        with pytest.raises(ValueError, match=r"unknown selector key\(s\): k_globl"):
            config_from_obj(obj)
        with pytest.raises(ValueError, match="selector must be a JSON object"):
            config_from_obj({**obj, "selector": 3})

    def test_wrong_value_types_rejected(self):
        obj = config_to_obj(tiny_config())
        for key, value, message in [
            ("n_folds", "5", "config key 'n_folds' must be int, not str"),
            ("n_repeats", True, "config key 'n_repeats' must be int, not bool"),
            ("fit_reference_models", 1, "config key 'fit_reference_models' must be bool, not int"),
            ("explanations_path", 3, "config key 'explanations_path' must be str | None, not int"),
        ]:
            with pytest.raises(ValueError, match=re.escape(message)):
                config_from_obj({**obj, key: value})
        with pytest.raises(ValueError, match="selector key 'k_global' must be int, not float"):
            config_from_obj({**obj, "selector": {**obj["selector"], "k_global": 2.5}})
        assert config_from_obj({**obj, "keep_ratio": 1}).keep_ratio == 1  # int for a float

    def test_validation(self):
        with pytest.raises(ValueError, match="n_folds"):
            tiny_config(n_folds=1)
        with pytest.raises(ValueError, match="pipeline"):
            tiny_config(pipeline="svm")
        with pytest.raises(ValueError, match="explanations_path"):
            tiny_config(pipeline="external_explanations")
        for keep_ratio in (0.0, 1.5):
            with pytest.raises(ValueError, match=r"keep_ratio must be in \(0, 1\]"):
                tiny_config(keep_ratio=keep_ratio)
        for name in ("n_ad_subsets", "max_body_edges", "base_pen"):
            with pytest.raises(ValueError, match=f"{name} must be >= 1"):
                tiny_config(**{name: 0})

    def test_budget_below_1_rejected(self):
        for budget in (0, -5):
            with pytest.raises(ValueError, match="budget must be >= 1"):
                tiny_config(budget=budget)
            with pytest.raises(ValueError, match="budget must be >= 1"):
                config_from_obj({**config_to_obj(tiny_config()), "budget": budget})
