import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from connrules.cli import main
from connrules.cohort import N_REGIONS, default_atlas, load_cohort

GOLDEN = Path(__file__).parent / "golden" / "toy_task.las"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> mask -> train -> select -> build-task -> learn -> infer."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["synth", "--seed", "7", "--n-per-class", "20",
                 "--planted", "2,5,2.0,low", "--out", str(root)]) == 0
    cohort = str(root / "cohort.json")
    mask = str(root / "mask.json")
    assert main(["mask", "--cohort", cohort, "--keep-ratio", "0.30",
                 "--out", mask]) == 0
    model = str(root / "dt.json")
    assert main(["train", "--cohort", cohort, "--mask", mask,
                 "--model", "dt", "--out", model]) == 0
    selected = str(root / "selected.json")
    assert main(["select", "--mode", "global", "--model", model,
                 "--k", "2", "--out", selected]) == 0
    tasks = root / "tasks"
    assert main(["build-task", "--cohort", cohort, "--mask", mask,
                 "--selected", selected, "--ad-subsets", "2",
                 "--out-dir", str(tasks)]) == 0
    hyp = str(root / "hypothesis.json")
    task_files = sorted(str(p) for p in tasks.glob("task_*.las"))
    args = ["learn", "--out", hyp]
    for t in task_files:
        args += ["--task", t]
    assert main(args) == 0
    return root


class TestWalkthrough:
    def test_artifacts_exist(self, workspace):
        assert (workspace / "cohort.json").exists()
        assert len(json.loads((workspace / "mask.json").read_text())) == 1046
        assert (workspace / "hypothesis.lp").exists()
        assert {p.suffix for p in (workspace / "tasks").iterdir()} == {".las"}

    def test_selected_contains_planted_edge(self, workspace):
        selected = json.loads((workspace / "selected.json").read_text())
        assert [2, 5] in selected["edges"]

    def test_infer(self, workspace):
        out = workspace / "inferred"
        assert main(["infer", "--hypothesis", str(workspace / "hypothesis.json"),
                     "--cohort", str(workspace / "cohort.json"),
                     "--out-dir", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["accuracy"] >= 0.95
        lines = (out / "predictions.csv").read_text().strip().splitlines()
        assert len(lines) == 41  # header + 40 subjects

    def test_infer_from_asp_text(self, workspace):
        out = workspace / "inferred_lp"
        assert main(["infer", "--hypothesis", str(workspace / "hypothesis.lp"),
                     "--cohort", str(workspace / "cohort.json"),
                     "--out-dir", str(out)]) == 0
        a = json.loads((out / "metrics.json").read_text())
        b = json.loads((workspace / "inferred" / "metrics.json").read_text())
        assert a == b

    def test_infer_empty_hypothesis(self, workspace):
        # no rule reads an edge, so the facts matrix has 0 columns
        hyp = workspace / "empty.json"
        hyp.write_text(json.dumps({"rules": [], "atom_count": 0}))
        out = workspace / "inferred_empty"
        assert main(["infer", "--hypothesis", str(hyp),
                     "--cohort", str(workspace / "cohort.json"), "--out-dir", str(out)]) == 0
        with open(out / "predictions.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [r[0] for r in rows] == [s.id for s in
                                        load_cohort(workspace / "cohort.json").subjects]
        assert {tuple(r[2:]) for r in rows} == {("CN", "")}

    def test_learn_prints_counts_per_task(self, workspace, tmp_path, capsys):
        tasks = sorted(str(p) for p in (workspace / "tasks").glob("task_*.las"))
        args = ["learn", "--out", str(tmp_path / "h.json")]
        for t in tasks:
            args += ["--task", t]
        assert main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(tasks) + 1
        for task, line in zip(tasks, lines):
            assert re.fullmatch(rf"{re.escape(task)}: \d+ bodies, \d+ filtered, "
                                r"\d+ undominated, \d+ nodes, optimal=True", line)

    def test_rf_train_and_select(self, workspace):
        model = str(workspace / "rf.json")
        assert main(["train", "--cohort", str(workspace / "cohort.json"),
                     "--mask", str(workspace / "mask.json"),
                     "--model", "rf", "--seed", "3", "--out", model]) == 0
        selected = str(workspace / "selected_rf.json")
        assert main(["select", "--mode", "global", "--model", model,
                     "--k", "3", "--out", selected]) == 0
        assert json.loads(open(selected).read())["provenance"] == "rf"

    def test_frequency_select(self, workspace):
        cohort = load_cohort(workspace / "cohort.json")
        records = [{"subject_id": s.id, "edges": [[2, 5], [0, 1]]}
                   for s in cohort.subjects]
        path = workspace / "explanations.json"
        path.write_text(json.dumps({"k_instance": 2, "explanations": records}))
        out = str(workspace / "selected_freq.json")
        assert main(["select", "--mode", "frequency", "--explanations", str(path),
                     "--cohort", str(workspace / "cohort.json"),
                     "--k", "2", "--out", out]) == 0
        assert json.loads(open(out).read())["edges"] == [[0, 1], [2, 5]]


class TestCvAndReport:
    def test_cv_then_report(self, workspace, tmp_path):
        config = {
            "n_repeats": 1, "n_folds": 2, "base_seed": 0, "pipeline": "dt",
            "subsample_fraction": 0.9,
            "selector": {"k_global": 2, "k_total": 4},
            "n_ad_subsets": 2, "keep_ratio": 0.30, "max_body_edges": 2,
            "fit_reference_models": True,
        }
        cfg_path = tmp_path / "cv.json"
        cfg_path.write_text(json.dumps(config))
        run_dir = tmp_path / "run"
        assert main(["cv", "--config", str(cfg_path),
                     "--cohort", str(workspace / "cohort.json"),
                     "--out-dir", str(run_dir)]) == 0
        report = json.loads((run_dir / "report.json").read_text())
        assert len(report["folds"]) == 2
        assert main(["report", "--run-dir", str(run_dir)]) == 0
        md = (run_dir / "report.md").read_text()
        assert "| Model | ACC (%) |" in md
        assert (run_dir / "tables.json").exists()


class TestExitCodes:
    def test_validation_error_is_2(self, tmp_path):
        assert main(["mask", "--cohort", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "m.json")]) == 2

    def test_budget_exceeded_is_3(self, workspace, tmp_path, capsys):
        task = sorted((workspace / "tasks").glob("task_*.las"))[0]
        out = str(tmp_path / "h.json")
        code = main(["learn", "--task", str(task), "--budget", "1", "--out", out])
        assert code == 3
        assert (tmp_path / "h.json").exists()  # incumbent still written
        assert f"budget exceeded on 1 task(s): {task};" in capsys.readouterr().err

    def test_budget_below_1_is_2(self, workspace, tmp_path, capsys):
        task = sorted((workspace / "tasks").glob("task_*.las"))[0]
        cfg_path = tmp_path / "cv.json"
        for budget in ("0", "-5"):
            assert main(["learn", "--task", str(task), "--budget", budget,
                         "--out", str(tmp_path / "h.json")]) == 2
            assert f"node budget must be >= 1, got {budget}" in capsys.readouterr().err
            cfg_path.write_text(json.dumps({"budget": int(budget)}))
            assert main(["cv", "--config", str(cfg_path),
                         "--cohort", str(workspace / "cohort.json"),
                         "--out-dir", str(tmp_path / "run")]) == 2
            assert "budget must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "h.json").exists()
        assert not (tmp_path / "run").exists()

    def test_learn_out_with_lp_suffix_is_2(self, workspace, tmp_path, capsys):
        # the rule text goes to --out with suffix .lp: it would overwrite the JSON
        task = sorted((workspace / "tasks").glob("task_*.las"))[0]
        out = tmp_path / "h.lp"
        assert main(["learn", "--task", str(task), "--out", str(out)]) == 2
        assert f"--out {out} is the path of the .lp rule text" in capsys.readouterr().err
        assert not out.exists()

    def test_selected_missing_key_is_2(self, workspace, tmp_path, capsys):
        selected = tmp_path / "selected.json"
        selected.write_text(json.dumps({"edge": [[2, 5]], "provenance": "dt"}))
        assert main(["build-task", "--cohort", str(workspace / "cohort.json"),
                     "--mask", str(workspace / "mask.json"), "--selected", str(selected),
                     "--out-dir", str(tmp_path / "tasks")]) == 2
        assert f"{selected}: missing key 'edges'" in capsys.readouterr().err

    def test_selected_non_integer_index_is_2(self, workspace, tmp_path, capsys):
        selected = tmp_path / "selected.json"
        for bad in ([2.7, 5], ["2", 5], [True, 5]):
            selected.write_text(json.dumps({"edges": [bad], "provenance": "dt"}))
            assert main(["build-task", "--cohort", str(workspace / "cohort.json"),
                         "--mask", str(workspace / "mask.json"), "--selected", str(selected),
                         "--out-dir", str(tmp_path / "tasks")]) == 2
            assert (f"{selected}: region index must be an integer, not {bad[0]!r}"
                    in capsys.readouterr().err)
        assert not (tmp_path / "tasks").exists()

    def test_selected_provenance_not_a_word_is_2(self, workspace, tmp_path, capsys):
        selected = tmp_path / "selected.json"
        for bad in ("dt\n#pos(ad_999@50, {ad}, {cn}, {  }).", "dt\n#maxv(1).", 5):
            selected.write_text(json.dumps({"edges": [[2, 5]], "provenance": bad}))
            assert main(["build-task", "--cohort", str(workspace / "cohort.json"),
                         "--mask", str(workspace / "mask.json"), "--selected", str(selected),
                         "--out-dir", str(tmp_path / "tasks")]) == 2
            assert (f"{selected}: provenance must be a word, not {bad!r}"
                    in capsys.readouterr().err)
        assert not (tmp_path / "tasks").exists()

    def test_frequency_k_below_one_is_2(self, workspace, tmp_path, capsys):
        path = tmp_path / "explanations.json"
        path.write_text(json.dumps({"k_instance": 2, "explanations": [
            {"subject_id": "s0000", "edges": [[2, 5], [0, 1]]},
            {"subject_id": "s0001", "edges": [[2, 5], [0, 2]]}]}))
        for k in ("-1", "0"):
            assert main(["select", "--mode", "frequency", "--explanations", str(path),
                         "--k", k, "--out", str(tmp_path / "selected.json")]) == 2
            assert "k_total must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "selected.json").exists()

    def test_model_node_field_of_wrong_type_is_2(self, workspace, tmp_path, capsys):
        for set_bad, message in [
                (lambda root: root["left"]["counts"].update(ad="x"), "ad must be int, not str"),
                (lambda root: root.update(n_samples="x"), "n_samples must be int, not str")]:
            tree = json.loads((workspace / "dt.json").read_text())
            root = tree["root"]
            while "prediction" not in root["left"]:
                root = root["left"]
            set_bad(root)
            model = tmp_path / "bad.json"
            model.write_text(json.dumps(tree))
            assert main(["select", "--mode", "global", "--model", str(model),
                         "--k", "2", "--out", str(tmp_path / "selected.json")]) == 2
            assert f"{model}: {message}" in capsys.readouterr().err

    def test_mask_non_integer_index_is_2(self, workspace, tmp_path, capsys):
        mask = tmp_path / "mask.json"
        mask.write_text(json.dumps([[0, 1], [2.7, 5]]))
        assert main(["train", "--cohort", str(workspace / "cohort.json"),
                     "--mask", str(mask), "--out", str(tmp_path / "dt.json")]) == 2
        assert f"{mask}: region index must be an integer, not 2.7" in capsys.readouterr().err

    def test_mask_repeating_an_edge_is_2(self, workspace, tmp_path, capsys):
        mask = tmp_path / "mask.json"
        mask.write_text(json.dumps([[0, 1], [0, 1], [2, 5]]))
        assert main(["train", "--cohort", str(workspace / "cohort.json"),
                     "--mask", str(mask), "--out", str(tmp_path / "dt.json")]) == 2
        assert f"{mask}: mask repeats edge [0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "dt.json").exists()

    @pytest.mark.parametrize("mode, option", [("global", "--model"),
                                              ("frequency", "--explanations")])
    def test_select_without_its_input_is_2(self, tmp_path, capsys, mode, option):
        out = tmp_path / "s.json"
        assert main(["select", "--mode", mode, "--k", "1", "--out", str(out)]) == 2
        assert f"error: select --mode {mode} needs {option}" in capsys.readouterr().err
        assert not out.exists()

    def test_model_missing_key_is_2(self, workspace, tmp_path, capsys):
        tree = json.loads((workspace / "dt.json").read_text())
        forest = {"params": {"n_estimators": 1}, "seed": 0, "trees": [tree]}
        del tree["feature_order"]
        for obj in (tree, forest):
            model = tmp_path / "bad.json"
            model.write_text(json.dumps(obj))
            assert main(["select", "--mode", "global", "--model", str(model),
                         "--k", "2", "--out", str(tmp_path / "selected.json")]) == 2
            assert f"{model}: missing key 'feature_order'" in capsys.readouterr().err

    def test_model_unknown_params_key_is_2(self, workspace, tmp_path, capsys):
        tree = json.loads((workspace / "dt.json").read_text())
        tree["params"] = {"max_dept": 3}
        forest = {"params": {"n_estimators": 1, "max_features": 2.5}, "seed": 0,
                  "trees": [json.loads((workspace / "dt.json").read_text())]}
        for obj, message in [(tree, "unknown params key(s): max_dept"),
                             (forest, "params key 'max_features' must be str | int | None, "
                                      "not float")]:
            model = tmp_path / "bad.json"
            model.write_text(json.dumps(obj))
            assert main(["select", "--mode", "global", "--model", str(model),
                         "--k", "2", "--out", str(tmp_path / "selected.json")]) == 2
            assert f"{model}: {message}" in capsys.readouterr().err

    def test_explanations_k_instance_of_wrong_type_is_2(self, workspace, tmp_path, capsys):
        path = tmp_path / "explanations.json"
        records = [{"subject_id": "ad_000", "edges": [[2, 5], [0, 1]]}]
        for bad in (2.7, True):
            path.write_text(json.dumps({"k_instance": bad, "explanations": records}))
            assert main(["select", "--mode", "frequency", "--explanations", str(path),
                         "--k", "2", "--out", str(tmp_path / "selected.json")]) == 2
            assert (f"{path}: k_instance must be int, not {type(bad).__name__}"
                    in capsys.readouterr().err)
        assert not (tmp_path / "selected.json").exists()

    def test_config_value_of_wrong_type_is_2(self, workspace, tmp_path, capsys):
        cfg_path = tmp_path / "cv.json"
        cfg_path.write_text(json.dumps({"n_folds": "5"}))
        assert main(["cv", "--config", str(cfg_path),
                     "--cohort", str(workspace / "cohort.json"),
                     "--out-dir", str(tmp_path / "run")]) == 2
        assert "config key 'n_folds' must be int, not str" in capsys.readouterr().err

    def test_bad_planted_spec_is_2(self, tmp_path):
        assert main(["synth", "--planted", "1,2,3", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("threshold", ["0", "-1", "nan", "inf", "1e308", "5e307", "5e-324"])
    def test_planted_threshold_out_of_range_is_2(self, tmp_path, capsys, threshold):
        assert main(["synth", "--planted", f"2,5,{threshold},low", "--out", str(tmp_path)]) == 2
        assert "planted threshold must be > 0 and at most" in capsys.readouterr().err
        assert not (tmp_path / "cohort.json").exists()

    def test_mask_of_overflowing_weights_is_2(self, tmp_path, capsys):
        w = np.zeros((N_REGIONS, N_REGIONS))
        w[0, 1] = w[1, 0] = 1e308
        matrix = tmp_path / "s0.csv"
        np.savetxt(matrix, w, delimiter=",")
        manifest = tmp_path / "cohort.json"
        manifest.write_text(json.dumps({"atlas": list(default_atlas().names), "subjects": [
            {"id": "s0", "diagnosis": "AD", "sex": "F", "manufacturer": "MfrA",
             "matrix": "s0.csv"}]}))
        out = tmp_path / "mask.json"
        assert main(["mask", "--cohort", str(manifest), "--out", str(out)]) == 2
        assert (f"error: {manifest}: {matrix}: weights at (0, 1) and (1, 0) overflow"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_unknown_config_key_is_2(self, workspace, tmp_path, capsys):
        cfg_path = tmp_path / "cv.json"
        cfg_path.write_text(json.dumps({"n_repeat": 1, "selector": {"k_globl": 2}}))
        assert main(["cv", "--config", str(cfg_path),
                     "--cohort", str(workspace / "cohort.json"),
                     "--out-dir", str(tmp_path / "run")]) == 2
        assert "unknown config key(s): n_repeat" in capsys.readouterr().err
        # selection follows pipeline, and an explanations file states its own width
        cfg_path.write_text(json.dumps({"selector": {"mode": "global_importance",
                                                     "k_instance": 10}}))
        assert main(["cv", "--config", str(cfg_path),
                     "--cohort", str(workspace / "cohort.json"),
                     "--out-dir", str(tmp_path / "run")]) == 2
        assert "unknown selector key(s): k_instance, mode" in capsys.readouterr().err

    def test_manifest_missing_key_is_2(self, workspace, tmp_path, capsys):
        doc = json.loads((workspace / "cohort.json").read_text())
        del doc["subjects"][1]["diagnosis"]
        manifest = workspace / "no_diagnosis.json"  # beside the matrices it names
        manifest.write_text(json.dumps(doc))
        assert main(["mask", "--cohort", str(manifest),
                     "--out", str(tmp_path / "m.json")]) == 2
        err = capsys.readouterr().err
        assert f"{manifest}: subject {doc['subjects'][1]['id']!r}: missing key 'diagnosis'" in err

    @pytest.mark.parametrize("change, message", [
        (lambda doc: doc["subjects"], "expected an object with key 'atlas', not list"),
        (lambda doc: {**doc, "subjects": [{**doc["subjects"][0], "matrix": 5}]},
         "subject 's0000': matrix must be str, not int"),
        (lambda doc: {**doc, "subjects": [{**doc["subjects"][0], "id": 7}]},
         "subject at position 0: id must be str, not int"),
    ], ids=["list", "matrix-int", "id-int"])
    def test_manifest_of_wrong_type_is_2(self, workspace, tmp_path, capsys, change, message):
        doc = json.loads((workspace / "cohort.json").read_text())
        manifest = workspace / "wrong_type.json"  # beside the matrices it names
        manifest.write_text(json.dumps(change(doc)))
        assert main(["mask", "--cohort", str(manifest),
                     "--out", str(tmp_path / "m.json")]) == 2
        err = capsys.readouterr().err
        assert f"{manifest}: " in err and message in err

    def test_hypothesis_missing_key_is_2(self, workspace, tmp_path, capsys):
        hyp = tmp_path / "h.json"
        hyp.write_text(json.dumps({"rule": []}))
        assert main(["infer", "--hypothesis", str(hyp),
                     "--cohort", str(workspace / "cohort.json"),
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert f"{hyp}: missing key 'rules'" in capsys.readouterr().err

    def test_hypothesis_threshold_of_wrong_type_is_2(self, workspace, tmp_path, capsys):
        obj = json.loads((workspace / "hypothesis.json").read_text())
        obj["rules"][0]["body"][0]["threshold"] = "5"
        hyp = tmp_path / "h.json"
        hyp.write_text(json.dumps(obj))
        assert main(["infer", "--hypothesis", str(hyp),
                     "--cohort", str(workspace / "cohort.json"),
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert f"{hyp}: threshold must be int, not str" in capsys.readouterr().err

    def test_strength_too_large_for_int64_is_2(self, tmp_path, capsys):
        # strengths near 1e300 on the planted edge scale far above 2**63 - 1
        w = tmp_path / "w"
        cohort, mask, model, selected = (str(w / name) for name in (
            "cohort.json", "mask.json", "dt.json", "selected.json"))
        assert main(["synth", "--seed", "7", "--n-per-class", "20",
                     "--planted", "2,5,1e300,high", "--out", str(w)]) == 0
        assert main(["mask", "--cohort", cohort, "--out", mask]) == 0
        assert main(["train", "--cohort", cohort, "--mask", mask, "--out", model]) == 0
        assert main(["select", "--model", model, "--k", "3", "--out", selected]) == 0
        assert [2, 5] in json.loads(Path(selected).read_text())["edges"]
        capsys.readouterr()
        assert main(["build-task", "--cohort", cohort, "--mask", mask, "--selected", selected,
                     "--out-dir", str(w / "tasks")]) == 2
        message = r"error: strength [0-9.]+e\+300 scales to an integer above 2\*\*63 - 1"
        assert re.search(message, capsys.readouterr().err)
        assert not (w / "tasks").exists()
        cfg_path = tmp_path / "cv.json"
        cfg_path.write_text(json.dumps({"n_repeats": 1, "n_folds": 2,
                                        "fit_reference_models": False}))
        assert main(["cv", "--config", str(cfg_path), "--cohort", cohort,
                     "--out-dir", str(tmp_path / "run")]) == 2
        assert re.search(message, capsys.readouterr().err)
        assert not (tmp_path / "run").exists()

    def test_fact_too_large_for_int64_is_2(self, tmp_path, capsys):
        task = tmp_path / "t.las"
        task.write_text(GOLDEN.read_text().replace("region(5), 1700).", f"region(5), {2**63})."))
        out = tmp_path / "h.json"
        assert main(["learn", "--task", str(task), "--out", str(out)]) == 2
        assert (f"error: {task}: line 28: example 'cn_001' has fact {2**63}, above 2**63 - 1"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("cn_penalty, message", [
        (2**63, f"line 27: example 'cn_000' has penalty {2**63}, not in 1 .. 2**63 - 1"),
        (2**62, f"penalties too large: with the atoms of one rule they sum to {2**63 + 25}"),
    ], ids=["above-int64", "sum-above-int64"])
    def test_penalties_too_large_for_int64_are_2(self, tmp_path, capsys, cn_penalty, message):
        # AD penalties 10, CN penalties cn_penalty: one does not fit an int64,
        # or two of them overflow learn's int64 sums
        text = GOLDEN.read_text()
        for eid, penalty in (("ad_000", 10), ("ad_001", 10),
                             ("cn_000", cn_penalty), ("cn_001", cn_penalty)):
            text = text.replace(f"#pos({eid}@1,", f"#pos({eid}@{penalty},")
        task = tmp_path / "t.las"
        task.write_text(text)
        out = tmp_path / "h.json"
        assert main(["learn", "--task", str(task), "--out", str(out)]) == 2
        assert f"error: {task}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_base_pen_too_large_for_int64_is_2(self, workspace, tmp_path, capsys):
        for base_pen in (2**62, 2**63):
            assert main(["build-task", "--cohort", str(workspace / "cohort.json"),
                         "--mask", str(workspace / "mask.json"),
                         "--selected", str(workspace / "selected.json"),
                         "--base-pen", str(base_pen), "--out-dir", str(tmp_path / "tasks")]) == 2
            assert "error: penalties too large" in capsys.readouterr().err
        assert not (tmp_path / "tasks").exists()

    def test_garbage_task_is_2(self, tmp_path, capsys):
        task = tmp_path / "garbage.las"
        task.write_text("garbage\n")
        out = tmp_path / "h.json"
        assert main(["learn", "--task", str(task), "--out", str(out)]) == 2
        assert "line 1: unrecognised line 'garbage'" in capsys.readouterr().err
        assert not out.exists()
