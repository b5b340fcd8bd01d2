"""The input boundary: every file the CLI reads goes through cohort.read_input,
so a file it cannot use makes main exit 2 with the file named, never raise."""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connrules.cli import main
from connrules.crossval import config_from_obj


def run(argv) -> tuple[int, str]:
    """main(argv) and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Valid inputs of every kind, each from the command that writes it.

    small/ holds a 2-per-class cohort; tiny/ a 1-per-class one, on which every
    cv run stops within its first fold, so a generated config that parses
    never starts a long run."""
    root = tmp_path_factory.mktemp("inputs")
    small, tiny = root / "small", root / "tiny"
    cohort = str(small / "cohort.json")
    for argv in [
            ["synth", "--n-per-class", "2", "--planted", "2,5,2.0,low", "--out", str(small)],
            ["synth", "--n-per-class", "1", "--out", str(tiny)],
            ["mask", "--cohort", cohort, "--keep-ratio", "0.01", "--out", str(root / "mask.json")],
            ["mask", "--cohort", cohort, "--keep-ratio", "1.0", "--out", str(root / "all.json")],
            ["train", "--cohort", cohort, "--mask", str(root / "mask.json"),
             "--out", str(root / "dt.json")],
            ["train", "--cohort", cohort, "--mask", str(root / "mask.json"), "--model", "rf",
             "--out", str(root / "rf.json")],
            ["select", "--model", str(root / "dt.json"), "--k", "2",
             "--out", str(root / "selected.json")],
            ["build-task", "--cohort", cohort, "--mask", str(root / "all.json"),
             "--selected", str(root / "selected.json"), "--ad-subsets", "1", "--base-pen", "5",
             "--out-dir", str(root / "tasks")],
            ["learn", "--task", str(root / "tasks" / "task_000.las"),
             "--out", str(root / "hypothesis.json")]]:
        assert main(argv) == 0, argv
    config = {"n_repeats": 1, "n_folds": 2, "n_ad_subsets": 1, "selector": {"k_global": 2}}
    (root / "config.json").write_text(json.dumps(config))
    assert main(["cv", "--config", str(root / "config.json"), "--cohort", cohort,
                 "--out-dir", str(root / "run")]) == 0
    (root / "out").mkdir()
    ids = [s["id"] for s in json.loads((small / "cohort.json").read_text())["subjects"]]
    (root / "explanations.json").write_text(json.dumps({"k_instance": 2, "explanations": [
        {"subject_id": sid, "edges": [[2, 5], [0, 1]]} for sid in ids]}))
    return root


def inputs(ws) -> dict:
    """For each JSON input of the CLI: a valid document, the path a generated
    one is written to, and the command line that reads it; the command's
    other inputs are valid and hold no limit the generated file can break."""
    cohort = str(ws / "small" / "cohort.json")
    out = ws / "out"
    gen = ws / "gen"
    gen.mkdir(exist_ok=True)
    (gen / "run").mkdir(exist_ok=True)
    valid = {name: json.loads((ws / f"{name}.json").read_text())
             for name in ("mask", "selected", "hypothesis", "config", "explanations")}
    return {
        "mask": (valid["mask"], gen / "mask.json", lambda x: [
            "train", "--cohort", cohort, "--mask", x, "--out", str(out / "dt.json")]),
        "selected": (valid["selected"], gen / "selected.json", lambda x: [
            "build-task", "--cohort", cohort, "--mask", str(ws / "all.json"), "--selected", x,
            "--ad-subsets", "1", "--out-dir", str(out / "tasks")]),
        "tree": (json.loads((ws / "dt.json").read_text()), gen / "model.json", lambda x: [
            "select", "--model", x, "--k", "1", "--out", str(out / "selected.json")]),
        "forest": (json.loads((ws / "rf.json").read_text()), gen / "model.json", lambda x: [
            "select", "--model", x, "--k", "1", "--out", str(out / "selected.json")]),
        "hypothesis": (valid["hypothesis"], gen / "hypothesis.json", lambda x: [
            "infer", "--hypothesis", x, "--cohort", cohort, "--out-dir", str(out / "infer")]),
        "config": (valid["config"], gen / "config.json", lambda x: [
            "cv", "--config", x, "--cohort", str(ws / "tiny" / "cohort.json"),
            "--out-dir", str(out / "cv")]),
        "explanations": (valid["explanations"], gen / "explanations.json", lambda x: [
            "select", "--mode", "frequency", "--explanations", x, "--cohort", cohort,
            "--k", "1", "--out", str(out / "selected.json")]),
        # beside the matrices a valid manifest names
        "manifest": (json.loads((ws / "small" / "cohort.json").read_text()),
                     ws / "small" / "generated.json", lambda x: [
            "mask", "--cohort", x, "--out", str(out / "mask.json")]),
        "report": (json.loads((ws / "run" / "report.json").read_text()),
                   gen / "run" / "report.json", lambda x: [
            "report", "--run-dir", str(gen / "run")]),
    }


KEYS = ["atlas", "subjects", "id", "diagnosis", "sex", "manufacturer", "matrix", "edges",
        "provenance", "params", "feature_order", "root", "trees", "seed", "counts", "ad",
        "cn", "prediction", "feature", "threshold", "left", "right", "impurity_decrease",
        "n_samples", "rules", "body", "edge", "comparator", "k_instance", "explanations",
        "subject_id", "n_repeats", "n_folds", "pipeline", "selector", "k_global", "config",
        "summary", "mean", "std", "val_accuracy", "edge_frequency"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 90) | st.floats() | st.text(max_size=6),
    lambda kids: (st.lists(kids, max_size=4)
                  | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=6), kids,
                                    max_size=4)),
    max_leaves=10)


@st.composite
def mutated(draw, doc):
    """doc with one value somewhere inside it replaced by a JSON value, or
    one key dropped."""
    doc = copy.deepcopy(doc)
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, draw(st.sampled_from(keys))
        node = parent[key]
    if parent is None:
        return draw(json_values)
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(json_values)
    return doc


NAMES = ["mask", "selected", "tree", "forest", "hypothesis", "config", "explanations",
         "manifest", "report"]


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_json_input_exits_0_or_2_naming_the_file(ws, name, data):
    """A config that parses may still fail on the cohort (too few subjects
    for its folds); that error is about the pair, so only a config that does
    not parse must be named."""
    valid, path, argv = inputs(ws)[name]
    doc = data.draw(json_values | mutated(valid))
    path.write_text(json.dumps(doc))
    code, err = run(argv(str(path)))
    assert code in (0, 2), err
    if code == 2 and name == "config":
        try:
            config_from_obj(doc)
        except ValueError:
            pass
        else:
            return
    if code == 2:
        assert str(path) in err, err


def test_missing_file_named_by_every_loader(ws, tmp_path):
    gone = str(tmp_path / "gone.json")
    cohort = str(ws / "small" / "cohort.json")
    for argv, path in [
            (["mask", "--cohort", gone, "--out", str(tmp_path / "m.json")], gone),
            (["train", "--cohort", cohort, "--mask", gone, "--out", str(tmp_path / "m.json")],
             gone),
            (["select", "--model", gone, "--k", "1", "--out", str(tmp_path / "s.json")], gone),
            (["select", "--mode", "frequency", "--explanations", gone, "--k", "1",
              "--out", str(tmp_path / "s.json")], gone),
            (["build-task", "--cohort", cohort, "--mask", str(ws / "all.json"),
              "--selected", gone, "--out-dir", str(tmp_path / "t")], gone),
            (["learn", "--task", gone, "--out", str(tmp_path / "h.json")], gone),
            (["infer", "--hypothesis", gone, "--cohort", cohort,
              "--out-dir", str(tmp_path / "i")], gone),
            (["cv", "--config", gone, "--cohort", cohort, "--out-dir", str(tmp_path / "c")],
             gone),
            (["report", "--run-dir", str(tmp_path)], str(tmp_path / "report.json"))]:
        assert run(argv) == (2, f"error: missing file: {path}\n"), argv


def test_bad_task_among_several_is_named(ws, tmp_path):
    bad = tmp_path / "bad.las"
    bad.write_text("garbage\n")
    code, err = run(["learn", "--task", str(ws / "tasks" / "task_000.las"),
                     "--task", str(bad), "--out", str(tmp_path / "h.json")])
    assert code == 2
    assert f"{bad}: line 1: unrecognised line 'garbage'" in err


def test_config_errors_name_the_file(ws, tmp_path):
    config = tmp_path / "cv.json"
    for text, message in [("{not json", "Expecting property name"),
                          ('{"n_folds": "5"}', "config key 'n_folds' must be int, not str"),
                          ('{"keep_ratio": 0.0}', "keep_ratio must be in (0, 1], got 0.0"),
                          ('{"n_ad_subsets": 0}', "n_ad_subsets must be >= 1"),
                          ('{"max_body_edges": 0}', "max_body_edges must be >= 1"),
                          ('{"base_pen": 0}', "base_pen must be >= 1")]:
        config.write_text(text)
        code, err = run(["cv", "--config", str(config),
                         "--cohort", str(ws / "small" / "cohort.json"),
                         "--out-dir", str(tmp_path / "run")])
        assert code == 2
        assert f"{config}: {message}" in err


def test_malformed_report_is_named(tmp_path):
    report = tmp_path / "report.json"
    for doc, message in [([], "expected an object with key 'config', not list"),
                         ({"config": {}, "edge_frequency": []}, "missing key 'summary'")]:
        report.write_text(json.dumps(doc))
        assert run(["report", "--run-dir", str(tmp_path)]) == (
            2, f"error: {report}: {message}\n")


def deep_tree(depth: int) -> str:
    """Tree JSON whose left spine holds depth split nodes."""
    leaf = '{"counts": {"ad": 1, "cn": 0}, "prediction": "AD"}'
    split = ('{"feature": [0, 1], "threshold": 0.5, "impurity_decrease": 0.0, '
             '"n_samples": 1, "right": ' + leaf + ', "left": ')
    return ('{"params": {}, "feature_order": [[0, 1]], "root": '
            + split * depth + leaf + "}" * depth + "}")


def test_deeply_nested_model_is_named(tmp_path):
    model = tmp_path / "deep.json"
    model.write_text(deep_tree(1500))
    code, err = run(["select", "--model", str(model), "--k", "1",
                     "--out", str(tmp_path / "selected.json")])
    assert code == 2
    assert f"{model}: maximum recursion depth exceeded" in err
