"""Command-line interface tying the pipeline stages together.

Exit codes: 0 success, 2 validation error, 3 learner budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import crossval
from .cohort import (
    PlantedEdge,
    _checked,
    _field,
    apply_mask,
    compute_mask,
    edge,
    edges_from_pairs,
    generate_synthetic,
    load_cohort,
    mask_from_json,
    mask_to_json,
    read_input,
    save_cohort,
)
from .forest import ForestParams, fit_forest, forest_from_obj, forest_importance, forest_to_json
from .inference import evaluate, metrics_to_obj, predict, predictions_to_csv
from .learner import (
    DEFAULT_NODE_BUDGET,
    hypothesis_from_json,
    hypothesis_to_json,
    hypothesis_to_text,
    learn,
    parse_hypothesis_text,
    union_hypotheses,
)
from .selection import SelectedEdges, aggregate_frequency, load_explanations, select_global
from .taskgen import (
    build_examples,
    build_space,
    context_from_weights,
    load_task,
    partition_tasks,
    serialize_task,
)
from .tree import TreeParams, fit_tree, tree_from_obj, tree_importance, tree_to_json


def _parse_planted(spec: str) -> PlantedEdge:
    parts = spec.split(",")
    if len(parts) != 4:
        raise ValueError(f"planted edge must be i,j,threshold,direction: {spec!r}")
    return PlantedEdge(edge(int(parts[0]), int(parts[1])), float(parts[2]), parts[3])


def _ranking_from_json(text: str):
    """The importance ranking of the tree or forest JSON in text."""
    obj = json.loads(text)
    if isinstance(obj, dict) and "trees" in obj:
        return forest_importance(forest_from_obj(obj))
    return tree_importance(tree_from_obj(obj))


def cmd_synth(args) -> int:
    planted = [_parse_planted(p) for p in args.planted]
    cohort = generate_synthetic(args.seed, args.n_per_class, planted, args.noise)
    manifest = save_cohort(cohort, args.out)
    print(f"wrote {manifest} ({len(cohort)} subjects)")
    return 0


def cmd_mask(args) -> int:
    cohort = load_cohort(args.cohort)
    mask = compute_mask(cohort, args.keep_ratio)
    Path(args.out).write_text(mask_to_json(mask))
    print(f"wrote {args.out} ({len(mask)} edges kept)")
    return 0


def cmd_train(args) -> int:
    cohort = load_cohort(args.cohort)
    mask = read_input(args.mask, mask_from_json)
    features = apply_mask(cohort, mask)
    if args.model == "dt":
        model = fit_tree(features, TreeParams())
        Path(args.out).write_text(tree_to_json(model))
    else:
        model = fit_forest(features, ForestParams(), seed=args.seed)
        Path(args.out).write_text(forest_to_json(model))
    print(f"wrote {args.out}")
    return 0


def cmd_select(args) -> int:
    if args.mode == "global":
        if args.model is None:
            raise ValueError("select --mode global needs --model")
        selected = select_global(read_input(args.model, _ranking_from_json), args.k)
    else:
        if args.explanations is None:
            raise ValueError("select --mode frequency needs --explanations")
        cohort = load_cohort(args.cohort) if args.cohort else None
        explanations = load_explanations(args.explanations, cohort)
        selected = aggregate_frequency(explanations, args.k)
    Path(args.out).write_text(json.dumps({
        "edges": [[e.i, e.j] for e in selected.edges],
        "provenance": selected.provenance,
    }))
    print(f"wrote {args.out} ({len(selected)} edges)")
    return 0


def _selected_from_json(text: str) -> SelectedEdges:
    obj = json.loads(text)
    return SelectedEdges(edges_from_pairs(_field(obj, "edges")), _field(obj, "provenance"))


def cmd_build_task(args) -> int:
    cohort = load_cohort(args.cohort)
    mask = read_input(args.mask, mask_from_json)
    selected = read_input(args.selected, _selected_from_json)
    examples = build_examples(apply_mask(cohort, mask), selected, args.base_pen)
    space = build_space(selected, examples, args.max_body_edges)
    partition = partition_tasks(examples, space, args.ad_subsets,
                                args.base_pen, seed=args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for k, task in enumerate(partition.tasks):
        serialize_task(task, out_dir / f"task_{k:03d}.las")
    print(f"wrote {len(partition.tasks)} task(s) to {out_dir}")
    return 0


def cmd_learn(args) -> int:
    out = Path(args.out)
    if out.with_suffix(".lp") == out:
        raise ValueError(f"--out {args.out} is the path of the .lp rule text written beside it")
    results = []
    for path in args.task:
        res = learn(load_task(path), budget=args.budget)
        print(f"{path}: {res.bodies} bodies, {res.filtered} filtered, "
              f"{res.undominated} undominated, {res.nodes_expanded} nodes, "
              f"optimal={res.optimal}")
        results.append(res)
    hypothesis = union_hypotheses([res.hypothesis for res in results])
    out.write_text(hypothesis_to_json(hypothesis))
    out.with_suffix(".lp").write_text(hypothesis_to_text(hypothesis))
    exhausted = [path for path, res in zip(args.task, results) if not res.optimal]
    print(f"wrote {args.out} ({len(hypothesis)} rules, {hypothesis.atom_count} atoms)")
    if exhausted:
        print(f"budget exceeded on {len(exhausted)} task(s): {', '.join(exhausted)}; "
              "hypothesis may be suboptimal", file=sys.stderr)
        return 3
    return 0


def cmd_infer(args) -> int:
    cohort = load_cohort(args.cohort)
    hypothesis = read_input(args.hypothesis, hypothesis_from_json
                            if Path(args.hypothesis).suffix == ".json" else parse_hypothesis_text)
    edges = sorted({l.edge for r in hypothesis.rules for l in r.body})
    labels = [s.diagnosis for s in cohort.subjects]
    predictions = [predict(hypothesis, context_from_weights(s.strengths, edges), s.id)
                   for s in cohort.subjects]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    predictions_to_csv(predictions, labels, out_dir / "predictions.csv")
    metrics = evaluate(labels, [p.label for p in predictions])
    (out_dir / "metrics.json").write_text(json.dumps(metrics_to_obj(metrics), indent=1))
    print(f"accuracy {metrics.accuracy:.4f} over {len(cohort)} subjects")
    return 0


def cmd_cv(args) -> int:
    config = read_input(args.config, lambda text: crossval.config_from_obj(json.loads(text)))
    cohort = load_cohort(args.cohort)
    report = crossval.run_pipeline(config, cohort)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(crossval.report_to_json(report))
    summary = report.summary()
    acc = summary["val_accuracy"]
    print(f"validation accuracy {acc['mean']:.4f} +/- {acc['std']:.4f} "
          f"over {len(report.folds)} folds")
    if any(not fr.optimal for fr in report.folds):
        print("budget exceeded on at least one fold", file=sys.stderr)
        return 3
    return 0


def _fmt(cell) -> str:
    if cell is None:
        return "---"
    return f"{cell['mean']:.2f} ± {cell['std']:.2f}"


def _report_tables(text: str) -> tuple[list[str], dict]:
    """The lines of report.md and the tables of tables.json, from the text of
    the report.json that cv writes."""
    obj = json.loads(text)
    config = crossval.config_from_obj(_field(obj, "config"))
    summary = _field(obj, "summary")

    def stat(key, scale=1):
        """summary[key], its mean and std scaled by scale, or None."""
        cell = _field(summary, key)
        return None if cell is None else {
            k: scale * _field(cell, k, float) for k in ("mean", "std")}

    accuracy_rows = [
        ("DT*", stat("dt_val_accuracy", 100)),
        ("RF*", stat("rf_val_accuracy", 100)),
        (f"rules({config.pipeline})", stat("val_accuracy", 100)),
    ]
    atom_rows = [
        ("rules", stat("hypothesis_atoms")),
        ("DT", stat("dt_atoms")),
        ("RF", stat("rf_atoms")),
    ]
    lines = ["# Cross-validation report", "",
             f"pipeline: {config.pipeline}, "
             f"{config.n_repeats} repeats x {config.n_folds} folds", "",
             "## Validation accuracy (%)", "", "| Model | ACC (%) |", "| --- | --- |"]
    lines += [f"| {name} | {_fmt(cell)} |" for name, cell in accuracy_rows]
    lines += ["", "## Interpretability (atom count)", "",
              "| Model | Atoms |", "| --- | --- |"]
    lines += [f"| {name} | {_fmt(cell)} |" for name, cell in atom_rows]
    lines += ["", "## Selected edges (repeats containing each)", ""]
    for entry in _field(obj, "edge_frequency", list):
        pair, count = _checked(entry, list, "edge_frequency entry")
        e = edges_from_pairs([pair])[0]
        lines.append(f"- ({e.i}, {e.j}): {_checked(count, int, 'edge_frequency count')}")
    return lines, {"accuracy": dict(accuracy_rows), "atoms": dict(atom_rows)}


def cmd_report(args) -> int:
    lines, tables = read_input(Path(args.run_dir) / "report.json", _report_tables)
    out_md = Path(args.run_dir) / "report.md"
    out_md.write_text("\n".join(lines) + "\n")
    (Path(args.run_dir) / "tables.json").write_text(json.dumps(tables, indent=1))
    print(f"wrote {out_md}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="connrules",
        description="Threshold-rule learning over brain-connectome edge strengths")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cohort")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--n-per-class", type=int, default=50)
    p.add_argument("--planted", action="append", default=[],
                   metavar="I,J,THR,DIR", help="planted edge, e.g. 2,5,2.0,low")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("mask", help="compute a proportional-threshold edge mask")
    p.add_argument("--cohort", required=True)
    p.add_argument("--keep-ratio", type=float, default=0.30)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser("train", help="fit a tree or forest on masked features")
    p.add_argument("--cohort", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--model", choices=("dt", "rf"), default="dt")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("select", help="pick the most discriminative edges")
    p.add_argument("--mode", choices=("global", "frequency"), default="global")
    p.add_argument("--model", help="model JSON (global mode)")
    p.add_argument("--explanations", help="explanations JSON (frequency mode)")
    p.add_argument("--cohort", help="optional cohort for id validation")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("build-task", help="compile symbolic learning tasks")
    p.add_argument("--cohort", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--selected", required=True)
    p.add_argument("--ad-subsets", type=int, default=3)
    p.add_argument("--base-pen", type=int, default=1)
    p.add_argument("--max-body-edges", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_build_task)

    p = sub.add_parser("learn", help="solve task(s) and union the hypotheses")
    p.add_argument("--task", action="append", required=True,
                   help=".las task file, as build-task writes it; repeatable")
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--out", required=True, help="hypothesis JSON path")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("infer", help="apply a hypothesis to a cohort")
    p.add_argument("--hypothesis", required=True,
                   help="hypothesis file (.json or ASP-style .lp text)")
    p.add_argument("--cohort", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("cv", help="run repeated stratified cross-validation")
    p.add_argument("--config", required=True)
    p.add_argument("--cohort", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("report", help="render tables from a cv run")
    p.add_argument("--run-dir", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
