"""Repeated stratified cross-validation driver for the full pipeline.

Each repeat r draws a stratified subsample and fold assignment from seed
base_seed + r. Within a fold, everything learnable (edge mask, fitted model,
selected edges, thresholds, hypothesis) is derived from the training split
only; the validation split is touched only by the final evaluation.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .cohort import Cohort, EdgeId, EdgeMask, _from_obj, apply_mask, compute_mask
from .forest import (
    Forest,
    ForestParams,
    fit_forest,
    forest_atom_count,
    forest_importance,
    predict_forest,
)
from .inference import Metrics, evaluate, metrics_to_obj, predict
from .learner import DEFAULT_NODE_BUDGET, Hypothesis, learn, union_hypotheses
from .selection import (
    InstanceExplanation,
    SelectedEdges,
    SelectorConfig,
    aggregate_frequency,
    load_explanations,
    select_global,
)
from .taskgen import Examples, build_examples, build_space, partition_tasks
from .tree import (
    DecisionTree,
    TreeParams,
    fit_tree,
    predict_tree,
    tree_atom_count,
    tree_importance,
)

PIPELINES = ("dt", "rf", "external_explanations")


@dataclass(frozen=True)
class CVConfig:
    n_repeats: int = 10
    subsample_fraction: float = 0.9
    n_folds: int = 5
    base_seed: int = 0
    pipeline: str = "dt"
    selector: SelectorConfig = field(default_factory=SelectorConfig)
    n_ad_subsets: int = 3
    keep_ratio: float = 0.30
    max_body_edges: int = 2
    base_pen: int = 1
    budget: int = DEFAULT_NODE_BUDGET
    explanations_path: str | None = None
    fit_reference_models: bool = True

    def __post_init__(self):
        if self.n_repeats < 1:
            raise ValueError("n_repeats must be >= 1")
        if not (0 < self.subsample_fraction <= 1):
            raise ValueError("subsample_fraction must be in (0, 1]")
        if self.n_folds < 2:
            raise ValueError("n_folds must be >= 2")
        if not (0 < self.keep_ratio <= 1):
            raise ValueError(f"keep_ratio must be in (0, 1], got {self.keep_ratio}")
        for name in ("n_ad_subsets", "max_body_edges", "base_pen"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.pipeline not in PIPELINES:
            raise ValueError(f"unknown pipeline {self.pipeline!r}")
        if self.pipeline == "external_explanations" and not self.explanations_path:
            raise ValueError("external_explanations pipeline needs explanations_path")


def config_to_obj(config: CVConfig) -> dict:
    return asdict(config)


def config_from_obj(obj: dict) -> CVConfig:
    """Inverse of config_to_obj; a key it does not write, or a value of the
    wrong type, raises ValueError."""
    return _from_obj(CVConfig, obj, "config")


# ---------------------------------------------------------------------------
# Stratified resampling
# ---------------------------------------------------------------------------

def _strata(cohort: Cohort) -> dict[tuple, list[int]]:
    cells: dict[tuple, list[int]] = {}
    for k, s in enumerate(cohort.subjects):
        cells.setdefault((s.diagnosis, s.sex, s.manufacturer), []).append(k)
    return dict(sorted(cells.items()))


def stratified_subsample(cohort: Cohort, fraction: float, seed: int) -> Cohort:
    """Draw round(fraction * cell) subjects without replacement from every
    (diagnosis, sex, manufacturer) cell, at least 1 per nonempty cell."""
    if not (0 < fraction <= 1):
        raise ValueError("fraction must be in (0, 1]")
    if fraction == 1.0:
        return cohort
    rng = np.random.default_rng(seed % 2**32)
    keep: set[int] = set()
    for _, members in _strata(cohort).items():
        k = max(1, round(fraction * len(members)))
        picked = rng.choice(len(members), size=k, replace=False)
        keep.update(members[p] for p in picked)
    return Cohort(tuple(s for k, s in enumerate(cohort.subjects) if k in keep),
                  cohort.atlas)


def stratified_folds(cohort: Cohort, n_folds: int, seed: int) -> dict[str, int]:
    """Fold index per subject id: within each stratum, members are shuffled
    and dealt round-robin, so per-stratum fold sizes differ by at most 1.
    The deal continues across strata, keeping overall fold sizes balanced
    even when every stratum is smaller than n_folds."""
    if n_folds < 2:
        raise ValueError("n_folds must be >= 2")
    rng = np.random.default_rng(seed % 2**32)
    assignment: dict[str, int] = {}
    offset = 0
    for _, members in _strata(cohort).items():
        perm = rng.permutation(len(members))
        for pos, p in enumerate(perm):
            assignment[cohort.subjects[members[p]].id] = (offset + pos) % n_folds
        offset = (offset + len(members)) % n_folds
    counts = [0] * n_folds
    for f in assignment.values():
        counts[f] += 1
    if min(counts) == 0:
        raise ValueError(f"cohort too small for {n_folds} folds")
    return assignment


# ---------------------------------------------------------------------------
# Per-fold learning
# ---------------------------------------------------------------------------

@dataclass
class FoldArtifacts:
    mask: EdgeMask
    selected: SelectedEdges
    examples: Examples  # one row per training subject, in subject order
    hypothesis: Hypothesis
    optimal: bool
    dt: DecisionTree | None
    rf: Forest | None


def fit_fold(
    train: Cohort,
    config: CVConfig,
    partition_seed: int,
    model_seed: int,
    explanations: Sequence[InstanceExplanation] | None = None,
) -> FoldArtifacts:
    """Learn every artifact of one fold from its training split alone."""
    mask = compute_mask(train, config.keep_ratio)
    features = apply_mask(train, mask)

    dt = None
    rf = None
    if config.pipeline == "dt" or config.fit_reference_models:
        dt = fit_tree(features, TreeParams())
    if config.pipeline == "rf" or config.fit_reference_models:
        rf = fit_forest(features, ForestParams(), seed=model_seed)

    if config.pipeline == "dt":
        selected = select_global(tree_importance(dt), config.selector.k_global)
    elif config.pipeline == "rf":
        selected = select_global(forest_importance(rf), config.selector.k_global)
    else:
        # explanations describe the masked network: count only edges the
        # training mask keeps, over training subjects only
        train_ids = {s.id for s in train.subjects}
        kept = set(mask.edges)
        local = []
        for ex in explanations or []:
            if ex.subject_id not in train_ids:
                continue
            surviving = tuple(e for e in ex.edges if e in kept)
            if surviving:
                local.append(InstanceExplanation(ex.subject_id, surviving))
        if not local:
            raise ValueError("no explanations for any training subject")
        selected = aggregate_frequency(local, config.selector.k_total)

    examples = build_examples(features, selected, config.base_pen)
    space = build_space(selected, examples, config.max_body_edges)
    partition = partition_tasks(
        examples, space, config.n_ad_subsets, config.base_pen, seed=partition_seed)
    results = [learn(task, budget=config.budget) for task in partition.tasks]
    hypothesis = union_hypotheses([res.hypothesis for res in results])
    return FoldArtifacts(mask, selected, examples, hypothesis,
                         all(res.optimal for res in results), dt, rf)


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

@dataclass
class FoldResult:
    repeat: int
    fold: int
    n_train: int
    n_val: int
    selected: SelectedEdges
    hypothesis: Hypothesis
    optimal: bool
    hypothesis_atoms: int
    dt_atoms: int | None
    rf_atoms: int | None
    dt_val_accuracy: float | None
    rf_val_accuracy: float | None
    train: Metrics
    val: Metrics


@dataclass
class RunReport:
    config: CVConfig
    folds: list[FoldResult]

    def per_repeat_selected(self) -> dict[int, set[EdgeId]]:
        out: dict[int, set[EdgeId]] = {}
        for fr in self.folds:
            out.setdefault(fr.repeat, set()).update(fr.selected.edges)
        return out

    def edge_frequency(self) -> list[tuple[EdgeId, int]]:
        """Edge -> number of repeats whose selected set contains it."""
        counts: dict[EdgeId, int] = {}
        for edges in self.per_repeat_selected().values():
            for e in edges:
                counts[e] = counts.get(e, 0) + 1
        return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))

    def summary(self) -> dict:
        out = {}
        for name, values in [
            ("train_accuracy", [fr.train.accuracy for fr in self.folds]),
            ("val_accuracy", [fr.val.accuracy for fr in self.folds]),
            ("val_sensitivity", [fr.val.sensitivity for fr in self.folds]),
            ("val_specificity", [fr.val.specificity for fr in self.folds]),
            ("hypothesis_atoms", [fr.hypothesis_atoms for fr in self.folds]),
            ("dt_atoms", [fr.dt_atoms for fr in self.folds]),
            ("rf_atoms", [fr.rf_atoms for fr in self.folds]),
            ("dt_val_accuracy", [fr.dt_val_accuracy for fr in self.folds]),
            ("rf_val_accuracy", [fr.rf_val_accuracy for fr in self.folds]),
        ]:
            present = [v for v in values if v is not None]
            out[name] = mean_std(present) if len(present) == len(values) else None
        return out


def mean_std(values: Sequence[float]) -> dict:
    """Mean and sample standard deviation (0 for a single value)."""
    if not values:
        raise ValueError("no values")
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return {"mean": mean, "std": std}


def report_to_obj(report: RunReport) -> dict:
    return {
        "config": config_to_obj(report.config),
        "folds": [
            {
                "repeat": fr.repeat,
                "fold": fr.fold,
                "n_train": fr.n_train,
                "n_val": fr.n_val,
                "selected_edges": [[e.i, e.j] for e in fr.selected.edges],
                "hypothesis": [r.to_text() for r in fr.hypothesis.rules],
                "hypothesis_atoms": fr.hypothesis_atoms,
                "optimal": fr.optimal,
                "dt_atoms": fr.dt_atoms,
                "rf_atoms": fr.rf_atoms,
                "dt_val_accuracy": fr.dt_val_accuracy,
                "rf_val_accuracy": fr.rf_val_accuracy,
                "train": metrics_to_obj(fr.train),
                "val": metrics_to_obj(fr.val),
            }
            for fr in report.folds
        ],
        "summary": report.summary(),
        "edge_frequency": [[[e.i, e.j], c] for e, c in report.edge_frequency()],
    }


def report_to_json(report: RunReport) -> str:
    return json.dumps(report_to_obj(report), indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def run_pipeline(config: CVConfig, cohort: Cohort) -> RunReport:
    explanations = None
    if config.pipeline == "external_explanations":
        explanations = load_explanations(config.explanations_path, cohort)

    folds_out: list[FoldResult] = []
    for r in range(config.n_repeats):
        seed_r = config.base_seed + r
        sub = stratified_subsample(cohort, config.subsample_fraction, seed_r)
        assignment = stratified_folds(sub, config.n_folds, seed_r)
        for f in range(config.n_folds):
            val_ids = [s.id for s in sub.subjects if assignment[s.id] == f]
            train_ids = [s.id for s in sub.subjects if assignment[s.id] != f]
            train = sub.subset(train_ids)
            val = sub.subset(val_ids)
            arts = fit_fold(train, config, partition_seed=seed_r,
                            model_seed=seed_r * 1000 + f, explanations=explanations)

            train_labels = [s.diagnosis for s in train.subjects]
            val_labels = [s.diagnosis for s in val.subjects]
            val_features = apply_mask(val, arts.mask)
            train_pred = [p.label for p in predict(arts.hypothesis, arts.examples)]
            val_pred = [p.label for p in predict(arts.hypothesis,
                                                 build_examples(val_features, arts.selected))]

            dt_val_acc = rf_val_acc = None
            dt_atoms = rf_atoms = None
            if arts.dt is not None:
                dt_atoms = tree_atom_count(arts.dt)
                dt_val_acc = evaluate(
                    val_labels, [predict_tree(arts.dt, x) for x in val_features.X]).accuracy
            if arts.rf is not None:
                rf_atoms = forest_atom_count(arts.rf)
                rf_val_acc = evaluate(
                    val_labels, [predict_forest(arts.rf, x) for x in val_features.X]).accuracy

            folds_out.append(FoldResult(
                repeat=r, fold=f, n_train=len(train), n_val=len(val),
                selected=arts.selected, hypothesis=arts.hypothesis,
                optimal=arts.optimal,
                hypothesis_atoms=arts.hypothesis.atom_count,
                dt_atoms=dt_atoms, rf_atoms=rf_atoms,
                dt_val_accuracy=dt_val_acc, rf_val_accuracy=rf_val_acc,
                train=evaluate(train_labels, train_pred),
                val=evaluate(val_labels, val_pred),
            ))
    return RunReport(config, folds_out)
