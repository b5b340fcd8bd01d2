"""Apply a learned hypothesis to subjects and compute classification metrics."""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .cohort import AD, CN
from .learner import Hypothesis, fire_vector
from .taskgen import Examples


@dataclass(frozen=True)
class Prediction:
    subject_id: str
    label: str
    fired_rules: tuple[int, ...]  # indices into hypothesis.rules


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int  # AD predicted AD
    fn: int  # AD predicted CN
    fp: int  # CN predicted AD
    tn: int  # CN predicted CN

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    sensitivity: float
    specificity: float
    confusion: ConfusionCounts


def predict(hypothesis: Hypothesis, examples: Examples) -> list[Prediction]:
    """One prediction per row of examples, under its id: AD iff any rule
    fires on the row. The fired rule indices are kept for explanation output."""
    fired = np.array([fire_vector(rule, examples) for rule in hypothesis.rules],
                     dtype=bool).reshape(len(hypothesis.rules), len(examples)).T
    return [Prediction(eid, AD if row.any() else CN, tuple(np.flatnonzero(row).tolist()))
            for eid, row in zip(examples.ids, fired)]


def evaluate(true_labels: Sequence[str], predicted: Sequence[str]) -> Metrics:
    """Metrics over paired true and predicted labels. AD is the positive
    class; rates with an empty denominator are reported as 0."""
    if len(true_labels) != len(predicted):
        raise ValueError(f"{len(true_labels)} true labels but {len(predicted)} predictions")
    if not true_labels:
        raise ValueError("no labels to evaluate")
    for label in true_labels:
        if label not in (AD, CN):
            raise ValueError(f"unknown label {label!r}")
    hits = Counter(zip(true_labels, (pred == AD for pred in predicted)))
    tp, fn, fp, tn = hits[AD, True], hits[AD, False], hits[CN, True], hits[CN, False]
    n = len(true_labels)
    sens = tp / (tp + fn) if tp + fn else 0.0
    spec = tn / (tn + fp) if tn + fp else 0.0
    return Metrics((tp + tn) / n, sens, spec, ConfusionCounts(tp, fn, fp, tn))


def metrics_to_obj(m: Metrics) -> dict:
    return asdict(m)


def predictions_to_csv(
    predictions: Sequence[Prediction],
    true_labels: Sequence[str],
    path,
) -> Path:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_id", "true_label", "predicted_label", "fired_rule_ids"])
        for pred, label in zip(predictions, true_labels):
            writer.writerow([pred.subject_id, label, pred.label,
                             ";".join(str(k) for k in pred.fired_rules)])
    return path
