"""Feature selection: top-k edges by model importance, or by frequency over
per-instance explanation edge lists supplied from an external explainer."""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .cohort import Cohort, EdgeId, _field, edges_from_pairs, read_input
from .tree import ImportanceRanking


@dataclass(frozen=True)
class SelectorConfig:
    """How many edges each pipeline selects: k_global from a dt or rf
    ranking, k_total from external explanations."""

    k_global: int = 3
    k_total: int = 4

    def __post_init__(self):
        for name in ("k_global", "k_total"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass(frozen=True)
class SelectedEdges:
    edges: tuple[EdgeId, ...]
    provenance: str  # "dt" | "rf" | "external"

    def __post_init__(self):
        # a word, the only provenance a .las task file can hold and read back
        if not isinstance(self.provenance, str) or not re.fullmatch(r"\w+", self.provenance):
            raise ValueError(f"provenance must be a word, not {self.provenance!r}")
        if not self.edges:
            raise ValueError("no selected edges")
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("selected edges must be unique")
        object.__setattr__(self, "edges", tuple(self.edges))

    def __len__(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class InstanceExplanation:
    subject_id: str
    edges: tuple[EdgeId, ...]

    def __post_init__(self):
        if len(set(self.edges)) != len(self.edges):
            raise ValueError(f"duplicate edge in explanation for {self.subject_id!r}")
        object.__setattr__(self, "edges", tuple(self.edges))


def select_global(ranking: ImportanceRanking, k_global: int) -> SelectedEdges:
    """Top k_global edges by (score desc, EdgeId asc)."""
    if k_global < 1:
        raise ValueError("k_global must be >= 1")
    if k_global > len(ranking.scores):
        raise ValueError(
            f"k_global {k_global} exceeds feature count {len(ranking.scores)}")
    ordered = sorted(ranking.scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return SelectedEdges(tuple(e for e, _ in ordered[:k_global]), ranking.source)


def aggregate_frequency(
    explanations: Sequence[InstanceExplanation], k_total: int
) -> SelectedEdges:
    """Top k_total edges by how many explanations mention them; ties break
    toward the lower EdgeId."""
    if k_total < 1:
        raise ValueError("k_total must be >= 1")
    if not explanations:
        raise ValueError("empty explanation list")
    counts = Counter(e for ex in explanations for e in ex.edges)
    if k_total > len(counts):
        raise ValueError(
            f"k_total {k_total} exceeds distinct edge count {len(counts)}")
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return SelectedEdges(tuple(e for e, _ in ordered[:k_total]), "external")


def load_explanations(path, cohort: Cohort | None = None) -> list[InstanceExplanation]:
    """Read and validate an explanations file.

    Format: {"k_instance": n, "explanations": [{"subject_id": ...,
    "edges": [[i, j], ...]}]}. Every explanation must list exactly
    k_instance distinct valid edges; subject ids are checked against the
    cohort when one is given. Every error names the file.
    """
    known = {s.id for s in cohort.subjects} if cohort is not None else None

    def parse(text: str) -> list[InstanceExplanation]:
        doc = json.loads(text)
        k_instance = _field(doc, "k_instance", int)
        if k_instance < 1:
            raise ValueError("k_instance must be >= 1")
        out = []
        for rec in _field(doc, "explanations", list):
            sid = _field(rec, "subject_id", str)
            if known is not None and sid not in known:
                raise ValueError(f"unknown subject id {sid!r} in explanations")
            edges = edges_from_pairs(_field(rec, "edges", list))
            if len(edges) != k_instance:
                raise ValueError(
                    f"explanation for {sid!r} has {len(edges)} edges, expected {k_instance}")
            out.append(InstanceExplanation(sid, edges))
        if not out:
            raise ValueError("empty explanation list")
        return out

    return read_input(path, parse)
