"""Network-to-Knowledge Generator: compile selected edges plus a labelled
features matrix into a symbolic learning task.

A task bundles weighted examples (one per subject, with edge-strength context
facts) and a comparator-threshold hypothesis space over the selected edges;
the background program is empty. Tasks serialize to a solver-ready text
format, which is also their only file format::

    % connectome rule-learning task
    % provenance: dt
    #modeh(ad).
    #modeb(1, connection(region(2), region(5), var(strength))).
    #modeb(1, var(strength) >= const(threshold)).
    ...
    #maxv(2).
    % thresholds(2,5): 399 400 2200
    #constant(threshold, 399).
    ...
    #pos(ad_000@1, {ad}, {cn}, { connection(region(2), region(5), 2200). }).

The per-edge threshold comment lines let the parser restore the exact
hypothesis space; a solver treats them as comments.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from decimal import ROUND_HALF_EVEN, Decimal
from pathlib import Path
from typing import Sequence

import numpy as np

from .cohort import EdgeId, Features, edge, edge_column, read_input
from .selection import SelectedEdges

COMPARATORS = (">=", ">", "<", "<=")


def scale_strength(raw: float) -> int:
    """Integerize a raw strength: round half-even to 4 decimals, multiply by
    1000, then round half-even to an integer. Monotone non-decreasing."""
    raw = float(raw)
    if not math.isfinite(raw) or raw < 0:
        raise ValueError(f"strength must be finite and >= 0, got {raw}")
    q = Decimal(repr(raw)).quantize(Decimal("0.0001"), rounding=ROUND_HALF_EVEN)
    return int((q * 1000).to_integral_value(rounding=ROUND_HALF_EVEN))


def context_from_weights(strengths: np.ndarray, edges: Sequence[EdgeId]) -> dict[EdgeId, int]:
    """Scaled strengths of the given edges from a subject's strengths row."""
    return {e: scale_strength(strengths[edge_column(*e)]) for e in edges}


@dataclass(frozen=True)
class Example:
    """Weighted context-dependent example for one subject: an AD example
    includes {ad} and excludes {cn}, a CN example the reverse."""

    id: str
    penalty: int
    is_ad: bool
    context: dict[EdgeId, int]

    def __post_init__(self):
        if self.penalty < 1:
            raise ValueError("penalty must be >= 1")


@dataclass(frozen=True)
class HypothesisSpace:
    """AD-headed rules over the selected edges with comparator literals.

    Per-edge threshold candidates are the distinct observed scaled strengths
    plus one sentinel on each side; any comparator threshold can be moved to
    one of these without changing which examples it satisfies.
    """

    edges: SelectedEdges
    max_body_edges: int
    threshold_domain: dict[EdgeId, tuple[int, ...]]

    def __post_init__(self):
        if self.max_body_edges < 1:
            raise ValueError("max_body_edges must be >= 1")
        selected = set(self.edges.edges)
        for e in self.edges.edges:
            if e not in self.threshold_domain:
                raise ValueError(f"no thresholds for selected edge ({e.i}, {e.j})")
        for e, dom in self.threshold_domain.items():
            if e not in selected:
                raise ValueError(f"thresholds for unselected edge ({e.i}, {e.j})")
            # candidate enumeration relies on ascending literals per edge
            if any(a >= b for a, b in zip(dom, dom[1:])):
                raise ValueError(f"thresholds of ({e.i}, {e.j}) must be strictly increasing")


@dataclass(frozen=True)
class LearningTask:
    space: HypothesisSpace
    examples: tuple[Example, ...]

    def __post_init__(self):
        object.__setattr__(self, "examples", tuple(self.examples))
        known = set(self.space.edges.edges)
        ids = set()
        for ex in self.examples:
            if ex.id in ids:
                raise ValueError(f"repeated example id {ex.id!r}")
            ids.add(ex.id)
            stray = set(ex.context) - known
            if stray:
                raise ValueError(
                    f"example {ex.id!r} has context edges outside the space: {sorted(stray)}")


@dataclass(frozen=True)
class TaskPartition:
    tasks: tuple[LearningTask, ...]


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def build_examples(
    features: Features,
    selected: SelectedEdges,
    base_pen: int = 1,
) -> list[Example]:
    """One example per subject, numbered ad_NNN or cn_NNN within its class;
    the context holds one scaled-strength fact per selected edge."""
    if base_pen < 1:
        raise ValueError("base_pen must be >= 1")
    cols = []
    for e in selected.edges:
        if e not in features.edges:
            raise ValueError(f"features missing selected edge ({e.i}, {e.j})")
        cols.append(features.edges.index(e))
    out = []
    counts = [0, 0]  # CN, AD
    for row, is_ad in zip(features.X[:, cols], features.is_ad.tolist()):
        context = {e: scale_strength(v) for e, v in zip(selected.edges, row)}
        out.append(Example(f"{'ad' if is_ad else 'cn'}_{counts[is_ad]:03d}",
                           base_pen, is_ad, context))
        counts[is_ad] += 1
    return out


def build_space(
    selected: SelectedEdges,
    examples: Sequence[Example],
    max_body_edges: int = 2,
) -> HypothesisSpace:
    """Threshold domain per edge = sorted distinct observed scaled strengths
    across all example contexts, plus -1/+1 sentinels."""
    domain: dict[EdgeId, tuple[int, ...]] = {}
    for e in selected.edges:
        observed = sorted({ex.context[e] for ex in examples if e in ex.context})
        if observed:
            observed = [observed[0] - 1] + observed + [observed[-1] + 1]
        domain[e] = tuple(observed)
    return HypothesisSpace(selected, max_body_edges, domain)


def partition_tasks(
    examples: Sequence[Example],
    space: HypothesisSpace,
    n_ad_subsets: int,
    base_pen: int = 1,
    seed: int = 0,
) -> TaskPartition:
    """Split AD examples into near-even disjoint subsets; pair each with the
    full CN set. AD penalties are rescaled to round(base_pen * |CN| / |AD_task|)
    (minimum 1) so the class penalty sums roughly balance; CN penalties stay
    at base_pen."""
    ad = [ex for ex in examples if ex.is_ad]
    cn = [ex for ex in examples if not ex.is_ad]
    if n_ad_subsets < 1:
        raise ValueError("n_ad_subsets must be >= 1")
    if n_ad_subsets > len(ad):
        raise ValueError(
            f"n_ad_subsets {n_ad_subsets} exceeds AD example count {len(ad)}")
    rng = np.random.default_rng(seed % 2**32)
    perm = rng.permutation(len(ad))
    sizes = [len(ad) // n_ad_subsets] * n_ad_subsets
    for k in range(len(ad) % n_ad_subsets):
        sizes[k] += 1
    tasks = []
    start = 0
    for size in sizes:
        members = {int(p) for p in perm[start:start + size]}
        start += size
        pen = max(1, round(base_pen * len(cn) / size))
        chunk = [replace(ad[k], penalty=pen) for k in range(len(ad)) if k in members]
        cns = [replace(ex, penalty=base_pen) for ex in cn]
        tasks.append(LearningTask(space, tuple(chunk + cns)))
    return TaskPartition(tuple(tasks))


# ---------------------------------------------------------------------------
# Text serialization
# ---------------------------------------------------------------------------

def _fact(e: EdgeId, strength: int) -> str:
    return f"connection(region({e.i}), region({e.j}), {strength})."


def task_to_text(task: LearningTask) -> str:
    if not task.examples:
        raise ValueError("task has no examples")
    space = task.space
    lines = ["% connectome rule-learning task",
             f"% provenance: {space.edges.provenance}"]
    lines.append("#modeh(ad).")
    for e in space.edges.edges:
        lines.append(f"#modeb(1, connection(region({e.i}), region({e.j}), var(strength))).")
    for comp in COMPARATORS:
        lines.append(f"#modeb(1, var(strength) {comp} const(threshold)).")
    lines.append(f"#maxv({space.max_body_edges}).")
    pool = set()
    for e in space.edges.edges:
        dom = space.threshold_domain[e]
        lines.append(f"% thresholds({e.i},{e.j}): " + " ".join(str(t) for t in dom))
        pool.update(dom)
    for t in sorted(pool):
        lines.append(f"#constant(threshold, {t}).")
    for ex in task.examples:
        facts = " ".join(_fact(e, ex.context[e])
                         for e in space.edges.edges if e in ex.context)
        labels = "{ad}, {cn}" if ex.is_ad else "{cn}, {ad}"
        lines.append(f"#pos({ex.id}@{ex.penalty}, {labels}, {{ {facts} }}).")
    return "\n".join(lines) + "\n"


def serialize_task(task: LearningTask, path) -> Path:
    path = Path(path)
    path.write_text(task_to_text(task))
    return path


_MODEB_CONN = re.compile(
    r"#modeb\(1, connection\(region\((\d+)\), region\((\d+)\), var\(strength\)\)\)\.")
_DECLARATION = re.compile(  # fixed or derived lines: accepted, not read
    r"#modeh\(ad\)\.|#modeb\(1, var\(strength\) (?:>=|>|<|<=) const\(threshold\)\)\."
    r"|#constant\(threshold, -?\d+\)\.")
_MAXV = re.compile(r"#maxv\((\d+)\)\.")
_THRESHOLDS = re.compile(r"% thresholds\((\d+),(\d+)\):(?: (.*))?")  # an empty domain ends at ':'
_PROVENANCE = re.compile(r"% provenance: (\w+)")
_RESERVED_COMMENT = re.compile(r"%\s*(thresholds|provenance)\b")
_POS = re.compile(r"#pos\((\w+)@(\d+), \{(\w+)\}, \{(\w+)\}, \{ (.*) \}\)\.")
_FACT = r"connection\(region\((\d+)\), region\((\d+)\), (\d+)\)\."
_FACTS = re.compile(rf"(?:{_FACT}(?: {_FACT})*)?")


def parse_task_text(text: str) -> LearningTask:
    """Inverse of task_to_text. Blank and other % comment lines are
    skipped; any other line this module does not write raises ValueError
    with its 1-based line number, and so does a % thresholds or
    % provenance line that is malformed, a second provenance or #maxv line,
    a second thresholds line for one edge, a repeated #modeb edge or
    example id, or a thresholds line for an edge no earlier #modeb declares."""
    edges = []
    provenance = None
    max_body = None
    domain: dict[EdgeId, tuple[int, ...]] = {}
    examples = []
    ids = set()
    for n, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        try:
            if m := _PROVENANCE.fullmatch(line):
                if provenance is not None:
                    raise ValueError("second provenance line")
                provenance = m.group(1)
            elif m := _MODEB_CONN.fullmatch(line):
                e = edge(int(m.group(1)), int(m.group(2)))
                if e in edges:
                    raise ValueError(f"second #modeb for edge ({e.i}, {e.j})")
                edges.append(e)
            elif m := _MAXV.fullmatch(line):
                if max_body is not None:
                    raise ValueError("second #maxv line")
                max_body = int(m.group(1))
            elif m := _THRESHOLDS.fullmatch(line):
                e = edge(int(m.group(1)), int(m.group(2)))
                if e not in edges:
                    raise ValueError(
                        f"thresholds for edge ({e.i}, {e.j}), which no earlier #modeb declares")
                if e in domain:
                    raise ValueError(f"second thresholds line for edge ({e.i}, {e.j})")
                domain[e] = tuple(int(v) for v in (m.group(3) or "").split())
            elif m := _POS.fullmatch(line):
                eid, pen, inc, exc, facts = m.groups()
                if eid in ids:
                    raise ValueError(f"repeated example id {eid!r}")
                ids.add(eid)
                if (inc, exc) not in (("ad", "cn"), ("cn", "ad")):
                    raise ValueError(
                        f"example {eid!r} must include one of ad, cn and exclude the other")
                if not _FACTS.fullmatch(facts):
                    raise ValueError(f"example {eid!r} has a malformed fact list")
                found = re.findall(_FACT, facts)
                context = {edge(int(i), int(j)): int(v) for i, j, v in found}
                if len(context) != len(found):
                    raise ValueError(f"example {eid!r} repeats an edge")
                examples.append(Example(eid, int(pen), inc == "ad", context))
            elif m := _RESERVED_COMMENT.match(line):
                raise ValueError(f"malformed {m.group(1)} line {line!r}")
            elif line and not line.startswith("%") and not _DECLARATION.fullmatch(line):
                raise ValueError(f"unrecognised line {line!r}")
        except ValueError as exc:
            raise ValueError(f"line {n}: {exc}") from None
    if not examples:
        raise ValueError("task has no examples")
    selected = SelectedEdges(tuple(edges), "external" if provenance is None else provenance)
    for e in selected.edges:
        domain.setdefault(e, ())
    space = HypothesisSpace(selected, 1 if max_body is None else max_body, domain)
    return LearningTask(space, tuple(examples))


def load_task(path) -> LearningTask:
    return read_input(path, parse_task_text)
