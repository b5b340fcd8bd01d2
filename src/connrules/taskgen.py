"""Network-to-Knowledge Generator: compile selected edges plus a labelled
features matrix into a symbolic learning task.

A task bundles weighted examples (one per subject, with edge-strength context
facts) and a comparator-threshold hypothesis space over the selected edges;
the background program is empty. An example set is one record: ids, labels,
penalties and an int64 facts matrix with one row per example, one column per
selected edge and -1 where an example leaves a fact out. Tasks serialize to a
solver-ready text format, which is also their only file format::

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
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction
from itertools import count
from pathlib import Path

import numpy as np

from .cohort import EdgeId, Features, edge, read_input
from .selection import SelectedEdges

COMPARATORS = (">=", ">", "<", "<=")
INT64_MAX = 2**63 - 1


def scale_strength(raw: float) -> int:
    """Integerize a raw strength: round half-even to 4 decimals, multiply by
    1000, then round half-even to an integer. Monotone non-decreasing. A
    strength whose integer is above 2**63 - 1 (from about 9.2e15 up) does
    not fit a facts matrix and raises ValueError."""
    raw = float(raw)
    if not math.isfinite(raw) or raw < 0:
        raise ValueError(f"strength must be finite and >= 0, got {raw}")
    if raw < 1e16:  # within Decimal's 28 digits; every larger strength is too large
        q = Decimal(repr(raw)).quantize(Decimal("0.0001"), rounding=ROUND_HALF_EVEN)
        scaled = int((q * 1000).to_integral_value(rounding=ROUND_HALF_EVEN))
        if scaled <= INT64_MAX:
            return scaled
    raise ValueError(f"strength {raw} scales to an integer above 2**63 - 1")


# scale_strength of every entry of an array, as an int64 array
scale_strengths = np.vectorize(scale_strength, otypes=[np.int64])


@dataclass(frozen=True, eq=False)
class Examples:
    """Weighted context-dependent examples, one row each: an AD example
    includes {ad} and excludes {cn}, a CN example the reverse. facts[k, c] is
    row k's scaled strength of edges[c], or -1 where it is left out. The
    arrays are read-only copies, and == compares every field."""

    ids: tuple[str, ...]
    is_ad: np.ndarray  # bool, one per row
    penalty: np.ndarray  # int64, one per row, each >= 1
    facts: np.ndarray  # int64, rows x edges
    edges: tuple[EdgeId, ...]

    def __post_init__(self):
        if len(set(self.ids)) != len(self.ids):
            raise ValueError(f"repeated example id {max(self.ids, key=self.ids.count)!r}")
        penalties = [int(p) for p in self.penalty]  # checked before any int64 conversion
        if penalties and min(penalties) < 1:
            raise ValueError("penalty must be >= 1")
        # learn and score sum penalties in int64 arrays. Each sum there is a
        # floor or a single rule's total, at most the 1 + 2 * len(edges)
        # atoms of the longest body plus the penalties of every example
        total = sum(penalties) + 1 + 2 * len(self.edges)
        if total > INT64_MAX:
            raise ValueError(f"penalties too large: with the atoms of one rule they sum to "
                             f"{total}, above 2**63 - 1")
        for name, dtype in (("is_ad", bool), ("penalty", np.int64), ("facts", np.int64)):
            array = np.array(getattr(self, name), dtype=dtype)
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Examples) and (self.ids, self.edges) == (other.ids, other.edges)
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name in ("is_ad", "penalty", "facts")))

    def column(self, e: EdgeId) -> np.ndarray:
        """The facts of edge e, one per row."""
        return self.facts[:, self.edges.index(e)]


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
    examples: Examples

    def __post_init__(self):
        if self.examples.edges != self.space.edges.edges:
            raise ValueError("the examples' fact columns are not the space's edges")


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
) -> Examples:
    """One example per subject, numbered ad_NNN or cn_NNN within its class,
    with one scaled-strength fact per selected edge."""
    if base_pen < 1:
        raise ValueError("base_pen must be >= 1")
    for e in selected.edges:
        if e not in features.edges:
            raise ValueError(f"features missing selected edge ({e.i}, {e.j})")
    numbers = {False: count(), True: count()}  # per class
    ids = tuple(f"{'ad' if is_ad else 'cn'}_{next(numbers[is_ad]):03d}"
                for is_ad in features.is_ad.tolist())
    cols = [features.edges.index(e) for e in selected.edges]
    return Examples(ids, features.is_ad, [base_pen] * len(ids),
                    scale_strengths(features.X[:, cols]), selected.edges)


def build_space(
    selected: SelectedEdges,
    examples: Examples,
    max_body_edges: int = 2,
) -> HypothesisSpace:
    """Threshold domain per edge = sorted distinct observed scaled strengths
    in its facts column, plus -1/+1 sentinels."""
    domain: dict[EdgeId, tuple[int, ...]] = {}
    for e in selected.edges:
        column = examples.column(e)
        observed = sorted(set(column[column >= 0].tolist()))
        if observed:
            observed = [observed[0] - 1] + observed + [observed[-1] + 1]
        domain[e] = tuple(observed)
    return HypothesisSpace(selected, max_body_edges, domain)


def partition_tasks(
    examples: Examples,
    space: HypothesisSpace,
    n_ad_subsets: int,
    base_pen: int = 1,
    seed: int = 0,
) -> TaskPartition:
    """Split AD examples into near-even disjoint subsets; pair each with the
    full CN set. AD penalties are rescaled to round(base_pen * |CN| / |AD_task|),
    the exact quotient rounded half to even (minimum 1), so the class penalty
    sums roughly balance; CN penalties stay at base_pen. A task's rows are its
    AD rows, then the CN rows, each in their order in examples."""
    ad = np.flatnonzero(examples.is_ad)
    cn = np.flatnonzero(~examples.is_ad)
    if n_ad_subsets < 1:
        raise ValueError("n_ad_subsets must be >= 1")
    if n_ad_subsets > len(ad):
        raise ValueError(
            f"n_ad_subsets {n_ad_subsets} exceeds AD example count {len(ad)}")
    perm = np.random.default_rng(seed % 2**32).permutation(len(ad))
    tasks = []
    # near-even: the first len(ad) % n_ad_subsets subsets take one more
    for members in np.array_split(perm, n_ad_subsets):
        rows = np.concatenate([ad[np.sort(members)], cn])
        pen = max(1, round(Fraction(base_pen * len(cn), len(members))))
        is_ad = examples.is_ad[rows]
        tasks.append(LearningTask(space, Examples(
            tuple(examples.ids[r] for r in rows.tolist()), is_ad,
            [pen if a else base_pen for a in is_ad.tolist()], examples.facts[rows],
            examples.edges)))
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
    examples = task.examples
    for eid, is_ad, penalty, row in zip(examples.ids, examples.is_ad.tolist(),
                                        examples.penalty.tolist(), examples.facts.tolist()):
        facts = " ".join(_fact(e, v) for e, v in zip(examples.edges, row) if v >= 0)
        labels = "{ad}, {cn}" if is_ad else "{cn}, {ad}"
        lines.append(f"#pos({eid}@{penalty}, {labels}, {{ {facts} }}).")
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
    example id, a thresholds line or fact for an edge no earlier #modeb
    declares, a penalty outside 1 .. 2**63 - 1 or a fact above 2**63 - 1."""
    columns: dict[EdgeId, int] = {}  # edge -> its facts column, in #modeb order
    provenance = None
    max_body = None
    domain: dict[EdgeId, tuple[int, ...]] = {}
    examples: dict[str, tuple[bool, int, list[int]]] = {}  # id -> label, penalty, facts
    for n, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        try:
            if m := _PROVENANCE.fullmatch(line):
                if provenance is not None:
                    raise ValueError("second provenance line")
                provenance = m.group(1)
            elif m := _MODEB_CONN.fullmatch(line):
                e = edge(int(m.group(1)), int(m.group(2)))
                if e in columns:
                    raise ValueError(f"second #modeb for edge ({e.i}, {e.j})")
                columns[e] = len(columns)
            elif m := _MAXV.fullmatch(line):
                if max_body is not None:
                    raise ValueError("second #maxv line")
                max_body = int(m.group(1))
            elif m := _THRESHOLDS.fullmatch(line):
                e = edge(int(m.group(1)), int(m.group(2)))
                if e not in columns:
                    raise ValueError(
                        f"thresholds for edge ({e.i}, {e.j}), which no earlier #modeb declares")
                if e in domain:
                    raise ValueError(f"second thresholds line for edge ({e.i}, {e.j})")
                domain[e] = tuple(int(v) for v in (m.group(3) or "").split())
            elif m := _POS.fullmatch(line):
                eid, pen, inc, exc, facts = m.groups()
                if eid in examples:
                    raise ValueError(f"repeated example id {eid!r}")
                if (inc, exc) not in (("ad", "cn"), ("cn", "ad")):
                    raise ValueError(
                        f"example {eid!r} must include one of ad, cn and exclude the other")
                if not 1 <= int(pen) <= INT64_MAX:
                    raise ValueError(f"example {eid!r} has penalty {pen}, not in 1 .. 2**63 - 1")
                if not _FACTS.fullmatch(facts):
                    raise ValueError(f"example {eid!r} has a malformed fact list")
                row = [-1] * len(columns)  # the facts of the edges declared so far
                for i, j, v in re.findall(_FACT, facts):
                    e = edge(int(i), int(j))
                    if e not in columns:
                        raise ValueError(f"example {eid!r} has a fact for edge ({e.i}, {e.j}), "
                                         "which no earlier #modeb declares")
                    if row[columns[e]] != -1:
                        raise ValueError(f"example {eid!r} repeats an edge")
                    if int(v) > INT64_MAX:
                        raise ValueError(f"example {eid!r} has fact {v}, above 2**63 - 1")
                    row[columns[e]] = int(v)
                examples[eid] = (inc == "ad", int(pen), row)
            elif m := _RESERVED_COMMENT.match(line):
                raise ValueError(f"malformed {m.group(1)} line {line!r}")
            elif line and not line.startswith("%") and not _DECLARATION.fullmatch(line):
                raise ValueError(f"unrecognised line {line!r}")
        except ValueError as exc:
            raise ValueError(f"line {n}: {exc}") from None
    if not examples:
        raise ValueError("task has no examples")
    selected = SelectedEdges(tuple(columns), "external" if provenance is None else provenance)
    for e in selected.edges:
        domain.setdefault(e, ())
    space = HypothesisSpace(selected, 1 if max_body is None else max_body, domain)
    labels, penalties, rows = zip(*examples.values())
    facts = [row + [-1] * (len(columns) - len(row)) for row in rows]  # later edges left out
    return LearningTask(space, Examples(tuple(examples), labels, penalties, facts, selected.edges))


def load_task(path) -> LearningTask:
    return read_input(path, parse_task_text)
