"""Exact minimal-score rule learning over comparator-threshold tasks.

A hypothesis is a set of AD-headed rules; its score is its atom count (1 per
head, 2 per body edge: a connection atom plus a comparator literal) plus the
penalties of uncovered examples. An AD example is covered when some rule
fires on its row of facts, a CN example when none does.

The learner charges net penalties (_net_penalties) from its first step to
its last: examples with the same facts fire together under every body, so
where such a group holds both classes, min(A, C) of its AD and CN penalty
sums A and C is paid by every hypothesis and only |A - C|, on one row of
the heavier class, is left to decide. Every total falls by one constant
and a row at 0 changes none, so each reduction below, exact for the net
totals, is exact for the task's own, tie-break included. Below, penalties
are net, the AD examples are those left with one, and all others count as
CN; score reports the task's own.

learn's pre-search, enumerate_candidates, finds candidate rules whose
coverage signatures exhaust the space (items 1-3); learn then runs a
branch-and-bound search over rule subsets (item 4):

1. Per edge and comparator, the satisfied example set only changes at
   observed strengths, so thresholds outside the observed values are
   redundant, and LearningTask makes each edge's domain hold them all. Of
   those, a threshold is kept only when widening the literal by one step
   would admit a CN example (widening over an all-AD step can never hurt
   a hypothesis), which is the class-boundary reduction.
2. Rules with identical coverage keep one representative with the fewest
   atoms and smallest canonical form, and the visiting order picks it: the
   first body a walk in canonical order reaches, where size s extends the
   bodies of size s - 1, smallest size first. Rules firing on no AD example
   are dropped (they can only add atoms and CN penalties), and so are the
   bodies that could extend them. The walk keeps each body once, as its
   literal-index path beside its fire-set packed as a row of uint64 words,
   and makes each size from the last with a few array ANDs, so its rows
   come in (atom count, canonical) order.
3. Before any deduplication, the walked bodies are cut by a floor: a rule
   in a hypothesis of total T has atoms + the CN penalty of its own
   fire-set at most T, so against a first incumbent of total I (the empty
   hypothesis or the best single fire-set, by popcounts over the rows) a
   fire-set whose floor is above I is in no optimum and no tie. The walk
   takes each size's floors and single-rule totals as it makes the size,
   and stops before a size s whose least floor, 1 + 2s, is already above
   the incumbent so far: no larger body can pass the cut or lower I. When
   one literal fires on exactly the AD examples (a total of 3), it makes
   size 1 only. The few survivors are deduplicated by first occurrence and
   then pruned by dominance: candidate A dominates B when A fires on every
   AD example B fires on, on no CN example B does not, and comes strictly
   earlier in (atom count, canonical order). Swapping B for A in a
   hypothesis (or dropping B when A is already in it) never raises the
   score, and it gives fewer atoms or a lexicographically smaller sorted
   rule list, so the tie-break winner holds no dominated candidate. The
   order is strict and transitive, and a dominator's floor is never above
   the floor of what it dominates, so every dominated survivor is dropped
   at once. The prune sweeps the packed rows by the number of examples each
   gets wrong (a dominator always gets fewer), testing the order
   explicitly; fire-set ints are built only for what it keeps, and they
   are put in canonical rule order by one lexsort over the bodies'
   literal-index paths, with no Rule built.
4. The search branches on the AD examples in order: either some specific
   candidate covers the first undecided one, or none does (its penalty is
   committed). A node at AD ordinal k has decided every AD example before
   k, so its committed set is implied: the examples before k its rules
   miss, and the AD examples no body fires on, committed at the root. A
   node keeps only k, its rules, their union and atom count, the committed
   penalty and the union's CN penalty. Node bound = atoms so far +
   committed AD penalties + CN penalties already incurred, compared with
   the incumbent as (total, atoms): atoms never fall along a path, so a
   child that ties the incumbent's total with more atoms already loses the
   tie-break. The greedy weighted-cover pass, which starts from the empty
   hypothesis, seeds the incumbent. Each AD example has cover lists of
   one (floor, atoms, fire-set, index) record per candidate firing on it,
   sorted by floor, one list per largest body size, and a node scans only
   the list whose rules fit under the incumbent. The search runs depth
   first from an explicit stack of child generators, so a path may hold
   one node per AD example whatever the interpreter's recursion limit.
   Rules are built only for the hypothesis returned.

Ties between optimal hypotheses break toward fewer atoms, then the
lexicographically smallest rule list under the canonical (edge, comparator,
threshold) order.
"""

from __future__ import annotations

import json
import operator
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .cohort import EdgeId, _field, edge, edges_from_pairs
from .taskgen import COMPARATORS, Examples, LearningTask

_COMP_INDEX = {c: k for k, c in enumerate(COMPARATORS)}
_COMPARE = dict(zip(COMPARATORS, (operator.ge, operator.gt, operator.lt, operator.le)))

DEFAULT_NODE_BUDGET = 500_000


@dataclass(frozen=True)
class BodyLiteral:
    edge: EdgeId
    comparator: str
    threshold: int

    def __post_init__(self):
        if self.comparator not in COMPARATORS:
            raise ValueError(f"unknown comparator {self.comparator!r}")

    @property
    def sort_key(self) -> tuple:
        return (self.edge.i, self.edge.j, _COMP_INDEX[self.comparator], self.threshold)


@dataclass(frozen=True)
class Rule:
    """AD-headed rule; body literals cover distinct edges, stored in
    canonical edge order."""

    body: tuple[BodyLiteral, ...]

    def __post_init__(self):
        if not self.body:
            raise ValueError("rule body must be nonempty")
        ordered = tuple(sorted(self.body, key=lambda l: l.sort_key))
        if len({l.edge for l in ordered}) != len(ordered):
            raise ValueError("rule body edges must be distinct")
        object.__setattr__(self, "body", ordered)

    @property
    def atom_count(self) -> int:
        return 1 + 2 * len(self.body)

    @property
    def sort_key(self) -> tuple:
        return tuple(l.sort_key for l in self.body)

    def to_text(self) -> str:
        parts = []
        for k, lit in enumerate(self.body):
            parts.append(f"connection(region({lit.edge.i}), region({lit.edge.j}), V{k})")
            parts.append(f"V{k} {lit.comparator} {lit.threshold}")
        return "ad :- " + ", ".join(parts) + "."


@dataclass(frozen=True)
class Hypothesis:
    rules: tuple[Rule, ...]

    def __post_init__(self):
        ordered = tuple(sorted(set(self.rules), key=lambda r: r.sort_key))
        object.__setattr__(self, "rules", ordered)

    @property
    def atom_count(self) -> int:
        return sum(r.atom_count for r in self.rules)

    def __len__(self) -> int:
        return len(self.rules)


@dataclass(frozen=True)
class Score:
    length: int
    penalty_sum: int

    @property
    def total(self) -> int:
        return self.length + self.penalty_sum


@dataclass(frozen=True)
class LearnResult:
    hypothesis: Hypothesis
    score: Score
    optimal: bool
    nodes_expanded: int = 0
    bodies: int = 0  # bodies the walk reached that fire on an AD example
    filtered: int = 0  # distinct fire-sets among them within the floor cut
    undominated: int = 0  # of those, the ones the search branches over


# ---------------------------------------------------------------------------
# Coverage semantics
# ---------------------------------------------------------------------------

def fire_vector(rule: Rule, examples: Examples) -> np.ndarray:
    """Where the rule fires, one bool per row of examples: each body literal's
    fact is present and its comparison holds. A left-out fact (-1) satisfies
    no literal, not even `V <= -1`, which a domain holds when 0 is observed."""
    fires = np.ones(len(examples), dtype=bool)
    for lit in rule.body:
        column = examples.column(lit.edge)
        fires &= (column >= 0) & _COMPARE[lit.comparator](column, lit.threshold)
    return fires


def score(hypothesis: Hypothesis, task: LearningTask) -> Score:
    """Atom count plus penalties of uncovered examples; rejects rules that
    fall outside the task's hypothesis space."""
    space = task.space
    for rule in hypothesis.rules:
        if len(rule.body) > space.max_body_edges:
            raise ValueError(f"rule outside the space: body too long in {rule.to_text()}")
        for lit in rule.body:
            if lit.edge not in space.threshold_domain:  # keyed by the selected edges
                raise ValueError(
                    f"rule outside the space: edge ({lit.edge.i}, {lit.edge.j}) not selected")
            if lit.threshold not in space.threshold_domain[lit.edge]:
                raise ValueError(
                    f"rule outside the space: threshold {lit.threshold} not in the "
                    f"domain of ({lit.edge.i}, {lit.edge.j})")
    examples = task.examples
    fired = np.zeros(len(examples), dtype=bool)
    for rule in hypothesis.rules:
        fired |= fire_vector(rule, examples)
    # an AD example is uncovered where no rule fires, a CN example where one does
    return Score(hypothesis.atom_count, int(examples.penalty[fired != examples.is_ad].sum()))


# ---------------------------------------------------------------------------
# Candidate enumeration
# ---------------------------------------------------------------------------

def _edge_literals(
    e: EdgeId,
    column: np.ndarray,
    domain: Sequence[int],
    cn_mask: int,
    ad_mask: int,
) -> list[tuple[BodyLiteral, int]]:
    """Distinct useful satisfied-sets for one edge, whose facts are column,
    with a representative literal each, after the class-boundary reduction.

    At the i-th lowest observed value, >= holds on the values from i up,
    > from i + 1 up, < below i and <= up to i. Each literal is kept only
    when the value just outside it (at i - 1, i, i and i + 1) holds a CN
    example or lies past either end. Domain thresholds that are not
    observed give sets an observed one already gives."""
    groups: dict[int, int] = {}  # value -> the examples holding it
    for k, v in enumerate(column.tolist()):
        if v >= 0:  # -1: left out
            groups[v] = groups.get(v, 0) | 1 << k
    values = sorted(groups)
    steps = [groups[v] for v in values]
    prefix = [0]  # prefix[i]: the examples at the i lowest values
    for m in steps:
        prefix.append(prefix[-1] | m)
    suffix = [0]  # reversed below, to suffix[i]: the examples from the i-th value up
    for m in reversed(steps):
        suffix.append(suffix[-1] | m)
    suffix.reverse()
    # outside[j]: the value at index j - 1 holds a CN example, or lies past either end
    outside = [True] + [(m & cn_mask) != 0 for m in steps] + [True]
    domain = set(domain)
    at = [i for i, v in enumerate(values) if v in domain]

    out: list[tuple[BodyLiteral, int]] = []
    seen: set[int] = set()
    # in COMPARATORS order: the sets of index i + shift, kept by outside[i + bound]
    for comp, sets, shift, bound in ((">=", suffix, 0, 0), (">", suffix, 1, 1),
                                     ("<", prefix, 0, 1), ("<=", prefix, 1, 2)):
        for i in at:
            mask = sets[i + shift]
            if outside[i + bound] and mask & ad_mask and mask not in seen:
                seen.add(mask)
                out.append((BodyLiteral(e, comp, values[i]), mask))
    return out


MAX_ENUMERATION = 2_000_000


def _pack(masks: Iterable[int], n_words: int) -> np.ndarray:
    """The bitmasks as rows of n_words little-endian uint64 words each."""
    return np.frombuffer(b"".join(m.to_bytes(8 * n_words, "little") for m in masks),
                         dtype="<u8").reshape(-1, n_words)


def _unpack(rows: np.ndarray) -> list[int]:
    """Inverse of _pack: one int per row."""
    width = 8 * rows.shape[1]
    data = np.ascontiguousarray(rows, dtype="<u8").tobytes()
    return [int.from_bytes(data[k:k + width], "little") for k in range(0, len(data), width)]


def _mask(flags: np.ndarray) -> int:
    """The rows where flags is set, as a bitmask."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _popcount(rows: np.ndarray) -> np.ndarray:
    """The set bits of each row of uint64 words, counted one word column at
    a time: over a few words, faster than a sum along the rows."""
    count = np.bitwise_count(rows[:, 0]).astype(np.int64)
    for w in range(1, rows.shape[1]):
        count += np.bitwise_count(rows[:, w])
    return count


def _penalties(fires: np.ndarray, groups: Sequence[tuple[int, int]]) -> np.ndarray:
    """Each packed fire-set's penalty sum over (penalty, example mask) groups."""
    total = np.zeros(len(fires), dtype=np.int64)
    for p, m in groups:
        total += p * _popcount(fires & _pack([m], fires.shape[1]))
    return total


def _first_occurrences(rows: np.ndarray) -> np.ndarray:
    """Ascending indices of the rows no earlier row equals."""
    order = np.lexsort(rows.T[::-1])  # stable: equal rows keep their order
    ranked = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return np.sort(order[first])


@dataclass(frozen=True, eq=False)
class _Walk:
    """The bodies that fire on an AD example, in walk order, with their
    fire-sets packed as uint64 words and their floors; see _walk."""

    literals: tuple[BodyLiteral, ...]  # of the usable edges, in canonical order
    reach: int  # the examples some literal holds on
    fires: np.ndarray  # (bodies, words): fire-set of each body
    paths: np.ndarray  # (bodies, width): each body's indices in literals, ascending, then -1
    floors: np.ndarray  # atoms + the CN penalty of each body's own fire-set
    incumbent: int  # the least total of the empty hypothesis and each single body

    def body(self, row: int) -> tuple[BodyLiteral, ...]:
        """The body of a row, read from its path."""
        return tuple(self.literals[k] for k in self.paths[row].tolist() if k >= 0)


def _walk(task: LearningTask, table: _PenaltyTable) -> _Walk:
    """The rule bodies of the task that fire on an AD example of
    table.ad_mask, size by size: size s extends each body of size s - 1, in
    order, by one literal of a later usable edge. Each edge's literals come
    in sort-key order and usable edges in canonical order, so the bodies
    come in (atom count, Rule.sort_key) order, and the first body with a
    given fire-set is its fewest-atom, smallest-key representative. A body
    that misses every AD example is dropped, and so are its extensions,
    which cannot regain one. One step is a few array operations: the bodies
    of size s - 1 are repeated once per literal they may take, their
    fire-set rows ANDed with those literals' rows and the literal written
    into column s - 1 of their paths.

    Each size's floors and single-body totals are taken as it is made, and
    the incumbent is the least total so far, starting from the empty
    hypothesis. A body of size s has at least 1 + 2s atoms, so the walk
    ends before the first size s whose 1 + 2s is above the incumbent: no
    body of that size or larger can lower the incumbent or pass the floor
    cut of enumerate_candidates. Before making a size, the walk raises
    ValueError when the bodies kept so far plus that size's extensions are
    above MAX_ENUMERATION."""
    examples = task.examples
    ad_mask = table.ad_mask
    cn_mask = ((1 << len(examples)) - 1) ^ ad_mask
    space = task.space
    lits = [_edge_literals(e, examples.column(e), space.threshold_domain[e], cn_mask, ad_mask)
            for e in sorted(space.edges.edges)]
    usable = [edge_lits for edge_lits in lits if edge_lits]

    n_words = max(1, -(-len(examples) // 64))
    masks = [mask for edge_lits in usable for _, mask in edge_lits]
    literal_rows = _pack(masks, n_words)
    n_lits = len(masks)
    edge_sizes = [len(edge_lits) for edge_lits in usable]
    # per literal: the first literal of the next usable edge
    later = np.repeat(np.cumsum(edge_sizes, dtype=np.intp), edge_sizes)
    ad_row = _pack([ad_mask], n_words)[0]

    # at least one column: np.lexsort takes no zero keys
    width = max(1, min(space.max_body_edges, len(usable)))
    parts = [(np.empty((0, n_words), dtype=np.uint64), np.empty((0, width), dtype=np.int32),
              np.empty(0, dtype=np.int64))]
    incumbent = table.ad_total
    # the bodies of the last size: their paths, fire-sets and first literal
    # they may take; at first the empty body, which fires everywhere
    paths = np.full((1, width), -1, dtype=np.int32)
    fires = np.full((1, n_words), np.iinfo(np.uint64).max, dtype=np.uint64)
    nexts = np.zeros(1, dtype=np.intp)
    done = 0
    for size in range(1, min(space.max_body_edges, len(usable)) + 1):
        if 1 + 2 * size > incumbent:
            break
        counts = n_lits - nexts
        bodies = done + int(counts.sum())
        if bodies > MAX_ENUMERATION:
            raise ValueError(
                f"candidate enumeration would generate {bodies} rule bodies by size {size} "
                f"(limit {MAX_ENUMERATION}); reduce selected edges or max_body_edges")
        prefix = np.repeat(np.arange(len(paths)), counts)
        lit = np.arange(len(prefix)) - np.repeat(np.cumsum(counts) - counts - nexts, counts)
        # take: faster than fancy indexing on rows of a few words
        hit = fires.take(prefix, axis=0) & literal_rows.take(lit, axis=0)
        keep = np.zeros(len(hit), dtype=bool)
        for w in range(n_words):  # faster than any(axis=1) over a few words
            keep |= (hit[:, w] & ad_row[w]) != 0
        fires, lit = hit[keep], lit[keep]
        paths = paths.take(prefix[keep], axis=0)  # faster than paths[...] on narrow rows
        paths[:, size - 1] = lit
        floors = 1 + 2 * size + _penalties(fires, table.cn_groups)
        # a single body's total: the empty hypothesis's, plus its floor, less
        # the AD penalty it covers
        change = floors - _penalties(fires, table.ad_groups)
        incumbent = min(incumbent, table.ad_total + int(change.min(initial=0)))
        parts.append((fires, paths, floors))
        nexts = later[lit]
        done += len(fires)

    reach = 0
    for mask in masks:
        reach |= mask
    return _Walk(tuple(lit for edge_lits in usable for lit, _ in edge_lits), reach,
                 *(np.concatenate(column) for column in zip(*parts)), incumbent)


def _canonical(walk: _Walk, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The given walk rows in canonical rule order, and their atom counts,
    with no Rule built. The walk's literals come in BodyLiteral.sort_key
    order and a body's literal indices ascend, so Rule.sort_key order is
    the lexicographic order of the bodies' paths, whose -1 after the last
    literal puts a path before any it is a prefix of: one lexsort."""
    paths = walk.paths[rows]
    order = np.lexsort(paths.T[::-1])
    return rows[order], 1 + 2 * (paths[order] >= 0).sum(axis=1)


_PRUNE_BLOCK_CELLS = 1 << 16  # uint64 cells per temporary array: 0.5 MB


def _undominated(h: np.ndarray) -> np.ndarray:
    """Ascending indices of the rows of h no other row dominates. Row r is
    h = fires ^ ad_mask (the AD examples a rule misses and the CN examples
    it hits) of a distinct fire-set, packed as uint64 words, and the rows
    must come in the candidates' (atom count, canonical) order, as the walk
    yields them.

    A dominates B iff h_A is a subset of h_B and A comes first in that
    order. Fire-sets are distinct, so a dominator's h is a proper subset
    with a smaller popcount, and rows of equal popcount never dominate each
    other. The rows are swept one popcount level at a time, lowest first,
    against the rows kept from lower levels, in chunks that double as they
    go, sparsest first; a row is dropped as soon as a chunk row that comes
    first in the order has an h within its own. A dominated candidate has
    an undominated dominator (the end of a chain of dominators, each
    earlier and sparser than the last, which dominates it too by
    transitivity) in a lower level, so this finds every one. Every matrix
    over pairs of rows holds at most _PRUNE_BLOCK_CELLS cells."""
    n_words = h.shape[1]
    pop = _popcount(h)
    order = np.argsort(pop, kind="stable")  # by popcount, then given order
    levels = np.flatnonzero(np.diff(pop[order])) + 1

    kept = np.empty((0, n_words), dtype=np.uint64)
    kept_rows = np.empty(0, dtype=np.intp)
    for rows in np.split(order, levels):
        start, size = 0, 64
        while start < len(kept) and len(rows):
            chunk, chunk_rows = kept[start:start + size], kept_rows[start:start + size]
            step = max(1, _PRUNE_BLOCK_CELLS // len(chunk))
            alive = np.ones(len(rows), dtype=bool)
            for lo in range(0, len(rows), step):
                piece = h[rows[lo:lo + step]]
                # [i, j]: chunk row i is a subset of piece row j and comes first
                dominated = chunk_rows[:, None] < rows[None, lo:lo + step]
                for w in range(n_words):
                    dominated &= (chunk[:, w, None] & ~piece[None, :, w]) == 0
                alive[lo:lo + step] = ~dominated.any(axis=0)
            rows = rows[alive]
            start += size
            size = min(2 * size, _PRUNE_BLOCK_CELLS)
        kept = np.concatenate([kept, h[rows]])
        kept_rows = np.concatenate([kept_rows, rows])
    return np.sort(kept_rows)


# ---------------------------------------------------------------------------
# Scoring machinery over bitmasks
# ---------------------------------------------------------------------------

class _PenaltyTable:
    """The penalties the learner charges, one per row of examples, grouped
    by (class, penalty) so that penalty sums are popcounts. A row at 0 is in
    no group and, if AD, not in ad_mask."""

    def __init__(self, examples: Examples, penalty: np.ndarray):
        is_ad = examples.is_ad
        counted = penalty > 0
        self.penalty = penalty
        self.ad_mask = _mask(is_ad & counted)
        self.ad_total = int(penalty[is_ad].sum())
        # per class, ascending: (penalty, the examples of the class with it)
        self.ad_groups, self.cn_groups = (
            [(p, _mask(in_class & (penalty == p)))
             for p in sorted(set(penalty[in_class & counted].tolist()))]
            for in_class in (is_ad, ~is_ad))

    # plain loops: the greedy pass calls these once per candidate per round,
    # and a generator or a temporary list costs more than the sum
    def ad_over(self, mask: int) -> int:
        total = 0
        for p, m in self.ad_groups:
            total += p * (mask & m).bit_count()
        return total

    def cn_over(self, mask: int) -> int:
        total = 0
        for p, m in self.cn_groups:
            total += p * (mask & m).bit_count()
        return total

    def total(self, atoms: int, union: int) -> int:
        return atoms + self.ad_total - self.ad_over(union) + self.cn_over(union)


def _net_penalties(examples: Examples) -> np.ndarray:
    """The penalties the learner charges, one per row (see the module
    docstring): a group of rows with the same facts that holds both classes,
    at AD and CN penalty sums A and C, keeps |A - C| on its first row of the
    heavier class and 0 on its other rows. Every other row keeps its own."""
    first: dict[tuple, int] = {}  # facts row -> the first row holding it
    groups: dict[tuple, list[int]] = {}  # facts row -> its rows, where it repeats
    for k, row in enumerate(map(tuple, examples.facts.tolist())):
        j = first.setdefault(row, k)
        if j != k:
            groups.setdefault(row, [j]).append(k)
    is_ad = examples.is_ad.tolist()
    net = examples.penalty.copy()
    for members in groups.values():
        ad = [k for k in members if is_ad[k]]
        cn = [k for k in members if not is_ad[k]]
        if ad and cn:
            a, c = int(net[ad].sum()), int(net[cn].sum())
            net[members] = 0
            if a != c:
                net[ad[0] if a > c else cn[0]] = abs(a - c)
    return net


def _greedy(fire_sets: Sequence[int], atoms_of: Sequence[int],
            table: _PenaltyTable) -> tuple[list[int], int, int]:
    """Weighted-cover greedy over candidates given as fire-set ints and atom
    counts: repeatedly add the one with the best score delta until none
    improves. Returns (indices, union, atoms)."""
    chosen: list[int] = []
    union = 0
    atoms = 0
    remaining = list(range(len(fire_sets)))
    while True:
        best_delta = 0
        best_ci = None
        for ci in remaining:
            new = fire_sets[ci] & ~union
            delta = atoms_of[ci] - table.ad_over(new) + table.cn_over(new)
            if delta < best_delta:
                best_delta = delta
                best_ci = ci
        if best_ci is None:
            return chosen, union, atoms
        chosen.append(best_ci)
        union |= fire_sets[best_ci]
        atoms += atoms_of[best_ci]
        remaining.remove(best_ci)


@dataclass(frozen=True, eq=False)
class Candidates:
    """The undominated candidates in canonical rule order, as walk rows with
    their fire-sets as ints, atom counts and floors; see enumerate_candidates."""

    walk: _Walk
    table: _PenaltyTable
    filtered: int  # distinct fire-sets within the floor cut
    rows: list[int]
    fire_sets: list[int]
    atoms: list[int]
    floors: list[int]

    def __len__(self) -> int:
        return len(self.rows)


def enumerate_candidates(task: LearningTask) -> Candidates:
    """learn's pre-search, items 1-3 of the module docstring, at the net
    penalties of one _PenaltyTable: the walk, cut by the floor,
    deduplicated, pruned by dominance and put in canonical order. A
    fire-set's first body has the fewest atoms, so the dedupe keeps it
    whenever the cut keeps a copy."""
    table = _PenaltyTable(task.examples, _net_penalties(task.examples))
    walk = _walk(task, table)
    rows = np.flatnonzero(walk.floors <= walk.incumbent)
    rows = rows[_first_occurrences(walk.fires.take(rows, axis=0))]
    filtered = len(rows)
    rows = rows[_undominated(walk.fires.take(rows, axis=0)
                             ^ _pack([table.ad_mask], walk.fires.shape[1]))]
    rows, atoms = _canonical(walk, rows)
    return Candidates(walk, table, filtered, rows.tolist(),
                      _unpack(walk.fires.take(rows, axis=0)), atoms.tolist(),
                      walk.floors[rows].tolist())


def learn(task: LearningTask, budget: int = DEFAULT_NODE_BUDGET) -> LearnResult:
    """Minimal-score hypothesis via branch and bound over the undominated
    candidates of enumerate_candidates, its only pre-search; the result
    counts the candidates at each stage. The search charges the net
    penalties of the pre-search's table and reads its floors as they are,
    and the result's score is the task's own.

    A node (k, chosen, union, atoms, committed_pen, cn_union) branches on AD
    ordinal k, the first AD example neither covered nor committed. Its
    committed AD examples are implied by k: those before k that union
    misses, and those no body fires on, which every hypothesis leaves
    uncovered, so their penalty is committed at the root. The stack holds
    one generator of child nodes per node on the current path; the loop
    takes the next child from the top one. A generator tests each child's
    bound only when asked for it, so against the incumbent its elder
    siblings' subtrees left, as a recursive search would. Each child's
    bound adds the CN penalty of its new union and the least penalty,
    capped at 3, of an AD example left coverable, one loop over the penalty
    levels each. The bound is compared with the incumbent as (total,
    atoms): atoms never fall along a path, so a child whose bound ties the
    incumbent's total but already has more atoms loses the tie-break.
    A node branches over the cover list of its ordinal's candidates that
    fit its room (the incumbent's total less base and CN penalty so far),
    sorted by floor, so its branch loop stops as soon as no remaining
    candidate can undercut the incumbent; the incumbent only falls, so a
    list chosen at the start of a node stays valid. Rules are built only
    for the hypothesis returned. When the node budget runs out, the best
    incumbent found so far is returned with optimal=False instead of
    raising; a budget below 1 raises ValueError.
    """
    if budget < 1:
        raise ValueError(f"node budget must be >= 1, got {budget}")
    found = enumerate_candidates(task)
    walk, table, fire_sets, atoms_of = found.walk, found.table, found.fire_sets, found.atoms

    # per AD ordinal (an AD example with a penalty to pay): its bit and
    # penalty, and per body size s up to the largest, its cover list of the
    # records (floor, atoms, fire-set, index) of the candidates firing on it
    # with at most s literals, in (floor, index) order: none at size 0,
    # every record at the largest
    ad = [(1 << k, p) for k, p in enumerate(table.penalty.tolist()) if table.ad_mask >> k & 1]
    records = sorted(zip(found.floors, atoms_of, fire_sets, range(len(found))),
                     key=lambda r: (r[0], r[3]))
    max_size = (max(atoms_of, default=1) - 1) // 2
    cover = []
    for bit, _ in ad:
        hits = [r for r in records if r[2] & bit]
        cover.append([[]] + [[r for r in hits if r[1] <= 1 + 2 * s]
                             for s in range(1, max_size)] + [hits])
    # the AD examples no body fires on, whichever candidates the cut keeps
    unreached = table.ad_mask & ~walk.reach
    # later[k]: the AD examples from ordinal k on that some body fires on
    later = [0] * (len(ad) + 1)
    for k in range(len(ad) - 1, -1, -1):
        later[k] = later[k + 1] | (ad[k][0] & walk.reach)
    cn_groups = table.cn_groups
    # per AD penalty level, ascending: what a still-coverable example of it adds
    # to a bound, capped at 3
    ad_caps = [(min(3, p), m) for p, m in table.ad_groups]
    least_cap = min((p for p, _ in ad_caps), default=0)

    # the greedy pass starts from the empty hypothesis and takes only rules
    # that lower the score, so it is never worse than the empty one.
    # Candidates are in canonical rule order, so sorted index tuples compare
    # like sorted rule lists.
    best_rules, g_union, g_atoms = _greedy(fire_sets, atoms_of, table)
    best_total = table.total(g_atoms, g_union)
    best_key = (g_atoms, tuple(sorted(best_rules)))

    def children(k: int, chosen: tuple[int, ...], union: int, atoms: int,
                 committed_pen: int, cn_union: int):
        # the branches on AD ordinal k. The committed examples stay
        # uncovered: a candidate firing on one is banned, which keeps
        # committed_pen a true lower bound for the whole subtree
        base = atoms + committed_pen
        coverable = later[k]
        banned = table.ad_mask & ~coverable & ~union
        uncovered = coverable & ~union
        # a rule child adds its atoms to base + cn_union, so it has at most
        # room atoms: at most (room - 1) // 2 literals, none below 3 atoms
        room = best_total - base - cn_union

        for floor, rule_atoms, fires, ci in cover[k][max(0, min((room - 1) // 2, max_size))]:
            if base + floor > best_total:
                break  # sorted by floor: nothing later can fit either
            # past the floor test, this is base + atoms + max(cn_union, the
            # rule's own CN penalty) > best_total: a lower bound on the child
            if base + rule_atoms + cn_union > best_total or fires & banned:
                continue
            # the floor and the least cap bound a child that leaves a
            # coverable AD example uncovered
            remaining = uncovered & ~fires
            if remaining and base + floor + least_cap > best_total:
                continue
            union2 = union | fires
            cn_union2 = 0
            for p, m in cn_groups:
                cn_union2 += p * (union2 & m).bit_count()
            b = base + rule_atoms + cn_union2
            if remaining:
                for p, m in ad_caps:  # the first level hit is the least
                    if remaining & m:
                        b += p
                        break
            atoms2 = atoms + rule_atoms
            if b < best_total or b == best_total and atoms2 <= best_key[0]:
                yield k, chosen + (ci,), union2, atoms2, committed_pen, cn_union2
        # no chosen rule covers this example: commit its penalty
        pen = ad[k][1]
        b = base + pen + cn_union
        remaining = later[k + 1] & ~union
        if remaining:
            for p, m in ad_caps:
                if remaining & m:
                    b += p
                    break
        if b < best_total or b == best_total and atoms <= best_key[0]:
            yield k + 1, chosen, union, atoms, committed_pen + pen, cn_union

    nodes = 0
    optimal = True
    stack = [iter([(0, (), 0, 0, table.ad_over(unreached), 0)])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        nodes += 1
        if nodes > budget:
            optimal = False
            break
        k, chosen, union, atoms, committed_pen, cn_union = node
        decided = union | unreached
        while k < len(ad) and decided & ad[k][0]:
            k += 1
        if k < len(ad):
            stack.append(children(k, chosen, union, atoms, committed_pen, cn_union))
            continue
        # every AD example is covered or committed, and no rule fires on a
        # committed one, so the uncovered AD penalty is committed_pen
        total = atoms + committed_pen + cn_union
        key = (atoms, tuple(sorted(chosen)))
        if (total, key) < (best_total, best_key):
            best_rules, best_total, best_key = list(chosen), total, key

    hypothesis = Hypothesis(tuple(Rule(walk.body(found.rows[ci])) for ci in best_rules))
    return LearnResult(hypothesis, score(hypothesis, task), optimal, nodes,
                       len(walk.fires), found.filtered, len(found))


def union_hypotheses(per_task: Sequence[Hypothesis]) -> Hypothesis:
    """Set union of rules across tasks, canonically ordered."""
    if not per_task:
        raise ValueError("no hypotheses to union")
    return Hypothesis(tuple(r for h in per_task for r in h.rules))


# ---------------------------------------------------------------------------
# Hypothesis I/O
# ---------------------------------------------------------------------------

def hypothesis_to_text(hyp: Hypothesis) -> str:
    if not hyp.rules:
        return "% empty hypothesis: no rule fires, every subject is predicted cn\n"
    return "\n".join(r.to_text() for r in hyp.rules) + "\n"


_RULE_LINE = re.compile(r"ad :- (.*)\.(?:\s*%.*)?")
_CONN = r"connection\(region\((\d+)\), region\((\d+)\), V(\d+)\)"
_CMP = r"V(\d+) (>=|>|<=|<) (-?\d+)"
_LITERAL = re.compile(rf"{_CONN}|{_CMP}")
_BODY = re.compile(rf"(?:{_CONN}|{_CMP})(?:, (?:{_CONN}|{_CMP}))*")


def parse_rule_text(line: str) -> Rule:
    """Inverse of Rule.to_text. Raises ValueError on any other literal and
    on a variable bound or compared twice."""
    m = _RULE_LINE.fullmatch(line.strip())
    if not m:
        raise ValueError(f"unparseable rule: {line!r}")
    body = m.group(1)
    if not _BODY.fullmatch(body):
        raise ValueError(f"unrecognised body literal in rule: {line!r}")
    edges: dict[str, EdgeId] = {}
    comps: dict[str, tuple[str, int]] = {}
    for lit in _LITERAL.finditer(body):
        i, j, var, cvar, comp, thr = lit.groups()
        if var is not None:
            if var in edges:
                raise ValueError(f"V{var} bound twice in rule: {line!r}")
            edges[var] = edge(int(i), int(j))
        else:
            if cvar in comps:
                raise ValueError(f"V{cvar} compared twice in rule: {line!r}")
            comps[cvar] = (comp, int(thr))
    if set(edges) != set(comps):
        raise ValueError(f"mismatched connection and comparison literals: {line!r}")
    return Rule(tuple(
        BodyLiteral(edges[v], comps[v][0], comps[v][1]) for v in sorted(edges)))


def parse_hypothesis_text(text: str) -> Hypothesis:
    rules = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("%"):
            continue
        rules.append(parse_rule_text(line))
    return Hypothesis(tuple(rules))


def hypothesis_to_obj(hyp: Hypothesis) -> dict:
    return {
        "rules": [
            {"body": [{"edge": [l.edge.i, l.edge.j],
                       "comparator": l.comparator,
                       "threshold": l.threshold} for l in r.body]}
            for r in hyp.rules
        ],
        "atom_count": hyp.atom_count,
    }


def hypothesis_from_obj(obj: dict) -> Hypothesis:
    """Inverse of hypothesis_to_obj. Raises ValueError naming a missing key
    or a value of the wrong type."""
    rules = []
    for r in _field(obj, "rules", list):
        body = []
        for l in _field(r, "body", list):
            body.append(BodyLiteral(edges_from_pairs([_field(l, "edge")])[0],
                                    _field(l, "comparator", str),
                                    _field(l, "threshold", int)))
        rules.append(Rule(tuple(body)))
    return Hypothesis(tuple(rules))


def hypothesis_to_json(hyp: Hypothesis) -> str:
    return json.dumps(hypothesis_to_obj(hyp), indent=1)


def hypothesis_from_json(text: str) -> Hypothesis:
    return hypothesis_from_obj(json.loads(text))
