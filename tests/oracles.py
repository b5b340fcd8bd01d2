"""Independent reference implementations used as test oracles.

These deliberately use plain scalar Python (exact rational arithmetic where
it matters, exhaustive search for the learner) rather than the library's
vectorized or pruned paths. The CART oracle grows one node at a time by
recursion on copied rows with a float sort per node, where the library
searches a tree's nodes along per-feature row orders sorted once, and a
forest's in batches from dense ranks and row weights. The learner's oracles read a
task's examples one at a time, as Example records with a context dict,
where the library compares whole columns of its facts matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from connrules import learner
from connrules.cohort import AD, CN, N_EDGES, EdgeMask, canonical_edges
from connrules.learner import (
    DEFAULT_NODE_BUDGET,
    BodyLiteral,
    Hypothesis,
    LearnResult,
    Rule,
    Score,
    _greedy,
    enumerate_candidates,
    score,
)
from connrules.taskgen import COMPARATORS, Examples
from connrules.tree import ClassCounts, Internal, Leaf, TreeNode, TreeParams


@dataclass(frozen=True)
class Example:
    """One example as a scalar record, the reference form of a row of
    taskgen.Examples: context maps each edge the example has a fact for to
    its scaled strength, and holds no entry for a fact left out."""

    id: str
    penalty: int
    is_ad: bool
    context: dict


def to_examples(examples, edges) -> Examples:
    """The Example records as one record over the given edges, with -1
    where a context leaves an edge out. A context edge outside edges raises
    ValueError."""
    edges = tuple(edges)
    for ex in examples:
        if set(ex.context) - set(edges):
            raise ValueError(f"example {ex.id!r} has context edges outside {edges}")
    facts = [[ex.context.get(e, -1) for e in edges] for ex in examples]
    return Examples(tuple(ex.id for ex in examples), [ex.is_ad for ex in examples],
                    [ex.penalty for ex in examples],
                    np.array(facts, dtype=np.int64).reshape(len(examples), len(edges)), edges)


def example_rows(examples: Examples) -> list[Example]:
    """Inverse of to_examples: one Example per row."""
    return [Example(eid, penalty, is_ad, {e: v for e, v in zip(examples.edges, row) if v != -1})
            for eid, is_ad, penalty, row in zip(examples.ids, examples.is_ad.tolist(),
                                                examples.penalty.tolist(),
                                                examples.facts.tolist())]


def holds(lit: BodyLiteral, strength: int) -> bool:
    """Whether the literal's comparison holds on one strength."""
    if lit.comparator == ">=":
        return strength >= lit.threshold
    if lit.comparator == ">":
        return strength > lit.threshold
    if lit.comparator == "<":
        return strength < lit.threshold
    return strength <= lit.threshold


def rule_fires(rule: Rule, context: dict) -> bool:
    """True iff every body literal's edge is present and its comparison
    holds; a missing edge leaves the body unsatisfied."""
    for lit in rule.body:
        strength = context.get(lit.edge)
        if strength is None or not holds(lit, strength):
            return False
    return True


def covers(hypothesis: Hypothesis, example: Example) -> bool:
    """AD examples are covered when some rule fires; CN examples when none
    does (the background is empty, so AD is derivable only via rules)."""
    fired = any(rule_fires(r, example.context) for r in hypothesis.rules)
    return fired if example.is_ad else not fired


def oracle_score(hypothesis: Hypothesis, examples: Examples) -> Score:
    """learner.score without its space checks, one example at a time."""
    return Score(hypothesis.atom_count, sum(ex.penalty for ex in example_rows(examples)
                                            if not covers(hypothesis, ex)))


def oracle_gini_exact(n_ad: int, n_cn: int) -> float:
    """Gini impurity via exact rationals, converted to float at the end."""
    n = n_ad + n_cn
    pa = Fraction(n_ad, n)
    pc = Fraction(n_cn, n)
    return float(1 - pa * pa - pc * pc)


def _gini(n_ad: int, n_cn: int) -> float:
    n = n_ad + n_cn
    pa = n_ad / n
    pc = n_cn / n
    return 1.0 - pa * pa - pc * pc


def oracle_best_split(X: np.ndarray, is_ad: np.ndarray):
    """Exhaustive scalar search over every feature and every midpoint between
    consecutive distinct sorted values. Ties keep the first candidate in
    (feature asc, threshold asc) order. Returns (feature, threshold, gain) or
    None when no candidate strictly improves."""
    n, n_features = X.shape
    na = int(is_ad.sum())
    parent = _gini(na, n - na)
    best = None
    for f in range(n_features):
        col = sorted(zip(X[:, f].tolist(), is_ad.tolist()))
        for p in range(n - 1):
            if col[p][0] == col[p + 1][0]:
                continue
            thr = (col[p][0] + col[p + 1][0]) / 2.0
            la = sum(1 for v, a in col[: p + 1] if a)
            lc = (p + 1) - la
            ra = na - la
            rc = (n - p - 1) - ra
            nl = p + 1
            nr = n - p - 1
            gain = parent - (nl / n) * _gini(la, lc) - (nr / n) * _gini(ra, rc)
            if gain > 0.0 and (best is None or gain > best[2]):
                best = (f, thr, gain)
    return best


def _oracle_split(X: np.ndarray, is_ad: np.ndarray, feats):
    """Best (feature, threshold, gain) of one node whose rows are X, over
    the columns feats (all when None): a stable float argsort per column,
    cumulative AD counts, and the first maximum of the feature-major gain
    matrix. None when no candidate has strictly positive gain."""
    m = X.shape[0]
    if m < 2:
        return None
    Xs = X if feats is None else X[:, feats]
    na = int(is_ad.sum())
    if na == 0 or na == m:
        return None
    pa = na / m
    pc = (m - na) / m
    parent = 1.0 - pa * pa - pc * pc

    order = np.argsort(Xs, axis=0, kind="stable")
    sv = np.take_along_axis(Xs, order, axis=0)
    cum_ad = np.cumsum(is_ad[order], axis=0)

    nl = np.arange(1, m, dtype=float)[:, None]
    nr = m - nl
    la = cum_ad[:-1]
    lc = nl - la
    ra = na - la
    rc = nr - ra
    pla = la / nl
    plc = lc / nl
    pra = ra / nr
    prc = rc / nr
    gl = 1.0 - pla * pla - plc * plc
    gr = 1.0 - pra * pra - prc * prc
    gain = parent - (nl / m) * gl - (nr / m) * gr
    gain = np.where(sv[1:] != sv[:-1], gain, -np.inf)

    flat = gain.ravel(order="F")
    pos = int(np.argmax(flat))
    best = float(flat[pos])
    if not best > 0.0:
        return None
    p = pos % (m - 1)
    c = pos // (m - 1)
    thr = (sv[p, c] + sv[p + 1, c]) / 2.0
    if thr >= sv[p + 1, c]:
        thr = float(sv[p, c])
    f = int(c) if feats is None else int(feats[c])
    return f, float(thr), best


def oracle_fit_tree(X: np.ndarray, is_ad: np.ndarray, rows, params: TreeParams,
                    sampler=None) -> TreeNode:
    """Root of the CART tree grown on the rows X[rows] (a row listed k times
    counts k times), one node at a time by recursion on copied rows.
    sampler(node_id, n_features), with node ids in preorder, gives the
    features a node may split on; without it every feature is searched."""
    X, is_ad = X[rows], is_ad[rows]
    next_id = [0]

    def leaf(idx) -> Leaf:
        na = int(is_ad[idx].sum())
        nc = len(idx) - na
        return Leaf(ClassCounts(na, nc), AD if na > nc else CN)

    def grow(idx, depth: int) -> TreeNode:
        node_id = next_id[0]
        next_id[0] += 1
        n = len(idx)
        na = int(is_ad[idx].sum())
        if depth >= params.max_depth or n < params.min_samples_split or na == 0 or na == n:
            return leaf(idx)
        feats = None if sampler is None else sampler(node_id, X.shape[1])
        split = _oracle_split(X[idx], is_ad[idx], feats)
        if split is None:
            return leaf(idx)
        f, thr, gain = split
        go_left = X[idx, f] <= thr
        return Internal(f, thr, grow(idx[go_left], depth + 1), grow(idx[~go_left], depth + 1),
                        gain, n)

    return grow(np.arange(len(X)), 0)


def oracle_compute_mask(cohort, keep_ratio: float) -> EdgeMask:
    """compute_mask by a Python sort of the edge indices on the key
    (-occurrence, -mean weight, index), with numpy scalars in the key."""
    vals = np.stack([s.strengths for s in cohort.subjects])
    occurrence = (vals > 0).mean(axis=0)
    mean_w = vals.mean(axis=0)
    ranked = sorted(range(N_EDGES), key=lambda t: (-occurrence[t], -mean_w[t], t))
    kept = sorted(t for t in ranked[:math.ceil(keep_ratio * N_EDGES)] if occurrence[t] > 0)
    all_edges = canonical_edges()
    return EdgeMask(tuple(all_edges[t] for t in kept))


def oracle_training_accuracy_stump(X: np.ndarray, is_ad: np.ndarray) -> float:
    """Best achievable training accuracy of a single threshold split,
    including the trivial majority predictor."""
    n = len(is_ad)
    na = int(is_ad.sum())
    best = max(na, n - na)
    for f in range(X.shape[1]):
        for thr in sorted(set(X[:, f].tolist())):
            left = X[:, f] <= thr
            la = int(is_ad[left].sum())
            ll = int(left.sum())
            ra = na - la
            rr = n - ll
            for lpred_ad in (False, True):
                hits = (la if lpred_ad else ll - la) + (rr - ra if lpred_ad else ra)
                best = max(best, hits)
    return best / n


def oracle_edge_literals(e, examples, domain, cn_mask: int, ad_mask: int) -> list:
    """_edge_literals by evaluating every literal on every example: for each
    comparator, then each domain threshold that some example holds, the
    literal's satisfied set, kept when it holds an AD example, is new, and
    the nearest value it does not satisfy holds a CN example (or there is
    no such value)."""
    held = {k: ex.context[e] for k, ex in enumerate(examples) if e in ex.context}
    observed = set(held.values())
    out, seen = [], set()
    for comp in COMPARATORS:
        for t in domain:
            if t not in observed:
                continue
            lit = BodyLiteral(e, comp, t)
            mask = sum(1 << k for k, v in held.items() if holds(lit, v))
            missed = [v for v in observed if not holds(lit, v)]
            if missed:
                nearest = max(missed) if comp in (">=", ">") else min(missed)
                if not any(held[k] == nearest and (cn_mask >> k) & 1 for k in held):
                    continue
            if mask & ad_mask and mask not in seen:
                seen.add(mask)
                out.append((lit, mask))
    return out


@dataclass(frozen=True)
class Candidate:
    rule: Rule
    fires: int  # bitmask over task.examples


def candidates(task) -> list[Candidate]:
    """The candidates of learner.enumerate_candidates, each with its rule."""
    found = enumerate_candidates(task)
    return [Candidate(Rule(found.walk.body(r)), fires)
            for r, fires in zip(found.rows, found.fire_sets)]


def oracle_net_penalties(task) -> list[int]:
    """learner._net_penalties as a list: examples grouped by their facts row
    as a tuple, and each group holding both classes cut to its first row of
    the heavier class, at the difference of the two classes' penalty sums."""
    rows: dict[tuple, list[int]] = {}
    for k, row in enumerate(task.examples.facts.tolist()):
        rows.setdefault(tuple(row), []).append(k)
    is_ad = task.examples.is_ad.tolist()
    net = task.examples.penalty.tolist()
    for members in rows.values():
        ad = sum(net[k] for k in members if is_ad[k])
        cn = sum(net[k] for k in members if not is_ad[k])
        if ad and cn:
            for k in members:
                net[k] = 0
            if ad != cn:
                net[next(k for k in members if is_ad[k] == (ad > cn))] = abs(ad - cn)
    return net


def charged(task, own: bool = False) -> list[int]:
    """The penalties the pre-search oracles charge, one per example: those of
    oracle_net_penalties, as learn charges, or with own the task's own, as
    no pre-search step nets them."""
    return task.examples.penalty.tolist() if own else oracle_net_penalties(task)


def _class_penalties(task, is_ad: bool, own: bool) -> list[tuple[int, int]]:
    """(index, charged penalty) of each example of one class."""
    return [(k, p) for k, (ad, p) in enumerate(zip(task.examples.is_ad.tolist(),
                                                   charged(task, own)))
            if ad == is_ad]


def oracle_ad_mask(task, own: bool = False) -> int:
    """The AD examples with a charged penalty, as a bitmask."""
    return sum(1 << k for k, p in _class_penalties(task, True, own) if p)


def _literals(task, own: bool = False) -> tuple[int, dict]:
    """The AD mask of oracle_ad_mask and each edge's useful literals, as
    learn has them: every example outside that mask counts as CN."""
    examples = task.examples
    ad_mask = oracle_ad_mask(task, own)
    cn_mask = ((1 << len(examples)) - 1) ^ ad_mask
    space = task.space
    return ad_mask, {e: learner._edge_literals(e, examples.column(e),
                                               space.threshold_domain.get(e, ()),
                                               cn_mask, ad_mask)
                     for e in sorted(space.edges.edges)}


def oracle_candidates(task, own: bool = False) -> list[Candidate]:
    """Every coverage-distinct candidate rule, uncut and unpruned, by
    exhaustion: every body of 1..max_body_edges literals, one per distinct
    edge, whose fire-set holds an AD example of oracle_ad_mask; on each
    fire-set collision the rule with (atom_count, sort_key) smaller wins.
    Sorted by rule sort key."""
    ad_mask, lits = _literals(task, own)
    best: dict[int, Rule] = {}
    for m in range(1, task.space.max_body_edges + 1):
        for combo in combinations(sorted(lits), m):
            for choice in product(*(lits[e] for e in combo)):
                fires = -1
                for _, mask in choice:
                    fires &= mask
                if not fires & ad_mask:
                    continue
                rule = Rule(tuple(lit for lit, _ in choice))
                held = best.get(fires)
                if held is None or (rule.atom_count, rule.sort_key) < (
                        held.atom_count, held.sort_key):
                    best[fires] = rule
    return sorted((Candidate(rule, fires) for fires, rule in best.items()),
                  key=lambda c: c.rule.sort_key)


def oracle_walk(task) -> list[tuple[tuple[BodyLiteral, ...], int]]:
    """Every body that fires on an AD example of oracle_ad_mask, with its
    fire-set, in the walk's order, by a walk over Python ints: size s
    extends each body of size s - 1, in order, by one literal of a later
    usable edge. A body that misses every such example is dropped with its
    extensions."""
    ad_mask, lits = _literals(task)
    usable = [e for e in lits if lits[e]]
    walked = []
    # (next usable edge, body, fires); -1 has every example bit set
    prefixes: list[tuple[int, tuple[BodyLiteral, ...], int]] = [(0, (), -1)]
    for _ in range(min(task.space.max_body_edges, len(usable))):
        extended = []
        for start, body, fires in prefixes:
            for u in range(start, len(usable)):
                for lit, mask in lits[usable[u]]:
                    hit = fires & mask
                    if hit & ad_mask:  # else no extension can regain an AD example
                        extended.append((u + 1, body + (lit,), hit))
        walked += [(body, fires) for _, body, fires in extended]
        prefixes = extended
    return walked


def oracle_enumeration_counts(task) -> list[int]:
    """Per body size s up to the task's bound: the bodies of oracle_walk
    below size s plus every extension of its size s - 1 bodies (of the
    empty body at s = 1) by one literal of a later usable edge. This is the
    count the walk holds against MAX_ENUMERATION before it makes size s."""
    _, lits = _literals(task)
    usable = [e for e in lits if lits[e]]
    later = {e: sum(len(lits[f]) for f in usable[u + 1:]) for u, e in enumerate(usable)}
    walked = oracle_walk(task)
    counts = []
    for s in range(1, min(task.space.max_body_edges, len(usable)) + 1):
        extensions = (sum(map(len, lits.values())) if s == 1 else
                      sum(later[body[-1].edge] for body, _ in walked if len(body) == s - 1))
        counts.append(sum(len(body) < s for body, _ in walked) + extensions)
    return counts


def oracle_first_bodies(task) -> dict[int, tuple[BodyLiteral, ...]]:
    """Each fire-set of oracle_walk mapped to the first body reaching it:
    its fewest-atom, smallest-key representative. The insertion order is
    (atom count, Rule.sort_key) order."""
    best: dict[int, tuple[BodyLiteral, ...]] = {}
    for body, fires in oracle_walk(task):
        best.setdefault(fires, body)
    return best


def oracle_penalty(task, fires: int, is_ad: bool, own: bool = False) -> int:
    """The charged penalty sum of the task's examples of one class in fires,
    per example."""
    return sum(p for k, p in _class_penalties(task, is_ad, own) if fires >> k & 1)


def oracle_floor_cut(task, own: bool = False) -> tuple[int, list[Candidate]]:
    """The first incumbent total I, the smaller of the empty hypothesis's
    total and the best single candidate's, and the candidates of
    oracle_candidates whose floor (atoms plus the CN penalty of their
    fire-set) is at most I, in the same order. Charged penalties are
    summed per example."""
    ad, cn = (_class_penalties(task, is_ad, own) for is_ad in (True, False))
    ad_total = sum(p for _, p in ad)
    cands = oracle_candidates(task, own)
    floors = [c.rule.atom_count + sum(p for k, p in cn if c.fires >> k & 1) for c in cands]
    incumbent = min([ad_total] + [floor + ad_total - sum(p for k, p in ad if c.fires >> k & 1)
                                  for c, floor in zip(cands, floors)])
    return incumbent, [c for c, floor in zip(cands, floors) if floor <= incumbent]


def oracle_stop_size(task) -> int | None:
    """The first body size s of oracle_walk whose least atom count, 1 + 2s,
    is above the incumbent of the smaller sizes: the least total of the
    empty hypothesis and of each single body of a size below s, with
    charged penalties summed per example. None when no size of the walk is;
    learn's walk makes only the sizes below it."""
    ad_total = oracle_penalty(task, -1, True)
    _, lits = _literals(task)
    walked = oracle_walk(task)
    incumbent = ad_total
    for s in range(1, min(task.space.max_body_edges, sum(map(bool, lits.values()))) + 1):
        if 1 + 2 * s > incumbent:
            return s
        for body, fires in walked:
            if len(body) == s:
                incumbent = min(incumbent, 1 + 2 * s + oracle_penalty(task, fires, False)
                                + ad_total - oracle_penalty(task, fires, True))
    return None


def oracle_undominated(task, cands) -> list[Candidate]:
    """The candidates of cands no other one dominates, by an all-pairs check:
    A dominates B when A fires on every AD example of oracle_ad_mask B fires
    on, on no other example B does not, and A's rule has the smaller
    (atom_count, sort_key). Kept in the order given."""
    ad_mask = oracle_ad_mask(task)
    ad = {k for k in range(len(task.examples)) if ad_mask >> k & 1}

    def profile(c):
        fired = {k for k in range(len(task.examples)) if c.fires >> k & 1}
        return fired & ad, fired - ad, (c.rule.atom_count, c.rule.sort_key)

    profiles = [profile(c) for c in cands]
    return [c for c, (ad_b, cn_b, key_b) in zip(cands, profiles)
            if not any(ad_a >= ad_b and cn_a <= cn_b and key_a < key_b
                       for ad_a, cn_a, key_a in profiles)]


def brute_force_learn(task, max_rules: int = 3, max_candidates: int = 300) -> LearnResult:
    """Exhaustive search over every subset of at most max_rules candidates
    of oracle_candidates at the task's own penalties, with learn's
    tie-break: lowest score, then fewest atoms, then the smallest sorted
    rule list. Nothing in it nets penalties. Errors out on oversized
    instances."""
    cands = oracle_candidates(task, own=True)
    if len(cands) > max_candidates:
        raise ValueError(
            f"instance too large: {len(cands)} candidates exceeds {max_candidates}")
    groups: dict[tuple[bool, int], int] = {}  # (is_ad, penalty) -> example bitmask
    for k, ex in enumerate(example_rows(task.examples)):
        groups[ex.is_ad, ex.penalty] = groups.get((ex.is_ad, ex.penalty), 0) | (1 << k)

    def total(atoms: int, union: int) -> int:
        # an AD example pays its penalty when no rule fires, a CN example when one does
        return atoms + sum(pen * ((mask & ~union) if is_ad else (mask & union)).bit_count()
                           for (is_ad, pen), mask in groups.items())

    best_key = (total(0, 0), 0, ())
    best = ()
    for m in range(1, max_rules + 1):
        for combo in combinations(cands, m):
            union = 0
            atoms = 0
            for c in combo:
                union |= c.fires
                atoms += c.rule.atom_count
            t = total(atoms, union)
            if t > best_key[0]:
                continue
            key = (t, atoms, tuple(sorted(c.rule.sort_key for c in combo)))
            if key < best_key:
                best_key = key
                best = combo
    hypothesis = Hypothesis(tuple(c.rule for c in best))
    return LearnResult(hypothesis, score(hypothesis, task), True)


def min_ad_over(table, mask: int) -> int:
    """The least AD penalty of a penalty table's groups within mask, 0 when
    mask holds no AD example with a penalty."""
    for p, m in table.ad_groups:  # ascending penalty: the first hit is the least
        if mask & m:
            return p
    return 0


def oracle_learn(task, budget: int = DEFAULT_NODE_BUDGET) -> LearnResult:
    """learn as it was before its search ran over cover records: every node
    recomputes the CN penalty of its union through the penalty table, and
    every child reads the candidate's atoms, floor and fire-set from
    parallel lists, with the floors recomputed from the rules. It shares
    learn's pre-search (enumerate_candidates) and its penalty table, its
    greedy, its root commit of the AD examples no body fires on and its
    child test, which compares (bound, atoms) with the incumbent's (total,
    atoms), so the two must agree on every LearnResult field, node count
    included. It branches on the AD examples oracle_net_penalties leaves
    with a penalty and commits that penalty. It builds a rule for every
    candidate and scans each cover list whole."""
    examples = example_rows(task.examples)
    net = oracle_net_penalties(task)
    found = enumerate_candidates(task)
    walk, table, fire_sets = found.walk, found.table, found.fire_sets
    cands = [Candidate(Rule(walk.body(r)), fires) for r, fires in zip(found.rows, fire_sets)]
    atoms_of = [c.rule.atom_count for c in cands]
    cn_solo = [table.cn_over(c.fires) for c in cands]
    floor_of = [atoms + cn for atoms, cn in zip(atoms_of, cn_solo)]

    ad_positions = [k for k, ex in enumerate(examples) if ex.is_ad and net[k]]
    cover_list: dict[int, list[int]] = {k: [] for k in ad_positions}
    for ci in sorted(range(len(cands)), key=lambda ci: (floor_of[ci], ci)):
        hits = cands[ci].fires & table.ad_mask
        while hits:
            low = hits & -hits
            cover_list[low.bit_length() - 1].append(ci)
            hits ^= low
    # the AD examples no body fires on, whichever candidates the cut keeps
    unreached = table.ad_mask & ~walk.reach

    # incumbents: empty hypothesis, then greedy. Candidates are in canonical
    # rule order, so sorted index tuples compare like sorted rule lists.
    best_rules: list[int] = []
    best_total = table.total(0, 0)
    best_key = (0, ())
    g_rules, g_union, g_atoms = _greedy(fire_sets, atoms_of, table)
    g_total = table.total(g_atoms, g_union)
    g_key = (g_atoms, tuple(sorted(g_rules)))
    if (g_total, g_key) < (best_total, best_key):
        best_rules, best_total, best_key = g_rules, g_total, g_key

    def children(k: int, chosen: tuple[int, ...], union: int, atoms: int,
                 committed_pen: int, committed: int):
        # the branches on AD example ad_positions[k]. Committed examples are
        # permanently uncovered: any candidate whose fire-set touches one is
        # banned, which keeps committed_pen a true lower bound for the whole
        # subtree
        e = ad_positions[k]
        cn_union = table.cn_over(union)
        base = atoms + committed_pen

        for ci in cover_list[e]:
            if base + floor_of[ci] > best_total:
                break  # sorted by floor: nothing later can fit either
            if base + atoms_of[ci] + max(cn_union, cn_solo[ci]) > best_total:
                continue
            fires = cands[ci].fires
            if fires & committed:
                continue
            atoms2 = atoms + atoms_of[ci]
            union2 = union | fires
            b = atoms2 + committed_pen + table.cn_over(union2)
            remaining = table.ad_mask & ~union2 & ~committed
            if remaining:
                b += min(3, min_ad_over(table, remaining))
            if (b, atoms2) <= (best_total, best_key[0]):
                yield k, chosen + (ci,), union2, atoms2, committed_pen, committed
        # no chosen rule covers this example: commit its penalty
        committed2 = committed | (1 << e)
        committed_pen2 = committed_pen + net[e]
        b = atoms + committed_pen2 + cn_union
        remaining = table.ad_mask & ~union & ~committed2
        if remaining:
            b += min(3, min_ad_over(table, remaining))
        if (b, atoms) <= (best_total, best_key[0]):
            yield k + 1, chosen, union, atoms, committed_pen2, committed2

    nodes = 0
    optimal = True
    stack = [iter([(0, (), 0, 0, table.ad_over(unreached), unreached)])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        nodes += 1
        if nodes > budget:
            optimal = False
            break
        k, chosen, union, atoms, committed_pen, committed = node
        while k < len(ad_positions):
            bit = 1 << ad_positions[k]
            if not (union & bit) and not (committed & bit):
                break
            k += 1
        if k < len(ad_positions):
            stack.append(children(k, chosen, union, atoms, committed_pen, committed))
            continue
        total = table.total(atoms, union)
        key = (atoms, tuple(sorted(chosen)))
        if (total, key) < (best_total, best_key):
            best_rules, best_total, best_key = list(chosen), total, key

    hypothesis = Hypothesis(tuple(cands[ci].rule for ci in best_rules))
    return LearnResult(hypothesis, score(hypothesis, task), optimal, nodes,
                       len(walk.fires), found.filtered, len(cands))


def snap_rule_to_domain(rule: Rule, task) -> Rule:
    """Equivalent rule with all thresholds drawn from the space's threshold
    domain: each literal's satisfied set is unchanged."""
    space = task.space
    new_body = []
    for lit in rule.body:
        domain = space.threshold_domain.get(lit.edge, ())
        if not domain:
            raise ValueError(f"edge ({lit.edge.i}, {lit.edge.j}) has an empty domain")
        observed = [v for ex in example_rows(task.examples)
                    if (v := ex.context.get(lit.edge)) is not None]
        lo, hi = domain[0], domain[-1]
        t = lit.threshold
        if lit.comparator in (">=", ">"):
            sat = sorted(v for v in observed if holds(lit, v))
            t = min(sat) if sat else hi  # >= hi and > hi are both empty
            comp = ">=" if sat else lit.comparator
        else:
            sat = sorted(v for v in observed if holds(lit, v))
            t = max(sat) if sat else lo  # < lo and <= lo are both empty
            comp = "<=" if sat else lit.comparator
        new_body.append(BodyLiteral(lit.edge, comp, t))
    return Rule(tuple(new_body))
