import gc
import sys
import tracemalloc
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from connrules import learner
from connrules.cli import main
from connrules.cohort import AD, CN, canonical_edges, edge
from connrules.learner import (
    DEFAULT_NODE_BUDGET,
    BodyLiteral,
    Candidate,
    _PRUNE_BLOCK_CELLS,
    _PenaltyTable,
    _edge_literals,
    _first_occurrences,
    _pack,
    _undominated,
    _unpack,
    _walk,
    Hypothesis,
    Rule,
    Score,
    enumerate_candidates,
    fire_vector,
    hypothesis_from_json,
    hypothesis_from_obj,
    hypothesis_to_json,
    hypothesis_to_text,
    learn,
    parse_hypothesis_text,
    parse_rule_text,
    score,
    union_hypotheses,
)
from connrules.selection import SelectedEdges
from connrules.taskgen import COMPARATORS, LearningTask, build_space, serialize_task
from oracles import (
    Example,
    OraclePenaltyTable,
    brute_force_learn,
    covers,
    example_rows,
    oracle_candidates,
    oracle_edge_literals,
    oracle_first_bodies,
    oracle_floor_cut,
    oracle_learn,
    oracle_penalty,
    oracle_stop_size,
    oracle_undominated,
    oracle_walk,
    rule_fires,
    snap_rule_to_domain,
    to_examples,
)

E1, E2, E3 = edge(1, 2), edge(3, 4), edge(5, 9)
EDGE_POOL = [E1, E2, E3]


def make_example(eid, label, context, penalty=1):
    return Example(eid, penalty, label == AD, context)


def make_task(examples, edges, max_body=2):
    record = to_examples(examples, edges)
    space = build_space(SelectedEdges(tuple(edges), "dt"), record, max_body)
    return LearningTask(space, record)


def ad_mask_of(task) -> int:
    return sum(1 << k for k, ex in enumerate(example_rows(task.examples)) if ex.is_ad)


def undominated(fire_sets, ad_mask, n_examples):
    """_undominated on fire-sets given as ints: the ones it keeps, in order."""
    n_words = max(1, -(-n_examples // 64))
    kept = _undominated(_pack((fires ^ ad_mask for fires in fire_sets), n_words))
    return [fire_sets[r] for r in kept.tolist()]


def random_task(rng, max_body=2):
    """Small task within oracle bounds: at most 6 AD examples with penalty
    <= 2, so any optimum is achievable with at most 3 rules."""
    edges = sorted(
        EDGE_POOL[k] for k in rng.choice(3, size=rng.integers(1, 4), replace=False))
    n_ad = int(rng.integers(1, 7))
    n_cn = int(rng.integers(1, 13))
    examples = []
    for k in range(n_ad + n_cn):
        label = AD if k < n_ad else CN
        context = {}
        for e in edges:
            if rng.random() < 0.9:  # occasionally drop an edge from a context
                context[e] = int(rng.integers(0, 6))
        pen = int(rng.integers(1, 3)) if label == AD else int(rng.integers(1, 4))
        examples.append(make_example(f"{label.lower()}_{k:03d}", label, context, pen))
    return make_task(examples, edges, max_body)


def medium_task(rng):
    """10-20 examples of each class over all three edges, penalties 1-3:
    large enough that the search improves on the greedy incumbent."""
    n_ad, n_cn = int(rng.integers(10, 21)), int(rng.integers(10, 21))
    examples = []
    for k in range(n_ad + n_cn):
        label = AD if k < n_ad else CN
        context = {e: int(rng.integers(0, 10)) for e in EDGE_POOL}
        examples.append(make_example(f"{label.lower()}_{k:03d}", label, context,
                                     int(rng.integers(1, 4))))
    return make_task(examples, EDGE_POOL)


def fires_on(rule, edges, *contexts):
    """fire_vector of the rule over one row per context, as a list."""
    rows = [make_example(f"x{k}", AD, c) for k, c in enumerate(contexts)]
    return fire_vector(rule, to_examples(rows, edges)).tolist()


class TestRuleFires:  # fire_vector, one rule over every row
    def test_strict_less(self):
        rule = Rule((BodyLiteral(E1, "<", 100),))
        assert fires_on(rule, [E1], {E1: 85}, {E1: 100}) == [True, False]

    def test_missing_edge_blocks_body(self):
        rule = Rule((BodyLiteral(E1, "<", 100), BodyLiteral(E2, ">=", 50)))
        assert fires_on(rule, [E1, E2], {E1: 85}, {E1: 85, E2: 50}) == [False, True]

    def test_all_comparators(self):
        for comp, strength, expected in [
            (">=", 10, True), (">=", 9, False),
            (">", 10, False), (">", 11, True),
            ("<", 10, False), ("<", 9, True),
            ("<=", 10, True), ("<=", 11, False),
        ]:
            assert fires_on(Rule((BodyLiteral(E1, comp, 10),)), [E1], {E1: strength}) == [expected]

    def test_left_out_fact_satisfies_no_sentinel_threshold(self):
        # 0 is observed, so the domain holds the sentinel -1, the value the
        # facts matrix has for a left-out fact: no literal may hold on it
        examples = [make_example("ad_000", AD, {E1: 0}), make_example("cn_000", CN, {})]
        assert make_task(examples, [E1]).space.threshold_domain[E1] == (-1, 0, 1)
        for comp, expected in [(">=", [True, False]), (">", [True, False]),
                               ("<", [False, False]), ("<=", [False, False])]:
            rule = Rule((BodyLiteral(E1, comp, -1),))
            assert fires_on(rule, [E1], {E1: 0}, {}) == expected


class TestCovers:  # through score
    def test_empty_hypothesis(self):
        # the AD example is uncovered, the CN example covered
        task = make_task([make_example("ad_000", AD, {E1: 5}, penalty=2),
                          make_example("cn_000", CN, {E1: 5}, penalty=3)], [E1])
        assert score(Hypothesis(()), task) == Score(0, 2)

    def test_firing_rule(self):
        # fires on ad_000 (covered) and cn_000 (uncovered), not on cn_001 (covered)
        task = make_task([make_example("ad_000", AD, {E1: 85}, penalty=2),
                          make_example("cn_000", CN, {E1: 85}, penalty=3),
                          make_example("cn_001", CN, {E1: 150}, penalty=5)], [E1])
        assert score(Hypothesis((Rule((BodyLiteral(E1, "<=", 85),)),)), task) == Score(3, 3)


class TestScore:
    def make_task_3ad_12cn(self):
        # AD strengths 1..3, CN strengths 10..21
        examples = [make_example(f"ad_{k:03d}", AD, {E1: k + 1}, penalty=4)
                    for k in range(3)]
        examples += [make_example(f"cn_{k:03d}", CN, {E1: 10 + k}, penalty=1)
                     for k in range(12)]
        return make_task(examples, [E1])

    def test_empty_hypothesis(self):
        task = self.make_task_3ad_12cn()
        s = score(Hypothesis(()), task)
        assert (s.length, s.penalty_sum, s.total) == (0, 12, 12)

    def test_perfect_single_rule(self):
        task = self.make_task_3ad_12cn()
        s = score(Hypothesis((Rule((BodyLiteral(E1, "<=", 3),)),)), task)
        assert (s.length, s.penalty_sum, s.total) == (3, 0, 3)

    def test_rule_firing_everywhere(self):
        task = self.make_task_3ad_12cn()
        s = score(Hypothesis((Rule((BodyLiteral(E1, ">=", 1),)),)), task)
        assert (s.length, s.penalty_sum, s.total) == (3, 12, 15)

    def test_rule_outside_space_rejected(self):
        task = self.make_task_3ad_12cn()
        with pytest.raises(ValueError, match="outside the space"):
            score(Hypothesis((Rule((BodyLiteral(E1, "<", 999),)),)), task)
        with pytest.raises(ValueError, match="outside the space"):
            score(Hypothesis((Rule((BodyLiteral(E3, "<", 3),)),)), task)


class TestCandidates:
    def test_fires_agree_with_rule_fires(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            task = random_task(rng)
            for cand in enumerate_candidates(task):
                expected = 0
                for k, ex in enumerate(example_rows(task.examples)):
                    if rule_fires(cand.rule, ex.context):
                        expected |= 1 << k
                assert cand.fires == expected

    def test_signatures_unique_and_ad_hitting(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            task = random_task(rng)
            ad_mask = ad_mask_of(task)
            seen = set()
            for cand in enumerate_candidates(task):
                assert cand.fires & ad_mask
                assert cand.fires not in seen
                seen.add(cand.fires)

    def test_matches_exhaustive_oracle(self):
        # same rules, fire-sets and order as the collision-comparing oracle
        rng = np.random.default_rng(9)
        for max_body in (1, 2, 3):
            for _ in range(200):
                task = random_task(rng, max_body)
                assert enumerate_candidates(task) == oracle_candidates(task)

    def test_first_bodies_in_atom_count_then_key_order(self):
        # _undominated takes this insertion order as the dominance order
        rng = np.random.default_rng(12)
        for max_body in (1, 2, 3):
            for _ in range(200):
                task = random_task(rng, max_body)
                ordered = sorted(enumerate_candidates(task),
                                 key=lambda c: (c.rule.atom_count, c.rule.sort_key))
                assert list(oracle_first_bodies(task)) == [c.fires for c in ordered]

    def test_every_space_rule_dominated_by_a_candidate(self):
        # brute-check tiny tasks: every single-literal rule has a candidate
        # with identical or superset-AD / subset-CN coverage at <= atoms
        rng = np.random.default_rng(2)
        for _ in range(10):
            task = random_task(rng, max_body=1)
            cands = enumerate_candidates(task)
            ad_mask = ad_mask_of(task)
            for e in task.space.edges.edges:
                for comp in COMPARATORS:
                    for t in task.space.threshold_domain[e]:
                        rule = Rule((BodyLiteral(e, comp, t),))
                        fires = sum(1 << k for k, ex in enumerate(example_rows(task.examples))
                                    if rule_fires(rule, ex.context))
                        if fires & ad_mask == 0:
                            continue  # useless rule, rightly dropped
                        assert any(
                            (c.fires & ad_mask) | (fires & ad_mask) == (c.fires & ad_mask)
                            and (c.fires & ~ad_mask) & ~(fires & ~ad_mask) == 0
                            for c in cands
                        )


class TestDominance:
    def test_matches_all_pairs_oracle(self):
        # small tasks of every body size, then wide ones: 130 examples span
        # three uint64 words, and over 1,000 survivors span many sweep blocks
        rng = np.random.default_rng(10)
        tasks = [random_task(rng, max_body) for max_body in (1, 2, 3) for _ in range(200)]
        for _ in range(3):
            examples = [make_example(f"s{k:03d}", AD if k < 50 else CN,
                                     {e: int(rng.integers(0, 12)) for e in EDGE_POOL})
                        for k in range(130)]
            tasks.append(make_task(examples, EDGE_POOL))
        for task in tasks:
            bodies = oracle_first_bodies(task)
            ad_mask = ad_mask_of(task)
            kept = [Candidate(Rule(bodies[fires]), fires)
                    for fires in undominated(list(bodies), ad_mask, len(task.examples))]
            assert (sorted(kept, key=lambda c: c.rule.sort_key)
                    == oracle_undominated(task, enumerate_candidates(task)))

    def test_order_condition_across_popcount_levels(self):
        # AD examples 0 and 1, CN examples 2 and 3; h = fires ^ ad_mask.
        # 0b0011 has h = 0, a strict subset of every other h, but it comes
        # after 0b0111, which it must not drop; it does drop 0b1011, which
        # comes after it. The last four all have popcount(h) == 2 and no
        # earlier subset, so none of them drops another.
        ad_mask = 0b0011
        assert undominated([0b0111, 0b0011, 0b1011], ad_mask, 4) == [0b0111, 0b0011]
        level = [0b0101, 0b1001, 0b0110, 0b1010]
        assert undominated(level, ad_mask, 4) == level
        assert undominated([0b0111] + level, ad_mask, 4) == [0b0111, 0b1001, 0b1010]

    def test_peak_memory_within_cap(self):
        # over 10,000 fire-sets in two uint64 words: the sweep's temporaries
        # (a uint64 and two bool matrices of at most _PRUNE_BLOCK_CELLS cells)
        # come on top of what packing the rows alone takes
        rng = np.random.default_rng(3)
        examples = [make_example(f"s{k:03d}", AD if k < 55 else CN,
                                 {e: int(rng.integers(0, 1000)) for e in EDGE_POOL})
                    for k in range(110)]
        task = make_task(examples, EDGE_POOL)
        fire_sets = list(oracle_first_bodies(task))
        assert len(fire_sets) > 10_000
        ad_mask = (1 << 55) - 1

        tracemalloc.start()
        try:
            packed = np.frombuffer(b"".join((f ^ ad_mask).to_bytes(16, "little")
                                            for f in fire_sets), dtype="<u8")
            packing = tracemalloc.get_traced_memory()[1]
            del packed
            tracemalloc.reset_peak()
            kept = undominated(fire_sets, ad_mask, len(examples))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(kept) > 1_000
        assert peak <= packing + 10 * _PRUNE_BLOCK_CELLS

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_learn_matches_brute_force_on_tie_heavy_tasks(self, data):
        # three strength levels and one penalty, at which a rule pays for
        # itself by covering 2 AD examples: many hypotheses tie on score, so
        # the result rests on the prune keeping the tie-break winner
        edges = sorted(data.draw(st.lists(st.sampled_from(EDGE_POOL), min_size=2,
                                          max_size=3, unique=True)))
        n_ad = data.draw(st.integers(3, 6))
        n_cn = data.draw(st.integers(2, 8))
        strength = st.one_of(st.integers(0, 2), st.none())  # None drops the edge
        examples = []
        for k in range(n_ad + n_cn):
            label = AD if k < n_ad else CN
            values = data.draw(st.lists(strength, min_size=len(edges), max_size=len(edges)))
            context = {e: v for e, v in zip(edges, values) if v is not None}
            examples.append(make_example(f"{label.lower()}_{k:03d}", label, context, 2))
        task = make_task(examples, edges, data.draw(st.integers(2, 3)))
        got = learn(task)
        want = brute_force_learn(task)
        assert got.optimal
        assert got.score == want.score
        assert got.hypothesis == want.hypothesis


def drawn_task(data, max_ad, top):
    """A task with an example count on either side of a uint64 word
    boundary, at most max_ad AD examples, and strengths in 0..top, some
    missing. One task in ten is all CN, and each edge is absent from every
    context one time in ten, so some tasks have no usable edge."""
    n = data.draw(st.sampled_from([3, 63, 64, 65, 128, 129]))
    edges = sorted(data.draw(st.lists(st.sampled_from(EDGE_POOL), min_size=1, max_size=3,
                                      unique=True)))
    max_body = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n_ad = 0 if rng.random() < 0.1 else int(rng.integers(1, min(n, max_ad) + 1))
    present = [e for e in edges if rng.random() < 0.9]
    examples = []
    for k in range(n):
        label = AD if k < n_ad else CN
        context = {e: int(rng.integers(0, top + 1)) for e in present if rng.random() < 0.9}
        # AD penalties up to 60, so that a rule often pays for its CN hits
        penalty = int(rng.integers(1, 61 if label == AD else 4))
        examples.append(make_example(f"{label.lower()}_{k:03d}", label, context, penalty))
    return make_task(examples, edges, max_body)


class TestEdgeLiterals:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_oracle(self, data):
        # the task's own domain, and a drawn part of it
        task = drawn_task(data, max_ad=129, top=data.draw(st.sampled_from([3, 40])))
        examples = task.examples
        ad_mask = ad_mask_of(task)
        cn_mask = ((1 << len(examples)) - 1) ^ ad_mask
        for e in task.space.edges.edges:
            full = task.space.threshold_domain[e]
            keep = data.draw(st.lists(st.booleans(), min_size=len(full), max_size=len(full)))
            for domain in (full, tuple(t for t, k in zip(full, keep) if k)):
                assert (_edge_literals(e, examples.column(e), domain, cn_mask, ad_mask)
                        == oracle_edge_literals(e, example_rows(examples), domain,
                                                cn_mask, ad_mask))


class TestPackedWalk:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_oracle_walk(self, data):
        # every body, its fire-set and its place in the walk, and so the same
        # first bodies in the same order
        task = drawn_task(data, max_ad=129, top=5)
        walk = _walk(task, _PenaltyTable(task.examples), stop=False)
        walked = oracle_walk(task)
        assert [(walk.body(r), fires) for r, fires in enumerate(_unpack(walk.fires))] == walked
        assert walk.size.tolist() == [len(body) for body, _ in walked]
        assert walk.floors.tolist() == [1 + 2 * len(body) + oracle_penalty(task, fires, False)
                                        for body, fires in walked]
        assert walk.incumbent == oracle_floor_cut(task)[0]
        first = _first_occurrences(walk.fires)
        assert ([(fires, walk.body(r)) for r, fires in zip(first, _unpack(walk.fires[first]))]
                == list(oracle_first_bodies(task).items()))
        ad_mask = ad_mask_of(task)
        reached = 0
        for _, fires in walked:
            reached |= fires
        assert walk.reach & ad_mask == reached & ad_mask

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_floor_cut_keeps_the_optimum(self, data):
        # at most two AD examples: the tie-break winner holds no rule whose
        # AD examples the others cover, so it has at most one rule per AD
        # example, and the brute force over pairs finds it
        task = drawn_task(data, max_ad=2, top=2)
        incumbent, cut = oracle_floor_cut(task)
        got = learn(task)
        want = brute_force_learn(task, max_rules=int(task.examples.is_ad.sum()))
        assert got.optimal
        assert got.score == want.score
        assert got.hypothesis == want.hypothesis
        assert got.filtered == len(cut)
        # every rule of the optimum has floor <= the first incumbent's total
        assert set(want.hypothesis.rules) <= {c.rule for c in cut}
        assert got.score.total <= incumbent


class TestWalkStop:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_stops_where_the_oracle_does(self, data):
        # each kind builds a task whose walk stops there: at size 1 (AD
        # penalties summing to at most 2, below any rule's 3 atoms), at size
        # 2 (a first edge below 3 on exactly the AD examples: one literal
        # scores 3, below the 5 atoms of any larger body), or at none (each
        # AD example has a CN twin of the same context and penalty, so no
        # body beats the empty hypothesis, whose total of 7 or more no size
        # up to 3 rules out)
        kind = data.draw(st.sampled_from([1, 2, None]))
        edges = sorted(data.draw(st.lists(st.sampled_from(EDGE_POOL), min_size=1 + (kind == 2),
                                          max_size=3, unique=True)))
        max_body = data.draw(st.integers(1 + (kind == 2), 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

        def draw(count, penalties, first=(0, 6)):
            return [({e: int(rng.integers(*first)) if e == edges[0] else int(rng.integers(0, 6))
                      for e in edges}, int(rng.integers(*penalties)))
                    for _ in range(int(rng.integers(*count)))]

        cn = draw((1, 9), (1, 4))
        if kind == 1:
            ad = draw((1, 3), (1, 2))
        elif kind == 2:
            ad, cn = draw((1, 9), (3, 61), (0, 3)), draw((1, 9), (1, 4), (3, 6))
        else:
            ad = draw((1, 9), (7, 61))
            cn += ad
        examples = [make_example(f"{label.lower()}_{k:03d}", label, context, penalty)
                    for label, group in ((AD, ad), (CN, cn))
                    for k, (context, penalty) in enumerate(group)]
        task = make_task(examples, edges, max_body)
        assert oracle_stop_size(task) == kind

        # the stopped walk is the start of the full one, with the same incumbent
        table = _PenaltyTable(task.examples)
        walk, full = _walk(task, table), _walk(task, table, stop=False)
        n = len(walk.fires)
        assert n == sum(kind is None or len(body) < kind for body, _ in oracle_walk(task))
        assert _unpack(walk.fires) == _unpack(full.fires[:n])
        assert walk.floors.tolist() == full.floors[:n].tolist()
        assert walk.incumbent == full.incumbent
        # and learn differs from a learn over the full walk only in its bodies
        res = learn(task)
        with mock.patch.object(learner, "_walk", partial(_walk, stop=False)):
            uncut = learn(task)
        assert (res.bodies, uncut.bodies) == (n, len(full.fires))
        assert res == replace(uncut, bodies=n)


class TestCoverRecordSearch:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_oracle_learn(self, data):
        # every LearnResult field, node count included, against the search that
        # recomputes its penalty sums at every node: up to 60 AD and 3 CN
        # penalty levels, and budgets that stop the search at once, early, or
        # not at all. At the default budget only searches that end within
        # 10,000 nodes are run, which keeps the two solves under a second
        task = drawn_task(data, max_ad=129, top=5)
        budget = data.draw(st.sampled_from([1, 2, 5, 50, DEFAULT_NODE_BUDGET]))
        if budget == DEFAULT_NODE_BUDGET:
            assume(learn(task, 10_000).optimal)
        assert learn(task, budget) == oracle_learn(task, budget)


class TestPenaltyTable:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_sums_match_per_example_sums(self, data):
        # three to five penalty levels per class, each used at least once, in
        # a shuffled example order: min_ad_over's first hit must be the least
        examples = []
        for label in (AD, CN):
            levels = data.draw(st.lists(st.integers(1, 20), min_size=3, max_size=5,
                                        unique=True))
            extra = data.draw(st.lists(st.sampled_from(levels), max_size=8))
            examples += [(label == AD, p) for p in levels + extra]
        examples = [make_example(f"x{k}", AD if is_ad else CN, {}, p)
                    for k, (is_ad, p) in enumerate(data.draw(st.permutations(examples)))]
        # learn's table, plus min_ad_over
        table = OraclePenaltyTable(to_examples(examples, []))
        mask = data.draw(st.integers(0, (1 << len(examples)) - 1))
        atoms = data.draw(st.integers(0, 30))
        inside = [ex for k, ex in enumerate(examples) if mask >> k & 1]
        outside = [ex for k, ex in enumerate(examples) if not mask >> k & 1]
        assert table.ad_over(mask) == sum(ex.penalty for ex in inside if ex.is_ad)
        assert table.cn_over(mask) == sum(ex.penalty for ex in inside if not ex.is_ad)
        assert table.min_ad_over(mask) == min(
            (ex.penalty for ex in inside if ex.is_ad), default=0)
        assert table.total(atoms, mask) == atoms + sum(
            ex.penalty for ex in outside if ex.is_ad) + sum(
            ex.penalty for ex in inside if not ex.is_ad)


class TestSnapToDomain:
    def test_identical_coverage(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            task = random_task(rng)
            edges = task.space.edges.edges
            for _ in range(10):
                body = []
                for e in sorted(rng.choice(len(edges),
                                           size=rng.integers(1, min(2, len(edges)) + 1),
                                           replace=False)):
                    comp = COMPARATORS[rng.integers(0, 4)]
                    thr = int(rng.integers(-5, 12))
                    body.append(BodyLiteral(edges[e], comp, thr))
                rule = Rule(tuple(body))
                snapped = snap_rule_to_domain(rule, task)
                for lit in snapped.body:
                    assert lit.threshold in task.space.threshold_domain[lit.edge]
                for ex in example_rows(task.examples):
                    assert rule_fires(rule, ex.context) == rule_fires(snapped, ex.context)


class TestBruteForce:
    def test_empty_space(self):
        examples = [make_example("ad_000", AD, {}), make_example("cn_000", CN, {})]
        task = make_task(examples, [E1])
        res = brute_force_learn(task)
        assert res.hypothesis == Hypothesis(())

    def test_single_candidate_picked_iff_it_helps(self):
        # helping case: covering the AD example saves 4 > 3 atoms
        examples = [make_example("ad_000", AD, {E1: 1}, penalty=4),
                    make_example("cn_000", CN, {E1: 9}, penalty=4)]
        res = brute_force_learn(make_task(examples, [E1]))
        assert len(res.hypothesis) == 1
        # not helping: penalty 1 < 3 atoms
        examples = [make_example("ad_000", AD, {E1: 1}, penalty=1),
                    make_example("cn_000", CN, {E1: 9}, penalty=1)]
        res = brute_force_learn(make_task(examples, [E1]))
        assert res.hypothesis == Hypothesis(())

    def test_instance_too_large(self):
        rng = np.random.default_rng(4)
        task = random_task(rng)
        with pytest.raises(ValueError, match="instance too large"):
            brute_force_learn(task, max_candidates=0)


class TestLearn:
    def test_matches_brute_force_on_random_tasks(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            task = random_task(rng)
            got = learn(task)
            want = brute_force_learn(task)
            assert got.optimal
            assert got.score.total == want.score.total
            assert got.hypothesis == want.hypothesis

    def test_reports_candidate_counts(self):
        # each stage recomputed by the oracles: every body the walk reaches
        # (those below its stop size), the distinct fire-sets within the
        # floor cut, the undominated ones
        rng = np.random.default_rng(11)
        for _ in range(10):
            task = random_task(rng)
            _, cut = oracle_floor_cut(task)
            stop = oracle_stop_size(task)
            res = learn(task)
            assert res.bodies == sum(stop is None or len(body) < stop
                                     for body, _ in oracle_walk(task))
            assert res.filtered == len(cut)
            assert res.undominated == len(oracle_undominated(task, cut))

    def test_planted_single_edge_task(self):
        # AD iff strength on E1 below 40; noise-free
        examples = [make_example(f"ad_{k:03d}", AD, {E1: 10 + k}) for k in range(6)]
        examples += [make_example(f"cn_{k:03d}", CN, {E1: 50 + k}) for k in range(6)]
        task = make_task(examples, [E1])
        res = learn(task)
        assert res.optimal
        assert res.score.penalty_sum == 0
        assert len(res.hypothesis) == 1
        (rule,) = res.hypothesis.rules
        assert rule.body[0].edge == E1
        assert rule.body[0].comparator in ("<", "<=")
        assert brute_force_learn(task).score.total == res.score.total

    def test_outlier_ad_left_uncovered(self):
        examples = [make_example(f"ad_{k:03d}", AD, {E1: 10}, penalty=2) for k in range(4)]
        outlier = make_example("ad_outlier", AD, {E1: 99}, penalty=1)
        examples.append(outlier)
        examples += [make_example(f"cn_{k:03d}", CN, {E1: 50}, penalty=2) for k in range(2)]
        task = make_task(examples, [E1])
        res = learn(task)
        assert res.optimal
        assert res.score.total == brute_force_learn(task).score.total
        assert not covers(res.hypothesis, outlier)
        assert all(covers(res.hypothesis, ex) for ex in examples[:4])

    def test_all_cn_task(self):
        examples = [make_example(f"cn_{k:03d}", CN, {E1: k + 1}) for k in range(5)]
        task = make_task(examples, [E1])
        res = learn(task)
        assert res.hypothesis == Hypothesis(())
        assert res.score.total == 0

    def test_never_worse_than_greedy_never_better_than_brute(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            task = random_task(rng)
            res = learn(task)
            assert res.score.total <= score(Hypothesis(()), task).total
            assert res.score.total >= brute_force_learn(task).score.total

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        task = random_task(rng)
        a = learn(task)
        b = learn(task)
        assert hypothesis_to_text(a.hypothesis) == hypothesis_to_text(b.hypothesis)

    def test_budget_exceeded_flags_nonoptimal(self):
        examples = [make_example(f"ad_{k:03d}", AD, {E1: k, E2: k % 3}, penalty=2)
                    for k in range(6)]
        examples += [make_example(f"cn_{k:03d}", CN, {E1: k + 2, E2: (k + 1) % 3}, penalty=2)
                     for k in range(6)]
        task = make_task(examples, [E1, E2])
        res = learn(task, budget=1)
        assert not res.optimal
        # the incumbent is still a valid scored hypothesis
        assert res.score.total >= brute_force_learn(task).score.total
        assert score(res.hypothesis, task).total == res.score.total


    def test_budget_below_1_rejected(self):
        # a budget of 0 would still expand the root and report optimal=False
        task = random_task(np.random.default_rng(5))
        for budget in (0, -5):
            with pytest.raises(ValueError, match=f"node budget must be >= 1, got {budget}"):
                learn(task, budget=budget)


class TestVisitingOrder:
    # node counts recorded from the recursive search that the explicit stack
    # replaced: brute-force equality cannot see a reordered search, and
    # testing a node's children against the incumbent all at once, before
    # the elder siblings' subtrees can improve it, expands more nodes
    def test_random_tasks(self):
        rng = np.random.default_rng(21)
        assert [learn(random_task(rng)).nodes_expanded
                for _ in range(8)] == [4, 5, 3, 11, 9, 3, 9, 8]

    def test_medium_tasks(self):
        assert [learn(medium_task(np.random.default_rng(seed))).nodes_expanded
                for seed in (18, 19)] == [276, 1738]

    def test_budget_exhausted(self):
        res = learn(medium_task(np.random.default_rng(19)), budget=1)
        assert (res.nodes_expanded, res.optimal, res.score.total) == (2, False, 21)


class TestDeepTask:
    # more AD examples than the interpreter's recursion limit must not
    # matter, and the bare ones, which no rule can cover, are committed at
    # the root instead of costing a node each
    @staticmethod
    def deep_task():
        n_bare = sys.getrecursionlimit() + 100
        examples = [make_example(f"ad_{k:04d}", AD, {}) for k in range(n_bare)]
        examples += [make_example(f"ad_low{k}", AD, {E1: k}, penalty=2) for k in range(3)]
        examples += [make_example(f"cn_{k}", CN, {E1: 10 + k}) for k in range(5)]
        return make_task(examples, [E1]), n_bare

    def test_learn_is_optimal(self):
        task, n_bare = self.deep_task()
        res = learn(task)
        assert res.optimal
        assert res.nodes_expanded <= 3
        # the bare AD examples stay uncovered; one rule covers the rest
        assert res.score == Score(3, n_bare)
        assert all(covers(res.hypothesis, ex) for ex in example_rows(task.examples)[n_bare:])

    def test_cli_learn_exits_0(self, tmp_path, capsys):
        task, _ = self.deep_task()
        path = serialize_task(task, tmp_path / "deep.las")
        assert main(["learn", "--task", str(path), "--out", str(tmp_path / "h.json")]) == 0
        assert "optimal=True" in capsys.readouterr().out


class TestNoReferenceCycles:
    # learn's search stack and its generator frames must not keep a task's
    # candidates alive until the cycle collector runs
    @staticmethod
    def garbage_after_learn(task, **kwargs) -> int:
        gc.collect()
        gc.disable()
        try:
            learn(task, **kwargs)
            return gc.collect()
        finally:
            gc.enable()

    def test_random_task(self):
        task = random_task(np.random.default_rng(13))
        assert self.garbage_after_learn(task) == 0

    def test_budget_exhausted(self):
        # search stops with generators still suspended on its stack
        examples = [make_example(f"ad_{k:03d}", AD, {E1: k, E2: k % 3}, penalty=2)
                    for k in range(6)]
        examples += [make_example(f"cn_{k:03d}", CN, {E1: k + 2, E2: (k + 1) % 3}, penalty=2)
                     for k in range(6)]
        task = make_task(examples, [E1, E2])
        assert not learn(task, budget=1).optimal
        assert self.garbage_after_learn(task, budget=1) == 0


class TestMonotonicity:
    def test_ad_coverage_monotone_cn_antitone(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            task = random_task(rng)
            cands = enumerate_candidates(task)
            if len(cands) < 2:
                continue
            picks = rng.choice(len(cands), size=2, replace=False)
            h_small = Hypothesis((cands[picks[0]].rule,))
            h_big = Hypothesis((cands[picks[0]].rule, cands[picks[1]].rule))
            for ex in example_rows(task.examples):
                if ex.is_ad:
                    if covers(h_small, ex):
                        assert covers(h_big, ex)
                else:
                    if covers(h_big, ex):
                        assert covers(h_small, ex)


class TestUnion:
    def test_dedup(self):
        r1 = Rule((BodyLiteral(E1, "<", 10),))
        r2 = Rule((BodyLiteral(E2, ">=", 5),))
        out = union_hypotheses([Hypothesis((r1,)), Hypothesis((r1, r2))])
        assert out.rules == Hypothesis((r1, r2)).rules

    def test_all_empty(self):
        assert union_hypotheses([Hypothesis(()), Hypothesis(())]) == Hypothesis(())

    def test_disjoint_sets_sorted(self):
        r1 = Rule((BodyLiteral(E1, "<", 10),))
        r2 = Rule((BodyLiteral(E2, ">=", 5),))
        out = union_hypotheses([Hypothesis((r2,)), Hypothesis((r1,))])
        assert out.rules == (r1, r2)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="no hypotheses"):
            union_hypotheses([])


class TestHypothesisIO:
    def test_text_round_trip(self):
        hyp = Hypothesis((
            Rule((BodyLiteral(E1, "<", 2200),)),
            Rule((BodyLiteral(E2, ">=", 50), BodyLiteral(E3, "<=", 7))),
        ))
        text = hypothesis_to_text(hyp)
        assert "ad :- connection(region(1), region(2), V0), V0 < 2200." in text
        assert parse_hypothesis_text(text) == hyp

    def test_empty_round_trip(self):
        assert parse_hypothesis_text(hypothesis_to_text(Hypothesis(()))) == Hypothesis(())

    def test_json_round_trip(self):
        hyp = Hypothesis((Rule((BodyLiteral(E1, ">", 3), BodyLiteral(E2, "<", 9))),))
        assert hypothesis_from_json(hypothesis_to_json(hyp)) == hyp

    def test_json_missing_key_or_wrong_type_rejected(self):
        literal = {"edge": [1, 2], "comparator": ">", "threshold": 3}
        assert hypothesis_from_obj({"rules": [{"body": [literal]}]}) == Hypothesis(
            (Rule((BodyLiteral(E1, ">", 3),)),))
        for key, obj in [("rules", {}), ("body", {"rules": [{}]})] + [
                (key, {"rules": [{"body": [{k: v for k, v in literal.items() if k != key}]}]})
                for key in literal]:
            with pytest.raises(ValueError, match=f"missing key '{key}'"):
                hypothesis_from_obj(obj)
        for key, bad, message in [
                ("threshold", "3", "threshold must be int, not str"),
                ("threshold", True, "threshold must be int, not bool"),
                ("threshold", 3.0, "threshold must be int, not float"),
                ("comparator", 1, "comparator must be str, not int"),
                ("edge", 12, "edge must be a pair \\[i, j\\], not 12"),
                ("edge", [1, 2, 3], "edge must be a pair \\[i, j\\], not \\[1, 2, 3\\]"),
                ("edge", ["1", 2], "region index must be an integer, not '1'")]:
            with pytest.raises(ValueError, match=message):
                hypothesis_from_obj({"rules": [{"body": [{**literal, key: bad}]}]})
        with pytest.raises(ValueError, match="rules must be list, not dict"):
            hypothesis_from_obj({"rules": {}})

    def test_unknown_body_literal_rejected(self):
        line = "ad :- connection(region(1), region(2), V0), V0 < 1800, bogus(7)."
        with pytest.raises(ValueError, match="unrecognised body literal"):
            parse_rule_text(line)

    def test_second_comparison_on_a_variable_rejected(self):
        line = "ad :- connection(region(1), region(2), V0), V0 < 1800, V0 > 10."
        with pytest.raises(ValueError, match="V0 compared twice"):
            parse_rule_text(line)

    def test_atom_counts(self):
        r1 = Rule((BodyLiteral(E1, "<", 10),))
        r2 = Rule((BodyLiteral(E2, ">=", 5), BodyLiteral(E3, "<", 9)))
        assert r1.atom_count == 3
        assert r2.atom_count == 5
        assert Hypothesis((r1, r2)).atom_count == 8


# any hypothesis: up to 5 rules of 1-3 literals on distinct edges
rule_bodies = st.lists(st.sampled_from(canonical_edges()), min_size=1, max_size=3,
                       unique=True).flatmap(lambda edges: st.tuples(*(
                           st.builds(BodyLiteral, st.just(e), st.sampled_from(COMPARATORS),
                                     st.integers(-10**6, 10**9)) for e in edges)))
hypotheses = st.lists(st.builds(Rule, rule_bodies), max_size=5).map(
    lambda rules: Hypothesis(tuple(rules)))


class TestHypothesisProperties:
    @settings(max_examples=100, deadline=None)
    @given(hypotheses, st.booleans())
    def test_text_round_trip(self, hyp, with_note):
        lines = hypothesis_to_text(hyp).splitlines()
        if with_note:  # a rule line may end in a comment
            lines = [l + "  % note" if l.startswith("ad :-") else l for l in lines]
        assert parse_hypothesis_text("\n".join(lines)) == hyp

    @settings(max_examples=100, deadline=None)
    @given(hypotheses)
    def test_json_round_trip(self, hyp):
        back = hypothesis_from_json(hypothesis_to_json(hyp))
        assert back == hyp
        assert back.atom_count == hyp.atom_count


class TestRuleValidation:
    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Rule((BodyLiteral(E1, "<", 5), BodyLiteral(E1, ">", 1)))

    def test_empty_body_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            Rule(())

    def test_body_sorted_canonically(self):
        rule = Rule((BodyLiteral(E2, "<", 5), BodyLiteral(E1, ">", 1)))
        assert rule.body[0].edge == E1
