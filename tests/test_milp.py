"""learn's score against an exact solver that shares none of its code.

scipy's milp (HiGHS) solves each task as an integer program over the
candidates of oracle_floor_cut at the task's own penalties: every
coverage-distinct rule the class-boundary literals make, cut by the floor
of the own-penalty incumbent, before any netting and before the dominance
prune. So it checks learn's net pre-search (its literals, walk, stop, cut
and prune) and its search together, on tasks past brute force's reach.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_array

from connrules import (
    LearningTask, PlantedEdge, SelectedEdges, TreeParams, apply_mask, build_examples,
    build_space, compute_mask, edge, fit_tree, generate_synthetic, partition_tasks,
    select_global, stratified_folds, stratified_subsample, tree_importance)
from connrules.learner import _greedy, enumerate_candidates, learn
from oracles import Example, oracle_floor_cut, to_examples


def milp_total(task, cands) -> int:
    """The least total, at the task's own penalties, of a hypothesis made of
    some of cands, as HiGHS proves it. One 0/1 variable per candidate, costing
    its atoms, and one [0, 1] variable per example, costing its penalty: an
    AD example's is at least 1 less the chosen candidates firing on it, a
    CN example's at least each chosen candidate firing on it. The chosen
    candidates' total is recomputed exactly and must be the one proven."""
    n, m = len(task.examples), len(cands)
    is_ad = task.examples.is_ad.tolist()
    penalty = task.examples.penalty.tolist()
    rows, cols, values, lower = [], [], [], []
    for k in range(n):
        hits = [ci for ci, c in enumerate(cands) if c.fires >> k & 1]
        if is_ad[k]:  # the example's variable plus the hits' is at least 1
            rows += [len(lower)] * (len(hits) + 1)
            cols += [m + k] + hits
            values += [1] * (len(hits) + 1)
            lower.append(1)
        else:
            for ci in hits:  # the example's variable less the hit's is at least 0
                rows += [len(lower)] * 2
                cols += [m + k, ci]
                values += [1, -1]
                lower.append(0)
    constraints = LinearConstraint(coo_array((values, (rows, cols)), shape=(len(lower), m + n)),
                                   lower, np.inf)
    res = milp([c.rule.atom_count for c in cands] + penalty, constraints=constraints,
               integrality=[1] * m + [0] * n, bounds=Bounds(0, 1),
               options={"mip_rel_gap": 0})
    assert res.success, res.message
    union = atoms = 0
    for c, chosen in zip(cands, res.x[:m]):
        if chosen > 0.5:
            union |= c.fires
            atoms += c.rule.atom_count
    total = atoms + sum(p for k, (ad, p) in enumerate(zip(is_ad, penalty))
                        if ad != bool(union >> k & 1))
    assert abs(res.fun - total) < 1e-6
    return total


def readme_noisy_task(repeat: int, fold: int, task: int) -> LearningTask:
    """One learner task of the README's noisy CV protocol, built as
    crossval.fit_fold builds it."""
    cohort = generate_synthetic(7, 100, [PlantedEdge(edge(2, 5), 2.0, "low")], 0.1)
    sub = stratified_subsample(cohort, 0.9, repeat)
    assignment = stratified_folds(sub, 5, repeat)
    train = sub.subset([s.id for s in sub.subjects if assignment[s.id] != fold])
    features = apply_mask(train, compute_mask(train, 0.30))
    selected = select_global(tree_importance(fit_tree(features, TreeParams())), 3)
    examples = build_examples(features, selected, 1)
    return partition_tasks(examples, build_space(selected, examples, 2), 3, 1,
                           seed=repeat).tasks[task]


class TestMilp:
    def test_readme_noisy_task_past_brute_force(self):
        # repeat 3, fold 0, task 0: 1,103 candidates within the own cut, of
        # thousands in the space, where brute force takes at most 300; the
        # greedy incumbent totals 12, so the search must find the 11 itself
        task = readme_noisy_task(3, 0, 0)
        _, cut = oracle_floor_cut(task, own=True)
        assert len(cut) == 1103
        found = enumerate_candidates(task)
        _, union, atoms = _greedy(found.fire_sets, found.atoms, found.table)
        assert found.table.total(atoms, union) == 12
        res = learn(task)
        assert res.optimal
        assert res.score.total == milp_total(task, cut) == 11

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_tasks_whose_rows_repeat_across_classes(self, data):
        # 16 to 40 examples over two or three edges at strengths 0..3, so
        # most facts rows repeat and many hold both classes, which the net
        # pre-search charges less than the task's own penalties
        edges = sorted(data.draw(st.lists(st.sampled_from([edge(1, 2), edge(3, 4), edge(5, 9)]),
                                          min_size=2, max_size=3, unique=True)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = int(rng.integers(16, 41))
        n_ad = int(rng.integers(1, n))
        examples = [Example(f"x{k:02d}", int(rng.integers(1, 9 if k < n_ad else 4)), k < n_ad,
                            {e: int(rng.integers(0, 4)) for e in edges if rng.random() < 0.9})
                    for k in range(n)]
        record = to_examples(examples, edges)
        task = LearningTask(build_space(SelectedEdges(tuple(edges), "dt"), record,
                                        data.draw(st.integers(1, len(edges)))), record)
        _, cut = oracle_floor_cut(task, own=True)
        res = learn(task)
        assert res.optimal
        assert res.score.total == milp_total(task, cut)
