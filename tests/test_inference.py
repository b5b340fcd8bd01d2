import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connrules.cohort import AD, CN, edge
from connrules.inference import (
    ConfusionCounts,
    evaluate,
    predict,
    predictions_to_csv,
)
from connrules.learner import BodyLiteral, Hypothesis, Rule, score
from connrules.selection import SelectedEdges
from connrules.taskgen import COMPARATORS, Examples, LearningTask, build_space
from oracles import Example, example_rows, oracle_score, rule_fires, to_examples

E1, E2, E3 = edge(1, 2), edge(3, 4), edge(5, 9)

HYP = Hypothesis((Rule((BodyLiteral(E1, "<", 100),)),))


def examples_of(*contexts, labels=None):
    """One record over E1 and E2, a row per context, with ids s1, s2, ..."""
    labels = labels or [AD] * len(contexts)
    return to_examples([Example(f"s{k + 1}", 1, label == AD, c)
                        for k, (label, c) in enumerate(zip(labels, contexts))], (E1, E2))


class TestPredict:
    def test_firing_rule_predicts_ad(self):
        (p,) = predict(HYP, examples_of({E1: 85}))
        assert (p.subject_id, p.label, p.fired_rules) == ("s1", AD, (0,))

    def test_non_firing_predicts_cn(self):
        (p,) = predict(HYP, examples_of({E1: 150}))
        assert (p.label, p.fired_rules) == (CN, ())

    def test_one_prediction_per_row_in_order(self):
        preds = predict(HYP, examples_of({E1: 150}, {E1: 85}, {}))
        assert [(p.subject_id, p.label) for p in preds] == [("s1", CN), ("s2", AD), ("s3", CN)]

    def test_empty_hypothesis_always_cn(self):
        preds = predict(Hypothesis(()), examples_of({E1: 1}, {E1: 999}, {}))
        assert [p.label for p in preds] == [CN] * 3
        # with no rule there are no edges to read: a facts matrix of 0 columns
        no_facts = Examples(("a", "b"), [True, False], [1, 1], np.zeros((2, 0)), ())
        assert [(p.label, p.fired_rules) for p in predict(Hypothesis(()), no_facts)] == [
            (CN, ()), (CN, ())]

    def test_fired_indices_follow_canonical_rule_order(self):
        hyp = Hypothesis((
            Rule((BodyLiteral(E2, ">=", 5),)),
            Rule((BodyLiteral(E1, "<", 100),)),
        ))
        both, one = predict(hyp, examples_of({E1: 5, E2: 9}, {E1: 500, E2: 9}))
        assert both.fired_rules == (0, 1)
        assert [hyp.rules[k].body[0].edge for k in one.fired_rules] == [E2]


def evaluate_on(hyp, items):
    """Metrics of hyp's predictions over (true label, context) pairs."""
    labels = [label for label, _ in items]
    return evaluate(labels, [p.label for p in predict(hyp, examples_of(
        *(ctx for _, ctx in items), labels=labels))])


class TestEvaluate:
    def test_perfect_hypothesis(self):
        items = [(AD, {E1: 10})] * 10 + [(CN, {E1: 200})] * 10
        m = evaluate_on(HYP, items)
        assert m.accuracy == 1.0
        assert m.sensitivity == 1.0 and m.specificity == 1.0

    def test_empty_hypothesis_on_balanced_set(self):
        items = [(AD, {E1: 10})] * 5 + [(CN, {E1: 10})] * 5
        m = evaluate_on(Hypothesis(()), items)
        assert m.accuracy == 0.5
        assert m.sensitivity == 0.0 and m.specificity == 1.0

    def test_confusion_arithmetic(self):
        # 3 FP + 1 FN on 10 + 10 -> accuracy 0.8
        items = [(AD, {E1: 10})] * 9 + [(AD, {E1: 200})]
        items += [(CN, {E1: 10})] * 3 + [(CN, {E1: 200})] * 7
        m = evaluate_on(HYP, items)
        assert m.confusion == ConfusionCounts(tp=9, fn=1, fp=3, tn=7)
        assert m.accuracy == pytest.approx(0.8)
        assert m.confusion.total == 20

    def test_order_invariant(self):
        rng = np.random.default_rng(0)
        items = [(AD if rng.random() < 0.5 else CN, {E1: int(rng.integers(0, 200))})
                 for _ in range(30)]
        a = evaluate_on(HYP, items)
        b = evaluate_on(HYP, list(reversed(items)))
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no labels"):
            evaluate([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="2 true labels but 1 predictions"):
            evaluate([AD, CN], [AD])

    def test_unknown_true_label_rejected(self):
        with pytest.raises(ValueError, match="unknown label 'MCI'"):
            evaluate(["MCI"], [AD])


@st.composite
def scored_tasks(draw):
    """A task over 1-3 edges with a hypothesis of up to 4 rules from its
    space. Strengths are 0-4 or left out; the first edge's least value is
    0, so its domain holds the sentinel -1, and the second example leaves
    that edge out, so the facts matrix holds -1 there."""
    edges = sorted(draw(st.lists(st.sampled_from((E1, E2, E3)), min_size=1, max_size=3,
                                 unique=True)))
    strength = st.one_of(st.none(), st.integers(0, 4))
    examples = []
    for k in range(draw(st.integers(2, 12))):
        context = {e: v for e in edges if (v := draw(strength)) is not None}
        if k == 0:
            context[edges[0]] = 0
        elif k == 1:
            context.pop(edges[0], None)
        examples.append(Example(f"s{k}", draw(st.integers(1, 5)), draw(st.booleans()), context))
    record = to_examples(examples, edges)
    space = build_space(SelectedEdges(tuple(edges), "dt"), record, 3)
    usable = [e for e in edges if space.threshold_domain[e]]
    rules = []
    for _ in range(draw(st.integers(0, 4))):
        body = draw(st.lists(st.sampled_from(usable), min_size=1, max_size=len(usable),
                             unique=True))
        rules.append(Rule(tuple(
            BodyLiteral(e, draw(st.sampled_from(COMPARATORS)),
                        draw(st.sampled_from(space.threshold_domain[e]))) for e in body)))
    return LearningTask(space, record), Hypothesis(tuple(rules))


class TestAgreementWithCovers:
    @settings(max_examples=300, deadline=None)
    @given(scored_tasks())
    def test_predict_matches_coverage_semantics(self, drawn):
        # score and predict over the facts matrix against the per-example oracle
        task, hyp = drawn
        assert score(hyp, task) == oracle_score(hyp, task.examples)
        rows = example_rows(task.examples)
        preds = predict(hyp, task.examples)
        assert [p.subject_id for p in preds] == [ex.id for ex in rows]
        for p, ex in zip(preds, rows):
            fired = tuple(k for k, r in enumerate(hyp.rules) if rule_fires(r, ex.context))
            assert (p.label, p.fired_rules) == (AD if fired else CN, fired)


class TestCsvExport:
    def test_layout(self, tmp_path):
        preds = predict(HYP, examples_of({E1: 85}, {E1: 150}))
        out = predictions_to_csv(preds, [AD, AD], tmp_path / "p.csv")
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "subject_id,true_label,predicted_label,fired_rule_ids"
        assert lines[1] == "s1,AD,AD,0"
        assert lines[2] == "s2,AD,CN,"
