import numpy as np
import pytest

from connrules.cohort import AD, CN, edge
from connrules.inference import (
    ConfusionCounts,
    evaluate,
    predict,
    predictions_to_csv,
)
from connrules.learner import BodyLiteral, Hypothesis, Rule, covers
from connrules.taskgen import Example

E1, E2 = edge(1, 2), edge(3, 4)

HYP = Hypothesis((Rule((BodyLiteral(E1, "<", 100),)),))


class TestPredict:
    def test_firing_rule_predicts_ad(self):
        p = predict(HYP, {E1: 85}, "s1")
        assert p.label == AD
        assert p.fired_rules == (0,)

    def test_non_firing_predicts_cn(self):
        p = predict(HYP, {E1: 150}, "s1")
        assert p.label == CN
        assert p.fired_rules == ()

    def test_empty_hypothesis_always_cn(self):
        for ctx in ({E1: 1}, {E1: 999}, {}):
            assert predict(Hypothesis(()), ctx).label == CN

    def test_fired_indices_follow_canonical_rule_order(self):
        hyp = Hypothesis((
            Rule((BodyLiteral(E2, ">=", 5),)),
            Rule((BodyLiteral(E1, "<", 100),)),
        ))
        p = predict(hyp, {E1: 5, E2: 9})
        assert p.fired_rules == (0, 1)
        p = predict(hyp, {E1: 500, E2: 9})
        assert [hyp.rules[k].body[0].edge for k in p.fired_rules] == [E2]


def evaluate_on(hyp, items):
    """Metrics of hyp's predictions over (true label, context) pairs."""
    return evaluate([label for label, _ in items], [predict(hyp, ctx).label for _, ctx in items])


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


class TestAgreementWithCovers:
    def test_predict_matches_coverage_semantics(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            label = AD if rng.random() < 0.5 else CN
            ctx = {E1: int(rng.integers(0, 200)), E2: int(rng.integers(0, 20))}
            ex = Example("x", 1, label == AD, ctx)
            hyp = Hypothesis((
                Rule((BodyLiteral(E1, "<", 100),)),
                Rule((BodyLiteral(E1, ">=", 150), BodyLiteral(E2, "<=", 10))),
            ))
            predicted_ad = predict(hyp, ctx).label == AD
            if ex.is_ad:
                assert covers(hyp, ex) == predicted_ad
            else:
                assert covers(hyp, ex) == (not predicted_ad)


class TestCsvExport:
    def test_layout(self, tmp_path):
        preds = [predict(HYP, {E1: 85}, "s1"), predict(HYP, {E1: 150}, "s2")]
        out = predictions_to_csv(preds, [AD, AD], tmp_path / "p.csv")
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "subject_id,true_label,predicted_label,fired_rule_ids"
        assert lines[1] == "s1,AD,AD,0"
        assert lines[2] == "s2,AD,CN,"
