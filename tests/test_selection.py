import json
import re

import numpy as np
import pytest

from connrules.cohort import edge, generate_synthetic
from connrules.crossval import config_from_obj
from connrules.selection import (
    InstanceExplanation,
    SelectedEdges,
    SelectorConfig,
    aggregate_frequency,
    load_explanations,
    select_global,
)
from connrules.tree import ImportanceRanking


E1, E2, E3 = edge(0, 1), edge(0, 2), edge(0, 3)


class TestSelectGlobal:
    def test_top_k(self):
        ranking = ImportanceRanking({E1: 0.6, E2: 0.3, E3: 0.1}, "dt")
        assert select_global(ranking, 2).edges == (E1, E2)

    def test_k_equals_feature_count(self):
        ranking = ImportanceRanking({E2: 0.3, E1: 0.6, E3: 0.1}, "dt")
        assert select_global(ranking, 3).edges == (E1, E2, E3)

    def test_tie_breaks_to_lower_edge(self):
        ranking = ImportanceRanking({E1: 0.4, E3: 0.3, E2: 0.3}, "rf")
        selected = select_global(ranking, 2)
        assert selected.edges == (E1, E2)
        assert selected.provenance == "rf"

    def test_k_too_large(self):
        ranking = ImportanceRanking({E1: 1.0}, "dt")
        with pytest.raises(ValueError, match="exceeds feature count"):
            select_global(ranking, 2)

    def test_nested_selections(self):
        rng = np.random.default_rng(0)
        edges = [edge(i, j) for i in range(5) for j in range(i + 1, 6)]
        scores = {e: float(rng.random()) for e in edges}
        ranking = ImportanceRanking(scores, "dt")
        prev = set()
        for k in range(1, len(edges) + 1):
            cur = set(select_global(ranking, k).edges)
            assert prev <= cur
            prev = cur

    def test_permutation_invariant(self):
        items = [(E3, 0.2), (E1, 0.5), (E2, 0.3)]
        a = select_global(ImportanceRanking(dict(items), "dt"), 2)
        b = select_global(ImportanceRanking(dict(reversed(items)), "dt"), 2)
        assert a.edges == b.edges


class TestAggregateFrequency:
    def test_counting(self):
        exps = [
            InstanceExplanation("a", (E1, E2)),
            InstanceExplanation("b", (E1, E3)),
            InstanceExplanation("c", (E1, E2)),
        ]
        assert aggregate_frequency(exps, 2).edges == (E1, E2)

    def test_single_explanation_full_width(self):
        exps = [InstanceExplanation("a", (E3, E1))]
        assert aggregate_frequency(exps, 2).edges == (E1, E3)

    def test_tie_breaks_to_lower_edge(self):
        exps = [
            InstanceExplanation("a", (E1, E2)),
            InstanceExplanation("b", (E1, E3)),
        ]
        assert aggregate_frequency(exps, 2).edges == (E1, E2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty explanation list"):
            aggregate_frequency([], 1)

    def test_k_too_large(self):
        with pytest.raises(ValueError, match="exceeds distinct edge count"):
            aggregate_frequency([InstanceExplanation("a", (E1,))], 2)

    def test_k_below_one_rejected(self):
        for k in (0, -1):
            with pytest.raises(ValueError, match="k_total must be >= 1"):
                aggregate_frequency([InstanceExplanation("a", (E1, E2))], k)

    def test_permutation_invariant(self):
        exps = [
            InstanceExplanation("a", (E1, E2)),
            InstanceExplanation("b", (E2, E3)),
            InstanceExplanation("c", (E2, E1)),
        ]
        assert aggregate_frequency(exps, 2).edges == \
            aggregate_frequency(list(reversed(exps)), 2).edges


def write_explanations(path, records, k_instance=2):
    path.write_text(json.dumps({"k_instance": k_instance, "explanations": records}))
    return path


class TestLoadExplanations:
    def test_valid_file(self, tmp_path):
        p = write_explanations(tmp_path / "e.json", [
            {"subject_id": "a", "edges": [[0, 1], [0, 2]]},
            {"subject_id": "b", "edges": [[0, 1], [2, 3]]},
            {"subject_id": "c", "edges": [[1, 4], [0, 2]]},
        ])
        exps = load_explanations(p)
        assert len(exps) == 3
        assert exps[0].edges == (E1, E2)

    def test_self_edge_rejected(self, tmp_path):
        p = write_explanations(tmp_path / "e.json",
                               [{"subject_id": "a", "edges": [[7, 7], [0, 1]]}])
        with pytest.raises(ValueError, match="self-edge"):
            load_explanations(p)

    def test_out_of_range_rejected(self, tmp_path):
        p = write_explanations(tmp_path / "e.json",
                               [{"subject_id": "a", "edges": [[90, 2], [0, 1]]}])
        with pytest.raises(ValueError, match="out of range"):
            load_explanations(p)

    def test_non_integer_index_rejected(self, tmp_path):
        for bad in ([2.7, 5], ["2", 5], [True, 5]):
            p = write_explanations(tmp_path / "e.json",
                                   [{"subject_id": "a", "edges": [bad, [0, 1]]}])
            with pytest.raises(ValueError, match="region index must be an integer"):
                load_explanations(p)

    def test_duplicate_edge_rejected(self, tmp_path):
        # [3, 0] canonicalizes to (0, 3), duplicating [0, 3]
        p = write_explanations(tmp_path / "e.json",
                               [{"subject_id": "a", "edges": [[0, 3], [3, 0]]}])
        with pytest.raises(ValueError, match="duplicate edge"):
            load_explanations(p)

    def test_wrong_width_rejected(self, tmp_path):
        p = write_explanations(tmp_path / "e.json",
                               [{"subject_id": "a", "edges": [[0, 1]]}])
        with pytest.raises(ValueError, match="expected 2"):
            load_explanations(p)

    def test_unknown_subject_rejected(self, tmp_path):
        cohort = generate_synthetic(0, 1)
        p = write_explanations(tmp_path / "e.json",
                               [{"subject_id": "ghost", "edges": [[0, 1], [0, 2]]}])
        with pytest.raises(ValueError, match="unknown subject"):
            load_explanations(p, cohort)

    def test_k_instance_must_be_int(self, tmp_path):
        for bad in (2.7, True, "2"):
            p = write_explanations(tmp_path / "e.json",
                                   [{"subject_id": "a", "edges": [[0, 1], [0, 2]]}], bad)
            with pytest.raises(ValueError, match=f"k_instance must be int, not {type(bad).__name__}"):
                load_explanations(p)

    def test_missing_key_named(self, tmp_path):
        record = {"subject_id": "a", "edges": [[0, 1], [0, 2]]}
        for key in record:
            p = write_explanations(tmp_path / "e.json",
                                   [{k: v for k, v in record.items() if k != key}])
            with pytest.raises(ValueError, match=f"missing key '{key}'"):
                load_explanations(p)
        for key in ("k_instance", "explanations"):
            p = tmp_path / "e.json"
            p.write_text(json.dumps({k: v for k, v in
                                     {"k_instance": 2, "explanations": [record]}.items()
                                     if k != key}))
            with pytest.raises(ValueError, match=f"missing key '{key}'"):
                load_explanations(p)

    def test_every_error_names_the_file(self, tmp_path):
        cohort = generate_synthetic(0, 1)
        sid = cohort.subjects[0].id
        p = tmp_path / "e.json"
        for records, k_instance in [
                ([{"subject_id": sid, "edges": [[7, 7], [0, 1]]}], 2),
                ([{"subject_id": sid, "edges": [[0, 1]]}], 2),
                ([{"subject_id": sid, "edges": [[0, 3], [3, 0]]}], 2),
                ([{"subject_id": "ghost", "edges": [[0, 1], [0, 2]]}], 2),
                ([{"subject_id": 7, "edges": [[0, 1], [0, 2]]}], 2),
                ([{"subject_id": sid}], 2),
                ([], 2.5),
                ([], 2),
                ([{"subject_id": sid, "edges": []}], 0)]:
            write_explanations(p, records, k_instance)
            with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: "):
                load_explanations(p, cohort)
        p.write_text("{not json")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: "):
            load_explanations(p)


class TestSelectorConfig:
    def test_bad_k(self):
        with pytest.raises(ValueError, match="k_global"):
            SelectorConfig(k_global=0)

    def test_every_k_checked(self):
        for name in ("k_global", "k_total"):
            with pytest.raises(ValueError, match=f"{name} must be >= 1"):
                SelectorConfig(**{name: 0})
        with pytest.raises(ValueError, match="k_total must be >= 1"):
            config_from_obj({"pipeline": "external_explanations",
                             "explanations_path": "e.json", "selector": {"k_total": -1}})


class TestSelectedEdges:
    def test_provenance_must_be_a_word(self):
        assert SelectedEdges((E1,), "rf_2").provenance == "rf_2"
        for bad in ("dt\n#maxv(1).", "dt\n#pos(ad_999@50, {ad}, {cn}, {  }).", "", "d t", 5):
            with pytest.raises(ValueError, match="provenance must be a word"):
                SelectedEdges((E1,), bad)
