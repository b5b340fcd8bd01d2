import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connrules.cohort import (
    AD,
    CN,
    N_EDGES,
    N_REGIONS,
    Cohort,
    EdgeMask,
    Features,
    PlantedEdge,
    Subject,
    apply_mask,
    canonical_edges,
    check_connectome,
    compute_mask,
    default_atlas,
    edge,
    edge_column,
    generate_synthetic,
    load_cohort,
    mask_from_json,
    mask_to_json,
    save_cohort,
)
from oracles import oracle_best_split, oracle_compute_mask


def make_weights(entries=None, fill=0.0):
    w = np.full((N_REGIONS, N_REGIONS), fill)
    np.fill_diagonal(w, 0.0)
    if entries:
        for (i, j), v in entries.items():
            w[i, j] = w[j, i] = v
    return w


def make_cohort(weight_list, labels=None):
    atlas = default_atlas()
    labels = labels or [AD] * len(weight_list)
    subjects = tuple(
        Subject(f"s{k}", check_connectome(w), labels[k], "F", "MfrA")
        for k, w in enumerate(weight_list)
    )
    return Cohort(subjects, atlas)


class TestEdgeId:
    def test_canonicalizes(self):
        assert edge(17, 3) == (3, 17)

    def test_rejects_self_edge(self):
        with pytest.raises(ValueError, match="self-edge"):
            edge(7, 7)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            edge(90, 2)

    def test_rejects_non_integer_indices(self):
        for i in (2.7, 2.0, "2", True, np.bool_(True), None):
            with pytest.raises(ValueError, match="region index must be an integer"):
                edge(i, 5)
            with pytest.raises(ValueError, match="region index must be an integer"):
                edge(5, i)

    def test_accepts_numpy_integers(self):
        assert edge(np.int64(17), np.uint8(3)) == (3, 17)

    def test_total_edge_count(self):
        assert len(canonical_edges()) == N_EDGES == 3486

    def test_canonical_order_is_sorted(self):
        edges = canonical_edges()
        assert edges == sorted(edges)

    def test_column_is_canonical_position(self):
        edges = canonical_edges()
        assert [edge_column(*e) for e in edges] == [edges.index(e) for e in edges]


class TestConnectomeValidation:
    def test_nonzero_diagonal_rejected(self):
        w = make_weights()
        w[3, 3] = 0.5
        with pytest.raises(ValueError, match="nonzero diagonal"):
            check_connectome(w)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="non-square matrix"):
            check_connectome(np.zeros((83, 84)))

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError, match="84x84"):
            check_connectome(np.zeros((83, 83)))

    def test_negative_weight_rejected(self):
        w = make_weights({(0, 1): -0.1})
        with pytest.raises(ValueError, match="negative weight"):
            check_connectome(w)

    def test_small_asymmetry_averaged(self, tmp_path):
        w = make_weights({(0, 1): 1.0})
        w[0, 1] += 4e-10
        out = check_connectome(w)
        assert out.shape == (N_EDGES,) and not out.flags.writeable
        assert out[edge_column(0, 1)] == pytest.approx(1.0 + 2e-10)
        manifest = save_cohort(make_cohort([w]), tmp_path)
        saved = np.loadtxt(manifest.parent / "matrices" / "s0.csv", delimiter=",")
        assert saved[0, 1] == saved[1, 0] == out[edge_column(0, 1)]

    def test_large_asymmetry_rejected(self):
        w = make_weights({(0, 1): 1.0})
        w[0, 1] += 1e-6
        with pytest.raises(ValueError, match="asymmetric"):
            check_connectome(w)

    def test_overflowing_pair_rejected(self):
        # each weight is finite, but w[i, j] + w[j, i] is not
        half = sys.float_info.max / 2
        assert check_connectome(make_weights({(3, 9): half}))[edge_column(3, 9)] == half
        for big in (np.nextafter(half, np.inf), 1e308):
            with pytest.raises(ValueError, match=re.escape(
                    f"weights at (3, 9) and (9, 3) overflow when averaged: {big} + {big}")):
                check_connectome(make_weights({(3, 9): big}))


# strengths a loaded cohort can hold: check_connectome accepts -0.0, which
# savetxt writes as 0 since it formats -0.0 + 0.0
EDGE_STRENGTHS = (0.0, -0.0, 5e-324, 1.5e-310, sys.float_info.min, 1e-300, 1e300,
                  1.0, 2.0, 1800.0, 2.0 ** 53)
strength_values = st.one_of(st.sampled_from(EDGE_STRENGTHS),
                            st.floats(min_value=0.0, max_value=1e300),
                            st.integers(0, 2 ** 53).map(float))


@st.composite
def edge_case_cohorts(draw):
    """1-3 subjects, each filled with one drawn strength and up to 40 other
    cells drawn on top."""
    subjects = []
    for k in range(draw(st.integers(1, 3))):
        strengths = np.full(N_EDGES, draw(strength_values))
        cells = draw(st.dictionaries(st.integers(0, N_EDGES - 1), strength_values,
                                     max_size=40))
        strengths[list(cells)] = list(cells.values())
        subjects.append(Subject(f"s{k}", strengths, AD, "F", "MfrA"))
    return Cohort(tuple(subjects), default_atlas())


class TestSavedBytes:
    @settings(max_examples=60, deadline=None)
    @given(edge_case_cohorts())
    def test_csv_matches_savetxt(self, cohort):
        with tempfile.TemporaryDirectory() as out:
            save_cohort(cohort, out)
            for s in cohort.subjects:
                w = np.zeros((N_REGIONS, N_REGIONS))
                w[np.triu_indices(N_REGIONS, k=1)] = s.strengths
                want = io.BytesIO()
                np.savetxt(want, w + w.T, delimiter=",", fmt="%.17g")
                assert (Path(out) / "matrices" / f"{s.id}.csv").read_bytes() == want.getvalue()

    @settings(max_examples=60, deadline=None)
    @given(edge_case_cohorts())
    def test_load_returns_saved_strengths(self, cohort):
        with tempfile.TemporaryDirectory() as out:
            loaded = load_cohort(save_cohort(cohort, out))
        for a, b in zip(cohort.subjects, loaded.subjects, strict=True):
            np.testing.assert_array_equal(a.strengths, b.strengths)


class TestManifestIO:
    def test_round_trip(self, tmp_path):
        cohort = generate_synthetic(3, 2, [PlantedEdge(edge(2, 5), 2.0, "low")])
        manifest = save_cohort(cohort, tmp_path)
        loaded = load_cohort(manifest)
        assert len(loaded) == 4
        for a, b in zip(cohort.subjects, loaded.subjects):
            assert a.id == b.id
            assert a.diagnosis == b.diagnosis
            np.testing.assert_array_equal(a.strengths, b.strengths)

    def test_mask_columns_match_saved_matrices(self, tmp_path):
        cohort = generate_synthetic(4, 2)
        manifest = save_cohort(cohort, tmp_path)
        rng = np.random.default_rng(0)
        edges = sorted({edge(*rng.choice(N_REGIONS, size=2, replace=False)) for _ in range(50)})
        X = apply_mask(cohort, EdgeMask(edges)).X
        for k, s in enumerate(cohort.subjects):
            saved = np.loadtxt(manifest.parent / "matrices" / f"{s.id}.csv", delimiter=",")
            for c, (i, j) in enumerate(edges):
                assert X[k, c] == saved[i, j] == saved[j, i]

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ValueError, match="missing file"):
            load_cohort(tmp_path / "nope.json")

    def test_missing_matrix_file(self, tmp_path):
        manifest = tmp_path / "cohort.json"
        manifest.write_text(json.dumps({
            "atlas": list(default_atlas().names),
            "subjects": [{"id": "a", "diagnosis": "AD", "sex": "F",
                          "manufacturer": "MfrA", "matrix": "gone.csv"}],
        }))
        with pytest.raises(ValueError, match="missing file"):
            load_cohort(manifest)

    def test_missing_manifest_key_named(self, tmp_path):
        manifest = tmp_path / "cohort.json"
        manifest.write_text(json.dumps({"subjects": []}))
        with pytest.raises(ValueError, match=f"^{re.escape(str(manifest))}: missing key 'atlas'"):
            load_cohort(manifest)

    def test_missing_subject_key_named(self, tmp_path):
        manifest = tmp_path / "cohort.json"
        subjects = [{"id": "a", "diagnosis": "AD", "manufacturer": "MfrA", "matrix": "a.csv"},
                    {"diagnosis": "CN", "sex": "F", "manufacturer": "MfrA"}]
        for rec, missing in [(subjects[0], "'a': missing key 'sex'"),
                             (subjects[1], "at position 0: missing key 'id'")]:
            manifest.write_text(json.dumps(
                {"atlas": list(default_atlas().names), "subjects": [rec]}))
            with pytest.raises(ValueError, match=f"^{re.escape(str(manifest))}: subject {missing}"):
                load_cohort(manifest)

    def test_bad_matrix_shape(self, tmp_path):
        cohort = generate_synthetic(0, 1)
        manifest = save_cohort(cohort, tmp_path)
        mat = tmp_path / "matrices" / "s0000.csv"
        rows = mat.read_text().strip().splitlines()
        mat.write_text("\n".join(rows[:83]) + "\n")
        with pytest.raises(ValueError, match="non-square"):
            load_cohort(manifest)

    def test_duplicate_subject_id(self):
        w = check_connectome(make_weights({(0, 1): 1.0}))
        s = Subject("dup", w, AD, "F", "MfrA")
        with pytest.raises(ValueError, match="duplicate subject id"):
            Cohort((s, Subject("dup", w, CN, "M", "MfrB")), default_atlas())

    def test_full_matrix_rejected_as_strengths(self):
        with pytest.raises(ValueError, match=r"strengths must have shape \(3486,\), got \(84, 84\)"):
            Subject("a", make_weights({(0, 1): 1.0}), AD, "F", "MfrA")


class TestComputeMask:
    def test_keep_all(self):
        cohort = make_cohort([make_weights(fill=1.0)])
        mask = compute_mask(cohort, 1.0)
        assert len(mask) == N_EDGES

    def test_thirty_percent_keeps_1046(self):
        cohort = make_cohort([make_weights(fill=1.0)] * 3)
        mask = compute_mask(cohort, 0.30)
        assert len(mask) == math.ceil(0.30 * N_EDGES) == 1046

    def test_occurrence_ranking(self):
        # three edges with occurrence 1.0 / 0.6 / 0.2 over 5 subjects; two slots
        e_hi, e_mid, e_lo = edge(0, 1), edge(0, 2), edge(0, 3)
        weights = []
        for k in range(5):
            entries = {e_hi: 1.0}
            if k < 3:
                entries[e_mid] = 1.0
            if k < 1:
                entries[e_lo] = 1.0
            weights.append(make_weights(entries))
        cohort = make_cohort(weights)
        mask = compute_mask(cohort, 2 / N_EDGES)
        assert mask.edges == (e_hi, e_mid)

    def test_mean_weight_tie_break(self):
        # both edges occur in every subject; the heavier one wins the last slot
        e_heavy, e_light = edge(4, 9), edge(2, 7)
        cohort = make_cohort([make_weights({e_heavy: 2.0, e_light: 1.0})] * 2)
        mask = compute_mask(cohort, 1 / N_EDGES)
        assert mask.edges == (e_heavy,)

    def test_edge_id_tie_break(self):
        e_a, e_b = edge(1, 2), edge(5, 6)
        cohort = make_cohort([make_weights({e_a: 1.0, e_b: 1.0})])
        mask = compute_mask(cohort, 1 / N_EDGES)
        assert mask.edges == (e_a,)

    def test_zero_occurrence_edges_never_kept(self):
        cohort = make_cohort([make_weights({(0, 1): 1.0})])
        mask = compute_mask(cohort, 1.0)
        assert mask.edges == (edge(0, 1),)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_python_sort_oracle(self, seed):
        # strengths from {0, 1, 2} over 4 subjects: every occurrence level and
        # every mean is shared by hundreds of edges, so both tie-breaks decide
        rng = np.random.default_rng(seed)
        weights = []
        for _ in range(4):
            w = np.triu(rng.integers(0, 3, size=(N_REGIONS, N_REGIONS)).astype(float), 1)
            weights.append(w + w.T)
        cohort = make_cohort(weights)
        for keep_ratio in (0.05, 0.30, 1.0):
            assert compute_mask(cohort, keep_ratio) == oracle_compute_mask(cohort, keep_ratio)

    def test_invalid_ratio(self):
        cohort = make_cohort([make_weights(fill=1.0)])
        with pytest.raises(ValueError, match="keep_ratio"):
            compute_mask(cohort, 0.0)

    def test_empty_cohort_rejected_at_construction(self):
        with pytest.raises(ValueError, match="empty cohort"):
            Cohort((), default_atlas())


class TestApplyMask:
    def test_shapes_and_order(self):
        cohort = make_cohort([make_weights(fill=1.0)] * 10, labels=[AD] * 10)
        mask = EdgeMask(tuple(canonical_edges()[:5]))
        features = apply_mask(cohort, mask)
        assert features.X.shape == (10, 5)
        assert features.is_ad.tolist() == [True] * 10
        assert features.edges == mask.edges

    def test_zero_weight_kept_as_zero(self):
        w = make_weights({(0, 1): 1.0})  # edge (0, 2) is zero
        cohort = make_cohort([w])
        mask = EdgeMask((edge(0, 1), edge(0, 2)))
        assert apply_mask(cohort, mask).X.tolist() == [[1.0, 0.0]]

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="mask keeps no edges"):
            EdgeMask(())


class TestFeatures:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_strength_rejected(self, bad):
        X = np.array([[1.0, 2.0], [3.0, bad]])
        with pytest.raises(ValueError, match="non-finite strength .* at row 1, column 1"):
            Features(X, np.array([True, False]), (edge(0, 1), edge(0, 2)))

    def test_ranks_order_values_and_share_ties(self):
        X = np.array([[2.0, 0.5], [1.0, 0.5], [2.0, 9.0], [0.0, 0.5]])
        features = Features(X, np.zeros(4, dtype=bool), (edge(0, 1), edge(0, 2)))
        R, V = features.ranks
        assert R.dtype == np.uint8
        assert R.tolist() == [[2, 1, 2, 0], [0, 0, 1, 0]]
        assert V.tolist() == [[0.0, 1.0, 2.0], [0.5, 9.0, 9.0]]
        assert features.ranks is features.ranks  # built once per Features


class TestGenerateSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(7, 5, [PlantedEdge(edge(2, 5), 2.0, "low")], 0.0)
        b = generate_synthetic(7, 5, [PlantedEdge(edge(2, 5), 2.0, "low")], 0.0)
        for sa, sb in zip(a.subjects, b.subjects):
            assert sa.id == sb.id and sa.diagnosis == sb.diagnosis
            np.testing.assert_array_equal(sa.strengths, sb.strengths)

    def test_minimal_cohort(self):
        cohort = generate_synthetic(0, 1)
        assert len(cohort) == 2
        assert sorted(s.diagnosis for s in cohort.subjects) == [AD, CN]

    def test_invariants_hold(self, tmp_path):
        cohort = generate_synthetic(11, 3, [PlantedEdge(edge(10, 40), 3.0, "high")], 0.1)
        manifest = save_cohort(cohort, tmp_path)
        for s in cohort.subjects:
            assert s.strengths.shape == (N_EDGES,) and not s.strengths.flags.writeable
            assert np.all(s.strengths >= 0)
            saved = np.loadtxt(manifest.parent / "matrices" / f"{s.id}.csv", delimiter=",")
            np.testing.assert_array_equal(saved, saved.T)
            assert np.all(np.diagonal(saved) == 0.0)

    def test_planted_edge_separates_perfectly(self):
        planted = PlantedEdge(edge(2, 5), 2.0, "low")
        cohort = generate_synthetic(7, 50, [planted], 0.0)
        col = np.array([s.strengths[edge_column(2, 5)] for s in cohort.subjects])
        is_ad = np.array([s.diagnosis == AD for s in cohort.subjects])
        split = oracle_best_split(col[:, None], is_ad)
        assert split is not None
        _, thr, gain = split
        assert gain == pytest.approx(0.5)
        assert np.all((col <= thr) == is_ad)  # AD strictly below for "low"

    def test_largest_threshold_cohort_loads(self, tmp_path):
        threshold = 4.7e307
        cohort = generate_synthetic(0, 2, [PlantedEdge(edge(2, 5), threshold, "high")])
        loaded = load_cohort(save_cohort(cohort, tmp_path))
        col = [s.strengths[edge_column(2, 5)] for s in loaded.subjects]
        assert max(col) > threshold
        for a, b in zip(cohort.subjects, loaded.subjects):
            np.testing.assert_array_equal(a.strengths, b.strengths)

    def test_duplicate_planted_edge_rejected(self):
        p = PlantedEdge(edge(2, 5), 2.0, "low")
        with pytest.raises(ValueError, match="duplicate planted edge"):
            generate_synthetic(0, 2, [p, PlantedEdge(edge(5, 2), 1.0, "high")])

    def test_noise_rate_bounds(self):
        with pytest.raises(ValueError, match="noise_rate"):
            generate_synthetic(0, 2, [], 0.5)

    def test_strata_are_populated(self):
        cohort = generate_synthetic(1, 8)
        cells = {(s.diagnosis, s.sex, s.manufacturer) for s in cohort.subjects}
        assert len(cells) == 8  # 2 diagnoses x 2 sexes x 2 manufacturers


class TestMaskJson:
    def test_round_trip(self):
        mask = EdgeMask(tuple(canonical_edges()[:4]))
        text = mask_to_json(mask)
        assert json.loads(text) == [[0, 1], [0, 2], [0, 3], [0, 4]]
        back = mask_from_json(text)
        assert back.edges == mask.edges

    def test_non_integer_index_rejected(self):
        for pairs, message in [([[0, 1], [2.7, 5]], "region index must be an integer"),
                               ([["2", 5]], "region index must be an integer"),
                               ([[True, 5]], "region index must be an integer"),
                               ([[0, 1, 2]], "edge must be a pair"),
                               ({"0": 1}, "edges must be a list")]:
            with pytest.raises(ValueError, match=message):
                mask_from_json(json.dumps(pairs))
