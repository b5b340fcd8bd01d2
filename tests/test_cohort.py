import errno
import io
import json
import math
import os
import re
import signal
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import connrules.cohort as cohort_module
import connrules.forked as forked_module
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
from conftest import assert_no_child_left, use_cpus
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

    def test_subset_rejects_unknown_id(self):
        cohort = generate_synthetic(0, 5)
        assert [s.id for s in cohort.subset(["s0001", "s0000"]).subjects] == ["s0000", "s0001"]
        with pytest.raises(ValueError, match="unknown subject id: 'typo'"):
            cohort.subset(["s0000", "typo", "also-typo"])

    def test_full_matrix_rejected_as_strengths(self):
        with pytest.raises(ValueError, match=r"strengths must have shape \(3486,\), got \(84, 84\)"):
            Subject("a", make_weights({(0, 1): 1.0}), AD, "F", "MfrA")


def matrix_paths(manifest) -> list[Path]:
    return [manifest.parent / s["matrix"] for s in json.loads(manifest.read_text())["subjects"]]


class TestForkedLoad:
    """load_cohort reads one contiguous block of the manifest per usable CPU,
    each in a forked child, and this process again any block whose child
    did not read it all."""

    N = 8  # with 4 CPUs: rows 0-1, 2-3, 4-5 and 6-7, each in a child

    @pytest.mark.parametrize("n, cpus, blocks", [
        (0, 4, [(0, 0)]), (1, 4, [(0, 1)]), (8, 1, [(0, 8)]),
        (5, 4, [(0, 1), (1, 2), (2, 3), (3, 5)]), (5, 64, [(k, k + 1) for k in range(5)])])
    def test_blocks_one_per_cpu_at_most_one_per_item(self, monkeypatch, n, cpus, blocks):
        use_cpus(monkeypatch, cpus)
        assert forked_module._blocks(n) == blocks

    @pytest.fixture
    def manifest(self, tmp_path):
        return save_cohort(generate_synthetic(5, self.N // 2), tmp_path)

    @pytest.mark.parametrize("cpus, setting, n_forks", [
        (1, "", 0), (2, "", 2), (4, "", 4), (64, "", N),
        (4, "no fork", 0), (4, "thread alive", 0), (4, "child killed", 4),
        (4, "second fork fails", 4)])
    def test_rows_are_the_parsed_files(self, manifest, monkeypatch, forks, cpus, setting,
                                       n_forks):
        use_cpus(monkeypatch, cpus)
        paths = matrix_paths(manifest)
        if setting == "no fork":
            monkeypatch.delattr(os, "fork")
        elif setting == "child killed":  # the child for rows 6-7, at row 6
            here, read_input = os.getpid(), cohort_module.read_input

            def killing(path, parse):
                if path == paths[6] and os.getpid() != here:
                    os.kill(os.getpid(), signal.SIGKILL)
                return read_input(path, parse)

            monkeypatch.setattr(cohort_module, "read_input", killing)
        elif setting == "second fork fails":
            fork = os.fork  # counted by forks

            def second_fails():
                if len(forks) == 1:
                    forks.append(None)
                    raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
                return fork()

            monkeypatch.setattr(os, "fork", second_fails)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        if setting == "thread alive":
            thread.start()
        try:
            cohort = load_cohort(manifest)
        finally:
            release.set()
            if thread.is_alive():
                thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(forks) == n_forks
        assert_no_child_left()
        for s, path in zip(cohort.subjects, paths, strict=True):
            want = check_connectome(np.loadtxt(path, delimiter=",", ndmin=2))
            assert s.strengths.tobytes() == want.tobytes()
        # read-only row views of one matrix, row k at k rows past row 0
        rows = [s.strengths for s in cohort.subjects]
        start = [r.__array_interface__["data"][0] for r in rows]
        assert start == [start[0] + k * N_EDGES * 8 for k in range(self.N)]
        assert all(r.base is rows[0].base for r in rows)
        for r in rows:
            with pytest.raises(ValueError):
                r.flags.writeable = True

    # row: fault; the first in manifest order is the one raised, with 2 CPUs
    # (blocks 0-3, 4-7) and with 4 (blocks 0-1, 2-3, 4-5, 6-7) alike
    FAULTS = {
        "malformed-here": {1: "malformed", 5: "missing", 6: "directory"},
        "missing-in-a-child": {4: "missing", 6: "directory", 7: "malformed"},
        "directory": {2: "directory", 5: "malformed", 7: "missing"},
        "diagnosis-before-file": {3: "diagnosis", 5: "malformed"},
        "file-before-diagnosis": {3: "malformed", 5: "diagnosis"},
    }

    @pytest.mark.parametrize("cpus", [2, 4])
    @pytest.mark.parametrize("case", FAULTS)
    def test_first_fault_in_manifest_order_is_raised(self, manifest, monkeypatch, forks,
                                                     capsys, cpus, case):
        from connrules.cli import main
        doc = json.loads(manifest.read_text())
        for row, fault in self.FAULTS[case].items():
            path = manifest.parent / doc["subjects"][row]["matrix"]
            if fault == "malformed":
                path.write_text("0,1,x\n")
            elif fault == "diagnosis":
                doc["subjects"][row]["diagnosis"] = "XX"
            else:
                path.unlink()
                if fault == "directory":
                    path.mkdir()
        manifest.write_text(json.dumps(doc))
        row, fault = min(self.FAULTS[case].items())
        errors = []
        for n in (1, cpus):
            use_cpus(monkeypatch, n)
            with pytest.raises((ValueError, OSError)) as info:
                load_cohort(manifest)
            errors.append((type(info.value), str(info.value)))
            assert_no_child_left()
        assert len(forks) == cpus
        assert errors[0] == errors[1]  # as one process reading in order gives it
        kind, message = errors[0]
        if fault == "diagnosis":
            assert message == f"{manifest}: diagnosis must be AD or CN, got 'XX'"
        else:
            path = manifest.parent / doc["subjects"][row]["matrix"]
            assert kind is (IsADirectoryError if fault == "directory" else ValueError)
            assert message.endswith({
                "malformed": f"{path}: could not convert string 'x' to float64 at row 0, "
                             "column 3.",
                "missing": f"missing file: {path}",
                "directory": f"Is a directory: '{path}'"}[fault])
        out = manifest.parent / "mask.json"
        assert main(["mask", "--cohort", str(manifest), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        assert_no_child_left()

    def test_reader_that_dies_is_an_error(self, manifest, monkeypatch, forks):
        # an error other than ValueError or OSError ends the last child's
        # read of rows 6-7; this process reads them again and meets it too
        dying = matrix_paths(manifest)[7]
        read_input = cohort_module.read_input

        def failing(path, parse):
            if path == dying:
                raise MemoryError("row 7")
            return read_input(path, parse)

        monkeypatch.setattr(cohort_module, "read_input", failing)
        errors = []
        for cpus in (1, 4):
            use_cpus(monkeypatch, cpus)
            with pytest.raises(MemoryError) as info:
                load_cohort(manifest)
            errors.append((type(info.value), str(info.value)))
            assert_no_child_left()
        assert errors == [(MemoryError, "row 7")] * 2
        assert len(forks) == 4

    def test_interrupt_while_children_read_leaves_no_child(self, manifest, monkeypatch, forks):
        # the children's reads outlast the test; the interrupt lands in this
        # process while it waits for them
        here, read_input = os.getpid(), cohort_module.read_input

        def sleeping(path, parse):
            if os.getpid() != here:
                time.sleep(30)
            return read_input(path, parse)

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        use_cpus(monkeypatch, 2)
        monkeypatch.setattr(cohort_module, "read_input", sleeping)
        previous = signal.signal(signal.SIGALRM, interrupt)
        started = time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            with pytest.raises(KeyboardInterrupt):
                load_cohort(manifest)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert_no_child_left()
        assert time.monotonic() - started < 10
        assert len(forks) == 2

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_no_subjects_is_an_empty_cohort(self, tmp_path, monkeypatch, forks, cpus):
        use_cpus(monkeypatch, cpus)
        manifest = tmp_path / "cohort.json"
        manifest.write_text(json.dumps({"atlas": list(default_atlas().names), "subjects": []}))
        with pytest.raises(ValueError, match="empty cohort"):
            load_cohort(manifest)
        assert forks == []


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

    def test_callers_arrays_stay_writeable(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        is_ad = np.array([True, False])
        features = Features(X, is_ad, (edge(0, 1), edge(0, 2)))
        X[0, 0] = 5.0
        is_ad[0] = False
        assert features.X[0, 0] == 1.0 and features.is_ad[0]
        assert not features.X.flags.writeable and not features.is_ad.flags.writeable

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

    def test_subnormal_threshold_without_a_gap_rejected(self):
        # 5 steps above 0 or fewer, 0.9t or 1.1t rounds to t, and at 5e-324
        # the AD maximum was the CN minimum
        step = np.nextafter(0.0, 1.0)
        for threshold in (step, 5 * step):
            with pytest.raises(ValueError, match=r"0\.9 x threshold < threshold < 1\.1 x"):
                PlantedEdge(edge(2, 5), float(threshold), "low")
        # the smallest accepted threshold still separates the classes
        threshold = float(6 * step)
        for direction in ("low", "high"):
            cohort = generate_synthetic(0, 50, [PlantedEdge(edge(2, 5), threshold, direction)])
            col = np.array([s.strengths[edge_column(2, 5)] for s in cohort.subjects])
            low = np.array([(s.diagnosis == AD) == (direction == "low") for s in cohort.subjects])
            assert col[low].max() < threshold < col[~low].min()

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
