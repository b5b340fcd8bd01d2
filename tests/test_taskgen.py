from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connrules.cohort import AD, CN, Features, edge
from connrules.selection import SelectedEdges
from connrules.taskgen import (
    HypothesisSpace,
    LearningTask,
    build_examples,
    build_space,
    parse_task_text,
    partition_tasks,
    scale_strength,
    task_to_text,
)
from oracles import Example, example_rows, to_examples

GOLDEN = Path(__file__).parent / "golden" / "toy_task.las"

E1, E2, E3 = edge(2, 5), edge(3, 17), edge(10, 40)


def make_example(eid, label, context, penalty=1):
    return Example(eid, penalty, label == AD, context)


def make_task(examples, edges):
    record = to_examples(examples, edges)
    return LearningTask(build_space(SelectedEdges(tuple(edges), "dt"), record), record)


def toy_vectors():
    X = np.array([[0.123, 2.0], [0.5, 1.5], [2.0, 0.4], [1.7, 0.9]])
    return Features(X, np.array([True, True, False, False]), (E1, E2))


class TestScaleStrength:
    def test_zero(self):
        assert scale_strength(0.0) == 0

    def test_round_down_then_truncate(self):
        # 0.12345 -> 0.1234 (half-even on the 4th place) -> 123.4 -> 123
        assert scale_strength(0.12345) == 123

    def test_round_up(self):
        # 0.12355 -> 0.1236 -> 123.6 -> 124
        assert scale_strength(0.12355) == 124

    def test_final_half_even(self):
        assert scale_strength(0.1235) == 124  # 123.5 ties to even
        assert scale_strength(0.1225) == 122  # 122.5 ties to even

    def test_plain_values(self):
        assert scale_strength(2.0) == 2000
        assert scale_strength(0.7701) == 770

    def test_monotone(self):
        rng = np.random.default_rng(0)
        xs = np.sort(rng.uniform(0, 5, size=500))
        scaled = [scale_strength(x) for x in xs]
        assert all(a <= b for a, b in zip(scaled, scaled[1:]))

    def test_int64_boundary(self):
        # neighbouring floats, 2 apart: the first scales to at most 2**63 - 1,
        # the second above it; 1e300 is also beyond Decimal's 28 digits
        assert scale_strength(9223372036854774.0) == 9223372036854774000
        with pytest.raises(ValueError, match=r"^strength 9223372036854776.0 scales to an "
                                             r"integer above 2\*\*63 - 1$"):
            scale_strength(9223372036854776.0)
        with pytest.raises(ValueError, match=r"^strength 1e\+300 scales"):
            scale_strength(1e300)

    def test_rejects_negative_and_nan(self):
        with pytest.raises(ValueError):
            scale_strength(-0.1)
        with pytest.raises(ValueError):
            scale_strength(float("nan"))


class TestBuildExamples:
    def test_shapes_and_labels(self):
        selected = SelectedEdges((E1, E2), "dt")
        examples = build_examples(toy_vectors(), selected)
        assert examples.ids == ("ad_000", "ad_001", "cn_000", "cn_001")
        assert examples.is_ad.tolist() == [True, True, False, False]
        assert examples.edges == (E1, E2)
        assert examples.facts.dtype == np.int64
        assert examples.facts.tolist() == [[123, 2000], [500, 1500], [2000, 400], [1700, 900]]

    def test_base_penalty_applied(self):
        selected = SelectedEdges((E1,), "dt")
        examples = build_examples(toy_vectors(), selected, base_pen=1)
        assert examples.penalty.tolist() == [1] * 4

    def test_arrays_read_only(self):
        examples = build_examples(toy_vectors(), SelectedEdges((E1, E2), "dt"))
        for array in (examples.is_ad, examples.penalty, examples.facts):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_missing_selected_edge(self):
        selected = SelectedEdges((E3,), "dt")
        with pytest.raises(ValueError, match="missing selected edge"):
            build_examples(toy_vectors(), selected)

    def test_no_selected_edges(self):
        with pytest.raises(ValueError, match="no selected edges"):
            build_examples(toy_vectors(), SelectedEdges((), "dt"))

    def test_strength_above_int64_rejected(self):
        X = np.array([[0.5], [9223372036854776.0]])
        features = Features(X, np.array([True, False]), (E1,))
        with pytest.raises(ValueError, match="scales to an integer above 2\\*\\*63 - 1"):
            build_examples(features, SelectedEdges((E1,), "dt"))


class TestBuildSpace:
    @staticmethod
    def space(*contexts, edges=(E1,), max_body=2):
        examples = [make_example(f"x{k}", AD, c) for k, c in enumerate(contexts)]
        return build_space(SelectedEdges(edges, "dt"), to_examples(examples, edges), max_body)

    def test_threshold_domain_with_sentinels(self):
        space = self.space({E1: 100}, {E1: 300}, {E1: 100})
        assert space.threshold_domain[E1] == (99, 100, 300, 301)

    def test_single_observed_value(self):
        assert self.space({E1: 7}).threshold_domain[E1] == (6, 7, 8)

    def test_left_out_facts_are_not_observed(self):
        space = self.space({E1: 0}, {}, {E2: 4}, edges=(E1, E2))
        assert space.threshold_domain == {E1: (-1, 0, 1), E2: (3, 4, 5)}
        assert self.space({}).threshold_domain[E1] == ()

    def test_max_body_edges_validated(self):
        with pytest.raises(ValueError, match="max_body_edges"):
            self.space(max_body=0)

    @pytest.mark.parametrize("domain, message", [
        ({E1: (1, 2)}, r"no thresholds for selected edge \(3, 17\)"),
        ({E1: (1, 2), E2: (), E3: (5,)}, r"thresholds for unselected edge \(10, 40\)"),
    ], ids=["missing", "extra"])
    def test_domain_keys_must_be_the_selected_edges(self, domain, message):
        with pytest.raises(ValueError, match=message):
            HypothesisSpace(SelectedEdges((E1, E2), "dt"), 2, domain)


class TestPartitionTasks:
    @staticmethod
    def make_pool(n_ad, n_cn, edge_=E1):
        examples = [make_example(f"ad_{k:03d}", AD, {edge_: 100 + k}) for k in range(n_ad)]
        examples += [make_example(f"cn_{k:03d}", CN, {edge_: 500 + k}) for k in range(n_cn)]
        record = to_examples(examples, [edge_])
        return record, build_space(SelectedEdges((edge_,), "dt"), record)

    def test_nine_ad_twelve_cn_three_subsets(self):
        examples, space = self.make_pool(9, 12)
        partition = partition_tasks(examples, space, 3, base_pen=1, seed=0)
        assert len(partition.tasks) == 3
        for task in partition.tasks:
            ads = [ex for ex in example_rows(task.examples) if ex.is_ad]
            cns = [ex for ex in example_rows(task.examples) if not ex.is_ad]
            assert len(ads) == 3 and len(cns) == 12
            assert {ex.penalty for ex in ads} == {4}  # round(1 * 12 / 3)
            assert {ex.penalty for ex in cns} == {1}

    def test_single_subset(self):
        examples, space = self.make_pool(9, 12)
        partition = partition_tasks(examples, space, 1, base_pen=1, seed=0)
        ads = [ex for ex in example_rows(partition.tasks[0].examples) if ex.is_ad]
        assert {ex.penalty for ex in ads} == {1}  # round(12 / 9)

    def test_one_ad_per_task(self):
        examples, space = self.make_pool(4, 6)
        partition = partition_tasks(examples, space, 4, base_pen=1, seed=3)
        for task in partition.tasks:
            assert task.examples.is_ad.sum() == 1

    def test_disjoint_and_complete(self):
        examples, space = self.make_pool(10, 7)
        partition = partition_tasks(examples, space, 3, base_pen=1, seed=5)
        seen = []
        for task in partition.tasks:
            seen += [ex.id for ex in example_rows(task.examples) if ex.is_ad]
        assert sorted(seen) == [f"ad_{k:03d}" for k in range(10)]
        assert len(set(seen)) == 10

    def test_cn_replicated_everywhere(self):
        examples, space = self.make_pool(6, 5)
        partition = partition_tasks(examples, space, 2, base_pen=1, seed=1)
        for task in partition.tasks:
            cn_ids = sorted(ex.id for ex in example_rows(task.examples) if not ex.is_ad)
            assert cn_ids == [f"cn_{k:03d}" for k in range(5)]

    def test_balanced_penalty_sums(self):
        # with |CN| = |AD| the class penalty sums differ by < n_subsets per task
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(6, 40))
            k = int(rng.integers(1, 5))
            examples, space = self.make_pool(n, n)
            partition = partition_tasks(examples, space, k, base_pen=1, seed=7)
            for task in partition.tasks:
                ad_sum = task.examples.penalty[task.examples.is_ad].sum()
                cn_sum = task.examples.penalty[~task.examples.is_ad].sum()
                assert abs(ad_sum - cn_sum) <= k

    def test_ad_penalty_rounded_exactly(self):
        # |AD| = |CN|: the AD penalty is base_pen itself, also past 2**53,
        # where base_pen * |CN| / |AD| in floats lands on a neighbour
        examples, space = self.make_pool(2, 2)
        for base_pen in (2**53 + 1, 2**60 + 3):
            task, = partition_tasks(examples, space, 1, base_pen=base_pen).tasks
            assert task.examples.penalty.tolist() == [base_pen] * 4

    def test_deterministic_in_seed(self):
        examples, space = self.make_pool(8, 8)
        a = partition_tasks(examples, space, 3, base_pen=1, seed=42)
        b = partition_tasks(examples, space, 3, base_pen=1, seed=42)
        assert a == b

    def test_rows_keep_their_facts_in_pool_order(self):
        # AD rows first, then CN rows, each in pool order, with the pool's facts
        examples, space = self.make_pool(7, 4)
        partition = partition_tasks(examples, space, 2, base_pen=1, seed=3)
        for task in partition.tasks:
            rows = [examples.ids.index(eid) for eid in task.examples.ids]
            n_ad = int(task.examples.is_ad.sum())
            assert rows[:n_ad] == sorted(rows[:n_ad]) and rows[n_ad:] == list(range(7, 11))
            assert task.examples.facts.tolist() == examples.facts[rows].tolist()

    def test_too_many_subsets(self):
        examples, space = self.make_pool(2, 2)
        with pytest.raises(ValueError, match="exceeds AD example count"):
            partition_tasks(examples, space, 3)


class TestSerialization:
    def make_task(self):
        return make_task([
            make_example("ad_000", AD, {E1: 123, E2: 770}, penalty=4),
            make_example("cn_000", CN, {E1: 2000, E2: 400}),
        ], (E1, E2))

    def test_pos_block_format(self):
        task = self.make_task()
        text = task_to_text(task)
        assert "#pos(ad_000@4, {ad}, {cn}, { connection(region(2), region(5), 123). " \
               "connection(region(3), region(17), 770). })." in text
        assert "#modeh(ad)." in text
        assert "#modeb(1, connection(region(2), region(5), var(strength)))." in text
        assert "#modeb(1, var(strength) >= const(threshold))." in text
        assert "#maxv(2)." in text

    def test_single_fact_block(self):
        text = task_to_text(make_task([make_example("ad_000", AD, {E2: 123}, penalty=4),
                                       make_example("cn_000", CN, {E2: 500})], (E2,)))
        assert "#pos(ad_000@4, {ad}, {cn}, " \
               "{ connection(region(3), region(17), 123). })." in text

    def test_deterministic_bytes(self):
        task = self.make_task()
        assert task_to_text(task) == task_to_text(task)

    def test_left_out_fact_not_written(self):
        task = make_task([make_example("ad_000", AD, {E2: 123}, penalty=4),
                          make_example("cn_000", CN, {E1: 5})], (E1, E2))
        text = task_to_text(task)
        assert "#pos(ad_000@4, {ad}, {cn}, { connection(region(3), region(17), 123). })." in text
        assert "#pos(cn_000@1, {cn}, {ad}, { connection(region(2), region(5), 5). })." in text
        assert parse_task_text(text).examples.facts.tolist() == [[-1, 123], [5, -1]]

    def test_empty_task_rejected(self):
        task = make_task([make_example("ad_000", AD, {E1: 1})], (E1,))
        empty = LearningTask(task.space, to_examples([], (E1,)))
        with pytest.raises(ValueError, match="task has no examples"):
            task_to_text(empty)

    def test_text_round_trip(self):
        task = self.make_task()
        assert parse_task_text(task_to_text(task)) == task

    def test_round_trip_preserves_partition_domains(self):
        # a partition task's domain comes from the full example pool, not just
        # its own examples; the threshold comments must carry it through
        examples = [make_example(f"ad_{k:03d}", AD, {E1: 100 + k}) for k in range(4)]
        examples += [make_example(f"cn_{k:03d}", CN, {E1: 500 + k}) for k in range(4)]
        space = make_task(examples, (E1,)).space
        partition = partition_tasks(to_examples(examples, (E1,)), space, 2, base_pen=1, seed=0)
        task = partition.tasks[0]
        back = parse_task_text(task_to_text(task))
        assert back == task
        assert back.space.threshold_domain == space.threshold_domain


class TestExampleValidation:
    def test_penalty_must_be_positive(self):
        with pytest.raises(ValueError, match="penalty must be >= 1"):
            to_examples([make_example("x", AD, {E1: 1}, penalty=0)], (E1,))

    def test_context_edges_must_be_in_space(self):
        task = make_task([make_example("ad_000", AD, {E1: 1})], (E1,))
        for edges in ((E2,), (E1, E2)):
            with pytest.raises(ValueError, match="fact columns are not the space's edges"):
                LearningTask(task.space, to_examples([make_example("ad_001", AD, {})], edges))

    def test_repeated_id_rejected(self):
        # task_to_text would write such a task, and parse_task_text rejects it
        with pytest.raises(ValueError, match="repeated example id 'a'"):
            to_examples([make_example("a", AD, {E1: 1}), make_example("a", CN, {E1: 5})], (E1,))

    def test_penalty_total_bounded_for_int64_sums(self):
        # one edge: the longest body has 3 atoms, so the penalties may sum to 2**63 - 4
        def examples(total):
            return to_examples([make_example("ad_000", AD, {E1: 1}, penalty=total - 5),
                                make_example("cn_000", CN, {E1: 2}, penalty=5)], (E1,))
        assert examples(2**63 - 4).penalty.tolist() == [2**63 - 9, 5]
        with pytest.raises(ValueError, match=f"sum to {2**63}, above 2\\*\\*63 - 1"):
            examples(2**63 - 3)
        # and one penalty above 2**63 - 1 is a total too large, not a wrapped int64
        with pytest.raises(ValueError, match="penalties too large"):
            examples(2**64)

    def test_equality_compares_every_field(self):
        base = [make_example("a", AD, {E1: 1}, 2), make_example("b", CN, {})]
        record = to_examples(base, (E1,))
        assert record == to_examples(base, (E1,))
        for changed in ([make_example("a", AD, {E1: 1}, 2), make_example("c", CN, {})],
                        [make_example("a", CN, {E1: 1}, 2), make_example("b", CN, {})],
                        [make_example("a", AD, {E1: 1}, 3), make_example("b", CN, {})],
                        [make_example("a", AD, {E1: 0}, 2), make_example("b", CN, {})],
                        [make_example("a", AD, {E1: 1}, 2), make_example("b", CN, {E1: 1})]):
            assert record != to_examples(changed, (E1,))
        assert record != to_examples([make_example("a", AD, {}, 2), make_example("b", CN, {})],
                                     (E2,))


class TestStrictParsing:
    """Malformed input raises ValueError naming its 1-based line; none of it
    may be dropped silently."""

    @staticmethod
    def golden_with(old, new):
        text = GOLDEN.read_text()
        assert old in text
        return text.replace(old, new, 1)

    def test_pos_line_with_an_extra_space_rejected(self):
        # skipping this line would leave 3 examples instead of 4
        text = self.golden_with("#pos(ad_001@1, {ad}, {cn},", "#pos(ad_001@1, {ad},  {cn},")
        with pytest.raises(ValueError, match=r"^line 26: unrecognised line"):
            parse_task_text(text)

    def test_fact_list_with_an_extra_space_rejected(self):
        text = self.golden_with("200). connection", "200).  connection")
        with pytest.raises(ValueError, match=r"^line 26: .*malformed fact list"):
            parse_task_text(text)

    def test_fact_without_spaces_rejected(self):
        # skipping this fact would drop edge (2, 5) from the example's context
        text = self.golden_with("connection(region(2), region(5), 123).",
                                "connection(region(2),region(5),123).")
        with pytest.raises(ValueError, match=r"^line 25: .*malformed fact list"):
            parse_task_text(text)

    def test_label_pair_enforced(self):
        text = self.golden_with("#pos(cn_000@1, {cn}, {ad},", "#pos(cn_000@1, {cn}, {cn},")
        with pytest.raises(ValueError, match=r"^line 27: .*include one of ad, cn"):
            parse_task_text(text)

    def test_repeated_edge_rejected(self):
        text = self.golden_with("connection(region(3), region(17), 770).",
                                "connection(region(2), region(5), 770).")
        with pytest.raises(ValueError, match=r"^line 25: .*repeats an edge"):
            parse_task_text(text)

    def test_fact_for_undeclared_edge_rejected(self):
        text = self.golden_with("connection(region(3), region(17), 500).",
                                "connection(region(4), region(9), 500).")
        with pytest.raises(ValueError, match=r"^line 26: example 'ad_001' has a fact for edge "
                                             r"\(4, 9\), which no earlier #modeb declares"):
            parse_task_text(text)

    def test_fact_above_int64_rejected(self):
        text = self.golden_with("region(5), 1700).", f"region(5), {2**63}).")
        with pytest.raises(ValueError, match=rf"^line 28: example 'cn_001' has fact {2**63}, "
                                             r"above 2\*\*63 - 1"):
            parse_task_text(text)
        # the largest fact an int64 holds is read exactly, beside a domain
        # that holds it
        text = self.golden_with("region(5), 1700).", f"region(5), {2**63 - 1}).")
        text = text.replace("2000 2001\n", f"2000 2001 {2**63 - 1}\n", 1)
        assert parse_task_text(text).examples.facts[3, 0] == 2**63 - 1

    @pytest.mark.parametrize("penalty", ["0", str(2**63)])
    def test_penalty_out_of_range_rejected(self, penalty):
        text = self.golden_with("#pos(ad_001@1,", f"#pos(ad_001@{penalty},")
        with pytest.raises(ValueError, match=rf"^line 26: example 'ad_001' has penalty {penalty}, "
                                             r"not in 1 \.\. 2\*\*63 - 1"):
            parse_task_text(text)

    def test_penalty_total_above_int64_rejected(self):
        # each CN penalty fits an int64, but their sum does not
        text = GOLDEN.read_text().replace("#pos(cn_000@1,", f"#pos(cn_000@{2**62},")
        text = text.replace("#pos(cn_001@1,", f"#pos(cn_001@{2**62},")
        with pytest.raises(ValueError, match="penalties too large"):
            parse_task_text(text)

    def test_unsorted_thresholds_rejected(self):
        # candidate enumeration picks representatives by ascending threshold
        text = self.golden_with("% thresholds(2,5): 122 123", "% thresholds(2,5): 123 122")
        with pytest.raises(ValueError, match=r"\(2, 5\) must be strictly increasing"):
            parse_task_text(text)

    def test_malformed_thresholds_line_rejected(self):
        # skipped as a comment, it would leave edge (2, 5) an empty domain
        text = self.golden_with("% thresholds(2,5):", "% thresholds (2,5):")
        with pytest.raises(ValueError, match=r"^line 11: malformed thresholds line"):
            parse_task_text(text)

    def test_malformed_provenance_line_rejected(self):
        text = self.golden_with("% provenance: dt", "% provenance:dt")
        with pytest.raises(ValueError, match=r"^line 2: malformed provenance line"):
            parse_task_text(text)

    def test_second_thresholds_line_for_an_edge_rejected(self):
        text = self.golden_with("% thresholds(3,17):", "% thresholds(2,5): 1 2\n% thresholds(3,17):")
        with pytest.raises(ValueError, match=r"^line 12: second thresholds line for edge \(2, 5\)"):
            parse_task_text(text)

    def test_thresholds_for_an_undeclared_edge_rejected(self):
        text = self.golden_with("% thresholds(3,17):", "% thresholds(4,9): 1 2\n% thresholds(3,17):")
        with pytest.raises(ValueError, match=r"^line 12: thresholds for edge \(4, 9\), "
                                             r"which no earlier #modeb declares"):
            parse_task_text(text)

    def test_doubled_line_parses_the_same_or_names_the_copy(self):
        # a line that declares something read must not be given twice, even
        # with the same value: the second copy of it is the line named
        lines = GOLDEN.read_text().splitlines(keepends=True)
        want = parse_task_text("".join(lines))
        rejected = []
        for k, line in enumerate(lines):
            text = "".join(lines[:k + 1] + lines[k:])
            try:
                got = parse_task_text(text)
            except ValueError as exc:
                assert str(exc).startswith(f"line {k + 2}: "), (line, str(exc))
                rejected.append(line.split("(")[0].split(":")[0])
            else:
                assert got == want, line
        assert rejected == (["% provenance", "#modeb", "#modeb", "#maxv",
                             "% thresholds", "% thresholds"] + ["#pos"] * 4)

    def test_unrecognised_line_rejected(self):
        with pytest.raises(ValueError, match=r"^line 5: unrecognised line 'garbage'"):
            parse_task_text(self.golden_with("#modeh(ad).", "% fine\n\ngarbage"))

    def test_no_examples_rejected(self):
        with pytest.raises(ValueError, match="task has no examples"):
            parse_task_text("% connectome rule-learning task\n")


EDGE_POOL = (edge(0, 1), E1, E2, E3, edge(82, 83))


@st.composite
def tasks(draw):
    edges = draw(st.lists(st.sampled_from(EDGE_POOL), min_size=1, max_size=4, unique=True))
    examples = draw(st.lists(st.builds(
        Example,
        st.from_regex(r"[a-z][a-z0-9_]{0,7}", fullmatch=True),
        st.integers(1, 50),
        st.booleans(),
        st.dictionaries(st.sampled_from(edges), st.integers(0, 5000)),
    ), min_size=1, max_size=6, unique_by=lambda ex: ex.id))  # a .las file names each once
    # each edge's observed facts, which a task's domain must hold, and more
    domain = {e: tuple(sorted({ex.context[e] for ex in examples if e in ex.context}
                              | draw(st.sets(st.integers(-1, 3000), max_size=5))))
              for e in edges}
    space = HypothesisSpace(
        SelectedEdges(tuple(edges), draw(st.sampled_from(("dt", "rf", "external")))),
        draw(st.integers(1, 3)), domain)
    return LearningTask(space, to_examples(examples, edges))


class TestTextProperties:
    @settings(max_examples=200, deadline=None)
    @given(tasks())
    def test_text_round_trip(self, task):
        assert parse_task_text(task_to_text(task)) == task

    @settings(max_examples=300, deadline=None)
    @given(tasks(), st.data())
    def test_pos_whitespace_never_drops_content(self, task, data):
        lines = task_to_text(task).splitlines()
        k = data.draw(st.sampled_from([k for k, l in enumerate(lines) if l.startswith("#pos(")]))
        at = data.draw(st.integers(0, len(lines[k])))
        lines[k] = lines[k][:at] + data.draw(st.sampled_from((" ", "  ", "\t"))) + lines[k][at:]
        try:
            back = parse_task_text("\n".join(lines) + "\n")
        except ValueError:
            return
        assert back == task
