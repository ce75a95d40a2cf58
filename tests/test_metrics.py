import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocomp.corpus import COMPONENTS, MULTI_LABEL, Corpus, Instance, load_corpus
from emocomp.errors import DataError
from emocomp.metrics import (agreement_degenerate, cohen_kappa, cooccurrence_stats,
                             decide, evaluate, label_sets, round_half_up)


def brute_force_report(gold, predicted, inventory):
    """Independent oracle: recount everything from first principles."""
    per = {}
    tps = fps = fns = 0
    for label in inventory:
        tp = sum(1 for i in gold if label in gold[i] and label in predicted[i])
        fp = sum(1 for i in gold if label not in gold[i] and label in predicted[i])
        fn = sum(1 for i in gold if label in gold[i] and label not in predicted[i])
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        per[label] = (p, r, f, tp, fp, fn)
        tps, fps, fns = tps + tp, fps + fp, fns + fn
    mp = sum(v[0] for v in per.values()) / len(inventory)
    mr = sum(v[1] for v in per.values()) / len(inventory)
    mf = sum(v[2] for v in per.values()) / len(inventory)
    up = tps / (tps + fps) if tps + fps else 0.0
    ur = tps / (tps + fns) if tps + fns else 0.0
    uf = 2 * up * ur / (up + ur) if up + ur else 0.0
    return per, (mp, mr, mf), (up, ur, uf)


def random_pairs(rng, n, inventory, single_label):
    gold, pred = {}, {}
    for i in range(n):
        if single_label:
            gold[f"i{i}"] = {inventory[rng.integers(len(inventory))]}
            pred[f"i{i}"] = {inventory[rng.integers(len(inventory))]}
        else:
            gold[f"i{i}"] = {l for l in inventory if rng.random() < 0.4}
            pred[f"i{i}"] = {l for l in inventory if rng.random() < 0.4}
    return gold, pred


EMOTIONS = ("joy", "neutral", "sadness")


# probabilities, single-label?, labels, expected label sets
DECISIONS = {
    "single-label-tie-first": ([[0.3, 0.3, 0.2], [0.1, 0.45, 0.45]], True, EMOTIONS,
                               [{"joy"}, {"neutral"}]),
    "single-label-below-half": ([[0.1, 0.2, 0.4]], True, EMOTIONS, [{"sadness"}]),
    "half-not-chosen": ([[0.5, 0.5000001, 0.9]], False, ("a", "b", "c"), [{"b", "c"}]),
    "none-reads-neutral": ([[0.5, 0.2, 0.1]], False, EMOTIONS, [{"neutral"}]),
    "none-without-neutral": ([[0.5, 0.2]], False, ("joy", "sadness"), [set()]),
    "components-no-fallback": ([[0.1] * 5], False, COMPONENTS, [set()]),
    "chosen-neutral-alone": ([[0.1, 0.7, 0.2]], False, EMOTIONS, [{"neutral"}]),
}


class TestDecisionRule:
    @pytest.mark.parametrize("case", DECISIONS)
    def test_table(self, case):
        probs, single, labels, expected = DECISIONS[case]
        decisions = decide(np.array(probs), single)
        assert decisions.dtype == bool and decisions.shape == np.shape(probs)
        assert label_sets(decisions, labels) == expected

    @pytest.mark.parametrize("single", [True, False])
    def test_zero_rows(self, single):
        decisions = decide(np.zeros((0, 3)), single)
        assert decisions.shape == (0, 3)
        assert label_sets(decisions, EMOTIONS) == []

    def test_boolean_and_zero_one_read_the_same(self):
        flags = np.array([[1, 0, 1], [0, 0, 0], [0, 1, 0]])
        for labels in (EMOTIONS, ("a", "b", "c")):
            assert label_sets(flags, labels) == label_sets(flags.astype(bool), labels)
        assert label_sets(flags, EMOTIONS) == [{"joy", "sadness"}, {"neutral"}, {"neutral"}]

    def test_rows_are_separate_sets(self):
        sets = label_sets(np.zeros((2, 3), dtype=bool), EMOTIONS)
        sets[0].add("joy")
        assert sets[1] == {"neutral"}


class TestEvaluate:
    @pytest.mark.parametrize("single_label", [True, False])
    def test_matches_brute_force_oracle(self, single_label):
        rng = np.random.default_rng(42 if single_label else 43)
        inventory = ("a", "b", "c", "d")
        gold, pred = random_pairs(rng, 200, inventory, single_label)
        report = evaluate(gold, pred, inventory)
        per, macro, micro = brute_force_report(gold, pred, inventory)
        for label in inventory:
            m = report.per_class[label]
            assert (m.tp, m.fp, m.fn) == (per[label][3], per[label][4], per[label][5])
            assert abs(m.precision - per[label][0]) < 1e-12
            assert abs(m.recall - per[label][1]) < 1e-12
            assert abs(m.f1 - per[label][2]) < 1e-12
        assert abs(report.macro_f1 - macro[2]) < 1e-12
        assert abs(report.micro_f1 - micro[2]) < 1e-12

    def test_zero_denominator_convention(self):
        report = evaluate({"i": {"a"}}, {"i": set()}, ("a", "b"))
        assert report.per_class["a"].precision == 0.0
        assert report.per_class["b"].recall == 0.0
        assert report.per_class["b"].f1 == 0.0

    def test_perfect_agreement(self):
        gold = {"x": {"a", "b"}, "y": {"b"}}
        report = evaluate(gold, dict(gold), ("a", "b"))
        assert report.macro_f1 == 1.0
        assert report.micro_f1 == 1.0

    def test_id_mismatch_rejected(self):
        with pytest.raises(DataError):
            evaluate({"x": {"a"}}, {"y": {"a"}}, ("a",))

    @given(st.integers(0, 2 ** 31 - 1), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_oracle_property(self, seed, single_label):
        rng = np.random.default_rng(seed)
        inventory = ("p", "q", "r")
        gold, pred = random_pairs(rng, 30, inventory, single_label)
        report = evaluate(gold, pred, inventory)
        _, macro, micro = brute_force_report(gold, pred, inventory)
        assert abs(report.macro_f1 - macro[2]) < 1e-12
        assert abs(report.micro_f1 - micro[2]) < 1e-12


class TestCohenKappa:
    def test_hand_case_half(self):
        # p_o = 0.75, p_e = 0.5 -> kappa = 0.5
        a = [0, 0, 1, 1, 0, 1, 0, 1]
        b = [0, 0, 1, 1, 1, 0, 0, 1]
        assert abs(cohen_kappa(a, b) - 0.5) < 1e-12

    def test_perfect_agreement(self):
        assert abs(cohen_kappa([0, 1, 2, 1], [0, 1, 2, 1]) - 1.0) < 1e-12

    def test_constant_annotators_perfect(self):
        assert cohen_kappa([1, 1, 1], [1, 1, 1]) == 1.0

    def test_chance_level_is_zero(self):
        a = [0, 0, 1, 1]
        b = [0, 1, 0, 1]
        assert abs(cohen_kappa(a, b)) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            cohen_kappa([0], [0, 1])

    def test_empty(self):
        with pytest.raises(DataError):
            cohen_kappa([], [])

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                    min_size=2, max_size=40), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_relabel_invariance(self, pairs, seed):
        a = [p[0] for p in pairs]
        b = [p[1] for p in pairs]
        n = len(a)
        p_e = sum((a.count(c) / n) * (b.count(c) / n) for c in set(a) | set(b))
        if abs(1.0 - p_e) < 1e-9:
            return  # degenerate; covered elsewhere
        k1 = cohen_kappa(a, b)
        assert abs(k1 - cohen_kappa(b, a)) < 1e-12
        # applying the same label permutation to both annotators is a no-op
        perm = {0: 2, 1: 0, 2: 1}
        assert abs(k1 - cohen_kappa([perm[x] for x in a], [perm[x] for x in b])) < 1e-9
        assert k1 <= 1.0 + 1e-12

    def test_degenerate_flag(self):
        assert agreement_degenerate([1, 1], [1, 1])
        assert agreement_degenerate([0, 0], [1, 1])
        assert not agreement_degenerate([0, 1], [1, 1])


class TestRounding:
    def test_half_up(self):
        assert round_half_up(74.5) == 75
        assert round_half_up(74.4999) == 74
        assert round_half_up(0.5) == 1


def per_instance_cooccurrence(corpus):
    """The co-occurrence counts by a loop over instances: the reference."""
    counts = {e: [0] * len(COMPONENTS) for e in corpus.emotion_inventory}
    emotion_totals = {e: 0 for e in corpus.emotion_inventory}
    component_totals = [0] * len(COMPONENTS)
    for inst in corpus:
        for j, flag in enumerate(inst.cpm):
            if flag:
                component_totals[j] += 1
        for e in inst.emotions:
            emotion_totals[e] += 1
            for j, flag in enumerate(inst.cpm):
                if flag:
                    counts[e][j] += 1
    return counts, emotion_totals, component_totals


@st.composite
def random_corpora(draw):
    """Multi-label corpora of up to 20 instances over up to 4 labels."""
    inventory = tuple(draw(st.lists(st.sampled_from("abcdef"), unique=True, max_size=4)))
    instances = []
    for k in range(draw(st.integers(0, 20))):
        chosen = draw(st.lists(st.booleans(), min_size=len(inventory), max_size=len(inventory)))
        cpm = draw(st.tuples(*[st.integers(0, 1)] * len(COMPONENTS)))
        instances.append(Instance(f"i{k}", "", frozenset(l for l, c in zip(inventory, chosen) if c),
                                  cpm))
    return Corpus(instances, inventory, MULTI_LABEL)


class TestCooccurrence:
    @given(random_corpora())
    @settings(max_examples=60, deadline=None)
    def test_equals_the_per_instance_count(self, corpus):
        table = cooccurrence_stats(corpus)
        got = (table.counts, table.emotion_totals, table.component_totals)
        assert got == per_instance_cooccurrence(corpus)
        assert all(type(v) is int for row in table.counts.values() for v in row)
        assert all(type(v) is int for v in [*table.emotion_totals.values(), *table.component_totals])
        assert (table.emotions, table.corpus_size) == (corpus.emotion_inventory, len(corpus))

    def test_bundled_corpus_matches_precomputed_counts(self, data_dir):
        corpus = load_corpus(data_dir / "synthetic_tec.jsonl")
        expected = json.loads((data_dir / "synthetic_tec_stats.json").read_text())
        table = cooccurrence_stats(corpus)
        assert table.corpus_size == expected["corpus_size"]
        assert table.component_totals == expected["component_totals"]
        for emotion in table.emotions:
            assert table.counts[emotion] == expected["counts"][emotion]
            assert table.emotion_totals[emotion] == expected["emotion_totals"][emotion]
            for j in range(len(COMPONENTS)):
                assert (round_half_up(table.percentage(emotion, j))
                        == expected["percentages"][emotion][j])
        for j in range(len(COMPONENTS)):
            assert (round_half_up(table.total_percentage(j))
                    == expected["total_percentages"][j])

    def test_totals_count_instances_not_mentions(self, data_dir):
        corpus = load_corpus(data_dir / "synthetic_reman_1000.jsonl")
        table = cooccurrence_stats(corpus)
        # multi-label: per-emotion counts can exceed the instance totals,
        # the totals row cannot
        for j in range(len(COMPONENTS)):
            manual = sum(1 for i in corpus if i.cpm[j])
            assert table.component_totals[j] == manual
            assert table.component_totals[j] <= len(corpus)
