import json
import logging
import math

import numpy as np
import numpy.testing as npt
import pytest

from dmin.episodes import (DataError, Dataset, Episode, EpisodeConfig,
                           gen_synthetic, load_jsonl_vectors, load_tsv,
                           sample_episode, save_jsonl_vectors, save_tsv,
                           split_base_novel, subset_by_classes)
from oracles import nearest_center_predict


def toy_dataset(num_classes=8, per_class=20, dim=6, seed=0):
    return gen_synthetic(num_classes, per_class, dim, separation=4.0,
                         noise_sigma=1.0, seed=seed)


class TestSampling:
    def test_5way_5shot_10query_is_75_items(self):
        ds = toy_dataset()
        ep = sample_episode(ds, EpisodeConfig(way=5, shot=5, queries=10), 0)
        assert len(ep.support) == 25
        assert len(ep.queries) == 50
        assert len(ep.support) + len(ep.queries) == 75

    def test_5way_1shot(self):
        ep = sample_episode(toy_dataset(),
                            EpisodeConfig(way=5, shot=1, queries=10), 3)
        assert len(ep.support) == 5
        assert len(ep.queries) == 50

    def test_same_seed_and_index_reproduces(self):
        ds = toy_dataset()
        cfg = EpisodeConfig(way=4, shot=2, queries=3, seed=17)
        a = sample_episode(ds, cfg, 5)
        b = sample_episode(ds, cfg, 5)
        assert a.class_ids == b.class_ids
        assert a.support_indices == b.support_indices
        assert a.query_indices == b.query_indices

    def test_different_index_differs(self):
        ds = toy_dataset()
        cfg = EpisodeConfig(way=4, shot=2, queries=3, seed=17)
        a = sample_episode(ds, cfg, 0)
        b = sample_episode(ds, cfg, 1)
        assert (a.class_ids != b.class_ids
                or a.support_indices != b.support_indices)

    def test_support_query_disjoint_and_labels_dense(self):
        ds = toy_dataset()
        cfg = EpisodeConfig(way=5, shot=3, queries=4, seed=2)
        for idx in range(25):
            ep = sample_episode(ds, cfg, idx)
            sup = set(ep.support_indices)
            qry = set(ep.query_indices)
            assert len(sup) == 15 and len(qry) == 20
            assert not sup & qry
            assert sorted({lab for lab, _ in ep.support}) == list(range(5))
            assert sorted({lab for lab, _ in ep.queries}) == list(range(5))
            assert len(set(ep.class_ids)) == 5

    def test_local_labels_map_to_consistent_classes(self):
        ds = toy_dataset()
        ep = sample_episode(ds, EpisodeConfig(way=3, shot=2, queries=2), 7)
        for local, idx in zip([l for l, _ in ep.support],
                              ep.support_indices):
            assert ds.labels[idx] == ep.class_ids[local]
        for local, idx in zip([l for l, _ in ep.queries], ep.query_indices):
            assert ds.labels[idx] == ep.class_ids[local]

    def test_insufficient_classes_error(self):
        ds = toy_dataset(num_classes=3)
        with pytest.raises(DataError):
            sample_episode(ds, EpisodeConfig(way=5, shot=1, queries=1), 0)

    def test_small_classes_excluded(self):
        # 4 classes but only 3 have K+L items: way=4 must fail, way=3 works
        payloads = [np.zeros(2)] * 13
        labels = [0] * 4 + [1] * 4 + [2] * 4 + [3]
        ds = Dataset(payloads=payloads, labels=labels,
                     class_names=["a", "b", "c", "d"])
        cfg = EpisodeConfig(way=4, shot=2, queries=2)
        with pytest.raises(DataError):
            sample_episode(ds, cfg, 0)
        ep = sample_episode(ds, EpisodeConfig(way=3, shot=2, queries=2), 0)
        assert 3 not in ep.class_ids

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EpisodeConfig(way=1)
        with pytest.raises(ValueError):
            EpisodeConfig(shot=0)
        with pytest.raises(ValueError):
            EpisodeConfig(queries=0)
        with pytest.raises(ValueError):
            sample_episode(toy_dataset(), EpisodeConfig(), -1)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_beyond_64_bits_is_refused(self, seed):
        with pytest.raises(ValueError, match=rf"^seed must be a 64-bit "
                                             rf"unsigned int, got {seed}$"):
            EpisodeConfig(seed=seed)


class TestFromItems:
    """``Episode.from_items`` refuses a malformed episode when it is
    built, with one line, and holds its items in a source of its own."""

    @staticmethod
    def items(labels, dim=4):
        return [(lab, np.full(dim, 1.0 + k)) for k, lab in enumerate(labels)]

    @pytest.mark.parametrize("support, queries, message", [
        # 12 supports labelled 0-3 in a 3-class episode
        ([0, 1, 2, 3] * 3, [0, 1, 2], "^label 3 out of range for 3 classes$"),
        ([0, 1, 2], [0, 3], "^label 3 out of range for 3 classes$"),
        ([0, 1, 2], [-1, 0], "^label -1 out of range for 3 classes$"),
        ([0, -1, 2], [0], "^label -1 out of range for 3 classes$"),
        ([0, 1, 0, 1], [0, 1], "^class 2 has no support$"),
        ([], [0, 1], "^class 0 has no support$"),
        ([0, 1, 2], [], "^an episode needs at least one query$"),
        ([0, 1, 2, 2], [0], r"^an episode needs the same number of shots "
                            r"in every class, got \[1, 1, 2\]$"),
        ([0, 1.7, 2], [0], r"^label 1.7 is not an integer$"),
        ([0, 1, 2], [0.2], r"^label 0.2 is not an integer$"),
        ([True, 1, 2], [0], r"^label True is not an integer$"),
    ])
    def test_a_malformed_episode_is_refused(self, support, queries,
                                            message):
        for text in (False, True):
            make = ((lambda labs: [(lab, f"w{lab}") for lab in labs])
                    if text else self.items)
            with pytest.raises(ValueError, match=message):
                Episode.from_items((7, 8, 9), make(support), make(queries))

    def test_a_label_is_an_integer_of_any_dtype(self):
        with pytest.raises(ValueError,
                           match=r"^label 1.7 is not an integer$") as err:
            Episode.from_items((0, 1), [(0, "a"), (1.7, "b")], [(0.2, "c")])
        assert type(err.value) is ValueError
        # no label at all is not a float label
        with pytest.raises(ValueError,
                           match="^an episode needs at least one query$"):
            Episode.from_items((0, 1), [], [])
        ep = Episode.from_items((0, 1), [(np.int32(1), "b"),
                                         (np.uint8(0), "a")],
                                [(np.uint64(1), "c")])
        assert ep.support == [(0, "a"), (1, "b")]
        assert ep.labels == (1,) and type(ep.labels[0]) is int

    def test_supports_are_held_by_class(self):
        support, queries = self.items([1, 0, 2, 0, 1, 2]), self.items([2, 0])
        ep = Episode.from_items((5, 3, 4), support, queries)
        assert ep.class_ids == (5, 3, 4)
        assert ep.support_at.tolist() == [[1, 3], [0, 4], [2, 5]]
        assert ep.support_indices == [1, 3, 0, 4, 2, 5]
        assert ep.query_indices == [6, 7] and ep.labels == (2, 0)
        assert [lab for lab, _ in ep.support] == [0, 0, 1, 1, 2, 2]
        assert [p[0] for _, p in ep.support] == [2.0, 4.0, 1.0, 5.0, 3.0,
                                                 6.0]
        assert [(lab, p[0]) for lab, p in ep.queries] == [(2, 1.0), (0, 2.0)]
        assert isinstance(ep.source, np.ndarray)
        assert ep.source.shape == (8, 4) and not ep.source.flags.writeable
        text = Episode.from_items((0, 1), [(1, "b"), (0, "a")], [(0, "c")])
        assert text.source == ["b", "a", "c"]
        assert text.support == [(0, "a"), (1, "b")]

    def test_vector_payloads_are_checked_as_a_dataset_checks_them(self):
        for bad, message in ((np.zeros(5), "different shapes"),
                             (np.zeros((4, 1)), "different shapes"),
                             (np.array([1.0, np.nan, 0.0, 0.0]),
                              "vector payload 2 is not finite")):
            support = self.items([0, 1])
            with pytest.raises(DataError, match=message):
                Episode.from_items((0, 1), support, [(1, bad)])

    def test_returned_lists_are_made_on_each_read(self):
        ds = toy_dataset()
        drawn = sample_episode(ds, EpisodeConfig(way=3, shot=2, queries=2), 1)
        built = Episode.from_items(drawn.class_ids, drawn.support,
                                   drawn.queries)
        for ep in (drawn, built):
            want = [ep.support, ep.queries, ep.support_indices,
                    ep.query_indices]
            support, queries = ep.support, ep.queries
            support.pop()
            queries[0] = (2, np.zeros(6))
            ep.support_indices.append(0)
            got = [ep.support, ep.queries, ep.support_indices,
                   ep.query_indices]
            assert len(got[0]) == 6 and len(got[1]) == 6
            assert all(a[0] == b[0] and np.array_equal(a[1], b[1])
                       for a, b in zip(got[0] + got[1], want[0] + want[1]))
            assert got[2:] == want[2:]
            for prop in ("support", "queries", "support_indices",
                         "query_indices"):
                with pytest.raises(AttributeError):
                    setattr(ep, prop, [])


class TestTsv:
    def test_two_line_file(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("sports\tthe game yesterday\nmusic\tnew album out\n",
                     encoding="utf-8")
        ds = load_tsv(p)
        assert ds.num_classes == 2
        assert ds.class_names == ["sports", "music"]
        assert ds.payloads == ["the game yesterday", "new album out"]

    def test_first_appearance_order(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("b\tone\na\ttwo\nb\tthree\n", encoding="utf-8")
        ds = load_tsv(p)
        assert ds.class_names == ["b", "a"]
        assert ds.labels == [0, 1, 0]

    def test_missing_tab_names_line(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("ok\tfine\nbroken line\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            load_tsv(p)

    def test_blank_line_skipped(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("a\tone\n\nb\ttwo\n", encoding="utf-8")
        ds = load_tsv(p)
        assert ds.payloads == ["one", "two"] and ds.labels == [0, 1]

    def test_save_tsv_refuses_vectors(self, tmp_path):
        with pytest.raises(DataError, match="^save_tsv needs text payloads$"):
            save_tsv(toy_dataset(), tmp_path / "d.tsv")
        assert not (tmp_path / "d.tsv").exists()

    def test_duplicate_texts_kept(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("a\tsame\na\tsame\n", encoding="utf-8")
        assert load_tsv(p).num_items == 2

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("", encoding="utf-8")
        with pytest.raises(DataError):
            load_tsv(p)

    def test_round_trip(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("x\thello there\ny\tgood bye\nx\tanother one\n",
                     encoding="utf-8")
        ds = load_tsv(p)
        q = tmp_path / "copy.tsv"
        save_tsv(ds, q)
        again = load_tsv(q)
        assert again.payloads == ds.payloads
        assert again.labels == ds.labels
        assert again.class_names == ds.class_names
        assert q.read_bytes() == p.read_bytes()


class TestJsonl:
    def write(self, tmp_path, lines):
        p = tmp_path / "d.jsonl"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return p

    def test_two_records(self, tmp_path):
        p = self.write(tmp_path, [
            json.dumps({"label": "a", "vector": [1, 2, 3, 4]}),
            json.dumps({"label": "b", "vector": [5, 6, 7, 8]}),
        ])
        ds = load_jsonl_vectors(p)
        assert ds.dim == 4
        assert ds.num_classes == 2
        npt.assert_array_equal(ds.payloads[1], [5.0, 6.0, 7.0, 8.0])

    def test_mixed_dims_rejected(self, tmp_path):
        p = self.write(tmp_path, [
            json.dumps({"label": "a", "vector": [1, 2, 3, 4]}),
            json.dumps({"label": "b", "vector": [5, 6, 7, 8, 9]}),
        ])
        with pytest.raises(DataError, match="line 2"):
            load_jsonl_vectors(p)

    def test_non_numeric_rejected(self, tmp_path):
        p = self.write(tmp_path, [
            json.dumps({"label": "a", "vector": [1, "x", 3]}),
        ])
        with pytest.raises(DataError, match="numbers"):
            load_jsonl_vectors(p)

    def test_blank_lines_skipped_with_warning(self, tmp_path, caplog):
        p = self.write(tmp_path, [
            json.dumps({"label": "a", "vector": [1.0, 2.0]}),
            "",
            "",
            json.dumps({"label": "a", "vector": [3.0, 4.0]}),
        ])
        with caplog.at_level(logging.WARNING, logger="dmin.episodes"):
            ds = load_jsonl_vectors(p)
        assert ds.num_items == 2
        assert any("2 blank" in r.message for r in caplog.records)

    @pytest.mark.parametrize("record", [
        {"label": "a"}, {"vector": [1.0, 2.0]}, [1.0, 2.0]])
    def test_record_without_label_or_vector_names_line(self, tmp_path,
                                                       record):
        p = self.write(tmp_path, [
            json.dumps({"label": "a", "vector": [1.0, 2.0]}),
            json.dumps(record)])
        with pytest.raises(DataError) as err:
            load_jsonl_vectors(p)
        assert str(err.value) == (f"{p}: line 2: expected keys 'label' "
                                  f"and 'vector'")

    def test_blank_lines_only_is_no_records(self, tmp_path):
        p = self.write(tmp_path, ["", "   ", ""])
        with pytest.raises(DataError) as err:
            load_jsonl_vectors(p)
        assert str(err.value) == f"{p}: no records"

    def test_save_refuses_text(self, tmp_path):
        ds = Dataset(payloads=["a b"], labels=[0], class_names=["x"])
        with pytest.raises(DataError,
                           match="^save_jsonl_vectors needs vector payloads$"):
            save_jsonl_vectors(ds, tmp_path / "d.jsonl")
        assert not (tmp_path / "d.jsonl").exists()

    def test_invalid_json_names_line(self, tmp_path):
        p = self.write(tmp_path, ["{not json"])
        with pytest.raises(DataError, match="line 1"):
            load_jsonl_vectors(p)

    def test_round_trip(self, tmp_path):
        ds = toy_dataset(num_classes=3, per_class=4, dim=5)
        p = tmp_path / "out.jsonl"
        save_jsonl_vectors(ds, p)
        again = load_jsonl_vectors(p)
        assert again.labels == ds.labels
        assert again.class_names == ds.class_names
        for a, b in zip(again.payloads, ds.payloads):
            npt.assert_array_equal(a, b)


class TestSynthetic:
    def test_fixed_seed_identical(self):
        a = gen_synthetic(4, 6, 8, 3.0, 1.0, seed=5)
        b = gen_synthetic(4, 6, 8, 3.0, 1.0, seed=5)
        for x, y in zip(a.payloads, b.payloads):
            npt.assert_array_equal(x, y)
        assert a.labels == b.labels

    def test_tiny_noise_collapses_to_centers(self):
        ds = gen_synthetic(3, 5, 4, separation=2.0, noise_sigma=1e-12, seed=9)
        for c in range(3):
            rows = np.stack([ds.payloads[i] for i in ds.by_class[c]])
            assert np.ptp(rows, axis=0).max() < 1e-9

    def test_centers_on_sphere(self):
        ds = gen_synthetic(5, 200, 16, separation=50.0, noise_sigma=1.0,
                           seed=3)
        for c in range(5):
            mean = np.mean([ds.payloads[i] for i in ds.by_class[c]], axis=0)
            assert np.linalg.norm(mean) == pytest.approx(50.0, rel=0.05)

    def test_nearest_center_accuracy_at_separation_6(self):
        ds = gen_synthetic(10, 60, 32, separation=6.0, noise_sigma=1.0,
                           seed=1)
        correct = total = 0
        for c in range(10):
            idx = ds.by_class[c]
            centers = [np.mean([ds.payloads[i] for i in ds.by_class[k][:50]],
                               axis=0) for k in range(10)]
            for i in idx[50:]:
                total += 1
                correct += nearest_center_predict(centers,
                                                  ds.payloads[i]) == c
        assert correct / total >= 0.99

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_synthetic(3, 5, 4, separation=0.0, noise_sigma=1.0, seed=0)
        with pytest.raises(ValueError):
            gen_synthetic(3, 5, 4, separation=1.0, noise_sigma=0.0, seed=0)
        with pytest.raises(ValueError):
            gen_synthetic(0, 5, 4, separation=1.0, noise_sigma=1.0, seed=0)

    @pytest.mark.parametrize("sep,sigma", [
        (math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan),
        (1e200, 1e200), (1.0, 1e308)])
    def test_refuses_what_gives_non_finite_vectors(self, sep, sigma):
        with pytest.raises(ValueError, match="finite|float range"):
            gen_synthetic(3, 5, 4, separation=sep, noise_sigma=sigma,
                          seed=0)


class TestSplit:
    def test_30_20_split(self):
        ds = toy_dataset(num_classes=30, per_class=3)
        base, novel = split_base_novel(ds, 20)
        assert base.num_classes == 20
        assert novel.num_classes == 10
        assert not set(base.class_names) & set(novel.class_names)
        assert set(base.class_names) | set(novel.class_names) == set(
            ds.class_names)

    def test_one_novel_class_cannot_support_5way(self):
        ds = toy_dataset(num_classes=30, per_class=20)
        _, novel = split_base_novel(ds, 29)
        assert novel.num_classes == 1
        with pytest.raises(DataError):
            sample_episode(novel, EpisodeConfig(way=5, shot=1, queries=1), 0)

    def test_seeded_determinism(self):
        ds = toy_dataset(num_classes=12, per_class=4)
        a1, n1 = split_base_novel(ds, 7, seed=4)
        a2, n2 = split_base_novel(ds, 7, seed=4)
        assert a1.class_names == a2.class_names
        assert n1.class_names == n2.class_names

    def test_out_of_range(self):
        ds = toy_dataset(num_classes=5, per_class=3)
        with pytest.raises(ValueError):
            split_base_novel(ds, 0)
        with pytest.raises(ValueError):
            split_base_novel(ds, 5)

    @pytest.mark.parametrize("class_id", [6, -1])
    def test_subset_refuses_an_unknown_class(self, class_id):
        ds = toy_dataset(num_classes=6, per_class=3)
        with pytest.raises(ValueError,
                           match=rf"^class id {class_id} out of range$"):
            subset_by_classes(ds, [0, class_id])

    def test_subset_relabels_densely(self):
        ds = toy_dataset(num_classes=6, per_class=3)
        sub = subset_by_classes(ds, [4, 1])
        assert sub.num_classes == 2
        assert sub.class_names == [ds.class_names[4], ds.class_names[1]]
        assert sorted(set(sub.labels)) == [0, 1]
        assert sub.num_items == 6


class TestDatasetValidation:
    def test_rejects_empty(self):
        with pytest.raises(DataError):
            Dataset(payloads=[], labels=[], class_names=[])

    def test_rejects_class_without_items(self):
        with pytest.raises(DataError):
            Dataset(payloads=["x"], labels=[0], class_names=["a", "ghost"])

    def test_rejects_out_of_range_label(self):
        with pytest.raises(DataError):
            Dataset(payloads=["x"], labels=[2], class_names=["a"])

    @pytest.mark.parametrize("payloads, labels", [
        (["a b", "c d"], [0]), (["a b"], [0, 0]),
        (np.ones((3, 2)), [0, 0])])
    def test_rejects_payload_and_label_counts_that_differ(self, payloads,
                                                          labels):
        with pytest.raises(DataError, match=rf"^{len(payloads)} payloads "
                                            rf"but {len(labels)} labels$"):
            Dataset(payloads=payloads, labels=labels, class_names=["a"])

    # numpy reads a float or a bool as a number, and int() truncates one
    @pytest.mark.parametrize("labels, message", [
        ([0, 1.7], "label 1.7 is not an integer"),
        ([0, 1.0], "label 1.0 is not an integer"),
        ([True, False], "label True is not an integer"),
        ([1, True], "label True is not an integer"),
        ([np.int64(1), np.True_], "label np.True_ is not an integer"),
        (np.array([0.0, 1.0]), "label 0.0 is not an integer"),
        (np.array([True, False]), "label True is not an integer"),
        (["0", "1"], "label '0' is not an integer"),
        ([0, None], "label None is not an integer"),
        ([[0], [1]], r"label \[0\] is not an integer"),
        ([2 ** 70, 0.5], f"label {2 ** 70} out of range for 2 classes"),
    ])
    def test_rejects_a_label_that_is_not_an_integer(self, labels, message):
        for payloads in (["a b", "c d"], np.ones((2, 3))):
            with pytest.raises(DataError, match=f"^{message}$"):
                Dataset(payloads=payloads, labels=labels,
                        class_names=["x", "y"])

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64,
                                       np.uint8, np.uint64])
    def test_labels_of_any_integer_dtype(self, dtype):
        for labels in (np.array([1, 0, 1], dtype),
                       [dtype(1), 0, np.int64(1)]):
            ds = Dataset(payloads=["a b", "c d", "e f"], labels=labels,
                         class_names=["x", "y"])
            assert ds.labels == [1, 0, 1]
            assert all(type(c) is int for c in ds.labels)
            npt.assert_array_equal(ds.class_sizes, [1, 2])
            npt.assert_array_equal(ds.by_class[1], [0, 2])
            npt.assert_array_equal(ds.eligible_classes(2), [1])

    # each malformed vector set is refused with one line, which the CLI
    # prints before exiting 2
    @pytest.mark.parametrize("payloads, message", [
        ([np.zeros(3), np.ones(4)], r"different shapes \(3,\) and \(4,\)"),
        ([np.ones(3), np.array([1.0, np.nan, 2.0])],
         "vector payload 1 is not finite"),
        ([np.arange(3), np.arange(3) + 1], "floating-point.*got int64"),
        ([np.ones((1, 3)), np.ones((1, 3))], r"of shape \(1, 3\)"),
        ([np.ones(3), "text"], r"different shapes \(\) and \(3,\)"),
    ], ids=["ragged", "nan", "integer", "row_matrix", "text"])
    def test_refuses_malformed_vectors(self, payloads, message):
        with pytest.raises(DataError, match=message) as err:
            Dataset(payloads=payloads, labels=[0, 1], class_names=["a", "b"])
        assert "\n" not in str(err.value)

    # a text dataset holds non-blank strings only: a vector among them
    # would reach Model.encode and pass through as an embedding
    @pytest.mark.parametrize("payloads, message", [
        (["a b", np.zeros(3)], "^text payload 1 is of type ndarray, not str$"),
        (["a b", 3], "^text payload 1 is of type int, not str$"),
        (["a b", "   "], "^text payload 1 is blank$"),
        ([3, "a b"], "^text payload 0 is of type int, not str$"),
    ], ids=["vector", "int", "blank", "int_first"])
    def test_refuses_malformed_text(self, payloads, message):
        with pytest.raises(DataError, match=message):
            Dataset(payloads=payloads, labels=[0, 1], class_names=["x", "y"])

    def test_vectors_are_held_once_and_read_only(self):
        rows = [np.full(4, float(i)) for i in range(6)]
        ds = Dataset(payloads=rows, labels=[0, 1] * 3, class_names=["a", "b"])
        assert isinstance(ds.payloads, np.ndarray)
        assert ds.payloads.shape == (6, 4) and ds.dim == 4
        assert ds.payloads.dtype == np.float64
        assert (ds.payloads.flags.c_contiguous
                and not ds.payloads.flags.writeable)
        rows[0][0] = 7.0  # the dataset keeps a copy of its own
        assert ds.payloads[0][0] == 0.0
        npt.assert_array_equal(ds.by_class[1], [1, 3, 5])
        sub = subset_by_classes(ds, [1])
        assert not sub.payloads.flags.writeable
        npt.assert_array_equal(sub.payloads, ds.payloads[[1, 3, 5]])

    def test_equality_is_identity(self):
        # field-wise == would ask numpy for the truth of an array
        a = gen_synthetic(3, 4, 5, 6.0, 1.0, seed=1)
        b = gen_synthetic(3, 4, 5, 6.0, 1.0, seed=1)
        text = Dataset(payloads=["a b", "c d"], labels=[0, 1],
                       class_names=["x", "y"])
        assert a == a and text == text
        assert not a == b and a != b and a != text
        assert len({a, b, text}) == 3
