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

    def test_vectors_are_held_once_and_read_only(self):
        rows = [np.full(4, float(i)) for i in range(6)]
        ds = Dataset(payloads=rows, labels=[0, 1] * 3, class_names=["a", "b"])
        assert ds.vectors.shape == (6, 4) and ds.dim == 4
        assert ds.vectors.flags.c_contiguous and not ds.vectors.flags.writeable
        assert all(p.base is ds.vectors for p in ds.payloads)
        rows[0][0] = 7.0  # the dataset keeps a copy of its own
        assert ds.payloads[0][0] == 0.0
        npt.assert_array_equal(ds.by_class[1], [1, 3, 5])
        sub = subset_by_classes(ds, [1])
        npt.assert_array_equal(sub.vectors, ds.vectors[[1, 3, 5]])
        assert all(p.base is sub.vectors for p in sub.payloads)
