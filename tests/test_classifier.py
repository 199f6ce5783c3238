import math
import re

import numpy as np
import numpy.testing as npt
import pytest

from dmin import numerics as nm
from dmin.classifier import (CosineClassifier, base_scores, few_scores,
                             init_classifier_arrays, loss_episode,
                             loss_supervised)


def make_clf(w, tau=10.0):
    return CosineClassifier(nm.constant(np.asarray(w, dtype=float)),
                            nm.constant(np.array(math.log(tau))))


def normalize_dot_oracle(w, e, tau):
    w = np.asarray(w, dtype=float)
    e = np.asarray(e, dtype=float)
    wn = w / np.linalg.norm(w, axis=1, keepdims=True)
    return tau * (wn @ (e / np.linalg.norm(e)))


def test_classifier_refuses_arrays_of_the_wrong_rank():
    with pytest.raises(ValueError,
                       match=r"^w_base must be rank-2, got shape \(4,\)$"):
        CosineClassifier(nm.constant(np.ones(4)), nm.constant(np.array(0.0)))
    with pytest.raises(ValueError,
                       match=r"^log_tau must be a scalar, got shape \(1,\)$"):
        CosineClassifier(nm.constant(np.ones((2, 4))),
                         nm.constant(np.zeros(1)))


class TestBaseScores:
    def test_matching_row_scores_tau(self):
        w = np.eye(4, 6)
        clf = make_clf(w, tau=10.0)
        s = base_scores(clf, nm.constant(w[2])).array
        npt.assert_allclose(s, [0.0, 0.0, 10.0, 0.0], atol=1e-12)

    def test_input_scale_invariance(self):
        rng = np.random.default_rng(6)
        clf = make_clf(rng.normal(size=(5, 8)))
        e = rng.normal(size=8)
        npt.assert_allclose(base_scores(clf, nm.constant(e)).array,
                            base_scores(clf, nm.constant(5.0 * e)).array,
                            atol=1e-12)

    def test_fixture_matches_normalize_then_dot(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(4, 8))
        e = rng.normal(size=8)
        got = base_scores(make_clf(w, tau=10.0), nm.constant(e)).array
        npt.assert_allclose(got, normalize_dot_oracle(w, e, 10.0), atol=1e-12)

    def test_row_scaling_preserves_scores_and_argmax(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(5, 6))
        e = rng.normal(size=6)
        base = base_scores(make_clf(w), nm.constant(e)).array
        w2 = w.copy()
        w2[3] *= 7.5
        scaled = base_scores(make_clf(w2), nm.constant(e)).array
        npt.assert_allclose(scaled, base, atol=1e-12)
        assert np.argmax(scaled) == np.argmax(base)

    def test_tau_doubling_doubles_scores(self):
        rng = np.random.default_rng(9)
        w = rng.normal(size=(4, 5))
        e = rng.normal(size=5)
        s1 = base_scores(make_clf(w, tau=10.0), nm.constant(e)).array
        s2 = base_scores(make_clf(w, tau=20.0), nm.constant(e)).array
        npt.assert_allclose(s2, 2.0 * s1, rtol=1e-12)

    def test_zero_input_rejected(self):
        clf = make_clf(np.eye(3))
        with pytest.raises(ValueError):
            base_scores(clf, nm.constant(np.zeros(3)))

    def test_stack_is_scored_row_by_row(self):
        rng = np.random.default_rng(10)
        w = rng.normal(size=(5, 8))
        e = rng.normal(size=(4, 8))
        got = base_scores(make_clf(w), nm.constant(e)).array
        assert got.shape == (4, 5)
        for row, want in zip(got, e):
            npt.assert_allclose(row, base_scores(make_clf(w),
                                                 nm.constant(want)).array,
                                rtol=0, atol=1e-14)

    @pytest.mark.parametrize("rows", [
        [1e-13, 0.0, -1e-13],
        [[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]],
        [[1.0, 2.0, 3.0], [1e-13, 0.0, 0.0], [3.0, 2.0, 1.0]]])
    def test_near_zero_row_rejected(self, rows):
        with pytest.raises(ValueError, match="zero norm"):
            base_scores(make_clf(np.eye(3)), nm.constant(rows))

    def test_wrong_input_shape_rejected(self):
        for shape in ((4,), (2, 4), (2, 1, 3), ()):
            with pytest.raises(ValueError, match="classifier expects"):
                base_scores(make_clf(np.eye(3)), nm.constant(np.ones(shape)))

    def test_tau_positive_for_any_log_tau(self):
        for log_tau in (-40.0, -1.0, 0.0, 3.0):
            clf = CosineClassifier(nm.constant(np.eye(2)),
                                   nm.constant(np.array(log_tau)))
            assert clf.tau.item() > 0.0


class TestFewScores:
    def test_matching_class_vector_wins(self):
        clf = make_clf(np.eye(2, 4))  # w_base unused by few_scores
        vecs = nm.constant(np.eye(3, 4))
        s = few_scores(clf, nm.constant(np.eye(3, 4)[1]), vecs).array
        assert np.argmax(s) == 1
        npt.assert_allclose(s, [0.0, 10.0, 0.0], atol=1e-12)

    def test_identical_class_vectors_give_uniform_scores(self):
        rng = np.random.default_rng(10)
        v = rng.normal(size=6)
        clf = make_clf(np.eye(2, 6))
        s = few_scores(clf, nm.constant(rng.normal(size=6)),
                       nm.constant(np.tile(v, (4, 1)))).array
        npt.assert_allclose(s, np.full(4, s[0]), atol=1e-12)

    def test_5way_fixture_matches_oracle(self):
        rng = np.random.default_rng(9)
        vecs = rng.normal(size=(5, 12))
        q = rng.normal(size=12)
        clf = make_clf(np.eye(2, 12), tau=10.0)
        got = few_scores(clf, nm.constant(q), nm.constant(vecs)).array
        npt.assert_allclose(got, normalize_dot_oracle(vecs, q, 10.0),
                            atol=1e-12)

    def test_errors(self):
        clf = make_clf(np.eye(2, 4))
        with pytest.raises(ValueError):
            few_scores(clf, nm.constant(np.ones(4)),
                       nm.constant(np.ones((1, 4))))
        with pytest.raises(ValueError):
            few_scores(clf, nm.constant(np.zeros(4)),
                       nm.constant(np.ones((2, 4))))

    def test_a_batch_of_episodes_scores_each_as_alone(self):
        """(E, Q, d) queries against (E, Q, C, d) or (E, 1, C, d) class
        vectors: each episode's slice has the bytes it has alone."""
        rng = np.random.default_rng(12)
        clf = make_clf(np.eye(2, 6))
        queries = rng.normal(size=(3, 4, 6))
        for own in (rng.normal(size=(3, 4, 5, 6)),
                    rng.normal(size=(3, 1, 5, 6))):
            got = few_scores(clf, nm.constant(queries),
                             nm.constant(own)).array
            assert got.shape == (3, 4, 5)
            for e in range(3):
                vecs = own[e] if own.shape[1] > 1 else own[e, 0]
                want = few_scores(clf, nm.constant(queries[e]),
                                  nm.constant(vecs)).array
                assert got[e].tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="class vectors have shape"):
            few_scores(clf, nm.constant(queries),
                       nm.constant(rng.normal(size=(2, 4, 5, 6))))


class TestLossSupervised:
    def test_uniform_scores_give_log_c(self):
        loss = loss_supervised(nm.constant(np.zeros(5)), 2)
        assert loss.item() == pytest.approx(math.log(5.0), abs=1e-12)

    def test_dominant_margin_saturates(self):
        scores = np.zeros(5)
        scores[1] = 50.0
        assert loss_supervised(nm.constant(scores), 1).item() < 1e-20

    def test_gradient_is_softmax_minus_onehot(self):
        tape = nm.Tape()
        scores = tape.leaf(np.zeros(4))
        grads = nm.backward(tape, loss_supervised(scores, 3))
        npt.assert_allclose(grads[scores.node_id],
                            [0.25, 0.25, 0.25, -0.75], atol=1e-12)

    def test_monotone_decrease_with_margin(self):
        losses = []
        for margin in (0.0, 1.0, 2.0, 5.0, 10.0):
            s = np.zeros(3)
            s[0] = margin
            losses.append(loss_supervised(nm.constant(s), 0).item())
        assert all(a > b for a, b in zip(losses, losses[1:]))
        assert all(v >= 0.0 for v in losses)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            loss_supervised(nm.constant(np.zeros(3)), 3)
        with pytest.raises(ValueError):
            loss_supervised(nm.constant(np.zeros(3)), -1)

    def test_a_stack_of_rows_gives_the_mean_of_single_rows(self):
        rng = np.random.default_rng(17)
        scores = rng.normal(0.0, 3.0, (6, 4))
        labels = [0, 3, 1, 1, 2, 0]
        singles = [loss_supervised(nm.constant(s), lab).item()
                   for s, lab in zip(scores, labels)]
        got = loss_supervised(nm.constant(scores), labels).item()
        assert got == pytest.approx(math.fsum(singles) / 6, abs=1e-15)
        with pytest.raises(ValueError):
            loss_supervised(nm.constant(scores), labels[:5])


class TestLossEpisode:
    def test_perfect_predictions_give_zero(self):
        scores, labels = nm.constant(np.eye(3) * 60.0), [0, 1, 2]
        assert loss_episode(scores, labels).item() == pytest.approx(0.0,
                                                                    abs=1e-15)

    @pytest.mark.parametrize("shape, labels", [
        ((3, 2), [0, 1]), ((2, 2), [0, 1, 1]), ((2,), [0, 1])])
    def test_scores_and_labels_must_agree(self, shape, labels):
        with pytest.raises(ValueError, match=(
                rf"^scores of shape {re.escape(str(shape))} but "
                rf"{len(labels)} labels$")):
            loss_episode(nm.constant(np.zeros(shape)), labels)

    def test_uniform_predictions_give_log_c(self):
        scores = nm.constant(np.zeros((10, 5)))
        labels = [q % 5 for q in range(10)]
        assert loss_episode(scores, labels).item() == pytest.approx(
            math.log(5.0), abs=1e-12)

    def test_two_class_averaging(self):
        hot = np.array([60.0, 0.0])
        scores = nm.constant(np.stack([np.zeros(2), hot]))
        labels = [0, 0]
        # same class: plain mean
        assert loss_episode(scores, labels).item() == pytest.approx(
            math.log(2.0) / 2.0, abs=1e-12)
        # split across classes: mean of per-class means, same value here
        scores = nm.constant(np.stack([np.zeros(2), hot[::-1]]))
        assert loss_episode(scores, [0, 1]).item() == pytest.approx(
            math.log(2.0) / 2.0, abs=1e-12)

    def test_uneven_classes_weighted_per_class(self):
        # class 0 has two uniform queries (ln2 each), class 1 has one
        # saturated query (~0): mean of means is ln2/2, flat mean is 2ln2/3
        scores = nm.constant([[0.0, 0.0], [0.0, 0.0], [0.0, 60.0]])
        labels = [0, 0, 1]
        assert loss_episode(scores, labels).item() == pytest.approx(
            math.log(2.0) / 2.0, abs=1e-12)

    def test_single_query_equals_supervised(self):
        rng = np.random.default_rng(15)
        s = rng.normal(size=4)
        got = loss_episode(nm.constant(s[None]), [2]).item()
        assert got == pytest.approx(
            loss_supervised(nm.constant(s), 2).item(), abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            loss_episode(nm.constant(np.zeros((0, 2))), [])

    def test_uneven_classes_match_an_exact_per_class_mean(self):
        # losses near log(classes) < 2, where 1e-15 is over 4 ulps; the
        # sum is exactly rounded, so the order of the queries is moot
        rng = np.random.default_rng(16)
        for _ in range(100):
            classes = int(rng.integers(2, 6))
            labels = list(rng.integers(0, classes, size=int(
                rng.integers(1, 60))))
            scores = rng.normal(0.0, 1.0, (len(labels), classes))
            top = scores.max(axis=1, keepdims=True)
            lse = (top + np.log(np.exp(scores - top).sum(axis=1,
                                                          keepdims=True)))
            per_row = lse[:, 0] - scores[np.arange(len(labels)), labels]
            means = [math.fsum(per_row[np.equal(labels, k)]) /
                     np.count_nonzero(np.equal(labels, k))
                     for k in sorted(set(labels))]
            want = math.fsum(means) / len(means)
            got = loss_episode(nm.constant(scores), labels).item()
            assert abs(got - want) <= 1e-15
            perm = rng.permutation(len(labels))
            assert loss_episode(nm.constant(scores[perm]),
                                [labels[i] for i in perm]).item() == got

    def test_gradient_is_weighted_softmax_minus_onehot(self):
        tape = nm.Tape()
        scores = tape.leaf(np.zeros((3, 2)))
        grads = nm.backward(tape, loss_episode(scores, [0, 0, 1]))
        # class 0's two queries weigh 1/4 each, class 1's one query 1/2
        npt.assert_allclose(grads[scores.node_id],
                            [[-0.125, 0.125], [-0.125, 0.125],
                             [0.25, -0.25]], atol=1e-15)


class TestGradientsFlow:
    def test_w_base_and_tau_receive_gradients(self):
        rng = np.random.default_rng(20)
        tape = nm.Tape()
        w = tape.leaf(rng.normal(size=(4, 6)))
        log_tau = tape.leaf(np.array(math.log(10.0)))
        clf = CosineClassifier(w, log_tau)
        loss = loss_supervised(base_scores(clf, nm.constant(rng.normal(size=6))), 1)
        grads = nm.backward(tape, loss)
        assert np.any(grads[w.node_id] != 0.0)
        assert grads[log_tau.node_id].shape == ()
        assert np.isfinite(grads[log_tau.node_id])

    def test_a_forward_pass_records_one_exp(self):
        rng = np.random.default_rng(21)
        tape = nm.Tape()
        clf = CosineClassifier(tape.leaf(rng.normal(size=(4, 6))),
                               tape.leaf(np.array(math.log(10.0))))
        rows = [base_scores(clf, nm.constant(rng.normal(size=6)))
                for _ in range(3)]
        rows.append(few_scores(clf, nm.constant(rng.normal(size=6)),
                               nm.constant(rng.normal(size=(4, 6)))))
        grads = nm.backward(tape, loss_supervised(nm.stack_rows(rows),
                                                  [0, 1, 2, 3]))
        assert [node.op for node in tape.nodes].count("exp") == 1
        assert grads[clf.log_tau.node_id] != 0.0

    def test_init_arrays(self):
        arrays = init_classifier_arrays(7, 16, np.random.default_rng(2))
        assert arrays["w_base"].shape == (7, 16)
        assert arrays["log_tau"] == pytest.approx(math.log(10.0))
        assert abs(arrays["w_base"]).max() < 0.2
