import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from dmin import numerics as nm
from dmin.encoder import (MAX_PROJECTION_ENTRIES, MAX_VOCAB_BUCKETS,
                          EncoderConfig, fnv1a64, hash_counts,
                          init_encoder_arrays, token_bucket)
from dmin.model import (CheckpointError, ModelConfig, init_model,
                        load_checkpoint, save_checkpoint)
from dmin.routing import RoutingConfig
from oracles import fnv1a64_reference, hash_encode_reference


def text_model(d, buckets, kind="feature_hash"):
    """A model of embedding size ``d`` whose encoder is ``kind``, hashing
    over ``buckets``."""
    rc = RoutingConfig.for_pipeline(d, capsule_count=2)
    return init_model(ModelConfig(
        embed_dim=d, num_base_classes=2, encoder=EncoderConfig(
            kind=kind, embed_dim=d, vocab_buckets=buckets), dmm=rc, qim=rc))


def encode(proj, text):
    """``Model.encode`` of ``text`` with the (d, buckets) projection Tensor
    ``proj``."""
    return text_model(*proj.shape).encode({"enc.projection": proj}, text)


class TestHash:
    def test_empty_input_is_offset_basis(self):
        assert fnv1a64(b"") == 14695981039346656037

    def test_published_reference_vectors(self):
        # from the FNV reference test suite
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    def test_matches_independent_reimplementation(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            data = bytes(rng.integers(0, 256, size=rng.integers(0, 30)))
            assert fnv1a64(data) == fnv1a64_reference(data)

    def test_golden_token_buckets(self):
        got = {t: token_bucket(t, 64) for t in ("the", "cat", "sat", "mat")}
        want = {t: fnv1a64_reference(t.encode()) % 64
                for t in ("the", "cat", "sat", "mat")}
        assert got == want

    def test_counts_normalized(self):
        ids, weights = hash_counts("one two two three three three", 32)
        assert len(ids) == len(weights) > 0 and weights.sum() > 0
        assert np.linalg.norm(weights) == pytest.approx(1.0, abs=1e-12)

    def test_counts_case_fold_and_split(self):
        for got, want in zip(hash_counts("Hello  WORLD", 16),
                             hash_counts("hello world", 16)):
            npt.assert_array_equal(got, want)

    def test_counts_reject_blank(self):
        # the checks run before the per-line memo, so a payload it could
        # not hash still gets the encoder's ValueError
        for bad in ("", "   \t ", None, b"bytes", ["a"]):
            with pytest.raises(ValueError,
                               match="^text must be a non-empty string$"):
                hash_counts(bad, 8)

    def test_counts_are_read_only_and_shared(self):
        ids, weights = hash_counts("a shared line a", 64)
        assert not ids.flags.writeable and not weights.flags.writeable
        again = hash_counts("a shared line a", 64)
        assert again[0] is ids and again[1] is weights

    @settings(max_examples=200, deadline=None)
    @given(words=st.lists(st.text("abAB\u00e9z", min_size=1, max_size=5),
                          min_size=1, max_size=40),
           buckets=st.sampled_from([1, 2, 16, 64, 97, 4096]))
    def test_sparse_counts_are_the_dense_nonzeros(self, words, buckets):
        text = " ".join(words)
        dense = np.zeros(buckets)
        for token in text.lower().split():
            dense[fnv1a64_reference(token.encode("utf-8")) % buckets] += 1.0
        dense = dense / np.linalg.norm(dense)
        ids, weights = hash_counts(text, buckets)
        npt.assert_array_equal(ids, dense.nonzero()[0])
        assert weights.dtype == np.float64
        assert weights.tobytes() == dense[ids].tobytes()


class TestFeatureHashEncoder:
    def make(self, seed=7, V=8, d=4):
        proj = np.random.default_rng(seed).normal(size=(d, V))
        return proj, nm.constant(proj)

    def test_fixture_matches_oracle(self):
        proj, w = self.make(seed=7, V=8, d=4)
        got = encode(w, "a b a").array
        want = hash_encode_reference("a b a", 8, proj)
        npt.assert_allclose(got, want, atol=1e-14, rtol=0)

    def test_deterministic(self):
        _, w = self.make()
        npt.assert_array_equal(encode(w, "same text here").array,
                               encode(w, "same text here").array)

    def test_zero_projection_gives_zero_vector(self):
        npt.assert_array_equal(
            encode(nm.constant(np.zeros((4, 8))), "anything at all").array,
            np.zeros(4))

    def test_output_in_tanh_range(self):
        rng = np.random.default_rng(12)
        w = nm.constant(rng.normal(0.0, 3.0, (6, 32)))
        words = ["alpha", "beta", "gamma", "delta", "epsilon"]
        for _ in range(50):
            text = " ".join(rng.choice(words, size=rng.integers(1, 10)))
            out = encode(w, text).array
            assert out.shape == (6,)
            assert np.all(out > -1.0) and np.all(out < 1.0)

    def test_projection_gradient_flows(self):
        tape = nm.Tape()
        proj = tape.leaf(np.random.default_rng(3).normal(size=(4, 8)))
        out = encode(proj, "a b a")
        grads = nm.backward(tape, nm.dot(out, out))
        g = grads[proj.node_id]
        assert g.shape == (4, 8)
        assert np.any(g != 0.0) and np.all(np.isfinite(g))

    def test_default_shape_matches_oracle(self):
        cfg = EncoderConfig()
        proj = np.random.default_rng(4).normal(
            0.0, 0.5, (cfg.embed_dim, cfg.vocab_buckets))
        for text in ("the striker curled the free kick",
                     "Thunderstorms expected after noon", "a a a b"):
            npt.assert_allclose(encode(nm.constant(proj), text).array,
                                hash_encode_reference(text, 4096, proj),
                                atol=1e-14, rtol=0)

    def test_taped_encode_records_one_embed_node(self):
        rng = np.random.default_rng(5)
        tape = nm.Tape()
        proj = tape.leaf(rng.normal(size=(6, 64)))
        text = "one two two three three three four"
        out = encode(proj, text)
        assert [node.op for node in tape.nodes] == ["leaf", "embed"]
        probe = rng.normal(size=6)
        grad = nm.backward(tape, nm.dot(out, nm.constant(probe)))[proj.node_id]
        # the adjoint of the tanh, from the node's own output, times every
        # bucket's count; the buckets no token hit get exact zeros
        g = probe * (1.0 - out.array * out.array)
        ids, weights = hash_counts(text, 64)
        counts = np.zeros(64)
        counts[ids] = weights
        npt.assert_array_equal(grad, np.outer(g, counts))

    def test_shape_validation(self, tmp_path):
        # the projection is checked where it is written, not per line
        m = text_model(4, 8)
        m.params["enc.projection"] = np.zeros((4, 9))
        save_checkpoint(m, tmp_path / "m.ckpt")
        with pytest.raises(CheckpointError, match=r"parameter "
                           r"'enc.projection' has shape \(4, 9\), config "
                           r"requires \(4, 8\)"):
            load_checkpoint(tmp_path / "m.ckpt")

    @pytest.mark.parametrize("edge", ["repeat", "first", "last"])
    def test_core_gives_embeds_bits_on_hashed_lines(self, edge):
        """``Model.encode``'s unchecked core gives ``embed``'s value and
        VJP column block bit for bit on :func:`hash_counts` output: a
        repeated token, and tokens in the first and the last bucket."""
        words = [f"w{i}" for i in range(2000)]
        first = next(t for t in words if token_bucket(t, 64) == 0)
        last = next(t for t in words if token_bucket(t, 64) == 63)
        text = {"repeat": "to be or not to be", "first": f"{first} x",
                "last": f"y {last} {last}"}[edge]
        ids, weights = hash_counts(text, 64)
        assert {"first": ids[0] == 0, "last": ids[-1] == 63,
                "repeat": weights.max() > weights.min()}[edge]
        rng = np.random.default_rng(8)
        proj, probe = rng.normal(size=(6, 64)), rng.normal(size=6)
        results = []
        for op in (nm.embed, nm._embed, None):
            tape = nm.Tape()
            w = tape.leaf(proj)
            out = (encode(w, text) if op is None else op(w, ids, weights))
            block = out.tape.nodes[out.node_id].vjp(probe)[0]
            results.append((out.array.tobytes(),
                            *(part.tobytes() for part in block)))
        assert results[0] == results[1] == results[2]


class TestEncodeRefusals:
    """``Model.encode`` keeps its refusals on the unchecked core, and
    ``Model.encode_vectors`` its refusal of a wrong dimension."""

    def test_blank_line(self):
        m = text_model(4, 8)
        for bad in ("", "  \t"):
            with pytest.raises(ValueError,
                               match="^text must be a non-empty string$"):
                m.encode(m.tensors(), bad)

    def test_text_on_a_precomputed_model(self):
        m = text_model(4, 8, kind="precomputed")
        with pytest.raises(ValueError, match="^text payloads need a "
                           "feature_hash encoder, model was built with "
                           "'precomputed'$"):
            m.encode(m.tensors(), "a line")

    def test_vector_of_the_wrong_dimension(self):
        m = text_model(4, 8)
        with pytest.raises(ValueError, match=r"^vector payload has shape "
                           r"\(5,\), model expects \(4,\)$"):
            m.encode_vectors(np.ones((2, 5)), [0])


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EncoderConfig(kind="transformer")
        with pytest.raises(ValueError):
            EncoderConfig(embed_dim=1)
        with pytest.raises(ValueError):
            EncoderConfig(embed_dim=64, vocab_buckets=32)

    def test_vocab_buckets_are_bounded(self):
        # a config only: no projection of this size is made
        assert EncoderConfig(vocab_buckets=MAX_VOCAB_BUCKETS).vocab_buckets \
            == 1 << 20
        with pytest.raises(ValueError, match=r"^vocab_buckets must be <= "
                                             r"1048576, got 1099511627776$"):
            EncoderConfig(vocab_buckets=2**40)
        # the precomputed kind has no projection, so its count is unread
        EncoderConfig(kind="precomputed", vocab_buckets=2**40)

    def test_projection_entries_are_bounded(self):
        # configs only: no projection of these sizes is made
        assert EncoderConfig(embed_dim=64, vocab_buckets=MAX_VOCAB_BUCKETS) \
            .embed_dim * MAX_VOCAB_BUCKETS == MAX_PROJECTION_ENTRIES == 1 << 26
        with pytest.raises(ValueError, match=r"^embed_dim \* vocab_buckets "
                                             r"must be <= 67108864, got "
                                             r"68157440$"):
            EncoderConfig(embed_dim=65, vocab_buckets=1 << 20)
        with pytest.raises(ValueError, match=r"^embed_dim \* vocab_buckets "
                                             r"must be <= 67108864, got "
                                             r"1099511627776$"):
            EncoderConfig(embed_dim=2**20, vocab_buckets=2**20)
        # the precomputed kind has no projection
        EncoderConfig(kind="precomputed", embed_dim=2**20,
                      vocab_buckets=2**20)

    def test_init_arrays(self):
        cfg = EncoderConfig(embed_dim=8, vocab_buckets=32)
        arrays = init_encoder_arrays(cfg, np.random.default_rng(1))
        assert arrays["projection"].shape == (8, 32)
        pc = EncoderConfig(kind="precomputed", embed_dim=8)
        assert init_encoder_arrays(pc, np.random.default_rng(1)) == {}
