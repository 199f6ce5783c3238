import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from dmin import numerics as nm
from dmin.encoder import (EncoderConfig, FeatureHashEncoder, fnv1a64,
                          hash_counts, init_encoder_arrays, token_bucket)
from oracles import fnv1a64_reference, hash_encode_reference


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
        cfg = EncoderConfig(kind="feature_hash", embed_dim=d, vocab_buckets=V)
        proj = np.random.default_rng(seed).normal(size=(d, V))
        return cfg, proj, FeatureHashEncoder(cfg, nm.constant(proj))

    def test_fixture_matches_oracle(self):
        cfg, proj, enc = self.make(seed=7, V=8, d=4)
        got = enc.encode("a b a").array
        want = hash_encode_reference("a b a", 8, proj)
        npt.assert_allclose(got, want, atol=1e-14, rtol=0)

    def test_deterministic(self):
        _, _, enc = self.make()
        npt.assert_array_equal(enc.encode("same text here").array,
                               enc.encode("same text here").array)

    def test_zero_projection_gives_zero_vector(self):
        cfg = EncoderConfig(embed_dim=4, vocab_buckets=8)
        enc = FeatureHashEncoder(cfg, nm.constant(np.zeros((4, 8))))
        npt.assert_array_equal(enc.encode("anything at all").array, np.zeros(4))

    def test_output_in_tanh_range(self):
        rng = np.random.default_rng(12)
        cfg = EncoderConfig(embed_dim=6, vocab_buckets=32)
        enc = FeatureHashEncoder(
            cfg, nm.constant(rng.normal(0.0, 3.0, (6, 32))))
        words = ["alpha", "beta", "gamma", "delta", "epsilon"]
        for _ in range(50):
            text = " ".join(rng.choice(words, size=rng.integers(1, 10)))
            out = enc.encode(text).array
            assert out.shape == (6,)
            assert np.all(out > -1.0) and np.all(out < 1.0)

    def test_projection_gradient_flows(self):
        cfg = EncoderConfig(embed_dim=4, vocab_buckets=8)
        tape = nm.Tape()
        proj = tape.leaf(np.random.default_rng(3).normal(size=(4, 8)))
        enc = FeatureHashEncoder(cfg, proj)
        out = enc.encode("a b a")
        grads = nm.backward(tape, nm.dot(out, out))
        g = grads[proj.node_id]
        assert g.shape == (4, 8)
        assert np.any(g != 0.0) and np.all(np.isfinite(g))

    def test_default_shape_matches_oracle(self):
        cfg = EncoderConfig()
        proj = np.random.default_rng(4).normal(
            0.0, 0.5, (cfg.embed_dim, cfg.vocab_buckets))
        enc = FeatureHashEncoder(cfg, nm.constant(proj))
        for text in ("the striker curled the free kick",
                     "Thunderstorms expected after noon", "a a a b"):
            npt.assert_allclose(enc.encode(text).array,
                                hash_encode_reference(text, 4096, proj),
                                atol=1e-14, rtol=0)

    def test_taped_encode_records_one_embed_node(self):
        cfg = EncoderConfig(embed_dim=6, vocab_buckets=64)
        rng = np.random.default_rng(5)
        tape = nm.Tape()
        proj = tape.leaf(rng.normal(size=(6, 64)))
        text = "one two two three three three four"
        out = FeatureHashEncoder(cfg, proj).encode(text)
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

    def test_shape_validation(self):
        cfg = EncoderConfig(embed_dim=4, vocab_buckets=8)
        with pytest.raises(ValueError):
            FeatureHashEncoder(cfg, nm.constant(np.zeros((4, 9))))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EncoderConfig(kind="transformer")
        with pytest.raises(ValueError):
            EncoderConfig(embed_dim=1)
        with pytest.raises(ValueError):
            EncoderConfig(embed_dim=64, vocab_buckets=32)

    def test_init_arrays(self):
        cfg = EncoderConfig(embed_dim=8, vocab_buckets=32)
        arrays = init_encoder_arrays(cfg, np.random.default_rng(1))
        assert arrays["projection"].shape == (8, 32)
        pc = EncoderConfig(kind="precomputed", embed_dim=8)
        assert init_encoder_arrays(pc, np.random.default_rng(1)) == {}
