import hashlib
from dataclasses import replace

import numpy as np
import pytest

from biosketch.errors import DimensionMismatchError, ParseError
from biosketch.fusion import (
    Embedding,
    FusionWeights,
    fuse,
    fuse_bla,
    fuse_fca,
    fuse_rows,
    load_weights,
    random_weights,
    save_weights,
)

from reference import naive_affine, naive_bilinear


def emb(values, modality):
    return Embedding(np.asarray(values, dtype=float), modality)


def identity_fca(d):
    return FusionWeights("fca", d, d, 2 * d, "identity",
                         W=np.eye(2 * d), b=np.zeros(2 * d))


class TestFca:
    def test_identity_weights_concatenate(self):
        w = identity_fca(3)
        face = emb([1.0, 2.0, 3.0], "face")
        iris = emb([4.0, 5.0, 6.0], "iris")
        assert np.array_equal(fuse_fca(face, iris, w), [1, 2, 3, 4, 5, 6])

    def test_zero_inputs_zero_output(self):
        w = replace(random_weights("fca", 4, 4, 8, seed=0), activation="identity")
        out = fuse_fca(emb(np.zeros(4), "face"), emb(np.zeros(4), "iris"), w)
        assert np.array_equal(out, np.zeros(8))

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            d_f, d_i, out = rng.integers(1, 7, size=3)
            w = replace(random_weights("fca", d_f, d_i, out, seed=int(rng.integers(1 << 30))),
                        activation="identity")
            face = emb(rng.normal(size=d_f), "face")
            iris = emb(rng.normal(size=d_i), "iris")
            got = fuse_fca(face, iris, w)
            want = naive_affine(w.W, w.b, np.concatenate([face.values, iris.values]))
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_affine_additivity_identity_activation(self):
        rng = np.random.default_rng(8)
        w = replace(random_weights("fca", 5, 4, 10, seed=2), activation="identity")
        for _ in range(50):
            f1, f2 = rng.normal(size=(2, 5))
            i1, i2 = rng.normal(size=(2, 4))
            lhs = fuse_fca(emb(f1 + f2, "face"), emb(i1 + i2, "iris"), w)
            rhs = (fuse_fca(emb(f1, "face"), emb(i1, "iris"), w)
                   + fuse_fca(emb(f2, "face"), emb(i2, "iris"), w))
            np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_relu_clips(self):
        w = FusionWeights("fca", 1, 1, 2, "relu",
                          W=np.array([[1.0, 0.0], [-1.0, 0.0]]), b=np.zeros(2))
        out = fuse_fca(emb([3.0], "face"), emb([0.0], "iris"), w)
        assert np.array_equal(out, [3.0, 0.0])

    def test_dimension_mismatch(self):
        w = identity_fca(3)
        with pytest.raises(DimensionMismatchError):
            fuse_fca(emb([1.0], "face"), emb([1, 2, 3], "iris"), w)

    def test_swapped_modalities_rejected(self):
        w = identity_fca(3)
        with pytest.raises(DimensionMismatchError):
            fuse_fca(emb([1, 2, 3], "iris"), emb([1, 2, 3], "face"), w)


class TestBla:
    def test_documented_outer_product(self):
        w = FusionWeights("bla", 2, 2, 4, "identity")
        out = fuse_bla(emb([1.0, 2.0], "face"), emb([3.0, 4.0], "iris"), w)
        assert np.array_equal(out, [3.0, 4.0, 6.0, 8.0])

    def test_zero_input_zero_output(self):
        w = FusionWeights("bla", 2, 3, 6, "identity")
        out = fuse_bla(emb(np.zeros(2), "face"), emb([1.0, 2.0, 3.0], "iris"), w)
        assert np.array_equal(out, np.zeros(6))

    def test_scaling_bilinearity(self):
        rng = np.random.default_rng(4)
        w = random_weights("bla", 3, 4, 5, seed=6)
        for _ in range(50):
            f = rng.normal(size=3)
            i = rng.normal(size=4)
            doubled = fuse_bla(emb(2 * f, "face"), emb(i, "iris"), w)
            np.testing.assert_allclose(
                doubled, 2 * fuse_bla(emb(f, "face"), emb(i, "iris"), w),
                rtol=1e-9, atol=1e-12)

    def test_additivity_in_each_slot(self):
        rng = np.random.default_rng(5)
        w = random_weights("bla", 3, 3, 4, seed=7)
        f1, f2, i0 = rng.normal(size=(3, 3))
        lhs = fuse_bla(emb(f1 + f2, "face"), emb(i0, "iris"), w)
        rhs = (fuse_bla(emb(f1, "face"), emb(i0, "iris"), w)
               + fuse_bla(emb(f2, "face"), emb(i0, "iris"), w))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            d_f, d_i, out = rng.integers(1, 6, size=3)
            w = random_weights("bla", d_f, d_i, out, seed=int(rng.integers(1 << 30)))
            if w.P is None:
                w = FusionWeights("bla", d_f, d_i, d_f * d_i, "identity")
            face = emb(rng.normal(size=d_f), "face")
            iris = emb(rng.normal(size=d_i), "iris")
            got = fuse_bla(face, iris, w)
            P = w.P if w.P is not None else np.eye(d_f * d_i)
            want = naive_bilinear(P, face.values, iris.values)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_projection_free_requires_product_dim(self):
        with pytest.raises(DimensionMismatchError):
            FusionWeights("bla", 2, 2, 5, "identity")


@pytest.mark.parametrize("mode,dims,arrays", [
    ("fca", (2, 1, 3), {"W": np.zeros((3, 3))}),                              # no b
    ("fca", (2, 1, 3), {"W": np.zeros((3, 2)), "b": np.zeros(3)}),            # W shape
    ("fca", (2, 1, 3), {"W": np.zeros((3, 3)), "b": np.zeros(4)}),            # b shape
    ("fca", (2, 1, 3), {"W": np.zeros((3, 3)), "b": np.zeros(3), "P": np.zeros((3, 2))}),
    ("bla", (2, 2, 4), {"W": np.zeros((4, 4)), "b": np.zeros(4)}),
    ("bla", (2, 2, 3), {"P": np.zeros((3, 5))}),                              # P shape
    ("bla", (0, 2, 3), {"P": np.zeros((3, 0))}),                              # zero dim
])
def test_arrays_must_fit_the_layout(mode, dims, arrays):
    with pytest.raises(DimensionMismatchError):
        FusionWeights(mode, *dims, "identity", **arrays)


def per_row_reference(face, iris, w):
    """The per-pair formulas, one matrix-vector product per row."""
    rows = []
    for f, i in zip(face, iris):
        if w.mode == "fca":
            z = w.W @ np.concatenate([f, i]) + w.b
        else:
            flat = np.outer(f, i).reshape(-1)
            z = flat if w.P is None else w.P @ flat
        rows.append(np.maximum(z, 0.0) if w.activation == "relu" else z)
    return np.array(rows)


class TestFuseRows:
    @pytest.mark.parametrize("n", [1, 13])
    @pytest.mark.parametrize("mode,d_face,d_iris,out_dim,activation", [
        ("fca", 32, 24, 256, "relu"),
        ("fca", 32, 24, 256, "identity"),
        ("bla", 12, 10, 96, "identity"),    # projected by P
        ("bla", 12, 10, 96, "relu"),
        ("bla", 12, 10, 120, "identity"),   # no P: out_dim = d_face * d_iris
        ("bla", 12, 10, 120, "relu"),
    ])
    def test_rows_bit_identical_to_per_row_formulas(self, n, mode, d_face, d_iris,
                                                    out_dim, activation):
        rng = np.random.default_rng([n, out_dim])
        w = replace(random_weights(mode, d_face, d_iris, out_dim, seed=out_dim),
                    activation=activation)
        assert (w.P is not None) == (mode == "bla" and out_dim != d_face * d_iris)
        face, iris = rng.normal(size=(n, d_face)), rng.normal(size=(n, d_iris))
        got = fuse_rows(face, iris, w)
        assert got.shape == (n, out_dim)
        assert np.array_equal(got, per_row_reference(face, iris, w))

    @pytest.mark.parametrize("mode,out_dim", [("fca", 1024), ("bla", 512)])
    def test_fortran_ordered_rows(self, mode, out_dim):
        rng = np.random.default_rng(21)
        d = 64 if mode == "fca" else 16
        w = random_weights(mode, d, d, out_dim, seed=22)
        face = np.asfortranarray(rng.normal(size=(20, d)))
        iris = rng.normal(size=(20, d))
        assert np.array_equal(fuse_rows(face, iris, w), per_row_reference(face, iris, w))

    @pytest.mark.parametrize("mode,out_dim", [("fca", 40), ("bla", 30)])
    def test_per_pair_fuse_is_a_one_row_call(self, mode, out_dim):
        rng = np.random.default_rng(23)
        w = random_weights(mode, 6, 5, out_dim, seed=24)
        face, iris = rng.normal(size=(4, 6)), rng.normal(size=(4, 5))
        rows = fuse_rows(face, iris, w)
        per_mode = fuse_fca if mode == "fca" else fuse_bla
        for k in range(4):
            pair = emb(face[k], "face"), emb(iris[k], "iris")
            assert np.array_equal(fuse(*pair, w), rows[k])
            assert np.array_equal(per_mode(*pair, w), rows[k])

    @pytest.mark.parametrize("face,iris", [
        (np.zeros((2, 3)), np.zeros((3, 2))),        # unpaired rows
        (np.zeros((2, 2)), np.zeros((2, 2))),        # face width
        (np.zeros((2, 3)), np.zeros((2, 3))),        # iris width
        (np.zeros(3), np.zeros(2)),                  # vectors, not rows
        (np.zeros((1, 2, 3)), np.zeros((1, 2, 2))),
    ])
    def test_shape_mismatch(self, face, iris):
        w = random_weights("fca", 3, 2, 4, seed=25)
        with pytest.raises(DimensionMismatchError):
            fuse_rows(face, iris, w)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, value):
        w = random_weights("bla", 3, 2, 6, seed=26)
        face, iris = np.ones((2, 3)), np.ones((2, 2))
        face[1, 2] = value
        with pytest.raises(ValueError, match="non-finite"):
            fuse_rows(face, np.ones((2, 2)), w)
        iris[0, 1] = value
        with pytest.raises(ValueError, match="non-finite"):
            fuse_rows(np.ones((2, 3)), iris, w)


class TestEmbedding:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            emb([1.0, float("nan")], "face")

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatchError):
            emb([], "face")

    def test_rejects_unknown_modality(self):
        with pytest.raises(ValueError):
            emb([1.0], "gait")


class TestWeightsFile:
    @pytest.mark.parametrize("mode,d_face,d_iris,out_dim,seed,size,sha256", [
        ("fca", 3, 2, 4, 1, 116,
         "7680a9c40ac2b2a3621d9a15821d5f0b503e8d443df56b81642bb5c190a7d0dd"),
        ("bla", 2, 3, 4, 2, 116,   # projected by P
         "be9165ad3fe58252ac7e65c7d7892b128b3822d27e9bac57065fa2670fac8e3b"),
        ("bla", 2, 3, 6, 3, 20,    # no P: the header alone
         "5de1e52e5dbde3cff28127b7ac550869e1f86de89f5bd25bee54593b29631da8"),
    ])
    def test_saved_bytes_are_pinned(self, tmp_path, mode, d_face, d_iris, out_dim, seed,
                                    size, sha256):
        """The bytes of a saved file, so a reordered or reshaped payload
        cannot pass as a round trip."""
        path = tmp_path / "w.bin"
        save_weights(random_weights(mode, d_face, d_iris, out_dim, seed=seed), path)
        blob = path.read_bytes()
        assert (len(blob), hashlib.sha256(blob).hexdigest()) == (size, sha256)

    def test_fca_roundtrip(self, tmp_path):
        w = random_weights("fca", 6, 5, 9, seed=12)
        path = tmp_path / "w.bin"
        save_weights(w, path)
        loaded = load_weights(path)
        assert (loaded.mode, loaded.activation) == (w.mode, w.activation)
        assert (loaded.d_face, loaded.d_iris, loaded.out_dim) == (6, 5, 9)
        np.testing.assert_array_equal(loaded.W, w.W.astype(np.float32).astype(np.float64))

    def test_bla_roundtrip_with_projection(self, tmp_path):
        w = random_weights("bla", 3, 4, 6, seed=13)
        path = tmp_path / "w.bin"
        save_weights(w, path)
        loaded = load_weights(path)
        assert loaded.P is not None and loaded.P.shape == (6, 12)

    def test_bla_roundtrip_without_projection(self, tmp_path):
        w = random_weights("bla", 3, 4, 12, seed=14)
        assert w.P is None
        path = tmp_path / "w.bin"
        save_weights(w, path)
        assert load_weights(path).P is None

    def test_truncated_file(self, tmp_path):
        w = random_weights("fca", 6, 5, 9, seed=15)
        path = tmp_path / "w.bin"
        save_weights(w, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(ParseError):
            load_weights(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "w.bin"
        path.write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(ParseError):
            load_weights(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_payload(self, tmp_path, value):
        w = random_weights("bla", 3, 4, 6, seed=13)
        w.P[2, 7] = value
        path = tmp_path / "w.bin"
        save_weights(w, path)
        with pytest.raises(ParseError, match="non-finite"):
            load_weights(path)

    def test_trailing_garbage(self, tmp_path):
        w = random_weights("fca", 2, 2, 3, seed=16)
        path = tmp_path / "w.bin"
        save_weights(w, path)
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(ParseError):
            load_weights(path)


# Refusals the pipeline never reaches, each with the class it raises.
REFUSALS = {
    "unknown-mode": (lambda: FusionWeights("sum", 2, 2, 4, "identity"), ValueError),
    "unknown-activation": (
        lambda: FusionWeights("fca", 2, 2, 4, "tanh", W=np.eye(4), b=np.zeros(4)),
        ValueError),
    "fca-given-bla-weights": (
        lambda: fuse_fca(emb([1.0, 2.0], "face"), emb([3.0, 4.0], "iris"),
                         random_weights("bla", 2, 2, 4, seed=1)), DimensionMismatchError),
    "bla-given-fca-weights": (
        lambda: fuse_bla(emb([1.0, 2.0], "face"), emb([3.0, 4.0], "iris"), identity_fca(2)),
        DimensionMismatchError),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal_raises_its_class(case):
    call, error = REFUSALS[case]
    with pytest.raises(error):
        call()
