import numpy as np
import pytest

from biosketch.errors import DimensionMismatchError, ParseError
from biosketch.synth import (
    EmbeddingDataset,
    gen_population,
    read_embeddings,
    write_embeddings,
)


def test_shape_matches_request():
    ds = gen_population(50, 20, 8, 6, 1.0, 0.3, seed=0)
    assert ds.n_subjects == 50
    assert ds.total_pairs == 1000
    assert ds.d_face == 8 and ds.d_iris == 6
    assert all(ds.n_samples(s) == 20 for s in ds.subject_ids)


def test_same_seed_bit_identical():
    a = gen_population(5, 4, 8, 8, 1.0, 0.2, seed=123)
    b = gen_population(5, 4, 8, 8, 1.0, 0.2, seed=123)
    assert a.equals(b)
    c = gen_population(5, 4, 8, 8, 1.0, 0.2, seed=124)
    assert not a.equals(c)


def test_zero_within_noise_collapses_samples():
    ds = gen_population(3, 5, 8, 8, 1.0, 0.0, seed=7)
    for sid in ds.subject_ids:
        assert np.ptp(ds.face[sid], axis=0).max() == 0.0
        assert np.ptp(ds.iris[sid], axis=0).max() == 0.0


def test_invalid_params():
    with pytest.raises(ValueError):
        gen_population(0, 5, 8, 8, 1.0, 0.1, seed=0)
    with pytest.raises(ValueError):
        gen_population(3, 5, 8, 8, 0.0, 0.1, seed=0)
    with pytest.raises(ValueError):
        gen_population(3, 5, 8, 8, 1.0, -0.1, seed=0)
    for between, within in ((1.0, float("nan")), (float("inf"), 0.1),
                            (float("nan"), 0.1), (1.0, float("inf"))):
        with pytest.raises(ValueError, match="finite"):
            gen_population(3, 5, 8, 8, between, within, seed=0)


def test_between_vs_within_distances():
    # with between >> within, subjects separate: 3-sigma statistical check
    ds = gen_population(10, 6, 32, 32, 2.0, 0.2, seed=42)
    intra, inter = [], []
    sids = ds.subject_ids
    for i, sid in enumerate(sids):
        mat = ds.face[sid]
        for a in range(mat.shape[0]):
            for b in range(a + 1, mat.shape[0]):
                intra.append(np.linalg.norm(mat[a] - mat[b]))
        for other in sids[i + 1:]:
            inter.append(np.linalg.norm(mat[0] - ds.face[other][0]))
    intra, inter = np.asarray(intra), np.asarray(inter)
    gap = inter.mean() - intra.mean()
    spread = np.sqrt(inter.var() / inter.size + intra.var() / intra.size)
    assert gap > 3 * spread


class TestCsv:
    def test_roundtrip_exact(self, tmp_path):
        ds = gen_population(4, 3, 5, 7, 1.0, 0.4, seed=9)
        path = tmp_path / "data.csv"
        write_embeddings(ds, path)
        assert read_embeddings(path).equals(ds)

    def test_read_preserves_subject_order(self, tmp_path):
        ds = gen_population(6, 2, 3, 3, 1.0, 0.1, seed=1)
        path = tmp_path / "data.csv"
        write_embeddings(ds, path)
        assert read_embeddings(path).subject_ids == ds.subject_ids

    def test_inconsistent_dimension_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "a,0,face,1.0,2.0\n"
            "a,0,iris,1.0\n"
            "b,0,face,1.0,2.0,3.0\n"
            "b,0,iris,1.0\n"
        )
        with pytest.raises(DimensionMismatchError):
            read_embeddings(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            read_embeddings(path)

    def test_missing_modality_rejected(self, tmp_path):
        path = tmp_path / "half.csv"
        path.write_text("a,0,face,1.0,2.0\na,1,face,1.0,2.0\n")
        with pytest.raises(ParseError):
            read_embeddings(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("a,0,face,banana\na,0,iris,1.0\n")
        with pytest.raises(ParseError):
            read_embeddings(path)

    def test_unknown_modality_rejected(self, tmp_path):
        path = tmp_path / "gait.csv"
        path.write_text("a,0,gait,1.0\n")
        with pytest.raises(ParseError):
            read_embeddings(path)


def test_dataset_validation():
    with pytest.raises(DimensionMismatchError):
        EmbeddingDataset(face={"a": np.ones((2, 3))}, iris={"b": np.ones((2, 3))})
    with pytest.raises(DimensionMismatchError):
        EmbeddingDataset(face={"a": np.ones((2, 3))}, iris={"a": np.ones((3, 3))})
