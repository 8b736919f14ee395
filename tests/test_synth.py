import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import biosketch.synth as synth
from biosketch.errors import DimensionMismatchError, ParseError
from biosketch.synth import (
    EmbeddingDataset,
    gen_population,
    read_embeddings,
    write_embeddings,
)

from reference import slow_read_embeddings


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
        assert_readers_agree(path)
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


# Refusals the pipeline never reaches, each with the class it raises.
REFUSALS = {
    "no-subjects": (lambda: EmbeddingDataset(face={}, iris={}), ValueError),
    "mixed-dimensions": (
        lambda: EmbeddingDataset(face={"a": np.ones((2, 3)), "b": np.ones((2, 4))},
                                 iris={"a": np.ones((2, 3)), "b": np.ones((2, 3))}),
        DimensionMismatchError),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal_raises_its_class(case):
    call, error = REFUSALS[case]
    with pytest.raises(error):
        call()


# -- the package reader against the line-by-line reference -------------------

def _outcome(read, path):
    """What a reader makes of a file: per subject, each modality's dtype,
    shape and bytes; or the class name and message of its refusal."""
    try:
        face, iris = read(path)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return [(sid, *((m.dtype.str, m.shape, m.tobytes()) for m in (face[sid], iris[sid])))
            for sid in face]


def _package_reader(path):
    dataset = read_embeddings(path)
    return dataset.face, dataset.iris


def assert_readers_agree(path):
    """The package reader accepts what the reference accepts, with the same
    arrays bit for bit, and refuses the rest with the same error."""
    got = _outcome(_package_reader, path)
    assert got == _outcome(slow_read_embeddings, path)
    return got


# Two subjects, one sample each, two values a vector; VALUE is substituted.
TWO_SUBJECTS = "a,0,face,VALUE,1.5\na,0,iris,2.5,3.5\nb,0,face,4.5,5.5\nb,0,iris,6.5,7.5\n"


class TestReaderDifferential:
    @pytest.mark.parametrize("token,value", [
        ("1_0", 10.0),                      # float() reads digit-group underscores
        ("١٢", 12.0),             # Arabic-Indic digits, likewise
        (" 1.25 ", 1.25),                   # whitespace around a value
        ("+.5e1", 5.0),
        ("-0", -0.0),
        ("1e999", np.inf),
        ("nan", np.nan),                    # read; fusion refuses it later
        ("-Infinity", -np.inf),
    ])
    def test_value_that_float_reads(self, tmp_path, token, value):
        path = tmp_path / "data.csv"
        path.write_text(TWO_SUBJECTS.replace("VALUE", token), encoding="utf-8")
        assert_readers_agree(path)
        got = read_embeddings(path).face["a"][0, 0]
        assert np.array_equal(got, value, equal_nan=True)
        assert np.signbit(got) == np.signbit(value)

    @pytest.mark.parametrize("token", [
        "nan(ind)", "-nan(123)",            # C-library NaN spellings float() refuses
        "", "0x1p3", "1.2.3", "1e", ".", "--1", "1 2", "inf(1)",
    ])
    def test_value_that_float_refuses(self, tmp_path, token):
        path = tmp_path / "data.csv"
        path.write_text(TWO_SUBJECTS.replace("VALUE", token), encoding="utf-8")
        name, message = assert_readers_agree(path)
        assert (name, message.split(":")[0]) == ("ParseError", "line 1")

    @pytest.mark.parametrize("text", [
        TWO_SUBJECTS.replace("\n", "\r\n"),
        TWO_SUBJECTS.replace("\n", "\r"),
        TWO_SUBJECTS.replace("\n", "\n\n\r\n"),                    # blank lines
        '"a,b",0,face,1,2\n"a,b",0,iris,3,4\nc,0,face,5,6\nc,0,iris,7,8\n',
        'a,0,face,"1.5",2\na,0,iris,3,4\n"b""x",0,face,5,6\n"b""x",0,iris,7,8\n',
        "a\x0bz,0,face,1,2\na\x0bz,0,iris,3,4\nb,0,face,5,6\nb,0,iris,7,8",
    ], ids=["crlf", "cr", "blank-lines", "quoted-comma", "quoted-value", "vertical-tab"])
    def test_accepted_layouts(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert len(assert_readers_agree(path)) == 2

    @pytest.mark.parametrize("text,error", [
        (TWO_SUBJECTS.replace("VALUE", "0").replace("7.5\n", "7.5,\n"), "ParseError"),
        (TWO_SUBJECTS.replace("VALUE", "0").replace("\n", "\n\n").replace("2.5", "x"),
         "ParseError"),
        # A value refused before a later line's other fault, and the reverse.
        (TWO_SUBJECTS.replace("VALUE", "x").replace("4.5,", ""), "ParseError"),
        (TWO_SUBJECTS.replace("VALUE", "0").replace("4.5,5.5", "4.5").replace("6.5", "x"),
         "DimensionMismatchError"),
        (TWO_SUBJECTS.replace("VALUE", "0") + "a,0,face,1,2\n", "ParseError"),
        (TWO_SUBJECTS.replace("VALUE", "0").replace("b,0,iris", "b,0,gait"), "ParseError"),
        (TWO_SUBJECTS.replace("VALUE", "x").replace("b,0,iris", "b,0,gait"), "ParseError"),
        (TWO_SUBJECTS.replace("VALUE", "0").replace("b,0,iris,6.5,7.5", "b,zero"),
         "ParseError"),
        ('"a,0,face,1,2\na,0,iris,3,4\n', "ParseError"),               # unclosed quote
    ], ids=["trailing-comma", "blank-then-bad", "value-then-length", "length-then-value",
            "duplicate", "modality", "value-then-modality", "short-row", "open-quote"])
    def test_refused_files(self, tmp_path, text, error):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert assert_readers_agree(path)[0] == error

    def test_written_file_is_converted_in_one_call(self, tmp_path, monkeypatch):
        """Each value of a written file goes through one float() call, in one
        pass over the records, and reads back exactly."""
        ds = gen_population(4, 3, 5, 7, 1.0, 0.4, seed=9)
        path = tmp_path / "data.csv"
        write_embeddings(ds, path)
        calls = []

        def counted(value):
            calls.append(value)
            return float(value)

        monkeypatch.setattr(synth, "float", counted, raising=False)
        assert read_embeddings(path).equals(ds)
        assert len(calls) == ds.total_pairs * (ds.d_face + ds.d_iris)


# Bytes a mutation may insert: values at the edges of float()'s grammar,
# quoting, line breaks, separators and bytes that are not UTF-8.
CSV_TOKENS = [b"1_0", "١٢".encode(), b"nan(ind)", b"-nan(123)", b'"a,b"', b'"',
              b'""', b"\r\n", b"\n", b"\r", b",", b"", b" ", b"\t", b"\x0b", b"\x1c",
              " ".encode(), b"\x00", b"\xff", b"nan", b"inf", b"-", b"+", b".", b"e",
              b"E5", b"0x1p3", b"1e999", b"-0", b"face", b"iris", b"s0000", b"0", b"7"]


@pytest.fixture(scope="module")
def csv_sources(tmp_path_factory):
    """Small dataset files to mutate: \\r\\n and \\n line ends, and one whose
    ids are quoted and hold commas."""
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    write_embeddings(gen_population(3, 2, 3, 2, 1.0, 0.3, seed=4), path)
    crlf = path.read_bytes()
    return [crlf, crlf.replace(b"\r\n", b"\n"), crlf.replace(b"s0001,", b'"s0,001",')]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_mutated_csv_read_alike(csv_sources, data):
    """Any file the reference reads line by line, the package reads to the
    same arrays bit for bit; any file it refuses, the package refuses with
    the same error class and message."""
    raw = bytearray(data.draw(st.sampled_from(csv_sources)))
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(["insert", "replace", "delete", "field"]))
        token = data.draw(st.sampled_from(CSV_TOKENS)) if kind != "delete" else b""
        at = data.draw(st.integers(0, len(raw)))
        end = at + (0 if kind == "insert" else data.draw(st.integers(0, 6)))
        if kind == "field":  # the token replaces a whole field
            commas = [i for i, byte in enumerate(raw) if byte == ord(",")]
            at = data.draw(st.sampled_from(commas)) + 1 if commas else 0
            end = next((i for i in range(at, len(raw)) if raw[i] in b",\r\n"), len(raw))
        raw[at:end] = token
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "data.csv"
        path.write_bytes(bytes(raw))
        assert_readers_agree(path)
