import os
import shutil

import numpy as np
import pytest

from biosketch.errors import (
    DuplicateSubjectError,
    ParameterMismatchError,
    ParseError,
    SubjectNotFoundError,
)
from biosketch.quantizer import ReliableKey
from biosketch.rs import DecodePolicy
from biosketch.sketch import enroll_fc, enroll_ss, record_to_text
from biosketch.store import KeyStore, TemplateDb, revoke


@pytest.fixture
def db(tmp_path):
    return TemplateDb(tmp_path / "templates")


@pytest.fixture
def keystore(tmp_path):
    return KeyStore(tmp_path / "keys")


@pytest.fixture
def record(rs_7_3):
    return enroll_ss(np.zeros(21, dtype=np.uint8), rs_7_3,
                     DecodePolicy.FALLBACK_SYSTEMATIC, bytes(16), subject_id="u1")


@pytest.fixture
def key():
    return ReliableKey(indices=(1, 4, 7), dimension=32, nonce=99)


def test_record_roundtrip(db, record):
    db.save("u1", record)
    assert db.load("u1") == record


def test_fc_record_roundtrip(db, rs_7_3):
    rng = np.random.default_rng(1)
    record = enroll_fc(rng.integers(0, 2, size=21, dtype=np.uint8), rs_7_3, 5,
                       bytes(16), subject_id="u2")
    db.save("u2", record)
    assert db.load("u2") == record


@pytest.mark.parametrize("subject_id", ["x ", "a\nb", "p\x0bq"])
def test_record_that_would_not_read_back_is_refused_and_not_written(db, rs_7_3,
                                                                    subject_id):
    record = enroll_ss(np.zeros(21, dtype=np.uint8), rs_7_3,
                       DecodePolicy.FALLBACK_SYSTEMATIC, bytes(16), subject_id=subject_id)
    with pytest.raises(ValueError, match="would not read back"):
        record_to_text(record)
    with pytest.raises(ValueError, match="would not read back"):
        db.save("u1", record)
    assert not db.path.exists()


def test_key_roundtrip(keystore, key):
    keystore.save("u1", key)
    assert keystore.load("u1") == key


def test_crlf_files_load_as_the_lf_files(tmp_path, record, key):
    """A load reads the file's bytes with no newline translation; a record
    and a key whose lines end in CRLF still load to what their LF files
    load to."""
    for store, value in ((TemplateDb(tmp_path / "lf" / "templates"), record),
                         (KeyStore(tmp_path / "lf" / "keys"), key)):
        store.save("u1", value)
        data = store._file("u1").read_bytes()
        assert b"\r" not in data
        crlf = type(store)(tmp_path / "crlf" / store.path.name)
        crlf.path.mkdir(parents=True)
        crlf._file("u1").write_bytes(data.replace(b"\n", b"\r\n"))
        assert crlf.load("u1") == store.load("u1") == value


def test_load_unknown_subject(db, keystore):
    with pytest.raises(SubjectNotFoundError):
        db.load("ghost")
    with pytest.raises(SubjectNotFoundError):
        keystore.load("ghost")


def test_duplicate_save_rejected(db, record):
    db.save("u1", record)
    with pytest.raises(DuplicateSubjectError):
        db.save("u1", record)
    db.save("u1", record, overwrite=True)


def test_stores_live_in_separate_directories(tmp_path, record, key):
    db = TemplateDb(tmp_path / "templates")
    keystore = KeyStore(tmp_path / "keys")
    db.save("u1", record)
    keystore.save("u1", key)
    assert (tmp_path / "templates" / "u1.rec").exists()
    assert (tmp_path / "keys" / "u1.key").exists()


def test_template_db_contains_no_key_indices(db, keystore, record, key):
    db.save("u1", record)
    keystore.save("u1", key)
    text = (db.path / "u1.rec").read_text()
    assert "nonce" not in text
    for line in text.splitlines():
        assert not line.startswith("indices")


def test_revoke_removes_both(db, keystore, record, key):
    db.save("u1", record)
    keystore.save("u1", key)
    revoke(db, keystore, "u1")
    with pytest.raises(SubjectNotFoundError):
        db.load("u1")
    with pytest.raises(SubjectNotFoundError):
        keystore.load("u1")


def test_revoke_unknown_subject(db, keystore):
    with pytest.raises(SubjectNotFoundError):
        revoke(db, keystore, "ghost")


def test_subject_id_validation(db, record):
    for bad in ("../etc", "a/b", "", "a b", "."):
        with pytest.raises(ValueError):
            db.save(bad, record)


def test_subject_listing(db, record):
    db.save("bob", record)
    db.save("alice", record)
    assert db.subjects() == ["alice", "bob"]


@pytest.mark.parametrize("store_class", [TemplateDb, KeyStore])
def test_only_a_save_creates_the_store_directory(tmp_path, store_class, record, key):
    stored = record if store_class is TemplateDb else key
    target = store_class(tmp_path / "missing" / "store")
    assert target.subjects() == []
    assert not target.exists("u1")
    with pytest.raises(SubjectNotFoundError):
        target.load("u1")
    with pytest.raises(SubjectNotFoundError):
        target.delete("u1")
    with pytest.raises(ValueError):
        target.save("../u1", stored)
    assert not (tmp_path / "missing").exists()
    target.save("u1", stored)
    assert target.subjects() == ["u1"]
    assert target.load("u1") == stored


def test_failed_replace_keeps_previous_file(db, record, rs_7_3, monkeypatch):
    db.save("u1", record)
    path = db.path / "u1.rec"
    before = path.read_bytes()
    newer = enroll_ss(np.ones(21, dtype=np.uint8), rs_7_3,
                      DecodePolicy.FALLBACK_SYSTEMATIC, bytes(16), subject_id="u1")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError):
        db.save("u1", newer, overwrite=True)
    assert path.read_bytes() == before
    assert sorted(p.name for p in db.path.iterdir()) == ["u1.rec"]
    assert db.subjects() == ["u1"]
    monkeypatch.undo()
    db.save("u1", newer, overwrite=True)
    assert db.load("u1") == newer
    assert sorted(p.name for p in db.path.iterdir()) == ["u1.rec"]


@pytest.mark.parametrize("stray", ["record", "key"])
def test_revoke_removes_a_stray_file(db, keystore, record, key, stray):
    db.save("u1", record)
    keystore.save("u1", key)
    (keystore if stray == "record" else db).delete("u1")
    revoke(db, keystore, "u1")
    assert not db.exists("u1") and not keystore.exists("u1")
    with pytest.raises(SubjectNotFoundError):
        revoke(db, keystore, "u1")


def test_save_fsyncs_store_directory(db, record, monkeypatch):
    real_fsync = os.fsync
    synced = []

    def recording_fsync(fd):
        synced.append(os.path.samestat(os.fstat(fd), os.stat(db.path)))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    db.save("u1", record)
    assert synced == [False, True]


# -- parse cache ----------------------------------------------------------------
#
# A load re-parses only when the file's text changed since the subject's last
# load through the same store instance. Each case below is run on both stores:
# ``values`` are two distinct values for subject u1, ``edit`` rewrites one
# field of a file's text without changing its length.

def _records(code):
    return [enroll_ss(bits, code, DecodePolicy.FALLBACK_SYSTEMATIC, bytes(16), subject_id="u1")
            for bits in (np.zeros(21, dtype=np.uint8), np.ones(21, dtype=np.uint8))]


def _flip_digest_hex(text):
    head, digest = text.split("digest=", 1)
    return f"{head}digest={'1' if digest[0] == '0' else '0'}{digest[1:]}"


CASES = {
    "records": (_records, _flip_digest_hex),
    "keys": (lambda code: [ReliableKey(indices=(1, 4, 7), dimension=32, nonce=99),
                           ReliableKey(indices=(2, 5, 8), dimension=32, nonce=98)],
             lambda text: text.replace("\n4\n", "\n5\n")),
}


@pytest.fixture(params=sorted(CASES))
def case(request, db, keystore, rs_7_3):
    make_values, edit = CASES[request.param]
    store = db if request.param == "records" else keystore
    return store, make_values(rs_7_3), edit


def test_unchanged_file_is_parsed_once(case):
    store, (value, _), _ = case
    store.save("u1", value)
    first = store.load("u1")
    assert first == value
    assert store.load("u1") is first


def test_overwritten_file_is_reloaded(case):
    store, (old, new), _ = case
    assert old != new
    store.save("u1", old)
    assert store.load("u1") == old
    store.save("u1", new, overwrite=True)
    assert store.load("u1") == new


def test_same_size_rewrite_in_place_is_reparsed(case, monkeypatch):
    # Same inode and size; on a filesystem whose clock did not tick between
    # the two writes, the timestamps match too. Every stat of the file
    # reports what it did before the rewrite, so only the text tells the two
    # versions apart.
    store, (value, _), edit = case
    store.save("u1", value)
    before = store.load("u1")
    path = store._file("u1")
    text = path.read_text()
    edited = edit(text)
    assert edited != text and len(edited) == len(text)
    frozen, real_stat, real_fstat = os.stat(path), os.stat, os.fstat

    def same_clock(st):
        return frozen if (st.st_dev, st.st_ino) == (frozen.st_dev, frozen.st_ino) else st

    monkeypatch.setattr(os, "stat", lambda *a, **kw: same_clock(real_stat(*a, **kw)))
    monkeypatch.setattr(os, "fstat", lambda fd: same_clock(real_fstat(fd)))
    with open(path, "r+") as fh:
        fh.write(edited)
    after = store.load("u1")
    assert after != before
    assert after == type(store)(store.path).load("u1")


def test_revoked_subject_is_gone_then_reenrolled(case, db, keystore):
    store, (old, new), _ = case
    store.save("u1", old)
    assert store.load("u1") == old
    revoke(db, keystore, "u1")
    for _ in range(2):
        with pytest.raises(SubjectNotFoundError):
            store.load("u1")
    store.save("u1", new)
    assert store.load("u1") == new


def test_file_removed_behind_the_store_is_not_found(case):
    store, (value, _), _ = case
    store.save("u1", value)
    store.load("u1")
    store._file("u1").unlink()
    with pytest.raises(SubjectNotFoundError):
        store.load("u1")
    with pytest.raises(SubjectNotFoundError):
        store.delete("u1")


def test_malformed_file_fails_on_every_load(case):
    store, (value, _), _ = case
    store.save("u1", value)
    store.load("u1")
    store._file("u1").write_text("not a file of this store\n")
    for _ in range(2):
        with pytest.raises(ParseError):
            store.load("u1")
    store.save("u1", value, overwrite=True)
    assert store.load("u1") == value


def test_copied_record_is_refused_after_a_warm_load(db, rs_7_3):
    for sid in ("s0000", "s0001"):
        db.save(sid, enroll_ss(np.zeros(21, dtype=np.uint8), rs_7_3,
                               DecodePolicy.FALLBACK_SYSTEMATIC, bytes(16), subject_id=sid))
    assert db.load("s0001").subject_id == "s0001"
    shutil.copyfile(db.path / "s0000.rec", db.path / "s0001.rec")
    for _ in range(2):
        with pytest.raises(ParameterMismatchError):
            db.load("s0001")
