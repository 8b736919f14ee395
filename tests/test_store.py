import os

import numpy as np
import pytest

from biosketch.errors import DuplicateSubjectError, SubjectNotFoundError
from biosketch.quantizer import ReliableKey
from biosketch.rs import DecodePolicy
from biosketch.sketch import enroll_fc, enroll_ss
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


def test_key_roundtrip(keystore, key):
    keystore.save("u1", key)
    assert keystore.load("u1") == key


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
