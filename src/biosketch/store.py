"""Flat-file stores for enrollment records and reliable keys.

Records and keys are deliberately kept apart: the template database holds
only hashed records (``templates/<subject>.rec``) while the keystore holds
the matcher-local reliable keys (``keys/<subject>.key``). Single writer per
store; concurrent readers are fine. Only a save creates the store
directory: a load, a delete or a listing of a missing directory changes
nothing on disk. A save writes a temporary file in the store directory,
syncs it and renames it over the target, so a reader or a crash sees either
the old file or the new one, never a partial write.

A load re-reads the file's bytes every time and decodes and re-parses them
only when they differ from the bytes of the subject's last load through
that store instance. The cache is keyed on the bytes, not on ``stat``: a
parse depends on nothing else, so a revoked and re-enrolled key can never
be served from a stale entry. It holds one entry per subject the instance
has loaded: ~94 KB of parsed key per m=8 subject plus its ~10 KB of bytes,
~2 KB per record. The bytes are decoded as UTF-8 and parsed as they are.
"""

from __future__ import annotations

import os
import re
import tempfile
from pathlib import Path

from .errors import DuplicateSubjectError, ParameterMismatchError, SubjectNotFoundError
from .quantizer import ReliableKey, key_from_text, key_to_text
from .sketch import EnrollmentRecord, record_from_text, record_to_text

_SUBJECT_RE = re.compile(r"^[A-Za-z0-9_-]+$")


def _check_subject_id(subject_id: str) -> str:
    if not _SUBJECT_RE.fullmatch(subject_id):
        raise ValueError(
            f"subject id {subject_id!r} must match [A-Za-z0-9_-]+"
        )
    return subject_id


def _owned(subject_id: str, record: EnrollmentRecord) -> EnrollmentRecord:
    """``record``, refused unless it was enrolled for ``subject_id``."""
    if record.subject_id != subject_id:
        raise ParameterMismatchError(
            f"record stored as {subject_id!r} was enrolled for {record.subject_id!r}"
        )
    return record


class _FileStore:
    suffix = ""

    def __init__(self, path):
        self.path = Path(path)
        # "<path>/": a load opens a plain string, not a Path built per call.
        self._prefix = os.path.join(self.path, "")
        # subject id -> (bytes, parsed value) of its last good load
        self._parsed: dict[str, tuple[bytes, object]] = {}

    def _file(self, subject_id: str) -> Path:
        return self.path / f"{_check_subject_id(subject_id)}{self.suffix}"

    def _save_text(self, subject_id: str, text: str, overwrite: bool):
        target = self._file(subject_id)
        self.path.mkdir(parents=True, exist_ok=True)
        if target.exists() and not overwrite:
            raise DuplicateSubjectError(f"{subject_id!r} already stored in {self.path}")
        # The ".tmp" suffix keeps a leftover out of subjects().
        fd, tmp = tempfile.mkstemp(dir=self.path, prefix=f".{target.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
        # Sync the directory too, so the rename itself survives a crash.
        dir_fd = os.open(self.path, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    def _load(self, subject_id: str, parse):
        """``parse`` of the subject's file text, reused while its bytes are unchanged.

        The text is the file's bytes decoded as UTF-8, line endings and all:
        line handling lives in ``textfile.from_text``, which splits lines
        with ``str.splitlines``.

        A decode or parse that raises caches nothing, so a bad file fails on
        every load.
        """
        try:
            with open(f"{self._prefix}{_check_subject_id(subject_id)}{self.suffix}", "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            self._parsed.pop(subject_id, None)
            raise SubjectNotFoundError(f"{subject_id!r} not found in {self.path}") from None
        entry = self._parsed.get(subject_id)
        if entry is None or entry[0] != data:
            entry = self._parsed[subject_id] = (data, parse(data.decode()))
        return entry[1]

    def exists(self, subject_id: str) -> bool:
        return self._file(subject_id).exists()

    def delete(self, subject_id: str):
        target = self._file(subject_id)
        self._parsed.pop(subject_id, None)
        try:
            target.unlink()
        except FileNotFoundError:
            raise SubjectNotFoundError(f"{subject_id!r} not found in {self.path}") from None

    def subjects(self) -> list[str]:
        return sorted(p.stem for p in self.path.glob(f"*{self.suffix}"))


class TemplateDb(_FileStore):
    """Hashed enrollment records, one file per subject."""

    suffix = ".rec"

    def save(self, subject_id: str, record: EnrollmentRecord, overwrite: bool = False):
        """Store the record as the subject's. A record enrolled for another id
        is refused, as ``load`` would refuse it, and nothing is written."""
        text = record_to_text(record)
        _owned(_check_subject_id(subject_id), record)
        self._save_text(subject_id, text, overwrite)

    def load(self, subject_id: str) -> EnrollmentRecord:
        """The subject's record; a record enrolled for another id is refused."""
        return self._load(subject_id, lambda text: _owned(subject_id, record_from_text(text)))


class KeyStore(_FileStore):
    """Matcher-local reliable keys, one file per subject."""

    suffix = ".key"

    def save(self, subject_id: str, key: ReliableKey, overwrite: bool = False):
        self._save_text(subject_id, key_to_text(key), overwrite)

    def load(self, subject_id: str) -> ReliableKey:
        return self._load(subject_id, key_from_text)


def revoke(db: TemplateDb, keystore: KeyStore, subject_id: str):
    """Delete a subject's record, then its key.

    An unseeded re-enrollment draws a fresh nonce and so a new key. A seeded
    one derives the nonce from the seed and the subject id, and so reissues
    the revoked key and record.

    Whichever of the two exists is deleted, so a stray key or record left by
    an interrupted enroll or revoke can be cleared. Only a subject with
    neither file is unknown.
    """
    stores = [s for s in (db, keystore) if s.exists(subject_id)]
    if not stores:
        raise SubjectNotFoundError(f"{subject_id!r} is not enrolled")
    for s in stores:
        s.delete(subject_id)
