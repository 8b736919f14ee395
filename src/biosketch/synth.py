"""Synthetic multimodal embedding data and CSV ingestion.

Subjects are isotropic Gaussians: each subject gets a latent mean vector per
modality drawn with scale ``between_std`` and samples scattered around it
with scale ``within_std``, so the quantizer's Gaussian reliability model is
exact on this data. Generation is fully determined by the seed; the PRNG is
NumPy's default PCG64 and the draw order is fixed (per subject: face mean,
iris mean, face samples, iris samples).

CSV schema, one row per (subject, sample, modality), no header row:

    subject_id,sample_id,modality,v0,v1,...

A record ends at ``\n``, ``\r\n`` or ``\r``, and a blank one is skipped.
Fields are split as the ``csv`` module's default dialect splits them, so a
double-quoted field may hold commas, doubled quotes and line breaks.
``sample_id`` is read with ``int()`` and each value with ``float()``.
Floats are serialized with ``repr`` (shortest round-trip decimal), so a
write/read cycle reproduces every value bit-exactly.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ParseError


@dataclass
class EmbeddingDataset:
    """Per-subject stacks of paired face and iris embeddings.

    ``face[sid]`` and ``iris[sid]`` are (n_samples, d) float64 matrices with
    aligned rows; subject order is insertion order.
    """

    face: dict[str, np.ndarray]
    iris: dict[str, np.ndarray]

    def __post_init__(self):
        if set(self.face) != set(self.iris):
            raise DimensionMismatchError("face and iris subjects differ")
        if not self.face:
            raise ValueError("dataset has no subjects")
        d_face = d_iris = None
        for sid in self.face:
            f = self.face[sid] = np.atleast_2d(np.asarray(self.face[sid], dtype=np.float64))
            i = self.iris[sid] = np.atleast_2d(np.asarray(self.iris[sid], dtype=np.float64))
            if f.shape[0] != i.shape[0] or f.shape[0] == 0:
                raise DimensionMismatchError(f"subject {sid}: unpaired samples")
            d_face = f.shape[1] if d_face is None else d_face
            d_iris = i.shape[1] if d_iris is None else d_iris
            if f.shape[1] != d_face or i.shape[1] != d_iris:
                raise DimensionMismatchError(f"subject {sid}: inconsistent dimensions")

    @property
    def subject_ids(self) -> list[str]:
        return list(self.face)

    @property
    def n_subjects(self) -> int:
        return len(self.face)

    @property
    def d_face(self) -> int:
        return next(iter(self.face.values())).shape[1]

    @property
    def d_iris(self) -> int:
        return next(iter(self.iris.values())).shape[1]

    def n_samples(self, subject_id: str) -> int:
        return self.face[subject_id].shape[0]

    @property
    def total_pairs(self) -> int:
        return sum(m.shape[0] for m in self.face.values())

    def equals(self, other: "EmbeddingDataset") -> bool:
        """Value equality over subjects and vectors."""
        if self.subject_ids != other.subject_ids:
            return False
        return all(
            np.array_equal(self.face[s], other.face[s])
            and np.array_equal(self.iris[s], other.iris[s])
            for s in self.face
        )


def gen_population(num_subjects: int, samples_per_subject: int,
                   d_face: int, d_iris: int,
                   between_std: float, within_std: float,
                   seed) -> EmbeddingDataset:
    """Seeded synthetic population of paired embeddings."""
    if min(num_subjects, samples_per_subject, d_face, d_iris) <= 0:
        raise ValueError("counts and dimensions must be positive")
    if not (0 < between_std < np.inf and 0 <= within_std < np.inf):
        raise ValueError("between_std must be finite and > 0, within_std finite and >= 0")
    rng = np.random.default_rng(seed)
    width = max(4, len(str(num_subjects - 1)))
    face: dict[str, np.ndarray] = {}
    iris: dict[str, np.ndarray] = {}
    for i in range(num_subjects):
        sid = f"s{i:0{width}d}"
        face_mean = rng.normal(0.0, between_std, size=d_face)
        iris_mean = rng.normal(0.0, between_std, size=d_iris)
        face[sid] = face_mean + rng.normal(0.0, within_std, size=(samples_per_subject, d_face))
        iris[sid] = iris_mean + rng.normal(0.0, within_std, size=(samples_per_subject, d_iris))
    return EmbeddingDataset(face=face, iris=iris)


def write_embeddings(dataset: EmbeddingDataset, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for sid in dataset.subject_ids:
            for sample in range(dataset.n_samples(sid)):
                for modality, mat in (("face", dataset.face), ("iris", dataset.iris)):
                    row = [sid, str(sample), modality]
                    row.extend(repr(float(v)) for v in mat[sid][sample])
                    writer.writerow(row)


# Where ``str.splitlines`` ends a line and ``csv.reader`` does not.
_OTHER_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _records(text: str):
    """(line number, fields) of each record, split as ``csv.reader`` splits
    them; a blank record has no fields. From the fourth field on, the
    values are one field: their text, or in a file with quotes their list."""
    if '"' not in text and not any(c in text for c in _OTHER_BREAKS):
        for lineno, line in enumerate(text.splitlines(), start=1):
            yield lineno, line.split(",", 3) if line else []
        return
    lineno = 0
    try:
        for lineno, row in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
            yield lineno, row[:3] + [row[3:]] if len(row) > 3 else row
    except csv.Error as exc:
        raise ParseError(f"line {lineno + 1}: {exc}") from exc


def read_embeddings(path) -> EmbeddingDataset:
    """Read a dataset CSV (see the module docstring).

    Records are split as ``csv.reader`` splits them, and each record's
    values are read with ``float()`` as the record is read, so a fault is
    raised at the first line that has one.
    """
    with open(path, newline="") as fh:
        text = fh.read()
    flat: list[float] = []  # every record's values, in file order
    at: dict[str, dict[int, dict[str, int]]] = {}  # sid -> sample -> modality -> first offset
    dims: dict[str, int] = {}
    for lineno, row in _records(text):
        if not row:
            continue
        if len(row) < 4:
            raise ParseError(f"line {lineno}: expected subject,sample,modality,values")
        sid, sample_str, modality, vals = row
        if modality not in ("face", "iris"):
            raise ParseError(f"line {lineno}: unknown modality {modality!r}")
        offset = len(flat)
        try:
            sample = int(sample_str)
            flat.extend(map(float, vals.split(",") if isinstance(vals, str) else vals))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        count = len(flat) - offset
        if modality in dims and count != dims[modality]:
            raise DimensionMismatchError(
                f"line {lineno}: {modality} vector has {count} values, "
                f"expected {dims[modality]}"
            )
        dims.setdefault(modality, count)
        slot = at.setdefault(sid, {}).setdefault(sample, {})
        if modality in slot:
            raise ParseError(f"line {lineno}: duplicate {modality} row")
        slot[modality] = offset
    if not at:
        raise ParseError("empty embeddings file")

    values = np.array(flat, dtype=np.float64)
    face: dict[str, np.ndarray] = {}
    iris: dict[str, np.ndarray] = {}
    for sid, samples in at.items():
        ordered = sorted(samples)
        for sample in ordered:
            if set(samples[sample]) != {"face", "iris"}:
                raise ParseError(f"subject {sid} sample {sample}: missing modality row")
        for modality, out in (("face", face), ("iris", iris)):
            first = np.array([samples[s][modality] for s in ordered])
            out[sid] = values[first[:, None] + np.arange(dims[modality])]
    return EmbeddingDataset(face=face, iris=iris)
