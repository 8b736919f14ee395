"""Joint-representation fusion of face and iris embeddings.

Two fusion modes produce the shared feature vector:

* ``fca`` concatenates the two embeddings and applies an affine map (a fully
  connected layer): e = act(W [face; iris] + b).
* ``bla`` forms the outer product of the two embeddings (bilinear pooling),
  flattened row-major, optionally followed by a stored linear projection P
  down to the output dimension.

``fuse_rows`` fuses n pairs into an (n, out_dim) matrix; ``fuse`` is a
one-row call to it. Each row is a BLAS matrix-vector product, as ``W @ row``,
so rows are bit-identical to per-pair fusion; ``X @ W.T`` would move keys.

Network training is out of scope; weights are inputs. They are loaded from a
small binary file (format below) or generated from a seed for synthetic
experiments. In-memory arrays are float64; the file payload is float32.

Weights file layout (all integers little-endian):

    bytes 0..3   magic b"FUSW"
    byte  4      format version, currently 1
    byte  5      mode: 1 = fca, 2 = bla
    byte  6      activation: 0 = identity, 1 = relu
    byte  7      flags: bit 0 set when a bla projection P is present
    bytes 8..11  d_face  (uint32)
    bytes 12..15 d_iris  (uint32)
    bytes 16..19 out_dim (uint32)
    payload      fca: W row-major (out_dim x (d_face+d_iris)) float32,
                      then b (out_dim) float32
                 bla: P row-major (out_dim x d_face*d_iris) float32 when the
                      projection flag is set, otherwise empty (out_dim must
                      equal d_face*d_iris)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import DimensionMismatchError, ParseError

MODE_FCA = "fca"
MODE_BLA = "bla"
ACT_IDENTITY = "identity"
ACT_RELU = "relu"

_MAGIC = b"FUSW"
_VERSION = 1
_MODE_CODES = {MODE_FCA: 1, MODE_BLA: 2}
_ACT_CODES = {ACT_IDENTITY: 0, ACT_RELU: 1}


@dataclass(frozen=True)
class Embedding:
    """A single-modality feature vector."""

    values: np.ndarray
    modality: str  # "face" or "iris"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.size == 0:
            raise DimensionMismatchError("embedding must be a non-empty 1-D vector")
        if not np.all(np.isfinite(vals)):
            raise ValueError("embedding contains non-finite values")
        if self.modality not in ("face", "iris"):
            raise ValueError(f"unknown modality {self.modality!r}")
        object.__setattr__(self, "values", vals)


@dataclass
class FusionWeights:
    mode: str
    d_face: int
    d_iris: int
    out_dim: int
    activation: str
    W: np.ndarray | None = None  # fca only
    b: np.ndarray | None = None  # fca only
    P: np.ndarray | None = dc_field(default=None)  # bla, optional

    def __post_init__(self):
        if self.mode not in _MODE_CODES:
            raise ValueError(f"unknown fusion mode {self.mode!r}")
        if self.activation not in _ACT_CODES:
            raise ValueError(f"unknown activation {self.activation!r}")
        if min(self.d_face, self.d_iris, self.out_dim) <= 0:
            raise DimensionMismatchError("dimensions must be positive")
        if self.mode == MODE_FCA:
            if self.W is None or self.b is None:
                raise DimensionMismatchError("fca weights need W and b")
            self.W = np.asarray(self.W, dtype=np.float64)
            self.b = np.asarray(self.b, dtype=np.float64)
            if self.W.shape != (self.out_dim, self.d_face + self.d_iris):
                raise DimensionMismatchError(
                    f"W shape {self.W.shape} != ({self.out_dim}, {self.d_face + self.d_iris})"
                )
            if self.b.shape != (self.out_dim,):
                raise DimensionMismatchError(f"b shape {self.b.shape} != ({self.out_dim},)")
        else:
            if self.W is not None or self.b is not None:
                raise DimensionMismatchError("bla weights take no W/b")
            if self.P is None:
                if self.out_dim != self.d_face * self.d_iris:
                    raise DimensionMismatchError(
                        "bla without projection requires out_dim = d_face * d_iris"
                    )
            else:
                self.P = np.asarray(self.P, dtype=np.float64)
                if self.P.shape != (self.out_dim, self.d_face * self.d_iris):
                    raise DimensionMismatchError(
                        f"P shape {self.P.shape} != ({self.out_dim}, {self.d_face * self.d_iris})"
                    )


def fuse_rows(face_rows, iris_rows, weights: FusionWeights) -> np.ndarray:
    """(n, out_dim) fusion of face row i with iris row i, for every i."""
    face = np.asarray(face_rows, dtype=np.float64)
    iris = np.asarray(iris_rows, dtype=np.float64)
    if (face.ndim, iris.ndim) != (2, 2) or face.shape[0] != iris.shape[0] or (
            (face.shape[1], iris.shape[1]) != (weights.d_face, weights.d_iris)):
        raise DimensionMismatchError(
            f"face rows {face.shape} and iris rows {iris.shape} do not pair up "
            f"for weights ({weights.d_face}, {weights.d_iris})"
        )
    if not (np.isfinite(face).all() and np.isfinite(iris).all()):
        raise ValueError("embedding contains non-finite values")
    if weights.mode == MODE_FCA:
        x = np.concatenate([face, iris], axis=1)
        z = (weights.W @ x[:, :, None])[:, :, 0] + weights.b
    else:
        z = (face[:, :, None] * iris[:, None, :]).reshape(face.shape[0], -1)
        if weights.P is not None:
            z = (weights.P @ z[:, :, None])[:, :, 0]
    return np.maximum(z, 0.0) if weights.activation == ACT_RELU else z


def fuse(face: Embedding, iris: Embedding, weights: FusionWeights) -> np.ndarray:
    """One face/iris pair fused as a one-row ``fuse_rows`` call."""
    if face.modality != "face" or iris.modality != "iris":
        raise DimensionMismatchError("arguments must be a face and an iris embedding")
    return fuse_rows(face.values[None], iris.values[None], weights)[0]


def fuse_fca(face: Embedding, iris: Embedding, weights: FusionWeights) -> np.ndarray:
    """Fully connected fusion: act(W [face; iris] + b)."""
    if weights.mode != MODE_FCA:
        raise DimensionMismatchError("weights are not fca weights")
    return fuse(face, iris, weights)


def fuse_bla(face: Embedding, iris: Embedding, weights: FusionWeights) -> np.ndarray:
    """Bilinear fusion: flattened outer product, optionally projected by P."""
    if weights.mode != MODE_BLA:
        raise DimensionMismatchError("weights are not bla weights")
    return fuse(face, iris, weights)


def random_weights(mode: str, d_face: int, d_iris: int, out_dim: int, seed,
                   activation: str | None = None) -> FusionWeights:
    """Seeded random weights for synthetic experiments.

    Entries are Gaussian with 1/sqrt(fan_in) scale; fca bias is zero. The
    default activation is relu for fca and identity for bla.
    """
    rng = np.random.default_rng(seed)
    if activation is None:
        activation = ACT_RELU if mode == MODE_FCA else ACT_IDENTITY
    if mode == MODE_FCA:
        fan_in = d_face + d_iris
        W = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(out_dim, fan_in))
        return FusionWeights(mode, d_face, d_iris, out_dim, activation,
                             W=W, b=np.zeros(out_dim))
    if out_dim == d_face * d_iris:
        return FusionWeights(mode, d_face, d_iris, out_dim, activation)
    fan_in = d_face * d_iris
    P = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(out_dim, fan_in))
    return FusionWeights(mode, d_face, d_iris, out_dim, activation, P=P)


def save_weights(weights: FusionWeights, path):
    header = _MAGIC + struct.pack(
        "<BBBBIII",
        _VERSION,
        _MODE_CODES[weights.mode],
        _ACT_CODES[weights.activation],
        1 if (weights.mode == MODE_BLA and weights.P is not None) else 0,
        weights.d_face,
        weights.d_iris,
        weights.out_dim,
    )
    parts = [header]
    if weights.mode == MODE_FCA:
        parts.append(weights.W.astype("<f4").tobytes(order="C"))
        parts.append(weights.b.astype("<f4").tobytes(order="C"))
    elif weights.P is not None:
        parts.append(weights.P.astype("<f4").tobytes(order="C"))
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_weights(path) -> FusionWeights:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 20 or blob[:4] != _MAGIC:
        raise ParseError("not a fusion weights file")
    version, mode_code, act_code, flags, d_face, d_iris, out_dim = struct.unpack(
        "<BBBBIII", blob[4:20]
    )
    if version != _VERSION:
        raise ParseError(f"unsupported weights version {version}")
    modes = {v: k for k, v in _MODE_CODES.items()}
    acts = {v: k for k, v in _ACT_CODES.items()}
    if mode_code not in modes or act_code not in acts:
        raise ParseError("unknown mode or activation code")
    mode, activation = modes[mode_code], acts[act_code]
    payload = blob[20:]

    def take(count, what):
        nonlocal payload
        nbytes = 4 * count
        if len(payload) < nbytes:
            raise ParseError(f"truncated weights file: missing {what}")
        out = np.frombuffer(payload[:nbytes], dtype="<f4").astype(np.float64)
        payload = payload[nbytes:]
        return out

    if mode == MODE_FCA:
        W = take(out_dim * (d_face + d_iris), "W").reshape(out_dim, d_face + d_iris)
        b = take(out_dim, "b")
        if payload:
            raise ParseError("trailing bytes after fca payload")
        return FusionWeights(mode, d_face, d_iris, out_dim, activation, W=W, b=b)
    if flags & 1:
        P = take(out_dim * d_face * d_iris, "P").reshape(out_dim, d_face * d_iris)
        if payload:
            raise ParseError("trailing bytes after bla payload")
        return FusionWeights(mode, d_face, d_iris, out_dim, activation, P=P)
    if payload:
        raise ParseError("unexpected payload for projection-free bla weights")
    return FusionWeights(mode, d_face, d_iris, out_dim, activation)
