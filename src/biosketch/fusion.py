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
small binary file or generated from a seed for synthetic experiments.
In-memory arrays are float64; the file payload is float32. ``_HEADER`` is the
file's 20-byte header and ``_layout`` names the arrays of the payload, in file
order, with their shapes; README "File formats" is the bit-exact spec.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

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
# magic, version, mode, activation, flags (bit 0: bla projection present),
# d_face, d_iris, out_dim
_HEADER = struct.Struct("<4sBBBBIII")


def _layout(mode: str, d_face: int, d_iris: int, out_dim: int,
            projected: bool) -> dict[str, tuple[int, ...]]:
    """Name -> shape of each array a weights set holds, in file order."""
    if min(d_face, d_iris, out_dim) <= 0:
        raise DimensionMismatchError("dimensions must be positive")
    if mode == MODE_FCA:
        return {"W": (out_dim, d_face + d_iris), "b": (out_dim,)}
    if projected:
        return {"P": (out_dim, d_face * d_iris)}
    if out_dim != d_face * d_iris:
        raise DimensionMismatchError("bla without projection requires out_dim = d_face * d_iris")
    return {}


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
    P: np.ndarray | None = None  # bla, optional

    def __post_init__(self):
        if self.mode not in _MODE_CODES:
            raise ValueError(f"unknown fusion mode {self.mode!r}")
        if self.activation not in _ACT_CODES:
            raise ValueError(f"unknown activation {self.activation!r}")
        layout = _layout(self.mode, self.d_face, self.d_iris, self.out_dim,
                         self.P is not None)
        for name in ("W", "b", "P"):
            given = getattr(self, name)
            if given is None:
                if name in layout:
                    raise DimensionMismatchError(f"{self.mode} weights need {name}")
                continue
            if name not in layout:
                raise DimensionMismatchError(f"{self.mode} weights take no {name}")
            array = np.asarray(given, dtype=np.float64)
            if array.shape != layout[name]:
                raise DimensionMismatchError(f"{name} shape {array.shape} != {layout[name]}")
            setattr(self, name, array)


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
    # Finite inputs can still overflow to inf or nan. That is no warning:
    # callers refuse non-finite fused values where they read them.
    with np.errstate(over="ignore", invalid="ignore"):
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


def random_weights(mode: str, d_face: int, d_iris: int, out_dim: int, seed) -> FusionWeights:
    """Seeded random weights for synthetic experiments.

    Matrix entries are Gaussian with 1/sqrt(fan_in) scale, drawn in layout
    order; the fca bias is zero. bla weights carry a projection P only when
    out_dim != d_face * d_iris. The activation is relu for fca and identity
    for bla.
    """
    rng = np.random.default_rng(seed)
    layout = _layout(mode, d_face, d_iris, out_dim, out_dim != d_face * d_iris)
    arrays = {name: rng.normal(0.0, 1.0 / np.sqrt(shape[1]), size=shape) if len(shape) == 2
              else np.zeros(shape) for name, shape in layout.items()}
    activation = ACT_RELU if mode == MODE_FCA else ACT_IDENTITY
    return FusionWeights(mode, d_face, d_iris, out_dim, activation, **arrays)


def save_weights(weights: FusionWeights, path):
    header = _HEADER.pack(_MAGIC, _VERSION, _MODE_CODES[weights.mode],
                          _ACT_CODES[weights.activation], int(weights.P is not None),
                          weights.d_face, weights.d_iris, weights.out_dim)
    layout = _layout(weights.mode, weights.d_face, weights.d_iris, weights.out_dim,
                     weights.P is not None)
    with open(path, "wb") as fh:
        fh.write(header + b"".join(getattr(weights, name).astype("<f4").tobytes()
                                   for name in layout))


def load_weights(path) -> FusionWeights:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size or blob[:4] != _MAGIC:
        raise ParseError("not a fusion weights file")
    _, version, mode_code, act_code, flags, d_face, d_iris, out_dim = _HEADER.unpack_from(blob)
    if version != _VERSION:
        raise ParseError(f"unsupported weights version {version}")
    modes = {v: k for k, v in _MODE_CODES.items()}
    acts = {v: k for k, v in _ACT_CODES.items()}
    if mode_code not in modes or act_code not in acts:
        raise ParseError("unknown mode or activation code")
    mode = modes[mode_code]
    layout = _layout(mode, d_face, d_iris, out_dim, bool(flags & 1))
    sizes = [math.prod(shape) for shape in layout.values()]
    if len(blob) - _HEADER.size != 4 * sum(sizes):
        raise ParseError(f"{mode} weights payload is {len(blob) - _HEADER.size} bytes, "
                         f"the header implies {4 * sum(sizes)}")
    values = np.frombuffer(blob, dtype="<f4", offset=_HEADER.size).astype(np.float64)
    if not np.isfinite(values).all():
        raise ParseError(f"{mode} weights hold non-finite values")
    chunks = np.split(values, np.cumsum(sizes[:-1], dtype=np.int64))
    return FusionWeights(mode, d_face, d_iris, out_dim, acts[act_code],
                         **{name: chunk.reshape(shape)
                            for (name, shape), chunk in zip(layout.items(), chunks)})
