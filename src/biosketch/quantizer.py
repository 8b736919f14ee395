"""Binarization and user-specific reliable-component selection.

The fused feature vector is binarized against per-dimension population
medians, so over the reference population every dimension splits evenly and
an unrelated subject's bits look like fair coin flips. Per user, dimensions
are scored by the probability that a fresh sample reproduces the enrolled
bit under a Gaussian model, and the key is a nonce-keyed draw of G
dimensions from a window of the top-scoring candidates. The window is what
makes keys revocable: a fresh nonce yields a different key over nearly as
reliable components. With ``window_factor=1`` the draw degenerates to the
plain top-G set.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InsufficientDataError, ParseError
from .rs import as_bits
from .textfile import from_text, parse_plain_int, to_text

SIGMA_FLOOR = 1e-9


@dataclass(frozen=True)
class PopulationStats:
    """Per-dimension median over a reference population."""

    median: np.ndarray

    @property
    def dimension(self) -> int:
        return self.median.size


@dataclass(frozen=True)
class UserStats:
    """Per-dimension mean and standard deviation of one user's samples."""

    mean: np.ndarray
    std: np.ndarray

    @property
    def dimension(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class ReliableKey:
    """The user-specific key: G sorted component indices plus its nonce.

    ``indices`` may be given as any sequence of ints and is kept as a
    tuple; ``index_array`` holds the same indices as a read-only array for
    gathers.
    """

    indices: tuple[int, ...]
    dimension: int
    nonce: int
    index_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        idx = np.array(self.indices, dtype=np.intp)
        if idx.ndim != 1:
            raise ValueError("key indices must be a flat sequence")
        if np.any(idx[1:] <= idx[:-1]):
            raise ValueError("key indices must be strictly increasing")
        if idx.size and (idx[0] < 0 or idx[-1] >= self.dimension):
            raise IndexError("key index out of range")
        idx.setflags(write=False)
        object.__setattr__(self, "indices", tuple(idx.tolist()))
        object.__setattr__(self, "index_array", idx)

    @property
    def count(self) -> int:
        return len(self.indices)


def population_stats(vectors, subject_ids) -> PopulationStats:
    """Reference statistics from fused vectors labelled by subject."""
    mat = np.asarray(vectors, dtype=np.float64)
    if mat.ndim != 2:
        raise DimensionMismatchError("vectors must be a (samples, dims) matrix")
    ids = list(subject_ids)
    if len(ids) != mat.shape[0]:
        raise DimensionMismatchError("one subject id per sample row required")
    if len(set(ids)) < 2:
        raise InsufficientDataError("population statistics need >= 2 subjects")
    if not np.all(np.isfinite(mat)):
        raise ValueError("non-finite values in population vectors")
    # np.median(mat, axis=0), step for step, without its NaN check: that
    # check imports numpy.ma on first use, and mat is finite.
    n = mat.shape[0]
    kth = [n // 2 - 1, n // 2] if n % 2 == 0 else [n // 2]
    part = np.partition(mat, kth + [-1], axis=0)
    return PopulationStats(median=np.mean(part[(n - 1) // 2:n // 2 + 1], axis=0))


def user_stats(vectors) -> UserStats:
    """Enrollment statistics from one user's fused sample vectors."""
    mat = np.asarray(vectors, dtype=np.float64)
    if mat.ndim != 2:
        raise DimensionMismatchError("vectors must be a (samples, dims) matrix")
    if mat.shape[0] < 2:
        raise InsufficientDataError("user statistics need >= 2 samples")
    return UserStats(mean=mat.mean(axis=0), std=mat.std(axis=0, ddof=1))


def binarize(vectors, pop: PopulationStats) -> np.ndarray:
    """Bit j of a vector, or of each row, is 1 above the population median."""
    vec = np.asarray(vectors, dtype=np.float64)
    if vec.ndim not in (1, 2) or vec.shape[-1] != pop.dimension:
        raise DimensionMismatchError(
            f"vectors have shape {vec.shape}, expected (..., {pop.dimension})"
        )
    # A comparison would read nan as 0 and inf as 1.
    if not np.isfinite(vec).all():
        raise ValueError("non-finite values in vectors to binarize")
    return (vec > pop.median).astype(np.uint8)


def reliability(user: UserStats, pop: PopulationStats) -> np.ndarray:
    """Probability that a fresh sample reproduces the enrolled bit.

    Gaussian model per dimension: Phi(|mu - median| / sigma). Zero-variance
    dimensions use a floor of 1e-9, which drives the score to 1 when the
    mean is off the median and leaves it at 0.5 otherwise.
    """
    if user.dimension != pop.dimension:
        raise DimensionMismatchError(
            f"user dimension {user.dimension} != population {pop.dimension}"
        )
    z = np.abs(user.mean - pop.median) / np.maximum(user.std, SIGMA_FLOOR)
    # Multiply by sqrt(1/2): z / sqrt(2) rounds differently, shifts the float
    # ties just below 1.0 and with them every m=8 key.
    x = z * math.sqrt(0.5)
    return np.array([0.5 * math.erfc(-v) for v in x.tolist()])


def select_reliable(scores, count: int, nonce: int,
                    window_factor: float = 2.0) -> ReliableKey:
    """Nonce-keyed draw of `count` indices from the top-scoring window.

    Candidates are ranked by score with a nonce-keyed pseudorandom
    permutation breaking ties; the window is the best
    min(d, round(count * window_factor)) of them and the key is a uniform
    draw of `count` indices from the window using the same nonce. The result
    is a pure function of (scores, count, nonce, window_factor).
    """
    sc = np.asarray(scores, dtype=np.float64)
    if sc.ndim != 1:
        raise DimensionMismatchError("scores must be a 1-D vector")
    d = sc.size
    if not 1 <= count <= d:
        raise ValueError(f"cannot select {count} of {d} components")
    if not 1.0 <= window_factor < np.inf:
        raise ValueError(f"window_factor must be finite and >= 1, got {window_factor}")
    rng = np.random.default_rng(np.random.SeedSequence([0x6B65, int(nonce)]))
    tie_break = rng.permutation(d)
    order = np.lexsort((tie_break, -sc))
    # Clamp in float: a huge finite factor overflows int(round(...)).
    window = order[: max(count, int(round(min(d, count * window_factor))))]
    chosen = rng.choice(window, size=count, replace=False)
    return ReliableKey(indices=np.sort(chosen), dimension=d, nonce=int(nonce))


def extract(bits, key: ReliableKey) -> np.ndarray:
    """Gather the key's components from a bit vector or each row of a matrix."""
    arr = as_bits(bits)
    if arr.ndim not in (1, 2):
        raise DimensionMismatchError("bits must be a vector or a matrix of rows")
    if key.dimension != arr.shape[-1]:
        raise DimensionMismatchError(
            f"key is for {key.dimension} dimensions, got {arr.shape[-1]} bits"
        )
    return arr.take(key.index_array, axis=-1)


# -- key file format ----------------------------------------------------------
#
# The grammar of ``textfile``, with the indices as the body:
#   biosketch-key v1
#   d=<dimension>
#   G=<count>
#   nonce=<decimal>
#   <index>        (one decimal index per line, ascending)

_KEY_HEADER = "biosketch-key v1"
_KEY_CASTS = {"d": parse_plain_int, "G": parse_plain_int, "nonce": parse_plain_int}

# Index lines as ``key_to_text`` writes them, each stripped and ended by a
# newline: ASCII decimals without a sign or leading zero. At most 18 digits
# keeps every index inside int64.
_INDEX_LINES = re.compile(r"(?:(?:0|[1-9][0-9]{0,17})\n)*")


def key_to_text(key: ReliableKey) -> str:
    return to_text(_KEY_HEADER, {"d": key.dimension, "G": key.count, "nonce": key.nonce},
                   (str(i) for i in key.indices))


def key_from_text(text: str) -> ReliableKey:
    fields, body = from_text(text, _KEY_HEADER, _KEY_CASTS, "key file")
    block = "\n".join(body + [""])
    if not _INDEX_LINES.fullmatch(block):
        raise ParseError("malformed key file: an index line is not a plain decimal")
    indices = np.fromstring(block, dtype=np.int64, sep="\n")
    if len(indices) != fields["G"]:
        raise ParseError(f"key file lists {len(indices)} indices, header says {fields['G']}")
    try:
        return ReliableKey(indices=indices, dimension=fields["d"], nonce=fields["nonce"])
    except (IndexError, ValueError) as exc:
        raise ParseError(f"invalid key file: {exc}") from exc
