"""Example retrieval: a trainable linear projection over char-n-gram hash
embeddings, scored by cosine similarity.

The projection head is trained with a contrastive objective over aligned
NL-FL pairs: for each pair the loss rewards cosine similarity between the
projected pair and penalizes similarity against an in-batch negative,
``1 - cos(nl, fl) + (cos(nl_neg, fl) + cos(nl, fl_neg)) / 2`` averaged over
the batch.  Training is plain full-gradient descent; the gradient is
analytic and is checked against finite differences in the tests.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple

import numpy as np

from . import artifacts
from .config import RetrievalSettings

logger = logging.getLogger(__name__)


class RetrievalError(ValueError):
    pass


class EmptyInput(RetrievalError):
    pass


class DimensionMismatch(RetrievalError):
    pass


class ZeroNormVector(RetrievalError):
    pass


class ZeroNormQuery(RetrievalError):
    pass


class DivergedLoss(RetrievalError):
    pass


def embedding(values: Sequence[float]) -> np.ndarray:
    """``values`` as a 1-d, non-empty float64 vector."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatch(f"expected a 1-d vector, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise EmptyInput("empty vector")
    return arr


# --- projection head ---------------------------------------------------------


@dataclass
class ProjectionHead:
    weights: np.ndarray  # (d_out, d_in)
    d_in: int
    d_out: int
    seed: int
    init: str = "uniform"

    @classmethod
    def initialize(cls, d_in: int, d_out: int, seed: int, init: str = "uniform") -> "ProjectionHead":
        if d_in <= 0 or d_out <= 0:
            raise DimensionMismatch("head dimensions must be positive")
        if d_out > d_in:
            raise DimensionMismatch("projection cannot expand: d_out must be <= d_in")
        if init == "identity":
            if d_out != d_in:
                raise DimensionMismatch("identity init requires d_out == d_in")
            weights = np.eye(d_out, dtype=np.float64)
        elif init == "uniform":
            rng = np.random.default_rng(seed)
            weights = rng.uniform(-0.1, 0.1, size=(d_out, d_in))
        else:
            raise ValueError(f"unknown init {init!r}")
        return cls(weights=weights, d_in=d_in, d_out=d_out, seed=seed, init=init)

    def project(self, vector: np.ndarray) -> np.ndarray:
        if vector.shape[0] != self.d_in:
            raise DimensionMismatch(
                f"vector dimension {vector.shape[0]} != head d_in {self.d_in}"
            )
        return self.weights @ vector

    def checksum(self) -> str:
        return hashlib.sha256(self.weights.astype("<f8").tobytes()).hexdigest()


@dataclass(frozen=True)
class _HeadFile:
    """``projection.json``: a head and the checksum of its weights."""

    d_in: int
    d_out: int
    seed: int
    init: str
    checksum: str
    weights: Tuple[Tuple[float, ...], ...]


def save_head(head: ProjectionHead, path: str) -> None:
    artifacts.write_json(path, _HeadFile(
        head.d_in, head.d_out, head.seed, head.init, head.checksum(),
        head.weights.tolist()))


def load_head(path: str) -> ProjectionHead:
    stored = artifacts.decode(artifacts.read_json(path), _HeadFile, path)
    if [len(row) for row in stored.weights] != [stored.d_in] * stored.d_out:
        raise RetrievalError(
            f"{path}: weights are not {stored.d_out} rows of {stored.d_in} values")
    head = ProjectionHead(
        weights=np.asarray(stored.weights, dtype=np.float64),
        d_in=stored.d_in,
        d_out=stored.d_out,
        seed=stored.seed,
        init=stored.init,
    )
    if head.checksum() != stored.checksum:
        raise RetrievalError(f"head checksum mismatch in {path}")
    return head


# --- contrastive loss and gradient -------------------------------------------


@dataclass
class AlignmentBatch:
    """A batch of aligned (nl, fl) pairs. The negatives for pair i are the
    vectors of the next pair around the ring, i + 1 mod the batch size."""

    pairs: Sequence[Tuple[np.ndarray, np.ndarray]]

    def __post_init__(self) -> None:
        if len(self.pairs) < 2:
            raise EmptyInput("alignment batch needs at least two pairs")
        dim = self.pairs[0][0].shape[0]
        for nl, fl in self.pairs:
            if nl.shape[0] != dim or fl.shape[0] != dim:
                raise DimensionMismatch("inconsistent dimensions in batch")

    def negatives(self) -> np.ndarray:
        size = len(self.pairs)
        return (np.arange(size) + 1) % size

    def matrices(self) -> Tuple[np.ndarray, np.ndarray]:
        nl = np.stack([pair[0] for pair in self.pairs])
        fl = np.stack([pair[1] for pair in self.pairs])
        return nl, fl


def _projected_rows(batch: AlignmentBatch, head: ProjectionHead) -> Tuple[np.ndarray, ...]:
    nl_raw, fl_raw = batch.matrices()
    if nl_raw.shape[1] != head.d_in:
        raise DimensionMismatch(
            f"batch dimension {nl_raw.shape[1]} != head d_in {head.d_in}"
        )
    a = nl_raw @ head.weights.T
    b = fl_raw @ head.weights.T
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    for side, norms in (("nl", na), ("fl", nb)):
        zero = np.nonzero(norms == 0.0)[0]
        if zero.size:
            raise ZeroNormVector(f"projected {side} vector of pair {zero[0]} has zero norm")
    return nl_raw, fl_raw, a, b, na, nb


def _row_cos(a: np.ndarray, b: np.ndarray, na: np.ndarray, nb: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b) / (na * nb)


def contrastive_loss(batch: AlignmentBatch, head: ProjectionHead) -> float:
    _, _, a, b, na, nb = _projected_rows(batch, head)
    j = batch.negatives()
    pos = _row_cos(a, b, na, nb)
    neg_nl = _row_cos(a[j], b, na[j], nb)
    neg_fl = _row_cos(a, b[j], na, nb[j])
    per_pair = 1.0 - pos + 0.5 * (neg_nl + neg_fl)
    return float(per_pair.mean())


def contrastive_gradient(batch: AlignmentBatch, head: ProjectionHead) -> np.ndarray:
    """Analytic dLoss/dW, same shape as the head weights."""
    nl_raw, fl_raw, a, b, na, nb = _projected_rows(batch, head)
    size = len(batch.pairs)
    j = batch.negatives()

    d_a = np.zeros_like(a)
    d_b = np.zeros_like(b)

    def accumulate(rows_a, rows_b, coeff):
        av, bv = a[rows_a], b[rows_b]
        nav, nbv = na[rows_a], nb[rows_b]
        inv = 1.0 / (nav * nbv)
        c = np.einsum("ij,ij->i", av, bv) * inv
        g_a = bv * inv[:, None] - (c / nav**2)[:, None] * av
        g_b = av * inv[:, None] - (c / nbv**2)[:, None] * bv
        np.add.at(d_a, rows_a, coeff * g_a)
        np.add.at(d_b, rows_b, coeff * g_b)

    rows = np.arange(size)
    accumulate(rows, rows, -1.0 / size)
    accumulate(j, rows, 0.5 / size)
    accumulate(rows, j, 0.5 / size)

    return d_a.T @ nl_raw + d_b.T @ fl_raw


def train_projection(
    pairs: Sequence[Tuple[np.ndarray, np.ndarray]],
    settings: RetrievalSettings,
    seed: int,
) -> Tuple[ProjectionHead, List[float]]:
    """Seeded gradient descent on the contrastive loss, with the ``lr``,
    ``steps``, ``batch_size`` and ``projection_dim`` of ``settings``; the
    head starts from the uniform initialization of ``seed``, and
    ``projection_dim`` defaults to the input dimension.

    Returns the trained head and the per-step loss trace (length == steps).
    Identical settings, seed and pairs give a bit-identical trace.
    """
    if len(pairs) < 2:
        raise EmptyInput("need at least two pairs to train")
    d_in = pairs[0][0].shape[0]
    head = ProjectionHead.initialize(d_in, settings.projection_dim or d_in, seed)
    rng = np.random.default_rng(seed)
    batch_size = min(settings.batch_size, len(pairs))

    trace: List[float] = []
    for step in range(settings.steps):
        chosen = rng.choice(len(pairs), size=batch_size, replace=False)
        batch = AlignmentBatch(pairs=[pairs[k] for k in chosen])
        loss = contrastive_loss(batch, head)
        if not np.isfinite(loss):
            raise DivergedLoss(f"non-finite loss {loss!r} at step {step}")
        grad = contrastive_gradient(batch, head)
        head.weights = head.weights - settings.lr * grad
        trace.append(loss)
    return head, trace


# --- similarity index ---------------------------------------------------------


@dataclass
class SimilarityIndex:
    """Projected corpus vectors, frozen after construction. Ids are any
    values that compare with each other (names, or name-position tuples)."""

    ids: List[Any]
    vectors: np.ndarray  # (n, d_out), projected
    norms: np.ndarray
    head: ProjectionHead

    @property
    def dimension(self) -> int:
        return int(self.vectors.shape[1])

    def __len__(self) -> int:
        return len(self.ids)


def build_index(
    corpus: Sequence[Tuple[Any, np.ndarray]], head: ProjectionHead
) -> SimilarityIndex:
    if not corpus:
        raise EmptyInput("cannot index an empty corpus")
    ids = []
    rows = []
    for entry_id, vector in corpus:
        if vector.shape[0] != head.d_in:
            raise DimensionMismatch(
                f"entry {entry_id!r} dimension {vector.shape[0]} != head d_in {head.d_in}"
            )
        ids.append(entry_id)
        rows.append(head.weights @ vector)
    vectors = np.stack(rows)
    norms = np.linalg.norm(vectors, axis=1)
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        raise ZeroNormVector(f"projected entry {ids[zero[0]]!r} has zero norm")
    return SimilarityIndex(ids=ids, vectors=vectors, norms=norms, head=head)


def top_k(index: SimilarityIndex, query: np.ndarray, k: int) -> List[Tuple[Any, float]]:
    """The k most similar entries, descending; ties broken by ascending id."""
    if k <= 0:
        return []
    projected = index.head.project(query)
    qnorm = float(np.linalg.norm(projected))
    if qnorm == 0.0:
        raise ZeroNormQuery("projected query has zero norm")
    sims = index.vectors @ projected / (index.norms * qnorm)
    # The last key sorts first. Ids sit in a one-dimensional object array, so
    # they compare as Python values: a fixed-width unicode array would drop
    # trailing NULs, and np.array would split tuple ids into columns.
    ids = np.fromiter(index.ids, dtype=object, count=len(index.ids))
    order = np.lexsort((ids, -sims))
    return [(index.ids[i], float(sims[i])) for i in order[:k]]


# --- similarity histogram -----------------------------------------------------


def similarity_histogram(
    nl_vectors: Sequence[np.ndarray],
    fl_vectors: Sequence[np.ndarray],
    head: ProjectionHead,
    bins: int = 40,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cosine similarities of every NL x FL combination under the head.

    Returns (edges, counts, matrix); matrix[i, j] = cos(nl_i, fl_j) on the
    projected encodings, so row/column diagonals are the aligned pairs.
    """
    if not nl_vectors or not fl_vectors:
        raise EmptyInput("histogram needs vectors on both sides")
    a = np.stack([head.project(v) for v in nl_vectors])
    b = np.stack([head.project(v) for v in fl_vectors])
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    if np.any(na == 0.0) or np.any(nb == 0.0):
        raise ZeroNormVector("projected vector has zero norm")
    # rounding can push a self-cosine a hair past 1.0; clamp to the valid range
    matrix = np.clip((a @ b.T) / np.outer(na, nb), -1.0, 1.0)
    counts, edges = np.histogram(matrix.ravel(), bins=bins, range=(-1.0, 1.0))
    return edges, counts, matrix


def write_histogram_csv(path: str, edges: np.ndarray, counts: np.ndarray) -> None:
    artifacts.write_text(path, "bin_left,bin_right,count\n" + "".join(
        f"{left:.6f},{right:.6f},{int(count)}\n"
        for left, right, count in zip(edges[:-1], edges[1:], counts)))


# --- base embedding ------------------------------------------------------------


class HashEmbedder:
    """Deterministic char-n-gram feature-hash embedder.

    Each character n-gram (n = 2..4, over sentinel-padded text) hashes to a
    bucket and a sign; the text encoding is the mean of the signed one-hot
    vectors of its n-grams, summed per bucket.  Stable across runs and
    platforms.
    """

    def __init__(self, dimension: int = 64):
        self.dimension = dimension

    def embed(self, texts: Sequence[str]) -> List[np.ndarray]:
        # Texts share most of their n-grams, so one call hashes each distinct
        # gram once, to the code 2 * bucket + (1 if its sign is -1 else 0).
        # Bucket sums are exact integer counts, so the vectors match the
        # per-gram sum bit for bit.
        codes = {}
        out = []
        for text in texts:
            padded = "\x02" + text + "\x03"
            grams = [
                padded[i : i + n]
                for n in (2, 3, 4)
                for i in range(len(padded) - n + 1)
            ]
            for gram in grams:
                if gram not in codes:
                    digest = hashlib.sha256(gram.encode("utf-8")).digest()
                    bucket = int.from_bytes(digest[:4], "big") % self.dimension
                    codes[gram] = 2 * bucket + digest[4] % 2
            counts = np.bincount([codes[gram] for gram in grams],
                                 minlength=2 * self.dimension)
            out.append((counts[0::2] - counts[1::2]) / len(grams))
        return out
