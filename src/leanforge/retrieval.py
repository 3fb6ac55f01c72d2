"""Example retrieval: a trainable linear projection over pluggable base
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
from typing import List, Optional, Sequence, Tuple

import numpy as np
import requests

from . import artifacts

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


class EmbeddingServiceError(RuntimeError):
    """Transport failure or malformed reply from an embedding provider."""


@dataclass(frozen=True)
class EmbeddingVector:
    """A dense vector with its euclidean norm cached at construction."""

    values: np.ndarray
    norm: float

    @property
    def dimension(self) -> int:
        return int(self.values.shape[0])


def embedding(values: Sequence[float]) -> EmbeddingVector:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatch(f"expected a 1-d vector, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise EmptyInput("empty vector")
    return EmbeddingVector(values=arr, norm=float(np.linalg.norm(arr)))


def mean_pool(vectors: Sequence[EmbeddingVector]) -> EmbeddingVector:
    """Component-wise mean of token vectors; the sentence encoding."""
    if not vectors:
        raise EmptyInput("mean_pool of zero vectors")
    dim = vectors[0].dimension
    for v in vectors[1:]:
        if v.dimension != dim:
            raise DimensionMismatch(f"mixed dimensions {dim} and {v.dimension}")
    stacked = np.stack([v.values for v in vectors])
    return embedding(stacked.mean(axis=0))


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

    def project(self, vector: EmbeddingVector) -> np.ndarray:
        if vector.dimension != self.d_in:
            raise DimensionMismatch(
                f"vector dimension {vector.dimension} != head d_in {self.d_in}"
            )
        return self.weights @ vector.values

    def checksum(self) -> str:
        return hashlib.sha256(self.weights.astype("<f8").tobytes()).hexdigest()


def save_head(head: ProjectionHead, path: str) -> None:
    payload = {
        "d_in": head.d_in,
        "d_out": head.d_out,
        "seed": head.seed,
        "init": head.init,
        "checksum": head.checksum(),
        "weights": head.weights.tolist(),
    }
    artifacts.write_json(path, payload)


def load_head(path: str) -> ProjectionHead:
    payload = artifacts.read_json(path)
    head = ProjectionHead(
        weights=np.asarray(payload["weights"], dtype=np.float64),
        d_in=int(payload["d_in"]),
        d_out=int(payload["d_out"]),
        seed=int(payload["seed"]),
        init=payload.get("init", "uniform"),
    )
    if head.checksum() != payload["checksum"]:
        raise RetrievalError(f"head checksum mismatch in {path}")
    return head


# --- contrastive loss and gradient -------------------------------------------


@dataclass
class AlignmentBatch:
    """A batch of aligned (nl, fl) pairs with an in-batch negative assignment.

    ``negative_assignment[i]`` is the index j != i whose nl/fl vectors serve
    as the negatives for pair i; by default the next pair around the ring.
    """

    pairs: Sequence[Tuple[EmbeddingVector, EmbeddingVector]]
    negative_assignment: Optional[Sequence[int]] = None

    def __post_init__(self) -> None:
        size = len(self.pairs)
        if size < 2:
            raise EmptyInput("alignment batch needs at least two pairs")
        dim = self.pairs[0][0].dimension
        for nl, fl in self.pairs:
            if nl.dimension != dim or fl.dimension != dim:
                raise DimensionMismatch("inconsistent dimensions in batch")
        if self.negative_assignment is None:
            self.negative_assignment = [(i + 1) % size for i in range(size)]
        if len(self.negative_assignment) != size:
            raise DimensionMismatch("negative assignment length != batch size")
        for i, j in enumerate(self.negative_assignment):
            if i == j or not 0 <= j < size:
                raise RetrievalError(f"invalid negative assignment {j} for pair {i}")

    def matrices(self) -> Tuple[np.ndarray, np.ndarray]:
        nl = np.stack([pair[0].values for pair in self.pairs])
        fl = np.stack([pair[1].values for pair in self.pairs])
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
    j = np.asarray(batch.negative_assignment)
    pos = _row_cos(a, b, na, nb)
    neg_nl = _row_cos(a[j], b, na[j], nb)
    neg_fl = _row_cos(a, b[j], na, nb[j])
    per_pair = 1.0 - pos + 0.5 * (neg_nl + neg_fl)
    return float(per_pair.mean())


def cosine_pair_gradient(
    u: EmbeddingVector, v: EmbeddingVector, head: ProjectionHead
) -> np.ndarray:
    """d cos(Wu, Wv) / dW for a single pair."""
    a = head.project(u)
    b = head.project(v)
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ZeroNormVector("projected vector has zero norm")
    c = float(a @ b) / (na * nb)
    g_a = b / (na * nb) - c * a / (na * na)
    g_b = a / (na * nb) - c * b / (nb * nb)
    return np.outer(g_a, u.values) + np.outer(g_b, v.values)


def contrastive_gradient(batch: AlignmentBatch, head: ProjectionHead) -> np.ndarray:
    """Analytic dLoss/dW, same shape as the head weights."""
    nl_raw, fl_raw, a, b, na, nb = _projected_rows(batch, head)
    size = len(batch.pairs)
    j = np.asarray(batch.negative_assignment)

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


@dataclass
class TrainConfig:
    lr: float = 0.05
    steps: int = 500
    batch_size: int = 8
    seed: int = 0
    init: str = "uniform"
    d_out: Optional[int] = None  # defaults to the input dimension


def train_projection(
    pairs: Sequence[Tuple[EmbeddingVector, EmbeddingVector]],
    config: TrainConfig,
) -> Tuple[ProjectionHead, List[float]]:
    """Seeded gradient descent on the contrastive loss.

    Returns the trained head and the per-step loss trace (length == steps).
    Identical config and pairs give a bit-identical trace.
    """
    if len(pairs) < 2:
        raise EmptyInput("need at least two pairs to train")
    if config.lr <= 0 or config.steps < 0 or config.batch_size < 2:
        raise ValueError("training config must have lr > 0, steps >= 0, batch_size >= 2")
    d_in = pairs[0][0].dimension
    d_out = config.d_out or d_in
    head = ProjectionHead.initialize(d_in, d_out, config.seed, config.init)
    rng = np.random.default_rng(config.seed)
    batch_size = max(2, min(config.batch_size, len(pairs)))

    trace: List[float] = []
    for step in range(config.steps):
        chosen = rng.choice(len(pairs), size=batch_size, replace=False)
        batch = AlignmentBatch(pairs=[pairs[k] for k in chosen])
        loss = contrastive_loss(batch, head)
        if not np.isfinite(loss):
            raise DivergedLoss(f"non-finite loss {loss!r} at step {step}")
        grad = contrastive_gradient(batch, head)
        head.weights = head.weights - config.lr * grad
        trace.append(loss)
    return head, trace


# --- similarity index ---------------------------------------------------------


@dataclass
class SimilarityIndex:
    """Projected corpus vectors, frozen after construction."""

    ids: List[str]
    vectors: np.ndarray  # (n, d_out), projected
    norms: np.ndarray
    head: ProjectionHead

    @property
    def dimension(self) -> int:
        return int(self.vectors.shape[1])

    def __len__(self) -> int:
        return len(self.ids)


def build_index(
    corpus: Sequence[Tuple[str, EmbeddingVector]], head: ProjectionHead
) -> SimilarityIndex:
    if not corpus:
        raise EmptyInput("cannot index an empty corpus")
    ids = []
    rows = []
    for entry_id, vector in corpus:
        if vector.dimension != head.d_in:
            raise DimensionMismatch(
                f"entry {entry_id!r} dimension {vector.dimension} != head d_in {head.d_in}"
            )
        ids.append(entry_id)
        rows.append(head.weights @ vector.values)
    vectors = np.stack(rows)
    norms = np.linalg.norm(vectors, axis=1)
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        raise ZeroNormVector(f"projected entry {ids[zero[0]]!r} has zero norm")
    return SimilarityIndex(ids=ids, vectors=vectors, norms=norms, head=head)


def top_k(index: SimilarityIndex, query: EmbeddingVector, k: int) -> List[Tuple[str, float]]:
    """The k most similar entries, descending; ties broken by ascending id."""
    if k <= 0:
        return []
    projected = index.head.project(query)
    qnorm = float(np.linalg.norm(projected))
    if qnorm == 0.0:
        raise ZeroNormQuery("projected query has zero norm")
    sims = index.vectors @ projected / (index.norms * qnorm)
    order = sorted(range(len(index)), key=lambda i: (-sims[i], index.ids[i]))
    return [(index.ids[i], float(sims[i])) for i in order[:k]]


# --- similarity histogram -----------------------------------------------------


def similarity_histogram(
    nl_vectors: Sequence[EmbeddingVector],
    fl_vectors: Sequence[EmbeddingVector],
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


# --- base embedding providers -------------------------------------------------


class HashEmbedder:
    """Deterministic char-n-gram feature-hash embedder.

    Each character n-gram (n = 2..4, over sentinel-padded text) hashes to a
    signed one-hot token vector; the text encoding is the mean pool of its
    token vectors.  Stable across runs and platforms.
    """

    def __init__(self, dimension: int = 64):
        if dimension <= 0:
            raise DimensionMismatch("dimension must be positive")
        self.dimension = dimension

    def _ngram_vector(self, gram: str) -> EmbeddingVector:
        digest = hashlib.sha256(gram.encode("utf-8")).digest()
        bucket = int.from_bytes(digest[:4], "big") % self.dimension
        sign = 1.0 if digest[4] % 2 == 0 else -1.0
        values = np.zeros(self.dimension)
        values[bucket] = sign
        return EmbeddingVector(values=values, norm=1.0)

    def embed(self, texts: Sequence[str]) -> List[EmbeddingVector]:
        out = []
        for text in texts:
            padded = "\x02" + text + "\x03"
            grams = [
                padded[i : i + n]
                for n in (2, 3, 4)
                for i in range(len(padded) - n + 1)
            ]
            out.append(mean_pool([self._ngram_vector(g) for g in grams]))
        return out


class HttpEmbedder:
    """Provider speaking the embedding wire contract.

    POST ``{"texts": [...]}`` to the endpoint; the reply must be
    ``{"vectors": [[...], ...]}`` with one vector of the configured dimension
    per input text.
    """

    def __init__(self, endpoint: str, dimension: int, timeout: float = 30.0, session=None):
        self.endpoint = endpoint
        self.dimension = dimension
        self.timeout = timeout
        self._session = session or requests.Session()

    def embed(self, texts: Sequence[str]) -> List[EmbeddingVector]:
        if not texts:
            return []
        try:
            reply = self._session.post(
                self.endpoint, json={"texts": list(texts)}, timeout=self.timeout
            )
        except requests.RequestException as exc:
            raise EmbeddingServiceError(f"embedding request failed: {exc}") from exc
        if reply.status_code != 200:
            raise EmbeddingServiceError(
                f"embedding service returned {reply.status_code}"
            )
        try:
            vectors = reply.json()["vectors"]
        except (ValueError, KeyError) as exc:
            raise EmbeddingServiceError(f"malformed embedding reply: {exc}") from exc
        if not isinstance(vectors, list) or len(vectors) != len(texts):
            raise EmbeddingServiceError(
                f"expected {len(texts)} vectors, got {len(vectors) if isinstance(vectors, list) else type(vectors)}"
            )
        out = []
        for row in vectors:
            vec = embedding(row)
            if vec.dimension != self.dimension:
                raise DimensionMismatch(
                    f"provider returned dimension {vec.dimension}, expected {self.dimension}"
                )
            out.append(vec)
        return out
