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
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from . import artifacts
from .config import RetrievalSettings

logger = logging.getLogger(__name__)


class EmptyInput(ValueError):
    """Too few vectors to train on, index or compare."""


# --- projection head ---------------------------------------------------------


@dataclass
class ProjectionHead:
    weights: np.ndarray  # (d_out, d_in)
    d_in: int
    d_out: int
    seed: int

    @classmethod
    def initialize(cls, d_in: int, d_out: int, seed: int) -> "ProjectionHead":
        weights = np.random.default_rng(seed).uniform(-0.1, 0.1, size=(d_out, d_in))
        return cls(weights=weights, d_in=d_in, d_out=d_out, seed=seed)

    def project(self, vector: np.ndarray) -> np.ndarray:
        return self.weights @ vector

    def checksum(self) -> str:
        return hashlib.sha256(self.weights.astype("<f8").tobytes()).hexdigest()


@dataclass(frozen=True)
class _HeadFile:
    """``projection.json``: a head and the checksum of its weights."""

    d_in: int
    d_out: int
    seed: int
    init: str  # always "uniform", the one initialization
    checksum: str
    weights: Tuple[Tuple[float, ...], ...]


def save_head(head: ProjectionHead, path: str) -> None:
    artifacts.write_json(path, _HeadFile(
        head.d_in, head.d_out, head.seed, "uniform", head.checksum(),
        head.weights.tolist()))


def load_head(path: str, dimension: int) -> ProjectionHead:
    """The head in ``path``, which must take vectors of ``dimension`` values
    (``retrieval.dimension``, the width of every embedding it projects)."""
    stored = artifacts.decode(artifacts.read_json(path), _HeadFile, path)
    if [len(row) for row in stored.weights] != [stored.d_in] * stored.d_out:
        raise artifacts.ArtifactError(
            f"{path}: weights are not {stored.d_out} rows of {stored.d_in} values")
    if stored.d_in != dimension:
        raise artifacts.ArtifactError(
            f"{path}: head takes vectors of {stored.d_in} values, but "
            f"retrieval.dimension is {dimension}; run `leanforge train-retriever` "
            f"at this dimension")
    head = ProjectionHead(
        weights=np.asarray(stored.weights, dtype=np.float64),
        d_in=stored.d_in,
        d_out=stored.d_out,
        seed=stored.seed,
    )
    if head.checksum() != stored.checksum:
        raise artifacts.ArtifactError(f"head checksum mismatch in {path}")
    return head


# --- contrastive loss and gradient -------------------------------------------


def _ring(size: int) -> np.ndarray:
    """The negative of each pair of a batch: the next pair around the ring,
    i + 1 mod the batch size."""
    return (np.arange(size) + 1) % size


def _projected_rows(
    nl_raw: np.ndarray, fl_raw: np.ndarray, head: ProjectionHead
) -> Tuple[np.ndarray, ...]:
    """The batch's input rows, their projections and the projections' norms."""
    a = nl_raw @ head.weights.T
    b = fl_raw @ head.weights.T
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    for side, norms in (("nl", na), ("fl", nb)):
        zero = np.nonzero(norms == 0.0)[0]
        if zero.size:
            raise ValueError(f"projected {side} vector of pair {zero[0]} has zero norm")
    return nl_raw, fl_raw, a, b, na, nb


def _row_cos(a: np.ndarray, b: np.ndarray, na: np.ndarray, nb: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b) / (na * nb)


def _loss(rows: Tuple[np.ndarray, ...], j: np.ndarray) -> float:
    """The contrastive loss of a batch's ``_projected_rows``, pair i's
    negative being pair ``j[i]``."""
    _, _, a, b, na, nb = rows
    pos = _row_cos(a, b, na, nb)
    neg_nl = _row_cos(a[j], b, na[j], nb)
    neg_fl = _row_cos(a, b[j], na, nb[j])
    per_pair = 1.0 - pos + 0.5 * (neg_nl + neg_fl)
    return float(per_pair.mean())


def _gradient(rows: Tuple[np.ndarray, ...], j: np.ndarray) -> np.ndarray:
    """Analytic dLoss/dW of ``_loss``, the shape of the head weights. Each
    term's rows are a permutation of the batch, so indexed ``+=`` adds each
    row once."""
    nl_raw, fl_raw, a, b, na, nb = rows
    size = len(a)

    d_a = np.zeros_like(a)
    d_b = np.zeros_like(b)

    def accumulate(rows_a, rows_b, coeff):
        av, bv = a[rows_a], b[rows_b]
        nav, nbv = na[rows_a], nb[rows_b]
        inv = 1.0 / (nav * nbv)
        c = np.einsum("ij,ij->i", av, bv) * inv
        g_a = bv * inv[:, None] - (c / nav**2)[:, None] * av
        g_b = av * inv[:, None] - (c / nbv**2)[:, None] * bv
        d_a[rows_a] += coeff * g_a
        d_b[rows_b] += coeff * g_b

    same = slice(None)  # each pair with itself
    accumulate(same, same, -1.0 / size)
    accumulate(j, same, 0.5 / size)
    accumulate(same, j, 0.5 / size)

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

    The pairs are stacked once, and each step projects its batch once for
    both the loss (``_loss``) and the gradient (``_gradient``), with the
    ring negatives of ``_ring``.

    Returns the trained head and the per-step loss trace (length == steps).
    Identical settings, seed and pairs give a bit-identical trace.
    """
    if len(pairs) < 2:
        raise EmptyInput("need at least two pairs to train")
    d_in = pairs[0][0].shape[0]
    head = ProjectionHead.initialize(d_in, settings.projection_dim or d_in, seed)
    rng = np.random.default_rng(seed)
    batch_size = min(settings.batch_size, len(pairs))
    nl_all = np.stack([nl for nl, _ in pairs])
    fl_all = np.stack([fl for _, fl in pairs])
    j = _ring(batch_size)

    trace: List[float] = []
    for step in range(settings.steps):
        chosen = rng.choice(len(pairs), size=batch_size, replace=False)
        rows = _projected_rows(nl_all[chosen], fl_all[chosen], head)
        loss = _loss(rows, j)
        if not np.isfinite(loss):
            raise ValueError(f"non-finite loss {loss!r} at step {step}")
        grad = _gradient(rows, j)
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


def build_index(
    corpus: Sequence[Tuple[Any, np.ndarray]], head: ProjectionHead
) -> SimilarityIndex:
    if not corpus:
        raise EmptyInput("cannot index an empty corpus")
    ids = [entry_id for entry_id, _ in corpus]
    vectors = np.stack([head.project(vector) for _, vector in corpus])
    norms = np.linalg.norm(vectors, axis=1)
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        raise ValueError(f"projected entry {ids[zero[0]]!r} has zero norm")
    return SimilarityIndex(ids=ids, vectors=vectors, norms=norms, head=head)


def top_k(index: SimilarityIndex, query: np.ndarray, k: int) -> List[Tuple[Any, float]]:
    """The k most similar entries, descending; ties broken by ascending id."""
    if k <= 0:
        return []
    projected = index.head.project(query)
    qnorm = float(np.linalg.norm(projected))
    if qnorm == 0.0:
        raise ValueError("projected query has zero norm")
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
        raise ValueError("projected vector has zero norm")
    # rounding can push a self-cosine a hair past 1.0; clamp to the valid range
    matrix = np.clip((a @ b.T) / np.outer(na, nb), -1.0, 1.0)
    counts, edges = np.histogram(matrix.ravel(), bins=bins, range=(-1.0, 1.0))
    return edges, counts, matrix


def write_histogram_csv(path: str, edges: np.ndarray, counts: np.ndarray) -> None:
    artifacts.write_text(path, "bin_left,bin_right,count\n" + "".join(
        f"{left:.6f},{right:.6f},{int(count)}\n"
        for left, right, count in zip(edges[:-1], edges[1:], counts)))


# --- base embedding ------------------------------------------------------------


# ``HashEmbedder.embed`` takes its texts in chunks of about this many
# characters, which bounds the arrays one call holds at a time.
_CHUNK_CHARS = 1 << 14


class HashEmbedder:
    """Deterministic char-n-gram feature-hash embedder.

    Each character n-gram (n = 2..4, over sentinel-padded text) hashes to a
    bucket and a sign; the text encoding is the mean of the signed one-hot
    vectors of its n-grams, summed per bucket.  Stable across runs and
    platforms.
    """

    def __init__(self, dimension: int):
        self.dimension = dimension

    def embed(self, texts: Sequence[str]) -> List[np.ndarray]:
        """One vector per text, in order; a text's vector does not depend on
        the other texts of the call.

        Texts share most of their n-grams, so one call hashes each distinct
        gram once, to the code 2 * bucket + (1 if its sign is -1 else 0).
        Bucket sums are exact integer counts, so the vectors match the
        per-gram sum bit for bit.
        """
        codes: Dict[str, int] = {}
        out: List[np.ndarray] = []
        chunk: List[str] = []
        chars = 0
        for text in texts:
            chunk.append(text)
            chars += len(text)
            if chars >= _CHUNK_CHARS:
                out += self._embed_chunk(chunk, codes)
                chunk, chars = [], 0
        if chunk:
            out += self._embed_chunk(chunk, codes)
        return out

    def _embed_chunk(self, texts: List[str], codes: Dict[str, int]) -> List[np.ndarray]:
        """The vectors of ``texts``; ``codes`` holds the code of every gram
        hashed so far in the call, and gains the grams first seen here.

        The padded texts are scanned as one stream of code points. A gram's
        key is its prefix's rank times ``alphabet`` (one more than the
        largest code point) plus its last code point, where a 1-gram's rank
        is its code point and a longer gram's rank is that of its key among
        the keys of its length. Ranking the keys ranks the grams, and equal
        keys are equal grams. A key stays below the larger of the stream
        length and ``alphabet``, times ``alphabet``, so int64 holds it. Only
        grams that lie inside their own text are counted.
        """
        padded = ["\x02" + text + "\x03" for text in texts]
        stream = "".join(padded)
        lengths = np.fromiter(map(len, padded), dtype=np.int64, count=len(padded))
        owner = np.repeat(np.arange(len(padded)), lengths)
        room = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(stream))
        chars = np.frombuffer(stream.encode("utf-32-le"), dtype="<u4").astype(np.int64)
        alphabet = int(chars.max()) + 1
        width = 2 * self.dimension
        counts = np.zeros(len(padded) * width, dtype=np.int64)
        prefix = chars
        for n in (2, 3, 4):
            keys = prefix[:-1] * alphabet + chars[n - 1 :]
            distinct, prefix = np.unique(keys, return_inverse=True)
            # Any occurrence of a key spells its gram; which one the
            # assignment keeps does not matter.
            where = np.empty(len(distinct), dtype=np.int64)
            where[prefix] = np.arange(len(prefix))
            inside = np.flatnonzero(room[: len(prefix)] >= n)
            ranks = prefix[inside]
            used = np.zeros(len(distinct), dtype=bool)
            used[ranks] = True
            used = np.flatnonzero(used)
            grams = [stream[start : start + n] for start in where[used].tolist()]
            for gram in grams:
                if gram not in codes:
                    digest = hashlib.sha256(gram.encode("utf-8")).digest()
                    bucket = int.from_bytes(digest[:4], "big") % self.dimension
                    codes[gram] = 2 * bucket + digest[4] % 2
            code_of = np.zeros(len(distinct), dtype=np.int64)
            code_of[used] = [codes[gram] for gram in grams]
            counts += np.bincount(owner[inside] * width + code_of[ranks],
                                  minlength=len(counts))
        counts = counts.reshape(len(padded), width)
        vectors = (counts[:, 0::2] - counts[:, 1::2]) / counts.sum(axis=1)[:, None]
        return list(vectors)
