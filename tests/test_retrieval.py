"""Tests for the alignment retriever.

Gradient correctness is checked against a central finite-difference oracle
and the loss against a scalar direct-formula evaluation (tests/support.py);
ranking is checked against brute-force sorts.
"""

import hashlib
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leanforge import retrieval
from leanforge.artifacts import ArtifactError
from leanforge.config import PipelineConfig, RetrievalSettings, validate
from leanforge.prover import PoolExample
from leanforge.retrieval import (
    EmptyInput,
    HashEmbedder,
    ProjectionHead,
    build_index,
    load_head,
    save_head,
    similarity_histogram,
    top_k,
    train_projection,
    write_histogram_csv,
)
from support import (
    contrastive_gradient,
    contrastive_loss,
    cosine_pair_gradient,
    example_index,
    example_pool,
    fd_contrastive_gradient,
    oracle_contrastive_loss,
    reference_hash_embed,
    reference_train_projection,
    rotated_pair_corpus,
)


def ev(*values):
    return np.asarray(values, dtype=np.float64)


def random_pairs(rng, count, dim):
    return [(rng.normal(size=dim), rng.normal(size=dim)) for _ in range(count)]


class TestEmbeddingVector:
    def test_returns_1d_float64_array(self):
        # every vector a head projects comes from the hash embedder
        for v in HashEmbedder(dimension=3).embed(["n + 0 = n", ""]):
            assert isinstance(v, np.ndarray)
            assert v.dtype == np.float64 and v.shape == (3,)


def identity_head(dim):
    return ProjectionHead(np.eye(dim), dim, dim, seed=0)


class TestContrastiveLoss:
    def test_aligned_identical_cross_orthogonal_is_zero(self):
        # positives at cos 1, negatives at cos 0: per-pair floor of the
        # positive term with inert negatives
        pairs = [(ev(1.0, 0.0, 0.0, 0.0), ev(1.0, 0.0, 0.0, 0.0)),
                 (ev(0.0, 1.0, 0.0, 0.0), ev(0.0, 1.0, 0.0, 0.0))]
        loss = contrastive_loss(pairs, identity_head(4))
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_all_identical_is_one(self):
        v = ev(0.3, -0.7, 2.0)
        loss = contrastive_loss([(v, v), (v, v)], identity_head(3))
        assert loss == pytest.approx(1.0, abs=1e-9)

    def test_matches_direct_formula_oracle(self):
        rng = np.random.default_rng(5)
        nl = [rng.normal(size=6) for _ in range(2)]
        fl = [rng.normal(size=6) for _ in range(2)]
        batch = list(zip(nl, fl))
        head = identity_head(6)
        expected = oracle_contrastive_loss(nl, fl, [1, 0], head.weights)
        assert contrastive_loss(batch, head) == pytest.approx(expected, rel=1e-9)

    def test_matches_oracle_random_heads(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            size = int(rng.integers(2, 7))
            dim = int(rng.integers(2, 9))
            d_out = int(rng.integers(1, dim + 1))
            nl = [rng.normal(size=dim) for _ in range(size)]
            fl = [rng.normal(size=dim) for _ in range(size)]
            head = ProjectionHead.initialize(dim, d_out, seed=int(rng.integers(1000)))
            batch = list(zip(nl, fl))
            negs = [(i + 1) % size for i in range(size)]
            expected = oracle_contrastive_loss(nl, fl, negs, head.weights)
            assert contrastive_loss(batch, head) == pytest.approx(expected, rel=1e-9)

    def test_per_pair_bounds(self):
        # each pair contributes 1 - cos + (cos + cos)/2, so [-1, 3]
        rng = np.random.default_rng(23)
        for _ in range(50):
            batch = random_pairs(rng, 2, 5)
            loss = contrastive_loss(batch, identity_head(5))
            assert -1.0 - 1e-9 <= loss <= 3.0 + 1e-9

    def test_zero_norm_names_pair(self):
        pairs = [(ev(1.0, 0.0), ev(1.0, 0.0)), (ev(0.0, 0.0), ev(0.0, 1.0))]
        with pytest.raises(ValueError,
                           match="projected nl vector of pair 1 has zero norm"):
            contrastive_loss(pairs, identity_head(2))

    def test_scale_invariance(self):
        rng = np.random.default_rng(31)
        pairs = random_pairs(rng, 3, 4)
        head = ProjectionHead.initialize(4, 3, seed=2)
        base = contrastive_loss(pairs, head)
        scaled_pairs = [(u * 7.5, v * 0.003) for u, v in pairs]
        scaled = contrastive_loss(scaled_pairs, head)
        assert scaled == pytest.approx(base, abs=1e-9)

    @given(st.floats(min_value=1e-3, max_value=1e3), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance_property(self, factor, seed):
        rng = np.random.default_rng(seed)
        pairs = random_pairs(rng, 2, 4)
        head = ProjectionHead.initialize(4, 4, seed=0)
        base = contrastive_loss(pairs, head)
        scaled = contrastive_loss(
            [(u * factor, v) for u, v in pairs],
            head,
        )
        assert scaled == pytest.approx(base, abs=1e-9)

    def test_batch_of_one_rejected(self):
        # a pair's negative is the next pair, so a batch holds two or more:
        # training needs two pairs, and batch_size is at least 2
        with pytest.raises(EmptyInput):
            train_projection([(ev(1.0), ev(1.0))], RetrievalSettings(), 0)
        config = PipelineConfig()
        config.retrieval.batch_size = 1
        assert validate(config) == ["retrieval.batch_size: must be >= 2"]


class TestContrastiveGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            size = int(rng.integers(2, 9))
            dim = int(rng.integers(2, 17))
            d_out = int(rng.integers(1, dim + 1))
            batch = random_pairs(rng, size, dim)
            head = ProjectionHead.initialize(dim, d_out, seed=int(rng.integers(1000)))
            analytic = contrastive_gradient(batch, head)
            fd = fd_contrastive_gradient(batch, head)
            scale = max(np.linalg.norm(analytic), np.linalg.norm(fd), 1e-8)
            assert np.linalg.norm(analytic - fd) / scale < 1e-4

    def test_gradient_finite(self):
        rng = np.random.default_rng(43)
        batch = random_pairs(rng, 4, 6)
        grad = contrastive_gradient(batch, ProjectionHead.initialize(6, 4, seed=9))
        assert np.all(np.isfinite(grad))

    def test_positive_term_stationary_at_floor(self):
        # at the aligned-identical / cross-orthogonal minimum the achieved-zero
        # directions are the positive cosine terms; their gradient vanishes
        pairs = [(ev(1.0, 0.0, 0.0), ev(1.0, 0.0, 0.0)),
                 (ev(0.0, 1.0, 0.0), ev(0.0, 1.0, 0.0))]
        head = identity_head(3)
        for nl, fl in pairs:
            assert np.linalg.norm(cosine_pair_gradient(nl, fl, head)) < 1e-8

    def test_total_gradient_zero_at_antipodal_floor(self):
        # ((u, u), (-u, -u)) sits at the exact per-pair floor of -1; the full
        # loss is stationary there
        u = ev(0.6, -0.8, 0.2, 0.1)
        minus = -u
        batch = [(u, u), (minus, minus)]
        grad = contrastive_gradient(batch, identity_head(4))
        assert contrastive_loss(batch, identity_head(4)) == pytest.approx(-1.0, abs=1e-9)
        assert np.linalg.norm(grad) < 1e-8

    def test_gradient_zero_norm_raises(self):
        pairs = [(ev(0.0, 0.0), ev(1.0, 0.0)), (ev(0.0, 1.0), ev(1.0, 1.0))]
        with pytest.raises(ValueError, match="has zero norm"):
            contrastive_gradient(pairs, identity_head(2))


class TestTrainProjection:
    def test_zero_steps_returns_initialization(self):
        rng = np.random.default_rng(53)
        pairs = random_pairs(rng, 4, 6)
        head, trace = train_projection(pairs, RetrievalSettings(steps=0), 12)
        assert trace == []
        reference = ProjectionHead.initialize(6, 6, seed=12)
        assert np.array_equal(head.weights, reference.weights)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(59)
        pairs = random_pairs(rng, 10, 8)
        head_a, trace_a = train_projection(pairs, RetrievalSettings(steps=50), 4)
        head_b, trace_b = train_projection(pairs, RetrievalSettings(steps=50), 4)
        assert trace_a == trace_b
        assert np.array_equal(head_a.weights, head_b.weights)

    def test_different_seed_differs(self):
        rng = np.random.default_rng(61)
        pairs = random_pairs(rng, 10, 8)
        _, trace_a = train_projection(pairs, RetrievalSettings(steps=50), 4)
        _, trace_b = train_projection(pairs, RetrievalSettings(steps=50), 5)
        assert trace_a != trace_b

    def test_rotated_corpus_converges(self):
        # nl = R @ fl for a rotation touching 2 of 16 coordinates; a head that
        # screens them out makes every aligned pair exactly parallel
        pairs = rotated_pair_corpus(seed=101, count=64, dim=16, rotate_dims=2,
                                    angle=math.pi / 2)
        head, trace = train_projection(
            pairs, RetrievalSettings(lr=0.05, steps=500, batch_size=8), 0
        )
        assert len(trace) == 500
        assert trace[-1] < 0.1
        assert np.all(np.isfinite(head.weights))

    def test_trained_head_retrieves_aligned_partner(self):
        pairs = rotated_pair_corpus(seed=101, count=64, dim=16, rotate_dims=2,
                                    angle=math.pi / 2)
        head, _ = train_projection(
            pairs, RetrievalSettings(lr=0.05, steps=500, batch_size=8), 0
        )
        index = build_index(
            [(f"thm{i:03d}", fl) for i, (_, fl) in enumerate(pairs)], head
        )
        hits = sum(
            1
            for i, (nl, _) in enumerate(pairs)
            if top_k(index, nl, 1)[0][0] == f"thm{i:03d}"
        )
        assert hits / len(pairs) >= 0.95

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_loss_reports_step(self):
        rng = np.random.default_rng(67)
        pairs = random_pairs(rng, 4, 4)
        with pytest.raises(ValueError, match="non-finite loss .* at step"):
            train_projection(pairs, RetrievalSettings(lr=1e160, steps=20), 0)

    def test_too_few_pairs(self):
        with pytest.raises(EmptyInput):
            train_projection([(ev(1.0), ev(1.0))], RetrievalSettings(), 0)

    # batch sizes: the smallest, an odd one, the whole set, more than the set
    @pytest.mark.parametrize("batch_size", [2, 3, 7, 12])
    @pytest.mark.parametrize("seed", [0, 1, 5, 77])
    @pytest.mark.parametrize("projection_dim", [None, 4])
    def test_matches_the_loop_that_projects_each_batch_twice(
            self, batch_size, seed, projection_dim):
        pairs = random_pairs(np.random.default_rng(seed + 100), 7, 9)
        settings = RetrievalSettings(lr=0.05, steps=30, batch_size=batch_size,
                                     projection_dim=projection_dim)
        head, trace = train_projection(pairs, settings, seed)
        expected_head, expected_trace = reference_train_projection(pairs, settings, seed)
        assert trace == expected_trace
        assert head.checksum() == expected_head.checksum()
        assert head.weights.shape == (projection_dim or 9, 9)


class TestProjectionHead:
    def test_uniform_init_bounds_and_determinism(self):
        a = ProjectionHead.initialize(8, 4, seed=77)
        b = ProjectionHead.initialize(8, 4, seed=77)
        assert np.array_equal(a.weights, b.weights)
        assert np.all(np.abs(a.weights) <= 0.1)
        assert a.weights.shape == (4, 8)

    def test_expanding_head_rejected(self):
        # the head is built at retrieval.projection_dim, held to [1, dimension]
        config = PipelineConfig()
        config.retrieval.dimension, config.retrieval.projection_dim = 3, 5
        assert validate(config) == [
            "retrieval.projection_dim: must be in [1, dimension]"]

    def test_save_load_round_trip(self, tmp_path):
        head = ProjectionHead.initialize(6, 3, seed=13)
        path = str(tmp_path / "head.json")
        save_head(head, path)
        loaded = load_head(path, 6)
        assert np.array_equal(loaded.weights, head.weights)
        assert (loaded.d_in, loaded.d_out, loaded.seed) == (6, 3, 13)

    def test_file_layout(self, tmp_path):
        # every head is uniform-initialized; the file still says so
        path = str(tmp_path / "head.json")
        save_head(ProjectionHead(np.eye(2), 2, 2, seed=3), path)
        with open(path, encoding="utf-8") as f:
            payload = json.load(f)
        assert list(payload) == ["d_in", "d_out", "seed", "init", "checksum", "weights"]
        assert payload["init"] == "uniform"
        assert payload["weights"] == [[1.0, 0.0], [0.0, 1.0]]

    def test_tampered_head_rejected(self, tmp_path):
        head = ProjectionHead.initialize(4, 2, seed=1)
        path = str(tmp_path / "head.json")
        save_head(head, path)
        with open(path, encoding="utf-8") as f:
            payload = json.load(f)
        payload["weights"][0][0] += 0.5
        with open(path, "w") as f:
            json.dump(payload, f)
        with pytest.raises(ArtifactError, match="checksum"):
            load_head(path, 4)


class TestSimilarityIndex:
    def test_single_entry(self):
        index = build_index([("only", ev(1.0, 2.0))], identity_head(2))
        assert index.vectors.shape == (1, 2)
        assert index.ids == ["only"]

    def test_duplicates_retained(self):
        v = ev(1.0, 0.0)
        index = build_index([("a", v), ("b", v)], identity_head(2))
        assert index.ids == ["a", "b"]

    def test_projection_matches_matrix_vector_oracle(self):
        rng = np.random.default_rng(83)
        head = ProjectionHead.initialize(10, 6, seed=5)
        corpus = [(f"r{i}", rng.normal(size=10)) for i in range(100)]
        index = build_index(corpus, head)
        assert len(index.ids) == 100
        for (entry_id, vector), row in zip(corpus, index.vectors):
            expected = head.weights @ vector
            assert np.allclose(row, expected, rtol=1e-12, atol=0)

    def test_order_preserving(self):
        rng = np.random.default_rng(89)
        corpus = [(f"id{i}", rng.normal(size=4)) for i in range(10)]
        index = build_index(corpus, identity_head(4))
        assert index.ids == [c[0] for c in corpus]

    def test_dimension_mismatch(self):
        # load_head keeps such a head out of the CLI; NumPy still refuses it
        with pytest.raises(ValueError):
            build_index([("a", ev(1.0, 2.0, 3.0))], identity_head(2))

    def test_empty_corpus(self):
        with pytest.raises(EmptyInput):
            build_index([], identity_head(2))

    def test_zero_norm_entry(self):
        with pytest.raises(ValueError, match="projected entry 'a' has zero norm"):
            build_index([("a", ev(0.0, 0.0)), ("b", ev(1.0, 0.0))], identity_head(2))


class TestTopK:
    def test_self_query_ranks_first_with_unit_similarity(self):
        rng = np.random.default_rng(97)
        corpus = [(f"e{i}", rng.normal(size=5)) for i in range(8)]
        index = build_index(corpus, identity_head(5))
        name, sim = top_k(index, corpus[3][1], 1)[0]
        assert name == "e3"
        assert sim == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_query_all_zero_id_order(self):
        corpus = [("b", ev(0.0, 1.0, 0.0)), ("a", ev(0.0, 0.0, 1.0))]
        index = build_index(corpus, identity_head(3))
        result = top_k(index, ev(1.0, 0.0, 0.0), 2)
        assert [r[0] for r in result] == ["a", "b"]
        assert all(abs(sim) < 1e-9 for _, sim in result)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(103)
        head = ProjectionHead.initialize(6, 4, seed=3)
        corpus = [(f"n{i:02d}", rng.normal(size=6)) for i in range(20)]
        index = build_index(corpus, head)
        query = rng.normal(size=6)
        got = top_k(index, query, 5)

        pq = head.weights @ query
        sims = []
        for entry_id, vector in corpus:
            pv = head.weights @ vector
            sims.append(
                (entry_id,
                 float(pv @ pq / (np.linalg.norm(pv) * np.linalg.norm(pq))))
            )
        expected = sorted(sims, key=lambda t: (-t[1], t[0]))[:5]
        assert [g[0] for g in got] == [e[0] for e in expected]
        for (_, gs), (_, es) in zip(got, expected):
            assert gs == pytest.approx(es, abs=1e-12)

    def test_full_ranking_equals_brute_force(self):
        rng = np.random.default_rng(107)
        corpus = [(f"n{i:02d}", rng.normal(size=4)) for i in range(12)]
        index = build_index(corpus, identity_head(4))
        query = rng.normal(size=4)
        full = top_k(index, query, 12)
        assert len(full) == 12
        sims = [s for _, s in full]
        assert sims == sorted(sims, reverse=True)

    def test_k_larger_than_index(self):
        index = build_index([("a", ev(1.0, 0.0))], identity_head(2))
        assert len(top_k(index, ev(1.0, 1.0), 10)) == 1

    def test_tie_broken_by_ascending_id(self):
        v = ev(1.0, 0.0)
        index = build_index([("zeta", v), ("alpha", v)], identity_head(2))
        assert [r[0] for r in top_k(index, v, 2)] == ["alpha", "zeta"]

    def test_tied_ids_compare_as_python_strings(self):
        v = ev(1.0, 0.0)
        ids = ["b\x00", "b", "a\x00\x00", "a\x00", "é", "z"]
        index = build_index([(i, v) for i in ids], identity_head(2))
        assert [r[0] for r in top_k(index, v, 6)] == sorted(ids)

    def test_zero_norm_query(self):
        # head annihilates the second coordinate, so this query projects to 0
        head = ProjectionHead(
            weights=np.array([[1.0, 0.0]]), d_in=2, d_out=1, seed=0
        )
        index = build_index([("a", ev(1.0, 0.0))], head)
        with pytest.raises(ValueError, match="projected query has zero norm"):
            top_k(index, ev(0.0, 1.0), 1)


class TestExampleIndex:
    """``ExampleIndex.nearest``: each query's nearest pool entries."""

    def test_pool_of_one(self):
        index = example_index(example_pool(1), "fl", HashEmbedder(dimension=32))
        (out,) = index.nearest(["anything"], 3)
        assert [p.name for p in out] == ["ex0"]

    def test_identical_fl_text_ranks_first(self):
        pool = example_pool(10)
        index = example_index(pool, "fl", HashEmbedder(dimension=64))
        (out,) = index.nearest([pool[7].fl], 3)
        assert out[0].name == "ex7"

    def test_matches_brute_force_ranking(self):
        rng = random.Random(5)
        pool = [
            PoolExample(
                name=f"p{i:02d}",
                nl=" ".join(rng.choices(["sum", "prime", "ring", "group", "field"],
                                        k=rng.randint(4, 12))),
                fl=f"theorem p{i:02d} : x = x := rfl",
            )
            for i in range(50)
        ]
        embedder = HashEmbedder(dimension=48)
        index = example_index(pool, "nl", embedder)
        (got,) = index.nearest(["sum of a ring and a field"], 5)

        (query,) = embedder.embed(["sum of a ring and a field"])
        sims = []
        for pair, vec in zip(pool, embedder.embed([p.nl for p in pool])):
            sims.append((pair.name,
                         float(query @ vec / (np.linalg.norm(query) * np.linalg.norm(vec)))))
        expected = [n for n, _ in sorted(sims, key=lambda t: (-t[1], t[0]))[:5]]
        assert [p.name for p in got] == expected

    def test_same_name_entries_stay_apart(self):
        # one example named ``ex`` per namespace
        pool = [PoolExample("ex", f"Statement: one is one in {t}. Proof: rfl.",
                            f"theorem ex : (1 : {t}) = 1 := rfl")
                for t in ("Nat", "Int")]
        index = example_index(pool, "fl", HashEmbedder(dimension=32))
        for probe, out in zip(pool, index.nearest([p.fl for p in pool], 2)):
            assert out[0] is probe
            assert {id(p) for p in out} == {id(p) for p in pool}

    def test_ties_rank_by_name_then_position(self):
        class Flat:
            """Every text embeds to the same unit vector: all ties, exactly."""

            dimension = 4

            def embed(self, texts):
                return [np.asarray([1.0, 0.0, 0.0, 0.0], dtype=np.float64) for _ in texts]

        pool = [PoolExample(name, f"Statement: entry {i}. Proof: p.", "theorem x")
                for i, name in enumerate(("b", "a", "b", "c", "a"))]
        (out,) = example_index(pool, "nl", Flat()).nearest(["probe"], 5)
        assert out == [pool[i] for i in (1, 4, 0, 2, 3)]

    def test_k_clamped_to_pool(self):
        index = example_index(example_pool(4), "nl", HashEmbedder(dimension=16))
        (out,) = index.nearest(["t"], 10)
        assert len(out) == 4


class TestHistogram:
    def test_counts_cover_all_combinations(self):
        rng = np.random.default_rng(113)
        nl = [rng.normal(size=4) for _ in range(6)]
        fl = [rng.normal(size=4) for _ in range(5)]
        edges, counts, matrix = similarity_histogram(nl, fl, identity_head(4))
        assert matrix.shape == (6, 5)
        assert counts.sum() == 30
        assert edges[0] == -1.0 and edges[-1] == 1.0

    def test_matrix_entries_are_cosines(self):
        nl = [ev(1.0, 0.0), ev(0.0, 1.0)]
        fl = [ev(1.0, 0.0), ev(1.0, 1.0)]
        _, _, matrix = similarity_histogram(nl, fl, identity_head(2))
        assert matrix[0, 0] == pytest.approx(1.0)
        assert matrix[0, 1] == pytest.approx(1.0 / math.sqrt(2.0))
        assert matrix[1, 0] == pytest.approx(0.0, abs=1e-12)

    def test_csv_export(self, tmp_path):
        rng = np.random.default_rng(127)
        nl = [rng.normal(size=4) for _ in range(4)]
        edges, counts, _ = similarity_histogram(nl, nl, identity_head(4), bins=10)
        path = str(tmp_path / "hist.csv")
        write_histogram_csv(path, edges, counts)
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        assert lines[0] == "bin_left,bin_right,count"
        assert len(lines) == 11
        total = sum(int(line.split(",")[2]) for line in lines[1:])
        assert total == 16

    def test_trained_fixture_separates_aligned_from_cross(self):
        # the synthetic analogue of the two-peak similarity histogram: aligned
        # pairs pile up near 1, cross pairs spread around 0
        pairs = rotated_pair_corpus(seed=101, count=64, dim=16, rotate_dims=2,
                                    angle=math.pi / 2)
        head, _ = train_projection(
            pairs, RetrievalSettings(lr=0.05, steps=500, batch_size=8), 0
        )
        nl = [p[0] for p in pairs]
        fl = [p[1] for p in pairs]
        _, _, matrix = similarity_histogram(nl, fl, head)
        aligned = np.diag(matrix)
        cross = matrix[~np.eye(len(pairs), dtype=bool)]
        assert float(np.median(aligned)) > 0.9
        assert abs(float(np.median(cross))) < 0.3


class TestHashEmbedder:
    def test_deterministic(self):
        # the gram memo lives for one call; a second call rebuilds it
        emb = HashEmbedder(dimension=32)
        a = emb.embed(["theorem foo", "bar", "theorem foo"])
        b = emb.embed(["theorem foo", "bar", "theorem foo"])
        assert [x.tobytes() for x in a] == [y.tobytes() for y in b]

    def test_dimension_and_nonzero(self):
        emb = HashEmbedder(dimension=48)
        (vec,) = emb.embed(["n + 0 = n"])
        assert vec.shape == (48,)
        assert np.linalg.norm(vec) > 0

    def test_distinct_texts_differ(self):
        emb = HashEmbedder(dimension=64)
        a, b = emb.embed(["commutativity of addition", "prime factorization"])
        assert not np.array_equal(a, b)

    def test_similar_texts_closer_than_unrelated(self):
        emb = HashEmbedder(dimension=64)
        a, b, c = emb.embed(
            ["n + m = m + n", "n + m = m + n + 0", "the cat sat on the mat"]
        )

        def cos(x, y):
            return float(x @ y / (np.linalg.norm(x) * np.linalg.norm(y)))

        assert cos(a, b) > cos(a, c)

    def test_empty_list(self):
        assert HashEmbedder(dimension=8).embed([]) == []

    @given(st.lists(st.text(max_size=40), max_size=4),
           st.sampled_from([1, 2, 7, 64, 257]))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_gram_reference(self, texts, dimension):
        texts = texts + ["", "∀ n : ℕ, n + 0 = n", "é\x00\U0001f600"]
        got = HashEmbedder(dimension=dimension).embed(texts)
        for text, vec in zip(texts, got):
            expected = reference_hash_embed(text, dimension)
            assert vec.dtype == np.float64 and vec.shape == (dimension,)
            assert vec.tobytes() == expected.tobytes(), text

    @given(st.lists(st.sampled_from(["", "n + 0 = n", "0 + n = n", "n + 0", "ℕ ∀ n"])
                    | st.text(alphabet="ab +=ℕ", max_size=12), max_size=8),
           st.sampled_from([1, 7, 64]), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_one_call_equals_one_call_per_text_in_any_order(self, texts, dimension, rng):
        texts = texts + texts[:2]
        emb = HashEmbedder(dimension=dimension)
        together = emb.embed(texts)
        order = list(range(len(texts)))
        rng.shuffle(order)
        for i in order:
            (alone,) = emb.embed([texts[i]])
            assert alone.tobytes() == together[i].tobytes(), texts[i]

    def test_each_distinct_gram_hashed_once_per_call(self, monkeypatch):
        hashed = []
        real_sha256 = hashlib.sha256

        def counting_sha256(data):
            hashed.append(data)
            return real_sha256(data)

        monkeypatch.setattr(retrieval.hashlib, "sha256", counting_sha256)
        texts = ["n + 0 = n", "n + 0 = n", "0 + n = n", "abab"]
        grams = {
            padded[i : i + n]
            for padded in ("\x02" + t + "\x03" for t in texts)
            for n in (2, 3, 4)
            for i in range(len(padded) - n + 1)
        }
        HashEmbedder(dimension=32).embed(texts)
        assert sorted(hashed) == sorted(g.encode("utf-8") for g in grams)

    def chunks_of(self, monkeypatch):
        """The number of texts in each chunk an ``embed`` call takes."""
        sizes = []
        embed_chunk = HashEmbedder._embed_chunk

        def recording(embedder, texts, codes):
            sizes.append(len(texts))
            return embed_chunk(embedder, texts, codes)

        monkeypatch.setattr(HashEmbedder, "_embed_chunk", recording)
        return sizes

    def test_texts_across_chunk_boundaries_match_the_reference(self, monkeypatch):
        sizes = self.chunks_of(monkeypatch)
        rng = np.random.default_rng(3)
        # three of these fill a chunk, so chunks close within the list
        texts = ["".join(rng.choice(list("ab +=ℕ∀"), retrieval._CHUNK_CHARS // 3 + 7))
                 for _ in range(7)] + ["", "n + 0 = n"]
        got = HashEmbedder(dimension=16).embed(texts)
        assert sizes == [3, 3, 3]
        for text, vec in zip(texts, got):
            assert vec.tobytes() == reference_hash_embed(text, 16).tobytes()

    def test_text_longer_than_a_chunk_matches_the_reference(self, monkeypatch):
        sizes = self.chunks_of(monkeypatch)
        long = "".join(str(i % 97) + " " for i in range(retrieval._CHUNK_CHARS // 2))
        assert len(long) > retrieval._CHUNK_CHARS
        texts = ["n + 0 = n", long, "0 + n = n"]
        got = HashEmbedder(dimension=16).embed(texts)
        assert sizes == [2, 1]
        for text, vec in zip(texts, got):
            assert vec.tobytes() == reference_hash_embed(text, 16).tobytes()

    def test_gram_recurring_in_a_later_chunk_hashed_once_per_call(self, monkeypatch):
        sizes = self.chunks_of(monkeypatch)
        hashed = []
        real_sha256 = hashlib.sha256

        def counting_sha256(data):
            hashed.append(data)
            return real_sha256(data)

        monkeypatch.setattr(retrieval.hashlib, "sha256", counting_sha256)
        texts = ["n + 0 = n " * (retrieval._CHUNK_CHARS // 10 + 1), "n + 0 = n", "abab"]
        grams = {
            padded[i : i + n]
            for padded in ("\x02" + t + "\x03" for t in texts)
            for n in (2, 3, 4)
            for i in range(len(padded) - n + 1)
        }
        HashEmbedder(dimension=32).embed(texts)
        assert sizes == [1, 2]
        assert sorted(hashed) == sorted(g.encode("utf-8") for g in grams)
