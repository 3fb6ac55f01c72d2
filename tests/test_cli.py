"""CLI and config tests: validation, stage commands, and the golden
end-to-end pipeline fixture (built around the mock backend so every byte is
reproducible)."""

import dataclasses
import json
import math
import os
import textwrap

import pytest
import yaml

import support
from fixtures import listings
from leanforge import bootstrap as bootstrap_mod
from leanforge import cli, corpus, retrieval, trainprep
from leanforge.config import (
    ConfigError,
    fork_seed,
    load_config,
    stage_path,
)


def run(argv):
    return cli.main([str(a) for a in argv])


def write_yaml(path, data):
    with open(path, "w", encoding="utf-8") as f:
        yaml.safe_dump(data, f)
    return str(path)


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def read_jsonl(path):
    with open(path, "r", encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


# --- config loading -----------------------------------------------------------


class TestConfig:
    def test_defaults_load(self, tmp_path):
        path = write_yaml(tmp_path / "c.yaml", {"workdir": str(tmp_path / "w")})
        config = load_config(path)
        assert config.seed == 0
        assert config.backend.kind == "mock"
        assert config.prover.n_samples == 128
        assert config.retrieval.dimension == 64

    def test_validation_collects_every_error(self, tmp_path):
        path = write_yaml(
            tmp_path / "c.yaml",
            {
                "seed": "not-a-number",
                "retrieval": {"lr": -1, "batch_size": 0},
                "prover": {"verifier": "telepathy"},
                "mystery_section": {},
            },
        )
        with pytest.raises(ConfigError) as info:
            load_config(path)
        joined = "\n".join(info.value.errors)
        assert len(info.value.errors) >= 4
        assert "seed" in joined
        assert "retrieval.lr" in joined
        assert "retrieval.batch_size" in joined
        assert "prover.verifier" in joined
        assert "mystery_section" in joined

    def test_unknown_nested_key_rejected(self, tmp_path):
        path = write_yaml(
            tmp_path / "c.yaml", {"retrieval": {"dimensionality": 8}})
        with pytest.raises(ConfigError, match="retrieval.dimensionality"):
            load_config(path)

    def test_env_interpolation(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PIPELINE_TEST_MODEL", "demo-model-7")
        path = write_yaml(
            tmp_path / "c.yaml",
            {"backend": {"kind": "chat", "endpoint": "http://h/v1",
                         "model": "${PIPELINE_TEST_MODEL}"}},
        )
        config = load_config(path)
        assert config.backend.model == "demo-model-7"

    def test_missing_env_var_is_an_error(self, tmp_path, monkeypatch):
        monkeypatch.delenv("PIPELINE_TEST_UNSET", raising=False)
        path = write_yaml(
            tmp_path / "c.yaml",
            {"corpus": {"path": "${PIPELINE_TEST_UNSET}/src"}})
        with pytest.raises(ConfigError, match="PIPELINE_TEST_UNSET"):
            load_config(path)

    def test_literal_api_key_rejected(self, tmp_path):
        path = write_yaml(
            tmp_path / "c.yaml", {"backend": {"api_key": "sk-oops"}})
        with pytest.raises(ConfigError, match="api_key_env"):
            load_config(path)

    def test_validation_failure_exits_2_before_touching_outputs(
            self, tmp_path, capsys):
        workdir = tmp_path / "work"
        path = write_yaml(
            tmp_path / "c.yaml",
            {"workdir": str(workdir), "corpus": {"path": str(tmp_path)},
             "retrieval": {"lr": -1, "steps": -5}},
        )
        assert run(["extract", "-c", path]) == 2
        err = capsys.readouterr().err
        assert "retrieval.lr" in err
        assert "retrieval.steps" in err
        assert not workdir.exists()

    def test_fork_seed_is_stable_and_label_separated(self):
        assert fork_seed(0, "sample") == fork_seed(0, "sample")
        assert fork_seed(0, "sample") != fork_seed(0, "retry")
        assert fork_seed(0, "sample") != fork_seed(1, "sample")
        assert 0 <= fork_seed(123, "anything") < 2 ** 64


# --- extract --------------------------------------------------------------------


THEOREM_TEXTS = [
    "theorem tree_a1 (n : ℕ) : n + 0 = n := by\n  simp\n",
    "theorem tree_a2 (n : ℕ) : 0 + n = n := by\n  simp\n",
    "theorem tree_b1 (p : Prop) (h : p) : p := by\n  exact h\n",
    "theorem tree_b2 (m : ℕ) : m * 1 = m := by\n  simp\n",
    "theorem tree_c1 : (2 : ℕ) + 2 = 4 := by\n  norm_num\n",
]


def extract_config(tmp_path, corpus_path):
    return write_yaml(
        tmp_path / "config.yaml",
        {"workdir": str(tmp_path / "work"),
         "corpus": {"path": str(corpus_path), "commit": "deadbeef"}},
    )


class TestExtract:
    def test_fixture_tree_three_files_five_theorems(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        (root / "sub").mkdir(parents=True)
        (root / "a.lean").write_text(THEOREM_TEXTS[0] + "\n" + THEOREM_TEXTS[1])
        (root / "b.lean").write_text(THEOREM_TEXTS[2] + "\n" + THEOREM_TEXTS[3])
        (root / "sub" / "c.lean").write_text(THEOREM_TEXTS[4])
        config = extract_config(tmp_path, root)

        assert run(["extract", "-c", config]) == 0
        records = read_jsonl(tmp_path / "work" / "theorems.jsonl")
        assert len(records) == 5
        assert sorted(r["name"] for r in records) == [
            "tree_a1", "tree_a2", "tree_b1", "tree_b2", "tree_c1"]
        assert all(r["commit"] == "deadbeef" for r in records)
        assert {r["file_path"] for r in records} == {
            "a.lean", "b.lean", os.path.join("sub", "c.lean")}
        assert read_jsonl(tmp_path / "work" / "extract_skips.jsonl") == []
        assert "5 theorems" in capsys.readouterr().out

    def test_unterminated_comment_file_is_skip_logged(self, tmp_path):
        root = tmp_path / "corpus"
        root.mkdir()
        (root / "good.lean").write_text(THEOREM_TEXTS[0])
        (root / "broken.lean").write_text("/- this comment never closes\n")
        config = extract_config(tmp_path, root)

        assert run(["extract", "-c", config]) == 0
        records = read_jsonl(tmp_path / "work" / "theorems.jsonl")
        skips = read_jsonl(tmp_path / "work" / "extract_skips.jsonl")
        assert [r["name"] for r in records] == ["tree_a1"]
        assert len(skips) == 1
        assert skips[0]["file"] == "broken.lean"
        assert "comment" in skips[0]["reason"]

    def test_empty_directory_yields_zero_records(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        root.mkdir()
        config = extract_config(tmp_path, root)
        assert run(["extract", "-c", config]) == 0
        assert read_jsonl(tmp_path / "work" / "theorems.jsonl") == []
        assert "0 theorems" in capsys.readouterr().out

    def test_jsonl_corpus_input(self, tmp_path):
        source_file = tmp_path / "dump.jsonl"
        with open(source_file, "w", encoding="utf-8") as f:
            f.write(json.dumps({"source": THEOREM_TEXTS[0],
                                "file_path": "X/a.lean",
                                "commit": "abc123"}) + "\n")
            f.write(json.dumps({"source": THEOREM_TEXTS[2],
                                "file_path": "X/b.lean"}) + "\n")
        config = extract_config(tmp_path, source_file)

        assert run(["extract", "-c", config]) == 0
        records = read_jsonl(tmp_path / "work" / "theorems.jsonl")
        assert [r["name"] for r in records] == ["tree_a1", "tree_b1"]
        assert records[0]["commit"] == "abc123"
        assert records[1]["commit"] == "deadbeef"  # falls back to config

    def test_missing_corpus_path_is_config_error(self, tmp_path, capsys):
        config = write_yaml(tmp_path / "c.yaml",
                            {"workdir": str(tmp_path / "work")})
        assert run(["extract", "-c", config]) == 2
        assert "corpus.path" in capsys.readouterr().err


# --- train-retriever ------------------------------------------------------------


def write_vector_pairs(path, pairs):
    with open(path, "w", encoding="utf-8") as f:
        for nl, fl in pairs:
            f.write(json.dumps(
                {"nl_vector": [float(x) for x in nl.values],
                 "fl_vector": [float(x) for x in fl.values]}) + "\n")
    return str(path)


def retriever_config(tmp_path, pairs_path, workdir="work", **retrieval_keys):
    settings = {"pairs": str(pairs_path), "dimension": 16, **retrieval_keys}
    return write_yaml(
        tmp_path / f"config-{workdir}.yaml",
        {"workdir": str(tmp_path / workdir), "retrieval": settings},
    )


class TestTrainRetriever:
    def test_rotated_corpus_reaches_low_loss(self, tmp_path, capsys):
        pairs = support.rotated_pair_corpus(101, 64, 16, 2, math.pi / 2)
        pairs_path = write_vector_pairs(tmp_path / "pairs.jsonl", pairs)
        config = retriever_config(tmp_path, pairs_path, steps=500)

        assert run(["train-retriever", "-c", config]) == 0
        trace = (tmp_path / "work" / "loss_trace.csv").read_text().splitlines()
        assert trace[0] == "step,loss"
        assert len(trace) == 501
        final = float(trace[-1].split(",")[1])
        assert final < 0.1
        head = retrieval.load_head(str(tmp_path / "work" / "projection.json"))
        assert head.d_in == 16
        histogram = (tmp_path / "work" / "similarity_histogram.csv").read_text()
        assert histogram.startswith("bin_left,bin_right,count")
        assert "final loss" in capsys.readouterr().out

    def test_zero_steps_persists_seeded_init(self, tmp_path):
        pairs = support.rotated_pair_corpus(7, 12, 16, 2, 1.0)
        pairs_path = write_vector_pairs(tmp_path / "pairs.jsonl", pairs)
        config = retriever_config(tmp_path, pairs_path)

        assert run(["train-retriever", "-c", config, "--steps", "0"]) == 0
        trace = (tmp_path / "work" / "loss_trace.csv").read_text().splitlines()
        assert trace == ["step,loss"]
        head = retrieval.load_head(str(tmp_path / "work" / "projection.json"))
        assert head.weights.shape == (16, 16)

    def test_rerun_same_seed_gives_identical_head(self, tmp_path):
        pairs = support.rotated_pair_corpus(7, 12, 16, 2, 1.0)
        pairs_path = write_vector_pairs(tmp_path / "pairs.jsonl", pairs)
        config_a = retriever_config(tmp_path, pairs_path, workdir="wa", steps=30)
        config_b = retriever_config(tmp_path, pairs_path, workdir="wb", steps=30)

        assert run(["train-retriever", "-c", config_a]) == 0
        assert run(["train-retriever", "-c", config_b]) == 0
        assert read_bytes(tmp_path / "wa" / "projection.json") == \
            read_bytes(tmp_path / "wb" / "projection.json")

    def test_text_pairs_are_embedded(self, tmp_path):
        pairs_path = tmp_path / "pairs.jsonl"
        with open(pairs_path, "w", encoding="utf-8") as f:
            for i in range(8):
                f.write(json.dumps({"nl": f"text number {i} about addition",
                                    "fl": f"theorem t{i} : {i} = {i}"}) + "\n")
        config = retriever_config(tmp_path, pairs_path, steps=5, batch_size=4)
        assert run(["train-retriever", "-c", config]) == 0
        assert (tmp_path / "work" / "projection.json").exists()

    def test_missing_pairs_file_exits_1_naming_it(self, tmp_path, capsys):
        config = retriever_config(tmp_path, tmp_path / "nope.jsonl")
        assert run(["train-retriever", "-c", config]) == 1
        assert "nope.jsonl" in capsys.readouterr().err


# --- missing upstream artifacts ---------------------------------------------------


class TestMissingUpstream:
    def test_each_stage_names_its_missing_input(self, tmp_path, capsys):
        config = write_yaml(
            tmp_path / "c.yaml",
            {"workdir": str(tmp_path / "work"),
             "prover": {"problems": str(tmp_path / "problems.jsonl"),
                        "seed_examples": str(tmp_path / "seeds.jsonl")}},
        )
        for argv, expected in [
            (["informalize", "-c", config], "theorems.jsonl"),
            (["bootstrap", "-c", config], "theorems.jsonl"),
            (["prep", "-c", config], "obt.jsonl"),
            (["prove", "-c", config], "problems.jsonl"),
            (["report", "-c", config], "problems.jsonl"),
            (["sample", "-c", config, "-n", "1"], "obt.jsonl"),
        ]:
            assert run(argv) == 1, argv
            err = capsys.readouterr().err
            assert expected in err, (argv, err)
            assert "missing" in err

    def test_bootstrap_requires_informal_output(self, tmp_path, capsys):
        workdir = tmp_path / "work"
        workdir.mkdir()
        (workdir / "theorems.jsonl").write_text("")
        config = write_yaml(tmp_path / "c.yaml", {"workdir": str(workdir)})
        assert run(["bootstrap", "-c", config]) == 1
        err = capsys.readouterr().err
        assert "informal.jsonl" in err
        assert "informalize" in err


# --- prep ablation flags ----------------------------------------------------------


def seeded_obt_records():
    """Three records whose difficulties arrive out of order (3, 1, 2)."""
    records = []
    for name, steps in [("prep_hard", 3), ("prep_easy", 1), ("prep_mid", 2)]:
        body = "\n".join("  norm_num" if j == 0 else f"  have h{j} : True := trivial"
                         for j in range(steps))
        proof = f"theorem {name} : (1 : ℕ) = 1 := by\n{body}\n"
        nl = (f"Statement: the number one equals itself in case {name}. "
              f"Proof: normalize both sides.")
        records.append(
            bootstrap_mod.ObtRecord(
                name=name,
                statement=f"theorem {name} : (1 : ℕ) = 1 :=",
                proof=proof,
                file_path="prep/fixture.lean",
                commit="c0ffee",
                generated_informal_statement_and_proof=nl,
                commented_proof=bootstrap_mod.head_bootstrap(nl, proof),
            )
        )
    return records


class TestPrepCommand:
    def make_workdir(self, tmp_path):
        workdir = tmp_path / "work"
        workdir.mkdir()
        bootstrap_mod.save_obt_dataset(
            seeded_obt_records(), str(workdir / "obt.jsonl"))
        return write_yaml(tmp_path / "c.yaml", {"workdir": str(workdir)})

    def test_ablation_flags_keep_input_order_with_no_examples(
            self, tmp_path):
        config = self.make_workdir(tmp_path)
        assert run(["prep", "-c", config,
                    "--no-curriculum", "--no-block"]) == 0
        rows = read_jsonl(tmp_path / "work" / "train.jsonl")
        assert [r["difficulty"] for r in rows] == [3, 1, 2]
        assert all(r["example_count"] == 0 for r in rows)

    def test_default_run_sorts_by_difficulty(self, tmp_path):
        config = self.make_workdir(tmp_path)
        assert run(["prep", "-c", config]) == 0
        rows = read_jsonl(tmp_path / "work" / "train.jsonl")
        assert [r["difficulty"] for r in rows] == [1, 2, 3]

    def test_no_bootstrapped_targets_plain_proofs(self, tmp_path):
        config = self.make_workdir(tmp_path)
        assert run(["prep", "-c", config, "--no-bootstrapped"]) == 0
        rows = read_jsonl(tmp_path / "work" / "train.jsonl")
        assert all("/-" not in r["target"] for r in rows)

    def test_failed_write_keeps_previous_train_set(self, tmp_path, monkeypatch):
        config = self.make_workdir(tmp_path)
        assert run(["prep", "-c", config]) == 0
        workdir = tmp_path / "work"
        before = read_bytes(workdir / "train.jsonl")
        emit = trainprep.emit_training_set

        def emit_unserializable(*args, **kwargs):
            packed, skipped = emit(*args, **kwargs)
            packed[1] = dataclasses.replace(packed[1], target=object())
            return packed, skipped

        monkeypatch.setattr(trainprep, "emit_training_set", emit_unserializable)
        with pytest.raises(TypeError):
            run(["prep", "-c", config])
        assert read_bytes(workdir / "train.jsonl") == before
        assert [n for n in os.listdir(workdir) if n.endswith(".tmp")] == []


# --- sample -----------------------------------------------------------------------


def sample_dataset(tmp_path, count=1000):
    path = tmp_path / "dataset.jsonl"
    with open(path, "w", encoding="utf-8") as f:
        for i in range(count):
            f.write(json.dumps({
                "Name": f"record_{i:04d}",
                "Generated_informal_statement_and_proof":
                    f"Statement: fact {i}. Proof: check {i}.",
                "Commented_proof": f"theorem record_{i:04d} : True := trivial",
            }) + "\n")
    return str(path)


class TestSampleCommand:
    def config(self, tmp_path):
        return write_yaml(tmp_path / "c.yaml",
                          {"workdir": str(tmp_path / "work")})

    def test_same_seed_twice_is_identical(self, tmp_path):
        dataset = sample_dataset(tmp_path, 100)
        config = self.config(tmp_path)
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        assert run(["sample", "-c", config, "--dataset", dataset, "-n", "10",
                    "--seed", "5", "--output", out_a]) == 0
        assert run(["sample", "-c", config, "--dataset", dataset, "-n", "10",
                    "--seed", "5", "--output", out_b]) == 0
        assert read_bytes(out_a) == read_bytes(out_b)

    def test_n_equal_to_size_is_a_permutation(self, tmp_path):
        dataset = sample_dataset(tmp_path, 25)
        config = self.config(tmp_path)
        out = tmp_path / "all.jsonl"
        assert run(["sample", "-c", config, "--dataset", dataset, "-n", "25",
                    "--seed", "3", "--output", out]) == 0
        with open(dataset) as f:
            original = sorted(f.readlines())
        with open(out) as f:
            sampled = f.readlines()
        assert len(sampled) == 25
        assert sorted(sampled) == original

    def test_forty_from_a_thousand_are_unique(self, tmp_path):
        dataset = sample_dataset(tmp_path, 1000)
        config = self.config(tmp_path)
        out = tmp_path / "forty.jsonl"
        assert run(["sample", "-c", config, "--dataset", dataset, "-n", "40",
                    "--seed", "11", "--output", out]) == 0
        names = [e["Name"] for e in read_jsonl(out)]
        assert len(names) == 40
        assert len(set(names)) == 40

    def test_oversized_n_exits_1_naming_both_sizes(self, tmp_path, capsys):
        dataset = sample_dataset(tmp_path, 10)
        config = self.config(tmp_path)
        assert run(["sample", "-c", config, "--dataset", dataset,
                    "-n", "11"]) == 1
        err = capsys.readouterr().err
        assert "11" in err and "10" in err

    def test_review_format_pairs_nl_with_fl(self, tmp_path):
        dataset = sample_dataset(tmp_path, 20)
        config = self.config(tmp_path)
        out = tmp_path / "review.txt"
        assert run(["sample", "-c", config, "--dataset", dataset, "-n", "3",
                    "--seed", "9", "--for-review", "--output", out]) == 0
        text = out.read_text()
        assert text.count("=== record_") == 3
        assert text.count("[NL]") == 3
        assert text.count("[FL]") == 3
        assert "Statement: fact" in text
        assert "theorem record_" in text

    def test_sampled_lines_are_verbatim_dataset_lines(self, tmp_path):
        dataset = sample_dataset(tmp_path, 50)
        config = self.config(tmp_path)
        out = tmp_path / "subset.jsonl"
        assert run(["sample", "-c", config, "--dataset", dataset, "-n", "8",
                    "--seed", "2", "--output", out]) == 0
        with open(dataset) as f:
            original = set(f.readlines())
        with open(out) as f:
            for line in f:
                assert line in original


# --- the golden end-to-end fixture -------------------------------------------------


SQINEQ_PLAIN = corpus.strip_comments(listings.SQINEQ_COMMENTED)

HW_ONE = (
    "theorem hw_double_neg (p : Prop) (h : p) : ¬¬p := by\n"
    "  intro hn\n"
    "  exact hn h\n"
)
HW_TWO = (
    "theorem hw_min_self (m : ℕ) : min m m = m := by\n"
    "  simp\n"
)

CORPUS_FILES = {
    "algebra.lean": "\n".join(
        [SQINEQ_PLAIN.rstrip("\n"),
         listings.MATHD_ALGEBRA_270.rstrip("\n"),
         listings.MATHD_ALGEBRA_451.rstrip("\n")]) + "\n",
    "contest.lean": "\n".join(
        [listings.AMC12B_2002_P2.rstrip("\n"),
         listings.AMC12_2000_P5.rstrip("\n"),
         listings.MATHD_ALGEBRA_116.rstrip("\n")]) + "\n",
    "analysis.lean": "\n".join(
        [listings.MATHD_ALGEBRA_338.rstrip("\n"),
         listings.INTEGRAL_PROOF.rstrip("\n")]) + "\n",
    "handwritten.lean": HW_ONE + "\n" + HW_TWO,
}

CORPUS_NAMES = [
    "algebra_sqineq_unitcircatbpamblt1",
    "mathd_algebra_270",
    "mathd_algebra_451",
    "amc12b_2002_p2",
    "amc12_2000_p5",
    "mathd_algebra_116",
    "mathd_algebra_338",
    "integral_eq_sub_of_hasDerivAt",
    "hw_double_neg",
    "hw_min_self",
]

DEMO_PROBLEM_A = (
    "theorem demo_add_comm (n : ℕ) : n + 37 = 37 + n := by\n"
    "  simpa using Nat.add_comm n 37\n"
)
DEMO_PROBLEM_B = (
    "theorem demo_sub_self (k : ℕ) : k - k = 0 := by\n"
    "  simp\n"
)


def corpus_nl(name, index):
    return (
        f"Statement: The identity established by {name} holds for every "
        f"admissible input under the stated hypotheses. "
        f"Proof: Unfold the definitions, normalize both sides, and close "
        f"the remaining goal with arithmetic reasoning step {index}."
    )


def build_pipeline_fixture(base):
    """Shared inputs for an end-to-end run: corpus, pools, scripts, keys.

    Everything downstream is derived from these files plus a config, so two
    runs over the same fixture must agree byte for byte.
    """
    base.mkdir(parents=True, exist_ok=True)
    corpus_dir = base / "corpus"
    corpus_dir.mkdir()
    for filename, text in CORPUS_FILES.items():
        (corpus_dir / filename).write_text(text, encoding="utf-8")

    pairs_path = base / "pairs.jsonl"
    with open(pairs_path, "w", encoding="utf-8") as f:
        for i, name in enumerate(CORPUS_NAMES):
            f.write(json.dumps({"nl": corpus_nl(name, i),
                                "fl": f"theorem {name} : placeholder"},
                               ensure_ascii=False) + "\n")

    pool_path = base / "pool.jsonl"
    with open(pool_path, "w", encoding="utf-8") as f:
        f.write(json.dumps({
            "name": "pool_helper_one",
            "nl": "Statement: Two plus two equals four. "
                  "Proof: Evaluate the sum directly.",
            "fl": "theorem pool_helper_one : (2 : ℕ) + 2 = 4 := by\n"
                  "  norm_num",
        }, ensure_ascii=False) + "\n")
        f.write(json.dumps({
            "name": "pool_helper_two",
            "nl": "Statement: One times one equals one. "
                  "Proof: Multiplication by one changes nothing.",
            "fl": "theorem pool_helper_two : (1 : ℕ) * 1 = 1 := by\n"
                  "  simp",
        }, ensure_ascii=False) + "\n")

    # Rules are keyed on theorem names. Corpus names only ever appear in
    # informalization prompts and demo names only in proof prompts, so one
    # script serves both stages without cross-talk.
    script = [{"pattern": name, "response": corpus_nl(name, i)}
              for i, name in enumerate(CORPUS_NAMES)]
    script.append({"pattern": "demo_add_comm", "response": DEMO_PROBLEM_A})
    script.append({"pattern": "demo_sub_self", "response": DEMO_PROBLEM_B})
    script_path = base / "script.json"
    script_path.write_text(json.dumps(script, ensure_ascii=False, indent=1),
                           encoding="utf-8")

    problems_path = base / "problems.jsonl"
    with open(problems_path, "w", encoding="utf-8") as f:
        f.write(json.dumps({
            "name": "demo_add_comm",
            "fl_statement": "theorem demo_add_comm (n : ℕ) : "
                            "n + 37 = 37 + n :=",
            "nl_statement_and_proof": "Statement: Addition commutes with 37. "
                                      "Proof: Commutativity of addition.",
        }, ensure_ascii=False) + "\n")
        f.write(json.dumps({
            "name": "demo_sub_self",
            "fl_statement": "theorem demo_sub_self (k : ℕ) : k - k = 0 :=",
            "nl_statement_and_proof": "Statement: Subtracting a number from "
                                      "itself gives zero. Proof: Cancel.",
        }, ensure_ascii=False) + "\n")

    seeds_path = base / "seeds.jsonl"
    with open(seeds_path, "w", encoding="utf-8") as f:
        f.write(json.dumps({
            "name": "pool_helper_one",
            "nl": "Statement: Two plus two equals four. Proof: Evaluate.",
            "fl": "theorem pool_helper_one : (2 : ℕ) + 2 = 4 := by\n"
                  "  norm_num",
        }, ensure_ascii=False) + "\n")

    key_path = base / "answer_key.json"
    key_path.write_text(json.dumps({
        "demo_add_comm": DEMO_PROBLEM_A,
        "demo_sub_self": DEMO_PROBLEM_B,
    }, ensure_ascii=False), encoding="utf-8")

    return {
        "corpus": corpus_dir,
        "pairs": pairs_path,
        "pool": pool_path,
        "script": script_path,
        "problems": problems_path,
        "seeds": seeds_path,
        "answer_key": key_path,
    }


def pipeline_config(base, fixture, workdir):
    return write_yaml(
        base / f"config-{os.path.basename(workdir)}.yaml",
        {
            "seed": 0,
            "workdir": str(workdir),
            "corpus": {"path": str(fixture["corpus"]), "commit": "fixture01"},
            "retrieval": {
                "pairs": str(fixture["pairs"]),
                "examples": str(fixture["pool"]),
                "dimension": 64,
                "steps": 40,
                "batch_size": 4,
            },
            "backend": {"kind": "mock", "script": str(fixture["script"])},
            "informalize": {"k_examples": 2},
            "bootstrap": {"mode": "head"},
            "prep": {"token_budget": 2048},
            "prover": {
                "problems": str(fixture["problems"]),
                "seed_examples": str(fixture["seeds"]),
                "n_samples": 4,
                "max_rounds": 2,
                "k_min": 1,
                "k_max": 4,
                "token_budget": 4096,
                "verifier": "mock",
                "answer_key": str(fixture["answer_key"]),
            },
        },
    )


PIPELINE_ARTIFACTS = [
    "theorems.jsonl",
    "extract_skips.jsonl",
    "projection.json",
    "loss_trace.csv",
    "similarity_histogram.csv",
    "informalize.ckpt.jsonl",
    "informal.jsonl",
    "obt.jsonl",
    "train.jsonl",
    "train_skips.jsonl",
    "report.jsonl",
    "sample.jsonl",
]


def run_pipeline(config, sample_seed=77):
    for argv in [
        ["extract", "-c", config],
        ["train-retriever", "-c", config],
        ["informalize", "-c", config],
        ["bootstrap", "-c", config],
        ["prep", "-c", config],
        ["prove", "-c", config],
        ["sample", "-c", config, "-n", "3", "--seed", str(sample_seed)],
    ]:
        code = run(argv)
        assert code == 0, f"stage {argv[0]} exited {code}"


class TestPipelineEndToEnd:
    def test_full_run_produces_consistent_artifacts(self, tmp_path, capsys):
        fixture = build_pipeline_fixture(tmp_path / "fixture")
        workdir = tmp_path / "run"
        config = pipeline_config(tmp_path, fixture, workdir)
        run_pipeline(config)

        theorems = read_jsonl(workdir / "theorems.jsonl")
        assert sorted(t["name"] for t in theorems) == sorted(CORPUS_NAMES)

        informal = read_jsonl(workdir / "informal.jsonl")
        assert len(informal) == 10
        assert all(e["verdict"] == "pass" for e in informal)
        # Each theorem got its own scripted text, not a neighbor's.
        for entry in informal:
            assert entry["Name"] in \
                entry["Generated_informal_statement_and_proof"]

        obt = read_jsonl(workdir / "obt.jsonl")
        assert len(obt) == 10
        for entry in obt:
            assert entry["Commented_proof"].startswith("/- ")

        train = read_jsonl(workdir / "train.jsonl")
        assert len(train) == 10
        difficulties = [r["difficulty"] for r in train]
        assert difficulties == sorted(difficulties)

        report_lines = read_jsonl(workdir / "report.jsonl")
        header = report_lines[0]
        assert header["problems_total"] == 2
        assert len(header["rounds"]) <= 2
        assert header["rounds"][0]["cumulative_proved"] == 2
        assert len(read_jsonl(workdir / "sample.jsonl")) == 3

        assert run(["report", "-c", config]) == 0
        out = capsys.readouterr().out
        assert "proved 2/2" in out

    def test_two_runs_are_byte_identical(self, tmp_path):
        fixture = build_pipeline_fixture(tmp_path / "fixture")
        config_a = pipeline_config(tmp_path, fixture, tmp_path / "run_a")
        config_b = pipeline_config(tmp_path, fixture, tmp_path / "run_b")
        run_pipeline(config_a)
        run_pipeline(config_b)
        for artifact in PIPELINE_ARTIFACTS:
            assert read_bytes(tmp_path / "run_a" / artifact) == \
                read_bytes(tmp_path / "run_b" / artifact), artifact

    def test_resume_from_truncated_checkpoint_matches(self, tmp_path):
        fixture = build_pipeline_fixture(tmp_path / "fixture")
        workdir = tmp_path / "run"
        config = pipeline_config(tmp_path, fixture, workdir)
        run_pipeline(config)

        baseline = {a: read_bytes(workdir / a)
                    for a in ("informalize.ckpt.jsonl", "informal.jsonl",
                              "obt.jsonl", "train.jsonl")}

        checkpoint = workdir / "informalize.ckpt.jsonl"
        lines = checkpoint.read_text(encoding="utf-8").splitlines(True)
        assert len(lines) == 10
        checkpoint.write_text("".join(lines[:4]), encoding="utf-8")

        assert run(["informalize", "-c", config, "--resume"]) == 0
        assert run(["bootstrap", "-c", config]) == 0
        assert run(["prep", "-c", config]) == 0
        for artifact, expected in baseline.items():
            assert read_bytes(workdir / artifact) == expected, artifact

    def test_resume_from_torn_checkpoint_matches(self, tmp_path):
        fixture = build_pipeline_fixture(tmp_path / "fixture")
        workdir = tmp_path / "run"
        config = pipeline_config(tmp_path, fixture, workdir)
        run_pipeline(config)
        baseline = {a: read_bytes(workdir / a)
                    for a in ("informalize.ckpt.jsonl", "informal.jsonl")}

        # A crash in mid-append leaves a final line without its newline.
        checkpoint = workdir / "informalize.ckpt.jsonl"
        lines = read_bytes(checkpoint).splitlines(True)
        checkpoint.write_bytes(b"".join(lines[:4]) + lines[4][:len(lines[4]) // 2])

        assert run(["informalize", "-c", config, "--resume"]) == 0
        for artifact, expected in baseline.items():
            assert read_bytes(workdir / artifact) == expected, artifact

    def test_report_error_names_file_and_line(self, tmp_path, capsys):
        fixture = build_pipeline_fixture(tmp_path / "fixture")
        workdir = tmp_path / "run"
        config = pipeline_config(tmp_path, fixture, workdir)
        assert run(["prove", "-c", config]) == 0
        report = workdir / "report.jsonl"
        lines = report.read_text(encoding="utf-8").splitlines(True)
        report.write_text(lines[0] + "{'name': 'demo_add_comm'}\n" + "".join(lines[2:]),
                          encoding="utf-8")
        capsys.readouterr()
        assert run(["report", "-c", config]) == 1
        assert "report.jsonl:2: unreadable JSON" in capsys.readouterr().err

    def test_corrupt_projection_error_names_file_and_line(self, tmp_path, capsys):
        fixture = build_pipeline_fixture(tmp_path / "fixture")
        workdir = tmp_path / "run"
        config = pipeline_config(tmp_path, fixture, workdir)
        assert run(["extract", "-c", config]) == 0
        assert run(["train-retriever", "-c", config]) == 0
        projection = workdir / "projection.json"
        projection.write_text(projection.read_text()[:40], encoding="utf-8")
        capsys.readouterr()
        assert run(["informalize", "-c", config]) == 1
        assert "projection.json:1: unreadable JSON" in capsys.readouterr().err

    def test_restart_discards_checkpoint(self, tmp_path):
        fixture = build_pipeline_fixture(tmp_path / "fixture")
        workdir = tmp_path / "run"
        config = pipeline_config(tmp_path, fixture, workdir)
        run_pipeline(config)
        checkpoint = workdir / "informalize.ckpt.jsonl"
        checkpoint.write_text("this is not json\n", encoding="utf-8")
        # Without --resume the stage restarts and ignores the damage.
        assert run(["informalize", "-c", config]) == 0
        assert len(read_jsonl(workdir / "informal.jsonl")) == 10

    def test_prove_max_rounds_flag_caps_the_report(self, tmp_path):
        fixture = build_pipeline_fixture(tmp_path / "fixture")
        workdir = tmp_path / "run"
        config = pipeline_config(tmp_path, fixture, workdir)
        assert run(["prove", "-c", config, "--max-rounds", "1"]) == 0
        header = read_jsonl(workdir / "report.jsonl")[0]
        assert len(header["rounds"]) == 1
