"""CLI and config tests: validation, stage commands, and the golden
end-to-end pipeline fixture (built around the mock backend so every byte is
reproducible)."""

import dataclasses
import http.server
import itertools
import json
import math
import os
import random
import re
import sys
import textwrap
import threading
import time
import tracemalloc
from typing import NamedTuple, Optional, Tuple

import numpy as np
import pytest
import yaml

import support
from fixtures import listings
from leanforge import bootstrap as bootstrap_mod
from leanforge import (artifacts, cli, corpus, genclient, prompts, prover, retrieval,
                       trainprep)
from leanforge import config as config_mod
from leanforge.config import (
    ConfigError,
    PipelineConfig,
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
    def test_readme_example_config_is_complete(self):
        # the README's example config sets every setting, and only those
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as f:
            (block,) = re.findall(r"^```yaml\n(.*?)^```", f.read(), re.M | re.S)
        raw = yaml.safe_load(block)

        def keys(data, where=""):
            for key, value in data.items():
                if isinstance(value, dict):
                    yield from keys(value, f"{where}{key}.")
                else:
                    yield where + key

        def settings(cls, where=""):
            for f in dataclasses.fields(cls):
                if dataclasses.is_dataclass(f.type):
                    yield from settings(f.type, f"{where}{f.name}.")
                else:
                    yield where + f.name

        assert sorted(keys(raw)) == sorted(settings(PipelineConfig))
        errors = []
        config_mod._build(PipelineConfig, raw, errors)
        assert errors == []

    def test_defaults_load(self, tmp_path):
        path = write_yaml(tmp_path / "c.yaml", {"workdir": str(tmp_path / "w")})
        config = load_config(path)
        assert config.seed == 0
        assert config.backend.kind == "mock"
        assert config.prover.n_samples == 128
        assert config.retrieval.dimension == 64

    @pytest.mark.parametrize("loader", ["CSafeLoader", "SafeLoader"])
    def test_malformed_file_is_a_parse_error_under_either_loader(
            self, tmp_path, monkeypatch, loader):
        # libyaml's loader when PyYAML has it, the pure one otherwise
        if not hasattr(yaml, loader):
            pytest.skip("PyYAML was built without libyaml")
        if loader == "SafeLoader":
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        used = []

        class Recording(getattr(yaml, loader)):
            def __init__(self, stream):
                used.append(loader)
                super().__init__(stream)

        monkeypatch.setattr(yaml, loader, Recording)
        good = write_yaml(tmp_path / "good.yaml", {"seed": 7, "retrieval": {"lr": 0.5}})
        config = load_config(good)
        assert (config.seed, config.retrieval.lr) == (7, 0.5)
        path = tmp_path / "c.yaml"
        path.write_text("seed: [1, 2\nretrieval: {lr: 0.1}\n", encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            load_config(str(path))
        assert info.value.errors[0].startswith(f"{path}: cannot parse config: ")
        assert used == [loader, loader]

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

    @pytest.mark.parametrize("value", [0, -1, 1.5, "two"])
    def test_max_in_flight_must_be_a_positive_integer(self, tmp_path, value):
        path = write_yaml(
            tmp_path / "c.yaml", {"backend": {"max_in_flight": value}})
        with pytest.raises(ConfigError, match="backend.max_in_flight"):
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

    @pytest.mark.parametrize("kind", ["directory", "not UTF-8"])
    def test_unreadable_config_exits_2_naming_it(self, tmp_path, capsys, kind):
        path = tmp_path / "c.yaml"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"workdir: w\xff\n")
        assert run(["prep", "-c", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: cannot read config: ")
        assert err.count("\n") == 1

    def test_fork_seed_is_stable_and_label_separated(self):
        assert fork_seed(0, "sample") == fork_seed(0, "sample")
        assert fork_seed(0, "sample") != fork_seed(0, "retry")
        assert fork_seed(0, "sample") != fork_seed(1, "sample")
        assert 0 <= fork_seed(123, "anything") < 2 ** 64


# --- one rule per setting ----------------------------------------------------------

# (setting, value, the one error it gives); each rule is in ``config.validate``
ENDPOINT_RULE = "backend.endpoint: must be an http:// or https:// URL with a host"

RANGE_RULES = [
    ("prover.n_samples", 0, "prover.n_samples: must be >= 1"),
    ("prover.max_rounds", 0, "prover.max_rounds: must be >= 1"),
    ("prover.k_min", 0, "prover.k_min/k_max: must satisfy 1 <= k_min <= k_max"),
    ("prover.k_min", 17, "prover.k_min/k_max: must satisfy 1 <= k_min <= k_max"),
    ("prover.token_budget", 0, "prover.token_budget: must be >= 1"),
    ("informalize.max_attempts", 0, "informalize.max_attempts: must be >= 1"),
    ("informalize.max_tokens", 0, "informalize.max_tokens: must be >= 1"),
    ("informalize.repetition_ngram", 0, "informalize.repetition_ngram: must be >= 1"),
    ("informalize.repetition_ratio_max", 0.0,
     "informalize.repetition_ratio_max: must be in (0, 1]"),
    ("informalize.repetition_ratio_max", 1.5,
     "informalize.repetition_ratio_max: must be in (0, 1]"),
    ("bootstrap.max_attempts", 0, "bootstrap.max_attempts: must be >= 1"),
    ("retrieval.lr", -0.1, "retrieval.lr: must be positive"),
    ("retrieval.steps", -1, "retrieval.steps: must be >= 0"),
    ("retrieval.batch_size", 1, "retrieval.batch_size: must be >= 2"),
    ("prep.token_budget", 0, "prep.token_budget: must be >= 1"),
    ("backend.max_new_tokens", 0, "backend.max_new_tokens: must be >= 1"),
    ("backend.temperature", -0.1, "backend.temperature: must be >= 0"),
    ("prover.max_new_tokens", 0, "prover.max_new_tokens: must be >= 1"),
    ("prover.timeout_s", 0, "prover.timeout_s: must be positive"),
    ("prover.command", [], "prover.command: required for external verifier"),
    ("retrieval.dimension", 0, "retrieval.dimension: must be >= 1"),
    ("retrieval.side", "xl", "retrieval.side: must be 'nl' or 'fl'"),
    ("backend.endpoint", "ftp://x", ENDPOINT_RULE),
    ("backend.endpoint", "http://", ENDPOINT_RULE),
    ("backend.endpoint", "localhost:8000/v1", ENDPOINT_RULE),
    ("backend.endpoint", "http://localhost:port/v1", ENDPOINT_RULE),
]

# (setting, value of the wrong type, the error naming it)
TYPE_RULES = [
    ("prover.n_samples", 2.5, "prover.n_samples: must be an integer, got 2.5"),
    ("informalize.max_attempts", 1.5,
     "informalize.max_attempts: must be an integer, got 1.5"),
    ("retrieval.steps", 2.5, "retrieval.steps: must be an integer, got 2.5"),
    ("retrieval.lr", True, "retrieval.lr: must be a number, got True"),
    ("prep.use_nl", "false", "prep.use_nl: must be true or false, got 'false'"),
    ("prover.command", "true",
     "prover.command: must be a list of strings, got 'true'"),
    ("backend.budget.max_tokens", "many",
     "backend.budget.max_tokens: must be an integer or null, got 'many'"),
]


def setting_yaml(path, setting, value, **extra):
    """A config file holding ``setting`` (``section.key`` or
    ``section.sub.key``) set to ``value``, over the mapping ``extra``."""
    data = dict(extra)
    *sections, key = setting.split(".")
    node = data
    for section in sections:
        node = node.setdefault(section, {})
    node[key] = value
    return write_yaml(path, data)


class TestSettingRules:
    """A setting is declared once, as a field of its config section: its
    type is checked as the file is read, its range in ``config.validate``.
    No stage checks it again."""

    @pytest.mark.parametrize("setting, value, message", RANGE_RULES,
                             ids=[f"{s}={v}" for s, v, _ in RANGE_RULES])
    def test_range_rule(self, tmp_path, setting, value, message):
        # a chat backend and an external verifier, so the rules that only
        # bind them apply
        path = setting_yaml(tmp_path / "c.yaml", setting, value,
                            backend={"kind": "chat", "model": "m",
                                     "endpoint": "http://127.0.0.1:9/v1"},
                            prover={"verifier": "external", "command": ["true"]})
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert info.value.errors == [message]

    def test_every_setting_type_is_read_by_the_record_rule(self):
        # the config file's types are judged by the rule that reads record
        # fields; a setting of a type it does not know fails here
        def settings(cls, where):
            for f in dataclasses.fields(cls):
                name = f"{where}{f.name}"
                if dataclasses.is_dataclass(f.type):
                    yield from settings(f.type, name + ".")
                else:
                    yield name, f.type, getattr(cls(), f.name)

        seen = list(settings(PipelineConfig, ""))
        assert "backend.retry.max_attempts" in {name for name, *_ in seen}
        for name, hint, default in seen:
            written = list(default) if type(default) is tuple else default
            assert artifacts.fit(written, hint) == default, name
            with pytest.raises(artifacts.Mismatch):
                artifacts.fit({}, hint)
            assert artifacts.expected(hint).startswith(("a ", "an ", "true or false")), name

    @pytest.mark.parametrize("setting, value, message", TYPE_RULES,
                             ids=[f"{s}={v!r}" for s, v, _ in TYPE_RULES])
    def test_wrong_type_exits_2_naming_the_key(self, tmp_path, capsys, setting,
                                              value, message):
        workdir = tmp_path / "work"
        path = setting_yaml(tmp_path / "c.yaml", setting, value,
                            workdir=str(workdir),
                            prover={"verifier": "external", "command": ["true"]})
        assert run(["prep", "-c", path]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not workdir.exists()


class TestSettingFlags:
    """A flag that overrides a setting is written into its key before the
    config is checked: an out-of-range value exits 2 with the key's own
    error, before any output is touched."""

    FLAGS = [
        ("train-retriever", "--steps", "-1", "retrieval.steps: must be >= 0"),
        ("informalize", "--max-attempts", "0", "informalize.max_attempts: must be >= 1"),
        ("bootstrap", "--mode", "sideways",
         "bootstrap.mode: must be 'interleaved' or 'head'"),
        ("prep", "--token-budget", "0", "prep.token_budget: must be >= 1"),
        ("prove", "--n-samples", "0", "prover.n_samples: must be >= 1"),
        ("prove", "--max-rounds", "0", "prover.max_rounds: must be >= 1"),
    ]

    @pytest.mark.parametrize("command, flag, value, message", FLAGS,
                             ids=[f"{f}={v}" for _, f, v, _ in FLAGS])
    def test_out_of_range_flag_exits_2_and_writes_nothing(
            self, tmp_path, capsys, command, flag, value, message):
        fixture = build_pipeline_fixture(tmp_path / "fixture")
        workdir = tmp_path / "run"
        config = pipeline_config(tmp_path, fixture, workdir)
        run_pipeline(config)
        before = {name: read_bytes(workdir / name) for name in os.listdir(workdir)}
        capsys.readouterr()
        assert run([command, "-c", config, flag, value]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert {name: read_bytes(workdir / name)
                for name in os.listdir(workdir)} == before

    @pytest.mark.parametrize("flag, key", [
        ("--no-nl", "use_nl"), ("--no-bootstrapped", "use_bootstrapped"),
        ("--no-block", "use_block"), ("--no-curriculum", "use_curriculum")])
    def test_switch_is_its_key_set_false(self, tmp_path, flag, key):
        trains = []
        for name, prep, flags in (("flag", {}, [flag]), ("key", {key: False}, [])):
            workdir = tmp_path / name
            workdir.mkdir()
            artifacts.write_jsonl(str(workdir / "obt.jsonl"), seeded_obt_records())
            config = write_yaml(tmp_path / f"{name}.yaml",
                                {"workdir": str(workdir), "prep": prep})
            assert run(["prep", "-c", config, *flags]) == 0
            trains.append(read_bytes(workdir / "train.jsonl"))
        default = tmp_path / "default"
        default.mkdir()
        artifacts.write_jsonl(str(default / "obt.jsonl"), seeded_obt_records())
        assert run(["prep", "-c", write_yaml(tmp_path / "default.yaml",
                                             {"workdir": str(default)})]) == 0
        assert trains[0] == trains[1] != read_bytes(default / "train.jsonl")


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

    def test_lean_file_not_utf8_is_named(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        root.mkdir()
        (root / "good.lean").write_text(THEOREM_TEXTS[0])
        (root / "latin1.lean").write_bytes(b"-- caf\xe9\n" + THEOREM_TEXTS[1].encode())
        assert run(["extract", "-c", extract_config(tmp_path, root)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {root / 'latin1.lean'}: not UTF-8 text: ")

    def test_missing_corpus_path_is_config_error(self, tmp_path, capsys):
        config = write_yaml(tmp_path / "c.yaml",
                            {"workdir": str(tmp_path / "work")})
        assert run(["extract", "-c", config]) == 2
        assert "corpus.path" in capsys.readouterr().err


# --- train-retriever ------------------------------------------------------------


def write_text_pairs(path, count=8):
    with open(path, "w", encoding="utf-8") as f:
        for i in range(count):
            f.write(json.dumps({"nl": f"text number {i} about addition",
                                "fl": f"theorem t{i} : {i} = {i}"}) + "\n")
    return str(path)


def retriever_config(tmp_path, pairs_path, workdir="work", **retrieval_keys):
    settings = {"pairs": str(pairs_path), "dimension": 16, **retrieval_keys}
    return write_yaml(
        tmp_path / f"config-{workdir}.yaml",
        {"workdir": str(tmp_path / workdir), "retrieval": settings},
    )


class TestTrainRetriever:
    def test_rotated_corpus_reaches_low_loss(self, tmp_path):
        # The synthetic corpus is vectors, and a pair file holds texts, so
        # this trains through the calls train-retriever makes.
        pairs = support.rotated_pair_corpus(101, 64, 16, 2, math.pi / 2)
        config = load_config(retriever_config(tmp_path, "pairs.jsonl", steps=500))
        head, trace = retrieval.train_projection(
            pairs, config.retrieval, fork_seed(config.seed, "train-retriever"))
        assert len(trace) == 500
        assert trace[-1] < 0.1
        path = str(tmp_path / "projection.json")
        retrieval.save_head(head, path)
        loaded = retrieval.load_head(path, config.retrieval.dimension)
        assert loaded.d_in == 16
        assert loaded.weights.tobytes() == head.weights.tobytes()

    def test_zero_steps_persists_seeded_init(self, tmp_path):
        config = retriever_config(tmp_path, write_text_pairs(tmp_path / "pairs.jsonl"))

        assert run(["train-retriever", "-c", config, "--steps", "0"]) == 0
        trace = (tmp_path / "work" / "loss_trace.csv").read_text().splitlines()
        assert trace == ["step,loss"]
        head = retrieval.load_head(str(tmp_path / "work" / "projection.json"), 16)
        assert head.weights.shape == (16, 16)
        seeded = retrieval.ProjectionHead.initialize(
            16, 16, fork_seed(0, "train-retriever"))
        assert head.weights.tobytes() == seeded.weights.tobytes()

    def test_rerun_same_seed_gives_identical_head(self, tmp_path):
        pairs_path = write_text_pairs(tmp_path / "pairs.jsonl", 12)
        config_a = retriever_config(tmp_path, pairs_path, workdir="wa", steps=30)
        config_b = retriever_config(tmp_path, pairs_path, workdir="wb", steps=30)

        assert run(["train-retriever", "-c", config_a]) == 0
        assert run(["train-retriever", "-c", config_b]) == 0
        assert read_bytes(tmp_path / "wa" / "projection.json") == \
            read_bytes(tmp_path / "wb" / "projection.json")

    def test_text_pairs_are_embedded(self, tmp_path, capsys):
        # hashed at retrieval.dimension, by the embedder informalize uses
        pairs_path = write_text_pairs(tmp_path / "pairs.jsonl")
        config_path = retriever_config(tmp_path, pairs_path, steps=5, batch_size=4)
        config = load_config(config_path)
        assert run(["train-retriever", "-c", config_path]) == 0

        embedder = retrieval.HashEmbedder(16)
        texts = read_jsonl(pairs_path)
        expected, trace = retrieval.train_projection(
            list(zip(embedder.embed([t["nl"] for t in texts]),
                     embedder.embed([t["fl"] for t in texts]))),
            config.retrieval, fork_seed(0, "train-retriever"))
        head = retrieval.load_head(str(tmp_path / "work" / "projection.json"), 16)
        assert head.weights.tobytes() == expected.weights.tobytes()
        assert (tmp_path / "work" / "loss_trace.csv").read_text().splitlines() == \
            ["step,loss"] + [f"{step},{loss:.10f}" for step, loss in enumerate(trace, 1)]
        histogram = (tmp_path / "work" / "similarity_histogram.csv").read_text()
        assert histogram.startswith("bin_left,bin_right,count")
        assert (f"trained on 8 pairs for 5 steps, final loss {trace[-1]:.6f}"
                in capsys.readouterr().out)

    def test_vector_pair_file_is_refused(self, tmp_path, capsys):
        # A head trained on vectors from another embedding would be applied
        # to hash vectors by informalize; the pair file holds texts only.
        pairs_path = tmp_path / "pairs.jsonl"
        pairs_path.write_text("".join(
            json.dumps({"nl_vector": list(nl), "fl_vector": list(fl)}) + "\n"
            for nl, fl in support.rotated_pair_corpus(7, 12, 16, 2, 1.0)))
        config = retriever_config(tmp_path, pairs_path, steps=5)
        assert run(["train-retriever", "-c", config]) == 1
        assert "pairs.jsonl:1: entry has no 'nl' field" in capsys.readouterr().err
        assert not (tmp_path / "work" / "projection.json").exists()

    @pytest.mark.parametrize("entries, line, key", [
        ([{"nl": "a + b", "fl": "theorem a"},
          {"nl_vector": [1.0] * 16, "fl_vector": [1.0] * 16}], 2, "nl"),
        ([{"nl": "a + b", "fl": "theorem a"}, {"nl": "b + a"}], 2, "fl"),
    ], ids=["vector-after-text", "text-without-fl"])
    def test_entry_without_a_key_of_the_file_format_names_line_and_key(
            self, tmp_path, capsys, entries, line, key):
        pairs_path = tmp_path / "pairs.jsonl"
        pairs_path.write_text("".join(json.dumps(e) + "\n" for e in entries))
        config = retriever_config(tmp_path, pairs_path, steps=5)
        assert run(["train-retriever", "-c", config]) == 1
        err = capsys.readouterr().err
        assert f"pairs.jsonl:{line}: entry has no {key!r} field" in err
        assert not (tmp_path / "work" / "projection.json").exists()

    @pytest.mark.parametrize("entries, line, message", [
        ([{"nl": 5, "fl": "theorem a"}], 1, "nl is not a string"),
        ([{"nl": "a + b", "fl": "theorem a"}, {"nl": "b + a", "fl": ["theorem b"]}],
         2, "fl is not a string"),
        # vectors, as the retired nl_vector/fl_vector layout held them,
        # under the text keys
        ([{"nl": [1.0] * 16, "fl": "theorem a"}], 1, "nl is not a string"),
        ([{"nl": "a + b", "fl": "theorem a"},
          {"nl": "b + a", "fl": [1.0] * 15 + ["x"]}], 2, "fl is not a string"),
        ([{"nl": "a + b", "fl": [[1.0]] * 16}], 1, "fl is not a string"),
    ], ids=["text-number", "text-list", "vector-number", "vector-with-string",
            "vector-of-lists"])
    def test_value_of_the_wrong_type_names_line_and_key(
            self, tmp_path, capsys, entries, line, message):
        pairs_path = tmp_path / "pairs.jsonl"
        pairs_path.write_text("".join(json.dumps(e) + "\n" for e in entries))
        config = retriever_config(tmp_path, pairs_path, steps=5)
        assert run(["train-retriever", "-c", config]) == 1
        assert f"pairs.jsonl:{line}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "work" / "projection.json").exists()

    @pytest.mark.parametrize("bad_side", ["nl_vector", "fl_vector"])
    def test_vector_of_the_wrong_length_names_line_and_lengths(
            self, tmp_path, capsys, bad_side):
        # A pair file carries no widths: every vector is hashed at
        # retrieval.dimension, so a short vector on either side is refused
        # as a value that is not a text, naming its line and key.
        side = bad_side.split("_")[0]
        pairs_path = tmp_path / "pairs.jsonl"
        entries = read_jsonl(write_text_pairs(pairs_path, 12))
        entries[4][side] = [1.0, 0.5, 0.25]
        pairs_path.write_text("".join(json.dumps(e) + "\n" for e in entries))
        config = retriever_config(tmp_path, pairs_path, steps=5)
        assert run(["train-retriever", "-c", config]) == 1
        assert f"pairs.jsonl:5: {side} is not a string" in capsys.readouterr().err
        assert not (tmp_path / "work" / "projection.json").exists()

    def test_vectors_all_shorter_than_the_dimension_are_rejected(self, tmp_path):
        # A head trained on them could never serve informalize, which embeds
        # its pool at retrieval.dimension; load_head refuses it there.
        pairs = support.rotated_pair_corpus(7, 12, 3, 2, 1.0)
        config = load_config(retriever_config(
            tmp_path, "pairs.jsonl", steps=5, dimension=64))
        head, _ = retrieval.train_projection(
            pairs, config.retrieval, fork_seed(config.seed, "train-retriever"))
        path = str(tmp_path / "projection.json")
        retrieval.save_head(head, path)
        with pytest.raises(artifacts.ArtifactError) as raised:
            retrieval.load_head(path, config.retrieval.dimension)
        assert (f"{path}: head takes vectors of 3 values, "
                f"but retrieval.dimension is 64") in str(raised.value)

    @pytest.mark.parametrize("count", [0, 1])
    def test_too_few_pairs_name_the_file_and_create_nothing(
            self, tmp_path, capsys, count):
        pairs_path = write_text_pairs(tmp_path / "pairs.jsonl", count)
        config = retriever_config(tmp_path, pairs_path, steps=5)
        assert run(["train-retriever", "-c", config]) == 1
        assert (f"error: {pairs_path} (retrieval.pairs) holds {count}: "
                "need at least two pairs to train") in capsys.readouterr().err
        assert not (tmp_path / "work").exists()

    def test_missing_pairs_file_exits_1_naming_it(self, tmp_path, capsys):
        config = retriever_config(tmp_path, tmp_path / "nope.jsonl")
        assert run(["train-retriever", "-c", config]) == 1
        assert "nope.jsonl" in capsys.readouterr().err


# --- the stage table ---------------------------------------------------------------


# The command whose run leaves each workdir artifact that some command reads.
PRODUCERS = {"theorems.jsonl": "extract", "projection.json": "train-retriever",
             "informal.jsonl": "informalize",
             "informalize.ckpt.jsonl": "informalize", "obt.jsonl": "bootstrap",
             "report.jsonl": "prove", "prove.attempts.jsonl": "prove"}


def readme_pipeline_rows():
    """(command, reads, writes) of each row of README's Pipeline table."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as f:
        section = f.read().split("\n## Pipeline\n", 1)[1].split("\n## ", 1)[0]
    return [tuple(cell.strip() for cell in line.strip().strip("|").split("|"))
            for line in section.splitlines() if line.startswith("| `")]


def missing_input_cases():
    """(command, entry, case) for every file each command reads: the file
    missing, and a required setting unset."""
    for command, stage in cli.STAGES.items():
        for entry in stage.reads:
            yield command, entry, "missing"
            if " when " not in entry and entry not in PRODUCERS:
                yield command, entry, "unset"


def listing(path):
    return sorted(os.listdir(path)) if path.exists() else None


class TestStageTable:
    def test_readme_pipeline_table_is_the_stage_table(self):
        rows = [(command.strip("`"), reads.replace("`", ""), writes.replace("`", ""))
                for command, reads, writes in readme_pipeline_rows()]
        assert rows == [(command, ", ".join(stage.reads), ", ".join(stage.writes) or "nothing")
                        for command, stage in cli.STAGES.items()]

    @pytest.mark.parametrize("command, target, case", list(missing_input_cases()))
    def test_missing_input_names_its_writer_or_setting_and_writes_nothing(
            self, tmp_path, capsys, command, target, case):
        """Every other file the command reads exists, and every condition of
        its entries holds: the one input missing, or left unset, fails the
        command before its handler runs."""
        workdir, inputs = tmp_path / "work", tmp_path / "inputs"
        inputs.mkdir()
        absent = str(tmp_path / "absent.jsonl")
        settings, argv = {}, [command, "-c", str(tmp_path / "c.yaml")]
        if command == "sample":
            argv += ["-n", "1"]

        def put(key, value):
            section, field = key.split(".")
            settings.setdefault(section, {})[field] = value

        for entry in cli.STAGES[command].reads:
            name, _, when = entry.partition(" when ")
            for condition in when.split(" and "):
                key, _, value = condition.partition(": ")
                if value:
                    put(key, value)
                elif key.startswith("--"):  # a switch, such as --resume
                    argv.append(key)
            if name.startswith("--"):
                if entry == target:
                    argv += [name, absent]
            elif name in PRODUCERS:
                if entry != target:
                    workdir.mkdir(exist_ok=True)
                    (workdir / name).write_text("", encoding="utf-8")
            elif entry != target:
                (inputs / name).write_text("", encoding="utf-8")
                put(name, str(inputs / name))
            elif case == "missing":
                put(name, absent)
        write_yaml(tmp_path / "c.yaml", {"workdir": str(workdir), **settings})
        before = listing(workdir)

        name = target.partition(" when ")[0]
        if case == "unset":
            code, message = 2, f"config error: {name}: required for {command}"
        elif name in PRODUCERS:
            code, message = 1, (f"error: expected file {workdir / name} is missing; "
                                f"run `leanforge {PRODUCERS[name]}` first")
        else:
            code, message = 1, (f"error: expected file {absent} is missing; "
                                f"create it or change {name}")
        assert run(argv) == code
        assert capsys.readouterr().err == message + "\n"
        assert listing(workdir) == before

    def test_each_command_leaves_exactly_its_declared_writes(self, tmp_path):
        fixture = build_pipeline_fixture(tmp_path / "fixture")
        workdir = tmp_path / "run"
        config = pipeline_config(tmp_path, fixture, workdir)
        elsewhere = tmp_path / "elsewhere" / "subset.jsonl"
        for argv in (["extract"], ["train-retriever"], ["informalize"], ["bootstrap"],
                     ["prep"], ["prove"], ["report"], ["sample", "-n", "3"],
                     ["sample", "-n", "3", "--for-review"],
                     ["sample", "-n", "3", "--output", str(elsewhere)]):
            argv = [*argv, "-c", config]
            before = set(listing(workdir) or ())
            assert run(argv) == 0, argv
            declared = cli._declared(cli.STAGES[argv[0]].writes, load_config(config),
                                     cli._parser().parse_args(argv))
            assert set(listing(workdir)) - before == {name for name, _ in declared}, argv
        assert elsewhere.exists()


# --- the error rule ----------------------------------------------------------------


class TestErrorRule:
    """``main`` prints one line for a config error (exit 2) and for an
    input, file or service failure (exit 1). Any other exception is a bug:
    it propagates with its traceback."""

    @staticmethod
    def extract_raising(tmp_path, monkeypatch, failure):
        def handler(args, config):
            raise failure

        monkeypatch.setitem(cli.STAGES, "extract",
                            cli.STAGES["extract"]._replace(handler=handler))
        return ["extract", "-c", write_yaml(tmp_path / "c.yaml", {
            "workdir": str(tmp_path / "work"), "corpus": {"path": str(tmp_path)}})]

    @pytest.mark.parametrize("bug", [KeyError("x"), RuntimeError("invariant broken")])
    def test_a_bug_propagates_out_of_main(self, tmp_path, monkeypatch, bug):
        argv = self.extract_raising(tmp_path, monkeypatch, bug)
        with pytest.raises(type(bug)) as raised:
            run(argv)
        assert raised.value is bug

    @pytest.mark.parametrize("failure, code, line", [
        (ConfigError(["corpus.path: bad"]), 2, "config error: corpus.path: bad"),
        (FileNotFoundError("gone"), 1, "error: gone"),
        (ValueError("bad input"), 1, "error: bad input"),
        (genclient.GenClientError("no reply"), 1, "error: no reply"),
    ])
    def test_an_input_file_or_service_failure_is_one_line(
            self, tmp_path, monkeypatch, capsys, failure, code, line):
        argv = self.extract_raising(tmp_path, monkeypatch, failure)
        assert run(argv) == code
        assert capsys.readouterr().err == line + "\n"


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
            (["bootstrap", "-c", config], "informal.jsonl"),
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


# --- bootstrap ---------------------------------------------------------------------


# Two files declare a theorem with the same short name in different
# namespaces; extraction names both ``foo``.
SAME_NAME_FILES = {
    "nat.lean": "namespace Nat\n\ntheorem foo : (1 : ℕ) + 1 = 2 := by\n"
                "  norm_num\n\nend Nat\n",
    "int.lean": "namespace Int\n\ntheorem foo : (1 : ℤ) + 1 = 2 := by\n"
                "  norm_num\n\nend Int\n",
}
# The informalization reply for each proof, keyed on text only that proof holds.
SAME_NAME_NL = {
    "(1 : ℕ)": "Statement: One plus one is two among the naturals. "
               "Proof: Evaluate the natural-number sum.",
    "(1 : ℤ)": "Statement: One plus one is two among the integers. "
               "Proof: Evaluate the integer sum.",
}


def scripted_nl(proof):
    (nl,) = [text for key, text in SAME_NAME_NL.items() if key in proof]
    return nl


INFORMAL_ENTRY = {
    "Name": "foo",
    "Statement": "theorem foo : (1 : ℕ) + 1 = 2 :=",
    "Proof": "theorem foo : (1 : ℕ) + 1 = 2 := by\n  norm_num\n",
    "File_path": "nat.lean",
    "Commit": "deadbeef",
    "Generated_informal_statement_and_proof": SAME_NAME_NL["(1 : ℕ)"],
    "verdict": "pass",
    "reasons": [],
}


def same_name_config(tmp_path, mode):
    """A config over the ``SAME_NAME_FILES`` corpus, whose mock script
    answers each proof's informalization with its ``SAME_NAME_NL``."""
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    for filename, text in SAME_NAME_FILES.items():
        (corpus_dir / filename).write_text(text, encoding="utf-8")
    script = tmp_path / "script.json"
    script.write_text(json.dumps(
        [{"pattern": key, "response": nl} for key, nl in SAME_NAME_NL.items()],
        ensure_ascii=False), encoding="utf-8")
    return write_yaml(tmp_path / "c.yaml", {
        "workdir": str(tmp_path / "work"),
        "corpus": {"path": str(corpus_dir), "commit": "deadbeef"},
        "backend": {"kind": "mock", "script": str(script)},
        "bootstrap": {"mode": mode},
    })


class TestBootstrapCommand:
    def test_same_name_theorems_keep_their_own_nl(self, tmp_path):
        workdir = tmp_path / "work"
        config = same_name_config(tmp_path, "head")
        for command in ("extract", "informalize", "bootstrap"):
            assert run([command, "-c", config]) == 0, command

        theorems = read_jsonl(workdir / "theorems.jsonl")
        assert [t["name"] for t in theorems] == ["foo", "foo"]
        informal = read_jsonl(workdir / "informal.jsonl")
        obt = read_jsonl(workdir / "obt.jsonl")
        assert [e["Proof"] for e in informal] == [t["proof"] for t in theorems]
        assert [e["Proof"] for e in obt] == [t["proof"] for t in theorems]
        for entry in informal + obt:
            assert entry["Generated_informal_statement_and_proof"] == \
                scripted_nl(entry["Proof"])
        for entry in obt:
            assert entry["Commented_proof"] == bootstrap_mod.head_bootstrap(
                scripted_nl(entry["Proof"]), entry["Proof"])

    def test_same_name_theorems_get_request_ids_of_their_own(self, tmp_path, monkeypatch):
        # both theorems are named foo: each request id holds the record's
        # position as well, so no two requests share one
        ids = []
        generate = genclient.MockBackend.generate

        def recording(backend, request):
            ids.append(request.request_id)
            return generate(backend, request)

        monkeypatch.setattr(genclient.MockBackend, "generate", recording)
        config = same_name_config(tmp_path, "interleaved")
        for command in ("extract", "informalize", "bootstrap"):
            assert run([command, "-c", config]) == 0, command
        assert sorted(ids) == [
            "bootstrap:0:foo:1", "bootstrap:0:foo:2", "bootstrap:0:foo:3",
            "bootstrap:1:foo:1", "bootstrap:1:foo:2", "bootstrap:1:foo:3",
            "informalize:0:foo:1", "informalize:1:foo:1"]

    @pytest.mark.parametrize("key", [k for k in INFORMAL_ENTRY if k != "reasons"])
    def test_entry_without_a_key_bootstrap_reads_names_line_and_key(
            self, tmp_path, capsys, key):
        workdir = tmp_path / "work"
        workdir.mkdir()
        broken = {k: v for k, v in INFORMAL_ENTRY.items() if k != key}
        (workdir / "informal.jsonl").write_text(
            json.dumps(INFORMAL_ENTRY) + "\n" + json.dumps(broken) + "\n",
            encoding="utf-8")
        config = write_yaml(tmp_path / "c.yaml", {
            "workdir": str(workdir), "bootstrap": {"mode": "head"}})
        assert run(["bootstrap", "-c", config]) == 1
        assert f"informal.jsonl:2: entry has no {key!r} field" in \
            capsys.readouterr().err
        assert not (workdir / "obt.jsonl").exists()


    def test_proof_that_does_not_lex_names_file_line_and_record(
            self, tmp_path, capsys):
        workdir = tmp_path / "work"
        workdir.mkdir()
        broken = dict(INFORMAL_ENTRY, Name="bar", Proof=INFORMAL_ENTRY["Proof"].replace(
            "  norm_num", "  /- open\n  norm_num"))
        path = workdir / "informal.jsonl"
        path.write_text(json.dumps(INFORMAL_ENTRY) + "\n\n" + json.dumps(broken) + "\n",
                        encoding="utf-8")
        config = write_yaml(tmp_path / "c.yaml", {
            "workdir": str(workdir), "bootstrap": {"mode": "head"}})
        assert run(["bootstrap", "-c", config]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}:3: bar: Proof does not lex: "
            "unterminated block comment (offset 38)\n")
        assert not (workdir / "obt.jsonl").exists()


def _backend_kind(sampler, section):
    return {genclient.MockBackend: "mock",
            genclient.ChatCompletionBackend: "chat"}[type(sampler.backend)]


# (key, a value other than its default, whether it binds only a chat backend,
# what carries it: a reader of the sampler ``cli._sampler`` builds and the
# section ``cmd_bootstrap`` hands ``bootstrap_corpus``, and the value read)
WIRED_SETTINGS = [
    ("backend.kind", "chat", False, _backend_kind, "chat"),
    ("backend.script", "script.json", False,
     lambda sampler, _: sampler.backend.script, [("needle", "found")]),
    ("backend.default_text", "no idea", False,
     lambda sampler, _: sampler.backend.default_text, "no idea"),
    ("backend.endpoint", "http://127.0.0.1:9/other", True,
     lambda sampler, _: sampler.backend.settings.endpoint, "http://127.0.0.1:9/other"),
    ("backend.model", "other-model", True,
     lambda sampler, _: sampler.backend.name, "other-model"),
    ("backend.api_key_env", "LEANFORGE_TEST_KEY", True,
     lambda sampler, _: sampler.backend.settings.api_key_env, "LEANFORGE_TEST_KEY"),
    ("backend.system_prompt", "Be terse.", True,
     lambda sampler, _: sampler.backend.settings.system_prompt, "Be terse."),
    ("backend.timeout", 9.5, True,
     lambda sampler, _: sampler.backend.settings.timeout, 9.5),
    ("backend.max_in_flight", 3, True,
     lambda sampler, _: sampler.backend.concurrency, 6),
    ("backend.temperature", 0.2, False, lambda sampler, _: sampler.temperature, 0.2),
    ("backend.max_new_tokens", 333, False,
     lambda sampler, _: sampler.max_new_tokens, 333),
    ("backend.retry.max_attempts", 2, False,
     lambda sampler, _: sampler.retry.settings.max_attempts, 2),
    ("backend.retry.base_delay", 2.5, False,
     lambda sampler, _: sampler.retry.settings.base_delay, 2.5),
    ("backend.retry.max_delay", 30.0, False,
     lambda sampler, _: sampler.retry.settings.max_delay, 30.0),
    ("backend.retry.wall_clock_ceiling", 10.0, False,
     lambda sampler, _: sampler.retry.settings.wall_clock_ceiling, 10.0),
    ("backend.budget.max_requests", 7, False,
     lambda sampler, _: sampler.budget.settings.max_requests, 7),
    ("backend.budget.max_tokens", 5000, False,
     lambda sampler, _: sampler.budget.settings.max_tokens, 5000),
    ("bootstrap.mode", "head", False,
     lambda sampler, section: (sampler, section.mode), (None, "head")),
    ("bootstrap.max_attempts", 5, False,
     lambda _, section: section.max_attempts, 5),
]


class TestSettingsReachTheirObjects:
    """Each ``backend`` and ``bootstrap`` setting, set alone to a value other
    than its default, is carried by the objects ``cmd_bootstrap`` builds:
    the sampler of ``cli._sampler`` (with its backend, retry policy and
    budget) and the section ``bootstrap_corpus`` takes. A chat-only setting
    is set on a chat backend."""

    def test_every_key_has_a_case(self):
        def settings(cls, where):
            for f in dataclasses.fields(cls):
                if dataclasses.is_dataclass(f.type):
                    yield from settings(f.type, f"{where}{f.name}.")
                else:
                    yield where + f.name

        assert sorted(key for key, *_ in WIRED_SETTINGS) == sorted([
            *settings(config_mod.BackendSettings, "backend."),
            *settings(config_mod.BootstrapSettings, "bootstrap.")])

    @pytest.mark.parametrize("key, value, chat, read, carried", WIRED_SETTINGS,
                             ids=[case[0] for case in WIRED_SETTINGS])
    def test_setting_reaches_the_objects_built_from_it(
            self, tmp_path, monkeypatch, key, value, chat, read, carried):
        workdir = tmp_path / "work"
        workdir.mkdir()
        (workdir / "informal.jsonl").write_text("", encoding="utf-8")
        if key == "backend.script":
            (tmp_path / value).write_text(
                json.dumps([{"pattern": "needle", "response": "found"}]), encoding="utf-8")
            value = str(tmp_path / value)
        if key == "backend.api_key_env":
            monkeypatch.setenv(value, "sk-test")
        backend = {"endpoint": "http://127.0.0.1:9/v1", "model": "m"}
        if chat:
            backend["kind"] = "chat"
        config = setting_yaml(tmp_path / "c.yaml", key, value, workdir=str(workdir),
                              backend=backend)
        built = []

        def recording(entries, sampler, section):
            built.append(read(sampler, section))
            return [], bootstrap_mod.BootstrapStats()

        monkeypatch.setattr(bootstrap_mod, "bootstrap_corpus", recording)
        assert run(["bootstrap", "-c", config]) == 0
        assert built == [carried]


class TestSamplerBudget:
    """``cli._sampler`` always builds a budget. A config with no
    ``backend.budget`` sets no ceiling, and the budget still counts every
    request, serial or pooled."""

    @pytest.mark.parametrize("concurrency", [1, 3])
    def test_budget_without_a_ceiling_counts_every_request(self, tmp_path, concurrency):
        config = config_mod.load_config(
            write_yaml(tmp_path / "c.yaml", {"workdir": str(tmp_path)}))
        asks = [1, 3, 2, 3, 1]  # requests per unit

        def work(item, ask):
            for i in range(asks[item]):
                ask(f"r{item}:{i}")
            return item

        with cli._sampler(config, 64) as sampler:
            budget = sampler.budget
            assert isinstance(budget, genclient.GenerationBudget)
            assert (budget.settings.max_requests, budget.settings.max_tokens) == (None, None)
            sampler.backend.concurrency = concurrency
            units = ((item, "p") for item in range(len(asks)))
            out = list(genclient.in_order(units, work, sampler))
        assert [item for item, _ in out] == list(range(len(asks)))
        assert budget.requests_used == sum(asks)


def theorems_workdir(tmp_path, name, count, backend=None):
    """A workdir holding ``count`` extracted theorems, and a config on it
    with ``backend`` as its backend section (a mock by default)."""
    workdir = tmp_path / name
    workdir.mkdir()
    artifacts.write_jsonl(str(workdir / "theorems.jsonl"), (
        dataclasses.asdict(corpus.TheoremRecord(
            f"thm{i}", f"theorem thm{i} : {i} = {i} :=",
            f"theorem thm{i} : {i} = {i} := rfl", "A.lean", "c", 1))
        for i in range(count)))
    return workdir, write_yaml(tmp_path / f"{name}.yaml", {
        "workdir": str(workdir), "backend": backend or {"kind": "mock"}})


class TestInformalizeMessages:
    def test_summary_counts_backend_errors_apart_from_screening(
            self, tmp_path, monkeypatch, capsys):
        def reply(request):
            name = request.request_id.split(":")[2]
            if name == "thm0":
                raise genclient.GenClientError("no choices")
            if name == "thm1":
                return "the " * 40
            return f"Statement: {name} holds. Proof: compute it."

        _, config = theorems_workdir(tmp_path, "run", 3)
        monkeypatch.setattr(cli, "make_backend",
                            lambda settings: support.KeyedBackend(reply, 0))
        assert run(["informalize", "-c", config]) == 0
        assert capsys.readouterr().out == (
            "informalized 1/3 theorems (1 failed screening, "
            "1 failed on backend errors)\n")

    def test_resume_without_a_checkpoint_names_the_command_that_writes_it(
            self, tmp_path, capsys):
        workdir, config = theorems_workdir(tmp_path, "run", 2)
        assert run(["informalize", "-c", config, "--resume"]) == 1
        assert capsys.readouterr().err == (
            f"error: expected file {workdir / 'informalize.ckpt.jsonl'} is missing; "
            "run `leanforge informalize` first\n")
        assert sorted(os.listdir(workdir)) == ["theorems.jsonl"]

    def test_corrupt_checkpoint_names_the_flag_that_discards_it(
            self, tmp_path, capsys):
        workdir, config = theorems_workdir(tmp_path, "run", 2)
        (workdir / "informalize.ckpt.jsonl").write_text("not json\n", encoding="utf-8")
        assert run(["informalize", "-c", config, "--resume"]) == 1
        assert capsys.readouterr().err.endswith(
            "; run without --resume to discard the checkpoint\n")
        assert not (workdir / "informal.jsonl").exists()


class TestUnsetApiKey:
    """A chat backend whose ``backend.api_key_env`` names an unset variable
    is a config error: a paid stage exits 2 before its first request."""

    KEY = "LEANFORGE_TEST_UNSET_KEY"
    ERROR = (f"config error: backend.api_key_env: environment variable {KEY} "
             "is not set\n")

    @pytest.fixture()
    def chat(self, monkeypatch):
        """The backend section of a chat service on localhost that counts
        the requests it gets, and that count."""
        posts = []

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                posts.append(body)
                reply = json.dumps({"choices": [
                    {"message": {"content": "Statement: s. Proof: p."},
                     "finish_reason": "stop"}] * body["n"]}).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(reply)))
                self.end_headers()
                self.wfile.write(reply)

            def log_message(self, *args):
                pass

        monkeypatch.delenv(self.KEY, raising=False)
        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05}, daemon=True)
        thread.start()
        # one attempt a request: a run that does send one ends soon
        yield {"kind": "chat", "model": "m", "api_key_env": self.KEY,
               "endpoint": f"http://127.0.0.1:{server.server_address[1]}/v1",
               "retry": {"max_attempts": 1}}, posts
        server.shutdown()
        server.server_close()
        thread.join()

    def test_informalize_exits_2_before_its_first_request(self, tmp_path, capsys, chat):
        backend, posts = chat
        workdir, config = theorems_workdir(tmp_path, "run", 2, backend)
        assert run(["informalize", "-c", config]) == 2
        assert capsys.readouterr().err == self.ERROR
        assert posts == []
        assert not (workdir / "informal.jsonl").exists()

    def test_prove_exits_2_before_it_makes_its_workdir(self, tmp_path, capsys, chat):
        backend, posts = chat
        fixture = build_pipeline_fixture(tmp_path / "fixture")
        workdir = tmp_path / "run"
        with open(pipeline_config(tmp_path, fixture, workdir), encoding="utf-8") as source:
            settings = yaml.safe_load(source)
        settings["backend"] = backend
        assert run(["prove", "-c", write_yaml(tmp_path / "chat.yaml", settings)]) == 2
        assert capsys.readouterr().err == self.ERROR
        assert posts == []
        assert not workdir.exists()


class TestInformalizeResumeUnderConcurrency:
    """A fault on any backend call, with four theorems in flight, leaves a
    checkpoint that is a prefix in record order, and ``--resume`` finishes
    the stage with the bytes of a run that never stopped."""

    RECORDS = 8

    @staticmethod
    def reply(request):
        _, _, name, attempt = request.request_id.split(":")
        if random.Random(f"resume:{request.request_id}").random() < 0.4:
            return "the " * 40
        return f"Statement: {name} holds. Proof: attempt {attempt} computes it."

    def informalize(self, monkeypatch, config, backend, *flags):
        monkeypatch.setattr(cli, "make_backend", lambda settings: backend)
        return run(["informalize", "-c", config, *flags])

    def workdir(self, tmp_path, name):
        return theorems_workdir(tmp_path, name, self.RECORDS)

    def test_fault_at_every_call_then_resume(self, tmp_path, monkeypatch):
        full_dir, full_config = self.workdir(tmp_path, "full")
        backend = support.KeyedBackend(self.reply, 0, concurrency=4)
        assert self.informalize(monkeypatch, full_config, backend) == 0
        calls = backend.calls
        assert calls > self.RECORDS  # some theorems take several attempts
        full_checkpoint = read_bytes(full_dir / "informalize.ckpt.jsonl")
        full_lines = full_checkpoint.splitlines(True)
        for fail_at in range(1, calls + 1):
            workdir, config = self.workdir(tmp_path, f"fault{fail_at}")
            faulty = support.KeyedBackend(self.reply, 0, 4, fail_at=fail_at)
            assert self.informalize(monkeypatch, config, faulty) == 1
            checkpoint = workdir / "informalize.ckpt.jsonl"
            kept = read_bytes(checkpoint)
            assert full_checkpoint.startswith(kept), fail_at
            assert len(kept.splitlines()) < self.RECORDS
            if fail_at % 2:  # the append of the next line was cut short
                torn = full_lines[len(kept.splitlines())][:20]
                checkpoint.write_bytes(kept + torn)
            backend = support.KeyedBackend(self.reply, 0, concurrency=4)
            assert self.informalize(monkeypatch, config, backend, "--resume") == 0
            for name in ("informal.jsonl", "informalize.ckpt.jsonl"):
                assert read_bytes(workdir / name) == read_bytes(full_dir / name), (
                    fail_at, name)


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
        artifacts.write_jsonl(str(workdir / "obt.jsonl"), seeded_obt_records())
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

    def prep_with_unlexable(self, tmp_path, capsys, field):
        """Run prep over a dataset whose last record's ``field`` holds an
        open comment, and check the error names the file, line, record and
        field."""
        config = self.make_workdir(tmp_path)
        path = tmp_path / "work" / "obt.jsonl"
        entry = obt_entry()
        broken = dict(entry, **{field: entry[field] + "/- open\n"})
        with open(path, "a", encoding="utf-8") as sink:
            sink.write(json.dumps(broken) + "\n")
        assert run(["prep", "-c", config]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}:4: {entry['Name']}: {field} does not "
            f"lex: unterminated block comment (offset {len(entry[field])})\n")
        assert not (tmp_path / "work" / "train.jsonl").exists()

    def test_record_that_does_not_lex_names_file_line_and_record(
            self, tmp_path, capsys):
        self.prep_with_unlexable(tmp_path, capsys, "Commented_proof")

    def test_record_whose_proof_does_not_lex_names_the_field(self, tmp_path, capsys):
        self.prep_with_unlexable(tmp_path, capsys, "Proof")

    def test_one_parser_per_process_parses_each_call_on_its_own(
            self, tmp_path, monkeypatch):
        built = []

        def build_parser():
            built.append(1)
            return parser()

        parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", build_parser)
        cli._parser.cache_clear()
        config = self.make_workdir(tmp_path)
        train = tmp_path / "work" / "train.jsonl"
        assert run(["prep", "-c", config, "--no-nl"]) == 0
        without_nl = read_jsonl(train)
        assert run(["prep", "-c", config]) == 0
        with_nl = read_jsonl(train)
        assert built == [1]
        assert not any(prompts.NL_SECTION in r["instruction"] for r in without_nl)
        assert all(prompts.NL_SECTION in r["instruction"] for r in with_nl)

    def test_memory_does_not_grow_with_the_packed_text(self, tmp_path):
        """Every ring takes all the other blocks, so the instructions
        written hold about 48 times the text of the dataset; prep keeps at
        most one of them alive at a time."""
        workdir = tmp_path / "work"
        workdir.mkdir()
        records = []
        for k in range(48):
            name = f"wide_{k}"
            body = "\n".join(f"  have h{j} : {k} + {j} = {j} + {k} := Nat.add_comm _ _"
                             for j in range(30))
            proof = f"theorem {name} : True := by\n{body}\n  trivial\n"
            nl = f"Statement: case {k} holds. Proof: " + "swap the sums. " * 40
            records.append(bootstrap_mod.ObtRecord(
                name=name, statement=f"theorem {name} : True :=", proof=proof,
                file_path="prep/wide.lean", commit="c0ffee",
                generated_informal_statement_and_proof=nl,
                commented_proof=bootstrap_mod.head_bootstrap(nl, proof)))
        artifacts.write_jsonl(str(workdir / "obt.jsonl"), records)
        config = write_yaml(tmp_path / "c.yaml", {"workdir": str(workdir)})
        tracemalloc.start()
        try:
            assert run(["prep", "-c", config, "--token-budget", "10000000"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = read_jsonl(workdir / "train.jsonl")
        assert [row["example_count"] for row in rows] == [47] * 48
        written = sum(len(row["instruction"]) for row in rows)
        assert peak < written / 4, (peak, written)

    def test_failed_write_keeps_previous_train_set(self, tmp_path, monkeypatch, capsys):
        config = self.make_workdir(tmp_path)
        assert run(["prep", "-c", config]) == 0
        workdir = tmp_path / "work"
        names = ("train.jsonl", "train_skips.jsonl")
        before = [read_bytes(workdir / name) for name in names]
        pack_block = trainprep.pack_block
        calls = []

        def fail_at_second_record(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                # the first record's line has gone to train.jsonl's temp file
                assert [n for n in os.listdir(workdir) if n.endswith(".tmp")]
                raise OSError("disk full")
            return pack_block(*args, **kwargs)

        monkeypatch.setattr(trainprep, "pack_block", fail_at_second_record)
        assert run(["prep", "-c", config]) == 1
        assert capsys.readouterr().err == "error: disk full\n"
        assert len(calls) == 2
        assert [read_bytes(workdir / name) for name in names] == before
        assert [n for n in os.listdir(workdir) if n.endswith(".tmp")] == []


# --- every record reader ------------------------------------------------------------


def jsonl(*entries):
    return "".join(json.dumps(e, ensure_ascii=False) + "\n" for e in entries)


def obt_entry():
    record = seeded_obt_records()[0]
    return {"Name": record.name, "Statement": record.statement, "Proof": record.proof,
            "File_path": record.file_path, "Commit": record.commit,
            "Generated_informal_statement_and_proof":
                record.generated_informal_statement_and_proof,
            "Commented_proof": record.commented_proof}


THEOREM_ENTRY = {"name": "foo", "statement": "theorem foo : 1 = 1 :=",
                 "proof": "theorem foo : 1 = 1 := rfl", "file_path": "A.lean",
                 "commit": "c", "difficulty": 1}
PROBLEM_ENTRY = {"name": "p", "fl_statement": "theorem p : 1 = 1 :="}
SEED_ENTRY = {"name": "s", "nl": "Statement: s. Proof: p.", "fl": "theorem s : 2 = 2 := rfl"}
HEADER_ENTRY = {"kind": "harness-report", "problems_total": 1, "rounds": []}


class Reader(NamedTuple):
    """A command and the workdir file it reads. The file holds ``before``,
    then the bad line; ``others`` are the other files the command needs,
    and ``settings`` the config, whose file names are in the workdir."""

    file: str
    argv: Tuple[str, ...]
    good: dict  # the entry the missing-key and wrong-type lines break
    missing: Optional[str]
    wrong: Optional[Tuple[str, object]]
    before: Tuple[dict, ...] = ()
    others: Tuple[Tuple[str, dict], ...] = ()
    settings: Tuple[Tuple[str, str, str], ...] = ()  # section, key, file
    invalid: Optional[Tuple[str, object, str]] = None  # key, value the record refuses, why


THEOREMS = (("theorems.jsonl", THEOREM_ENTRY),)
PROBLEMS = (("problems.jsonl", PROBLEM_ENTRY),)
# report checks that the attempt log exists before it reads the report
REPORT_INPUTS = (*PROBLEMS, ("prove.attempts.jsonl", {}))
PROVER = (("prover", "problems", "problems.jsonl"),
          ("prover", "seed_examples", "seeds.jsonl"))
READERS = {
    "corpus": Reader(
        "corpus.jsonl", ("extract",),
        {"source": "theorem a : 1 = 1 := rfl\n", "file_path": "A.lean"},
        "source", ("commit", 5), settings=(("corpus", "path", "corpus.jsonl"),)),
    "pairs": Reader(
        "pairs.jsonl", ("train-retriever",), {"nl": "a + b", "fl": "theorem a"},
        "fl", ("nl", 5), settings=(("retrieval", "pairs", "pairs.jsonl"),)),
    "pairs-second": Reader(
        "pairs.jsonl", ("train-retriever",), {"nl": "a + b", "fl": "theorem a"},
        "fl", ("nl", 5), before=({"nl": "b + a", "fl": "theorem b"},),
        settings=(("retrieval", "pairs", "pairs.jsonl"),)),
    "theorems": Reader(
        "theorems.jsonl", ("informalize",), THEOREM_ENTRY, "proof", ("commit", 5)),
    "pool": Reader(
        "pool.jsonl", ("informalize",), SEED_ENTRY, "fl", ("nl", ["x"]),
        # the head is checked to exist before the pool is read, and read after it
        others=(*THEOREMS, ("projection.json", {})),
        settings=(("retrieval", "examples", "pool.jsonl"),)),
    "checkpoint": Reader(
        "informalize.ckpt.jsonl", ("informalize", "--resume"),
        {"theorem_name": "foo", "nl_statement_and_proof": "", "examples_used": [],
         "attempts": 1, "verdict": "fail", "reasons": ["MISSING_SECTION"],
         "attempt_reasons": [["MISSING_SECTION"]]},
        "attempts", ("attempts", True), others=THEOREMS),
    "informal": Reader(
        "informal.jsonl", ("bootstrap", "--mode", "head"), INFORMAL_ENTRY,
        "Proof", ("Commit", 5)),
    "obt": Reader(
        "obt.jsonl", ("prep",), obt_entry(), "Commented_proof", ("Commented_proof", 5)),
    "problems": Reader(
        "problems.jsonl", ("prove",), PROBLEM_ENTRY, "fl_statement", ("fl_statement", 5),
        others=(("seeds.jsonl", SEED_ENTRY),), settings=PROVER),
    "seeds": Reader(
        "seeds.jsonl", ("prove",), SEED_ENTRY, "fl", ("fl", 5),
        others=PROBLEMS, settings=PROVER),
    "report-header": Reader(
        "report.jsonl", ("report",), HEADER_ENTRY, "problems_total",
        ("problems_total", True), others=REPORT_INPUTS, settings=PROVER),
    "report-proof": Reader(
        "report.jsonl", ("report",),
        {"name": "p", "round": 1, "sample_index": 0, "proof": "theorem p : 1 = 1 := rfl"},
        "name", ("sample_index", 0.5), before=(HEADER_ENTRY,), others=REPORT_INPUTS,
        settings=PROVER,
        invalid=("round", 0, "round must be >= 1 and sample_index >= 0")),
    "attempts": Reader(
        "prove.attempts.jsonl", ("report",),
        {"problem": "p", "round": 1, "sample_index": 0, "verdict": "rejected",
         "diagnostic": "no proof"},
        "verdict", ("round", "1"), others=(("report.jsonl", HEADER_ENTRY), *PROBLEMS),
        settings=PROVER,
        invalid=("sample_index", -1, "round must be >= 1 and sample_index >= 0")),
    "review": Reader(
        "obt.jsonl", ("sample", "--for-review", "-n", "1"), obt_entry(), None, None),
}


def bad_line(reader: Reader, case: str):
    """The line a case puts in the file, and the error it must give."""
    if case == "missing":
        entry = {k: v for k, v in reader.good.items() if k != reader.missing}
        return json.dumps(entry), f"entry has no {reader.missing!r} field"
    if case == "wrong":
        key, value = reader.wrong
        return json.dumps({**reader.good, key: value}), f"{key} is not "
    if case == "invalid":
        key, value, message = reader.invalid
        return json.dumps({**reader.good, key: value}), message
    return case, "entry is not an object"


class TestRecordReaders:
    """Every command that reads records rejects a line that is not an
    object, lacks a field, holds a wrong-typed value or one its record
    refuses: exit 1, an error naming the file and line, and no traceback."""

    @pytest.mark.parametrize("name, case", [
        (name, case) for name, reader in READERS.items()
        for case in ("5", "[]", '"x"', "missing", "wrong", "invalid")
        if case not in ("missing", "wrong") or reader.missing is not None
        if case != "invalid" or reader.invalid is not None
    ])
    def test_bad_line_exits_1_naming_path_and_line(self, tmp_path, capsys, name, case):
        reader = READERS[name]
        line, message = bad_line(reader, case)
        workdir = tmp_path / "work"
        workdir.mkdir()
        (workdir / reader.file).write_text(
            jsonl(*reader.before) + line + "\n", encoding="utf-8")
        for other, entry in reader.others:
            (workdir / other).write_text(jsonl(entry), encoding="utf-8")
        settings = {}
        for section, key, other in reader.settings:
            settings.setdefault(section, {})[key] = str(workdir / other)
        config = write_yaml(tmp_path / "c.yaml", {"workdir": str(workdir), **settings})

        assert run([*reader.argv, "-c", config]) == 1
        err = capsys.readouterr().err
        assert f"{reader.file}:{len(reader.before) + 1}: {message}" in err
        assert "Traceback" not in err


class TestNonObjectEntries:
    """A line that is JSON but not an object names its file and line."""

    NOT_OBJECTS = ["5", "[]", '"x"']

    def expect_error(self, capsys, argv, where):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert f"{where}: entry is not an object" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("line", NOT_OBJECTS)
    def test_informal_entry(self, tmp_path, capsys, line):
        workdir = tmp_path / "work"
        workdir.mkdir()
        (workdir / "informal.jsonl").write_text(
            json.dumps(INFORMAL_ENTRY) + "\n" + line + "\n", encoding="utf-8")
        config = write_yaml(tmp_path / "c.yaml", {
            "workdir": str(workdir), "bootstrap": {"mode": "head"}})
        self.expect_error(capsys, ["bootstrap", "-c", config], "informal.jsonl:2")
        assert not (workdir / "obt.jsonl").exists()

    @pytest.mark.parametrize("line", NOT_OBJECTS)
    def test_theorem_entry(self, tmp_path, capsys, line):
        workdir = tmp_path / "work"
        workdir.mkdir()
        record = corpus.TheoremRecord(
            "foo", "theorem foo : 1 = 1 :=", "theorem foo : 1 = 1 := rfl",
            "A.lean", "c", 1)
        (workdir / "theorems.jsonl").write_text(
            json.dumps(dataclasses.asdict(record)) + "\n" + line + "\n",
            encoding="utf-8")
        config = write_yaml(tmp_path / "c.yaml", {"workdir": str(workdir)})
        self.expect_error(capsys, ["informalize", "-c", config], "theorems.jsonl:2")

    @pytest.mark.parametrize("line", NOT_OBJECTS)
    def test_problem_entry(self, tmp_path, capsys, line):
        problems, seeds = tmp_path / "problems.jsonl", tmp_path / "seeds.jsonl"
        problems.write_text(json.dumps(
            {"name": "p", "fl_statement": "theorem p : 1 = 1 :="}) + "\n"
            + line + "\n", encoding="utf-8")
        seeds.write_text(json.dumps(
            {"name": "s", "nl": "Statement: s. Proof: p.",
             "fl": "theorem s : 2 = 2 := rfl"}) + "\n", encoding="utf-8")
        config = write_yaml(tmp_path / "c.yaml", {
            "workdir": str(tmp_path / "work"),
            "prover": {"problems": str(problems), "seed_examples": str(seeds)}})
        self.expect_error(capsys, ["prove", "-c", config], "problems.jsonl:2")

    @pytest.mark.parametrize("line", NOT_OBJECTS)
    @pytest.mark.parametrize("first", [True, False])
    def test_pair_entry(self, tmp_path, capsys, line, first):
        pair = json.dumps({"nl": "a + b", "fl": "theorem a"})
        pairs_path = tmp_path / "pairs.jsonl"
        pairs_path.write_text(
            "\n".join([line, pair] if first else [pair, line]) + "\n",
            encoding="utf-8")
        config = retriever_config(tmp_path, pairs_path)
        self.expect_error(capsys, ["train-retriever", "-c", config],
                          f"pairs.jsonl:{1 if first else 2}")



# --- files the config names ---------------------------------------------------------


class TestConfiguredFiles:
    """The mock script, the answer key and the projection head are checked
    whole when a command reads them: a bad one is an error naming the file
    (and the rule or key), with no traceback."""

    def workdir(self, tmp_path, **files):
        workdir = tmp_path / "work"
        workdir.mkdir()
        for name, entries in files.items():
            (workdir / f"{name}.jsonl").write_text(jsonl(*entries), encoding="utf-8")
        return workdir

    def expect(self, capsys, argv, code, message):
        assert run(argv) == code
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("rules, message", [
        ([5], "rule 0: entry is not an object"),
        ({"pattern": "x"}, "rules are not a list"),
        ([{"pattern": "a", "response": "r"}, {"pattern": 5, "response": "r"}],
         "rule 1: pattern is not a string"),
        ([{"pattern": "x", "responses": "abc"}],
         "rule 0: responses is not a list of strings"),
        ([{"pattern": "x", "responses": []}], "rule 0: responses is empty"),
        ([{"pattern": "x"}], "rule 0: needs one of 'response' and 'responses'"),
    ], ids=["not-an-object", "not-a-list", "pattern-not-a-string",
            "responses-a-string", "responses-empty", "no-response"])
    def test_bad_mock_script_exits_2(self, tmp_path, capsys, rules, message):
        workdir = self.workdir(tmp_path, theorems=[THEOREM_ENTRY])
        script = tmp_path / "script.json"
        script.write_text(json.dumps(rules), encoding="utf-8")
        config = write_yaml(tmp_path / "c.yaml", {
            "workdir": str(workdir), "backend": {"script": str(script)}})
        self.expect(capsys, ["informalize", "-c", config], 2,
                    f"config error: {script}: {message}")
        assert not (workdir / "informal.jsonl").exists()

    @pytest.mark.parametrize("command", ["prove", "report"])
    @pytest.mark.parametrize("key, message", [
        ([1, 2], "not an object of name -> proof"),
        ({"p": 5}, "proof of 'p' is not a string"),
        ({"p": '"unterminated'},
         "proof of 'p' does not lex: unterminated string literal (offset 0)"),
    ], ids=["not-an-object", "proof-not-a-string", "proof-does-not-lex"])
    def test_bad_answer_key_exits_2(self, tmp_path, capsys, command, key, message):
        workdir = self.workdir(tmp_path, problems=[PROBLEM_ENTRY],
                               seeds=[SEED_ENTRY], report=[HEADER_ENTRY])
        (workdir / "prove.attempts.jsonl").write_text("", encoding="utf-8")
        answer_key = tmp_path / "key.json"
        answer_key.write_text(json.dumps(key), encoding="utf-8")
        config = write_yaml(tmp_path / "c.yaml", {
            "workdir": str(workdir),
            "prover": {"problems": str(workdir / "problems.jsonl"),
                       "seed_examples": str(workdir / "seeds.jsonl"),
                       "answer_key": str(answer_key)}})
        self.expect(capsys, [command, "-c", config], 2,
                    f"config error: {answer_key}: {message}")

    @pytest.mark.parametrize("change, message", [
        (lambda head: head.pop("d_in"), "entry has no 'd_in' field"),
        (lambda head: head.update(weights=5), "weights is not a list of lists"),
        (lambda head: head["weights"][1].pop(), "weights are not 64 rows of 64 values"),
    ], ids=["no-d_in", "weights-not-a-list", "weights-ragged"])
    def test_bad_projection_head_names_the_file(self, tmp_path, capsys, change,
                                                 message):
        workdir = self.workdir(tmp_path, theorems=[THEOREM_ENTRY], pool=[SEED_ENTRY])
        path = workdir / "projection.json"
        retrieval.save_head(
            retrieval.ProjectionHead(np.eye(64), 64, 64, seed=0),
            str(path))
        head = json.loads(path.read_text(encoding="utf-8"))
        change(head)
        path.write_text(json.dumps(head), encoding="utf-8")
        config = write_yaml(tmp_path / "c.yaml", {
            "workdir": str(workdir),
            "retrieval": {"examples": str(workdir / "pool.jsonl")}})
        self.expect(capsys, ["informalize", "-c", config], 1,
                    f"error: {path}: {message}")


    def prover_config(self, tmp_path, problems, seeds, **sections):
        """A config naming problem and seed files that hold these entries,
        with the keys of ``sections`` added, and a workdir not yet made."""
        workdir = tmp_path / "work"
        paths = {}
        for name, entries in (("problems", problems), ("seeds", seeds)):
            paths[name] = tmp_path / f"{name}.jsonl"
            paths[name].write_text(jsonl(*entries), encoding="utf-8")
        settings = {"workdir": str(workdir),
                    "prover": {"problems": str(paths["problems"]),
                               "seed_examples": str(paths["seeds"])}}
        for section, keys in sections.items():
            settings.setdefault(section, {}).update(keys)
        return workdir, paths, write_yaml(tmp_path / "c.yaml", settings)

    @pytest.mark.parametrize("command", ["prove", "report"])
    def test_repeated_problem_name_rejected_as_prove_does(
            self, tmp_path, capsys, command):
        other = {"name": "q", "fl_statement": "theorem q : 2 = 2 :="}
        workdir, paths, config = self.prover_config(
            tmp_path, [PROBLEM_ENTRY, other, PROBLEM_ENTRY], [SEED_ENTRY])
        if command == "report":
            workdir = self.workdir(tmp_path, report=[HEADER_ENTRY])
            (workdir / "prove.attempts.jsonl").write_text("", encoding="utf-8")
        self.expect(capsys, [command, "-c", config], 1,
                    f"error: {paths['problems']}:3 (prover.problems): problem 'p' "
                    "repeats line 1")
        if command == "prove":
            assert not workdir.exists()

    def test_empty_seed_pool_names_the_file_and_creates_no_workdir(
            self, tmp_path, capsys):
        workdir, paths, config = self.prover_config(tmp_path, [PROBLEM_ENTRY], [])
        self.expect(capsys, ["prove", "-c", config], 1,
                    f"error: {paths['seeds']} (prover.seed_examples) holds 0: "
                    "seed pool must be nonempty")
        assert not workdir.exists()

    @pytest.mark.parametrize("section, key, content, message", [
        ("prover", "answer_key", [1, 2], "not an object of name -> proof"),
        ("backend", "script", [5], "rule 0: entry is not an object"),
    ], ids=["answer-key", "mock-script"])
    def test_bad_configured_file_creates_no_workdir(
            self, tmp_path, capsys, section, key, content, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(content), encoding="utf-8")
        workdir, _, config = self.prover_config(
            tmp_path, [PROBLEM_ENTRY], [SEED_ENTRY], **{section: {key: str(bad)}})
        self.expect(capsys, ["prove", "-c", config], 2,
                    f"config error: {bad}: {message}")
        assert not workdir.exists()

    def test_empty_example_pool_names_the_file_and_setting(self, tmp_path, capsys):
        workdir = self.workdir(tmp_path, theorems=[THEOREM_ENTRY], pool=[])
        retrieval.save_head(retrieval.ProjectionHead(np.eye(64), 64, 64, seed=0),
                            str(workdir / "projection.json"))
        config = write_yaml(tmp_path / "c.yaml", {
            "workdir": str(workdir),
            "retrieval": {"examples": str(workdir / "pool.jsonl")}})
        self.expect(capsys, ["informalize", "-c", config], 1,
                    f"error: {workdir / 'pool.jsonl'} (retrieval.examples) holds 0: "
                    "cannot index an empty corpus")
        assert not (workdir / "informal.jsonl").exists()

    def test_head_of_another_dimension_names_the_file_and_setting(
            self, tmp_path, capsys):
        workdir = self.workdir(tmp_path, theorems=[THEOREM_ENTRY], pool=[SEED_ENTRY])
        trained = write_yaml(tmp_path / "train.yaml", {
            "workdir": str(workdir),
            "retrieval": {"dimension": 16, "steps": 5,
                          "pairs": write_text_pairs(tmp_path / "pairs.jsonl")}})
        assert run(["train-retriever", "-c", trained]) == 0
        config = write_yaml(tmp_path / "c.yaml", {
            "workdir": str(workdir),
            "retrieval": {"dimension": 32, "examples": str(workdir / "pool.jsonl")}})
        self.expect(capsys, ["informalize", "-c", config], 1,
                    f"error: {workdir / 'projection.json'}: head takes vectors of "
                    f"16 values, but retrieval.dimension is 32")
        assert not (workdir / "informal.jsonl").exists()


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

    def test_negative_n_exits_1_naming_the_flag(self, tmp_path, capsys):
        dataset = sample_dataset(tmp_path, 10)
        config = self.config(tmp_path)
        out = tmp_path / "none.jsonl"
        assert run(["sample", "-c", config, "--dataset", dataset,
                    "-n", "-1", "--output", out]) == 1
        assert capsys.readouterr().err == (
            f"error: -n -1 must be between 0 and the 10 records of {dataset}\n")
        assert not out.exists()

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


    def test_a_last_line_without_its_newline_stays_a_line_of_its_own(self, tmp_path):
        dataset = tmp_path / "dataset.jsonl"
        dataset.write_bytes(b'{"Name": "a"}\n{"Name": "b"}')
        config = self.config(tmp_path)
        out = tmp_path / "all.jsonl"
        # seed 0 draws the unterminated last line first
        assert run(["sample", "-c", config, "--dataset", str(dataset), "-n", "2",
                    "--seed", "0", "--output", out]) == 0
        assert read_bytes(out) == b'{"Name": "b"}\n{"Name": "a"}\n'

    def test_crlf_line_ends_are_copied_as_they_are(self, tmp_path):
        dataset = tmp_path / "dataset.jsonl"
        lines = [b'{"Name": "record_%d"}\r\n' % i for i in range(5)]
        dataset.write_bytes(b"".join(lines))
        config = self.config(tmp_path)
        out = tmp_path / "all.jsonl"
        assert run(["sample", "-c", config, "--dataset", str(dataset), "-n", "5",
                    "--seed", "4", "--output", out]) == 0
        assert sorted(read_bytes(out).splitlines(keepends=True)) == lines


# --- the golden end-to-end fixture -------------------------------------------------


SQINEQ_PLAIN = support.strip_comments(listings.SQINEQ_COMMENTED)

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
    "prove.attempts.jsonl",
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

    def test_report_verifier_timeout_names_file_and_line(self, tmp_path, capsys):
        fixture = build_pipeline_fixture(tmp_path / "fixture")
        workdir = tmp_path / "run"
        config = pipeline_config(tmp_path, fixture, workdir)
        assert run(["prove", "-c", config]) == 0
        with open(config, encoding="utf-8") as source:
            settings = yaml.safe_load(source)
        settings["prover"].update(
            verifier="external", timeout_s=0.2,
            command=[sys.executable, "-c", "import time; time.sleep(5)"])
        slow = write_yaml(tmp_path / "slow.yaml", settings)
        capsys.readouterr()
        assert run(["report", "-c", slow]) == 1
        assert capsys.readouterr().err == (
            f"error: {workdir / 'report.jsonl'}:2: stored proof for demo_add_comm "
            "no longer verifies: verifier exceeded 0.2s on demo_add_comm\n")

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


def tamper_round(index, **values):
    """A change to one round of the header, after the header and the log."""
    return lambda header, log: header["rounds"][index].update(values)


ACCOUNT_CASES = {
    "problems_total": (lambda header, log: header.update(problems_total=3),
                       "report.jsonl: problems_total is 3, but there are 2 problems"),
    "round": (tamper_round(0, round=5),
              "report.jsonl: round 1: round is 5, but the attempt log gives 1"),
    "newly_proved": (tamper_round(0, newly_proved=1),
                     "report.jsonl: round 1: newly_proved is 1, but the attempt log "
                     "gives 2"),
    "cumulative_proved": (tamper_round(1, cumulative_proved=3),
                          "report.jsonl: round 2: cumulative_proved is 3, but the "
                          "attempt log gives 2"),
    "cumulative_rate": (tamper_round(0, cumulative_rate=0.5),
                        "report.jsonl: round 1: cumulative_rate is 0.5, but the "
                        "attempt log gives 1.0"),
    "budget_used": (tamper_round(1, budget_used=999),
                    "report.jsonl: round 2: budget_used is 999, but the attempt log "
                    "gives 2"),
    # a header claiming more than the run proved
    "999-of-1000": (lambda header, log: (
        header.update(problems_total=1000),
        header["rounds"][-1].update(cumulative_proved=999, cumulative_rate=9.99)),
        "report.jsonl: problems_total is 1000, but there are 2 problems"),
    "idle-round-before-the-last": (
        lambda header, log: header["rounds"].append(dict(header["rounds"][-1], round=3)),
        "report.jsonl: round 2: newly_proved is 0, so no round can follow it"),
    "dropped-attempt": (lambda header, log: log.pop(),
                        "report.jsonl: round 1: newly_proved is 2, but the attempt log "
                        "gives 1"),
    "added-attempt": (
        lambda header, log: log.append(dict(log[1], sample_index=1, verdict="rejected")),
        "report.jsonl: round 1: budget_used is 2, but the attempt log gives 3"),
    "altered-attempt": (lambda header, log: log[0].update(sample_index=1),
                        "report.jsonl: round 1: sample_index 0 of demo_add_comm is not "
                        "a verified sample in "),
    "attempt-in-a-round-the-header-lacks": (
        lambda header, log: log.append(dict(log[0], round=3, verdict="rejected")),
        "prove.attempts.jsonl: demo_add_comm has a sample in round 3, which the "
        "header of "),
}


class TestReportAccount:
    """``report`` accepts a report only as an account of the attempt log.
    The pipeline fixture's ``prove`` proves both problems in round 1; round
    2 has no open problem, so it draws no sample and ends the run."""

    def prove(self, tmp_path):
        fixture = build_pipeline_fixture(tmp_path / "fixture")
        workdir = tmp_path / "run"
        config = pipeline_config(tmp_path, fixture, workdir)
        assert run(["prove", "-c", config]) == 0
        return workdir, config

    def test_untampered_run_with_an_empty_last_round_passes(self, tmp_path, capsys):
        workdir, config = self.prove(tmp_path)
        header = read_jsonl(workdir / "report.jsonl")[0]
        log = read_jsonl(workdir / "prove.attempts.jsonl")
        assert len(header["rounds"]) == 2
        assert {a["round"] for a in log} == {1}
        capsys.readouterr()
        assert run(["report", "-c", config]) == 0
        assert "proved 2/2 (100.0%)" in capsys.readouterr().out

    @pytest.mark.parametrize("case", ACCOUNT_CASES)
    def test_tampered_copy_exits_1_naming_the_field(self, tmp_path, capsys, case):
        change, message = ACCOUNT_CASES[case]
        workdir, config = self.prove(tmp_path)
        report, attempts = workdir / "report.jsonl", workdir / "prove.attempts.jsonl"
        first, *proofs = report.read_text(encoding="utf-8").splitlines(True)
        header, log = json.loads(first), read_jsonl(attempts)
        change(header, log)
        report.write_text(json.dumps(header) + "\n" + "".join(proofs), encoding="utf-8")
        attempts.write_text(jsonl(*log), encoding="utf-8")
        capsys.readouterr()
        assert run(["report", "-c", config]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert err.startswith(f"error: {workdir}")

    def test_missing_attempt_log_names_prove(self, tmp_path, capsys):
        workdir, config = self.prove(tmp_path)
        os.remove(workdir / "prove.attempts.jsonl")
        capsys.readouterr()
        assert run(["report", "-c", config]) == 1
        assert capsys.readouterr().err == (
            f"error: expected file {workdir / 'prove.attempts.jsonl'} is missing; "
            "run `leanforge prove` first\n")


def test_prove_drops_a_reply_no_file_can_hold(tmp_path, caplog):
    # The script's JSON escapes half of a UTF-16 pair in a comment of an
    # otherwise correct proof. The decoded text cannot be written as UTF-8,
    # so the reply is refused as malformed, and the problem is asked again
    # in round 2.
    fixture = build_pipeline_fixture(tmp_path / "fixture")
    broken = DEMO_PROBLEM_A.replace(":= by\n", ":= by\n  -- half a pair: \ud800\n")
    rules = json.loads(fixture["script"].read_text(encoding="utf-8"))
    for rule in rules:
        if rule["pattern"] == "demo_add_comm":
            rule["responses"] = [broken, DEMO_PROBLEM_A]
            del rule["response"]
    fixture["script"].write_text(json.dumps(rules), encoding="utf-8")
    workdir = tmp_path / "run"
    config = pipeline_config(tmp_path, fixture, workdir)
    assert run(["prove", "-c", config]) == 0
    assert "sample 0 holds a lone surrogate" in caplog.text
    assert [(a["problem"], a["round"], a["sample_index"], a["verdict"])
            for a in read_jsonl(workdir / "prove.attempts.jsonl")] == [
        ("demo_sub_self", 1, 0, "verified"), ("demo_add_comm", 2, 0, "verified")]
    assert run(["report", "-c", config]) == 0


class TestReadSet:
    """Each command reads the files README's command table lists, and no
    others. Every JSON read in leanforge goes through ``artifacts``."""

    def test_each_command_reads_what_readme_lists(self, tmp_path, monkeypatch):
        fixture = build_pipeline_fixture(tmp_path / "fixture")
        workdir = tmp_path / "run"
        config = pipeline_config(tmp_path, fixture, workdir)
        read = set()
        for name in ("read_jsonl", "read_json"):
            def recording(path, _real=getattr(artifacts, name)):
                read.add(str(path))
                return _real(path)

            monkeypatch.setattr(artifacts, name, recording)

        def reads(argv):
            read.clear()
            assert run(argv) == 0, argv
            return read.copy()

        def work(*names):
            return {str(workdir / name) for name in names}

        def inputs(*keys):
            return {str(fixture[key]) for key in keys}

        assert reads(["extract", "-c", config]) == set()
        assert reads(["train-retriever", "-c", config]) == inputs("pairs")
        assert reads(["informalize", "-c", config]) == \
            work("theorems.jsonl", "projection.json") | inputs("pool", "script")
        assert reads(["informalize", "-c", config, "--resume"]) == work(
            "theorems.jsonl", "projection.json", "informalize.ckpt.jsonl") | inputs(
            "pool", "script")
        assert reads(["bootstrap", "-c", config]) == work("informal.jsonl")
        assert reads(["prep", "-c", config]) == work("obt.jsonl")
        assert reads(["prove", "-c", config]) == \
            inputs("problems", "seeds", "script", "answer_key")
        assert reads(["report", "-c", config]) == \
            work("report.jsonl", "prove.attempts.jsonl") | inputs("problems", "answer_key")
        assert reads(["sample", "-c", config, "-n", "3"]) == work("obt.jsonl")


class TestProveConcurrency:
    """``informalize`` and ``bootstrap`` keep their backend's ``concurrency``
    units in flight: two per chat connection, one for a mock. Against a chat
    backend ``prove`` keeps one more problem in flight per checker the
    verifier runs at once, each on its own thread; against a mock it runs
    one problem at a time."""

    def units_in_flight(self, monkeypatch, argv):
        seen = []

        def recording(units, work, sampler, **options):
            seen.append((sampler.backend.concurrency, options))
            raise OSError("stopped before any request")

        for module in (genclient, bootstrap_mod):
            monkeypatch.setattr(module, "in_order", recording)
        assert run(argv) == 1
        return seen

    def chat_config(self, tmp_path, config, max_in_flight=3):
        with open(config, encoding="utf-8") as source:
            settings = yaml.safe_load(source)
        settings["backend"] = {"kind": "chat", "endpoint": "http://127.0.0.1:9/v1",
                               "model": "m", "max_in_flight": max_in_flight}
        return write_yaml(tmp_path / "chat.yaml", settings)

    def problems_in_flight(self, monkeypatch, config):
        """The most problems ``prove`` had in flight at once, and the threads
        they ran on. No problem asks the backend or proves anything."""
        lock = threading.Lock()
        running, peak, threads = [0], [0], set()

        def drawing(problem, round_number, ask, verifier, n_samples, rejected):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
                threads.add(threading.get_ident())
            time.sleep(0.1)
            with lock:
                running[0] -= 1
            return []

        monkeypatch.setattr(prover, "_prove_problem", drawing)
        assert run(["prove", "-c", config]) == 0
        return peak[0], threads

    def five_problem_config(self, tmp_path):
        fixture = build_pipeline_fixture(tmp_path / "fixture")
        with open(fixture["problems"], "a", encoding="utf-8") as problems:
            for i in range(3):
                problems.write(json.dumps({
                    "name": f"demo_true_{i}",
                    "fl_statement": f"theorem demo_true_{i} : True :="}) + "\n")
        return pipeline_config(tmp_path, fixture, tmp_path / "run")

    def test_mock_backend_runs_one_problem_at_a_time(self, tmp_path, monkeypatch):
        config = self.five_problem_config(tmp_path)
        peak, threads = self.problems_in_flight(monkeypatch, config)
        assert (peak, threads) == (1, {threading.get_ident()})

    def test_chat_prove_keeps_a_problem_more_per_checker(self, tmp_path, monkeypatch):
        config = self.five_problem_config(tmp_path)
        # one connection keeps two units in flight and the mock verifier
        # counts as one checker; the round has five problems
        chat = self.chat_config(tmp_path, config, max_in_flight=1)
        peak, threads = self.problems_in_flight(monkeypatch, chat)
        assert peak == len(threads) == 3

    def test_informalize_and_bootstrap_follow_the_backend(
            self, tmp_path, monkeypatch):
        fixture = build_pipeline_fixture(tmp_path / "fixture")
        config = pipeline_config(tmp_path, fixture, tmp_path / "run")
        for stage in ("extract", "train-retriever", "informalize"):
            assert run([stage, "-c", config]) == 0
        chat = self.chat_config(tmp_path, config)
        for path, expected in ((config, [(1, {})]), (chat, [(6, {})])):
            assert self.units_in_flight(
                monkeypatch, ["informalize", "-c", path]) == expected
            assert self.units_in_flight(
                monkeypatch,
                ["bootstrap", "-c", path, "--mode", "interleaved"]) == expected

    def test_a_capped_prove_writes_what_a_serial_one_writes(self, tmp_path, monkeypatch):
        # the round would draw 4 samples for each of 5 problems, but the
        # budget admits 10 requests. Every third call, counted over all
        # problems, gets the script's reply and the rest get none, so
        # problems that ran side by side would verify at other samples.
        config = self.five_problem_config(tmp_path)
        with open(config, encoding="utf-8") as source:
            settings = yaml.safe_load(source)
        settings["backend"]["budget"] = {"max_requests": 10}
        script = cli.make_backend(config_mod.load_config(config).backend)
        written = []
        for concurrency in (1, 3):
            workdir = tmp_path / f"capped{concurrency}"
            settings["workdir"] = str(workdir)
            capped = write_yaml(tmp_path / f"capped{concurrency}.yaml", settings)
            calls = itertools.count()

            def reply(request):
                call = next(calls)
                if call % 3 < 2:
                    return "no proof here"
                return f"{script.generate(request)[0][0]}\n-- reply {call}\n"

            monkeypatch.setattr(cli, "make_backend",
                                lambda _: support.KeyedBackend(reply, 0, concurrency))
            assert run(["prove", "-c", capped]) == 0
            written.append([read_bytes(workdir / name)
                            for name in ("report.jsonl", "prove.attempts.jsonl")])
        assert written[0] == written[1]
        attempts = read_jsonl(tmp_path / "capped3" / "prove.attempts.jsonl")
        assert [(a["problem"], a["sample_index"], a["verdict"]) for a in attempts] == [
            ("demo_add_comm", 0, "rejected"), ("demo_add_comm", 1, "rejected"),
            ("demo_add_comm", 2, "verified"), ("demo_sub_self", 0, "rejected"),
            ("demo_sub_self", 1, "rejected"), ("demo_sub_self", 2, "verified"),
        ] + [("demo_true_0", i, "rejected") for i in range(4)]

    def test_attempt_log_has_one_line_per_sample(self, tmp_path):
        fixture = build_pipeline_fixture(tmp_path / "fixture")
        workdir = tmp_path / "run"
        config = pipeline_config(tmp_path, fixture, workdir)
        assert run(["prove", "-c", config]) == 0
        header = read_jsonl(workdir / "report.jsonl")[0]
        lines = read_jsonl(workdir / "prove.attempts.jsonl")
        assert len(lines) == header["rounds"][-1]["budget_used"]
        assert [(a["problem"], a["round"], a["sample_index"], a["verdict"])
                for a in lines] == [("demo_add_comm", 1, 0, "verified"),
                                    ("demo_sub_self", 1, 0, "verified")]


# --- lexing budget per stage -------------------------------------------------------


class TestLexBudget:
    """No stage calls ``lex_lean``, not even for a block comment nested
    deeper than the scans follow: the one token walk follows it in place.
    Extraction walks its file's tokens without building any; verification,
    the location of a divergence, the prover's screen and step counts take
    code texts. Every binding of ``corpus.lex_lean`` inside leanforge is
    wrapped, so no lex goes uncounted."""

    def count_lexes(self, monkeypatch):
        lexed = []
        lex_lean = corpus.lex_lean

        def counting(source):
            lexed.append(len(source))
            return lex_lean(source)

        for name, module in list(sys.modules.items()):
            if name == "leanforge" or name.startswith("leanforge."):
                for attr, value in list(vars(module).items()):
                    if value is lex_lean:
                        monkeypatch.setattr(module, attr, counting)
        return lexed

    def count_replies(self, monkeypatch):
        replies = []
        generate = genclient.MockBackend.generate

        def counting(backend, request):
            replies.append(request.request_id)
            return generate(backend, request)

        monkeypatch.setattr(genclient.MockBackend, "generate", counting)
        return replies

    def test_each_stage_stays_within_its_lex_budget(self, tmp_path, monkeypatch):
        fixture = build_pipeline_fixture(tmp_path / "fixture")
        workdir = tmp_path / "run"
        config = pipeline_config(tmp_path, fixture, workdir)
        lexed = self.count_lexes(monkeypatch)
        replies = self.count_replies(monkeypatch)

        def lexes(argv):
            del lexed[:], replies[:]
            assert run(argv) == 0, argv
            return len(lexed)

        # extract: no file
        assert lexes(["extract", "-c", config]) == 0
        assert run(["train-retriever", "-c", config]) == 0
        assert run(["informalize", "-c", config]) == 0

        # bootstrap, interleaved: one reply per theorem plus one rejected
        # reply that is asked again; its divergence lies past a comment
        # nested as deep as the scans follow
        theorems = read_jsonl(workdir / "theorems.jsonl")
        first = theorems[0]
        rejected = support.nested_comment(corpus._SCAN_NESTING) + first["proof"].replace(
            first["name"], first["name"] + "_x", 1)
        rules = [{"pattern": first["name"],
                  "responses": [rejected, first["proof"] + "\n  -- checked"]}]
        rules += [{"pattern": t["name"], "response": t["proof"] + "\n  -- checked"}
                  for t in theorems[1:]]
        script = tmp_path / "bootstrap-script.json"
        script.write_text(json.dumps(rules, ensure_ascii=False), encoding="utf-8")
        with open(config, encoding="utf-8") as source:
            settings = yaml.safe_load(source)
        settings["backend"]["script"] = str(script)
        settings["bootstrap"]["mode"] = "interleaved"
        interleaved = write_yaml(tmp_path / "interleaved.yaml", settings)

        bootstrap_lexes = lexes(["bootstrap", "-c", interleaved])
        obt = read_jsonl(workdir / "obt.jsonl")
        assert len(obt) == len(theorems) == len(CORPUS_NAMES)
        assert all(e["Commented_proof"].endswith("-- checked") for e in obt)
        assert len(replies) == len(obt) + 1
        # neither a proof nor a reply is lexed, the rejected one included
        assert bootstrap_lexes == 0

        # prep: every record verifies, so nothing is lexed
        assert lexes(["prep", "-c", config]) == 0

    def test_prove_lexes_only_what_the_mock_verifier_rejects(
            self, tmp_path, monkeypatch):
        fixture = build_pipeline_fixture(tmp_path / "fixture")
        workdir = tmp_path / "run"
        placeholder = DEMO_PROBLEM_A.replace("simpa using Nat.add_comm n 37", "sorry")
        wrong = DEMO_PROBLEM_A.replace("simpa", "simp")
        with open(fixture["script"], encoding="utf-8") as source:
            rules = json.load(source)
        for rule in rules:
            if rule["pattern"] == "demo_add_comm":
                rule.pop("response")
                rule["responses"] = [placeholder, wrong, DEMO_PROBLEM_A]
        fixture["script"].write_text(json.dumps(rules, ensure_ascii=False),
                                     encoding="utf-8")
        config = pipeline_config(tmp_path, fixture, workdir)
        lexed = self.count_lexes(monkeypatch)

        # no sample costs a lex: not one screened out, not one verified,
        # and not the one the mock verifier rejects, whose divergence is
        # located from code texts
        assert run(["prove", "-c", config]) == 0
        assert [(a["problem"], a["verdict"], a["diagnostic"])
                for a in read_jsonl(workdir / "prove.attempts.jsonl")] == [
            ("demo_add_comm", "rejected", "pre-verification screen: sorry"),
            ("demo_add_comm", "rejected",
             "token 15: expected 'simpa', got 'simp' at offset 56"),
            ("demo_add_comm", "verified", ""),
            ("demo_sub_self", "verified", ""),
        ]
        assert lexed == []

        # report: every stored proof verifies, so nothing is lexed
        del lexed[:]
        assert run(["report", "-c", config]) == 0
        assert lexed == []

    def test_a_comment_nested_deeper_than_the_scans_costs_no_lex(
            self, tmp_path, monkeypatch):
        fixture = build_pipeline_fixture(tmp_path / "fixture")
        workdir = tmp_path / "run"
        config = pipeline_config(tmp_path, fixture, workdir)
        for stage in ("extract", "train-retriever", "informalize"):
            assert run([stage, "-c", config]) == 0

        # every bootstrap reply and every prove sample holds a comment
        # nested one level deeper than the scans follow
        deep = support.nested_comment(corpus._SCAN_NESTING + 1)
        theorems = read_jsonl(workdir / "theorems.jsonl")
        rules = [{"pattern": t["name"], "response": deep + t["proof"]}
                 for t in theorems]
        rules += [{"pattern": name,
                   "response": sample.replace("by\n  ", "by\n  " + deep)}
                  for name, sample in (("demo_add_comm", DEMO_PROBLEM_A),
                                       ("demo_sub_self", DEMO_PROBLEM_B))]
        script = tmp_path / "deep-script.json"
        script.write_text(json.dumps(rules, ensure_ascii=False), encoding="utf-8")
        with open(config, encoding="utf-8") as source:
            settings = yaml.safe_load(source)
        settings["backend"]["script"] = str(script)
        settings["bootstrap"]["mode"] = "interleaved"
        deep_config = write_yaml(tmp_path / "deep.yaml", settings)
        lexed = self.count_lexes(monkeypatch)

        assert run(["bootstrap", "-c", deep_config]) == 0
        obt = read_jsonl(workdir / "obt.jsonl")
        assert [e["Commented_proof"] for e in obt] == [
            deep + t["proof"] for t in theorems]
        assert run(["prep", "-c", deep_config]) == 0
        assert run(["prove", "-c", deep_config]) == 0
        assert [(a["problem"], a["verdict"])
                for a in read_jsonl(workdir / "prove.attempts.jsonl")] == [
            ("demo_add_comm", "verified"), ("demo_sub_self", "verified")]
        assert lexed == []
