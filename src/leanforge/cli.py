"""Command-line entry points for the pipeline stages.

Each subcommand runs one stage against a shared config file and the fixed
artifact names inside the working directory, so stages compose by pointing
at the same workdir. Config validation happens before any output is
touched; a validation failure exits 2, runtime failures exit 1.
"""

import argparse
import dataclasses
import os
import random
import sys
from typing import List, Optional, Sequence, Tuple

from . import artifacts
from . import bootstrap as bootstrap_mod
from . import corpus, genclient, informalize, prover, retrieval, trainprep
from .config import (
    ConfigError,
    PipelineConfig,
    fork_seed,
    load_config,
    make_backend,
    make_budget,
    make_retry,
    make_tokenizer,
    make_verifier,
    stage_path,
)


class MissingArtifact(FileNotFoundError):
    """An upstream stage output this command depends on does not exist."""

    def __init__(self, path: str, producer: str):
        super().__init__(
            f"expected file {path} is missing; run `leanforge {producer}` first")


def _require(path: str, producer: str) -> str:
    if not os.path.exists(path):
        raise MissingArtifact(path, producer)
    return path


# --- extract ---------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _SourceFile:
    """One entry of a JSONL corpus."""

    source: str
    file_path: str
    commit: Optional[str] = None


def _iter_corpus_sources(config: PipelineConfig):
    """Yield (source_text, file_path, commit) for every input file.

    The corpus path is either a directory tree of .lean files or a JSONL
    file whose entries carry source/file_path and optionally commit.
    """
    root = config.corpus.path
    if os.path.isdir(root):
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for filename in sorted(filenames):
                if not filename.endswith(".lean"):
                    continue
                full = os.path.join(dirpath, filename)
                relative = os.path.relpath(full, root)
                with open(full, "r", encoding="utf-8") as source:
                    yield source.read(), relative, config.corpus.commit
    else:
        _require(root, "extract with a corpus directory, or create the file")
        for entry in artifacts.read_records(root, _SourceFile):
            yield (entry.source, entry.file_path,
                   config.corpus.commit if entry.commit is None else entry.commit)


def cmd_extract(args, config: PipelineConfig) -> int:
    if not config.corpus.path:
        raise ConfigError(["corpus.path: required for extract"])
    os.makedirs(config.workdir, exist_ok=True)
    records: List[corpus.TheoremRecord] = []
    skips: List[dict] = []
    files = 0
    for source, file_path, commit in _iter_corpus_sources(config):
        files += 1
        try:
            records.extend(corpus.extract_theorems(source, file_path, commit))
        except corpus.LexError as exc:
            skips.append({"file": file_path, "reason": str(exc)})
    artifacts.write_jsonl(stage_path(config, "theorems"), records)
    artifacts.write_jsonl(stage_path(config, "extract_skips"), skips)
    print(f"extracted {len(records)} theorems from {files} files "
          f"({len(skips)} files skipped)")
    return 0


# --- train-retriever -------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _TextPair:
    nl: str
    fl: str


@dataclasses.dataclass(frozen=True)
class _VectorPair:
    nl_vector: Tuple[float, ...]
    fl_vector: Tuple[float, ...]


def _load_pairs(path: str, dimension: int):
    """Pair file entries hold either nl/fl texts or nl_vector/fl_vector
    vectors of ``dimension`` floats; the first entry sets the format for
    the whole file."""
    lines = artifacts.read_jsonl(path)
    text = bool(lines) and isinstance(lines[0].entry, dict) and "nl" in lines[0].entry
    pairs = [artifacts.as_record(path, line, _TextPair if text else _VectorPair)
             for line in lines]
    if text:
        embedder = retrieval.HashEmbedder(dimension)
        nl_vectors = embedder.embed([pair.nl for pair in pairs])
        fl_vectors = embedder.embed([pair.fl for pair in pairs])
        return list(zip(nl_vectors, fl_vectors))

    def vector(lineno: int, key: str, values):
        values = retrieval.embedding([float(x) for x in values])
        if values.shape[0] != dimension:
            raise ValueError(f"{path}:{lineno}: {key} has {values.shape[0]} values, "
                             f"expected retrieval.dimension {dimension}")
        return values

    return [(vector(line.lineno, "nl_vector", pair.nl_vector),
             vector(line.lineno, "fl_vector", pair.fl_vector))
            for line, pair in zip(lines, pairs)]


def cmd_train_retriever(args, config: PipelineConfig) -> int:
    r = config.retrieval
    if not r.pairs:
        raise ConfigError(["retrieval.pairs: required for train-retriever"])
    _require(r.pairs, "extract, then build a pair file")
    os.makedirs(config.workdir, exist_ok=True)
    pairs = _load_pairs(r.pairs, r.dimension)
    train_config = retrieval.TrainConfig(
        lr=r.lr,
        steps=args.steps if args.steps is not None else r.steps,
        batch_size=r.batch_size,
        seed=fork_seed(config.seed, "train-retriever"),
        d_out=r.projection_dim,
    )
    head, trace = retrieval.train_projection(pairs, train_config)
    retrieval.save_head(head, stage_path(config, "projection"))
    artifacts.write_text(stage_path(config, "loss_trace"), "step,loss\n" + "".join(
        f"{step},{loss:.10f}\n" for step, loss in enumerate(trace, start=1)))
    nl_vectors = [p[0] for p in pairs]
    fl_vectors = [p[1] for p in pairs]
    edges, counts, _ = retrieval.similarity_histogram(nl_vectors, fl_vectors, head)
    retrieval.write_histogram_csv(stage_path(config, "histogram"), edges, counts)
    final = trace[-1] if trace else float("nan")
    print(f"trained on {len(pairs)} pairs for {train_config.steps} steps, "
          f"final loss {final:.6f}")
    return 0


# --- the paid stages --------------------------------------------------------------


def _sampler(config: PipelineConfig, max_new_tokens: int) -> genclient.Sampler:
    """How a paid stage asks the model, with the ``backend`` section's
    retry policy, budget and temperature."""
    b = config.backend
    return genclient.Sampler(
        make_backend(b), make_retry(b.retry, fork_seed(config.seed, "retry")),
        make_budget(b.budget), max_new_tokens, b.temperature)


# --- informalize -----------------------------------------------------------------


def cmd_informalize(args, config: PipelineConfig) -> int:
    records = artifacts.read_records(
        _require(stage_path(config, "theorems"), "extract"), corpus.TheoremRecord)
    pool: Sequence[prover.PoolExample] = ()
    index = None
    embedder = None
    if config.retrieval.examples:
        _require(config.retrieval.examples, "informalize with a pool file")
        pool = artifacts.read_records(config.retrieval.examples, prover.PoolExample)
        head = retrieval.load_head(
            _require(stage_path(config, "projection"), "train-retriever"))
        embedder = retrieval.HashEmbedder(config.retrieval.dimension)
        index = informalize.build_example_index(
            pool, embedder, head, side=config.retrieval.side)
    os.makedirs(config.workdir, exist_ok=True)
    i = config.informalize
    sampler = _sampler(config, config.backend.max_new_tokens)
    stage = informalize.InformalizeConfig(
        limits=informalize.QualityLimits(
            max_tokens=i.max_tokens,
            repetition_ngram=i.repetition_ngram,
            repetition_ratio_max=i.repetition_ratio_max,
        ),
        max_attempts=(args.max_attempts if args.max_attempts is not None
                      else i.max_attempts),
        k_examples=i.k_examples,
        pool=pool,
        index=index,
        embedder=embedder,
        checkpoint_path=stage_path(config, "informal_checkpoint"),
        restart=not args.resume,
    )
    results = informalize.informalize_corpus(records, sampler, stage)
    informalize.save_informal_dataset(
        records, results, stage_path(config, "informal"))
    passed = sum(1 for r in results if r.verdict == "pass")
    print(f"informalized {passed}/{len(results)} theorems "
          f"({len(results) - passed} failed screening)")
    return 0


# --- bootstrap -------------------------------------------------------------------


def cmd_bootstrap(args, config: PipelineConfig) -> int:
    entries = artifacts.read_records(
        _require(stage_path(config, "informal"), "informalize"),
        bootstrap_mod.InformalRecord)
    mode_name = args.mode or config.bootstrap.mode
    mode = bootstrap_mod.BootstrapMode[mode_name.upper()]
    sampler = None
    if mode is bootstrap_mod.BootstrapMode.INTERLEAVED:
        sampler = _sampler(config, config.backend.max_new_tokens)
    obt_records, stats = bootstrap_mod.bootstrap_corpus(
        entries, sampler, mode, config.bootstrap.max_attempts)
    artifacts.write_jsonl(stage_path(config, "obt"), obt_records)
    print(f"bootstrapped {stats.emitted}/{stats.total} records "
          f"({stats.informal_failures} informal failures, "
          f"{stats.verification_fallbacks} verification fallbacks, "
          f"{stats.backend_fallbacks} backend fallbacks)")
    return 0


# --- prep ------------------------------------------------------------------------


def cmd_prep(args, config: PipelineConfig) -> int:
    obt_records = bootstrap_mod.load_obt_dataset(
        _require(stage_path(config, "obt"), "bootstrap"))
    p = config.prep
    stage = trainprep.PrepConfig(
        context_budget=(args.token_budget if args.token_budget is not None
                        else p.token_budget),
        tokenizer=make_tokenizer(p),
        use_nl=p.use_nl and not args.no_nl,
        use_bootstrapped=p.use_bootstrapped and not args.no_bootstrapped,
        use_block=p.use_block and not args.no_block,
        use_curriculum=p.use_curriculum and not args.no_curriculum,
        examples_use_bootstrapped=p.examples_use_bootstrapped,
    )
    packed, skipped = trainprep.emit_training_set(obt_records, stage)
    artifacts.write_jsonl(stage_path(config, "train"), packed)
    artifacts.write_jsonl(stage_path(config, "train_skips"), skipped)
    print(f"packed {len(packed)} training records ({len(skipped)} skipped)")
    return 0


# --- prove / report --------------------------------------------------------------


def cmd_prove(args, config: PipelineConfig) -> int:
    v = config.prover
    if not v.problems:
        raise ConfigError(["prover.problems: required for prove"])
    if not v.seed_examples:
        raise ConfigError(["prover.seed_examples: required for prove"])
    problems = artifacts.read_records(
        _require(v.problems, "prove with a problem file"), prover.Problem)
    seed_pool = artifacts.read_records(
        _require(v.seed_examples, "prove with a seed example file"), prover.PoolExample)
    os.makedirs(config.workdir, exist_ok=True)
    stage = prover.HarnessConfig(
        n_samples=(args.n_samples if args.n_samples is not None
                   else v.n_samples),
        max_rounds=(args.max_rounds if args.max_rounds is not None
                    else v.max_rounds),
        k_range=(v.k_min, v.k_max),
        token_budget=v.token_budget,
        tokenizer=make_tokenizer(config.prep),
    )
    report = prover.run_iterative(
        problems, seed_pool, _sampler(config, v.max_new_tokens),
        make_verifier(v), stage)
    prover.save_report(report, stage_path(config, "report"))
    artifacts.write_jsonl(stage_path(config, "attempts"), report.attempts)
    print(prover.format_report_table(report))
    return 0


def cmd_report(args, config: PipelineConfig) -> int:
    v = config.prover
    if not v.problems:
        raise ConfigError(["prover.problems: required for report"])
    problems = artifacts.read_records(
        _require(v.problems, "prove with a problem file"), prover.Problem)
    report = prover.load_report(
        _require(stage_path(config, "report"), "prove"),
        problems,
        make_verifier(v),
    )
    print(prover.format_report_table(report))
    return 0


# --- sample ----------------------------------------------------------------------

_NL_KEYS = ("Generated_informal_statement_and_proof",
            "nl_statement_and_proof", "nl", "instruction")
_FL_KEYS = ("Commented_proof", "proof", "Proof", "fl", "target")
_NAME_KEYS = ("Name", "name", "theorem_name")


def _pick(entry: dict, keys) -> str:
    for key in keys:
        if key in entry:
            return str(entry[key])
    return ""


def _review_block(entry: dict) -> str:
    return (f"=== {_pick(entry, _NAME_KEYS)} ===\n"
            + "[NL]\n" + _pick(entry, _NL_KEYS).rstrip("\n") + "\n"
            + "[FL]\n" + _pick(entry, _FL_KEYS).rstrip("\n") + "\n\n")


def cmd_sample(args, config: PipelineConfig) -> int:
    dataset = args.dataset or stage_path(config, "obt")
    _require(dataset, "bootstrap, or pass --dataset")
    lines = artifacts.read_jsonl(dataset)
    if args.n > len(lines):
        raise ValueError(
            f"cannot sample {args.n} records from a dataset of {len(lines)}")
    seed = args.seed if args.seed is not None else fork_seed(config.seed, "sample")
    rng = random.Random(seed)
    indices = rng.sample(range(len(lines)), args.n)
    os.makedirs(config.workdir, exist_ok=True)
    if args.for_review:
        for line in lines:
            if not isinstance(line.entry, dict):
                raise ValueError(f"{dataset}:{line.lineno}: entry is not an object")
        output = args.output or stage_path(config, "review")
        artifacts.write_text(output, (_review_block(lines[i].entry) for i in indices))
    else:
        output = args.output or stage_path(config, "sample")
        # Original lines pass through untouched so the subset stays
        # byte-comparable against its source dataset.
        artifacts.write_text(output, (lines[i].text for i in indices))
    print(f"sampled {args.n}/{len(lines)} records (seed {seed}) -> {output}")
    return 0


# --- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leanforge",
        description="Lean4 corpus-to-prover data pipeline and proof harness.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help_text):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("-c", "--config", required=True,
                         help="pipeline config file")
        sub.set_defaults(handler=handler)
        return sub

    command("extract", cmd_extract,
            "pull theorem declarations out of a Lean4 corpus")

    train = command("train-retriever", cmd_train_retriever,
                    "train the NL-FL projection head")
    train.add_argument("--steps", type=int, default=None,
                       help="override training step count")

    inf = command("informalize", cmd_informalize,
                  "generate natural-language texts for extracted theorems")
    inf.add_argument("--resume", action="store_true",
                     help="continue from the stage checkpoint")
    inf.add_argument("--max-attempts", type=int, default=None,
                     help="override per-theorem attempt limit")

    boot = command("bootstrap", cmd_bootstrap,
                   "comment proofs with their natural-language steps")
    boot.add_argument("--mode", choices=["interleaved", "head"], default=None,
                      help="override bootstrap mode")

    prep = command("prep", cmd_prep, "pack the instruction-tuning dataset")
    prep.add_argument("--token-budget", type=int, default=None)
    prep.add_argument("--no-nl", action="store_true",
                      help="drop natural-language guidance from instructions")
    prep.add_argument("--no-bootstrapped", action="store_true",
                      help="target plain proofs instead of commented ones")
    prep.add_argument("--no-block", action="store_true",
                      help="disable in-context example packing")
    prep.add_argument("--no-curriculum", action="store_true",
                      help="keep input order instead of difficulty order")

    prove = command("prove", cmd_prove, "run the iterative proof harness")
    prove.add_argument("--n-samples", type=int, default=None)
    prove.add_argument("--max-rounds", type=int, default=None)

    sample = command("sample", cmd_sample, "draw a seeded dataset subset")
    sample.add_argument("--dataset", default=None,
                        help="JSONL to sample from (default: the OBT dataset)")
    sample.add_argument("-n", type=int, required=True,
                        help="number of records to draw")
    sample.add_argument("--seed", type=int, default=None)
    sample.add_argument("--for-review", action="store_true",
                        help="emit side-by-side NL/FL text instead of JSONL")
    sample.add_argument("--output", default=None)

    command("report", cmd_report, "re-verify and print a harness report")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        for error in exc.errors:
            print(f"config error: {error}", file=sys.stderr)
        return 2
    try:
        return args.handler(args, config)
    except ConfigError as exc:
        for error in exc.errors:
            print(f"config error: {error}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError, KeyError,
            genclient.GenClientError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
