"""Command-line entry points for the pipeline stages.

Each subcommand runs one stage against a shared config file and the fixed
artifact names inside the working directory, so stages compose by pointing
at the same workdir. Config validation happens before any output is
touched; a validation failure exits 2, runtime failures exit 1. A flag
that overrides a setting is written into its key before validation, so it
is checked by the same rule as the key.
"""

import argparse
import contextlib
import dataclasses
import functools
import os
import random
import sys
from typing import Iterator, List, Optional, Sequence, Tuple

from . import artifacts
from . import bootstrap as bootstrap_mod
from . import corpus, genclient, informalize, prover, retrieval, trainprep
from .artifacts import require
from .config import (
    BackendSettings,
    ConfigError,
    PipelineConfig,
    PrepSettings,
    ProverSettings,
    fork_seed,
    load_config,
    stage_path,
)


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
                yield (artifacts.read_text(full), os.path.relpath(full, root),
                       config.corpus.commit)
    else:
        require(root, "extract with a corpus directory, or create the file")
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


def cmd_train_retriever(args, config: PipelineConfig) -> int:
    r = config.retrieval
    if not r.pairs:
        raise ConfigError(["retrieval.pairs: required for train-retriever"])
    texts = artifacts.read_records(
        require(r.pairs, "extract, then build a pair file"), _TextPair)
    # hashed by the embedder informalize applies the head to
    embedder = retrieval.HashEmbedder(r.dimension)
    nl_vectors = embedder.embed([pair.nl for pair in texts])
    fl_vectors = embedder.embed([pair.fl for pair in texts])
    try:
        head, trace = retrieval.train_projection(
            list(zip(nl_vectors, fl_vectors)), r,
            fork_seed(config.seed, "train-retriever"))
    except retrieval.EmptyInput as exc:
        raise retrieval.EmptyInput(
            f"{r.pairs} (retrieval.pairs) holds {len(texts)}: {exc}") from None
    os.makedirs(config.workdir, exist_ok=True)
    retrieval.save_head(head, stage_path(config, "projection"))
    artifacts.write_text(stage_path(config, "loss_trace"), "step,loss\n" + "".join(
        f"{step},{loss:.10f}\n" for step, loss in enumerate(trace, start=1)))
    edges, counts, _ = retrieval.similarity_histogram(nl_vectors, fl_vectors, head)
    retrieval.write_histogram_csv(stage_path(config, "histogram"), edges, counts)
    final = trace[-1] if trace else float("nan")
    print(f"trained on {len(texts)} pairs for {r.steps} steps, "
          f"final loss {final:.6f}")
    return 0


# --- the paid stages --------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _ScriptRule:
    """One mock script rule: a prompt that holds ``pattern`` is answered
    with ``response``, or with ``responses`` one per sample in call order."""

    pattern: str
    response: Optional[str] = None
    responses: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        if (self.response is None) == (self.responses is None):
            raise ValueError("needs one of 'response' and 'responses'")
        if self.responses == ():
            raise ValueError("responses is empty")


def _read_json(path: str):
    """A configured JSON file; a bad one is a config error."""
    try:
        return artifacts.read_json(path)
    except artifacts.ArtifactError as exc:
        raise ConfigError([str(exc)]) from None


def make_backend(settings: BackendSettings):
    if settings.kind == "chat":
        return genclient.ChatCompletionBackend(settings)
    script: List[Tuple[str, object]] = []
    if settings.script:
        rules = _read_json(settings.script)
        if type(rules) is not list:
            raise ConfigError([f"{settings.script}: rules are not a list"])
        for index, entry in enumerate(rules):
            try:
                rule = artifacts.decode(
                    entry, _ScriptRule, f"{settings.script}: rule {index}")
            except artifacts.ArtifactError as exc:
                raise ConfigError([str(exc)]) from None
            script.append((rule.pattern, rule.responses or rule.response))
    return genclient.MockBackend(script, settings.default_text)


@contextlib.contextmanager
def _sampler(config: PipelineConfig, max_new_tokens: int) -> Iterator[genclient.Sampler]:
    """How a paid stage asks the model, with the ``backend`` section's
    retry policy, budget and temperature. The budget counts every request,
    with or without a ceiling. The backend's connections are closed when
    the stage is done."""
    b = config.backend
    retry = genclient.RetryPolicy(b.retry, fork_seed(config.seed, "retry"))
    backend = make_backend(b)
    try:
        yield genclient.Sampler(backend, retry, genclient.GenerationBudget(b.budget),
                                max_new_tokens, b.temperature)
    finally:
        getattr(backend, "close", lambda: None)()


# --- informalize -----------------------------------------------------------------


def cmd_informalize(args, config: PipelineConfig) -> int:
    records = artifacts.read_records(
        require(stage_path(config, "theorems"), "extract"), corpus.TheoremRecord)
    pool: Sequence[prover.PoolExample] = ()
    index = None
    embedder = None
    if config.retrieval.examples:
        require(config.retrieval.examples, "informalize with a pool file")
        pool = artifacts.read_records(config.retrieval.examples, prover.PoolExample)
        if not pool:
            raise ValueError(f"{config.retrieval.examples} (retrieval.examples) "
                             "holds 0: cannot index an empty corpus")
        head = retrieval.load_head(
            require(stage_path(config, "projection"), "train-retriever"),
            config.retrieval.dimension)
        embedder = retrieval.HashEmbedder(config.retrieval.dimension)
        index = informalize.build_example_index(
            pool, embedder, head, config.retrieval.side)
    os.makedirs(config.workdir, exist_ok=True)
    with _sampler(config, config.backend.max_new_tokens) as sampler:
        results = informalize.informalize_corpus(
            records, sampler, config.informalize, pool, index, embedder,
            stage_path(config, "informal_checkpoint"), not args.resume)
    informalize.save_informal_dataset(
        records, results, stage_path(config, "informal"))
    passed = sum(1 for r in results if r.verdict == "pass")
    errors = sum(1 for r in results if r.reasons == (informalize.BACKEND_ERROR,))
    print(f"informalized {passed}/{len(results)} theorems "
          f"({len(results) - passed - errors} failed screening, "
          f"{errors} failed on backend errors)")
    return 0


# --- bootstrap -------------------------------------------------------------------


def cmd_bootstrap(args, config: PipelineConfig) -> int:
    path = require(stage_path(config, "informal"), "informalize")
    lines = artifacts.read_jsonl(path)
    entries = [artifacts.as_record(path, line, bootstrap_mod.InformalRecord)
               for line in lines]
    # head mode asks no model, so it builds no backend
    with (contextlib.nullcontext() if config.bootstrap.mode == "head"
          else _sampler(config, config.backend.max_new_tokens)) as sampler:
        try:
            obt_records, stats = bootstrap_mod.bootstrap_corpus(
                entries, sampler, config.bootstrap)
        except bootstrap_mod.UnlexableProof as exc:
            raise ValueError(f"{path}:{lines[exc.index].lineno}: {exc}") from None
    artifacts.write_jsonl(stage_path(config, "obt"), obt_records)
    print(f"bootstrapped {stats.emitted}/{stats.total} records "
          f"({stats.informal_failures} informal failures, "
          f"{stats.verification_fallbacks} verification fallbacks, "
          f"{stats.backend_fallbacks} backend fallbacks)")
    return 0


# --- prep ------------------------------------------------------------------------


def make_tokenizer(settings: PrepSettings):
    if settings.tokenizer == "vocab":
        return trainprep.VocabTokenizer.from_file(settings.vocab)
    return trainprep.WhitespaceTokenizer()


def cmd_prep(args, config: PipelineConfig) -> int:
    obt_records = bootstrap_mod.load_obt_dataset(
        require(stage_path(config, "obt"), "bootstrap"))
    skipped = trainprep.emit_training_set(
        obt_records, config.prep, make_tokenizer(config.prep),
        functools.partial(artifacts.write_jsonl, stage_path(config, "train")))
    artifacts.write_jsonl(stage_path(config, "train_skips"), skipped)
    print(f"packed {len(obt_records) - len(skipped)} training records "
          f"({len(skipped)} skipped)")
    return 0


# --- prove / report --------------------------------------------------------------


def _read_problems(path: str) -> List[prover.Problem]:
    """The problems of ``prover.problems``, whose names are unique."""
    lines = artifacts.read_jsonl(require(path, "prove with a problem file"))
    problems = [artifacts.as_record(path, line, prover.Problem) for line in lines]
    first = {}
    for line, problem in zip(lines, problems):
        if first.setdefault(problem.name, line.lineno) != line.lineno:
            raise ValueError(f"{path}:{line.lineno} (prover.problems): problem "
                             f"{problem.name!r} repeats line {first[problem.name]}")
    return problems


def make_verifier(settings: ProverSettings):
    if settings.verifier == "external":
        return prover.ExternalVerifier(settings.command, settings.timeout_s)
    key = {}
    if settings.answer_key:
        key = _read_json(settings.answer_key)
        if type(key) is not dict:
            raise ConfigError(
                [f"{settings.answer_key}: not an object of name -> proof"])
        for name, proof in key.items():
            if type(proof) is not str:
                raise ConfigError(
                    [f"{settings.answer_key}: proof of {name!r} is not a string"])
    try:
        return prover.MockVerifier(key)
    except ValueError as exc:  # a proof that does not lex
        raise ConfigError([f"{settings.answer_key}: {exc}"]) from None


def cmd_prove(args, config: PipelineConfig) -> int:
    v = config.prover
    if not v.problems:
        raise ConfigError(["prover.problems: required for prove"])
    if not v.seed_examples:
        raise ConfigError(["prover.seed_examples: required for prove"])
    problems = _read_problems(v.problems)
    seed_pool = artifacts.read_records(
        require(v.seed_examples, "prove with a seed example file"), prover.PoolExample)
    if not seed_pool:
        raise ValueError(f"{v.seed_examples} (prover.seed_examples) holds 0: "
                         "seed pool must be nonempty")
    verifier, tokenizer = make_verifier(v), make_tokenizer(config.prep)
    with _sampler(config, v.max_new_tokens) as sampler:
        # made only once every input is read and the backend built, so a
        # config error leaves no workdir behind
        os.makedirs(config.workdir, exist_ok=True)
        report = prover.run_iterative(
            problems, seed_pool, sampler, verifier, v, tokenizer)
    prover.save_report(report, stage_path(config, "report"))
    artifacts.write_jsonl(stage_path(config, "attempts"), report.attempts)
    print(prover.format_report_table(report))
    return 0


def cmd_report(args, config: PipelineConfig) -> int:
    v = config.prover
    if not v.problems:
        raise ConfigError(["prover.problems: required for report"])
    problems = _read_problems(v.problems)
    report = prover.load_report(
        require(stage_path(config, "report"), "prove"), stage_path(config, "attempts"),
        problems, make_verifier(v))
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
    require(dataset, "bootstrap, or pass --dataset")
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

    def setting(sub, flag, key, **kwargs):
        # The flag's value is stored under its ``section.key``; ``main``
        # writes it into that key before the config is checked.
        sub.add_argument(flag, dest=key, default=None, **kwargs)

    def switch_off(sub, flag, key, help_text):
        setting(sub, flag, key, action="store_const", const=False, help=help_text)

    command("extract", cmd_extract,
            "pull theorem declarations out of a Lean4 corpus")

    train = command("train-retriever", cmd_train_retriever,
                    "train the NL-FL projection head")
    setting(train, "--steps", "retrieval.steps", type=int,
            help="override training step count")

    inf = command("informalize", cmd_informalize,
                  "generate natural-language texts for extracted theorems")
    inf.add_argument("--resume", action="store_true",
                     help="continue from the stage checkpoint")
    setting(inf, "--max-attempts", "informalize.max_attempts", type=int,
            help="override per-theorem attempt limit")

    boot = command("bootstrap", cmd_bootstrap,
                   "comment proofs with their natural-language steps")
    setting(boot, "--mode", "bootstrap.mode",
            help="override bootstrap mode: interleaved or head")

    prep = command("prep", cmd_prep, "pack the instruction-tuning dataset")
    setting(prep, "--token-budget", "prep.token_budget", type=int)
    switch_off(prep, "--no-nl", "prep.use_nl",
               "drop natural-language guidance from instructions")
    switch_off(prep, "--no-bootstrapped", "prep.use_bootstrapped",
               "target plain proofs instead of commented ones")
    switch_off(prep, "--no-block", "prep.use_block",
               "disable in-context example packing")
    switch_off(prep, "--no-curriculum", "prep.use_curriculum",
               "keep input order instead of difficulty order")

    prove = command("prove", cmd_prove, "run the iterative proof harness")
    setting(prove, "--n-samples", "prover.n_samples", type=int)
    setting(prove, "--max-rounds", "prover.max_rounds", type=int)

    sample = command("sample", cmd_sample, "draw a seeded dataset subset")
    sample.add_argument("--dataset", default=None,
                        help="JSONL to sample from (default: the OBT dataset)")
    sample.add_argument("-n", type=int, required=True,
                        help="number of records to draw")
    sample.add_argument("--seed", type=int, default=None)
    sample.add_argument("--for-review", action="store_true",
                        help="emit side-by-side NL/FL text instead of JSONL")
    sample.add_argument("--output", default=None)

    command("report", cmd_report, "check a harness report against its attempt log")
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call, built by the first, not at import."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    overrides = {key: value for key, value in vars(args).items()
                 if "." in key and value is not None}
    try:
        return args.handler(args, load_config(args.config, overrides))
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
