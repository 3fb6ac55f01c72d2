"""Command-line entry points for the pipeline stages.

Each subcommand runs one stage against a shared config file and the fixed
artifact names inside the working directory, so stages compose by pointing
at the same workdir. ``STAGES`` declares each command's handler and the
files it reads and writes; ``main`` checks that every file a command reads
exists before the handler runs, and only a write makes the workdir. Config
validation happens before any output is touched; a validation failure
exits 2, and an input, file or service failure (``ValueError``,
``OSError``, ``GenClientError``) exits 1. Any other exception is a bug and
keeps its traceback. A flag that overrides a setting is written into its
key before validation, so it is checked by the same rule as the key.
"""

import argparse
import contextlib
import dataclasses
import functools
import os
import random
import sys
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

# OpenBLAS sizes its thread pool once, when numpy loads it; the program's
# numpy work is small, so one thread, unless the caller has chosen a count
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import artifacts
from . import bootstrap as bootstrap_mod
from . import corpus, genclient, informalize, prover, retrieval, trainprep
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
        for entry in artifacts.read_records(root, _SourceFile):
            yield (entry.source, entry.file_path,
                   config.corpus.commit if entry.commit is None else entry.commit)


def cmd_extract(args, config: PipelineConfig) -> None:
    records: List[corpus.TheoremRecord] = []
    skips: List[dict] = []
    files = 0
    for source, file_path, commit in _iter_corpus_sources(config):
        files += 1
        try:
            records.extend(corpus.extract_theorems(source, file_path, commit))
        except corpus.LexError as exc:
            skips.append({"file": file_path, "reason": str(exc)})
    artifacts.write_jsonl(stage_path(config, "theorems.jsonl"), records)
    artifacts.write_jsonl(stage_path(config, "extract_skips.jsonl"), skips)
    print(f"extracted {len(records)} theorems from {files} files "
          f"({len(skips)} files skipped)")


# --- train-retriever -------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _TextPair:
    nl: str
    fl: str


def cmd_train_retriever(args, config: PipelineConfig) -> None:
    r = config.retrieval
    texts = artifacts.read_records(r.pairs, _TextPair)
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
    retrieval.save_head(head, stage_path(config, "projection.json"))
    artifacts.write_text(stage_path(config, "loss_trace.csv"), "step,loss\n" + "".join(
        f"{step},{loss:.10f}\n" for step, loss in enumerate(trace, start=1)))
    edges, counts, _ = retrieval.similarity_histogram(nl_vectors, fl_vectors, head)
    retrieval.write_histogram_csv(
        stage_path(config, "similarity_histogram.csv"), edges, counts)
    final = trace[-1] if trace else float("nan")
    print(f"trained on {len(texts)} pairs for {r.steps} steps, "
          f"final loss {final:.6f}")


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
        backend.close()


# --- informalize -----------------------------------------------------------------


def cmd_informalize(args, config: PipelineConfig) -> None:
    records = artifacts.read_records(
        stage_path(config, "theorems.jsonl"), corpus.TheoremRecord)
    r = config.retrieval
    index = None
    if r.examples:
        pool = artifacts.read_records(r.examples, prover.PoolExample)
        if not pool:
            raise ValueError(f"{r.examples} (retrieval.examples) "
                             "holds 0: cannot index an empty corpus")
        # "nl" crosses the language gap through the trained head; "fl"
        # compares FL texts directly
        index = retrieval.ExampleIndex(
            pool, [p.nl if r.side == "nl" else p.fl for p in pool],
            retrieval.HashEmbedder(r.dimension),
            retrieval.load_head(stage_path(config, "projection.json"), r.dimension))
    with _sampler(config, config.backend.max_new_tokens) as sampler:
        results = informalize.informalize_corpus(
            records, sampler, config.informalize, index,
            stage_path(config, "informalize.ckpt.jsonl"), not args.resume)
    informalize.save_informal_dataset(
        records, results, stage_path(config, "informal.jsonl"))
    passed = sum(1 for r in results if r.verdict == "pass")
    errors = sum(1 for r in results if r.reasons == (informalize.BACKEND_ERROR,))
    print(f"informalized {passed}/{len(results)} theorems "
          f"({len(results) - passed - errors} failed screening, "
          f"{errors} failed on backend errors)")


# --- bootstrap -------------------------------------------------------------------


def cmd_bootstrap(args, config: PipelineConfig) -> None:
    path = stage_path(config, "informal.jsonl")
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
    artifacts.write_jsonl(stage_path(config, "obt.jsonl"), obt_records)
    print(f"bootstrapped {stats.emitted}/{stats.total} records "
          f"({stats.informal_failures} informal failures, "
          f"{stats.verification_fallbacks} verification fallbacks, "
          f"{stats.backend_fallbacks} backend fallbacks)")


# --- prep ------------------------------------------------------------------------


def make_tokenizer(settings: PrepSettings):
    if settings.tokenizer == "vocab":
        return trainprep.VocabTokenizer.from_file(settings.vocab)
    return trainprep.WhitespaceTokenizer()


def cmd_prep(args, config: PipelineConfig) -> None:
    obt_records = bootstrap_mod.load_obt_dataset(stage_path(config, "obt.jsonl"))
    skipped = trainprep.emit_training_set(
        obt_records, config.prep, make_tokenizer(config.prep),
        functools.partial(artifacts.write_jsonl, stage_path(config, "train.jsonl")))
    artifacts.write_jsonl(stage_path(config, "train_skips.jsonl"), skipped)
    print(f"packed {len(obt_records) - len(skipped)} training records "
          f"({len(skipped)} skipped)")


# --- prove / report --------------------------------------------------------------


def _read_problems(path: str) -> List[prover.Problem]:
    """The problems of ``prover.problems``, whose names are unique."""
    lines = artifacts.read_jsonl(path)
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


def cmd_prove(args, config: PipelineConfig) -> None:
    v = config.prover
    problems = _read_problems(v.problems)
    seed_pool = artifacts.read_records(v.seed_examples, prover.PoolExample)
    if not seed_pool:
        raise ValueError(f"{v.seed_examples} (prover.seed_examples) holds 0: "
                         "seed pool must be nonempty")
    verifier, tokenizer = make_verifier(v), make_tokenizer(config.prep)
    with _sampler(config, v.max_new_tokens) as sampler:
        report = prover.run_iterative(
            problems, seed_pool, sampler, verifier, v, tokenizer)
    prover.save_report(report, stage_path(config, "report.jsonl"))
    artifacts.write_jsonl(stage_path(config, "prove.attempts.jsonl"), report.attempts)
    print(prover.format_report_table(report))


def cmd_report(args, config: PipelineConfig) -> None:
    v = config.prover
    report = prover.load_report(
        stage_path(config, "report.jsonl"), stage_path(config, "prove.attempts.jsonl"),
        _read_problems(v.problems), make_verifier(v))
    print(prover.format_report_table(report))


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


def cmd_sample(args, config: PipelineConfig) -> None:
    dataset = args.dataset or stage_path(config, "obt.jsonl")
    lines = artifacts.read_jsonl(dataset)
    if not 0 <= args.n <= len(lines):
        raise ValueError(
            f"-n {args.n} must be between 0 and the {len(lines)} records of {dataset}")
    seed = args.seed if args.seed is not None else fork_seed(config.seed, "sample")
    rng = random.Random(seed)
    indices = rng.sample(range(len(lines)), args.n)
    if args.for_review:
        for line in lines:
            if not isinstance(line.entry, dict):
                raise ValueError(f"{dataset}:{line.lineno}: entry is not an object")
        output = args.output or stage_path(config, "review.txt")
        artifacts.write_text(output, (_review_block(lines[i].entry) for i in indices))
    else:
        output = args.output or stage_path(config, "sample.jsonl")
        # Original lines pass through untouched so the subset stays
        # byte-comparable against its source dataset; a last line stored
        # without its line end gains one, so no two records share a line.
        texts = (lines[i].text for i in indices)
        artifacts.write_text(output, (
            text if text.endswith(("\n", "\r")) else text + "\n" for text in texts))
    print(f"sampled {args.n}/{len(lines)} records (seed {seed}) -> {output}")


# --- the stage table ---------------------------------------------------------------


class Stage(NamedTuple):
    """A command: its handler and help line, the files it reads in the order
    it reads them, and the workdir artifacts it writes. A file read is an
    artifact, or the one a setting (``section.key``) or flag (``--flag``)
    names. An entry may end in ``when`` and conditions joined by ``and``:
    ``set`` (its own setting or flag is set), ``key`` (that one is set),
    ``no key`` or ``key: value``. A setting read but not ``when set`` is
    required. README's Pipeline table lists the same entries."""

    handler: Callable[[argparse.Namespace, PipelineConfig], None]
    help: str
    reads: Tuple[str, ...]
    writes: Tuple[str, ...]


_SCRIPT = "backend.script when set and backend.kind: mock"
_KEY = "prover.answer_key when set and prover.verifier: mock"
_VOCAB = "prep.vocab when prep.tokenizer: vocab"
STAGES = {
    "extract": Stage(cmd_extract, "pull theorem declarations out of a Lean4 corpus",
                     ("corpus.path",), ("theorems.jsonl", "extract_skips.jsonl")),
    "train-retriever": Stage(
        cmd_train_retriever, "train the NL-FL projection head", ("retrieval.pairs",),
        ("projection.json", "loss_trace.csv", "similarity_histogram.csv")),
    "informalize": Stage(
        cmd_informalize, "generate natural-language texts for extracted theorems",
        ("theorems.jsonl", "retrieval.examples when set",
         "projection.json when retrieval.examples", _SCRIPT,
         "informalize.ckpt.jsonl when --resume"),
        ("informal.jsonl", "informalize.ckpt.jsonl")),
    "bootstrap": Stage(
        cmd_bootstrap, "comment proofs with their natural-language steps",
        ("informal.jsonl", _SCRIPT + " and bootstrap.mode: interleaved"), ("obt.jsonl",)),
    "prep": Stage(cmd_prep, "pack the instruction-tuning dataset",
                  ("obt.jsonl", _VOCAB), ("train.jsonl", "train_skips.jsonl")),
    "prove": Stage(cmd_prove, "run the iterative proof harness",
                   ("prover.problems", "prover.seed_examples", _KEY, _VOCAB, _SCRIPT),
                   ("report.jsonl", "prove.attempts.jsonl")),
    "sample": Stage(cmd_sample, "draw a seeded dataset subset",
                    ("--dataset when set", "obt.jsonl when no --dataset"),
                    ("sample.jsonl when no --output and no --for-review",
                     "review.txt when no --output and --for-review")),
    "report": Stage(cmd_report, "check a harness report against its attempt log",
                    ("prover.problems", "report.jsonl", "prove.attempts.jsonl", _KEY), ()),
}


# the command that writes each artifact
_WRITER = {entry.partition(" when ")[0]: command
           for command, stage in STAGES.items() for entry in stage.writes}


def _declared(entries: Sequence[str], config: PipelineConfig,
              args: argparse.Namespace) -> List[Tuple[str, str]]:
    """(name, path) of each of ``entries`` whose conditions hold: an
    artifact's path in the workdir, or what a setting or flag holds."""
    def value(name):
        if name.startswith("--"):
            return getattr(args, name[2:].replace("-", "_"))
        return functools.reduce(getattr, name.split("."), config)

    def holds(condition, name):
        key, _, wanted = condition.removeprefix("no ").partition(": ")
        actual = value(name if key == "set" else key)
        return (actual == wanted if wanted else bool(actual)) != condition.startswith("no ")

    return [(name, stage_path(config, name) if name in _WRITER else value(name))
            for name, _, when in (entry.partition(" when ") for entry in entries)
            if all(holds(c, name) for c in when.split(" and ") if c)]


def _check_reads(command: str, config: PipelineConfig,
                 args: argparse.Namespace) -> None:
    """Raise, before ``command``'s handler runs, a config error for each
    required setting it reads that is unset, then an error for the first
    file it reads that is missing, naming its writer or its setting."""
    reads = _declared(STAGES[command].reads, config, args)
    unset = [f"{name}: required for {command}" for name, path in reads if not path]
    if unset:
        raise ConfigError(unset)
    for name, path in reads:
        if not os.path.exists(path):
            raise FileNotFoundError(f"expected file {path} is missing; " + (
                f"run `leanforge {_WRITER[name]}` first" if name in _WRITER
                else f"create it or change {name}"))


# --- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leanforge",
        description="Lean4 corpus-to-prover data pipeline and proof harness.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    sub = {}
    for name, stage in STAGES.items():
        sub[name] = commands.add_parser(name, help=stage.help)
        sub[name].add_argument("-c", "--config", required=True,
                               help="pipeline config file")

    def setting(command, flag, key, **kwargs):
        # The flag's value is stored under its ``section.key``; ``main``
        # writes it into that key before the config is checked.
        sub[command].add_argument(flag, dest=key, default=None, **kwargs)

    def switch_off(flag, key, help_text):
        setting("prep", flag, key, action="store_const", const=False, help=help_text)

    setting("train-retriever", "--steps", "retrieval.steps", type=int,
            help="override training step count")

    sub["informalize"].add_argument("--resume", action="store_true",
                                    help="continue from the stage checkpoint")
    setting("informalize", "--max-attempts", "informalize.max_attempts", type=int,
            help="override per-theorem attempt limit")

    setting("bootstrap", "--mode", "bootstrap.mode",
            help="override bootstrap mode: interleaved or head")

    setting("prep", "--token-budget", "prep.token_budget", type=int)
    switch_off("--no-nl", "prep.use_nl",
               "drop natural-language guidance from instructions")
    switch_off("--no-bootstrapped", "prep.use_bootstrapped",
               "target plain proofs instead of commented ones")
    switch_off("--no-block", "prep.use_block", "disable in-context example packing")
    switch_off("--no-curriculum", "prep.use_curriculum",
               "keep input order instead of difficulty order")

    setting("prove", "--n-samples", "prover.n_samples", type=int)
    setting("prove", "--max-rounds", "prover.max_rounds", type=int)

    sample = sub["sample"]
    sample.add_argument("--dataset", default=None,
                        help="JSONL to sample from (default: the OBT dataset)")
    sample.add_argument("-n", type=int, required=True,
                        help="number of records to draw")
    sample.add_argument("--seed", type=int, default=None)
    sample.add_argument("--for-review", action="store_true",
                        help="emit side-by-side NL/FL text instead of JSONL")
    sample.add_argument("--output", default=None)
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
        config = load_config(args.config, overrides)
        _check_reads(args.command, config, args)
        STAGES[args.command].handler(args, config)
        return 0
    except ConfigError as exc:
        for error in exc.errors:
            print(f"config error: {error}", file=sys.stderr)
        return 2
    except (OSError, ValueError, genclient.GenClientError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
