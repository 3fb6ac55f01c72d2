"""Benchmark for leanforge, driven from outside the program.

Usage (from the root of a leanforge checkout, the directory holding src/):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload generates its inputs from the seed, sets up untimed, then
repeats passes of its timed commands until S seconds have gone by. A pass is
one fresh worker process running ``leanforge.cli.main`` once per command.
Every pass is checked for correctness and its artifacts are digested; all
passes of one seed must produce byte-identical artifacts.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(medians over passes). With ``--trace 1`` untraced and traced passes
alternate and it reports the per-layer metrics from the traced passes, the
per-command wall times from the untraced ones and their difference as the
tracing overhead. The exit code is 0 only when every check passed.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from typing import Dict, List, Optional, Tuple

import inputs
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
MAX_ATTEMPTS = 3  # informalize and bootstrap attempts per theorem
SETUP_REPEATS = 7
PASS_TIMEOUT_S = 150.0
MEASURE_CAP_S = 110.0  # passes stop here even if --seconds asks for more


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(round(share * len(ordered))) - 1))]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _read_jsonl(path: str) -> List[dict]:
    with open(path, "r", encoding="utf-8") as source:
        return [json.loads(line) for line in source if line.strip()]


# --- run context ----------------------------------------------------------------


class Context:
    """Paths and processes of one benchmark run, all inside the checkout."""

    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.src = os.path.join(root, "src")
        self.seed = seed
        self.work = os.path.join(root, ".perfbench_work", workload)
        self.out = os.path.join(self.work, "out")
        self.config = os.path.join(self.work, "config.yaml")
        self.env = dict(os.environ, TMPDIR=os.path.join(self.work, "tmp"))
        self.stub: Optional[subprocess.Popen] = None
        self.port = 0
        self.passes = 0
        self.keep: set = set()  # set-up outputs that passes must not delete

    def prepare(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        for sub in ("out", "tmp", "logs", "inputs"):
            os.makedirs(os.path.join(self.work, sub))

    def input_path(self, name: str) -> str:
        return os.path.join(self.work, "inputs", name)

    def out_path(self, name: str) -> str:
        return os.path.join(self.out, name)

    def worker(self, commands: List[List[str]], trace: bool, tag: str) -> dict:
        spec_path = os.path.join(self.work, "tmp", f"{tag}.spec.json")
        result_path = os.path.join(self.work, "tmp", f"{tag}.result.json")
        spec = {"src": self.src, "config": self.config, "commands": commands,
                "trace": trace, "result": result_path,
                "spans": os.path.join(self.work, "spans.jsonl")}
        with open(spec_path, "w", encoding="utf-8") as sink:
            json.dump(spec, sink)
        log_path = os.path.join(self.work, "logs", f"{tag}.log")
        with open(log_path, "w", encoding="utf-8") as log:
            try:
                code = subprocess.run(
                    [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                    stdout=log, stderr=subprocess.STDOUT, env=self.env,
                    cwd=self.root, timeout=PASS_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
        if code != 0:
            with open(log_path, "r", encoding="utf-8") as log:
                tail = log.read()[-2000:]
            raise BenchError(f"worker {tag} ended with {code}:\n{tail}")
        with open(result_path, "r", encoding="utf-8") as source:
            return json.load(source)

    def write_config(self, config: dict) -> None:
        # JSON is a subset of YAML, which is what the program reads.
        with open(self.config, "w", encoding="utf-8") as sink:
            json.dump(config, sink, indent=1, ensure_ascii=False)

    def start_stub(self, plan: dict, request_ms: float, sample_ms: float,
                   throttle: float) -> None:
        path = self.input_path("plan.json")
        with open(path, "w", encoding="utf-8") as sink:
            json.dump(plan, sink, ensure_ascii=False)
        self.stub = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "stub.py"), "--plan", path,
             "--seed", str(self.seed), "--request-ms", str(request_ms),
             "--sample-ms", str(sample_ms), "--throttle-share", str(throttle)],
            stdout=subprocess.PIPE, text=True, env=self.env, cwd=self.root)
        line = self.stub.stdout.readline().split()
        if len(line) != 2 or line[0] != "port":
            raise BenchError("chat stub did not start")
        self.port = int(line[1])

    def stub_call(self, path: str, post: bool = False) -> dict:
        request = urllib.request.Request(
            f"http://127.0.0.1:{self.port}{path}", data=b"{}" if post else None,
            method="POST" if post else "GET")
        with urllib.request.urlopen(request, timeout=10) as reply:
            return json.loads(reply.read())

    def stop(self) -> None:
        if self.stub is not None:
            self.stub.terminate()
            try:
                self.stub.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.stub.kill()
                self.stub.wait()
            self.stub.stdout.close()
            self.stub = None

    def clean_outputs(self) -> None:
        for name in os.listdir(self.out):
            if name not in self.keep:
                path = os.path.join(self.out, name)
                if os.path.isdir(path):
                    shutil.rmtree(path)
                else:
                    os.remove(path)


# --- workloads ------------------------------------------------------------------


class Workload:
    """One set of generated inputs, its timed commands and its checks."""

    name = ""
    shape: inputs.Shape
    commands: List[List[str]] = []
    setup_commands: List[List[str]] = []
    artifacts: Tuple[str, ...] = ()

    def __init__(self):
        self.corpus: Optional[inputs.Corpus] = None
        self.plan: Dict[str, dict] = {}
        self.obt_records = 0

    def generate(self, ctx: Context, label: str) -> None:
        self.corpus = inputs.make_corpus(ctx.seed, self.shape, label)
        self.plan = inputs.reply_plan(ctx.seed, self.corpus.theorems, MAX_ATTEMPTS)

    def build(self, ctx: Context) -> dict:
        """Write the inputs; return the program config."""
        raise NotImplementedError

    def check_setup(self, ctx: Context) -> List[Tuple[str, bool]]:
        return []

    def check_pass(self, ctx: Context, result: dict) -> List[Tuple[str, bool]]:
        raise NotImplementedError

    def _base_config(self, ctx: Context) -> dict:
        corpus_root = ctx.input_path("corpus")
        inputs.write_corpus(self.corpus, corpus_root)
        return {"seed": ctx.seed, "workdir": ctx.out,
                "corpus": {"path": corpus_root, "commit": "perfbench"}}

    def _mock_backend(self, ctx: Context) -> dict:
        path = ctx.input_path("script.json")
        with open(path, "w", encoding="utf-8") as sink:
            json.dump(inputs.mock_script(self.corpus.theorems, self.plan, MAX_ATTEMPTS),
                      sink, ensure_ascii=False)
        return {"kind": "mock", "script": path}

    # checks shared by the workloads

    def check_extract(self, ctx: Context) -> List[Tuple[str, bool]]:
        rows = _read_jsonl(ctx.out_path("theorems.jsonl"))
        by_file: Dict[str, List[str]] = {}
        for row in rows:
            by_file.setdefault(row["file_path"], []).append(row["name"])
        proofs = {t.name: t.keyword_text for t in self.corpus.theorems}
        return [
            ("extract names equal the generator oracle",
             by_file == self.corpus.names_by_file),
            ("extract proofs equal the generator oracle",
             all(proofs.get(r["name"]) == r["proof"] for r in rows)),
        ]

    def expected_passes(self) -> List[inputs.Theorem]:
        return [t for t in self.corpus.theorems
                if self.plan[t.name]["informal_failures"] < MAX_ATTEMPTS]

    def check_bootstrap(self, ctx: Context) -> List[Tuple[str, bool]]:
        passed = self.expected_passes()
        verdicts = {r["Name"]: r["verdict"] for r in _read_jsonl(ctx.out_path("informal.jsonl"))}
        wanted = {t.name: ("pass" if t in passed else "fail") for t in self.corpus.theorems}
        obt = _read_jsonl(ctx.out_path("obt.jsonl"))
        commented = {t.name: inputs.comment_proof(t.keyword_text, t.nl) for t in passed}
        return [
            ("informalize verdicts follow the reply plan", verdicts == wanted),
            ("bootstrap keeps every pass, interleaved and verified",
             {r["Name"]: r["Commented_proof"] for r in obt} == commented),
        ]

    def check_prep(self, ctx: Context) -> List[Tuple[str, bool]]:
        obt = len(_read_jsonl(ctx.out_path("obt.jsonl")))
        train = _read_jsonl(ctx.out_path("train.jsonl"))
        skipped = _read_jsonl(ctx.out_path("train_skips.jsonl"))
        return [("prep packs or reports every record",
                 len(train) + len(skipped) == obt and len(train) > 0)]


class CorpusPipeline(Workload):
    name = "corpus-pipeline"
    commands = [["extract"], ["train-retriever"], ["informalize"], ["bootstrap"], ["prep"]]
    artifacts = ("theorems.jsonl", "extract_skips.jsonl", "projection.json",
                 "loss_trace.csv", "similarity_histogram.csv", "informalize.ckpt.jsonl",
                 "informal.jsonl", "obt.jsonl", "train.jsonl", "train_skips.jsonl")
    shape = inputs.Shape(theorems=160, per_file=16, steps=(15, 40),
                         comment_share=0.5, nl_words=(15, 35))
    side_shape = inputs.Shape(theorems=0, per_file=10, steps=(6, 20),
                              comment_share=0.3, nl_words=(10, 25))

    def build(self, ctx: Context) -> dict:
        self.generate(ctx, "corpus")
        def side(count: int, label: str) -> List[inputs.Theorem]:
            shape = dataclasses.replace(self.side_shape, theorems=count)
            return inputs.make_corpus(ctx.seed, shape, label).theorems

        pairs, pool = ctx.input_path("pairs.jsonl"), ctx.input_path("pool.jsonl")
        inputs.write_jsonl(pairs, ({"nl": t.nl, "fl": t.keyword_text}
                                   for t in side(120, "pairs")))
        inputs.write_jsonl(pool, ({"name": t.name, "nl": t.nl, "fl": t.keyword_text}
                                  for t in side(40, "pool")))
        config = self._base_config(ctx)
        config.update({
            "retrieval": {"dimension": 64, "steps": 200, "batch_size": 8,
                          "pairs": pairs, "examples": pool, "side": "nl"},
            "backend": self._mock_backend(ctx),
            "informalize": {"max_attempts": MAX_ATTEMPTS, "k_examples": 3},
            "bootstrap": {"mode": "interleaved", "max_attempts": MAX_ATTEMPTS},
            "prep": {"token_budget": 2048},
        })
        return config

    def check_pass(self, ctx: Context, result: dict) -> List[Tuple[str, bool]]:
        return self.check_extract(ctx) + self.check_bootstrap(ctx) + self.check_prep(ctx)


class PrepWide(Workload):
    name = "prep-wide"
    setup_commands = [["extract"], ["informalize"], ["bootstrap"]]
    commands = [["prep"]]
    artifacts = ("train.jsonl", "train_skips.jsonl")
    shape = inputs.Shape(theorems=80, per_file=20, steps=(2, 5),
                         comment_share=0.2, nl_words=(10, 18))

    def build(self, ctx: Context) -> dict:
        self.generate(ctx, "wide")
        config = self._base_config(ctx)
        config.update({
            "backend": self._mock_backend(ctx),
            "informalize": {"max_attempts": MAX_ATTEMPTS},
            "bootstrap": {"mode": "interleaved", "max_attempts": MAX_ATTEMPTS},
            "prep": {"token_budget": 8192},
        })
        return config

    def check_setup(self, ctx: Context) -> List[Tuple[str, bool]]:
        return self.check_extract(ctx) + self.check_bootstrap(ctx)

    def check_pass(self, ctx: Context, result: dict) -> List[Tuple[str, bool]]:
        return self.check_prep(ctx)


class RemoteBackend(Workload):
    name = "remote-backend"
    setup_commands = [["extract"]]
    commands = [["informalize"], ["bootstrap"], ["prove"], ["report"]]
    artifacts = ("informal.jsonl", "informalize.ckpt.jsonl", "obt.jsonl", "report.jsonl")
    shape = inputs.Shape(theorems=12, per_file=6, steps=(4, 10),
                         comment_share=0.3, nl_words=(10, 20))
    problems = 14
    n_samples = 8
    max_rounds = 2
    request_ms = 22.0
    sample_ms = 1.0
    verifier_s = 0.010
    throttle_share = 0.03

    def build(self, ctx: Context) -> dict:
        self.generate(ctx, "remote")
        rows = inputs.make_problems(ctx.seed, self.problems)
        self.first_correct = inputs.schedule(ctx.seed, [p["name"] for p in rows])
        problems, seeds = ctx.input_path("problems.jsonl"), ctx.input_path("seeds.jsonl")
        inputs.write_jsonl(problems, rows)
        inputs.write_jsonl(seeds, inputs.make_seed_examples(ctx.seed, 4))
        ctx.start_stub({"theorems": self.plan, "first_correct": self.first_correct},
                       self.request_ms, self.sample_ms, self.throttle_share)
        config = self._base_config(ctx)
        config.update({
            "backend": {"kind": "chat", "model": "perfbench-stub",
                        "endpoint": f"http://127.0.0.1:{ctx.port}/v1/chat/completions",
                        "timeout": 30.0,
                        "retry": {"max_attempts": 4, "base_delay": 0.005,
                                  "max_delay": 0.02, "wall_clock_ceiling": 5.0}},
            "informalize": {"max_attempts": MAX_ATTEMPTS},
            "bootstrap": {"mode": "interleaved", "max_attempts": MAX_ATTEMPTS},
            "prover": {"problems": problems, "seed_examples": seeds,
                       "n_samples": self.n_samples, "max_rounds": self.max_rounds,
                       "k_min": 1, "k_max": 4, "verifier": "external",
                       "command": ["sh", os.path.join(HERE, "verify.sh"),
                                   f"{self.verifier_s:.3f}", inputs.PROOF_MARKER],
                       "timeout_s": 30.0},
        })
        return config

    def check_setup(self, ctx: Context) -> List[Tuple[str, bool]]:
        return self.check_extract(ctx)

    def expected_samples(self) -> int:
        total = inputs.predict_prove(self.first_correct, self.n_samples, self.max_rounds)[1]
        for t in self.corpus.theorems:
            failures = self.plan[t.name]["informal_failures"]
            total += min(failures + 1, MAX_ATTEMPTS)
            if failures < MAX_ATTEMPTS:
                total += self.plan[t.name]["bootstrap_failures"] + 1
        return total

    def check_pass(self, ctx: Context, result: dict) -> List[Tuple[str, bool]]:
        proved, charged = inputs.predict_prove(self.first_correct, self.n_samples,
                                               self.max_rounds)
        rows = _read_jsonl(ctx.out_path("report.jsonl"))
        stub = result["stub"]
        return self.check_bootstrap(ctx) + [
            ("prove proves the problems the schedule predicts",
             sorted(r["name"] for r in rows[1:]) == proved),
            ("prove charges the samples the schedule predicts",
             rows[0]["rounds"][-1]["budget_used"] == charged),
            ("stub served the predicted samples",
             stub["samples"] == self.expected_samples()
             and stub["requests"] == stub["samples"] + stub["throttled"]),
        ]


WORKLOADS = {w.name: w for w in (CorpusPipeline, PrepWide, RemoteBackend)}


# --- passes ---------------------------------------------------------------------


def _digests(ctx: Context, names) -> Dict[str, str]:
    out = {}
    for name in names:
        try:
            with open(ctx.out_path(name), "rb") as source:
                out[name] = hashlib.sha256(source.read()).hexdigest()
        except FileNotFoundError:
            out[name] = "missing"
    return out


def run_pass(ctx: Context, workload: Workload, traced: bool) -> dict:
    ctx.clean_outputs()
    if ctx.stub is not None:
        ctx.stub_call("/reset", post=True)
    ctx.passes += 1
    result = ctx.worker(workload.commands, traced, f"pass{ctx.passes:03d}")
    if ctx.stub is not None:
        result["stub"] = ctx.stub_call("/stats")
    checks = [(f"{c['command']} exits 0", c["exit"] == 0) for c in result["commands"]]
    if all(ok for _, ok in checks):
        try:
            checks += workload.check_pass(ctx, result)
        except (OSError, LookupError, ValueError) as exc:
            checks.append((f"outputs readable ({type(exc).__name__}: {exc})", False))
        result["digests"] = _digests(ctx, workload.artifacts)
        checks.append(("every artifact written", "missing" not in result["digests"].values()))
    trace = result.get("trace")
    if trace is not None:
        functions = trace["functions"]
        checks += [
            ("no request still failing after retries",
             functions.get("genclient.complete", [0, 0, 0, 0])[3] == 0),
            ("no verifier error verdicts",
             trace["counts"].get("prover_error_verdicts", 0) == 0),
        ]
        result["train_chars"] = _train_chars(ctx)
        result["report"] = _report_counts(ctx)
    result["checks"] = checks
    return result


def _train_chars(ctx: Context) -> int:
    path = ctx.out_path("train.jsonl")
    if not os.path.exists(path):
        return 0
    return sum(len(r["instruction"]) + len(r["target"]) for r in _read_jsonl(path))


def _report_counts(ctx: Context) -> Tuple[int, int]:
    path = ctx.out_path("report.jsonl")
    if not os.path.exists(path):
        return 0, 0
    rows = _read_jsonl(path)
    return len(rows) - 1, rows[0]["rounds"][-1]["budget_used"] if rows[0]["rounds"] else 0


# Runs in a fresh interpreter: times importing the CLI and loading the config,
# then runs the speed reference on the same core right after.
_SETUP_CODE = """
import sys, time
src, here, config = sys.argv[1:4]
cpu, start = time.process_time(), time.perf_counter()
sys.path.insert(0, src)
import leanforge.cli
from leanforge.config import load_config
load_config(config)
wall, cpu = time.perf_counter() - start, time.process_time() - cpu
sys.path.insert(0, here)
import json, speed
print(json.dumps([wall, cpu, [speed.reference_s() for _ in range(5)]]))
"""


def measure_setup(ctx: Context) -> List[float]:
    """Seconds a fresh interpreter takes to import the CLI and load the
    config, rescaled to reference host speed (see speed.py)."""
    argv = [sys.executable, "-c", _SETUP_CODE, ctx.src, HERE, ctx.config]
    times = []
    for attempt in range(SETUP_REPEATS + 1):
        done = subprocess.run(argv, env=ctx.env, cwd=ctx.root, capture_output=True, text=True)
        if done.returncode != 0:
            raise BenchError(f"set-up import failed: {done.stderr[-500:]}")
        if attempt:  # the first run compiles bytecode
            wall, cpu, references = json.loads(done.stdout.strip().splitlines()[-1])
            times.append(speed.normalize(wall, cpu, 0.0, references))
    return times


# --- metrics --------------------------------------------------------------------

# name -> unit, in the order BENCHMARK.json lists them
END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

CLI_COMMANDS = ("extract", "train-retriever", "informalize", "bootstrap", "prep",
                "prove", "report")

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "corpus.lex_lean.calls": "count",
    "corpus.lex_lean.bytes": "B",
    "corpus.lex_lean.self_s": "s",
    "corpus.lex_amplification": "ratio",
    "corpus.extract_theorems.self_s": "s",
    "corpus.count_tactic_steps.calls": "count",
    "corpus.count_tactic_steps.self_s": "s",
    "corpus.count_tactic_steps.total_s": "s",
    "corpus.token_divergence.calls": "count",
    "corpus.token_divergence.self_s": "s",
    "retrieval.embed.texts": "count",
    "retrieval.embed.self_s": "s",
    "retrieval.embed.ms_per_text": "ms",
    "retrieval.top_k.calls": "count",
    "retrieval.top_k.self_s": "s",
    "retrieval.train_projection.self_s": "s",
    "bootstrap.verify_bootstrap.calls": "count",
    "bootstrap.verify_bootstrap.calls_per_record": "ratio",
    "bootstrap.verify_bootstrap.self_s": "s",
    "bootstrap.verify_bootstrap.total_s": "s",
    "bootstrap.first_reply_ratio": "ratio",
    "bootstrap.load_obt_dataset.self_s": "s",
    "trainprep.pack_block.self_s": "s",
    "trainprep.tokenizer.self_s": "s",
    "trainprep.tokenizer.chars_counted": "count",
    "trainprep.count_amplification": "ratio",
    "trainprep.examples_per_record": "ratio",
    "informalize.attempts_per_theorem": "ratio",
    "informalize.pass_ratio": "ratio",
    "informalize.quality_check.self_s": "s",
    "informalize.select_examples.self_s": "s",
    "genclient.requests": "count",
    "genclient.samples": "count",
    "genclient.retries": "count",
    "genclient.failed": "count",
    "genclient.backend_wait_s": "s",
    "genclient.latency_p50_ms": "ms",
    "genclient.latency_p90_ms": "ms",
    "genclient.complete.self_s": "s",
    "prover.assemble_proof_prompt.self_s": "s",
    "prover.samples": "count",
    "prover.proved": "count",
    "prover.samples_charged": "count",
    "prover.verifier.calls": "count",
    "prover.verifier.wait_s": "s",
    "prover.verifier.p50_ms": "ms",
    "prover.verify_yield": "ratio",
    "prover.samples_per_proved": "ratio",
    "prover.wait_overlap": "ratio",
    "io.save.self_s": "s",
    **{f"cli.{c}.run_s": "s" for c in CLI_COMMANDS},
    "host.speed": "ratio",
    "tracing_overhead_s": "s",
}


def _run_s(result: dict, command: Optional[str] = None) -> float:
    """Seconds of a pass's commands (or of one), at reference host speed."""
    return sum(speed.normalize(c["wall_s"], c["cpu_s"], c["sampler_s"], c["reference_s"])
               for c in result["commands"] if command in (None, c["command"]))


def _cpu_s(result: dict) -> float:
    return sum(c["cpu_s"] * speed.speed(c["reference_s"]) for c in result["commands"])


def end_to_end(results: List[dict], setup_times: List[float]) -> Dict[str, float]:
    return {
        "setup_s": _median(setup_times),
        "run_s": _median([_run_s(r) for r in results]),
        "cpu_s": _median([_cpu_s(r) for r in results]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in results]),
    }


def layer_values(workload: Workload, result: dict) -> Dict[str, float]:
    """Per-layer metrics of one traced pass."""
    trace = result["trace"]
    functions, counts = trace["functions"], trace["counts"]
    waits, derived = trace["waits"], trace["derived"]

    def calls(name):
        return functions.get(name, (0, 0.0, 0.0, 0))[0]

    def self_s(name):
        return functions.get(name, (0, 0.0, 0.0, 0))[1]

    def total_s(name):
        return functions.get(name, (0, 0.0, 0.0, 0))[2]

    def errors(name):
        return functions.get(name, (0, 0.0, 0.0, 0))[3]

    verifiers = ("prover.MockVerifier.check", "prover.ExternalVerifier.check")
    verifier_calls = sum(calls(v) for v in verifiers)
    proved, charged = result["report"]
    obt_records = workload.obt_records
    prove_wall = sum(c["wall_s"] for c in result["commands"] if c["command"] == "prove")
    tokenizers = ("trainprep.WhitespaceTokenizer.count", "trainprep.VocabTokenizer.count")
    embed = "retrieval.HashEmbedder.embed"
    values = {
        "corpus.lex_lean.calls": calls("corpus.lex_lean"),
        "corpus.lex_lean.bytes": counts.get("lex_bytes", 0),
        "corpus.lex_lean.self_s": self_s("corpus.lex_lean"),
        "corpus.lex_amplification": _ratio(counts.get("lex_bytes", 0),
                                           workload.corpus.total_bytes),
        "corpus.extract_theorems.self_s": self_s("corpus.extract_theorems"),
        "corpus.count_tactic_steps.calls": calls("corpus.count_tactic_steps"),
        "corpus.count_tactic_steps.self_s": self_s("corpus.count_tactic_steps"),
        "corpus.count_tactic_steps.total_s": total_s("corpus.count_tactic_steps"),
        "corpus.token_divergence.calls": calls("corpus.token_divergence"),
        "corpus.token_divergence.self_s": self_s("corpus.token_divergence"),
        "retrieval.embed.texts": counts.get("embed_texts", 0),
        "retrieval.embed.self_s": self_s(embed),
        "retrieval.embed.ms_per_text": _ratio(1000.0 * total_s(embed),
                                              counts.get("embed_texts", 0)),
        "retrieval.top_k.calls": calls("retrieval.top_k"),
        "retrieval.top_k.self_s": self_s("retrieval.top_k"),
        "retrieval.train_projection.self_s": self_s("retrieval.train_projection"),
        "bootstrap.verify_bootstrap.calls": calls("bootstrap.verify_bootstrap"),
        "bootstrap.verify_bootstrap.calls_per_record": _ratio(
            calls("bootstrap.verify_bootstrap"), obt_records),
        "bootstrap.verify_bootstrap.self_s": self_s("bootstrap.verify_bootstrap"),
        "bootstrap.verify_bootstrap.total_s": total_s("bootstrap.verify_bootstrap"),
        "bootstrap.first_reply_ratio": _ratio(derived.get("bootstrap_first_reply", 0),
                                              derived.get("bootstrap_theorems", 0)),
        "bootstrap.load_obt_dataset.self_s": self_s("bootstrap.load_obt_dataset"),
        "trainprep.pack_block.self_s": self_s("trainprep.pack_block"),
        "trainprep.tokenizer.self_s": sum(self_s(t) for t in tokenizers),
        "trainprep.tokenizer.chars_counted": counts.get("prep_chars_counted", 0),
        "trainprep.count_amplification": _ratio(counts.get("prep_chars_counted", 0),
                                                result["train_chars"]),
        "trainprep.examples_per_record": _ratio(counts.get("pack_examples", 0),
                                                calls("trainprep.pack_block")),
        "informalize.attempts_per_theorem": _ratio(
            derived.get("informalize_attempts", 0), calls("informalize.informalize_theorem")),
        "informalize.pass_ratio": _ratio(counts.get("informal_passes", 0),
                                         calls("informalize.informalize_theorem")),
        "informalize.quality_check.self_s": self_s("informalize.quality_check"),
        "informalize.select_examples.self_s": self_s("informalize.select_examples"),
        "genclient.requests": calls("genclient.complete"),
        "genclient.samples": counts.get("complete_samples", 0),
        "genclient.retries": counts.get("complete_retries", 0),
        "genclient.failed": errors("genclient.complete"),
        "genclient.backend_wait_s": waits.get("backend_s", 0.0),
        "genclient.latency_p50_ms": _percentile(trace["latency_ms"]["complete"], 0.5),
        "genclient.latency_p90_ms": _percentile(trace["latency_ms"]["complete"], 0.9),
        "genclient.complete.self_s": self_s("genclient.complete"),
        "prover.assemble_proof_prompt.self_s": self_s("prover.assemble_proof_prompt"),
        "prover.samples": counts.get("prover_samples", 0),
        "prover.proved": proved,
        "prover.samples_charged": charged,
        "prover.verifier.calls": verifier_calls,
        "prover.verifier.wait_s": waits.get("verifier_s", 0.0),
        "prover.verifier.p50_ms": _percentile(trace["latency_ms"]["verifier"], 0.5),
        "prover.verify_yield": _ratio(counts.get("verifier_verified", 0), verifier_calls),
        "prover.samples_per_proved": _ratio(counts.get("prover_samples", 0), proved),
        "prover.wait_overlap": _ratio(waits.get("backend_s:prove", 0.0)
                                      + waits.get("verifier_s:prove", 0.0), prove_wall),
        "io.save.self_s": sum(row[1] for name, row in functions.items()
                              if name.split(".")[-1].startswith("save_")),
    }
    return values


def per_layer(workload: Workload, untraced: List[dict], traced: List[dict]) -> Dict[str, float]:
    per_pass = [layer_values(workload, r) for r in traced]
    values = {name: _median([p[name] for p in per_pass]) for name in per_pass[0]}
    for command in CLI_COMMANDS:
        values[f"cli.{command}.run_s"] = _median([_run_s(r, command) for r in untraced])
    references = [x for r in untraced + traced for c in r["commands"] for x in c["reference_s"]]
    values["host.speed"] = speed.speed(references)
    values["tracing_overhead_s"] = (_median([_run_s(r) for r in traced])
                                    - _median([_run_s(r) for r in untraced]))
    return values


# --- main -----------------------------------------------------------------------


def run(args) -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "leanforge", "cli.py")):
        raise BenchError(f"{root} holds no src/leanforge; run from a leanforge checkout")
    workload = WORKLOADS[args.workload]()
    ctx = Context(root, workload.name, args.seed)
    ctx.prepare()
    try:
        ctx.write_config(workload.build(ctx))
        setup_checks: List[Tuple[str, bool]] = []
        if workload.setup_commands:
            done = ctx.worker(workload.setup_commands, False, "setup")
            if any(c["exit"] != 0 for c in done["commands"]):
                raise BenchError(f"set-up commands failed: {done['commands']}")
            setup_checks = workload.check_setup(ctx)
            ctx.keep = set(os.listdir(ctx.out))
        workload.obt_records = len(workload.expected_passes())
        setup_times = [] if args.trace else measure_setup(ctx)

        results = []
        started = time.perf_counter()
        minimum = 2 if args.trace else 3
        while True:
            traced = bool(args.trace) and len(results) % 2 == 1
            results.append(run_pass(ctx, workload, traced))
            elapsed = time.perf_counter() - started
            if len(results) >= minimum and (elapsed >= args.seconds
                                            or elapsed >= MEASURE_CAP_S):
                break
    finally:
        ctx.stop()

    checks = list(setup_checks)
    first = next((r["digests"] for r in results if "digests" in r), None)
    for r in results:
        checks += r["checks"]
        checks.append(("artifacts byte-identical across passes", r.get("digests") == first))
    for name, digest in sorted((first or {}).items()):
        print(f"artifact {workload.name} {name} sha256:{digest}")
    untraced = [r for r in results if "trace" not in r]
    traced = [r for r in results if "trace" in r]
    for r in results:
        walls = " ".join(f"{c['command']}={c['wall_s']:.3f}s" for c in r["commands"])
        print(f"pass {'traced' if 'trace' in r else 'untraced'} {walls}")
    failed = [name for name, ok in checks if not ok]
    for name in sorted(set(failed)):
        print(f"check failed: {name}")
    if args.trace:
        values = per_layer(workload, untraced, traced)
        units = PER_LAYER
    else:
        values = end_to_end(untraced, setup_times)
        units = END_TO_END
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if not failed else 1


def main() -> int:
    # A terminated run still stops the stub and the worker it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
