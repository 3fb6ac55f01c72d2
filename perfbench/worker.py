"""Runs leanforge commands in one process and reports what they cost.

Usage: python3 perfbench/worker.py SPEC.json

SPEC holds ``src`` (the directory holding the leanforge package to test),
``config``, ``commands`` (argument lists for ``leanforge.cli.main``, each
run with ``-c config``), ``trace`` and the ``result`` and ``spans`` paths.
The result file gets each command's exit code, its wall seconds, its CPU
seconds without the sampler's, the sampler's seconds, the reference runs
taken while it ran (see speed.py), the process's peak RSS and, when tracing,
the span summary.
"""

import gc
import json
import os
import resource
import sys
import time

import speed


def main() -> int:
    with open(sys.argv[1], "r", encoding="utf-8") as source:
        spec = json.load(source)
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    import leanforge

    if not os.path.abspath(leanforge.__file__).startswith(src + os.sep):
        print(f"leanforge imported from {leanforge.__file__}, not {src}", file=sys.stderr)
        return 2
    from leanforge import cli

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    commands = []
    sampler = speed.Sampler()
    sampler.start()
    reference = speed.reference_s()
    for argv in spec["commands"]:
        if tracer is not None:
            tracer.command = argv[0]
        sampled = sampler.cpu_s
        cpu = time.process_time()
        start = time.perf_counter()
        code = cli.main(list(argv) + ["-c", spec["config"]])
        end = time.perf_counter()
        sampled = sampler.cpu_s - sampled
        after = speed.reference_s()
        commands.append({"command": argv[0], "exit": code, "wall_s": end - start,
                         "cpu_s": time.process_time() - cpu - sampled, "sampler_s": sampled,
                         "reference_s": [reference, *sampler.between(start, end), after]})
        gc.collect()  # drop the command's objects, sockets included
        reference = speed.reference_s()
    sampler.stop()
    sys.stdout.flush()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {"commands": commands, "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if tracer is not None:
        result["trace"] = tracing.summarize(tracer)
        tracing.write_spans(tracer, spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as sink:
        json.dump(result, sink)
    return 0


if __name__ == "__main__":
    sys.exit(main())
