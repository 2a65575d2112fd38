"""One benchmark worker: a fresh interpreter running one closed-loop job stream.

Started by ``run.py`` from the root of a checkout.  The worker times its
own set-up (importing ``superder`` from the checkout's ``src`` and building
the first round of argv lists), then runs whole rounds of jobs one after
another on one thread, each through ``superder.cli.run_command`` with
stdout and stderr captured, until ``--seconds`` have passed and at least
``--min-jobs`` jobs are done (or exactly ``--max-jobs`` jobs, when given).
With ``--trace 1`` even rounds run with every layer wrapped and odd rounds
run untraced, which measures the tracing overhead on comparable work at
the same time.

Right before each job, outside its timed region, it times one pass of the
reference loop (``calibrate.py``), and after set-up a few more, so that
``run.py`` can scale every time to the machine's nominal speed.

It writes one JSON line per job to its standard output as the job ends
(outside the job's timed region), so the worker holds no outputs while it
runs and its peak RSS is the program's own; a final line carries set-up
time, loop time, peak RSS and, in a traced run, the per-layer totals.
"""

import sys
import time

T0 = time.perf_counter()

import os  # noqa: E402  (already loaded by the interpreter; set-up starts above)

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import superder  # noqa: E402
import superder.cli  # noqa: E402
import workloads  # noqa: E402


def _parse_args(argv):
    opts = {"--workload": None, "--seed": "0", "--seconds": "10", "--trace": "0",
            "--min-jobs": "0", "--max-jobs": "0", "--setup-only": None,
            "--spans": ""}
    it = iter(argv)
    for arg in it:
        if arg not in opts:
            raise SystemExit("worker: unknown argument %r" % arg)
        opts[arg] = True if arg == "--setup-only" else next(it)
    return opts


OPTS = _parse_args(sys.argv[1:])
STREAM = workloads.rounds(OPTS["--workload"], int(OPTS["--seed"]))
FIRST_ROUND = next(STREAM)
SETUP_S = time.perf_counter() - T0

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import calibrate  # noqa: E402

# Passes of the reference loop after set-up: one warm-up, then the median
# of the rest gives the machine's speed at the moment set-up was timed.
SETUP_REF_PASSES = 5

_NO_CACHE = SimpleNamespace(hits=0, misses=0, currsize=0)


def _emit(record):
    sys.__stdout__.write(json.dumps(record) + "\n")


def _check_source():
    """Refuse to measure a ``superder`` imported from outside the checkout."""
    where = os.path.realpath(superder.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit("worker: superder imported from %s, not from %s" % (where, SRC))


def main():
    _check_source()
    calibrate.loop_s()
    setup_ref_s = statistics.median(calibrate.loop_s() for _ in range(SETUP_REF_PASSES))
    if OPTS["--setup-only"]:
        _emit({"setup_s": SETUP_S, "setup_ref_s": setup_ref_s})
        return
    seconds = float(OPTS["--seconds"])
    min_jobs = int(OPTS["--min-jobs"])
    max_jobs = int(OPTS["--max-jobs"])
    # A run never overruns the benchmark's per-run time limit, even on a
    # machine too slow to reach --min-jobs.
    hard_stop = max(seconds, 100.0)
    tracer = None
    run_command = superder.cli.run_command
    min_rounds = 1
    if OPTS["--trace"] == "1":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(superder)
        # The bracket_terms counts come from its lru_cache statistics.
        cache_info = getattr(getattr(superder.algebra, "bracket_terms", None),
                             "cache_info", None)
        if cache_info is None:
            tracer.missing.append("algebra.bracket_terms.cache_info")
            cache_info = lambda: _NO_CACHE  # noqa: E731
        bt_hits = bt_misses = 0
        # Round 0 (traced) runs on cold caches; the overhead compares the
        # traced and untraced rounds after it, so at least one of each.
        min_rounds = 3

    clock = time.perf_counter
    index = 0
    rounds_done = 0
    batch = FIRST_ROUND
    loop_start = clock()
    while True:
        # A traced run traces even rounds and leaves odd rounds untraced.
        traced = tracer is not None and rounds_done % 2 == 0
        if traced:
            tracer.enable()
            before = cache_info()
        for job in batch:
            # The reference loop runs right before the job, outside its
            # timed region, and gives the machine's speed at that moment.
            ref = calibrate.loop_s()
            out, err = io.StringIO(), io.StringIO()
            error = None
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = clock()
                try:
                    if traced:
                        rc = tracer.run_job(index, job.tag, run_command, job.argv)
                    else:
                        rc = run_command(job.argv)
                except Exception as exc:  # a crashing job is a failed job
                    rc = None
                    error = "%s: %s" % (type(exc).__name__, exc)
                elapsed = clock() - start
            text = out.getvalue()
            _emit({"i": index, "round": rounds_done, "traced": traced, "rc": rc,
                   "s": elapsed, "ref": ref, "error": error,
                   "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
                   "out": text, "err": err.getvalue()})
            index += 1
            if max_jobs and index >= max_jobs:
                break
        if traced:
            tracer.disable()
            after = cache_info()
            bt_hits += after.hits - before.hits
            bt_misses += after.misses - before.misses
        rounds_done += 1
        wall = clock() - loop_start
        if max_jobs:
            if index >= max_jobs:
                break
        elif wall >= hard_stop or (wall >= seconds and index >= min_jobs
                                   and rounds_done >= min_rounds):
            break
        batch = next(STREAM)
    loop_s = clock() - loop_start
    ref_end = calibrate.loop_s()

    final = {"done": True, "jobs": index, "setup_s": SETUP_S,
             "setup_ref_s": setup_ref_s, "loop_s": loop_s, "ref_end": ref_end,
             "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        final["trace"] = {
            "calls": tracer.calls, "self_s": tracer.self_s,
            "tag_kernel_s": tracer.tag_kernel_s, "cells": tracer.cells,
            "nnz": tracer.nnz, "elements_built": tracer.elements_built,
            "triples": tracer.triples,
            "bracket_terms_hits": bt_hits, "bracket_terms_misses": bt_misses,
            "bracket_terms_entries": cache_info().currsize,
            "spans": len(tracer.spans), "missing": tracer.missing,
        }
        if OPTS["--spans"]:
            tracer.write_spans(OPTS["--spans"], loop_start)
    _emit(final)


if __name__ == "__main__":
    main()
