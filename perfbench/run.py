"""superder benchmark: closed-loop CLI workloads, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {sweep,annihilate,globalize} \\
        --seed N --seconds S --trace {0,1}

Each workload is a seeded stream of real ``superder`` CLI invocations (see
``workloads.py`` and ``README.md``), run in-process through
``superder.cli.run_command`` by one worker process on one thread: the next
job starts when the previous one returns.  Every worker is a fresh
interpreter, so the program's process-global caches start empty, as they do
for a CLI user.

``--trace 0`` reports the end-to-end metrics: set-up time (the median over
several fresh interpreters), jobs per second, median and 90th-percentile
job latency, and the worker's peak RSS.  Every time is scaled to the
machine's nominal speed by a reference loop timed next to it
(``calibrate.py``); the unscaled wall-clock figures are in the meta line.
``--trace 1`` runs the same stream with every layer boundary wrapped
(``tracing.py``) in alternate rounds, reports the per-layer metrics of the
traced rounds, and the tracing overhead against the untraced rounds
between them.  Every job of either run passes through the correctness
gate (``checks.py``) after the worker has exited.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
(``# meta {...}``) records the run's metadata and sample counts.  Without a
``src/superder`` package in the working directory the benchmark exits with
code 2 and prints no result.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

import workloads
from calibrate import NOMINAL_S
from tracing import JOB_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")

# A 90th percentile needs at least ten samples beyond it.
MIN_JOBS = 110
# Fresh interpreters timed for set-up, after one discarded warm-up that
# leaves compiled bytecode behind: half before the measured worker and half
# after it, so that a slow spell of the machine does not hit them all; the
# measured worker adds one more sample.
SETUP_PROBES = 10
SETUP_TIMEOUT_S = 20
# Reference-loop passes on each side of a job that give the machine's
# speed while the job ran: their median ignores a pass that a brief stall
# hit, and the window is short next to the machine's slow and fast spells.
REF_RADIUS = 2
# Together with the set-up probes and the checks, a run ends well within
# the benchmark's limit of 180 s.
WORKER_TIMEOUT_S = 140


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _worker_env():
    """Workers load compiled bytecode as an installed CLI does, and use one
    fixed string-hash seed so that set iteration order is the same in every
    run; neither changes any output."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(root, workload, seed, *extra, timeout=WORKER_TIMEOUT_S):
    """Run one worker to completion; return (job records, final record)."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
    cmd += [str(x) for x in extra]
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=timeout, env=_worker_env())
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out after %d s" % timeout) from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("worker failed (exit %d): %s"
                         % (proc.returncode, proc.stderr.strip()[-2000:]))
    records = [json.loads(line) for line in lines]
    return records[:-1], records[-1]


def _scaled(seconds, ref_s):
    """A time measured while the reference loop took ``ref_s``, scaled to
    the loop's nominal speed (see ``calibrate.py``)."""
    return seconds * NOMINAL_S / ref_s


def _setup_samples(root, workload, seed, count):
    """(raw, scaled) set-up times of ``count`` fresh interpreters."""
    samples = []
    for _ in range(count):
        final = run_worker(root, workload, seed, "--setup-only", timeout=SETUP_TIMEOUT_S)[1]
        samples.append((final["setup_s"], _scaled(final["setup_s"], final["setup_ref_s"])))
    return samples


def _scaled_job_s(records, final):
    """Each job's time scaled by the median of the reference passes within
    REF_RADIUS of it: ``refs[i]`` ran right before job ``i`` and
    ``refs[i + 1]`` right after it."""
    refs = [r["ref"] for r in records] + [final["ref_end"]]
    scaled = []
    for i, record in enumerate(records):
        near = refs[max(0, i - REF_RADIUS):i + REF_RADIUS + 1]
        scaled.append(_scaled(record["s"], statistics.median(near)))
    return scaled


def _quantiles(samples):
    """(p50, p90, samples beyond p90) of per-job latencies."""
    deciles = statistics.quantiles(samples, n=10, method="inclusive")
    p90 = deciles[8]
    return statistics.median(samples), p90, sum(1 for s in samples if s > p90)


def _gate(root, workload, seed, records):
    """Check every job; return (jobs, problems of each failed job, digest-checked count)."""
    sys.path.insert(0, os.path.join(root, "src"))
    import superder
    from checks import DIGEST_CHARS, Checker, load_digests

    checker = Checker(superder)
    digests = load_digests(workload)
    stream = workloads.jobs(workload, seed, len(records))
    failures = {}
    digest_checked = 0
    for job, record in zip(stream, records):
        problems = checker.check(job, record)
        expected = digests.get(json.dumps(job.argv))
        if expected is not None:
            digest_checked += 1
            if record["sha256"][:DIGEST_CHARS] != expected:
                problems.append("stdout digest differs from the recorded one")
        if problems:
            failures[record["i"]] = {"argv": job.argv, "problems": problems}
    return stream, failures, digest_checked


def _read_commit(root):
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, *ref.split("/"))
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(root):
    pkg = os.path.join(root, "src", "superder")
    h = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _metadata(root, args, stream, records):
    tags, tag_s = {}, {}
    for job, record in zip(stream, records):
        tags[job.tag] = tags.get(job.tag, 0) + 1
        tag_s[job.tag] = tag_s.get(job.tag, 0.0) + record["s"]
    total_s = sum(tag_s.values())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "commit": _read_commit(root), "src_sha256": _source_digest(root),
        "jobs": len(records), "jobs_by_tag": tags,
        "job_share_by_tag": {t: n / len(records) for t, n in tags.items()},
        "time_share_by_tag": {t: v / total_s for t, v in tag_s.items()},
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(root, args):
    _setup_samples(root, args.workload, args.seed, 1)
    setup = _setup_samples(root, args.workload, args.seed, SETUP_PROBES // 2)
    records, final = run_worker(root, args.workload, args.seed, "--seconds", args.seconds,
                                "--min-jobs", MIN_JOBS)
    setup.append((final["setup_s"], _scaled(final["setup_s"], final["setup_ref_s"])))
    setup += _setup_samples(root, args.workload, args.seed, SETUP_PROBES // 2)
    scaled = _scaled_job_s(records, final)
    p50, p90, beyond = _quantiles(scaled)
    metrics = {
        "setup_s": _metric(statistics.median(s for _, s in setup), "s"),
        "jobs_per_s": _metric(len(records) / sum(scaled), "1/s"),
        "job_ms.p50": _metric(p50 * 1e3, "ms"),
        "job_ms.p90": _metric(p90 * 1e3, "ms"),
        "peak_rss_mb": _metric(final["peak_rss_mb"], "MB"),
    }
    # The same statistics of the unscaled wall-clock times, for reference.
    wall = [r["s"] for r in records]
    wall_p50, wall_p90, _ = _quantiles(wall)
    refs = [r["ref"] for r in records]
    samples = {"setup_s": len(setup), "job_ms": len(scaled),
               "job_ms.p90_beyond": beyond, "loop_s": final["loop_s"],
               "wall": {"setup_s": statistics.median(w for w, _ in setup),
                        "jobs_per_s": len(records) / sum(wall),
                        "job_ms.p50": wall_p50 * 1e3, "job_ms.p90": wall_p90 * 1e3},
               "ref_ms": {"nominal": NOMINAL_S * 1e3,
                          "min": min(refs) * 1e3,
                          "median": statistics.median(refs) * 1e3,
                          "max": max(refs) * 1e3}}
    return records, metrics, samples


def _overhead(records, scaled):
    """Mean traced job time over mean untraced job time, minus one, over the
    pairs of rounds (1, 2), (3, 4), ... that follow the cold round 0; job
    times are scaled to the reference loop's nominal speed."""
    last = max(r["round"] for r in records)
    last -= last % 2
    paired = [(r, s) for r, s in zip(records, scaled) if 1 <= r["round"] <= last]
    traced = [s for r, s in paired if r["traced"]]
    plain = [s for r, s in paired if not r["traced"]]
    if not traced or not plain:
        raise BenchError("the traced run completed too few rounds to measure overhead")
    return statistics.fmean(traced) / statistics.fmean(plain) - 1, len(traced), len(plain)


def _per_layer(root, args):
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, "spans-%s-seed%d.json" % (args.workload, args.seed))
    records, final = run_worker(root, args.workload, args.seed, "--seconds", args.seconds,
                                "--trace", 1, "--spans", spans)
    overhead, n_traced, n_plain = _overhead(records, _scaled_job_s(records, final))
    t = final["trace"]
    calls, self_s = t["calls"], t["self_s"]
    traced_records = [r for r in records if r["traced"]]
    traced_s = sum(r["s"] for r in traced_records)
    bt_calls = t["bracket_terms_hits"] + t["bracket_terms_misses"]
    solves = calls.get("annihilator.annihilator_basis", 0)
    jobs = len(traced_records)
    stream = workloads.jobs(args.workload, args.seed, len(records))
    tag_jobs = {tag: sum(1 for j, r in zip(stream, records) if r["traced"] and j.tag == tag)
                for tag in ("homogeneous", "mixed")}

    # Counts and self times are per traced job, so that runs completing
    # different numbers of (identical) rounds compare directly.
    def per_job(value, unit):
        return _metric(value / jobs, unit + "/job")

    def count(layer):
        return per_job(calls.get(layer, 0), "1")

    def secs(layer):
        return per_job(self_s.get(layer, 0.0), "s")

    def ratio(num, den):
        return _metric(num / den if den else 0.0, "ratio")

    def tag_kernel(tag):
        return _metric(t["tag_kernel_s"].get(tag, 0.0) / tag_jobs[tag] if tag_jobs[tag] else 0.0,
                       "s/job")

    metrics = {
        "cli.run_command.self_s": secs(JOB_LAYER),
        "expr.parse.calls": count("expr.parse"),
        "expr.parse.self_s": secs("expr.parse"),
        "expr.format_element.calls": count("expr.format_element"),
        "expr.format_element.self_s": secs("expr.format_element"),
        "algebra.bracket_terms.calls": per_job(bt_calls, "1"),
        "algebra.bracket_terms.hit_ratio": ratio(t["bracket_terms_hits"], bt_calls),
        "algebra.bracket_terms.cache_entries": _metric(t["bracket_terms_entries"], "count"),
        "algebra.bracket.calls": count("algebra.bracket"),
        "algebra.bracket.self_s": secs("algebra.bracket"),
        "algebra.elements_built": per_job(t["elements_built"], "1"),
        "derivations.apply.calls": count("derivations.apply"),
        "derivations.apply.self_s": secs("derivations.apply"),
        "linalg.kernel_basis.calls": count("linalg.kernel_basis"),
        "linalg.kernel_basis.self_s": secs("linalg.kernel_basis"),
        "linalg.kernel_basis.self_s.homogeneous": tag_kernel("homogeneous"),
        "linalg.kernel_basis.self_s.mixed": tag_kernel("mixed"),
        "linalg.kernel_basis.job_share": ratio(self_s.get("linalg.kernel_basis", 0.0), traced_s),
        "linalg.cells": per_job(t["cells"], "1"),
        "linalg.nnz": per_job(t["nnz"], "1"),
        "linalg.fill_ratio": ratio(t["nnz"], t["cells"]),
        "annihilator.annihilator_basis.calls": count("annihilator.annihilator_basis"),
        "annihilator.annihilator_basis.self_s": secs("annihilator.annihilator_basis"),
        "annihilator.evaluation_matrix.self_s": secs("annihilator.evaluation_matrix"),
        "annihilator.cache_hit_ratio": ratio(
            solves - calls.get("annihilator.evaluation_matrix", 0), solves),
        "two_local.globalize.self_s": secs("two_local.globalize"),
        "two_local.oracle_query.calls": count("two_local.oracle_query"),
        "two_local.oracle_query.self_s": secs("two_local.oracle_query"),
        "two_local.checked_query.self_s": secs("two_local.checked_query"),
        "two_local.certificate_to_json.self_s": secs("two_local.certificate_to_json"),
        "lemmas.jacobi_sweep.self_s": secs("lemmas.jacobi_sweep"),
        "lemmas.triples": per_job(t["triples"], "1"),
        "trace.job_s": per_job(traced_s, "s"),
        "trace.overhead_frac": _metric(overhead, "ratio"),
    }
    samples = {"job_ms": len(records), "traced_jobs": jobs,
               "overhead_jobs": {"traced": n_traced, "untraced": n_plain},
               "stored_spans": t["spans"], "spans_file": os.path.relpath(spans, root),
               "missing_layers": t["missing"]}
    return records, metrics, samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "superder", "__init__.py")):
        print("perfbench: no src/superder package under %s; run from the root "
              "of a superder checkout" % root, file=sys.stderr)
        return 2
    try:
        if args.trace:
            records, metrics, samples = _per_layer(root, args)
        else:
            records, metrics, samples = _end_to_end(root, args)
        stream, failures, digest_checked = _gate(root, args.workload, args.seed, records)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1

    meta = _metadata(root, args, stream, records)
    meta["samples"] = samples
    meta["digest_checked"] = digest_checked
    meta["failed_frac"] = len(failures) / len(records)
    meta["failures"] = dict(list(failures.items())[:5])
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
