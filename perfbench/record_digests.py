"""Record the stdout digests that the correctness gate compares against.

Usage, from the root of a checkout whose output is known to be right:

    python3 perfbench/record_digests.py [WORKLOAD ...]

Runs the first jobs of each named workload's stream (all workloads by
default) for the default seed in a fresh worker, refuses to record if any
job fails the exit-code or independent checks, and writes their digests
to ``perfbench/digests.json``, keeping those of the other workloads.  Re-record only
in a change whose purpose is to alter the program's output.
"""

import json
import os
import sys

import run
import workloads
from checks import DIGEST_CHARS, DIGESTS_PATH, Checker

DEFAULT_SEED = 0
# Several times the jobs one run completes at the seed commit, so that a
# faster program still meets recorded digests for the default seed.
RECORDED_JOBS = {"sweep": 15 * 20, "annihilate": 26 * 40 + 5, "globalize": 33 * 80}


def main():
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import superder

    checker = Checker(superder)
    recorded = {}
    if os.path.exists(DIGESTS_PATH):
        with open(DIGESTS_PATH, encoding="utf-8") as fh:
            recorded = json.load(fh)["workloads"]
    for workload in sys.argv[1:] or workloads.WORKLOADS:
        if workload not in RECORDED_JOBS:
            raise SystemExit("unknown workload %r" % workload)
        count = RECORDED_JOBS[workload]
        records, _ = run.run_worker(root, workload, DEFAULT_SEED, "--max-jobs", count,
                                    timeout=600)
        stream = workloads.jobs(workload, DEFAULT_SEED, count)
        for job, record in zip(stream, records):
            problems = checker.check(job, record)
            if problems:
                raise SystemExit("%s job %d %s: %s" % (workload, record["i"], job.argv,
                                                        "; ".join(problems)))
        recorded[workload] = [r["sha256"][:DIGEST_CHARS] for r in records]
        print("%s: %d digests" % (workload, len(records)))
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump({"seed": DEFAULT_SEED, "workloads": recorded}, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main()
