"""Correctness gate: every job is judged after the run, outside its timing.

Three layers of checks, each able to fail a job on its own:

* the exit code the job must return (honest oracles, sweeps, lemma suites
  and annihilators exit 0; adversarial oracles exit 1);
* the SHA-256 of the captured stdout, against digests recorded at the seed
  commit for the default seed's job stream (``digests.json``), which holds
  the program to byte-identical output wherever a job's argv was recorded
  (every sweep job, and the default seed's annihilate and globalize jobs);
* independent checks that do not trust the digest: every printed
  annihilator basis member is re-parsed and applied to the target, which
  must give exactly zero; every honest certificate's candidate must equal
  the derivation the oracle was built from, with ``mu`` equal to its
  ``lambda``; adversarial certificates must fail with a witness; a sweep
  must report zero violations over the independently counted number of
  triples; a lemma suite must pass every case.
"""

import json
import os
from fractions import Fraction

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")
# Digests are stored as the first 64 bits of the SHA-256, in hex: enough to
# catch any change of output, at a quarter of the file size.
DIGEST_CHARS = 16


def load_digests(workload):
    """argv (as a JSON string) -> recorded stdout digest, for every job of
    the recorded default-seed stream; other seeds share the sweep argvs."""
    with open(DIGESTS_PATH, "r", encoding="utf-8") as fh:
        recorded = json.load(fh)
    digests = recorded["workloads"].get(workload, [])
    jobs = workloads.jobs(workload, recorded["seed"], len(digests))
    return {json.dumps(job.argv): digest for job, digest in zip(jobs, digests)}


class Checker:
    def __init__(self, superder):
        self.sd = superder

    def family(self, tag):
        return self.sd.AlgebraFamily.from_tag(tag)

    def check(self, job, record):
        """The list of problems with one job's result (empty when correct)."""
        if record["error"] is not None:
            return ["raised %s" % record["error"]]
        problems = []
        if record["rc"] != job.expect_rc:
            problems.append("exit code %r, expected %d" % (record["rc"], job.expect_rc))
        try:
            problems += getattr(self, "_check_" + job.argv[0])(job, record["out"])
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append("unreadable output: %s: %s" % (type(exc).__name__, exc))
        return problems

    def _check_jacobi(self, job, out):
        if "--json" in job.argv:
            report = json.loads(out)
            violations, triples = report["violations"], report["triples"]
        else:
            head, _, tail = out.strip().partition(" violations / ")
            violations, triples = int(head), int(tail.split()[0])
        problems = []
        if violations != 0:
            problems.append("%d Jacobi violations" % violations)
        if triples != job.info["triples"]:
            problems.append("swept %d triples, expected %d" % (triples, job.info["triples"]))
        return problems

    def _check_lemma(self, job, out):
        if "--json" in job.argv:
            report = json.loads(out)
            ok = report["verdict"] == "pass" and all(c["pass"] for c in report["cases"])
        else:
            lines = out.strip().splitlines()
            ok = lines[-1] == "verdict: pass" and not any(l.endswith("FAIL") for l in lines)
        return [] if ok else ["lemma suite %s did not pass" % job.info["name"]]

    def _check_annihilate(self, job, out):
        sd = self.sd
        family = self.family(job.info["family"])
        report = json.loads(out)
        target = sd.parse_element(job.info["target"], family)
        problems = []
        if sd.parse_element(report["target"], family) != target:
            problems.append("printed target %r differs from the input" % report["target"])
        if Fraction(str(report["bound"])) != job.info["bound"]:
            problems.append("printed bound %r, expected %d" % (report["bound"], job.info["bound"]))
        if report["dimension"] != len(report["basis"]):
            problems.append("dimension %d but %d basis members"
                            % (report["dimension"], len(report["basis"])))
        for text in report["basis"]:
            d = sd.parse_derivation(text, family)
            if d.is_zero or not d.apply(target).is_zero:
                problems.append("basis member %r does not annihilate the target" % text)
        return problems

    def _check_globalize(self, job, out):
        sd = self.sd
        family = self.family(job.info["family"])
        cert = json.loads(out)
        if job.tag == "adversarial":
            if cert["verdict"] != "fail" or cert["failure_witness"] is None:
                return ["adversarial oracle %s passed" % job.info["kind"]]
            return []
        problems = []
        generator = sd.parse_derivation(job.info["derivation"], family)
        cand = cert["candidate"]
        candidate = sd.SuperDerivation(family, sd.parse_element(cand["inner"], family),
                                       Fraction(cand["lambda"]))
        if candidate != generator:
            problems.append("candidate %s differs from the generator" % cand)
        if Fraction(cert["mu"]) != Fraction(job.info["lambda"]):
            problems.append("mu %s differs from lambda %s" % (cert["mu"], job.info["lambda"]))
        if cert["verdict"] != "pass" or not all(c["pass"] for c in cert["checks"]):
            problems.append("honest certificate did not pass")
        return problems
