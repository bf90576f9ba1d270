"""One benchmark process: a single client in a closed loop.

    python3 perfbench/worker.py --workload W --seed S --pass-no P \
        --mode setup|run|trace [--budget-s T] [--limit N] [--sample K] \
        [--spans FILE]

run.py starts it with PYTHONPATH pointing at the checkout's src/.  It
imports qdops, builds the inputs of pass P and prints "ready"; that is
the end of set-up.  In run mode it then runs cases one after another
until their summed wall time reaches the budget or N cases are done,
checking each verdict between cases, outside the timed region.  In trace
mode it runs the first N cases with span tracing installed, writes the
spans to FILE and reports the per-layer summary.  K sampled cases among
the first ones are checked against sympy after the loop.  The last line
of stdout is one JSON object.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import time

import tracer as tracing
import workloads

DIGEST_CASES = 20


def _points(drop):
    """Exponents m at which x^m is probed: 0..4, plus the first ones that
    survive an operator lowering degree by `drop`."""
    return sorted(set(range(5)) | {drop, drop + 1})


def _drop(op):
    """How far the operator lowers the degree at most."""
    return max([0] + [-d for d in op.degrees()])


# Runners reach qdops through its modules at call time, never through
# names bound at start-up, so the wrappers a traced run installs later
# see every call.

class IntegrateVerify:
    """integrate(word, b), then verify_integration on its answer."""

    def __init__(self):
        from qdops import algorithms, opexpr
        self.alg, self.opexpr = algorithms, opexpr

    def run(self, case):
        word, b = case
        Q = self.alg.integrate(word, b)
        _, ok = self.alg.verify_integration(word, b, Q)
        return Q, ok

    def verdict(self, case, result):
        return result[1] is True

    def render(self, case, result):
        Q, ok = result
        return f"{case[0]} {case[1]} {self.opexpr.expr_str(Q)} {ok}"

    def probes(self, case, result):
        """[Q, x] and the right side P s[b], each against the engine's P."""
        word, b = case
        ex = self.opexpr
        lhs = ex.EBracket(result[0], ex.EGen("x"))
        rhs = self.alg.problem_expr(word, b)
        op = ex.evaluate(rhs)
        return [(lhs, op), (rhs, op)], _points(len(word))


class OperatorPowers:
    """parse -> evaluate -> operator_str on one expression."""

    def __init__(self):
        from qdops import opexpr, render
        import oracle
        self.opexpr, self.render_mod, self.oracle = opexpr, render, oracle
        self.ambiguous = 0     # printed results that misread as plain text

    def run(self, case):
        e = self.opexpr.parse(case)
        op = self.opexpr.evaluate(e)
        return e, op, self.render_mod.operator_str(op)

    def verdict(self, case, result):
        e, op, text = result
        self.ambiguous += self.oracle.ambiguous(text)
        return not self.oracle.rendered_mismatches(e, text,
                                                   _points(_drop(op)))

    def render(self, case, result):
        return f"{case} -> {result[2]}"

    def probes(self, case, result):
        e, op, _ = result
        return [(e, op)], _points(_drop(op))


class SuiteBattery:
    """One `qdops verify <suite> --json` invocation through cli.main."""

    def __init__(self):
        from qdops import cli, opexpr
        self.cli, self.opexpr = cli, opexpr

    def run(self, case):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(list(case))
        return rc, buf.getvalue()

    def verdict(self, case, result):
        rc, text = result
        report = json.loads(text)
        return (rc == 0 and report["verdict"] == "PASS"
                and report["inputs"]["suite"] == case[1]
                and all(c["passed"] for c in report["results"]))

    def render(self, case, result):
        return f"{' '.join(case)} -> {result[0]} {result[1]}"

    def probes(self, case, result):
        """The suites report verdicts, not operators, so the sample probes
        the engine beneath them: a word in x, s, D and tau drawn from the
        invocation's seed."""
        rng = random.Random(" ".join(case))
        atoms = ["x", "tau"] + [f"s[{a}]" for a in (-2, -1, 1, 2)] \
            + [f"D[{a}]" for a in range(-2, 3)]
        word = [rng.choice(atoms) for _ in range(rng.randint(2, 5))]
        e = self.opexpr.parse("*".join(word))
        return [(e, self.opexpr.evaluate(e))], _points(len(word))


RUNNERS = {
    "integrate-verify": IntegrateVerify,
    "operator-powers": OperatorPowers,
    "suite-battery": SuiteBattery,
}


def _check_verdict(runner, case, result):
    try:
        return bool(runner.verdict(case, result))
    except Exception:  # a verdict that cannot be read is a failed case
        return False


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-no", type=int, default=0)
    ap.add_argument("--mode", choices=("setup", "run", "trace"),
                    required=True)
    ap.add_argument("--budget-s", type=float, default=float("inf"))
    ap.add_argument("--limit", type=int, default=0)
    ap.add_argument("--sample", type=int, default=0)
    ap.add_argument("--spans", default="")
    args = ap.parse_args(argv)

    import qdops
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(qdops.__file__).startswith(src + os.sep):
        print(f"qdops imported from {qdops.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    runner = RUNNERS[args.workload]()
    cases = workloads.cases(args.workload, args.seed, args.pass_no)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    if args.limit:
        cases = cases[:args.limit]
    rng = workloads.pass_rng(args.workload, args.seed, args.pass_no)
    sample = set(rng.sample(range(min(len(cases), DIGEST_CASES)),
                            min(args.sample, len(cases))))
    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracer.install()

    kept = {}                  # index -> result, for verdicts/digest/oracle
    latencies, verdicts = [], []
    loop_s = 0.0
    clock = time.perf_counter
    for i, case in enumerate(cases):
        if loop_s >= args.budget_s:
            break
        if tracer is not None:
            tracer.case = i
        t0 = clock()
        try:
            result = runner.run(case)
        except Exception as exc:  # counted as a failed case
            result = exc
        dt = clock() - t0
        loop_s += dt
        latencies.append(dt * 1000.0)
        if tracer is not None or i < DIGEST_CASES or i in sample:
            kept[i] = result
        if tracer is None:
            verdicts.append(not isinstance(result, Exception)
                            and _check_verdict(runner, case, result))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    done = len(latencies)

    out = {"backend": qdops.BACKEND, "cases": done, "loop_s": loop_s,
           "latencies_ms": latencies, "peak_rss_mb": peak_rss_mb,
           "exhausted": done == len(cases)}
    if tracer is not None:
        tracer.uninstall()
        per_layer = tracer.summary(loop_s)
        caches = tracing.cache_entries()
        if args.spans:
            tracer.write(args.spans, {"workload": args.workload,
                                      "seed": args.seed, "cases": done})
        closure = sum(per_layer[f"{layer}.self_s"]
                      for layer in tracing.LAYERS) \
            + per_layer["unattributed.self_s"]
        out.update(per_layer=per_layer, caches=caches,
                   missing=tracer.missing, stale=tracer.stale,
                   closure_err_s=closure - loop_s,
                   spans_balanced=tracer.stack == [-1])
        verdicts = [not isinstance(kept[i], Exception)
                    and _check_verdict(runner, cases[i], kept[i])
                    for i in range(done)]

    out["failed"] = verdicts.count(False)
    out["render_ambiguous"] = getattr(runner, "ambiguous", 0)
    out["failed_cases"] = [str(cases[i]) for i, v in enumerate(verdicts)
                           if not v][:5]
    h = hashlib.sha256()
    digest_n = min(done, DIGEST_CASES)
    for i in range(digest_n):
        r = kept[i]
        text = repr(r) if isinstance(r, Exception) \
            else runner.render(cases[i], r)
        h.update(f"{text}\n{verdicts[i]}\n".encode())
    out["digest"], out["digest_cases"] = h.hexdigest(), digest_n

    if args.mode == "run" and sample:
        import oracle
        field = oracle.SympyField()
        checked, bad_cases, bad = 0, 0, []
        for i in sorted(sample):
            r = kept.get(i)
            if r is None or isinstance(r, Exception):
                continue
            try:
                pairs, points = runner.probes(cases[i], r)
                miss = oracle.mismatches(pairs, points, field)
            except Exception as exc:  # an unreadable probe is a mismatch
                miss = [(str(cases[i]), repr(exc))]
            checked += 1
            bad_cases += bool(miss)
            bad += miss
        out["oracle"] = {"cases": checked, "failed_cases": bad_cases,
                         "mismatches": bad[:5]}
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
