"""Benchmark of qdops through its public API.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the root of a checkout: the engine is imported from ./src.
Workloads (see workloads.py for the inputs and why each was chosen):

  integrate-verify  algorithms.integrate + verify_integration over the
                    criterion-6 words; tiny kernel operands, shared DAGs
  operator-powers   opexpr.parse -> evaluate -> render.operator_str on
                    high powers, towers and q-chains; long operands
  suite-battery     `qdops verify <suite> --json` through cli.main for the
                    14 suites other than integrate-exhaustive

Every timed run is one client in a closed loop in a fresh interpreter
(worker.py): one process, one thread, one case at a time.  Set-up is
measured apart: SETUP_SAMPLES fresh interpreters import qdops and build
the inputs, and the median time from process start to "ready" is setup_s.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1
runs the first cases of the pass twice, untraced and then traced (spans
around every public function of every module, tracer.py), and prints the
per-layer metrics with the tracing overhead.  Every case's verdict must
pass, and a seeded sample is checked pointwise against sympy (oracle.py).

Human-readable lines come first; the last line of stdout is the JSON
result.  A fuller record of the run goes to .perfbench_out/.  The exit
status is 0 when every output was correct, 1 when one was not, and 2 when
the run could not be made (no ./src/qdops, a worker that died).
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
ORACLE_SAMPLE = 3
# traced cases per second of --seconds: the traced prefix is fixed by the
# seed and --seconds alone, so its counts repeat exactly from run to run
TRACE_CASES_PER_S = {"integrate-verify": 3, "operator-powers": 8,
                     "suite-battery": 1}
RUN_LIMIT_S = 170.0
OUT_DIR = ".perfbench_out"


class WorkerFailed(Exception):
    pass


class Bench:
    def __init__(self, root, workload, seed, deadline):
        self.root, self.workload, self.seed = root, workload, seed
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep
                        .join([str(root / "src")]
                              + ([os.environ["PYTHONPATH"]]
                                 if os.environ.get("PYTHONPATH") else [])))

    def spawn(self, mode, pass_no=0, **opts):
        """Start a worker; returns (seconds from start to ready, result)."""
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--pass-no", str(pass_no), "--mode", mode]
        for key, value in opts.items():
            cmd += [f"--{key.replace('_', '-')}", str(value)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                env=self.env, cwd=self.root)
        watchdog = threading.Timer(max(0.0, self.deadline - time.monotonic()),
                                   proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            ready_s = time.perf_counter() - t0
            rest = proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
        finally:
            watchdog.cancel()
            proc.stdout.close()
            proc.wait()
        if proc.returncode != 0 or first.strip() != "ready":
            raise WorkerFailed(f"worker {mode} pass {pass_no} exited with "
                               f"{proc.returncode}")
        lines = rest.strip().splitlines()
        return ready_s, (json.loads(lines[-1]) if lines else None)


def tail(latencies):
    """(percentile, value, cases beyond): the highest percentile with at
    least ten cases beyond it, i.e. the eleventh-largest latency (the
    median when there are fewer than twenty cases)."""
    xs = sorted(latencies)
    n = len(xs)
    rank = max((n + 1) // 2, n - 10)     # 1-based, ascending
    return 100.0 * rank / n, xs[rank - 1], n - rank


def timed_run(bench, seconds):
    """End-to-end metrics: set-up samples, then passes until the summed
    case time reaches `seconds` (cut there, or at the end of the pass for
    workloads.WHOLE_PASSES)."""
    bench.spawn("setup")          # warms bytecode and file caches
    # set-up samples before and after the cases, so that one slow spell
    # of the machine does not cover all of them
    before = SETUP_SAMPLES // 2 + 1
    setups = [bench.spawn("setup")[0] for _ in range(before)]
    whole = bench.workload in workloads.WHOLE_PASSES
    results, used, pass_no = [], 0.0, 0
    while used < seconds:
        budget = float("inf") if whole else seconds - used
        _, r = bench.spawn("run", pass_no, budget_s=budget,
                           sample=ORACLE_SAMPLE if pass_no == 0 else 0)
        results.append(r)
        used += r["loop_s"]
        pass_no += 1
        if not r["exhausted"] or not r["cases"]:
            break
    setups += [bench.spawn("setup")[0] for _ in range(SETUP_SAMPLES - before)]
    latencies = [x for r in results for x in r["latencies_ms"]]
    p, tail_ms, beyond = tail(latencies)
    first = results[0]
    oracle = first.get("oracle", {"cases": 0, "failed_cases": 0})
    failed = sum(r["failed"] for r in results) + oracle["failed_cases"]
    metrics = {
        "cases_per_s": len(latencies) / used,
        "case_p50_ms": statistics.median(latencies),
        "case_tail_ms": tail_ms,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }
    record = {
        "cases": len(latencies), "failed": failed, "measured_s": used,
        "passes": len(results), "tail_percentile": p, "tail_beyond": beyond,
        "setup_samples_s": setups, "digest": first["digest"],
        "digest_cases": first["digest_cases"], "oracle": oracle,
        "backends": sorted({r["backend"] for r in results}),
        "failed_cases": [c for r in results for c in r["failed_cases"]][:5],
        "render_ambiguous": sum(r["render_ambiguous"] for r in results),
    }
    return metrics, record


def traced_run(bench, seconds, spans_path):
    """Per-layer metrics: the same prefix untraced, then traced."""
    limit = max(2, round(TRACE_CASES_PER_S[bench.workload] * seconds))
    _, base = bench.spawn("run", limit=limit, sample=ORACLE_SAMPLE)
    _, traced = bench.spawn("trace", limit=limit, spans=spans_path)
    oracle = base.get("oracle", {"cases": 0, "failed_cases": 0})
    metrics = dict(traced["per_layer"])
    for name, entries in traced["caches"].items():
        metrics[f"cache.{name}.entries"] = entries
    base_rate = base["cases"] / base["loop_s"]
    traced_rate = traced["cases"] / traced["loop_s"]
    metrics.update({
        "trace.overhead": traced_rate / base_rate,
        "trace.cases_per_s": traced_rate,
        "trace.untraced_cases_per_s": base_rate,
        "trace.run_s": traced["loop_s"],
        "trace.cases": traced["cases"],
    })
    problems = []
    if traced["cases"] != base["cases"]:
        problems.append("traced and untraced runs covered different cases")
    if traced["digest"] != base["digest"]:
        problems.append("tracing changed the outputs")
    if abs(traced["closure_err_s"]) > 1e-6 * max(1.0, traced["loop_s"]):
        problems.append("layer self times do not add up to the run time")
    if not traced["spans_balanced"]:
        problems.append("unbalanced spans")
    if traced["stale"]:
        problems.append(f"unwrapped bindings: {traced['stale']}")
    record = {
        "cases": base["cases"] + traced["cases"],
        "failed": base["failed"] + traced["failed"] + oracle["failed_cases"],
        "digest": base["digest"], "digest_cases": base["digest_cases"],
        "oracle": oracle, "backends": sorted({base["backend"],
                                              traced["backend"]}),
        "missing_functions": traced["missing"], "problems": problems,
        "caches_found": traced["caches"], "spans_file": spans_path,
        "failed_cases": (base["failed_cases"] + traced["failed_cases"])[:5],
        "render_ambiguous": base["render_ambiguous"],
        "layer_metrics": traced["per_layer"],
    }
    return metrics, record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    # a terminated run still stops and reaps its worker (see Bench.spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "qdops" / "__init__.py").is_file():
        print("perfbench: no src/qdops here; run from a qdops checkout",
              file=sys.stderr)
        return 2
    if not spec_path.is_file():
        print("perfbench: no BENCHMARK.json here", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2

    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    bench = Bench(root, args.workload, args.seed,
                  time.monotonic() + RUN_LIMIT_S)
    try:
        if args.trace:
            values, record = traced_run(
                bench, args.seconds, str(out_dir / f"spans-{stem}.bin"))
        else:
            values, record = timed_run(bench, args.seconds)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    rows = spec["per_layer"] if args.trace else spec["end_to_end"]
    # a row with nothing behind it (a cache a later version dropped) reads 0
    metrics = {r["name"]: {"value": values.get(r["name"], 0),
                           "unit": r["unit"]} for r in rows}
    record["unmeasured"] = [r["name"] for r in rows if r["name"] not in values]
    fail_frac = record["failed"] / max(1, record["cases"])
    backends = record["backends"]
    correct = (record["failed"] == 0 and len(backends) == 1
               and not record.get("problems"))
    record.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  backend=backends[0] if len(backends) == 1 else backends,
                  fail_frac=fail_frac, correct=correct, metrics=metrics)
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"backend={record['backend']}")
    for name, m in metrics.items():
        note = ""
        if name == "case_tail_ms":
            note = (f"  (p{record['tail_percentile']:.1f}, "
                    f"{record['tail_beyond']} cases beyond, "
                    f"{record['cases']} cases)")
        elif name == "setup_s":
            note = f"  (median of {SETUP_SAMPLES} fresh interpreters)"
        elif name == "cases_per_s":
            note = (f"  ({record['cases']} cases in "
                    f"{record['measured_s']:.2f} s, "
                    f"{record['passes']} pass(es))")
        elif name == "trace.overhead":
            note = (f"  (traced {values['trace.cases_per_s']:.3f} / untraced "
                    f"{values['trace.untraced_cases_per_s']:.3f} cases/s)")
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}{note}")
    oracle = record["oracle"]
    print(f"  {'fail_frac':34s} {fail_frac:.6g} ratio  ({record['failed']} "
          f"of {record['cases']} failed; oracle: {oracle['cases']} sampled "
          f"cases, {oracle['failed_cases']} mismatched)")
    print(f"  {'output_digest':34s} {record['digest']} "
          f"(first {record['digest_cases']} cases)")
    if record.get("render_ambiguous"):
        print(f"  note: {record['render_ambiguous']} printed results have a "
              f"denominator like 7*q^2 without parentheses (read as N/D)")
    for problem in record.get("problems", []):
        print(f"  problem: {problem}")
    for case in record["failed_cases"]:
        print(f"  failed: {case}")
    print(json.dumps({"correct": correct, "attempted": record["cases"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
