"""Smoke test of the benchmark: every workload at a tiny size, one seed.

    python3 -m pytest perfbench/test_smoke.py

It checks that each end-to-end metric is printed with its unit, that no
case fails, that the traced run emits every per-layer metric of
BENCHMARK.json and wraps every function those rows name, and that the
benchmark refuses to run without the engine's sources.
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _exists(span_name):
    """Whether the function a span name points at exists in qdops."""
    layer, *path = span_name.split(".")
    obj = importlib.import_module(f"qdops.{layer}")
    for part in path:
        obj = getattr(obj, part, None)
        if obj is None:
            return False
    return True


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_printed(workload):
    p = _run(workload, 0)
    assert p.returncode == 0, p.stderr
    lines = p.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    # "  <name> <value> <unit>  (<note>)" between the header and the JSON
    printed = {t[0]: (t[1], t[2]) for t in (ln.split() for ln in lines[1:-1])
               if len(t) > 2}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed[m["name"]][1] == m["unit"]
    assert printed["fail_frac"] == ("0", "ratio")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric(workload):
    p = _run(workload, 1)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    record = json.loads((ROOT / ".perfbench_out"
                         / f"{workload}-seed{SEED}-trace1.json").read_text())
    assert not record["problems"]
    assert [n for n in record["missing_functions"] if _exists(n)] == []
    # only a cache that does not exist may go unmeasured
    assert all(n.startswith("cache.")
               and n.split(".")[1] not in record["caches_found"]
               for n in record["unmeasured"])


def test_refuses_without_sources():
    # a directory holding only BENCHMARK.json and perfbench/, kept inside
    # the checkout's (git-ignored) output directory
    bare = ROOT / ".perfbench_out" / "no-sources"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _run(WORKLOADS[0], 0, cwd=bare)
    assert p.returncode != 0
    assert p.stdout.strip() == ""
