"""Command-line front end: output text, JSON schema, exit codes."""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from qdops.cli import main
from qdops.opexpr import _MAX_DEPTH


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_apply(capsys):
    rc, out, _ = run(capsys, "apply", "D[1]", "x^3", "--ring", "x")
    assert rc == 0
    assert out.strip() == "(q^2 + q + 1)*x^2"


def test_bracket_decomposes_degree_zero(capsys):
    rc, out, _ = run(capsys, "bracket", "D[1]", "x", "--twist", "0")
    assert rc == 0
    assert out.strip() == "s[1]"


def test_bracket_nonzero_degree_prints_symbols(capsys):
    rc, out, _ = run(capsys, "bracket", "D[1]", "x*x")
    assert rc == 0
    assert out.startswith("[e=1]")


def test_eval_json_schema(capsys):
    rc, out, _ = run(capsys, "eval", "tau*s[1]", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert set(doc) == {"command", "inputs", "results", "verdict"}
    assert doc["command"] == "eval"
    assert doc["verdict"] == "OK"
    assert doc["results"] == [{"degree": 0, "symbol": "u*m"}]


def test_integrate(capsys):
    rc, out, _ = run(capsys, "integrate", "--word", "1", "--b", "0")
    assert rc == 0
    assert "Q = " in out and "PASS" in out
    rc, out, _ = run(capsys, "integrate", "--word", "2,-1", "--b", "3", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["verdict"] == "PASS"


def test_simplicity_witness(capsys):
    rc, out, _ = run(capsys, "simplicity-witness", "s[2]*x^3")
    assert rc == 0
    assert "scale by 1/6" in out
    assert "replays to the identity: PASS" in out


def test_uq(capsys):
    rc, out, _ = run(capsys, "uq", "E*F - F*E")
    assert rc == 0
    assert "glue: PASS" in out


def test_uq_with_truncation(capsys):
    rc, out, _ = run(capsys, "uq", "K", "--level", "2", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["verdict"] == "PASS"


def test_verify_runs_a_suite(capsys):
    rc, out, _ = run(capsys, "verify", "gamma-generators")
    assert rc == 0
    assert "PASS" in out


def test_verify_is_deterministic(capsys):
    args = ("verify", "d0-commutative", "--cases", "20", "--seed", "5", "--json")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_suites_lists_all(capsys):
    rc, out, _ = run(capsys, "suites")
    assert rc == 0
    names = out.split()
    assert "intrinsic-relations" in names
    assert "eta1-surjectivity" in names
    assert len(names) == 15


def test_parse_error_exits_2(capsys):
    rc, _, err = run(capsys, "eval", "D[1")
    assert rc == 2
    assert "parse error" in err


def test_engine_error_exits_3(capsys):
    # bracket of operators over different variable counts
    rc, _, err = run(capsys, "apply", "x", "y^2", "--ring", "n=2")
    assert rc == 3 or rc == 2
    rc, _, err = run(capsys, "eval", "x^-1")
    assert rc == 3
    assert "EngineError" in err or "error" in err


def test_unknown_suite_exits_3(capsys):
    rc, _, err = run(capsys, "verify", "no-such-suite")
    assert rc == 3
    assert "UnknownSuite" in err


@pytest.mark.parametrize("argv,rc,name", [
    (["eval", "x3", "--ring", "n=2"], 3, "UnsupportedGenerator"),
    (["eval", "x0", "--ring", "n=2"], 3, "UnsupportedGenerator"),
    (["eval", "D5[1]", "--ring", "n=2"], 3, "UnsupportedGenerator"),
    (["eval", "s[1,2,3]", "--ring", "n=2"], 3, "UnsupportedGenerator"),
    (["uq", "E", "--level", "-1"], 2, "parse error"),
    (["uq", "E", "--level", "0"], 2, "parse error"),
    (["eval", "q3", "--ring", "n=2"], 3, "UnsupportedGenerator"),
    (["eval", "q", "--ring", "n=2"], 3, "UnsupportedGenerator"),
    (["eval", "q1"], 3, "UnsupportedGenerator"),
    (["eval", "q1", "--ring", "y"], 3, "UnsupportedGenerator"),
])
def test_bad_input_is_a_typed_failure(capsys, argv, rc, name):
    got, out, err = run(capsys, *argv)
    assert (got, out) == (rc, "")
    assert name in err
    assert "Traceback" not in err


def _deep(n, kind):
    return {"parens": "(" * n + "x" + ")" * n, "minus": "-" * n + "x",
            "bracket": "bracket(" * n + "x" + ",x)" * n}[kind]


@pytest.mark.parametrize("kind", ["parens", "minus", "bracket"])
def test_nesting_up_to_the_limit_parses(capsys, kind):
    got, out, err = run(capsys, "eval", "--", _deep(_MAX_DEPTH, kind))
    assert (got, err) == (0, "")
    assert out.strip()


@pytest.mark.parametrize("argv", [
    ["eval", "--", _deep(_MAX_DEPTH + 1, "parens")],
    ["eval", "--", _deep(3000, "parens")],
    ["eval", "--", _deep(3000, "minus")],
    ["eval", "--", _deep(3000, "bracket")],
    ["uq", _deep(3000, "parens").replace("x", "E")],
    ["eval", "--", "(" * (_MAX_DEPTH - 1) + "-x^2" + ")" * (_MAX_DEPTH - 1)],
], ids=["limit+1", "parens", "minus", "bracket", "uq-parens", "minus-power"])
def test_nesting_past_the_limit_is_a_parse_error(capsys, argv):
    got, out, err = run(capsys, *argv)
    assert (got, out) == (2, "")
    assert "parse error" in err and "nesting deeper" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("expr", ["x", "(x+D[1]+s[2])^7"],
                         ids=["short", "long"])
def test_closed_pipe_exits_without_a_traceback(expr):
    # the reading end is closed before the command starts, so every
    # write to stdout fails as it would under `qdops eval ... | head -c 1`:
    # the short output fails at the final flush, the long one (17 kB,
    # past the stdout buffer) inside print
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    r, w = os.pipe()
    os.close(r)
    try:
        p = subprocess.run([sys.executable, "-m", "qdops.cli", "eval", expr],
                           stdout=w, stderr=subprocess.PIPE, text=True,
                           timeout=120, env=dict(os.environ, PYTHONPATH=path))
    finally:
        os.close(w)
    assert p.returncode == 1
    assert "Traceback" not in p.stderr and "BrokenPipeError" not in p.stderr


def test_huge_q_power_is_a_typed_error_at_once():
    # q^10^7 would be a dense polynomial of ten million coefficients; the
    # kernel's degree budget refuses it before building anything
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    t0 = time.monotonic()
    p = subprocess.run([sys.executable, "-m", "qdops.cli", "eval", "D[10000000]"],
                       capture_output=True, text=True, timeout=60,
                       env=dict(os.environ, PYTHONPATH=path))
    assert time.monotonic() - t0 < 2.0
    assert p.returncode == 3
    assert p.stderr.startswith("BudgetExceeded: ")
    assert "Traceback" not in p.stderr


def test_golden_transcripts_stay_well_inside_the_degree_budget(monkeypatch):
    # at a hundredth of the limit every recorded transcript, the fifteen
    # suites among them, still comes out byte for byte
    from qdops import _polykernel_py
    from test_cli_golden import CASES, _recorded, transcript
    monkeypatch.setattr(_polykernel_py, "MAX_DEGREE",
                        _polykernel_py.MAX_DEGREE // 100)
    want = _recorded()
    for argv in CASES:
        assert transcript(argv) == want[tuple(argv)], argv
