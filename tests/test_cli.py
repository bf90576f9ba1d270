"""Command-line front end: output text, JSON schema, exit codes."""

import contextlib
import io
import json
import os
import pathlib
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qdops.cli import MAX_LEVEL, MAX_VARIABLES, main
from qdops.opexpr import _MAX_DEPTH, MAX_TEXT


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
    (["eval", "x1", "--ring", f"n={MAX_VARIABLES + 1}"], 2, "parse error"),
    (["eval", "q1/(q1+q2)", "--ring", "n=2"], 3, "DomainMismatch"),
    (["eval", "(q1+q2)^-1*x1", "--ring", "n=2"], 3, "DomainMismatch"),
    (["uq", "E*F", "--level", str(MAX_LEVEL + 1)], 2, "parse error"),
    (["uq", "E/E"], 3, "EngineError"),
    (["uq", "E/(q-q)"], 3, "DivisionByZero"),
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
    # kernel's degree budget refuses it before building anything.  Powers
    # square and multiply, so q^1000000 passes the budget within about 17
    # products and x^100000000 (no coefficient grows) is cheap; applying
    # s[1] to it needs q^100000000
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    for argv, rc in [(["eval", "D[10000000]"], 3), (["eval", "q^1000000"], 3),
                     (["eval", "q^99999"], 0), (["eval", "x^100000000"], 0),
                     (["apply", "s[1]", "x^100000000"], 3)]:
        t0 = time.monotonic()
        p = subprocess.run([sys.executable, "-m", "qdops.cli", *argv],
                           capture_output=True, text=True, timeout=60,
                           env=dict(os.environ, PYTHONPATH=path))
        assert time.monotonic() - t0 < 2.0, argv
        assert p.returncode == rc, argv
        assert p.stderr.startswith("BudgetExceeded: ") if rc else not p.stderr
        assert "Traceback" not in p.stderr


def test_huge_level_is_refused_at_once():
    # truncating at level 200 ran for over a minute; the cap refuses a
    # level past MAX_LEVEL before any truncation is built
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    t0 = time.monotonic()
    p = subprocess.run([sys.executable, "-m", "qdops.cli", "uq", "E*F",
                        "--level", "1000000"], capture_output=True, text=True,
                       timeout=60, env=dict(os.environ, PYTHONPATH=path))
    assert time.monotonic() - t0 < 2.0
    assert (p.returncode, p.stdout) == (2, "")
    assert "parse error" in p.stderr and "Traceback" not in p.stderr


def _at_most_1_gb():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_integrate_answer_text_is_a_typed_error_past_the_budget():
    # integrate's answer is a dag (39,503 distinct nodes for 9 letters)
    # that prints as a tree: 1.5 MB at 6 letters, 328 MB at 8.  Q is
    # printed before it is verified, so the text budget stops the run at
    # once; the address-space cap keeps a run without the budget from
    # exhausting the machine
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    for word, rc in [("1,2,-1,2,1,-2", 0), ("1,2,-1,2,1,-2,1,2,-1", 3)]:
        t0 = time.monotonic()
        p = subprocess.run([sys.executable, "-m", "qdops.cli", "integrate",
                            "--word", word, "--b", "1"], capture_output=True,
                           text=True, timeout=60, preexec_fn=_at_most_1_gb,
                           env=dict(os.environ, PYTHONPATH=path))
        assert time.monotonic() - t0 < 5.0, word
        assert p.returncode == rc, (word, p.stderr[-300:])
        if rc:
            assert p.stdout == ""
            assert p.stderr.startswith("BudgetExceeded: ")
        else:
            assert p.stdout.endswith("verification: PASS\n")


def test_golden_transcripts_stay_well_inside_the_text_budget():
    # a node's text is part of its parent's, so no node of a recorded
    # expression printed more than its transcript holds
    from test_cli_golden import _recorded
    for t in _recorded().values():
        assert len(t["stdout"]) + len(t["stderr"]) <= MAX_TEXT // 100, t["argv"]


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


def test_division_by_univariate_factors_in_several_variables(capsys):
    # (q1 - 1)(q2 - 1) multiplied out is a product of polynomials in one
    # q_i each, so it may divide; q1 + q2 may not (the table above)
    rc, out, err = run(capsys, "eval", "x1/(q1*q2-q1-q2+1)", "--ring", "n=2")
    assert (rc, err) == (0, "")
    assert out.strip() == "[e=(1, 0)] (1/(q1*q2 - q1 - q2 + 1))"


# the grammar's tokens; every exponent is one token, so |k| <= 4 unless
# parentheses nest powers
_OPERATOR_LEAVES = ["x", "tau", "s[1]", "s[-2]", "s[1,2]", "s[0,-1,1]", "D[0]",
                    "D[1]", "D[-1]", "x1", "x2", "x3", "D1[1]", "D2[-1]",
                    "D3[0]", "q", "q1", "q2", "q3", "0", "1", "2", "3"]
_UQ_LEAVES = ["E", "F", "K", "Kinv", "Ediv[2]", "Fdiv[1]", "Ediv[-1]", "q", "2"]
_POWERS = ["^0", "^1", "^2", "^4", "^-1", "^-4"]
_SYNTAX = ["+", "-", "*", "/", "(", ")", ",", "bracket("] + _POWERS
_RINGS = ["x", "y", "laurent", "n=1", "n=2", "n=3", "n=0", "n=two"]
_ARITY = {"eval": 1, "apply": 2, "bracket": 2, "simplicity-witness": 1, "uq": 1}


def _exprs(leaves):
    """Token soup, or a tree the grammar accepts, over the given leaves."""
    leaf = st.sampled_from(leaves)

    def compound(sub):
        return st.one_of(
            st.tuples(sub, st.sampled_from("+-*/"), sub).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(sub, st.sampled_from(_POWERS)).map(
                lambda t: f"({t[0]}){t[1]}"),
            st.tuples(sub, sub, st.integers(-2, 2)).map(
                lambda t: f"bracket({t[0]}, {t[1]}, {t[2]})"),
            sub.map(lambda a: f"-{a}"))

    soup = st.lists(st.sampled_from(leaves + _SYNTAX), min_size=1,
                    max_size=10).map(" ".join)
    return st.one_of(soup, st.recursive(leaf, compound, max_leaves=5))


@st.composite
def _cli_inputs(draw):
    cmd = draw(st.sampled_from(sorted(_ARITY)))
    argv = [cmd]
    if cmd in ("eval", "apply", "bracket") and draw(st.booleans()):
        argv += ["--ring", draw(st.sampled_from(_RINGS))]
    if cmd == "bracket" and draw(st.booleans()):
        argv += ["--twist", str(draw(st.integers(-4, 4)))]
    if cmd == "uq" and draw(st.booleans()):
        argv += ["--level", str(draw(st.integers(-1, 3)))]
    if draw(st.booleans()):
        argv.append("--json")
    expr = _exprs(_UQ_LEAVES if cmd == "uq" else _OPERATOR_LEAVES)
    # an expression may start with "-": it goes after "--"
    return argv + ["--"] + [draw(expr) for _ in range(_ARITY[cmd])]


@settings(derandomize=True, max_examples=400, deadline=10_000,
          suppress_health_check=[HealthCheck.too_slow])
@given(_cli_inputs())
def test_fuzzed_command_lines_end_in_a_typed_status(argv):
    # every exit is 0-3 (argparse's usage errors exit 2), never a traceback;
    # the deadline caps each example's wall-clock time
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    assert rc in (0, 1, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
