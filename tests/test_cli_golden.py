"""Golden CLI transcripts: exit status, stdout and stderr of `cli.main`
must match the recorded ones byte for byte.

The cases cover every subcommand that interprets an expression (eval,
apply, bracket, integrate on a shared-subtree answer, simplicity-witness,
uq with a truncation level), n-variable sums whose non-canonical scalars
print as the engine happened to add them, a few typed failures, and
`verify --json` for each of the fifteen suites at small seeded sizes.

To record the transcripts of the code on PYTHONPATH (only when an output
change is intended):

    PYTHONPATH=src python3 tests/test_cli_golden.py

The recorder first lists each existing transcript whose recorded output
it is about to change, so an unintended change shows before it is
committed.
"""

import contextlib
import io
import json
import pathlib

import pytest

from qdops.cli import main

GOLDEN = pathlib.Path(__file__).with_name("data") / "cli_golden.json"

SUITES = ("d0-commutative", "domain-sample", "eta1-surjectivity",
          "gamma-generators", "immediate-formulae", "integrate-exhaustive",
          "intrinsic-relations", "nonsurjectivity", "note-identities",
          "nvariables", "qcenter", "simplicity-random", "truncation",
          "uq-plane-consistency", "uq-relations")

CASES = [
    ["eval", "D[1]*x - q*x*D[1]"],
    ["eval", "tau*s[1]", "--json"],
    ["eval", "bracket(D[1], x^2, 1)/(q+1) - 2*s[-1]^-2"],
    ["eval", "x1*D2[1] - s[1,-1]*x2", "--ring", "n=2"],
    ["eval", "x*D[-1] + tau", "--ring", "y"],
    ["eval", "x^-1*D[0]", "--ring", "laurent"],
    ["apply", "D[1]", "x^3"],
    ["apply", "tau*s[1] + D[0]", "x^2 + q*x", "--json"],
    ["bracket", "D[1]", "x", "--twist", "0"],
    ["bracket", "D[1]", "x*x"],
    ["bracket", "D[-1]", "x^2*D[-1]", "--twist", "-2"],
    ["integrate", "--word", "2,-1,1", "--b", "3"],
    ["integrate", "--word", "2,-1,1", "--b", "3", "--json"],
    ["integrate", "--word", "1,-1,0", "--b", "0"],
    ["simplicity-witness", "s[2]*x^3"],
    ["simplicity-witness", "D[1]*x - q*x*D[1] + tau*D[-1]"],
    ["simplicity-witness", "(x + 1)*D[0]*s[-1]/(q+1)", "--json"],
    ["uq", "E*F - F*E", "--level", "2"],
    ["uq", "Ediv[2]*Fdiv[1] + K/q^-1 - Kinv^2"],
    ["uq", "bracket(E, F)/(q - q^-1)", "--json"],
    ["uq", "bracket(E, F)/(q - q^-1)", "--level", "3"],
    ["suites"],
    # typed failures
    ["eval", "D[1"],
    ["eval", "x^-1"],
    ["eval", "x/D[1]"],
    ["simplicity-witness", "D[2]*x"],
    ["simplicity-witness", "x/(x+1)"],
    ["uq", "E^-1"],
    ["uq", "bracket(E, F, 1)"],
] + [["verify", s, "--cases", "6", "--max-degree", "2", "--seed", "7",
      "--json"] for s in SUITES] + [
    # denominators that are products print parenthesized
    ["eval", "tau/(7*q^2)"],
    ["eval", "s[1]/7 + q^-2*tau"],
    ["eval", "3*s[1,1]*D1[0]*D2[0]", "--ring", "n=2"],
    # n-variable sums over different 1/(q_i - 1) denominators: scalars
    # are not canonical there, so these fix the order terms are added in
    ["eval", "D1[2]*x2 - 3*x1*D2[-1]", "--ring", "n=2"],
    ["eval", "D1[1]*x1*D1[2] + D2[1]*x2*D1[-1]", "--ring", "n=2"],
    ["eval", "D1[1]*D2[2] - D2[-1]*D1[3]*x1", "--ring", "n=2", "--json"],
    ["eval", "D1[1]*x1*D2[2] + D3[1]*x3*D1[-1] - D2[3]*x2",
     "--ring", "n=3"],
    ["eval", "s[1,2,3]*D3[2] + D1[-1]*D2[1]", "--ring", "n=3"],
    ["apply", "D1[2]*x2 - 3*x1*D2[-1]", "x1^2*x2 + x1*x2^2",
     "--ring", "n=2"],
    ["apply", "D1[2]*D2[-1] - D3[1]*x3", "x1^2*x2*x3^2", "--ring", "n=3"],
    ["bracket", "D1[1]*x2 - D2[-1]", "x1*x2 + x2^2", "--ring", "n=2",
     "--twist", "1"],
    # the scalars q1..qn of the n-variable rings
    ["eval", "3/(q1*q2)*x1 + q2^2*D2[1]/(q1 - 1)", "--ring", "n=2"],
    ["apply", "q3*D3[1] - x1/(q1*q2)", "x3^2 + x1", "--ring", "n=3"],
    ["eval", "q1"],
    ["eval", "q", "--ring", "n=2"],
]


def transcript(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return {"argv": list(argv), "rc": rc, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def _recorded():
    return {tuple(t["argv"]): t for t in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv", CASES, ids=lambda a: " ".join(a))
def test_cli_matches_golden(argv):
    want = _recorded()[tuple(argv)]
    assert transcript(argv) == want


if __name__ == "__main__":
    old = _recorded() if GOLDEN.exists() else {}
    new = [transcript(a) for a in CASES]
    for t in new:
        if old.get(tuple(t["argv"]), t) != t:
            print("changes recorded output:", " ".join(t["argv"]))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(new, indent=1) + "\n")
