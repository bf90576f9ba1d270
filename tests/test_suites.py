"""Every named verification suite runs and passes at small parameters, and
one failing case fails its row and the verdict."""

import itertools
import json

import pytest

from qdops import suites
from qdops.cli import main
from qdops.suites import verify_suite, suite_names
from qdops.errors import UnknownSuite

# small-but-nontrivial parameters so the whole registry stays fast here;
# the acceptance tests run the contractual sizes
CHEAP = {
    "note-identities": dict(max_degree=3),
    "intrinsic-relations": dict(cases=40),
    "d0-commutative": dict(cases=25),
    "domain-sample": dict(cases=25),
    "qcenter": dict(cases=20),
    "immediate-formulae": dict(),
    "nvariables": dict(cases=3),
    "integrate-exhaustive": dict(max_degree=2, cases=10),
    "simplicity-random": dict(cases=25),
    "gamma-generators": dict(),
    "uq-relations": dict(max_degree=3),
    "uq-plane-consistency": dict(max_degree=2),
    "nonsurjectivity": dict(cases=25),
    "truncation": dict(cases=20),
    "eta1-surjectivity": dict(max_degree=3),
}


def test_registry_is_complete():
    assert sorted(CHEAP) == sorted(suite_names())
    assert len(suite_names()) == 15


@pytest.mark.parametrize("name", sorted(CHEAP))
def test_suite_passes(name):
    report = verify_suite(name, **CHEAP[name])
    assert report.passed, "\n".join(report.lines())
    assert report.total_cases > 0
    d = report.as_dict()
    assert d["suite"] == name
    assert d["verdict"] == "PASS"
    assert all({"label", "passed", "cases"} <= set(c) for c in d["checks"])


def test_seed_changes_cases_not_verdict():
    a = verify_suite("d0-commutative", cases=15, seed=1)
    b = verify_suite("d0-commutative", cases=15, seed=2)
    assert a.passed and b.passed
    assert a.as_dict() != b.as_dict() or a.params == b.params


def test_unknown_suite():
    with pytest.raises(UnknownSuite) as exc:
        verify_suite("plainly-wrong")
    assert "plainly-wrong" in str(exc.value)


@pytest.mark.parametrize("as_json", [False, True])
def test_one_failing_case_fails_its_row_and_the_verdict(monkeypatch, capsys,
                                                        as_json):
    argv = ["verify", "note-identities", "--max-degree", "3"]
    argv += ["--json"] if as_json else []
    assert main(argv) == 0
    passing = capsys.readouterr().out
    # at max_degree 3 the positive ladder makes the first three `equals`
    # calls and the negative ladder (the third row) the next three: the
    # fourth call is the first case of the third row
    real, calls = suites.equals, itertools.count()
    monkeypatch.setattr(suites, "equals",
                        lambda a, b: next(calls) != 3 and real(a, b))
    assert main(argv) == 1
    failing = capsys.readouterr().out
    if as_json:
        want, got = json.loads(passing), json.loads(failing)
        assert (want["verdict"], got["verdict"]) == ("PASS", "FAIL")
        want["results"][2]["passed"] = False
        assert got["results"] == want["results"]
        assert got["results"][2]["cases"] == 3
    else:
        want = passing.splitlines()
        want[3] = want[3].replace("[PASS]", "[FAIL]")
        want[-1] = want[-1].replace("verdict: PASS", "verdict: FAIL")
        assert failing.splitlines() == want
        assert want[3] == "  [FAIL] one-step ladder, negative twist (3 cases)"
