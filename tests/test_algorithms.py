"""Bracket antiderivatives and the simplicity reduction."""

import collections
import hashlib
import itertools
import random

import pytest

from qdops.exactscalar import ExactScalar, scalar
from qdops.rings import POLY_X, poly_n
from qdops.opsym import GradedOperator, generator, twisted_bracket, equals
from qdops.opexpr import OperatorExpr, parse, evaluate, expr_str
from qdops.shapes import ShapeForm, shape_normalize
from qdops import algorithms
from qdops.algorithms import (integrate, verify_integration, problem_expr,
                              simplicity_witness, replay, integrate_nd)
from qdops.cli import main
from qdops.errors import ZeroOperator, CompatibilityViolation, ParseError
from qdops.suites import _rand_nd_op

qp = ExactScalar.q_power
ONE = GradedOperator.identity(POLY_X)


# -- one-variable integration ------------------------------------------------

def test_integrate_base_case():
    Q, ok = verify_integration((), 2)
    assert ok
    assert expr_str(Q) == "D[2]"


def test_integrate_classical_special_case():
    Q, ok = verify_integration((0,), 0)
    assert ok
    assert expr_str(Q) == "D[0]^2/2"
    Q2, ok2 = verify_integration((0, 0), 0)
    assert ok2
    assert expr_str(Q2) == "D[0]^3/3"


def test_integrate_one_step_word():
    Q, ok = verify_integration((1,), 0)
    assert ok
    # (1/(1-q)) (d d^beta - q d^beta d)
    want = (evaluate(parse("D[0]*D[1] - q*D[1]*D[0]")) *
            (scalar(1) - qp(1)).inverse())
    assert equals(evaluate(Q), want)

    Q, ok = verify_integration((1,), 1)
    assert ok
    want = evaluate(parse("D[1]*D[1]")) * (qp(1) / (scalar(1) + qp(1)))
    assert equals(evaluate(Q), want)


def test_integrate_degenerate_twist():
    # b = -sum(word) with a nonzero entry forces the sigma-transposition path
    for word, b in [((1,), -1), ((2, -1), -1), ((1, 1), -2), ((0, 2), -2)]:
        _, ok = verify_integration(word, b)
        assert ok


def test_integrate_sweep():
    rng = random.Random(1)
    for _ in range(40):
        word = tuple(rng.randint(-2, 2) for _ in range(rng.randint(0, 3)))
        b = rng.randint(-3, 3)
        _, ok = verify_integration(word, b)
        assert ok, (word, b)


def _memo_cases():
    """Every word of length <= 2 with twists -3..3, then 50 seeded
    length-4 words, in a seeded shuffled order."""
    rng = random.Random(23)
    cases = [(w, b) for n in range(3)
             for w in itertools.product(range(-2, 3), repeat=n)
             for b in range(-3, 4)]
    cases += [(tuple(rng.randint(-2, 2) for _ in range(4)), rng.randint(-3, 3))
              for _ in range(50)]
    rng.shuffle(cases)
    return cases


def test_memo_values_equal_fresh_evaluation():
    memo = algorithms._int_cache
    memo.clear()
    for word, b in _memo_cases():
        Q, ok = verify_integration(word, b)
        assert ok, (word, b)
        # the memo now holds Q's value, and reading it back through the
        # memo gives what a fold without the memo computes
        fresh = evaluate(Q)
        assert equals(memo[Q], fresh)
        assert equals(evaluate(Q, POLY_X, memo), fresh)


def test_memo_is_keyed_by_nodes():
    memo = algorithms._int_cache
    memo.clear()
    for word, b in _memo_cases()[:60]:
        _, ok = verify_integration(word, b)
        assert ok
        # the fold's other nodes, such as the bracket [Q, x], are not kept
        assert len(memo) == len(memo.nodes)
    nodes = {id(v): v for v in memo.nodes.values()}
    for k, value in memo.items():
        assert isinstance(k, OperatorExpr) and nodes.get(id(k)) is k
        assert value is not None
    x = parse("x")
    memo.keep(x, evaluate(x))
    assert x not in memo and len(memo) == len(nodes)


def _reachable(root):
    """The ids of every node of the dag below root, root included."""
    seen, stack = set(), [root]
    while stack:
        e = stack.pop()
        if id(e) not in seen:
            seen.add(id(e))
            stack.extend(e._kids())
    return seen


def test_rotations_share_their_pieces():
    # the piece [T_i, D[a_i]]_k depends on a_i and the letters after it
    # read cyclically, so every rotation of a word at the same b holds
    # the same piece objects
    for word, b in [((1, 2), 0), ((1, -2, 2), 1), ((0, 1, 1), -1),
                    ((2, -1, 0, 1), 3), ((1, 1), 0), ((-2, 1, 1, 2), -1)]:
        n = len(word)
        want = {(word[i + 1:] + word[:i], b, word[i]) for i in range(n)}
        for r in range(n):
            Q = integrate(word[r:] + word[:r], b)
            below = _reachable(Q)
            pieces = {key for key, v in algorithms._int_cache.nodes.items()
                      if len(key) == 3 and len(key[0]) == n - 1
                      and key[1] == b and id(v) in below}
            assert pieces == want, (word, b, r)


def test_memo_entries_equal_fresh_evaluation_after_a_shuffled_sweep():
    memo = algorithms._int_cache
    memo.clear()
    for word, b in _memo_cases():
        _, ok = verify_integration(word, b)
        assert ok, (word, b)
    pieces = {id(v) for key, v in memo.nodes.items() if len(key) == 3}
    assert any(id(e) in pieces for e in memo)
    for e, value in list(memo.items()):
        assert equals(value, evaluate(e))


def _sweep():
    """Criterion 6's words: every word of length <= 3 at b = -3..3."""
    return [(w, b) for n in range(4)
            for w in itertools.product(range(-2, 3), repeat=n)
            for b in range(-3, 4)]


def test_each_node_value_is_computed_once_over_a_sweep(monkeypatch):
    memo = algorithms._int_cache
    memo.clear()
    kept = collections.Counter()
    keep = memo.keep

    def counting_keep(e, value):
        if e in memo:
            kept[id(e)] += 1
        keep(e, value)

    monkeypatch.setattr(memo, "keep", counting_keep)
    for word, b in _sweep():
        _, ok = verify_integration(word, b)
        assert ok, (word, b)
    assert kept and max(kept.values()) == 1
    assert len(kept) == len(memo)


def test_each_right_side_is_evaluated_once_over_a_sweep(monkeypatch):
    # the product D[a_n]...D[a_1] of a word is one node under (word,),
    # shared by its twists and by the longer words ending in it, built
    # from generators alone and evaluated once
    memo = algorithms._int_cache
    memo.clear()
    kept = collections.Counter()
    keep = memo.keep

    def counting_keep(e, value):
        if e in memo:
            kept[id(e)] += 1
        keep(e, value)

    monkeypatch.setattr(memo, "keep", counting_keep)
    cases = _memo_cases()
    for word, b in cases:
        _, ok = verify_integration(word, b)
        assert ok, (word, b)
    sides = {key[0]: node for key, node in memo.nodes.items() if len(key) == 1}
    assert set(sides) == {w[i:] for w, _ in cases for i in range(len(w))}
    solver = set().union(*(_reachable(node) for key, node in memo.nodes.items()
                           if len(key) != 1))
    for word, node in sides.items():
        assert kept[id(node)] == 1, word
        assert problem_expr(word, 0) is node
        assert all(problem_expr(word, b).a is node for b in (-3, 2))
        if len(word) > 1:
            assert node.a is sides[word[1:]]
        assert not _reachable(node) & solver
        fresh = evaluate(problem_expr(word, 0))
        assert equals(memo[node], fresh)
        text = "*".join(f"D[{a}]" for a in reversed(word))
        assert equals(fresh, evaluate(parse(text)))


def test_bad_words_raise_typed_errors():
    for call in (lambda: integrate(["a"]), lambda: verify_integration(["a"], 0),
                 lambda: integrate([1], "b"), lambda: problem_expr([None], 0)):
        with pytest.raises(ParseError):
            call()


def test_kept_values_share_their_parts():
    memo = algorithms._int_cache
    memo.clear()
    for word, b in _sweep():
        verify_integration(word, b)
    first, refs, rational = {}, 0, 0
    for value in memo.values():
        for e, s in value.parts.items():
            parts = [e]
            for k, c in s.coeffs.items():
                parts += [k, c, c.c, c.num, c.den]
            refs += len(parts)
            for x in parts:
                if isinstance(x, ExactScalar) and x.is_rational():
                    # it equals and hashes as its Fraction, which holds
                    # its place in the table
                    rational += 1
                    continue
                # an equal part of the same type is the same object
                assert first.setdefault((type(x), x), x) is x
    assert refs > 4 * len(first) and rational < refs // 1000


def test_clear_empties_the_table():
    memo = algorithms._int_cache
    verify_integration((1, -2, 2), 1)
    assert memo and memo.nodes and memo.parts
    memo.clear()
    assert not memo and not memo.nodes and not memo.parts
    # the dag is built afresh, and its values kept again
    Q, ok = verify_integration((1, -2, 2), 1)
    assert ok and memo.nodes[((1, -2, 2), 1)] is Q and memo[Q] is not None


def test_dag_bound_starts_afresh_between_calls(monkeypatch):
    cases = _memo_cases()[:120]
    want = [expr_str(integrate(w, b)) for w, b in cases]
    # the most nodes and parts one call builds, with every call starting
    # afresh
    monkeypatch.setattr(algorithms, "INT_DAG_SIZE", -1)
    memo = algorithms._int_cache
    largest = most_parts = 0
    for (w, b), text in zip(cases, want):
        Q, ok = verify_integration(w, b)
        assert ok and expr_str(Q) == text
        largest = max(largest, len(memo))
        most_parts = max(most_parts, len(memo.parts))
    bound = 40
    monkeypatch.setattr(algorithms, "INT_DAG_SIZE", bound)
    fresh_starts = 0
    for (w, b), text in zip(cases, want):
        before = len(memo)
        Q, ok = verify_integration(w, b)
        assert ok, (w, b)
        assert expr_str(Q) == text
        after = len(memo)
        assert after <= bound + largest
        assert after == len(memo.nodes) and None not in memo.values()
        if before > bound:
            # the values and the table were emptied with the nodes: what
            # is kept belongs to this call's answer and right side
            fresh_starts += 1
            assert set(map(id, memo)) <= (_reachable(Q)
                                          | _reachable(problem_expr(w, b)))
            assert len(memo.parts) <= most_parts
    assert fresh_starts > 1


def test_a_pass_stays_within_the_dag_bound():
    # criterion 6's words and 100 length-4 words, as in one pass of the
    # integrate-verify benchmark, never make the dag start afresh
    rng = random.Random(6)
    cases = _sweep() + [(tuple(rng.randint(-2, 2) for _ in range(4)),
                         rng.randint(-3, 3)) for _ in range(100)]
    memo = algorithms._int_cache
    memo.clear()
    size = 0
    for word, b in cases:
        _, ok = verify_integration(word, b)
        assert ok, (word, b)
        assert size <= len(memo) <= algorithms.INT_DAG_SIZE
        size = len(memo)
    assert size > 2000


def test_printed_answers_stay_the_same():
    text = "".join(
        expr_str(integrate(w, b)) + "\n" for n in range(4)
        for w in itertools.product(range(-2, 3), repeat=n)
        for b in range(-3, 4))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2650325da5b612861d106ee70182bb6d454d88f885ae6272d3a78e20536ed95b")


def test_problem_expr_round_trip():
    e = problem_expr((2, -1), 3)
    assert equals(evaluate(e), evaluate(parse("D[-1]*D[2]*s[3]")))
    assert equals(evaluate(problem_expr((), 0)), ONE)


# -- simplicity witness -------------------------------------------------------

def witness_for(text):
    return simplicity_witness(shape_normalize(parse(text)))


def test_witness_x():
    w = witness_for("x")
    assert w.describe() == ["bracket with D[0]", "scale by 1"]
    assert equals(replay(w, evaluate(parse("x"))), ONE)


def test_witness_sigma_monomial():
    w = witness_for("s[2]*x^3")
    assert w.describe() == ["left-multiply s[-2]"] + ["bracket with D[0]"] * 3 \
        + ["scale by 1/6"]
    assert equals(replay(w, evaluate(parse("s[2]*x^3"))), ONE)


def test_witness_with_word_phase():
    f = parse("x*D[1]")
    w = witness_for("x*D[1]")
    assert equals(replay(w, evaluate(f)), ONE)
    # first two moves discharge the D-word as in the reduction
    assert w.describe()[:2] == ["left-multiply s[-1]", "bracket with x"]


def test_witness_disguised_zero():
    with pytest.raises(ZeroOperator):
        witness_for("s[1] - 1 - (q-1)*x*D[1]")


def test_witness_random_replay():
    rng = random.Random(211)
    pool = ["x", "s[1]", "s[-1]", "D[0]", "D[1]", "D[-1]"]
    for _ in range(40):
        text = "*".join(rng.choice(pool) for _ in range(rng.randint(1, 4)))
        f = shape_normalize(parse(text))
        w = simplicity_witness(f)
        assert equals(replay(w, evaluate(parse(text))), ONE)
        # the recorded measures strictly decrease until the final scale
        for before, after in zip(w.measures, w.measures[1:]):
            assert after < before


# -- several variables --------------------------------------------------------

def nd(text, n=2):
    return evaluate(parse(text), poly_n(n))


def assert_potential(family):
    """integrate_nd answers with Q on the polynomial ring, [Q, x_i] = F_i."""
    dom = family[0].domain
    Q = integrate_nd(family)
    assert Q.check_preserves()
    for i, F in enumerate(family):
        assert equals(twisted_bracket(Q, generator("x_i", dom, i)), F)
    return Q


def test_integrate_nd_classical():
    Q = assert_potential([nd("1"), nd("0")])
    assert equals(Q, nd("D1[0]"))


def test_integrate_nd_crossed_family():
    assert_potential([nd("x2"), nd("x1")])


def test_integrate_nd_partial_family():
    # F = (x1, 0) is compatible: Q = x1 d1 works
    assert_potential([nd("x1"), nd("0")])


def test_integrate_nd_incompatible():
    # F1 = d2 brackets against x2 to 1, but F2 = 0 brackets to 0
    with pytest.raises(CompatibilityViolation):
        integrate_nd([nd("D2[0]"), nd("0")])


@pytest.mark.parametrize("nv", [2, 3])
def test_integrate_nd_on_random_bracket_families(nv):
    """Every family [G, x_i] of a G drawn as the nvariables suite draws it
    has a potential, with twisted derivatives and q-power coefficients."""
    rng, dom = random.Random(100 + nv), poly_n(nv)
    for _ in range(8):
        G = _rand_nd_op(rng, dom, 2)
        assert_potential([twisted_bracket(G, generator("x_i", dom, i))
                          for i in range(nv)])


@pytest.mark.parametrize("seed", [245835, 571145])
def test_nvariables_seeds_that_once_failed(seed, capsys):
    assert main(["verify", "nvariables", "--seed", str(seed),
                 "--cases", "1"]) == 0
    assert "verdict: PASS" in capsys.readouterr().out
